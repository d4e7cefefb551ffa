"""Steering vectors of a modular array under four wavefront models.

All models share the same antenna grid and produce unit-modulus vectors of
length K*M in subarray-major order (outer index k, inner index m). They
differ in how the propagation phase of antenna (k, m) is approximated:

    SWM           exact spherical wave, phase from the antenna's own range
    HSPM_DIST     spherical across subarrays, planar within each one, with
                  a distinct arrival angle per subarray
    HSPM_SHARED   like HSPM_DIST but every subarray reuses the global
                  arrival angle
    PWM           fully planar wave from the global arrival angle

Antenna (k, m) sits at x_k + m d, so the HSPM models give it the range
r_k - m d sin_k, the first-order expansion of its exact range, where r_k
is subarray k's range and sin_k its arrival sine (sin theta under
HSPM_SHARED); the phase is 2 pi / lambda times that range, as under SWM.

PWM carries no range dependence at all, so its steering vector is constant
in r and its range derivative vanishes identically.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigurationError
from .geometry import (
    ModularLayout,
    TargetPolar,
    _angle_terms,
    _arrival_sine,
    _radial_shift,
    _require_shifted_range,
    _require_wavelength,
    _arrival_sine_shift,
    arrival_sine_terms,
    radial_terms,
)

__all__ = [
    "WavefrontModel",
    "steering",
    "steering_derivatives",
]


class WavefrontModel(Enum):
    """Wavefront approximation used to build a steering vector."""

    HSPM_DIST = "hspm-dist"
    HSPM_SHARED = "hspm-shared"
    PWM = "pwm"
    SWM = "swm"

    @classmethod
    def parse(cls, token: str) -> "WavefrontModel":
        """Map a CLI/config token (e.g. "swm") to its model."""
        token = token.strip().lower()
        for model in cls:
            if model.value == token:
                return model
        valid = ", ".join(m.value for m in cls)
        raise InvalidConfigurationError(
            f"unknown wavefront model {token!r}; expected one of {valid}"
        )


#: Canonical model ordering used by sweeps and reports.
MODEL_ORDER = (
    WavefrontModel.HSPM_DIST,
    WavefrontModel.HSPM_SHARED,
    WavefrontModel.PWM,
    WavefrontModel.SWM,
)


class _Antennas(NamedTuple):
    """The antennas of one or more cases side by side, case-major.

    Cases may differ in K and M, so the layout is ragged: case c owns
    columns starts[c]:starts[c + 1] of every per-antenna array, in its own
    subarray-major order. Each antenna and each subarray carries the index
    of its case, whose target range and angle r[c], theta[c] it reads; k2
    holds 2 pi / lambda per antenna. The geometry is elementwise, so one
    pass over the group gives every entry the bits it gets in a group of
    its case alone.

    Attributes:
        starts: (C + 1,) column bounds of the cases.
        r: (C,) target range of each case, meters.
        theta: (C,) target angle of each case, radians.
        case: (N,) case of each antenna.
        x: (N,) abscissa of each antenna, meters.
        k2: (N,) 2 pi / lambda of each antenna's case.
        subarray: (N,) index into sub_x of each antenna's subarray.
        offset: (N,) offset m d of each antenna within its subarray.
        sub_case: (S,) case of each subarray.
        sub_x: (S,) reference abscissa of each subarray, meters.
    """

    starts: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    case: np.ndarray
    x: np.ndarray
    k2: np.ndarray
    subarray: np.ndarray
    offset: np.ndarray
    sub_case: np.ndarray
    sub_x: np.ndarray


def _antennas(cases: Sequence[tuple[ModularLayout, TargetPolar, float]]) -> _Antennas:
    """Concatenate the antennas of (layout, target, wavelength) cases.

    Raises:
        InvalidConfigurationError: On a wavelength that is not finite and
            positive.
    """
    k2 = []
    for _, _, wavelength in cases:
        _require_wavelength(wavelength)
        k2.append(2.0 * np.pi / wavelength)
    layouts = [layout for layout, _, _ in cases]
    ks = np.array([layout.num_subarrays for layout in layouts])
    ms = np.array([layout.subarray_size for layout in layouts])
    sizes = ks * ms
    starts = np.zeros(len(cases) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    case = np.repeat(np.arange(len(cases)), sizes)
    sub_m = np.repeat(ms, ks)
    offsets = [np.tile(layout.element_offsets * layout.pitch, layout.num_subarrays)
               for layout in layouts]
    return _Antennas(
        starts=starts,
        r=np.array([target.r for _, target, _ in cases]),
        theta=np.array([target.theta for _, target, _ in cases]),
        case=case,
        x=np.concatenate([layout.element_x for layout in layouts]),
        k2=np.array(k2)[case],
        subarray=np.repeat(np.arange(len(sub_m)), sub_m),
        offset=np.concatenate(offsets),
        sub_case=np.repeat(np.arange(len(cases)), ks),
        sub_x=np.concatenate([layout.subarray_x for layout in layouts]),
    )


def _one(layout: ModularLayout, target: TargetPolar, wavelength: float) -> _Antennas:
    """The antennas of a single case."""
    return _antennas(((layout, target, wavelength),))


def _phase_terms(
    model: WavefrontModel, ants: _Antennas
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase psi such that g = exp(-1j psi), and rebased (r, theta) rates.

    Returns three real arrays with one entry per antenna of ants: psi, the
    range rate of psi - 2 pi r / lambda (of psi under PWM, which has no
    range), built from the cancellation-free dr_dr - 1, and dpsi/dtheta.
    A term that depends on the case alone is evaluated once per case.
    """
    k2 = ants.k2

    if model is WavefrontModel.SWM:
        c = ants.case
        terms = radial_terms(ants.x, ants.r[c], ants.theta[c])
        return k2 * terms["rng"], k2 * terms["dr_dr_m1"], k2 * terms["dr_dt"]

    if model is WavefrontModel.PWM:
        c, x = ants.case, ants.x
        sin_t, cos_t = np.sin(ants.theta)[c], np.cos(ants.theta)[c]
        return -k2 * x * sin_t, np.zeros_like(x), -k2 * x * cos_t

    sc, x = ants.sub_case, ants.sub_x
    r, theta = ants.r[sc], ants.theta[sc]
    terms = radial_terms(x, r, theta)
    if model is WavefrontModel.HSPM_DIST:
        sines = arrival_sine_terms(x, r, theta, terms)
        sin_sub = _arrival_sine(x, r, theta, terms)
        dsin_dr, dsin_dt = sines["ds_dr"], sines["ds_dt"]
    else:
        sin_sub, dsin_dt = np.sin(ants.theta)[sc], np.cos(ants.theta)[sc]
        dsin_dr = np.zeros_like(x)

    sub, off = ants.subarray, ants.offset
    psi = k2 * (terms["rng"][sub] - off * sin_sub[sub])
    dpsi_r = k2 * (terms["dr_dr_m1"][sub] - off * dsin_dr[sub])
    dpsi_t = k2 * (terms["dr_dt"][sub] - off * dsin_dt[sub])
    return psi, dpsi_r, dpsi_t


def steering(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
) -> np.ndarray:
    """Steering vector of the layout toward a target under a model.

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.

    Returns:
        Complex array of length K*M, subarray-major, unit modulus per entry.
    """
    psi, _, _ = _phase_terms(model, _one(layout, target, wavelength))
    return np.exp(-1j * psi)


def steering_derivatives(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (r, theta) derivatives of the steering vector.

    Each entry of the steering vector is exp(-1j psi) for a real phase psi,
    so its derivative along u is -1j * (dpsi/du) * exp(-1j psi).

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.

    Returns:
        (d_r, d_theta), complex arrays of length K*M, subarray-major.
    """
    g, d_r, d_theta = _wavefront(model, _one(layout, target, wavelength))
    if model is not WavefrontModel.PWM:
        # Put back the reference path's rate that _phase_terms leaves out.
        d_r = d_r - 1j * (2.0 * np.pi / wavelength) * g
    return d_r, d_theta


def _wavefront(
    model: WavefrontModel, ants: _Antennas, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Steering vectors and their rebased derivatives from one phase pass.

    Returns g, dg/dr and dg/dtheta with one entry per antenna of ants, as
    the rows of out, a (3, N) complex array (new when None). The range
    derivative is that of g * exp(2j pi r / lambda). It differs from
    steering_derivatives' by a multiple of g, which the projection onto
    the nuisance gain removes exactly, but it no longer sits on
    2 pi / lambda.
    """
    g, d_r, d_t = np.empty((3, len(ants.case)), dtype=complex) if out is None else out
    for phase, row in zip(_phase_terms(model, ants), (g, d_r, d_t)):
        np.multiply(-1j, phase, out=row)
    np.exp(g, out=g)
    return g, np.multiply(d_r, g, out=d_r), np.multiply(d_t, g, out=d_t)


def _phase_increment(
    model: WavefrontModel, ants: _Antennas, hr: np.ndarray, ht: np.ndarray,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Increment of the rebased steering phase under shifts of the targets.

    The rebased phase is psi - 2 pi r / lambda, the phase against the path
    from the array center, for every model with range, and psi under PWM.
    Subtracting two phase evaluations would lose the increment under the
    rounding of phases near 2 pi r / lambda; the exact-algebra increments of
    geometry._radial_shift and geometry._arrival_sine_shift keep it accurate
    relative to its own O(dr, dtheta) size, and exactly zero where the phase
    cannot move (the center subarray under a range shift). Only the phase
    definitions are used, never their derivatives, so finite differences of
    exp(-1j * increment) remain an independent derivative check.

    hr and ht hold shifts per case, of a common shape S + (C,) for C cases;
    the result has shape S + (N,), one column per antenna of ants, each
    shifted by its case's column, in radians. The arithmetic is
    elementwise, so each stacked shift gets the bits of its scalar call.
    Every shifted range is checked here, once for the whole group, and not
    again in geometry._radial_shift, which takes work, (2,) + S + (N,) if
    given, under swm.

    Raises:
        InvalidConfigurationError: On a non-positive shifted range.
    """
    _require_shifted_range(ants.r, hr)
    k2 = ants.k2
    # The angle terms depend on the case alone: evaluate them per case.
    angles = _angle_terms(ants.theta, ht)

    if model is WavefrontModel.SWM:
        d_excess = _radial_shift(ants.x, ants.r, hr, angles, ants.case, work)["d_excess"]
        return np.multiply(k2, d_excess, out=d_excess)

    if model is WavefrontModel.PWM:
        return -k2 * ants.x * _take(angles[4], ants.case)

    sc, x = ants.sub_case, ants.sub_x
    r, theta = ants.r[sc], ants.theta[sc]
    hr, ht = _take(hr, sc), _take(ht, sc)
    angles = [_take(a, sc) for a in angles]
    shift = _radial_shift(x, r, hr, angles)
    if model is WavefrontModel.HSPM_DIST:
        d_sin = _arrival_sine_shift(x, r, theta, hr, ht, shift)
    else:
        d_sin = angles[4]
    sub = ants.subarray
    inc, d_sin = _take(shift["d_excess"], sub), _take(d_sin, sub)
    np.subtract(inc, np.multiply(ants.offset, d_sin, out=d_sin), out=inc)
    return np.multiply(k2, inc, out=inc)


def _take(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values gathered along the last axis."""
    return np.take(values, index, axis=-1)
