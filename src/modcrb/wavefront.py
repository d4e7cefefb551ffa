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
    _angle_products,
    _angle_terms,
    _arrival_sine,
    _Cases,
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

    Cases may differ in K and M, so the layout is ragged. It is described
    once, as counts: case c owns a slot, then the next K_c M_c antennas, in
    its own subarray-major order, and at the subarray level a slot, then
    the next K_c subarrays, each of which spreads to the next M_c antennas.
    A slot is a zero abscissa with a zero offset: the center of the array,
    where every model's phase rates and shift increments are exactly zero,
    at the case's range, so no geometry check trips on it. It lets every
    per-case sum be one np.add.reduceat call with the bits of the case
    alone (geometry._Cases). A value per case reaches its entries through
    the .spread of these _Cases, and per-case sums run through their .sum;
    a value per subarray reaches its antennas through .repeat(subarrays),
    slot to slot. k2 holds 2 pi / lambda per entry. The geometry is
    elementwise, so one pass over the group gives every entry the bits it
    gets in a group of its case alone.

    Attributes:
        cases: Antennas per case, C cases.
        sub_cases: Subarrays per case.
        subarrays: (S + C,) repeat counts from the subarray level to the
            antennas: 1 for a slot, M for a subarray.
        r: (C,) target range of each case, meters.
        theta: (C,) target angle of each case, radians.
        x: (N + C,) abscissa of each antenna, meters; +0.0 at the slots.
        k2: (N + C,) 2 pi / lambda of each entry's case.
        offset: (N + C,) offset m d of each antenna within its subarray.
        sub_x: (S + C,) reference abscissa of each subarray, meters; +0.0
            at the slots.
    """

    cases: _Cases
    sub_cases: _Cases
    subarrays: np.ndarray
    r: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    k2: np.ndarray
    offset: np.ndarray
    sub_x: np.ndarray


_SLOT = np.zeros(1)


def _antennas(cases: Sequence[tuple[ModularLayout, TargetPolar, float]]) -> _Antennas:
    """Concatenate the antennas of (layout, target, wavelength) cases, each after its slot.

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
    per_case, sub_cases = _Cases(ks * ms), _Cases(ks)
    subarrays = sub_cases.spread(ms)
    subarrays[sub_cases.first] = 1
    # Antenna m of a subarray sits m entries past its center (a slot is its
    # own center): integer labels times the pitch, as element_offsets.
    ends = np.cumsum(subarrays)
    labels = np.arange(ends[-1]) - (ends - (subarrays + 1) // 2).repeat(subarrays)
    pitch = per_case.spread(np.array([layout.pitch for layout in layouts]))

    def slot_led(parts):
        return np.concatenate([part for values in parts for part in (_SLOT, values)])

    return _Antennas(
        cases=per_case,
        sub_cases=sub_cases,
        subarrays=subarrays,
        r=np.array([target.r for _, target, _ in cases]),
        theta=np.array([target.theta for _, target, _ in cases]),
        x=slot_led(layout.element_x for layout in layouts),
        k2=per_case.spread(np.array(k2)),
        offset=labels * pitch,
        sub_x=slot_led(layout.subarray_x for layout in layouts),
    )


def _one(layout: ModularLayout, target: TargetPolar, wavelength: float) -> _Antennas:
    """The antennas of a single case."""
    return _antennas(((layout, target, wavelength),))


def _phase_terms(
    model: WavefrontModel, ants: _Antennas
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase psi such that g = exp(-1j psi), and rebased (r, theta) rates.

    Returns three real arrays with one entry per slot and antenna of ants:
    psi, the range rate of psi - 2 pi r / lambda (of psi under PWM, which
    has no range), built from the cancellation-free dr_dr - 1, and
    dpsi/dtheta. A term that depends on the case alone is evaluated once
    per case.
    """
    k2 = ants.k2

    if model is WavefrontModel.SWM:
        angles = _angle_products(ants.x, ants.theta, ants.cases)
        terms = radial_terms(ants.x, ants.cases.spread(ants.r), None, angles=angles)
        return k2 * terms["rng"], k2 * terms["dr_dr_m1"], k2 * terms["dr_dt"]

    if model is WavefrontModel.PWM:
        x = ants.x
        sin_t, cos_t = ants.cases.spread((np.sin(ants.theta), np.cos(ants.theta)))
        return -k2 * x * sin_t, np.zeros_like(x), -k2 * x * cos_t

    x = ants.sub_x
    r, theta = ants.sub_cases.spread((ants.r, ants.theta))
    terms = radial_terms(x, r, theta)
    if model is WavefrontModel.HSPM_DIST:
        sines = arrival_sine_terms(x, r, theta, terms)
        sin_sub = _arrival_sine(x, r, theta, terms)
        dsin_dr, dsin_dt = sines["ds_dr"], sines["ds_dt"]
    else:
        sin_sub, dsin_dt = ants.sub_cases.spread((np.sin(ants.theta), np.cos(ants.theta)))
        dsin_dr = np.zeros_like(x)

    # Every subarray term spread to its antennas in one pass.
    rng, a, t, sin_a, ds_r, ds_t = np.array(
        (terms["rng"], terms["dr_dr_m1"], terms["dr_dt"], sin_sub, dsin_dr, dsin_dt)
    ).repeat(ants.subarrays, axis=-1)
    off = ants.offset
    psi = k2 * (rng - off * sin_a)
    dpsi_r = k2 * (a - off * ds_r)
    dpsi_t = k2 * (t - off * ds_t)
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
    psi = _phase_terms(model, _one(layout, target, wavelength))[0][1:]  # past the slot
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
    psi, rate_r, rate_t = (terms[1:] for terms in  # past the slot
                           _phase_terms(model, _one(layout, target, wavelength)))
    if model is not WavefrontModel.PWM:
        # Put back the reference path's rate that _phase_terms leaves out.
        rate_r = rate_r + 2.0 * np.pi / wavelength
    g = np.exp(-1j * psi)
    return -1j * rate_r * g, -1j * rate_t * g


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
    the result has shape S + (N + C,), one column per slot and antenna of
    ants, each shifted by its case's column, in radians (exactly zero at
    the slots). The arithmetic is elementwise, so each stacked shift gets
    the bits of its scalar call.
    Every shifted range is checked here, once for the whole group, and not
    again in geometry._radial_shift, which takes work, (2,) + S + (N + C,)
    if given, under swm.

    Raises:
        InvalidConfigurationError: On a non-positive shifted range.
    """
    _require_shifted_range(ants.r, hr)
    k2 = ants.k2
    # The angle terms depend on the case alone: evaluate them per case.
    angles = _angle_terms(ants.theta, ht)

    if model is WavefrontModel.SWM:
        d_excess = _radial_shift(ants.x, ants.r, hr, angles, ants.cases, work)["d_excess"]
        return np.multiply(k2, d_excess, out=d_excess)

    if model is WavefrontModel.PWM:
        return -k2 * ants.x * ants.cases.spread(angles[4])

    sub = ants.sub_cases
    x, r, hr = ants.sub_x, sub.spread(ants.r), sub.spread(hr)
    angles = [sub.spread(a) for a in angles]
    shift = _radial_shift(x, r, hr, angles)
    if model is WavefrontModel.HSPM_DIST:
        d_sin = _arrival_sine_shift(x, r, hr, angles, shift)
    else:
        d_sin = angles[4]
    inc, d_sin = (values.repeat(ants.subarrays, axis=-1) for values in (shift["d_excess"], d_sin))
    np.subtract(inc, np.multiply(ants.offset, d_sin, out=d_sin), out=inc)
    return np.multiply(k2, inc, out=inc)
