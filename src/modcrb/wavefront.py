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

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidConfigurationError
from .geometry import (
    ModularLayout,
    TargetPolar,
    _require_wavelength,
    _shifted_range,
    _sine_increment,
    arrival_sine_shift,
    arrival_sine_terms,
    radial_shift,
    radial_terms,
)

__all__ = [
    "WavefrontModel",
    "SteeringVector",
    "SteeringDerivatives",
    "steering",
    "steering_derivatives",
    "phase_increment",
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


@dataclass(frozen=True)
class SteeringVector:
    """Unit-modulus steering vector, subarray-major order."""

    values: np.ndarray = field(compare=False, repr=False)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class SteeringDerivatives:
    """Entrywise partial derivatives of a steering vector.

    Attributes:
        d_r: Derivative with respect to target range, per entry.
        d_theta: Derivative with respect to target angle, per entry.
    """

    d_r: np.ndarray = field(compare=False, repr=False)
    d_theta: np.ndarray = field(compare=False, repr=False)


def _phase_terms(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase psi such that g = exp(-1j psi), and rebased (r, theta) rates.

    Returns three real arrays of length K*M: psi, the range rate of
    psi - 2 pi r / lambda (of psi under PWM, which has no range), built from
    the cancellation-free dr_dr - 1, and dpsi/dtheta.
    """
    _require_wavelength(wavelength)
    k2 = 2.0 * np.pi / wavelength

    if model is WavefrontModel.SWM:
        terms = radial_terms(layout.element_x, target.r, target.theta)
        return k2 * terms["rng"], k2 * terms["dr_dr_m1"], k2 * terms["dr_dt"]

    if model is WavefrontModel.PWM:
        x = layout.element_x
        zero = np.zeros_like(x)
        return -k2 * x * np.sin(target.theta), zero, -k2 * x * np.cos(target.theta)

    x, r, theta = layout.subarray_x, target.r, target.theta
    terms = radial_terms(x, r, theta)
    m_off = layout.element_offsets * layout.pitch
    if model is WavefrontModel.HSPM_DIST:
        sines = arrival_sine_terms(x, r, theta, terms)
        sin_sub, dsin_dr, dsin_dt = sines["sin_a"], sines["ds_dr"], sines["ds_dt"]
    else:
        k = layout.num_subarrays
        sin_sub = np.full(k, np.sin(theta))
        dsin_dr = np.zeros(k)
        dsin_dt = np.full(k, np.cos(theta))

    psi = k2 * (terms["rng"][:, None] - m_off[None, :] * sin_sub[:, None])
    dpsi_r = k2 * (terms["dr_dr_m1"][:, None] - m_off[None, :] * dsin_dr[:, None])
    dpsi_t = k2 * (terms["dr_dt"][:, None] - m_off[None, :] * dsin_dt[:, None])
    return psi.ravel(), dpsi_r.ravel(), dpsi_t.ravel()


def steering(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
) -> SteeringVector:
    """Steering vector of the layout toward a target under a model.

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.

    Returns:
        SteeringVector of length K*M, unit modulus per entry.
    """
    psi, _, _ = _phase_terms(model, layout, target, wavelength)
    return SteeringVector(values=np.exp(-1j * psi))


def steering_derivatives(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
) -> SteeringDerivatives:
    """Analytic (r, theta) derivatives of the steering vector.

    Each entry of the steering vector is exp(-1j psi) for a real phase psi,
    so its derivative along u is -1j * (dpsi/du) * exp(-1j psi).

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.

    Returns:
        SteeringDerivatives with d_r and d_theta arrays of length K*M.
    """
    g, dg = _wavefront(model, layout, target, wavelength)
    if model is WavefrontModel.PWM:
        return dg
    # Put back the reference path's rate that _phase_terms leaves out.
    d_r = dg.d_r - 1j * (2.0 * np.pi / wavelength) * g.values
    return SteeringDerivatives(d_r=d_r, d_theta=dg.d_theta)


def _wavefront(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
) -> tuple[SteeringVector, SteeringDerivatives]:
    """Steering vector and its rebased derivatives from one phase pass.

    The range derivative is that of g * exp(2j pi r / lambda). It differs
    from steering_derivatives' by a multiple of g, which the projection onto
    the nuisance gain removes exactly, but it no longer sits on 2 pi / lambda.
    """
    psi, dpsi_r, dpsi_t = _phase_terms(model, layout, target, wavelength)
    g = np.exp(-1j * psi)
    return (
        SteeringVector(values=g),
        SteeringDerivatives(d_r=-1j * dpsi_r * g, d_theta=-1j * dpsi_t * g),
    )


def phase_increment(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    dr: float | np.ndarray = 0.0,
    dtheta: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Increment of the rebased steering phase under a shift of the target.

    The rebased phase is psi - 2 pi r / lambda, the phase against the path
    from the array center, for every model with range, and psi under PWM.
    Subtracting two phase evaluations would lose the increment under the
    rounding of phases near 2 pi r / lambda; the exact-algebra increments of
    radial_shift and arrival_sine_shift keep it accurate relative to its own
    O(dr, dtheta) size, and exactly zero where the phase cannot move (the
    center subarray under a range shift). Only the phase definitions are
    used, never their derivatives, so finite differences of
    exp(-1j * increment) remain an independent derivative check.

    Several shifts evaluate in one call: dr and dtheta may be arrays, which
    broadcast against each other to a shape S and then against a trailing
    abscissa axis. The arithmetic is elementwise, so entry i of a stacked
    call equals the call with the scalar shift (dr[i], dtheta[i]) bit for
    bit, and scalar shifts give shape (K*M,) as a shape-() S would.

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Base target position.
        wavelength: Carrier wavelength, meters.
        dr: Range shift, meters: a scalar or an array of shifts (every
            r + dr must stay positive).
        dtheta: Angle shift, radians: a scalar or an array of shifts.

    Returns:
        Real array of shape S + (K*M,), subarray-major, in radians.

    Raises:
        InvalidConfigurationError: On a wavelength that is not finite and
            positive, or a non-positive shifted range.
    """
    _require_wavelength(wavelength)
    k2 = 2.0 * np.pi / wavelength
    hr, ht = np.broadcast_arrays(np.asarray(dr, dtype=float), np.asarray(dtheta, dtype=float))
    hr, ht = hr[..., None], ht[..., None]
    _shifted_range(target.r, hr)

    if model is WavefrontModel.SWM:
        shift = radial_shift(layout.element_x, target.r, target.theta, hr, ht)
        return k2 * shift["d_excess"]

    if model is WavefrontModel.PWM:
        return -k2 * layout.element_x * _sine_increment(target.theta, ht)

    shift = radial_shift(layout.subarray_x, target.r, target.theta, hr, ht)
    m_off = layout.element_offsets * layout.pitch
    if model is WavefrontModel.HSPM_DIST:
        d_sin = arrival_sine_shift(layout.subarray_x, target.r, target.theta, hr, ht, shift)
    else:
        d_sin = _sine_increment(target.theta, ht)
    dpsi = k2 * (shift["d_excess"][..., :, None] - m_off * d_sin[..., :, None])
    return dpsi.reshape(dpsi.shape[:-2] + (-1,))
