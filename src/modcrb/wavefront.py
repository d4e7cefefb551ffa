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

PWM carries no range dependence at all, so its steering vector is constant
in r and its range derivative vanishes identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidConfigurationError
from .geometry import ModularLayout, TargetPolar, radial_shift, radial_terms

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
    dtype,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase psi and its (r, theta) gradients such that g = exp(-1j psi).

    Returns three real arrays of length K*M: psi, dpsi/dr, dpsi/dtheta.
    """
    if wavelength <= 0:
        raise InvalidConfigurationError(f"wavelength must be positive, got {wavelength}")
    k2 = dtype(2.0 * np.pi) / dtype(wavelength)
    theta = dtype(target.theta)

    if model is WavefrontModel.SWM:
        terms = radial_terms(layout.element_x, target.r, target.theta, dtype=dtype)
        return k2 * terms["rng"], k2 * terms["dr_dr"], k2 * terms["dr_dt"]

    if model is WavefrontModel.PWM:
        x = np.asarray(layout.element_x, dtype=dtype)
        s = np.sin(theta)
        c = np.cos(theta)
        zero = np.zeros_like(x)
        return -k2 * x * s, zero, -k2 * x * c

    terms = radial_terms(layout.subarray_x, target.r, target.theta, dtype=dtype)
    m_off = np.asarray(layout.element_offsets, dtype=dtype) * dtype(layout.pitch)
    if model is WavefrontModel.HSPM_DIST:
        sin_sub = terms["sin_a"]
        dsin_dr = terms["ds_dr"]
        dsin_dt = terms["ds_dt"]
    elif model is WavefrontModel.HSPM_SHARED:
        sin_sub = np.full(layout.num_subarrays, np.sin(theta), dtype=dtype)
        dsin_dr = np.zeros(layout.num_subarrays, dtype=dtype)
        dsin_dt = np.full(layout.num_subarrays, np.cos(theta), dtype=dtype)
    else:
        raise InvalidConfigurationError(f"unsupported model {model}")

    psi = k2 * (terms["rng"][:, None] + m_off[None, :] * sin_sub[:, None])
    dpsi_r = k2 * (terms["dr_dr"][:, None] + m_off[None, :] * dsin_dr[:, None])
    dpsi_t = k2 * (terms["dr_dt"][:, None] + m_off[None, :] * dsin_dt[:, None])
    return psi.ravel(), dpsi_r.ravel(), dpsi_t.ravel()


def steering(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    dtype=np.float64,
) -> SteeringVector:
    """Steering vector of the layout toward a target under a model.

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        dtype: Real dtype of the phase computation; np.longdouble selects
            extended precision where the platform provides it.

    Returns:
        SteeringVector of length K*M, unit modulus per entry.
    """
    psi, _, _ = _phase_terms(model, layout, target, wavelength, dtype)
    return SteeringVector(values=np.exp(-1j * psi))


def steering_derivatives(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    dtype=np.float64,
) -> SteeringDerivatives:
    """Analytic (r, theta) derivatives of the steering vector.

    Each entry of the steering vector is exp(-1j psi) for a real phase psi,
    so its derivative along u is -1j * (dpsi/du) * exp(-1j psi).

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        dtype: Real dtype of the phase computation.

    Returns:
        SteeringDerivatives with d_r and d_theta arrays of length K*M.
    """
    return _wavefront(model, layout, target, wavelength, dtype)[1]


def _wavefront(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    dtype=np.float64,
) -> tuple[SteeringVector, SteeringDerivatives]:
    """Steering vector and its analytic derivatives from one phase pass.

    One _phase_terms call and one exp(-1j psi) serve both results, with the
    arithmetic of steering and steering_derivatives, so each array equals
    the one those functions return bit for bit.
    """
    psi, dpsi_r, dpsi_t = _phase_terms(model, layout, target, wavelength, dtype)
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
    dtype=np.float64,
) -> np.ndarray:
    """Steering-phase increment psi(r + dr, theta + dtheta) - psi(r, theta).

    Directly subtracting two phase evaluations loses the increment under
    the rounding of the absolute phases (which reach 2 pi r / lambda); this
    builds it from the exact-algebra range and sine increments instead, so
    the result is accurate relative to its own O(dr, dtheta) size. Only the
    phase definitions are used, never their derivatives, which keeps finite
    differences of exp(-1j * increment) an independent derivative check.

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
        dr: Range shift, meters: a scalar or an array of shifts.
        dtheta: Angle shift, radians: a scalar or an array of shifts.
        dtype: Real dtype of the computation.

    Returns:
        Real array of shape S + (K*M,), subarray-major, in radians.
    """
    if wavelength <= 0:
        raise InvalidConfigurationError(f"wavelength must be positive, got {wavelength}")
    k2 = dtype(2.0 * np.pi) / dtype(wavelength)
    hr, ht = np.broadcast_arrays(np.asarray(dr, dtype=dtype), np.asarray(dtheta, dtype=dtype))
    hr, ht = hr[..., None], ht[..., None]

    if model is WavefrontModel.SWM:
        shift = radial_shift(layout.element_x, target.r, target.theta, hr, ht, dtype)
        return k2 * shift["d_rng"]

    if model is WavefrontModel.PWM:
        x = np.asarray(layout.element_x, dtype=dtype)
        d_s = dtype(2.0) * np.cos(dtype(target.theta) + ht / dtype(2.0)) * np.sin(ht / dtype(2.0))
        return -k2 * x * d_s

    shift = radial_shift(layout.subarray_x, target.r, target.theta, hr, ht, dtype)
    m_off = np.asarray(layout.element_offsets, dtype=dtype) * dtype(layout.pitch)
    if model is WavefrontModel.HSPM_DIST:
        d_sin = shift["d_sin"]
    elif model is WavefrontModel.HSPM_SHARED:
        d_sin = shift["d_s"]
    else:
        raise InvalidConfigurationError(f"unsupported model {model}")
    dpsi = k2 * (shift["d_rng"][..., :, None] + m_off * d_sin[..., :, None])
    return dpsi.reshape(dpsi.shape[:-2] + (-1,))
