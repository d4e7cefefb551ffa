"""Scalar per-index geometry that the tests compare the batched library against.

The functions here evaluate one subarray or antenna at a time with the
math module, independently of geometry.radial_terms and its batched,
cancellation-free forms. hspm_sums builds the raw subarray sums of the
distinct-arrival-angle model, which the kernels avoid on purpose (see
crb._hspm_kernel), from the same radial_terms and arrival_sine_terms the
kernels read.
"""

import math
from typing import NamedTuple

from modcrb import (
    InvalidConfigurationError,
    ModularLayout,
    SingularGeometryError,
    TargetPolar,
    arrival_sine_terms,
    radial_terms,
)


def _check_subarray_index(layout: ModularLayout, k: int) -> int:
    half = (layout.num_subarrays - 1) // 2
    if not -half <= k <= half:
        raise InvalidConfigurationError(f"subarray index {k} outside +-{half}")
    return k + half


def _check_element_offset(layout: ModularLayout, m: int) -> int:
    half = (layout.subarray_size - 1) // 2
    if not -half <= m <= half:
        raise InvalidConfigurationError(f"element offset {m} outside +-{half}")
    return m + half


def distance_to(x: float, target: TargetPolar) -> float:
    """Euclidean distance from the point (x, 0) to the target."""
    s = math.sin(target.theta)
    c = math.cos(target.theta)
    # hypot form of sqrt(r^2 - 2 r x sin(theta) + x^2); exact at x = 0.
    return math.hypot(target.r - x * s, x * c)


def subarray_range(layout: ModularLayout, target: TargetPolar, k: int) -> float:
    """Distance from subarray k's reference antenna to the target, meters."""
    idx = _check_subarray_index(layout, k)
    return distance_to(float(layout.subarray_x[idx]), target)


def subarray_sine(layout: ModularLayout, target: TargetPolar, k: int) -> float:
    """Arrival sine (r sin(theta) - x_k) / r_k at subarray k, clipped to [-1, 1]."""
    idx = _check_subarray_index(layout, k)
    x = float(layout.subarray_x[idx])
    rk = distance_to(x, target)
    if rk == 0.0:
        raise SingularGeometryError(f"target coincides with subarray {k} reference antenna")
    value = (target.r * math.sin(target.theta) - x) / rk
    return min(1.0, max(-1.0, value))


def element_range(layout: ModularLayout, target: TargetPolar, k: int, m: int) -> float:
    """Distance from antenna (k, m) to the target, meters."""
    ki = _check_subarray_index(layout, k)
    mi = _check_element_offset(layout, m)
    x = float(layout.element_x[ki * layout.subarray_size + mi])
    return distance_to(x, target)


class HspmSums(NamedTuple):
    """Raw subarray sums of the distinct-arrival-angle model.

    p/q families aggregate derivatives of the subarray ranges r_k, z
    families derivatives of the subarray arrival sines sin_k:

        p       sum_k d r_k / d r
        p_tilde sum_k d r_k / d theta
        q       sum_k (d r_k / d r)^2
        q_tilde sum_k (d r_k / d theta)^2
        q_hat   sum_k (d r_k / d r)(d r_k / d theta)
        z       sum_k (d sin_k / d r)^2
        z_tilde sum_k (d sin_k / d theta)^2
        z_hat   sum_k (d sin_k / d r)(d sin_k / d theta)
    """

    p: float
    p_tilde: float
    q: float
    q_tilde: float
    q_hat: float
    z: float
    z_tilde: float
    z_hat: float


def hspm_sums(layout: ModularLayout, target: TargetPolar) -> HspmSums:
    """The eight HspmSums of a layout at a target."""
    x, r, theta = layout.subarray_x, target.r, target.theta
    terms = radial_terms(x, r, theta)
    sines = arrival_sine_terms(x, r, theta, terms)
    a, at = terms["w"] / terms["rng"], terms["dr_dt"]
    sr, st = sines["ds_dr"], sines["ds_dt"]
    return HspmSums(
        p=float(a.sum()),
        p_tilde=float(at.sum()),
        q=float((a * a).sum()),
        q_tilde=float((at * at).sum()),
        q_hat=float((a * at).sum()),
        z=float((sr * sr).sum()),
        z_tilde=float((st * st).sum()),
        z_hat=float((sr * st).sum()),
    )
