"""Geometry of modular linear arrays and near-field targets.

A modular array consists of an odd number of identical subarrays placed on
the x axis. Each subarray holds an odd number of antennas at a fixed pitch,
and consecutive subarrays are separated by integer multiples of that pitch.
Symmetric index sets are used throughout: subarrays are labelled
k = 0, +-1, ..., +-(K-1)/2 and antennas within a subarray
m = 0, +-1, ..., +-(M-1)/2, so the array center sits at the origin.

Targets are described in polar form relative to the array center, with the
angle measured from the array normal (the positive y axis). All distances
are in meters and all angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigurationError, SingularGeometryError

__all__ = [
    "ModularLayout",
    "TargetPolar",
    "FieldRegions",
    "build_layout",
    "field_regions",
    "subarray_range",
    "subarray_sine",
    "element_range",
    "distance_to",
    "radial_terms",
    "radial_shift",
]


@dataclass(frozen=True)
class ModularLayout:
    """Immutable description of a modular linear array.

    Attributes:
        num_subarrays: Number of subarrays K (odd, >= 1).
        subarray_size: Antennas per subarray M (odd, >= 1).
        spacings: Inter-subarray gap multiples, one per subarray. The center
            entry is 0 by convention; every other entry is the gap between a
            subarray and its inner neighbor, in units of the pitch.
        pitch: Antenna spacing d within a subarray, meters.
        subarray_x: Reference abscissa of each subarray center, meters,
            ordered by subarray index (length K).
        element_x: Abscissa of every antenna, meters, subarray-major order
            (length K*M).
    """

    num_subarrays: int
    subarray_size: int
    spacings: tuple[int, ...]
    pitch: float
    subarray_x: np.ndarray = field(compare=False, repr=False)
    element_x: np.ndarray = field(compare=False, repr=False)

    @property
    def num_elements(self) -> int:
        """Total antenna count K*M."""
        return self.num_subarrays * self.subarray_size

    @property
    def subarray_indices(self) -> np.ndarray:
        """Symmetric subarray labels -(K-1)/2 ... (K-1)/2."""
        half = (self.num_subarrays - 1) // 2
        return np.arange(-half, half + 1)

    @property
    def element_offsets(self) -> np.ndarray:
        """Symmetric intra-subarray labels -(M-1)/2 ... (M-1)/2."""
        half = (self.subarray_size - 1) // 2
        return np.arange(-half, half + 1)

    @property
    def aperture(self) -> float:
        """End-to-end span (sum of gaps + K*(M-1)) * pitch, meters."""
        span = sum(self.spacings) + self.num_subarrays * (self.subarray_size - 1)
        return span * self.pitch

    @property
    def is_centro_symmetric(self) -> bool:
        """True when the gap sequence is palindromic."""
        return self.spacings == self.spacings[::-1]

    @property
    def digest(self) -> str:
        """Compact human-readable identifier used in reports."""
        gaps = ",".join(str(g) for g in self.spacings)
        return (
            f"K{self.num_subarrays}M{self.subarray_size}"
            f"d{self.pitch:g}g[{gaps}]"
        )


@dataclass(frozen=True)
class TargetPolar:
    """Point target in polar coordinates relative to the array center.

    Attributes:
        r: Range from the array center, meters (> 0).
        theta: Angle from the array normal, radians.
    """

    r: float
    theta: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.r) and self.r > 0):
            raise InvalidConfigurationError(
                f"target range must be finite and positive, got {self.r}"
            )
        if not math.isfinite(self.theta):
            raise InvalidConfigurationError(
                f"target angle must be finite, got {self.theta}"
            )


@dataclass(frozen=True)
class FieldRegions:
    """Range thresholds separating the wavefront regimes of a layout.

    Attributes:
        subarray_farfield_bound: Range above which a single subarray sees an
            effectively planar wavefront, meters.
        array_rayleigh: Rayleigh distance of the full aperture, meters.
    """

    subarray_farfield_bound: float
    array_rayleigh: float

    def classify(self, r: float) -> str:
        """Name the regime a range falls in.

        Args:
            r: Range from the array center, meters.

        Returns:
            One of "subarray-near-field", "hspm-valid", "far-field".
        """
        if r < self.subarray_farfield_bound:
            return "subarray-near-field"
        if r >= self.array_rayleigh:
            return "far-field"
        return "hspm-valid"


def build_layout(
    num_subarrays: int,
    subarray_size: int,
    spacings: int | tuple[int, ...] | list[int],
    pitch: float,
) -> ModularLayout:
    """Construct a modular array layout and its antenna coordinates.

    The reference abscissa of subarray k is (G_k + k*(M-1)) * pitch where
    G_k accumulates the gap multiples between the center and subarray k.
    Antenna m of subarray k then sits at the reference plus m * pitch.

    Args:
        num_subarrays: Subarray count K (odd, >= 1).
        subarray_size: Antennas per subarray M (odd, >= 1).
        spacings: Either a single integer applied to every non-center gap,
            or a length-K sequence whose center entry is 0 and whose other
            entries are integers >= 1.
        pitch: Antenna spacing within a subarray, meters (> 0).

    Returns:
        The populated ModularLayout.

    Raises:
        InvalidConfigurationError: On even or non-positive counts, malformed
            gap sequences, or non-positive pitch.
    """
    if not isinstance(num_subarrays, (int, np.integer)) or num_subarrays < 1 or num_subarrays % 2 == 0:
        raise InvalidConfigurationError(
            f"num_subarrays must be a positive odd integer, got {num_subarrays}"
        )
    if not isinstance(subarray_size, (int, np.integer)) or subarray_size < 1 or subarray_size % 2 == 0:
        raise InvalidConfigurationError(
            f"subarray_size must be a positive odd integer, got {subarray_size}"
        )
    if not (math.isfinite(pitch) and pitch > 0):
        raise InvalidConfigurationError(f"pitch must be positive, got {pitch}")

    K = int(num_subarrays)
    M = int(subarray_size)
    half = (K - 1) // 2

    if isinstance(spacings, (int, np.integer)):
        gaps = [int(spacings)] * half + [0] + [int(spacings)] * half
    else:
        gaps = [int(g) for g in spacings]
    if len(gaps) != K:
        raise InvalidConfigurationError(
            f"spacings must have length {K}, got {len(gaps)}"
        )
    if gaps[half] != 0:
        raise InvalidConfigurationError(
            f"center spacing entry must be 0, got {gaps[half]}"
        )
    if any(g < 1 for i, g in enumerate(gaps) if i != half):
        raise InvalidConfigurationError(
            f"non-center spacing entries must be >= 1, got {tuple(gaps)}"
        )

    # Accumulate gap multiples outward from the center; G_0 = 0.
    gap_arr = np.asarray(gaps, dtype=np.int64)
    cum_right = np.cumsum(gap_arr[half + 1:]) if half else np.empty(0, dtype=np.int64)
    cum_left = -np.cumsum(gap_arr[half - 1::-1]) if half else np.empty(0, dtype=np.int64)
    cum = np.concatenate([cum_left[::-1], [0], cum_right])

    k_idx = np.arange(-half, half + 1, dtype=np.int64)
    m_idx = np.arange(-(M - 1) // 2, (M - 1) // 2 + 1, dtype=np.int64)
    ref_idx = cum + k_idx * (M - 1)
    # Integer index grid keeps mirror symmetry exact after the single
    # multiply by the pitch.
    elem_idx = ref_idx[:, None] + m_idx[None, :]

    subarray_x = ref_idx.astype(np.float64) * pitch
    element_x = elem_idx.astype(np.float64).ravel() * pitch
    subarray_x.setflags(write=False)
    element_x.setflags(write=False)

    return ModularLayout(
        num_subarrays=K,
        subarray_size=M,
        spacings=tuple(gaps),
        pitch=float(pitch),
        subarray_x=subarray_x,
        element_x=element_x,
    )


def field_regions(layout: ModularLayout, wavelength: float) -> FieldRegions:
    """Compute the wavefront-regime thresholds of a layout.

    Args:
        layout: Array layout.
        wavelength: Carrier wavelength, meters (> 0).

    Returns:
        FieldRegions with the subarray far-field bound 2*((M-1)*d)^2 / wl
        and the full-aperture Rayleigh distance 2*S^2 / wl.
    """
    if wavelength <= 0:
        raise InvalidConfigurationError(f"wavelength must be positive, got {wavelength}")
    sub_span = (layout.subarray_size - 1) * layout.pitch
    return FieldRegions(
        subarray_farfield_bound=2.0 * sub_span**2 / wavelength,
        array_rayleigh=2.0 * layout.aperture**2 / wavelength,
    )


def _check_subarray_index(layout: ModularLayout, k: int) -> int:
    half = (layout.num_subarrays - 1) // 2
    if not -half <= k <= half:
        raise InvalidConfigurationError(
            f"subarray index {k} outside +-{half}"
        )
    return k + half


def _check_element_offset(layout: ModularLayout, m: int) -> int:
    half = (layout.subarray_size - 1) // 2
    if not -half <= m <= half:
        raise InvalidConfigurationError(
            f"element offset {m} outside +-{half}"
        )
    return m + half


def distance_to(x: float, target: TargetPolar) -> float:
    """Euclidean distance from the point (x, 0) to the target."""
    s = math.sin(target.theta)
    c = math.cos(target.theta)
    # hypot form of sqrt(r^2 - 2 r x sin(theta) + x^2); exact at x = 0.
    return math.hypot(target.r - x * s, x * c)


def subarray_range(layout: ModularLayout, target: TargetPolar, k: int) -> float:
    """Distance from subarray k's reference antenna to the target.

    Args:
        layout: Array layout.
        target: Target position.
        k: Symmetric subarray index.

    Returns:
        sqrt(r^2 - 2 r x_k sin(theta) + x_k^2), meters.
    """
    idx = _check_subarray_index(layout, k)
    return distance_to(float(layout.subarray_x[idx]), target)


def subarray_sine(layout: ModularLayout, target: TargetPolar, k: int) -> float:
    """Sine of the arrival angle seen by subarray k.

    Args:
        layout: Array layout.
        target: Target position.
        k: Symmetric subarray index.

    Returns:
        (r sin(theta) - x_k) / r_k, clipped to [-1, 1].
    """
    idx = _check_subarray_index(layout, k)
    x = float(layout.subarray_x[idx])
    rk = distance_to(x, target)
    if rk == 0.0:
        raise SingularGeometryError(
            f"target coincides with subarray {k} reference antenna"
        )
    value = (target.r * math.sin(target.theta) - x) / rk
    return min(1.0, max(-1.0, value))


def element_range(layout: ModularLayout, target: TargetPolar, k: int, m: int) -> float:
    """Distance from antenna (k, m) to the target, meters."""
    ki = _check_subarray_index(layout, k)
    mi = _check_element_offset(layout, m)
    x = float(layout.element_x[ki * layout.subarray_size + mi])
    return distance_to(x, target)


def radial_terms(
    x: np.ndarray, r: float | np.ndarray, theta: float, dtype=np.float64
) -> dict[str, np.ndarray]:
    """Per-point ranges, arrival sines, and their derivatives.

    For reference abscissas x and target ranges r, broadcast against each
    other, and one target angle theta this evaluates, elementwise:

        rng      sqrt(r^2 - 2 r x sin + x^2)
        sin_a    (r sin - x) / rng                (arrival sine)
        dr_dr    (r - x sin) / rng                (d rng / d r)
        dr_dt    -r x cos / rng                   (d rng / d theta)
        ds_dr    r x cos^2 / rng^3                (d sin_a / d r)
        ds_dt    r^2 cos (r - x sin) / rng^3      (d sin_a / d theta)
        dr_dr_m1 dr_dr - 1, evaluated cancellation-free

    dr_dr tends to 1 for ranges far beyond the aperture, so sums of
    (dr_dr - mean) computed from dr_dr alone would lose all significant
    digits there; dr_dr_m1 routes around that via the algebraic identity
    dr_dr - 1 = -(x cos)^2 / (rng * (rng + r - x sin)).

    The arithmetic is elementwise, so a batch gives every point the bits
    it would get on its own: row i of radial_terms(x[None, :], r[:, None],
    theta) equals radial_terms(x, r[i], theta).

    Args:
        x: Reference abscissas, meters, of any shape; e.g. (K,) for one
            layout or (P, K) for P layouts.
        r: Target range, meters: a scalar, or an array broadcasting
            against x, e.g. (P, 1) for P ranges against x of shape (1, K).
        theta: Target angle, radians.
        dtype: Real dtype for the computation (float64 or longdouble).

    Returns:
        Dict of arrays of the broadcast shape of x and r, keyed by the
        names above.
    """
    x = np.asarray(x, dtype=dtype)
    r = np.asarray(r, dtype=dtype)
    s = np.sin(dtype(theta))
    c = np.cos(dtype(theta))
    w = r - x * s
    xc = x * c
    rng = np.hypot(w, xc)
    if np.any(rng == 0):
        raise SingularGeometryError("target coincides with an antenna")
    dr_dr = w / rng
    # Branch on the sign of w: both forms are exact algebra, each one free
    # of cancellation on its own side.
    with np.errstate(invalid="ignore", divide="ignore"):
        dr_dr_m1 = np.where(w >= 0, -(xc * xc) / (rng * (rng + w)), (w - rng) / rng)
    rng3 = rng * rng * rng
    return {
        "rng": rng,
        "sin_a": np.clip((r * s - x) / rng, -1.0, 1.0),
        "dr_dr": dr_dr,
        "dr_dt": -r * xc / rng,
        "ds_dr": r * xc * c / rng3,
        "ds_dt": r * r * c * w / rng3,
        "dr_dr_m1": dr_dr_m1,
    }


def radial_shift(
    x: np.ndarray,
    r: float,
    theta: float,
    dr: float = 0.0,
    dtheta: float = 0.0,
    dtype=np.float64,
) -> dict[str, np.ndarray]:
    """Increments of rng and sin_a under a small polar shift of the target.

    For a shift (r, theta) -> (r + dr, theta + dtheta) this returns, per
    abscissa, the exact-algebra increments

        d_rng    rng(r + dr, theta + dtheta) - rng(r, theta)
        d_sin    sin_a(r + dr, theta + dtheta) - sin_a(r, theta)
        d_s      sin(theta + dtheta) - sin(theta)   (scalar, broadcast)

    A direct subtraction of the shifted and unshifted values would leave an
    O(h) increment buried under the rounding of two O(r) ranges; instead the
    range increment comes from the difference of squared ranges (every term
    of which is O(h)) divided by the sum of ranges, and the sine increments
    use the sum-to-product identity for sin. No derivative formulas are
    involved, so finite differences built on these increments remain an
    independent check of the analytic derivatives.

    Args:
        x: Reference abscissas, meters.
        r: Base target range, meters.
        theta: Base target angle, radians.
        dr: Range shift, meters (r + dr must stay positive).
        dtheta: Angle shift, radians.
        dtype: Real dtype for the computation.

    Returns:
        Dict of arrays keyed by the names above.
    """
    x = np.asarray(x, dtype=dtype)
    r0 = dtype(r)
    t0 = dtype(theta)
    hr = dtype(dr)
    ht = dtype(dtheta)
    r1 = r0 + hr
    if r1 <= 0:
        raise InvalidConfigurationError(f"shifted range {float(r1)} must stay positive")
    s0 = np.sin(t0)
    s1 = np.sin(t0 + ht)
    # sin(t + h) - sin(t) without cancellation.
    d_s = dtype(2.0) * np.cos(t0 + ht / dtype(2.0)) * np.sin(ht / dtype(2.0))
    rng0 = np.hypot(r0 - x * s0, x * np.cos(t0))
    rng1 = np.hypot(r1 - x * s1, x * np.cos(t0 + ht))
    if np.any(rng0 == 0) or np.any(rng1 == 0):
        raise SingularGeometryError("target coincides with an antenna")
    # rng^2 = r^2 - 2 r x sin + x^2, so the squared-range increment is made
    # of O(h) terms only: (r1^2 - r0^2) - 2 x (r1 s1 - r0 s0).
    d_rng_sq = hr * (r0 + r1) - dtype(2.0) * x * (hr * s1 + r0 * d_s)
    d_rng = d_rng_sq / (rng0 + rng1)
    # sin_a = (r sin - x) / rng; difference the quotient against the stable
    # numerator and range increments.
    num0 = r0 * s0 - x
    d_num = hr * s1 + r0 * d_s
    d_sin = (rng0 * d_num - num0 * d_rng) / (rng1 * rng0)
    return {
        "d_rng": d_rng,
        "d_sin": d_sin,
        "d_s": np.broadcast_to(d_s, x.shape).copy(),
    }
