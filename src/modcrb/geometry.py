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
from typing import NamedTuple

import numpy as np

from .errors import InvalidConfigurationError, SingularGeometryError

__all__ = [
    "ModularLayout",
    "TargetPolar",
    "FieldRegions",
    "build_layout",
    "field_regions",
    "radial_terms",
    "arrival_sine_terms",
]


# Most antennas K * M one layout may have. A closed-form evaluation holds
# about 8 float64 values per antenna and point in its workspace and angle
# products (a crb run at the cap peaks near 110 MB), the oracle about 210
# bytes per antenna (a cross_validate of one swm case at the cap near 220 MB);
# both stay well within a 2 GB address space. The largest benchmark layout has 7007.
_MAX_ELEMENTS = 1 << 20


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
        InvalidConfigurationError: On even or non-positive counts, more than
            _MAX_ELEMENTS antennas in all, malformed gap sequences, or
            non-positive pitch.
    """
    if not isinstance(num_subarrays, (int, np.integer)) or num_subarrays < 1 or num_subarrays % 2 == 0:
        raise InvalidConfigurationError(
            f"num_subarrays must be a positive odd integer, got {num_subarrays}"
        )
    if not isinstance(subarray_size, (int, np.integer)) or subarray_size < 1 or subarray_size % 2 == 0:
        raise InvalidConfigurationError(
            f"subarray_size must be a positive odd integer, got {subarray_size}"
        )
    if num_subarrays * subarray_size > _MAX_ELEMENTS:
        raise InvalidConfigurationError(f"K * M = {num_subarrays} * {subarray_size}"
                                        f" antennas exceeds the limit of {_MAX_ELEMENTS}")
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

    grid = _grid_abscissas(np.array([gaps], dtype=np.int64), M, pitch)
    subarray_x, element_x = grid.subarray_x[0], grid.element_x[0]
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


class _Abscissas(NamedTuple):
    subarray_x: np.ndarray
    element_x: np.ndarray


def _grid_abscissas(gaps: np.ndarray, m: int, pitch: float) -> _Abscissas:
    """Abscissas, meters, of P layouts sharing K, M and the pitch, one row each.

    gaps stacks P validated build_layout spacings as (P, K) int64, and m is
    M; a row of subarray_x has K entries, one of element_x K*M, subarray-major.
    """
    half = (gaps.shape[1] - 1) // 2
    # With T the running sum of gap + M - 1 along a row, subarray k's
    # reference index G_k + k (M - 1) is T_k - T_c right of the center c
    # and T_k - T_c - gap_k left of it, where gap_k lies on k's inner side.
    ref_idx = np.cumsum(gaps + (m - 1), axis=1)
    ref_idx -= ref_idx[:, half:half + 1]
    ref_idx[:, :half] -= gaps[:, :half]
    m_idx = np.arange(-(m - 1) // 2, (m - 1) // 2 + 1, dtype=np.int64)
    # The integer index grid, summed exactly in float64 (every index is below
    # 2**53), keeps mirror symmetry exact after the single multiply by the pitch.
    element_x = np.add(ref_idx[:, :, None], m_idx, dtype=np.float64)
    element_x *= pitch
    return _Abscissas(ref_idx.astype(np.float64) * pitch, element_x.reshape(len(gaps), -1))


def _require_wavelength(wavelength: float) -> None:
    """Reject a wavelength that is not finite and positive."""
    if not (math.isfinite(wavelength) and wavelength > 0):
        raise InvalidConfigurationError(
            f"wavelength must be finite and positive, got {wavelength}"
        )


def field_regions(layout: ModularLayout, wavelength: float) -> FieldRegions:
    """Compute the wavefront-regime thresholds of a layout.

    Args:
        layout: Array layout.
        wavelength: Carrier wavelength, meters (finite, > 0).

    Returns:
        FieldRegions with the subarray far-field bound 2*((M-1)*d)^2 / wl
        and the full-aperture Rayleigh distance 2*S^2 / wl.
    """
    _require_wavelength(wavelength)
    sub_span = (layout.subarray_size - 1) * layout.pitch
    return FieldRegions(
        subarray_farfield_bound=2.0 * sub_span**2 / wavelength,
        array_rayleigh=2.0 * layout.aperture**2 / wavelength,
    )


def radial_terms(
    x: np.ndarray, r: float | np.ndarray, theta: float | np.ndarray,
    out: np.ndarray | None = None, angles: tuple[np.ndarray, ...] | None = None,
) -> dict[str, np.ndarray]:
    """Per-point ranges and their derivatives.

    For reference abscissas x, target ranges r and target angles theta,
    broadcast against each other, this evaluates, elementwise:

        w        r - x sin
        xc       x cos
        rng      sqrt(r^2 - 2 r x sin + x^2) = hypot(w, xc)
        dr_dr_m1 d rng / d r - 1 = w / rng - 1, evaluated cancellation-free
        dr_dt    -r x cos / rng                   (d rng / d theta)

    These are the terms every model with range reads: the closed-form
    kernels of swm, hspm-dist and hspm-shared, and their phases. w and xc
    feed arrival_sine_terms, which only the distinct-angle model needs.

    d rng / d r tends to 1 for ranges far beyond the aperture, so sums of
    its deviations from the mean would lose all significant digits there;
    dr_dr_m1 routes around that via the algebraic identity
    w / rng - 1 = -(x cos)^2 / (rng * (rng + w)).

    The arithmetic is elementwise, so a batch gives every point the bits
    it would get on its own: row i of radial_terms(x[None, :], r[:, None],
    theta) equals radial_terms(x, r[i], theta).

    Args:
        x: Reference abscissas, meters, of any shape; e.g. (K,) for one
            layout or (P, K) for P layouts.
        r: Target range, meters: a scalar, or an array broadcasting
            against x, e.g. (P, 1) for P ranges against x of shape (1, K).
        theta: Target angle, radians: a scalar, or an array broadcasting
            against x, e.g. one angle per abscissa.
        out: (4, ...) array over the broadcast shape of x and r taking w,
            rng, dr_dr_m1 and dr_dt in that order; allocated when None.
        angles: _angle_products(x, theta), made once for calls sharing them.

    Returns:
        Dict of arrays keyed by the names above, of the broadcast shape of
        x and r (views of out), except xc, which has the shape of x.

    Raises:
        SingularGeometryError: If the target coincides with an abscissa.
    """
    r = np.asarray(r, dtype=float)
    xs, xc, neg_xc2 = _angle_products(x, theta) if angles is None else angles
    if out is None:
        out = np.empty((4, *np.broadcast_shapes(xs.shape, r.shape)))
    w, rng, dr_dr_m1, dr_dt = out
    np.hypot(np.subtract(r, xs, out=w), xc, out=rng)
    # fl(r - xs) has the sign of r - xs, so w > 0 and rng > 0 where r > every xs.
    ahead = r.min(initial=np.inf) > xs.max(initial=-np.inf)
    if not ahead and np.any(rng == 0):
        raise SingularGeometryError("target coincides with an antenna")
    # Branch on the sign of w: both forms are exact algebra, each one free
    # of cancellation on its own side. The first is evaluated everywhere,
    # and the second replaces it only where w < 0.
    with np.errstate(invalid="ignore", divide="ignore"):
        np.multiply(rng, np.add(rng, w, out=dr_dr_m1), out=dr_dr_m1)
        np.divide(neg_xc2, dr_dr_m1, out=dr_dr_m1)
    if not ahead and np.any(behind := w < 0):
        dr_dr_m1[behind] = (w[behind] - rng[behind]) / rng[behind]
    np.divide(np.multiply(-r, xc, out=dr_dt), rng, out=dr_dt)
    return {"w": w, "xc": xc, "rng": rng, "dr_dr_m1": dr_dr_m1, "dr_dt": dr_dt}


def _angle_products(x: np.ndarray, theta: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """x sin theta, x cos theta and -(x cos theta)^2: all radial_terms reads of x and theta."""
    x = np.asarray(x, dtype=float)
    xc = x * np.cos(theta)
    return x * np.sin(theta), xc, -(xc * xc)


def arrival_sine_terms(
    x: np.ndarray,
    r: float | np.ndarray,
    theta: float | np.ndarray,
    ranges: dict[str, np.ndarray],
    out: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Per-point derivatives of the arrival sines.

    Only the distinct-arrival-angle model reads these. From the w, xc and
    rng of ranges = radial_terms(x, r, theta) this evaluates, elementwise:

        ds_dr    r x cos^2 / rng^3                (d sin_a / d r)
        ds_dt    r^2 cos (r - x sin) / rng^3      (d sin_a / d theta)
        rng3     rng^3

    of the arrival sine sin_a = (r sin - x) / rng (_arrival_sine).
    Like radial_terms, the arithmetic is elementwise, so row i of a batch
    equals the call for point i alone.

    Args:
        x: Reference abscissas, meters, as passed to radial_terms.
        r: Target range, meters, as passed to radial_terms.
        theta: Target angle, radians, as passed to radial_terms.
        ranges: radial_terms(x, r, theta).
        out: (3, ...) array over the broadcast shape of x and r taking
            ds_dr, ds_dt and rng3 in that order; allocated when None.

    Returns:
        Dict of arrays of the broadcast shape of x and r (views of out),
        keyed by the names above.
    """
    r = np.asarray(r, dtype=float)
    c = np.cos(theta)
    rng = ranges["rng"]
    if out is None:
        out = np.empty((3, *rng.shape))
    ds_dr, ds_dt, rng3 = out
    np.multiply(np.multiply(rng, rng, out=rng3), rng, out=rng3)
    np.multiply(np.multiply(r, ranges["xc"], out=ds_dr), c, out=ds_dr)
    np.divide(ds_dr, rng3, out=ds_dr)
    np.multiply(np.multiply(np.multiply(r, r, out=ds_dt), c, out=ds_dt), ranges["w"], out=ds_dt)
    np.divide(ds_dt, rng3, out=ds_dt)
    return {"ds_dr": ds_dr, "ds_dt": ds_dt, "rng3": rng3}


def _arrival_sine(x: np.ndarray, r, theta, ranges: dict[str, np.ndarray]) -> np.ndarray:
    """sin_a of arrival_sine_terms' arguments, clipped to [-1, 1]; only the phase reads it."""
    return np.clip((np.asarray(r, dtype=float) * np.sin(theta) - x) / ranges["rng"], -1.0, 1.0)


def _sine_increment(theta: float | np.ndarray, dtheta: float | np.ndarray) -> np.ndarray:
    """sin(theta + dtheta) - sin(theta) by sum-to-product, free of cancellation."""
    half = np.asarray(dtheta, dtype=float) / 2.0
    return 2.0 * np.cos(theta + half) * np.sin(half)


def _require_shifted_range(r: float | np.ndarray, dr: float | np.ndarray) -> None:
    """InvalidConfigurationError unless every shifted range r + dr is positive."""
    r1 = r + np.asarray(dr, dtype=float)
    if np.any(r1 <= 0):
        raise InvalidConfigurationError(
            f"shifted range {float(np.min(r1))} must stay positive"
        )


def _rng_minus_w(w: np.ndarray, xc2: np.ndarray, rng: np.ndarray) -> np.ndarray:
    """rng - w for rng = hypot(w, xc) and xc2 = xc^2, free of cancellation for either sign of w."""
    gap = np.asarray(rng + w)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(xc2, gap, out=gap)
    return np.subtract(rng, w, out=gap, where=w < 0)


def _angle_terms(theta: float | np.ndarray, dtheta: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """sin and cos of theta and of theta + dtheta, and the sine increment between them."""
    ht = np.asarray(dtheta, dtype=float)
    shifted = theta + ht
    return (np.sin(theta), np.cos(theta), np.sin(shifted), np.cos(shifted),
            _sine_increment(theta, ht))


def _radial_shift(
    x: np.ndarray, r: float | np.ndarray, dr: float | np.ndarray, angles: tuple[np.ndarray, ...],
    at: np.ndarray | None = None, work: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Increment of rng - r under a small polar shift of the target.

    For a shift (r, theta) -> (r + dr, theta + dtheta) this returns, per
    abscissa x, the exact-algebra increment d_excess of rng - r (the range
    increment less the reference path's dr). Rather than subtracting two
    O(r) ranges,

        d_excess = -[dr ((rng0 - w0) + (rng1 - w1)) + x d_s (r0 + r1)]
                   / (rng0 + rng1)

    with w = r - x sin, rng - w = (x cos)^2 / (rng + w) and d_s the sine
    increment by sum-to-product: every term is O(dr, dtheta) and carries a
    factor x, so x = 0 gets exact zeros. No derivative formulas are
    involved, so finite differences built on these increments remain an
    independent check of the analytic derivatives.

    angles is _angle_terms(theta, dtheta). The angle terms depend on the
    angles alone, so a caller whose abscissas share a few angles evaluates
    them once per angle and passes them, with r and dr, as columns along
    their last axis and in at the column of each abscissa; each is gathered
    where it is read. Shifts stacked along leading axes broadcast against
    x, and the arithmetic is elementwise, so each stacked shift gets the
    bits of its scalar call. The shifted point's terms are made in place,
    in the two rows of work or in new buffers, with the same bits either
    way. The caller has checked that every r + dr is positive.

    Returns:
        Dict of arrays: d_excess and the shifted range rng1, of the
        broadcast shape of x, r, dr and the angles, and the base range rng0
        and its rng0 - w0 as gap0, of the broadcast shape of x and r.
        _arrival_sine_shift reads the last three.
    """
    def take(values):
        return values if at is None else np.take(values, at, axis=-1)

    x, r, hr = np.asarray(x, dtype=float), take(r), np.asarray(dr, dtype=float)
    s0, c0, s1, c1, d_s = angles
    w, xc = r - x * take(s0), x * take(c0)
    rng0 = np.hypot(w, xc)
    gap0 = _rng_minus_w(w, xc * xc, rng0)
    r1 = r + take(hr)
    cols = np.shape(s1) if at is None else np.shape(s1)[:-1] + np.shape(at)
    shape = np.broadcast_shapes(np.shape(rng0), np.shape(r1), cols)
    w, xc = (np.empty(shape), np.empty(shape)) if work is None else work
    np.subtract(r1, np.multiply(x, take(s1), out=w), out=w)
    r1 = r + r1  # r1 is read once more, in this sum
    rng1 = np.hypot(w, np.multiply(x, take(c1), out=xc))
    if np.any(rng0 == 0) or np.any(rng1 == 0):
        raise SingularGeometryError("target coincides with an antenna")
    # -(hr (gap0 + gap1) + x d_s (r + r1)) / (rng0 + rng1), in gap1, w and xc
    d_excess = _rng_minus_w(w, np.multiply(xc, xc, out=xc), rng1)
    np.multiply(take(hr), np.add(gap0, d_excess, out=d_excess), out=d_excess)
    tail = np.multiply(np.multiply(x, take(d_s), out=w), r1, out=w)
    np.negative(np.add(d_excess, tail, out=d_excess), out=d_excess)
    np.divide(d_excess, np.add(rng0, rng1, out=xc), out=d_excess)
    return {"d_excess": d_excess, "rng0": rng0, "rng1": rng1, "gap0": gap0}


def _arrival_sine_shift(
    x: np.ndarray,
    r: float | np.ndarray,
    theta: float | np.ndarray,
    dr: float | np.ndarray,
    dtheta: float | np.ndarray,
    shift: dict[str, np.ndarray],
) -> np.ndarray:
    """Increment of the arrival sine sin_a under a small polar shift.

    Only the distinct-arrival-angle model reads it. sin_a1 - sin_a0 is
    formed over rng0 rng1 from the terms of shift, _radial_shift's result
    for the same x, r, dr and angles theta, dtheta; with
    r - rng0 = x sin - gap0 the numerator's dr term is x cos^2 + sin gap0,
    so like d_excess every term is O(dr, dtheta) and x = 0 gets exact zeros.
    The result has the broadcast shape of x, dr and dtheta.
    """
    x = np.asarray(x, dtype=float)
    hr = np.asarray(dr, dtype=float)
    s0, c0 = np.sin(theta), np.cos(theta)
    d_s = _sine_increment(theta, dtheta)
    rng0 = shift["rng0"]
    d_num = d_s * rng0 * (r + hr)
    d_num += hr * (x * c0 * c0 + s0 * shift["gap0"])
    d_num -= (r * s0 - x) * shift["d_excess"]
    d_num /= rng0 * shift["rng1"]
    return d_num
