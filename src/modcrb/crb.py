"""Closed-form Cramer-Rao bounds for range and angle of a near-field target.

The observation model is a single narrowband snapshot batch with an unknown
complex path gain: the bounds below already account for that nuisance
parameter. Every bound is a numerator times the inverse of a 2x2 Fisher
information matrix,

    crb_r     = num * info_theta / det
    crb_theta = num * info_r / det,     det = info_r info_theta - info_cross**2

where the information terms are quadratic forms of the steering-vector
derivatives. For the subarray-wise models these collapse to sums over
subarrays; for the exact spherical model they are sums over antennas. The
planar model has no range information at all, and at boresight over a
symmetric layout info_cross vanishes.

Each wavefront model has one kernel that builds its information terms for
a batch of points at once: stacked abscissas against broadcast ranges, with
the sums taken over the last axis. Sweeps call the kernels once per chunk
of grid points (see sweeps.py); crb_hspm_dist, crb_hspm_shared, crb_pwm,
crb_swm and crb_bounds run a batch of one. Every bound then goes through
_bound_pair, which alone turns information into bounds, point by point
(the oracle and the boresight forms use it too):

- an information term below 1e-12 of its positive-part scale, or a
  determinant below 1e-12 of info_r info_theta, marks a singular Fisher
  matrix: the affected bound is +inf and flagged "degenerate", and the other
  parameter keeps its one-parameter bound num / info;
- at endfire (|cos theta| < 1e-12) the angle is unidentifiable: crb_theta is
  +inf and flagged "endfire", and range keeps its one-parameter bound;
- a parameter the model does not contain (range under the planar model) has
  a +inf bound and no flag.

Units: range bounds in meters squared, angle bounds in radians squared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, NamedTuple

import numpy as np

from .errors import InvalidConfigurationError
from .geometry import ModularLayout, TargetPolar, radial_terms
from .wavefront import WavefrontModel

__all__ = [
    "SensingSnr",
    "CrbPair",
    "HspmIntermediates",
    "intermediates_hspm",
    "crb_hspm_dist",
    "crb_hspm_shared",
    "crb_pwm",
    "crb_swm",
    "crb_bounds",
    "crb_boresight",
    "crb_boresight_far",
    "boresight_far_range_bound",
    "optimal_spread",
]

#: Relative tolerance below which an information term or determinant counts as zero.
DEGENERATE_RTOL = 1e-12

#: Tolerance on cos(theta) below which the geometry counts as endfire.
ENDFIRE_TOL = 1e-12

FLAG_DEGENERATE = "degenerate"
FLAG_ENDFIRE = "endfire"


@dataclass(frozen=True)
class SensingSnr:
    """Sensing signal-to-noise ratio gamma = |gain|^2 / noise power."""

    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise InvalidConfigurationError(
                f"snr gamma must be finite and positive, got {self.gamma}"
            )

    @classmethod
    def from_db(cls, snr_db: float) -> "SensingSnr":
        """Build from a decibel value."""
        return cls(gamma=10.0 ** (snr_db / 10.0))

    @property
    def db(self) -> float:
        """Decibel representation."""
        return 10.0 * math.log10(self.gamma)


@dataclass(frozen=True)
class CrbPair:
    """Range and angle bounds for one wavefront model at one target.

    Attributes:
        crb_r: Range bound, meters squared; +inf when range is
            unidentifiable under the model.
        crb_theta: Angle bound, radians squared; +inf at endfire or when
            the angle information vanishes.
        model: Wavefront model the pair belongs to, or None when the pair
            was computed from raw steering data without a model label.
        flags: Subset of {"degenerate", "endfire"}.
        diagnostics: Values the computation produced on the way: the
            information terms info_range, info_angle, info_cross and their
            degeneracy scales scale_range, scale_angle (absent for a
            parameter the model does not contain), the determinant when both
            parameters are identifiable, and any model-specific inputs
            (e.g. the offset moments of the asymptotic boresight form).
    """

    crb_r: float
    crb_theta: float
    model: WavefrontModel | None
    flags: tuple[str, ...] = ()
    diagnostics: dict[str, Any] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        _require_positive(self.crb_r, self.crb_theta)


@dataclass(frozen=True)
class HspmIntermediates:
    """Subarray-level sums feeding the subarray-wise bounds.

    p/q families aggregate range derivatives of the subarray ranges,
    z families aggregate derivatives of the subarray arrival sines:

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


def _num_scale(wavelength: float, snr: SensingSnr) -> float:
    """Common numerator factor (wavelength / 2 pi)^2 / gamma."""
    if wavelength <= 0:
        raise InvalidConfigurationError(f"wavelength must be positive, got {wavelength}")
    return (wavelength / (2.0 * math.pi)) ** 2 / snr.gamma


@dataclass(frozen=True)
class _Quadratic:
    """Information quadratic form with cancellation-free pieces.

    info_r / info_theta / info_cross are the Fisher-information surrogates
    entering the bounds; scale_r / scale_theta are the same expressions
    with every term taken positive, used for the degeneracy test. An info
    of None marks a parameter the model does not contain, which is not the
    same as a parameter whose information vanishes.
    """

    info_r: float | None
    info_theta: float | None
    info_cross: float
    scale_r: float
    scale_theta: float


def _centered_power(values: np.ndarray) -> np.ndarray:
    """Sum of squared deviations from the mean, over the last axis."""
    delta = values - values.mean(axis=-1, keepdims=True)
    return (delta * delta).sum(axis=-1)


def _centered_cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of products of deviations from the means, over the last axis."""
    return (
        (a - a.mean(axis=-1, keepdims=True)) * (b - b.mean(axis=-1, keepdims=True))
    ).sum(axis=-1)


_FLAG_SETS = {
    (False, False): (),
    (True, False): (FLAG_DEGENERATE,),
    (False, True): (FLAG_ENDFIRE,),
    (True, True): (FLAG_DEGENERATE, FLAG_ENDFIRE),
}


def _require_positive(crb_r: float, crb_theta: float) -> None:
    """Reject a bound that is NaN or not positive; +inf is allowed."""
    for name, value in (("crb_r", crb_r), ("crb_theta", crb_theta)):
        if math.isnan(value) or value <= 0:
            raise InvalidConfigurationError(f"{name} must be positive or +inf, got {value}")


class _Bounds(NamedTuple):
    """Bounds of one model over a batch of points.

    points holds (crb_r, crb_theta, flags, determinant) per point, in C
    order of the batch shape, with the bounds still in the dtype of the
    information; the determinant is None unless both parameters were live.
    quad is the information the bounds came from.
    """

    model: WavefrontModel | None
    quad: _Quadratic
    points: list[tuple[Any, Any, tuple[str, ...], Any]]

    def pair(self, diagnostics: dict[str, Any] | None = None) -> CrbPair:
        """The CrbPair of a batch of one point.

        Args:
            diagnostics: Model-specific values to report beside the
                information terms.
        """
        ((crb_r, crb_t, flags, det2),) = self.points
        quad = self.quad
        diagnostics = dict(diagnostics or {})
        if quad.info_r is not None:
            diagnostics.update(info_range=float(quad.info_r), scale_range=float(quad.scale_r))
        if quad.info_theta is not None:
            diagnostics.update(
                info_angle=float(quad.info_theta), scale_angle=float(quad.scale_theta)
            )
        if quad.info_r is not None and quad.info_theta is not None:
            diagnostics["info_cross"] = float(quad.info_cross)
        if det2 is not None:
            diagnostics["determinant"] = float(det2)
        return CrbPair(
            crb_r=float(crb_r),
            crb_theta=float(crb_t),
            model=self.model,
            flags=flags,
            diagnostics=diagnostics,
        )

    def rows(self) -> list[tuple[float, float, tuple[str, ...]]]:
        """(crb_r, crb_theta, flags) per point, checked as CrbPair checks them."""
        rows = []
        for crb_r, crb_t, flags, _ in self.points:
            crb_r, crb_t = float(crb_r), float(crb_t)
            _require_positive(crb_r, crb_t)
            rows.append((crb_r, crb_t, flags))
        return rows


def _bound_pair(
    model: WavefrontModel | None,
    num: float,
    quad: _Quadratic,
    cos_theta: float | np.ndarray | None,
) -> _Bounds:
    """Invert the information under the degeneracy and endfire policy.

    This is the only place that turns information into bounds; see the
    module docstring for the policy. It applies the policy point by point:
    num, the terms of quad and cos_theta may be scalars or arrays that
    broadcast against each other, and each point gets the bounds and flags
    it would get on its own. A parameter the model does not contain (an
    info of None) is absent at every point.

    Args:
        model: Label carried into the result.
        num: Numerator shared by both bounds.
        quad: Information terms, in any real dtype; the bounds are
            evaluated in that dtype.
        cos_theta: Cosine of the target angle, or None when it is unknown
            and the endfire test is skipped.

    Returns:
        The _Bounds; .pair() gives the CrbPair of a single point.
    """
    has_r = quad.info_r is not None
    has_t = quad.info_theta is not None
    # Placeholders for an absent parameter or an unknown angle are never
    # read, and cos = 1 is never endfire.
    terms = np.broadcast(
        num,
        quad.info_r if has_r else 0.0,
        quad.info_theta if has_t else 0.0,
        quad.info_cross,
        quad.scale_r,
        quad.scale_theta,
        1.0 if cos_theta is None else cos_theta,
    )
    points = []
    for num_i, d_r, d_t, d_c, scale_r, scale_t, cos_i in terms:
        endfire = bool(abs(cos_i) < ENDFIRE_TOL)
        live_r = has_r and d_r > DEGENERATE_RTOL * scale_r
        live_t = has_t and not endfire and d_t > DEGENERATE_RTOL * scale_t
        degenerate = bool((has_r and not live_r) or (has_t and not endfire and not live_t))
        crb_r = crb_t = math.inf
        det2 = None
        if live_r and live_t:
            det2 = d_r * d_t - d_c * d_c
            if det2 > DEGENERATE_RTOL * (d_r * d_t):
                crb_r = num_i * d_t / det2
                crb_t = num_i * d_r / det2
            else:
                degenerate = True
        elif live_r:
            crb_r = num_i / d_r
        elif live_t:
            crb_t = num_i / d_t
        points.append((crb_r, crb_t, _FLAG_SETS[degenerate, endfire], det2))
    return _Bounds(model, quad, points)


def _hspm_arrays(x: np.ndarray, r: float | np.ndarray, theta: float, shared_angle: bool):
    """Subarray derivative arrays for the two subarray-wise models."""
    terms = radial_terms(x, r, theta)
    if shared_angle:
        shape = terms["ds_dr"].shape
        terms["ds_dr"] = np.zeros(shape)
        terms["ds_dt"] = np.full(shape, math.cos(theta))
    return terms


def intermediates_hspm(layout: ModularLayout, target: TargetPolar) -> HspmIntermediates:
    """Subarray-level sums for the distinct-arrival-angle model.

    Args:
        layout: Array layout.
        target: Target position.

    Returns:
        HspmIntermediates of the eight sums over subarrays.
    """
    terms = radial_terms(layout.subarray_x, target.r, target.theta)
    a, at = terms["dr_dr"], terms["dr_dt"]
    sr, st = terms["ds_dr"], terms["ds_dt"]
    return HspmIntermediates(
        p=float(a.sum()),
        p_tilde=float(at.sum()),
        q=float((a * a).sum()),
        q_tilde=float((at * at).sum()),
        q_hat=float((a * at).sum()),
        z=float((sr * sr).sum()),
        z_tilde=float((st * st).sum()),
        z_hat=float((sr * st).sum()),
    )


# Kernels: (layout, x, r, theta) -> (numerator factor, _Quadratic), where x
# stacks the model's abscissas as (..., n), r broadcasts against x, and the
# information terms reduce over the last axis. layout supplies only K, M and
# the pitch, which every point of a batch shares. The numerator is the
# factor times (wavelength / 2 pi)^2 / gamma.


def _hspm_kernel(
    layout: ModularLayout,
    x: np.ndarray,
    r: float | np.ndarray,
    theta: float,
    shared_angle: bool,
) -> tuple[float, _Quadratic]:
    """Subarray-wise information pieces.

    The raw form of the range information is
        K (M^2 - 1) d^2 z + 12 (K q - p^2)
    and K q - p^2 is evaluated as K * sum((a - mean(a))^2) through the
    cancellation-free dr_dr_m1 values, which keeps the result accurate when
    every dr_dr is within rounding of 1.
    """
    terms = _hspm_arrays(x, r, theta, shared_angle)
    k = layout.num_subarrays
    m = layout.subarray_size
    cm = (m * m - 1) * layout.pitch**2
    a_m1, at = terms["dr_dr_m1"], terms["dr_dt"]
    a = terms["dr_dr"]
    sr, st = terms["ds_dr"], terms["ds_dt"]

    z = (sr * sr).sum(axis=-1)
    z_tilde = (st * st).sum(axis=-1)
    z_hat = (sr * st).sum(axis=-1)
    q = (a * a).sum(axis=-1)
    q_tilde = (at * at).sum(axis=-1)

    info_r = k * cm * z + 12.0 * k * _centered_power(a_m1)
    info_t = k * cm * z_tilde + 12.0 * k * _centered_power(at)
    info_c = k * cm * z_hat + 12.0 * k * _centered_cross(a_m1, at)
    scale_r = k * cm * z + 12.0 * k * q
    scale_t = k * cm * z_tilde + 12.0 * k * q_tilde
    return 6.0 * k / m, _Quadratic(info_r, info_t, info_c, scale_r, scale_t)


def _pwm_kernel(
    layout: ModularLayout, x: np.ndarray, r: float | np.ndarray, theta: float
) -> tuple[float, _Quadratic]:
    """Planar information: angle only, independent of the range."""
    k = layout.num_subarrays
    m = layout.subarray_size
    cm = (m * m - 1) * layout.pitch**2
    cos_t = math.cos(theta)

    # 12 K M sum(x^2) + K^2 M (M^2-1) d^2 - 12 M sum(x)^2, in centered form;
    # the same for every range, so spread over the batch shape.
    shape = np.broadcast_shapes(x.shape, np.shape(r))[:-1]
    info = np.broadcast_to(k * k * m * cm + 12.0 * m * k * _centered_power(x), shape)
    scale = np.broadcast_to(k * k * m * cm + 12.0 * m * k * (x * x).sum(axis=-1), shape)
    quad = _Quadratic(
        info_r=None, info_theta=info, info_cross=0.0, scale_r=0.0, scale_theta=scale
    )
    return 6.0 * k / (cos_t * cos_t), quad


def _swm_kernel(
    layout: ModularLayout, x: np.ndarray, r: float | np.ndarray, theta: float
) -> tuple[float, _Quadratic]:
    """Spherical-wave information: sums over every antenna."""
    terms = radial_terms(x, r, theta)
    n = layout.num_elements
    a_m1, at = terms["dr_dr_m1"], terms["dr_dt"]
    a = terms["dr_dr"]

    info_r = n * _centered_power(a_m1)
    info_t = n * _centered_power(at)
    info_c = n * _centered_cross(a_m1, at)
    scale_r = n * (a * a).sum(axis=-1)
    scale_t = n * (at * at).sum(axis=-1)
    return 0.5 * n, _Quadratic(info_r, info_t, info_c, scale_r, scale_t)


# Per model: the layout attribute holding its abscissas, and its kernel.
_KERNELS = {
    WavefrontModel.HSPM_DIST: ("subarray_x", partial(_hspm_kernel, shared_angle=False)),
    WavefrontModel.HSPM_SHARED: ("subarray_x", partial(_hspm_kernel, shared_angle=True)),
    WavefrontModel.PWM: ("subarray_x", _pwm_kernel),
    WavefrontModel.SWM: ("element_x", _swm_kernel),
}


def _abscissas(model: WavefrontModel, layout: ModularLayout) -> np.ndarray:
    """Abscissas a model's information sums over: subarray centers, or every antenna."""
    return getattr(layout, _KERNELS[model][0])


def _crb_batch(
    model: WavefrontModel,
    layout: ModularLayout,
    x: np.ndarray,
    r: float | np.ndarray,
    theta: float,
    wavelength: float,
    snr: SensingSnr,
) -> _Bounds:
    """Bounds of one model over a batch of points with a shared angle.

    Args:
        model: Wavefront model.
        layout: Layout supplying K, M and the pitch of every point.
        x: The model's abscissas (see _abscissas), stacked as (..., n):
            one row per layout, or one row shared by every range.
        r: Target ranges broadcasting against x, e.g. (P, 1), or a scalar.
        theta: Target angle, radians.
        wavelength: Carrier wavelength, meters.
        snr: Sensing SNR.

    Returns:
        _Bounds over the broadcast shape of x and r without its last axis.
    """
    factor, quad = _KERNELS[model][1](layout, x, r, theta)
    num = factor * _num_scale(wavelength, snr)
    return _bound_pair(model, num, quad, math.cos(theta))


def _crb_point(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """One model at one target: a batch of one."""
    x = _abscissas(model, layout)
    return _crb_batch(model, layout, x, target.r, target.theta, wavelength, snr).pair()


def crb_hspm_dist(
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """Bounds under the subarray-wise model with distinct arrival angles.

    Args:
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        snr: Sensing SNR.

    Returns:
        CrbPair; crb_r is +inf when the range information degenerates
        (e.g. a single subarray).
    """
    return _crb_point(WavefrontModel.HSPM_DIST, layout, target, wavelength, snr)


def crb_hspm_shared(
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """Bounds under the subarray-wise model with one shared arrival angle.

    Identical to crb_hspm_dist except that the per-subarray arrival-sine
    derivatives are replaced by those of the global angle: the sine varies
    only through theta, at rate cos(theta), for every subarray.
    """
    return _crb_point(WavefrontModel.HSPM_SHARED, layout, target, wavelength, snr)


def crb_pwm(
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """Bounds under the fully planar model.

    Range does not enter the planar steering vector, so crb_r is +inf by
    construction and carries no flag. The angle bound is finite away from
    endfire provided the layout has angle information (more than one
    antenna).
    """
    return _crb_point(WavefrontModel.PWM, layout, target, wavelength, snr)


def crb_swm(
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """Bounds under the exact spherical-wave model.

    The information terms sum over every antenna rather than every
    subarray; no small-subarray expansion is involved.
    """
    return _crb_point(WavefrontModel.SWM, layout, target, wavelength, snr)


def crb_bounds(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """Dispatch to the closed form matching a wavefront model."""
    fn = {
        WavefrontModel.HSPM_DIST: crb_hspm_dist,
        WavefrontModel.HSPM_SHARED: crb_hspm_shared,
        WavefrontModel.PWM: crb_pwm,
        WavefrontModel.SWM: crb_swm,
    }[model]
    return fn(layout, target, wavelength, snr)


def _require_boresight_symmetric(layout: ModularLayout, target: TargetPolar) -> None:
    if target.theta != 0.0:
        raise InvalidConfigurationError(
            f"boresight form requires theta = 0, got {target.theta}"
        )
    if not layout.is_centro_symmetric:
        raise InvalidConfigurationError(
            f"boresight form requires a centro-symmetric layout, got spacings {layout.spacings}"
        )


def crb_boresight(
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """Exact subarray-wise bounds at boresight for symmetric layouts.

    At theta = 0 over a centro-symmetric layout the cross information
    vanishes and the general subarray-wise information reduces to sums of
    closed-form expressions in r_k = sqrt(r^2 + x_k^2).

    Args:
        layout: Centro-symmetric array layout.
        target: Target with theta == 0.
        wavelength: Carrier wavelength, meters.
        snr: Sensing SNR.

    Returns:
        CrbPair under the distinct-arrival-angle subarray-wise model.

    Raises:
        InvalidConfigurationError: If theta != 0 or the layout is not
            centro-symmetric.
    """
    _require_boresight_symmetric(layout, target)
    k = layout.num_subarrays
    m = layout.subarray_size
    cm = (m * m - 1) * layout.pitch**2
    r = target.r
    x = layout.subarray_x
    rk = np.hypot(np.full_like(x, r), x)

    b = r / rk
    # b - 1 without cancellation: r - rk = -x^2 / (r + rk).
    b_m1 = -(x * x) / (rk * (r + rk))
    z_p = float(((r * x) ** 2 / rk**6).sum())
    q_p = float((b * b).sum())
    zt_p = float((r**6 / rk**6).sum())
    qt_p = float(((r * x) ** 2 / rk**2).sum())

    info_r = k * cm * z_p + 12.0 * k * _centered_power(b_m1)
    scale_r = k * cm * z_p + 12.0 * k * q_p
    # The range rates d r_k / d theta sum to zero, so every angle term is
    # positive and the information is its own scale.
    info_t = k * cm * zt_p + 12.0 * k * qt_p
    quad = _Quadratic(info_r, info_t, 0.0, scale_r, info_t)

    num = 6.0 * k / m * _num_scale(wavelength, snr)
    return _bound_pair(WavefrontModel.HSPM_DIST, num, quad, math.cos(target.theta)).pair()


def _far_range_information(k: int, cm: float, spread: float, r: float) -> tuple[float, float]:
    """Asymptotic boresight range information and its degeneracy scale."""
    r4 = r**4
    info = (k * cm * spread - 3.0 * spread * spread) / r4
    scale = (k * cm * spread + 3.0 * spread * spread) / r4
    return info, scale


def boresight_far_range_bound(
    spread: float,
    num_subarrays: int,
    subarray_size: int,
    pitch: float,
    r: float,
    wavelength: float,
    snr: SensingSnr,
) -> float:
    """Asymptotic boresight range bound as a function of the offset spread.

    The range bound of crb_boresight_far depends on the subarray offsets
    only through their spread sum(x_k^2); this evaluates it directly from
    that number so the spread can be treated as a free design variable.

    Args:
        spread: Sum of squared subarray offsets, meters squared.
        num_subarrays: Subarray count K.
        subarray_size: Antennas per subarray M.
        pitch: Antenna spacing, meters.
        r: Target range, meters.
        wavelength: Carrier wavelength, meters.
        snr: Sensing SNR.

    Returns:
        Range bound in meters squared; +inf when the information
        denominator is not positive, which happens outside the admissible
        interval (0, K (M^2 - 1) d^2 / 3). The minimizing spread is
        optimal_spread(num_subarrays, subarray_size, pitch).
    """
    k = num_subarrays
    m = subarray_size
    cm = (m * m - 1) * pitch**2
    info, scale = _far_range_information(k, cm, spread, r)
    quad = _Quadratic(
        info_r=info, info_theta=None, info_cross=0.0, scale_r=scale, scale_theta=0.0
    )
    num = 6.0 * k / m * _num_scale(wavelength, snr)
    return _bound_pair(None, num, quad, None).pair().crb_r


def crb_boresight_far(
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """Asymptotic boresight bounds for ranges far beyond the aperture.

    Second-order expansion of crb_boresight in (aperture / range): with
    spread = sum(x_k^2),

        crb_r     ~ num * r^4 / (K (M^2-1) d^2 spread - 3 spread^2)
        crb_theta ~ num / (K (K (M^2-1) d^2 + 12 spread - correction / r^2))

    where num = 6 K / M (lambda / 2 pi)^2 / gamma and correction =
    (M^2-1) d^2 spread + 12 sum(x_k^4). The range bound grows as r^4 and is
    +inf when the spread term cannot support range estimation (single
    subarray, or spread beyond the admissible region); up to rounding it is
    the bound boresight_far_range_bound gives for this layout's spread.
    """
    _require_boresight_symmetric(layout, target)
    k = layout.num_subarrays
    m = layout.subarray_size
    cm = (m * m - 1) * layout.pitch**2
    r = target.r
    x = layout.subarray_x
    spread = float((x * x).sum())
    fourth = float((x**4).sum())

    info_r, scale_r = _far_range_information(k, cm, spread, r)
    correction = cm * spread + 12.0 * fourth
    info_t = k * (k * cm + 12.0 * spread - correction / r**2)
    scale_t = k * (k * cm + 12.0 * spread + correction / r**2)
    quad = _Quadratic(info_r, info_t, 0.0, scale_r, scale_t)

    num = 6.0 * k / m * _num_scale(wavelength, snr)
    diagnostics = {
        "offset_spread": spread,
        "offset_fourth_moment": fourth,
        "regime_ratio": layout.aperture / r,
    }
    return _bound_pair(
        WavefrontModel.HSPM_DIST, num, quad, math.cos(target.theta)
    ).pair(diagnostics)


def optimal_spread(num_subarrays: int, subarray_size: int, pitch: float) -> float:
    """Offset spread minimizing the asymptotic boresight range bound.

    The denominator of the asymptotic range bound is quadratic in the
    spread sum(x_k^2); its maximum sits at K (M^2 - 1) d^2 / 6.

    Args:
        num_subarrays: Subarray count K.
        subarray_size: Antennas per subarray M.
        pitch: Antenna spacing, meters.

    Returns:
        The optimizing spread, meters squared.
    """
    return num_subarrays * (subarray_size**2 - 1) * pitch**2 / 6.0
