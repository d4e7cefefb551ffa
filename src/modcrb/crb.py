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
a batch of points at once, in one of two shapes (see _Cases). Sweeps pass
rows: stacked abscissas against broadcast ranges, the sums taken over the
last axis, one call per model for the whole grid; crb_bounds passes a
batch of one. The oracle's verify passes a ragged group: the abscissas of
cases of different K and M side by side, as wavefront._antennas lays them
out, each case summed over its own contiguous slice, so a group costs one
pass per model and every case keeps the bits it gets alone. A kernel sums
its terms from its thread's workspace, one call per chunk (_stacked_sums),
and computes only the geometry it reads: swm and hspm-shared read
d r_k / d r - 1 and d r_k / d theta from geometry.radial_terms, hspm-dist
adds the arrival-sine derivatives of geometry.arrival_sine_terms, and pwm
reads the abscissas alone. Every bound then goes through _bound_pair, which
alone turns information into bounds, point by point (the oracle and the
boresight forms use it too):

- an information term below 1e-12 of its positive-part scale, or a
  determinant below 1e-12 of info_r info_theta, marks a singular Fisher
  matrix: the affected bound is +inf and flagged "degenerate", and the other
  parameter keeps its one-parameter bound num / info;
- at endfire (|cos theta| < 1e-12) the angle is unidentifiable: crb_theta is
  +inf and flagged "endfire"; so is range, since every d r_k / d r is 1 on
  the array axis (the range information goes as cos^4 theta): crb_r is +inf
  and flagged "degenerate" for every model with range;
- a parameter the model does not contain (range under the planar model) has
  a +inf bound and no flag.

The range scale is built from d r_k / d r - 1 like the information, not from
d r_k / d r, whose squares sum to about K while the information is
O((A / r)^4) for an aperture A.

Units: range bounds in meters squared, angle bounds in radians squared.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial
from typing import Any, NamedTuple

import numpy as np

from .errors import InvalidConfigurationError, NumericDomainError
from .geometry import (
    ModularLayout,
    TargetPolar,
    _angle_products,
    _require_wavelength,
    arrival_sine_terms,
    radial_terms,
)
from .wavefront import WavefrontModel, _Antennas

__all__ = [
    "SensingSnr",
    "CrbPair",
    "crb_bounds",
    "crb_boresight",
    "crb_boresight_far",
]

#: Relative tolerance below which an information term or determinant counts as zero.
DEGENERATE_RTOL = 1e-12

#: Tolerance on cos(theta) below which the geometry counts as endfire.
ENDFIRE_TOL = 1e-12

FLAG_DEGENERATE = "degenerate"
FLAG_ENDFIRE = "endfire"

# Most abscissas one kernel pass holds, whether a sweep chunk (grid points
# times the model's abscissas per point) or a verify group (its cases'
# antennas); a point or case larger than that goes alone. Each thread keeps
# one workspace of 8 float64 blocks of this size (512 KiB, _blocks), made on
# its first kernel call, for every chunk of every kernel call it makes, so
# warm sweeps allocate no chunk-sized memory and glibc has nothing to trim.
# The oracle takes its projections and finite-difference scratch from it too.
# Warm-op minor faults (getrusage, 2-vCPU x86_64 pinned to one CPU, glibc
# 2.36, numpy 2.4): presets 0 (368 with a workspace per kernel call),
# large-array 0.4, verify 29-34 (292-345 with fresh oracle temporaries). 2**14
# would double a verify group's oracle peak, 183 bytes per antenna (1.5 MB).
_BATCH_ELEMENTS = 1 << 13


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
        try:
            return cls(gamma=10.0 ** (snr_db / 10.0))
        except OverflowError:
            raise InvalidConfigurationError(f"snr {snr_db} dB overflows gamma") from None

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
        _require_positive(self.crb_r, self.crb_theta, InvalidConfigurationError)


class _Batch(NamedTuple):
    """What the kernels read beside the abscissas and the targets.

    Each field is one value shared by every point of a batch of rows, or an
    array with one value per case of a ragged group.
    """

    k: int | np.ndarray  # subarrays K
    m: int | np.ndarray  # antennas per subarray M
    pitch: float | np.ndarray  # meters
    cm: float | np.ndarray  # (M^2 - 1) pitch^2
    cos_t: float | np.ndarray  # cos theta
    scale: float | np.ndarray  # numerator scale (wavelength / 2 pi)^2 / gamma


def _rows(layout: ModularLayout, theta: float, wavelength: float, snr: SensingSnr) -> _Batch:
    """The _Batch of points sharing the K, M and pitch of layout, one angle, wavelength and SNR.

    Raises:
        InvalidConfigurationError: On a wavelength that is not finite and
            positive.
        NumericDomainError: If the numerator scale or (M^2 - 1) pitch^2
            overflows; either fails here, before any array arithmetic.
    """
    _require_wavelength(wavelength)
    try:
        scale = (wavelength / (2.0 * math.pi)) ** 2 / snr.gamma
    except OverflowError:
        scale = math.inf
    if math.isinf(scale):
        raise NumericDomainError(
            f"wavelength {wavelength} m at snr gamma {snr.gamma} overflows the bound numerator"
        )
    try:
        cm = (layout.subarray_size**2 - 1) * layout.pitch**2
    except OverflowError:
        cm = math.inf
    if math.isinf(cm):
        raise NumericDomainError(f"pitch {layout.pitch} m overflows (M^2 - 1) pitch^2")
    return _Batch(layout.num_subarrays, layout.subarray_size, layout.pitch, cm,
                  math.cos(theta), scale)


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


class _Cases:
    """Where the per-case sums and means of a batch run, over its last axis.

    _Cases() is rows: every point of the batch owns the last axis of its
    row, as in a sweep chunk or a single point. _Cases(case) is a ragged
    group laid out as wavefront._antennas lays it out: case[i] is the case
    of entry i, and each case owns one contiguous run of entries, in case
    order. Each case is summed over its own slice, so every sum has the
    bits of the same sum over that case alone (np.add.reduceat adds in
    another order).
    """

    def __init__(self, case: np.ndarray | None = None):
        self.case = case
        if case is not None:
            self.counts = np.bincount(case)
            bounds = [0, *np.cumsum(self.counts).tolist()]
            self.cols = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Per-case sums over the last axis; the cases replace it."""
        add = np.add.reduce  # what .sum calls, without its Python wrapper
        if self.case is None:
            return add(values, axis=-1)
        return np.array([add(values[..., col], axis=-1) for col in self.cols]).T

    def centered(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Deviations from each case's mean (sum over count, as .mean), into out if given."""
        counts = values.shape[-1] if self.case is None else self.counts
        return np.subtract(values, self.spread(self.sum(values) / counts), out=out)

    def spread(self, per_case):
        """Values with one entry per case, repeated over each case's entries."""
        return np.asarray(per_case)[..., None] if self.case is None else per_case[..., self.case]


_ROWS = _Cases()


def _centered_power(values: np.ndarray) -> np.ndarray:
    """Sum of squared deviations from the mean, over the last axis."""
    delta = _ROWS.centered(values)
    return _ROWS.sum(delta * delta)


_FLAG_SETS = {
    (False, False): (),
    (True, False): (FLAG_DEGENERATE,),
    (False, True): (FLAG_ENDFIRE,),
    (True, True): (FLAG_DEGENERATE, FLAG_ENDFIRE),
}


def _require_positive(
    crb_r: float, crb_theta: float, error: type[ValueError] = NumericDomainError
) -> None:
    """Reject a bound that is NaN or not positive; +inf is allowed.

    A computed bound that fails is a numeric failure (NumericDomainError);
    CrbPair passes InvalidConfigurationError for the values it is given.
    """
    for name, value in (("crb_r", crb_r), ("crb_theta", crb_theta)):
        if math.isnan(value) or value <= 0:
            raise error(f"{name} must be positive or +inf, got {value}")


class _Bounds(NamedTuple):
    """Bounds of one model over a batch of points.

    points holds (crb_r, crb_theta, flags, determinant) per point, in C
    order of the batch shape, as Python floats; the determinant is None
    unless both parameters were live.
    quad is the information the bounds came from.
    """

    model: WavefrontModel | None
    quad: _Quadratic
    points: list[tuple[float, float, tuple[str, ...], float | None]]

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
            diagnostics["determinant"] = det2
        return CrbPair(
            crb_r=crb_r,
            crb_theta=crb_t,
            model=self.model,
            flags=flags,
            diagnostics=diagnostics,
        )


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
    info of None) is absent at every point; a bound that comes out NaN or
    not positive raises NumericDomainError.

    Args:
        model: Label carried into the result.
        num: Numerator shared by both bounds.
        quad: Information terms.
        cos_theta: Cosine of the target angle, or None when it is unknown
            and the endfire test is skipped.

    Returns:
        The _Bounds; .pair() gives the CrbPair of a single point.
    """
    has_r = quad.info_r is not None
    has_t = quad.info_theta is not None
    # Placeholders for an absent parameter or an unknown angle are never
    # read, and cos = 1 is never endfire.
    columns = (
        num,
        quad.info_r if has_r else 0.0,
        quad.info_theta if has_t else 0.0,
        quad.info_cross,
        quad.scale_r,
        quad.scale_theta,
        1.0 if cos_theta is None else cos_theta,
    )
    terms = np.empty(np.broadcast(*columns).shape + (len(columns),))
    for i, column in enumerate(columns):
        terms[..., i] = column
    # Python floats round as float64 does, and loop faster than numpy scalars.
    points = []
    for num_i, d_r, d_t, d_c, scale_r, scale_t, cos_i in terms.reshape(-1, len(columns)).tolist():
        endfire = abs(cos_i) < ENDFIRE_TOL
        live_r = has_r and not endfire and d_r > DEGENERATE_RTOL * scale_r
        live_t = has_t and not endfire and d_t > DEGENERATE_RTOL * scale_t
        degenerate = (has_r and not live_r) or (has_t and not endfire and not live_t)
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
        if not (crb_r > 0 and crb_t > 0):
            _require_positive(crb_r, crb_t)
        points.append((crb_r, crb_t, _FLAG_SETS[degenerate, endfire], det2))
    return _Bounds(model, quad, points)


# Kernels: (x, r, theta, batch, cases) -> (numerator factor, _Quadratic),
# where x holds the model's abscissas along its last axis, r and theta
# broadcast against x, and cases reduces the information terms over that
# axis: a (..., n) stack of rows (_ROWS), or a ragged group with one entry
# per abscissa of every case. The numerator is the factor times batch.scale.


def _chunks(count: int, per_point: int) -> list[slice]:
    """Slices of count points, each within _BATCH_ELEMENTS abscissas or a single point."""
    step = max(1, _BATCH_ELEMENTS // per_point)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


_WORKSPACE = threading.local()


def _blocks(count: int, shape: tuple[int, ...]) -> np.ndarray:
    """count float64 blocks of shape: views of the thread's workspace, or new ones too big for it.

    The thread's next kernel call overwrites the views, so no kernel returns one.
    """
    size = count * math.prod(shape)
    if size > 8 * _BATCH_ELEMENTS:
        return np.empty((count, *shape))
    try:
        buffer = _WORKSPACE.buffer
    except AttributeError:
        buffer = _WORKSPACE.buffer = np.empty(8 * _BATCH_ELEMENTS)
    return buffer[:size].reshape(count, *shape)


def _stacked_sums(cases: _Cases, count: int, fill: Callable[..., None], *operands) -> np.ndarray:
    """Per-point sums of count terms of the operands, made in the thread's workspace.

    The operands broadcast to a (P, n) stack of rows, walked in _chunks, or
    to one point or a ragged group, taken whole. fill(work, *operands) writes
    the terms of the given points (a chunk's rows of a (P, n) operand) into
    work, count _blocks of a chunk's size.
    """
    shape = np.broadcast_shapes(*map(np.shape, operands))
    if len(shape) == 1:
        work = _blocks(count, shape)
        fill(work, *operands)
        return cases.sum(work)
    parts = _chunks(*shape)
    work = _blocks(count, (parts[0].stop, shape[1]))
    sums = np.empty((count, shape[0]))
    for part in parts:
        chunk = work[:, :part.stop - part.start]
        fill(chunk, *(a[part] if np.ndim(a) == 2 and len(a) > 1 else a for a in operands))
        sums[:, part] = cases.sum(chunk)
    return sums


def _radial_sums(x: np.ndarray, r: float | np.ndarray, theta: float | np.ndarray, cases: _Cases,
                 extra: int = 0, more: Callable[..., None] | None = None) -> np.ndarray:
    """Per-point sums of da^2, dt^2, a^2, t^2, da dt and extra model terms.

    a and t are radial_terms' dr_dr_m1 and dr_dt, da and dt their deviations
    from the case's mean; more(x, r, terms, slots) writes a chunk's extras.
    The angle products are made once per call where every point shares x,
    else per chunk: in swm's 3 free workspace blocks they left a warm
    fig4-c2 layout sweep as fast (2.97 ms) and as fault-free (0.1).
    """
    angles = _angle_products(x, theta) if np.ndim(x) < 2 or len(x) == 1 else None

    def fill(work, xs, rs):
        terms = radial_terms(xs, rs, theta, work[:4], angles or _angle_products(xs, theta))
        if more is not None:
            more(xs, rs, terms, work[5:])
        # The deviations overwrite w and rng, then the products their factors.
        cases.centered(work[2:4], out=work[:2])
        np.multiply(work[0], work[1], out=work[4])
        np.multiply(work[:4], work[:4], out=work[:4])

    return _stacked_sums(cases, 5 + extra, fill, x, r)


def _hspm_kernel(
    x: np.ndarray,
    r: float | np.ndarray,
    theta: float | np.ndarray,
    batch: _Batch,
    cases: _Cases,
    shared_angle: bool,
) -> tuple[float | np.ndarray, _Quadratic]:
    """Subarray-wise information pieces.

    The raw form of the range information is
        K (M^2 - 1) d^2 z + 12 (K q - p^2)
    and K q - p^2 is evaluated as K * sum((a - mean(a))^2) through the
    cancellation-free dr_dr_m1 values, which keeps the result accurate when
    every d r_k / d r is within rounding of 1; so does the degeneracy scale.
    Under a shared angle every subarray's sine moves only with theta, at
    rate cos(theta), so z = z_hat = 0 and z_tilde = K cos^2(theta); only
    the distinct-angle model reads the per-subarray arrival sines.
    """
    k, cm = batch.k, batch.cm

    def sines(xs, rs, terms, slots):
        if shared_angle:
            # Summed term by term like hspm-dist's z_tilde; K cos^2 rounds otherwise.
            slots[0] = cases.spread(batch.cos_t * batch.cos_t)
        else:
            # The products overwrite rng^3, then ds_dr and ds_dt themselves.
            s = arrival_sine_terms(xs, rs, theta, terms, out=slots)
            np.multiply(s["ds_dr"], s["ds_dt"], out=slots[2])
            np.multiply(s["ds_dr"], s["ds_dr"], out=slots[0])
            np.multiply(s["ds_dt"], s["ds_dt"], out=slots[1])

    extra = 1 if shared_angle else 3
    da2, dt2, a2, q_tilde, dadt, *zs = _radial_sums(x, r, theta, cases, extra, sines)
    z, z_tilde, z_hat = (0.0, *zs, 0.0) if shared_angle else zs
    info_r = k * cm * z + 12.0 * k * da2
    info_t = k * cm * z_tilde + 12.0 * k * dt2
    info_c = k * cm * z_hat + 12.0 * k * dadt
    scale_r = k * cm * z + 12.0 * k * a2
    scale_t = k * cm * z_tilde + 12.0 * k * q_tilde
    return 6.0 * k / batch.m, _Quadratic(info_r, info_t, info_c, scale_r, scale_t)


def _pwm_kernel(
    x: np.ndarray, r: float | np.ndarray, theta: float | np.ndarray, batch: _Batch, cases: _Cases
) -> tuple[float | np.ndarray, _Quadratic]:
    """Planar information: angle only, independent of the range."""
    k, m, cm = batch.k, batch.m, batch.cm

    def fill(work, xs):
        cases.centered(xs, out=work[0])
        np.multiply(work[0], work[0], out=work[0])
        np.multiply(xs, xs, out=work[1])

    # 12 K M sum(x^2) + K^2 M (M^2-1) d^2 - 12 M sum(x)^2, in centered form;
    # the same for every range, so spread over the batch shape.
    info, scale = k * k * m * cm + 12.0 * m * k * _stacked_sums(cases, 2, fill, x)
    shape = np.broadcast_shapes(np.shape(info), np.broadcast_shapes(x.shape, np.shape(r))[:-1])
    info, scale = np.broadcast_to(info, shape), np.broadcast_to(scale, shape)
    quad = _Quadratic(
        info_r=None, info_theta=info, info_cross=0.0, scale_r=0.0, scale_theta=scale
    )
    return 6.0 * k / (batch.cos_t * batch.cos_t), quad


def _swm_kernel(
    x: np.ndarray, r: float | np.ndarray, theta: float | np.ndarray, batch: _Batch, cases: _Cases
) -> tuple[float | np.ndarray, _Quadratic]:
    """Spherical-wave information: sums over every antenna."""
    n = batch.k * batch.m
    info_r, info_t, scale_r, scale_t, info_c = n * _radial_sums(x, r, theta, cases)
    return 0.5 * n, _Quadratic(info_r, info_t, info_c, scale_r, scale_t)


# Per model: the layout attribute holding its abscissas, and its kernel.
_KERNELS = {
    WavefrontModel.HSPM_DIST: ("subarray_x", partial(_hspm_kernel, shared_angle=False)),
    WavefrontModel.HSPM_SHARED: ("subarray_x", partial(_hspm_kernel, shared_angle=True)),
    WavefrontModel.PWM: ("subarray_x", _pwm_kernel),
    WavefrontModel.SWM: ("element_x", _swm_kernel),
}


def _abscissas(model: WavefrontModel, layout) -> np.ndarray:
    """Abscissas a model's information sums over: subarray centers, or every antenna.

    layout is a ModularLayout, or the geometry._grid_abscissas of a grid of
    layouts, whose arrays hold one row per layout.
    """
    return getattr(layout, _KERNELS[model][0])


def _crb_batch(
    model: WavefrontModel,
    x: np.ndarray,
    r: float | np.ndarray,
    theta: float | np.ndarray,
    batch: _Batch,
    cases: _Cases = _ROWS,
) -> _Bounds:
    """Bounds of one model over a batch of points, one per row or per case.

    x holds the model's abscissas (see _abscissas) as the kernels take them:
    a (..., n) stack of rows, one per layout or one shared by every range
    (e.g. (P, 1) ranges), or the abscissas of every case of a group.
    """
    try:
        with np.errstate(over="raise"):
            factor, quad = _KERNELS[model][1](x, r, theta, batch, cases)
    except FloatingPointError as exc:
        pitch = np.max(batch.pitch)
        raise NumericDomainError(f"{model.value} information overflows at pitch {pitch}"
                                 f" m and ranges up to {np.max(r)} m") from exc
    return _bound_pair(model, factor * batch.scale, quad, batch.cos_t)


def _group(cases: Iterable[tuple[ModularLayout, float, float, SensingSnr]]) -> _Batch:
    """The _Batch of a ragged group from the _rows of each (layout, theta, wavelength, snr)."""
    return _Batch(*map(np.array, zip(*(_rows(*case) for case in cases))))


def _crb_group(model: WavefrontModel, ants: _Antennas, batch: _Batch) -> _Bounds:
    """Bounds of one model at every case of a ragged group, in one kernel pass.

    The model's abscissas are the group's antennas or its subarrays, each
    carrying its case's range and angle; batch is the group's (_group).
    """
    if _KERNELS[model][0] == "element_x":
        x, case = ants.x, ants.case
    else:
        x, case = ants.sub_x, ants.sub_case
    return _crb_batch(model, x, ants.r[case], ants.theta[case], batch, _Cases(case))


def crb_bounds(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """The closed form of a wavefront model at one target: a batch of one.

    - hspm-dist: subarray-wise, each subarray with its own arrival angle;
      crb_r is +inf flagged "degenerate" when the range information
      vanishes (e.g. a single subarray).
    - hspm-shared: the same, but every subarray's sine moves only through
      theta, at rate cos(theta).
    - pwm: range does not enter the planar steering vector, so crb_r is
      +inf by construction and carries no flag; crb_theta is finite away
      from endfire when the layout has more than one antenna.
    - swm: exact spherical wave; the information sums over every antenna,
      with no small-subarray expansion.
    """
    batch = _rows(layout, target.theta, wavelength, snr)
    x = _abscissas(model, layout)
    return _crb_batch(model, x, target.r, target.theta, batch).pair()


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
    k, m, _, cm, cos_t, scale = _rows(layout, target.theta, wavelength, snr)
    r = target.r
    x = layout.subarray_x
    rk = np.hypot(np.full_like(x, r), x)

    # r / rk - 1 without cancellation: r - rk = -x^2 / (r + rk).
    b_m1 = -(x * x) / (rk * (r + rk))
    z_p = float(((r * x) ** 2 / rk**6).sum())
    zt_p = float((r**6 / rk**6).sum())
    qt_p = float(((r * x) ** 2 / rk**2).sum())

    info_r = k * cm * z_p + 12.0 * k * _centered_power(b_m1)
    scale_r = k * cm * z_p + 12.0 * k * float((b_m1 * b_m1).sum())
    # The range rates d r_k / d theta sum to zero, so every angle term is
    # positive and the information is its own scale.
    info_t = k * cm * zt_p + 12.0 * k * qt_p
    quad = _Quadratic(info_r, info_t, 0.0, scale_r, info_t)

    num = 6.0 * k / m * scale
    return _bound_pair(WavefrontModel.HSPM_DIST, num, quad, cos_t).pair()


def _far_range_information(k: int, cm: float, x: np.ndarray, r: float) -> tuple[float, float]:
    """Leading-order boresight range information and its degeneracy scale.

    r^4 times the information is the offset-moment law
        F = K cm sum(x^2) + 3 (K sum(x^4) - sum(x^2)^2)
    with K sum(x^4) - sum(x^2)^2 evaluated as K sum((x^2 - mean(x^2))^2),
    which has no cancellation; the scale takes both terms positive.
    """
    x2 = x * x
    r4 = r**4
    info = (k * cm * x2.sum() + 3.0 * k * _centered_power(x2)) / r4
    scale = (k * cm * x2.sum() + 3.0 * k * (x2 * x2).sum()) / r4
    return float(info), float(scale)


def crb_boresight_far(
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> CrbPair:
    """Asymptotic boresight bounds for ranges far beyond the aperture.

    Expansion of crb_boresight in (aperture / range), the range
    information to its leading order F / r^4 and the angle information to
    second order: with spread = sum(x_k^2) over the subarray offsets x_k,

        crb_r     ~ num * r^4 / F,
        F         = K (M^2-1) d^2 spread + 3 (K sum(x_k^4) - spread^2)
        crb_theta ~ num / (K (K (M^2-1) d^2 + 12 spread - correction / r^2))

    where num = 6 K / M (lambda / 2 pi)^2 / gamma and correction =
    (M^2-1) d^2 spread + 12 sum(x_k^4). The range bound depends on the
    layout through the offset moments in F, not through the spread alone,
    and grows as r^4. By Cauchy-Schwarz F > 0 for any layout of more than
    one subarray, so the range bound is finite there; a single subarray
    has F = 0 and gets +inf flagged "degenerate", as in crb_boresight. The
    relative deviation of either bound from crb_boresight falls as
    (aperture / r)^2; for the range bound on the fig3 layout it is
    0.28 (aperture / r)^2.
    """
    _require_boresight_symmetric(layout, target)
    k, m, _, cm, cos_t, scale = _rows(layout, target.theta, wavelength, snr)
    r = target.r
    x = layout.subarray_x
    spread = float((x * x).sum())
    fourth = float((x**4).sum())

    info_r, scale_r = _far_range_information(k, cm, x, r)
    correction = cm * spread + 12.0 * fourth
    info_t = k * (k * cm + 12.0 * spread - correction / r**2)
    scale_t = k * (k * cm + 12.0 * spread + correction / r**2)
    quad = _Quadratic(info_r, info_t, 0.0, scale_r, scale_t)

    num = 6.0 * k / m * scale
    diagnostics = {
        "offset_spread": spread,
        "offset_fourth_moment": fourth,
        "regime_ratio": layout.aperture / r,
    }
    return _bound_pair(WavefrontModel.HSPM_DIST, num, quad, cos_t).pair(diagnostics)
