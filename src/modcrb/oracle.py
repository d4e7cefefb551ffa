"""Generic Fisher-information route to the bounds, used to check the closed forms.

This module never touches the closed-form algebra: it starts from the
derivatives of a steering vector g (analytic or finite-difference) and
evaluates the nuisance-projected Fisher matrix directly,

    A_uu      = |dg_u|^2 - |g^H dg_u|^2 / |g|^2
    A_rtheta  = Re(dg_r^H dg_theta - (dg_r^H g)(g^H dg_theta) / |g|^2)
    crb_r     = (1 / (2 gamma)) A_thetatheta / (A_rr A_thetatheta - A_rtheta^2)

It shares only the last step with the closed forms: the projected terms go
through the same inversion and the same degeneracy and endfire policy
(crb._bound_pair), so a flag means the same thing on both routes.

The route runs in real float64 arithmetic and removes cancellations instead
of adding precision. Every entry of every model's steering vector has unit
modulus, exp(-1j psi), so rotating entry i by exp(+1j psi_i), a per-entry
constant that leaves every Gram quantity unchanged, turns g into the
all-ones vector. Both legs work in that unit frame. There the analytic
derivative along u is -1j times the phase rate, so the analytic leg reads
the rates of wavefront._phase_terms as they are; the finite-difference leg
differences exp(-1j dpsi) of small phase increments dpsi, as cos and sin
rows (_fd_rebased). Projecting out the all-ones vector centres each case,
so one real projection (_projected) serves both legs, through explicit
residuals. Its products and sums round alike whatever SIMD loops numpy
dispatches to; complex products do not, since one loop may fuse a
multiply-add where another rounds twice. Both legs also measure range
rates against the rate 2 pi / lambda of the path from the array center.
That adds a multiple of g to dg_r, which the projection removes exactly,
and keeps the rates' digits (and a meaningful degeneracy scale |dg_r|^2)
where the range information is O((A / r)^4).

The oracle checks a group of cases at once. verify_batch draws its cases
one group at a time, a group being a run of consecutive draws holding at
most crb._BATCH_ELEMENTS entries, the antennas and a slot of each case;
cross_validate is a group of one. The antennas of a group's cases go side
by side in flat arrays (wavefront._Antennas), each case after its slot, a
zero abscissa whose phase rates and increments are exactly zero. They are
described once by their counts per case and per subarray, through which
each case's r, theta and 2 pi / lambda are spread to its entries. Per
model, the closed form under test makes one kernel pass over the whole
group (crb._crb_group); the analytic leg takes the phase rates of the whole
group from one phase pass; the finite-difference leg takes +-h_r and
+-h_theta of every case through one _phase_increment pass and one cos and
one sin pass; each leg makes one projection, in the thread's crb
workspace, and one _bound_pair call inverts the information of every
model, leg and case: a full group peaks near 214 bytes per antenna. The
arithmetic is elementwise, and each round of per-case sums is one
np.add.reduceat call from the cases' +0.0 slots (geometry._Cases, as the
closed forms' sums are), which adds each case's entries as a sum over that
case alone does, so every report keeps the bits it has when its case is
checked alone. verify_batch takes the maxima and the threshold tests over
the group's arrays (_GroupCheck) and builds a ValidationReport only for a
failure.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from typing import Any, NamedTuple

import numpy as np

from .crb import _BATCH_ELEMENTS, SensingSnr, _blocks, _bound_pair, _crb_group, _group, _Quadratic
from .errors import InvalidConfigurationError
from .geometry import ModularLayout, TargetPolar, _Cases, build_layout, field_regions
from .wavefront import (
    MODEL_ORDER,
    WavefrontModel,
    _antennas,
    _Antennas,
    _phase_increment,
    _phase_terms,
)

__all__ = [
    "ValidationReport",
    "VerificationSummary",
    "cross_validate",
    "relative_error",
    "sample_case",
    "verify_batch",
    "oracle_dtype",
]


def oracle_dtype():
    """Real dtype of the oracle route, float64; the benchmark records its eps."""
    return np.float64


def _projected(parts: np.ndarray, cases: _Cases) -> np.ndarray:
    """Per case A_rr, A_thetatheta, A_rtheta via explicit residuals, and the scales.

    parts holds the (r, theta) derivatives of C cases side by side, as the
    ragged cases lay them out, in the unit frame (see the module
    docstring), as a real (2, P, N + C) block: P real rows per derivative,
    whose products summed over P are the Gram terms. The analytic leg's one
    row is the phase rates (its derivatives' imaginary parts, up to a sign
    they share), the finite differences' two their real and imaginary
    parts. Projecting out the all-ones steering vector centres each case:
    the projected terms are A_uv = sum_p e_up e_vp over the centred parts
    e, and the scales |d_u|^2 = sum_p d_up^2. parts is centred in place.
    Returns a (5, C) array: the three projected terms and |d_r|^2,
    |d_theta|^2 of each case.
    """
    # The terms in the thread's crb workspace, after one scratch row.
    work = _blocks(6, parts.shape[-1:])
    tmp, terms = work[0], work[1:]

    def dot(a, b, out):
        np.multiply(a[0], b[0], out=out)
        for a_p, b_p in zip(a[1:], b[1:]):
            np.add(out, np.multiply(a_p, b_p, out=tmp), out=out)

    for row, d in zip(terms[3:], parts):
        dot(d, d, row)
    e_r, e_t = cases.centered(parts, out=parts)
    for row, (a, b) in zip(terms, ((e_r, e_r), (e_t, e_t), (e_r, e_t))):
        dot(a, b, row)
    return cases.sum(terms)


def _fd_rebased(
    model: WavefrontModel, ants: _Antennas, h_r: np.ndarray, h_theta: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Central differences of the steering vectors in the unit frame.

    In the unit frame (see the module docstring) the steering vector at the
    base point is all ones, and its shifted evaluations are exp(-1j dpsi)
    for the small phase increments dpsi of _phase_increment, accurate
    relative to their own size and measured against the reference path (the
    range differences lack a multiple of the all-ones vector, which the
    projection removes). The differences stay second order in h but no
    longer sit on top of absolute phases of order 2 pi r / lambda, whose
    rounding otherwise dominates once the Fisher residuals get small.

    h_r and h_theta hold the steps of each case of ants. The whole stencil,
    +-h_r and +-h_theta of every case stacked as (4, C) shifts, goes
    through one phase pass, so the base point's geometry is evaluated once,
    and one cos and one sin pass over (4, N + C); all use the 8 rows of the
    thread's crb workspace, first as _radial_shift's scratch, then for the
    cos and sin rows. Each column has the bits it gets when its case and
    shift are evaluated alone, so the result equals differences of separate
    evaluations exactly. The range and angle derivatives go to out, a real
    (2, 2, N + C) block of their real and imaginary parts (the differences
    of cos dpsi and of -sin dpsi), zero at the slots, as _projected takes
    it. The steps must be positive; _phase_increment checks every r - h_r.
    """
    n, zero = len(ants.x), np.zeros_like(h_r)
    work = _blocks(8, (n,))
    inc = _phase_increment(model, ants, np.array((h_r, -h_r, zero, zero)),
                           np.array((zero, zero, h_theta, -h_theta)), work.reshape(2, 4, n))
    cos, sin = np.cos(inc, out=work[:4]), np.sin(inc, out=work[4:])
    np.subtract(cos[0::2], cos[1::2], out=out[:, 0])
    np.subtract(sin[1::2], sin[0::2], out=out[:, 1])
    return np.divide(out, ants.cases.spread((2.0 * h_r, 2.0 * h_theta))[:, None], out=out)


def relative_error(a: float, b: float) -> float:
    """Symmetric relative deviation |a - b| / max(|a|, |b|).

    Two infinities of the same sign count as equal (0.0); an infinity
    against a finite value counts as +inf; 0 against 0 is 0.
    """
    return float(_relative_errors(a, b))


def _relative_errors(a, b) -> np.ndarray:
    """relative_error of every pair of a and b, elementwise, with its bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore"):
        err = np.abs(a - b) / scale
    # An infinite scale has an infinity on a side: equal sides or not.
    return np.where(np.isinf(scale), np.where(a == b, 0.0, np.inf),
                    np.where(scale == 0.0, 0.0, err))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking one closed form against the generic route.

    Attributes:
        model: Wavefront model token.
        point: Layout digest plus target coordinates.
        closed_form: Closed-form bounds.
        generic_analytic: Generic-route bounds from analytic derivatives.
        generic_fd: Generic-route bounds from finite differences.
        rel_err_analytic: Worst relative deviation closed vs analytic.
        rel_err_fd: Worst relative deviation closed vs finite differences.
        fd_step_used: Steps the finite differences actually used.
    """

    model: str
    point: dict[str, Any]
    closed_form: dict[str, float]
    generic_analytic: dict[str, float]
    generic_fd: dict[str, float]
    rel_err_analytic: float
    rel_err_fd: float
    fd_step_used: dict[str, float]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready dict; non-finite floats become strings like "inf"."""

        def clean(value):
            if isinstance(value, dict):
                return {k: clean(v) for k, v in value.items()}
            if isinstance(value, float) and not math.isfinite(value):
                return str(value)  # "inf", "-inf" or "nan"
            return value

        return clean(asdict(self))

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to JSON text."""
        return json.dumps(self.to_dict(), indent=indent)


def _fd_steps(rate_r, rate_t, r) -> tuple[np.ndarray, np.ndarray]:
    """Phase-aware steps keeping central-difference truncation near 1e-8.

    A unit-modulus entry exp(-1j psi(u)) differenced at step h picks up a
    multiplicative sin(w h)/(w h) ~ 1 - (w h)^2/6 attenuation at phase rate
    w = dpsi/du, so the step is sized against the largest entry rates
    rate_r and rate_t. The range rates are rebased (see _phase_terms) and can
    be tiny, but they vary on the scale of the target range r, so h_r also
    stays below 1e-5 r, a truncation of about (h_r / r)^2. A zero rate sets
    no limit. The rates only size the steps; the finite differences never
    reuse the analytic values. Elementwise, over per-case arrays.
    """
    eta = 1.4e-4  # (w h) giving (w h)^2 / 6 ~ 3e-9
    with np.errstate(divide="ignore"):
        return (np.minimum(1e-5 * np.asarray(r), eta / np.asarray(rate_r)),
                np.minimum(1e-4, eta / np.asarray(rate_t)))


def cross_validate(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> ValidationReport:
    """Check one closed form against the generic route at one point.

    Both legs of the generic route work in the unit frame, with range rates
    against the reference path (see the module docstring). The
    finite-difference leg uses _fd_rebased with the phase-aware steps of
    _fd_steps (recorded in the report) so that it stays meaningful even
    where the closed forms are themselves heavily cancellation-protected.
    The check is verify_batch's, on a group of one.

    Args:
        model: Wavefront model under test.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        snr: Sensing SNR.

    Returns:
        ValidationReport with both relative errors.
    """
    return _check_group((model,), [(layout, target, snr, wavelength)]).report(0, 0)


class _GroupCheck(NamedTuple):
    """Every model's bounds at every case of a group, by the three routes.

    closed, analytic and fd hold (crb_r, crb_theta), and steps the finite
    differences' (h_r, h_theta), as (models, cases, 2) arrays.
    """

    models: Sequence[WavefrontModel]
    cases: Sequence[tuple[ModularLayout, TargetPolar, SensingSnr, float]]
    closed: np.ndarray
    analytic: np.ndarray
    fd: np.ndarray
    steps: np.ndarray

    def report(self, i: int, c: int) -> ValidationReport:
        """The ValidationReport of model i at case c."""
        layout, target, _, _ = self.cases[c]
        (crb_r, crb_t), (an_r, an_t), (fd_r, fd_t), (step_r, step_t) = (
            bounds[i, c].tolist() for bounds in (self.closed, self.analytic, self.fd, self.steps))
        return ValidationReport(
            model=self.models[i].value,
            point={"layout": layout.digest, "r": target.r, "theta": target.theta},
            closed_form={"crb_r_m2": crb_r, "crb_theta_rad2": crb_t},
            generic_analytic={"crb_r_m2": an_r, "crb_theta_rad2": an_t},
            generic_fd={"crb_r_m2": fd_r, "crb_theta_rad2": fd_t},
            rel_err_analytic=max(relative_error(crb_r, an_r), relative_error(crb_t, an_t)),
            rel_err_fd=max(relative_error(crb_r, fd_r), relative_error(crb_t, fd_t)),
            fd_step_used={"h_r": step_r, "h_theta": step_t},
        )


def _pairs(points) -> list[tuple[float, float]]:
    """(crb_r, crb_theta) of each point of a crb._Bounds."""
    return [(crb_r, crb_t) for crb_r, crb_t, _, _ in points]


def _check_group(
    models: Sequence[WavefrontModel],
    cases: Sequence[tuple[ModularLayout, TargetPolar, SensingSnr, float]],
) -> _GroupCheck:
    """cross_validate's bounds of every model at every (layout, target, snr, wavelength) case.

    The cases' antennas go side by side (see wavefront._Antennas), so per
    model the closed form makes one kernel pass, each leg fills one block of
    rows in turn and makes one projection, and one _bound_pair call inverts
    the information of every leg, model and case. Each case keeps the bits
    it gets alone: the arithmetic is elementwise and every sum is the sum of
    one case's entries. No report is built here; .report makes the ones read.

    Args:
        models: Wavefront models under test.
        cases: Points to check, each as sample_case returns it.
    """
    ants = _antennas([(layout, target, wavelength) for layout, target, _, wavelength in cases])
    batch = _group((layout, target.theta, wavelength, snr)
                   for layout, target, snr, wavelength in cases)
    closed = [_pairs(_crb_group(model, ants, batch).points) for model in models]
    group = ants.cases
    # The parts of each leg of every model in turn: the analytic rates, as
    # one row per derivative, then the finite differences over all rows.
    parts = np.empty((2, 2, len(ants.x)))
    rates = parts[:, :1]
    sums, steps = [], []
    for model in models:
        rates[0, 0], rates[1, 0] = _phase_terms(model, ants)[1:]
        # A slot's rates are 0, so it leaves each case's largest rate as it is.
        h_r, h_t = _fd_steps(*np.maximum.reduceat(np.abs(rates[:, 0]), group.first, axis=-1),
                             ants.r)
        steps.append((h_r, h_t))
        sums.append(_projected(rates, group))
        sums.append(_projected(_fd_rebased(model, ants, h_r, h_t, parts), group))

    # Points ordered (model, leg, case).
    n = len(cases)
    nums = np.array([0.5 / snr.gamma for _, _, snr, _ in cases])
    legs = 2 * len(models)
    quad = _Quadratic(*np.concatenate(sums, axis=1))
    rows = _bound_pair(None, np.tile(nums, legs), quad, np.tile(batch.cos_t, legs)).points
    generic = np.array(_pairs(rows)).reshape(len(models), 2, n, 2)
    return _GroupCheck(models, cases, np.array(closed), generic[:, 0], generic[:, 1],
                       np.array(steps).transpose(0, 2, 1))


def sample_case(rng: np.random.Generator):
    """Draw a random layout, target, and SNR for randomized verification.

    Layouts span K in {1, 3, 5, 7}, odd M in [3, 125], independent gap
    multiples in [1, 200] at half-wavelength pitch for a 5 mm carrier.
    Targets fall inside the band where the subarray-wise models are
    meaningful (between the subarray far-field bound and the full-aperture
    Rayleigh distance), at angles within +-80 degrees; the SNR is
    log-uniform in [0.1, 100].

    Returns:
        (layout, target, snr, wavelength) tuple.
    """
    wavelength = 0.005
    pitch = wavelength / 2.0
    k = (1, 3, 5, 7)[rng.integers(4)]
    m = int(rng.integers(1, 63)) * 2 + 1
    if k == 1:
        gaps: tuple[int, ...] = (0,)
    else:
        half = (k - 1) // 2
        draw = [int(g) for g in rng.integers(1, 201, size=2 * half)]
        gaps = tuple(draw[:half] + [0] + draw[half:])
    layout = build_layout(k, m, gaps, pitch)

    regions = field_regions(layout, wavelength)
    lo = regions.subarray_farfield_bound
    hi = regions.array_rayleigh
    if hi <= lo:
        hi = 2.0 * lo
    r = float(rng.uniform(lo, hi))
    theta = float(rng.uniform(-80.0, 80.0)) * math.pi / 180.0
    snr = SensingSnr(gamma=float(10.0 ** rng.uniform(-1.0, 2.0)))
    return layout, TargetPolar(r, theta), snr, wavelength


@dataclass(frozen=True)
class VerificationSummary:
    """Aggregate outcome of a randomized verification batch.

    Attributes:
        num_cases: Random points evaluated (each against every model).
        seed: RNG seed used.
        tol_analytic: Threshold on closed vs analytic deviations.
        tol_fd: Threshold on closed vs finite-difference deviations.
        max_rel_err_analytic: Worst analytic deviation per model token.
        max_rel_err_fd: Worst finite-difference deviation per model token.
        failures: Reports that exceeded a threshold.
    """

    num_cases: int
    seed: int
    tol_analytic: float
    tol_fd: float
    max_rel_err_analytic: dict[str, float]
    max_rel_err_fd: dict[str, float]
    failures: tuple[ValidationReport, ...]

    @property
    def passed(self) -> bool:
        """True when every deviation stayed under its threshold."""
        return not self.failures

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"verification over {self.num_cases} random cases (seed {self.seed})",
            f"thresholds: analytic {self.tol_analytic:g}, finite-difference {self.tol_fd:g}",
        ]
        for token in self.max_rel_err_analytic:
            lines.append(
                f"  {token:12s} max rel err: analytic {self.max_rel_err_analytic[token]:.3e}"
                f", fd {self.max_rel_err_fd[token]:.3e}"
            )
        lines.append(
            "PASS" if self.passed else f"FAIL ({len(self.failures)} case(s) over threshold)"
        )
        return "\n".join(lines)


def _groups(cases: Iterable) -> Iterator[list]:
    """Consecutive runs of cases with at most _BATCH_ELEMENTS entries in all.

    A case takes its antennas and its slot (see wavefront._Antennas), so a
    group fits the thread's crb workspace. A case with more entries than
    that forms a group of its own. A group is yielded once the first case
    past its end has been drawn.
    """
    group: list = []
    size = 0
    for case in cases:
        n = case[0].num_elements + 1
        if group and size + n > _BATCH_ELEMENTS:
            yield group
            group, size = [], 0
        group.append(case)
        size += n
    if group:
        yield group


def verify_batch(
    num_cases: int = 500,
    seed: int = 7,
    tol_analytic: float = 1e-9,
    tol_fd: float = 1e-4,
) -> VerificationSummary:
    """Randomized equivalence check of every closed form against the oracle.

    Args:
        num_cases: Number of random (layout, target, snr) draws.
        seed: RNG seed; fixed seeds make the batch reproducible.
        tol_analytic: Allowed deviation against analytic derivatives.
        tol_fd: Allowed deviation against finite differences.

    Returns:
        VerificationSummary; .passed is True when no case broke a threshold.

    Raises:
        InvalidConfigurationError: Before the first draw, on num_cases that is
            not an integer >= 1, a seed that is not an integer >= 0, or a
            tolerance that is not a finite real number >= 0.
    """
    if not (isinstance(num_cases, (int, np.integer)) and num_cases >= 1):
        raise InvalidConfigurationError(f"num_cases must be an integer >= 1, got {num_cases!r}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    for name, tol in (("tol_analytic", tol_analytic), ("tol_fd", tol_fd)):
        if not (isinstance(tol, (int, float, np.integer, np.floating))
                and math.isfinite(tol) and tol >= 0):
            raise InvalidConfigurationError(f"{name} must be finite and >= 0, got {tol!r}")
    rng = np.random.default_rng(seed)
    max_an = {model.value: 0.0 for model in MODEL_ORDER}
    max_fd = {model.value: 0.0 for model in MODEL_ORDER}
    failures: list[ValidationReport] = []
    for group in _groups(sample_case(rng) for _ in range(num_cases)):
        check = _check_group(MODEL_ORDER, group)
        # Each report's rel_err_analytic and rel_err_fd, as (models, cases) arrays.
        err_an, err_fd = (_relative_errors(check.closed, leg).max(axis=-1)
                          for leg in (check.analytic, check.fd))
        for model, worst_an, worst_fd in zip(MODEL_ORDER, err_an.max(axis=1).tolist(),
                                             err_fd.max(axis=1).tolist()):
            max_an[model.value] = max(max_an[model.value], worst_an)
            max_fd[model.value] = max(max_fd[model.value], worst_fd)
        # Reports only for the failures, case-major.
        over = (err_an > tol_analytic) | (err_fd > tol_fd)
        failures += [check.report(i, c) for c, i in zip(*np.nonzero(over.T))]
    return VerificationSummary(
        num_cases=num_cases,
        seed=seed,
        tol_analytic=tol_analytic,
        tol_fd=tol_fd,
        max_rel_err_analytic=max_an,
        max_rel_err_fd=max_fd,
        failures=tuple(failures),
    )
