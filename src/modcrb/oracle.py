"""Generic Fisher-information route to the bounds, used to check the closed forms.

This module never touches the closed-form algebra: it starts from a steering
vector and its derivatives (analytic or finite-difference) and evaluates the
nuisance-projected Fisher matrix directly,

    A_uu      = |dg_u|^2 - |g^H dg_u|^2 / |g|^2
    A_rtheta  = Re(dg_r^H dg_theta - (dg_r^H g)(g^H dg_theta) / |g|^2)
    crb_r     = (1 / (2 gamma)) A_thetatheta / (A_rr A_thetatheta - A_rtheta^2)

It shares only the last step with the closed forms: the projected terms go
through the same inversion and the same degeneracy and endfire policy
(crb._bound_pair), so a flag means the same thing on both routes.

The route runs in float64 and removes cancellations instead of adding
precision: the projections use explicit residual vectors, and both legs
measure range rates against the rate 2 pi / lambda of the path from the
array center. That adds a multiple of g to dg_r, which the projection
removes exactly, and keeps the rates' digits (and a meaningful degeneracy
scale |dg_r|^2) where the range information is O((A / r)^4).

The oracle checks a group of cases at once. verify_batch draws its cases
one group at a time, a group being a run of consecutive draws holding at
most crb._BATCH_ELEMENTS antennas; cross_validate is a group of one. The
antennas of a group's cases go side by side in flat arrays
(wavefront._Antennas), each entry carrying its case's r, theta and
2 pi / lambda. Per model, the closed form under test makes one kernel pass
over the whole group (crb._crb_group); the analytic leg takes the steering
vectors and their derivatives of the whole group from one phase pass and
one complex exponential; the finite-difference leg takes the +-h_r pair of
every case, then the +-h_theta pair, each through one _phase_increment
pass and one exponential; each leg makes one projection, in the thread's crb
workspace, and one _bound_pair call inverts the information of every
model, leg and case: a full group peaks near 185 bytes per antenna. The
arithmetic is elementwise and each sum runs over one case's contiguous
columns (through crb._Cases, as the closed forms' sums do), so every
report keeps the bits it has when its case is checked alone.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .crb import (_BATCH_ELEMENTS, SensingSnr, _blocks, _bound_pair, _Cases, _crb_group, _group,
                  _Quadratic)
from .errors import InvalidConfigurationError
from .geometry import ModularLayout, TargetPolar, build_layout, field_regions
from .wavefront import (
    MODEL_ORDER,
    WavefrontModel,
    _antennas,
    _Antennas,
    _phase_increment,
    _wavefront,
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


def _projected(g: np.ndarray, d_r: np.ndarray, d_t: np.ndarray, cases: _Cases) -> np.ndarray:
    """Per case A_rr, A_thetatheta, A_rtheta via explicit residuals, and the scales.

    g, d_r and d_t hold the steering vectors and derivatives of C cases side
    by side, as the ragged cases lay them out. Returns a (5, C) array: the
    three projected terms and |dg_r|^2, |dg_theta|^2 of each case.
    """
    # All in the thread's crb workspace: a complex scratch row, the products
    # with g, which the residuals overwrite, and the terms, each in dead rows.
    work = _blocks(8, (len(g),))
    rows = work[:6].reshape(3, -1).view(complex)
    tmp, e_r, e_t = rows
    np.conjugate(g, out=tmp)
    n2_g = cases.sum(np.multiply(tmp, g, out=e_r).real)
    np.multiply(tmp, d_r, out=e_r)
    np.multiply(tmp, d_t, out=e_t)
    coef = cases.sum(rows[1:]) / n2_g
    np.subtract(d_r, np.multiply(cases.spread(coef[0]), g, out=tmp), out=e_r)
    np.subtract(d_t, np.multiply(cases.spread(coef[1]), g, out=tmp), out=e_t)
    for row, a, b in ((6, e_r, e_r), (7, e_t, e_t), (3, e_r, e_t), (4, d_r, d_r), (5, d_t, d_t)):
        np.multiply(np.conjugate(a, out=tmp), b, out=tmp)
        work[row] = tmp.real
    return cases.sum(work[3:])[[3, 4, 0, 1, 2]]


def _fd_rebased(
    model: WavefrontModel, ants: _Antennas, h_r: np.ndarray, h_theta: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Central differences of the steering vectors in their own phase frame.

    Rotating entry i of a steering vector by exp(+1j psi_i(target)), a
    per-entry constant, leaves every Gram quantity the CRB is built from
    unchanged and turns the vector at the base point into all ones. In that
    frame the shifted evaluations are exp(-1j dpsi) for the small phase
    increments dpsi of _phase_increment, accurate relative to their own
    size and measured against the reference path (the range differences
    lack a multiple of the all-ones vector, which the projection removes).
    The differences stay second order in h but no longer sit on top of
    absolute phases of order 2 pi r / lambda, whose rounding otherwise
    dominates once the Fisher residuals get small. Pair the result with an
    all-ones steering vector.

    h_r and h_theta hold the steps of each case of ants. The stencil goes
    in two halves, the pair +-h_r of every case and then the pair
    +-h_theta, each through one phase pass and one complex exponential over
    a (2, N) array, both in 4 rows of the thread's crb workspace. Each
    column has the bits it gets when its case and shift are evaluated
    alone, so the result equals differences of separate evaluations
    exactly. The range and angle derivatives go to the rows of out, (2, N)
    complex. The steps must be positive; _phase_increment checks every
    r - h_r.
    """
    n, zero = len(ants.case), np.zeros_like(h_r)
    for d, dr, dtheta, h in ((out[0], (h_r, -h_r), (zero, zero), h_r),
                             (out[1], (zero, zero), (h_theta, -h_theta), h_theta)):
        work = _blocks(4, (n,))
        g = work.reshape(2, -1).view(complex)
        np.multiply(-1j, _phase_increment(model, ants, np.array(dr), np.array(dtheta),
                                          work.reshape(2, 2, n)), out=g)
        np.exp(g, out=g)
        np.divide(np.subtract(g[0], g[1], out=d), (2.0 * h)[ants.case], out=d)
    return out


def relative_error(a: float, b: float) -> float:
    """Symmetric relative deviation |a - b| / max(|a|, |b|).

    Two infinities of the same sign count as equal (0.0); an infinity
    against a finite value counts as +inf; 0 against 0 is 0.
    """
    if math.isinf(a) and math.isinf(b):
        return 0.0 if a == b else math.inf
    if math.isinf(a) or math.isinf(b):
        return math.inf
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


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


def _fd_steps(rate_r: float, rate_t: float, r: float) -> tuple[float, float]:
    """Phase-aware steps keeping central-difference truncation near 1e-8.

    A unit-modulus entry exp(-1j psi(u)) differenced at step h picks up a
    multiplicative sin(w h)/(w h) ~ 1 - (w h)^2/6 attenuation at phase rate
    w = dpsi/du, so the step is sized against the largest entry rates
    rate_r and rate_t. The range rates are rebased (see _wavefront) and can
    be tiny, but they vary on the scale of the target range r, so h_r also
    stays below 1e-5 r, a truncation of about (h_r / r)^2. The rates only
    size the steps; the finite differences never reuse the analytic values.
    """
    eta = 1.4e-4  # (w h) giving (w h)^2 / 6 ~ 3e-9
    h_r = min(1e-5 * r, eta / rate_r) if rate_r else 1e-5 * r
    h_theta = min(1e-4, eta / rate_t) if rate_t else 1e-4
    return h_r, h_theta


def cross_validate(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
) -> ValidationReport:
    """Check one closed form against the generic route at one point.

    Both legs of the generic route work in the reference-path frame (see
    the module docstring). The finite-difference leg uses _fd_rebased with
    the phase-aware steps of _fd_steps (recorded in the report) so that it
    stays meaningful even where the closed forms are themselves heavily
    cancellation-protected. The check is verify_batch's, on a group of one.

    Args:
        model: Wavefront model under test.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        snr: Sensing SNR.

    Returns:
        ValidationReport with both relative errors.
    """
    (report,) = _validate((model,), [(layout, target, snr, wavelength)])
    return report


def _validate(
    models: Sequence[WavefrontModel],
    cases: Sequence[tuple[ModularLayout, TargetPolar, SensingSnr, float]],
) -> list[ValidationReport]:
    """cross_validate every model at every (layout, target, snr, wavelength) case.

    The cases' antennas go side by side (see wavefront._Antennas), so per
    model the closed form makes one kernel pass, each leg fills one block of
    rows in turn and makes one projection, and one _bound_pair call inverts
    the information of every leg, model and case.
    Each case keeps the bits it gets alone: the arithmetic is elementwise
    and every sum runs over one case's columns.

    Args:
        models: Wavefront models under test.
        cases: Points to check, each as sample_case returns it.

    Returns:
        One ValidationReport per case and model, case-major.
    """
    ants = _antennas([(layout, target, wavelength) for layout, target, _, wavelength in cases])
    batch = _group((layout, target.theta, wavelength, snr)
                   for layout, target, snr, wavelength in cases)
    closed = [_crb_group(model, ants, batch).points for model in models]
    starts = ants.starts
    group = _Cases(ants.case)
    # g, dg/dr and dg/dtheta of every leg of every model, in turn.
    steer = np.empty((3, len(ants.case)), dtype=complex)
    sums, used = [], []
    for model in models:
        g, d_r, d_t = _wavefront(model, ants, steer)
        rates = zip(np.maximum.reduceat(np.abs(d_r), starts[:-1]).tolist(),
                    np.maximum.reduceat(np.abs(d_t), starts[:-1]).tolist(), ants.r.tolist())
        steps = [_fd_steps(*rate) for rate in rates]
        used.append(steps)
        sums.append(_projected(g, d_r, d_t, group))
        g.fill(1.0)  # the finite differences' frame
        _fd_rebased(model, ants, *np.array(steps).T, steer[1:])
        sums.append(_projected(g, d_r, d_t, group))

    # Points ordered (model, leg, case).
    n = len(cases)
    nums = np.array([0.5 / snr.gamma for _, _, snr, _ in cases])
    legs = 2 * len(models)
    quad = _Quadratic(*np.concatenate(sums, axis=1))
    rows = _bound_pair(None, np.tile(nums, legs), quad, np.tile(batch.cos_t, legs)).points

    reports = []
    for c, (layout, target, _, _) in enumerate(cases):
        for i, model in enumerate(models):
            crb_r, crb_t, _, _ = closed[i][c]
            an_r, an_t, _, _ = rows[2 * i * n + c]
            fd_r, fd_t, _, _ = rows[(2 * i + 1) * n + c]
            step_r, step_t = used[i][c]
            reports.append(ValidationReport(
                model=model.value,
                point={"layout": layout.digest, "r": target.r, "theta": target.theta},
                closed_form={"crb_r_m2": crb_r, "crb_theta_rad2": crb_t},
                generic_analytic={"crb_r_m2": an_r, "crb_theta_rad2": an_t},
                generic_fd={"crb_r_m2": fd_r, "crb_theta_rad2": fd_t},
                rel_err_analytic=max(relative_error(crb_r, an_r), relative_error(crb_t, an_t)),
                rel_err_fd=max(relative_error(crb_r, fd_r), relative_error(crb_t, fd_t)),
                fd_step_used={"h_r": step_r, "h_theta": step_t},
            ))
    return reports


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
    k = int(rng.choice([1, 3, 5, 7]))
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
    """Consecutive runs of cases with at most _BATCH_ELEMENTS antennas in all.

    A case with more antennas than that forms a group of its own. A group
    is yielded once the first case past its end has been drawn.
    """
    group: list = []
    size = 0
    for case in cases:
        n = case[0].num_elements
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
        InvalidConfigurationError: Before the first draw, on num_cases < 1, a seed
            that is not an integer >= 0, or a tolerance not finite and >= 0.
    """
    if num_cases < 1:
        raise InvalidConfigurationError(f"num_cases must be >= 1, got {num_cases}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    for name, tol in (("tol_analytic", tol_analytic), ("tol_fd", tol_fd)):
        if not (math.isfinite(tol) and tol >= 0):
            raise InvalidConfigurationError(f"{name} must be finite and >= 0, got {tol}")
    rng = np.random.default_rng(seed)
    max_an = {model.value: 0.0 for model in MODEL_ORDER}
    max_fd = {model.value: 0.0 for model in MODEL_ORDER}
    failures: list[ValidationReport] = []
    for group in _groups(sample_case(rng) for _ in range(num_cases)):
        for report in _validate(MODEL_ORDER, group):
            token = report.model
            max_an[token] = max(max_an[token], report.rel_err_analytic)
            max_fd[token] = max(max_fd[token], report.rel_err_fd)
            if report.rel_err_analytic > tol_analytic or report.rel_err_fd > tol_fd:
                failures.append(report)
    return VerificationSummary(
        num_cases=num_cases,
        seed=seed,
        tol_analytic=tol_analytic,
        tol_fd=tol_fd,
        max_rel_err_analytic=max_an,
        max_rel_err_fd=max_fd,
        failures=tuple(failures),
    )
