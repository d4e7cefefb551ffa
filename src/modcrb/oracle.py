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

cross_validate makes one phase pass per leg: the analytic leg takes the
steering vector and its derivatives from one phase evaluation and one
complex exponential, and the finite-difference leg stacks its four shifts
(+-h_r, +-h_theta) into one phase_increment call and one exponential.
Both do the arithmetic of separate passes in the same order, so every
report keeps the bits it would have with separate passes.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from .crb import CrbPair, SensingSnr, _bound_pair, _Quadratic, crb_bounds
from .errors import InvalidConfigurationError
from .geometry import ModularLayout, TargetPolar, build_layout, field_regions
from .wavefront import (
    MODEL_ORDER,
    SteeringDerivatives,
    SteeringVector,
    WavefrontModel,
    _wavefront,
    phase_increment,
    steering,
)

__all__ = [
    "ValidationReport",
    "VerificationSummary",
    "crb_from_steering",
    "fd_derivatives",
    "fd_rebased",
    "cross_validate",
    "relative_error",
    "sample_case",
    "verify_batch",
    "oracle_dtype",
]


def oracle_dtype():
    """Real dtype of the oracle route, float64; the benchmark records its eps."""
    return np.float64


def _projected(g: np.ndarray, d_r: np.ndarray, d_theta: np.ndarray):
    """A_rr, A_thetatheta, A_rtheta via explicit residuals."""
    g_conj = np.conj(g)
    n2_g = (g_conj * g).real.sum()
    e_r = d_r - ((g_conj * d_r).sum() / n2_g) * g
    e_t = d_theta - ((g_conj * d_theta).sum() / n2_g) * g
    a_rr = (np.conj(e_r) * e_r).real.sum()
    a_tt = (np.conj(e_t) * e_t).real.sum()
    a_rt = (np.conj(e_r) * e_t).real.sum()
    return a_rr, a_tt, a_rt


def crb_from_steering(
    g: SteeringVector,
    dg: SteeringDerivatives,
    snr: SensingSnr,
    model: WavefrontModel | None = None,
    cos_theta: float | None = None,
) -> CrbPair:
    """Bounds from a steering vector and its derivatives alone.

    Args:
        g: Steering vector.
        dg: Derivatives with respect to (r, theta), the range one in the
            reference-path frame (as fd_rebased gives it): the raw one's
            2 pi / lambda part leaves the bounds alone but inflates the
            degeneracy scale |dg_r|^2 until well-conditioned range
            information reads as degenerate.
        snr: Sensing SNR.
        model: Optional label carried into the result.
        cos_theta: Optional cosine of the target angle for the endfire
            test; without it no result is treated as endfire.

    Returns:
        CrbPair under the same degeneracy and endfire policy as the closed
        forms.
    """
    gv, d_r, d_t = g.values, dg.d_r, dg.d_theta
    if gv.shape != d_r.shape or gv.shape != d_t.shape:
        raise InvalidConfigurationError("steering vector and derivatives disagree in shape")
    a_rr, a_tt, a_rt = _projected(gv, d_r, d_t)
    scale_r = (np.conj(d_r) * d_r).real.sum()
    scale_t = (np.conj(d_t) * d_t).real.sum()
    quad = _Quadratic(a_rr, a_tt, a_rt, scale_r, scale_t)
    return _bound_pair(model, 0.5 / snr.gamma, quad, cos_theta).pair()


def fd_derivatives(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    h_r: float | None = None,
    h_theta: float | None = None,
) -> SteeringDerivatives:
    """Central finite-difference derivatives of the steering vector.

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        h_r: Range step, meters. Defaults to max(1e-4, 1e-7 * r).
        h_theta: Angle step, radians. Defaults to 1e-4.

    Returns:
        SteeringDerivatives from symmetric differences at the snapped
        steps actually representable around the target.

    Raises:
        ValueError: If the range step is too large (r - h_r <= 0).
    """
    r, theta = target.r, target.theta
    if h_r is None:
        h_r = max(1e-4, 1e-7 * r)
    if h_theta is None:
        h_theta = 1e-4
    if h_r <= 0 or h_theta <= 0:
        raise ValueError(f"steps must be positive, got h_r={h_r}, h_theta={h_theta}")
    r_hi, r_lo = r + h_r, r - h_r
    if r_lo <= 0:
        raise ValueError(
            f"range step {h_r} too large for target range {r}"
        )
    t_hi, t_lo = theta + h_theta, theta - h_theta

    def g_at(rr: float, tt: float) -> np.ndarray:
        return steering(model, layout, TargetPolar(rr, tt), wavelength).values

    # Snapped steps: divide by the spacing the floats actually realize.
    d_r = (g_at(r_hi, theta) - g_at(r_lo, theta)) / (r_hi - r_lo)
    d_t = (g_at(r, t_hi) - g_at(r, t_lo)) / (t_hi - t_lo)
    return SteeringDerivatives(d_r=d_r, d_theta=d_t)


def fd_rebased(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    h_r: float,
    h_theta: float,
) -> SteeringDerivatives:
    """Central differences of the steering vector in its own phase frame.

    Rotating entry i of the steering vector by exp(+1j psi_i(target)), a
    per-entry constant, leaves every Gram quantity the CRB is built from
    unchanged and turns the vector at the base point into all ones. In that
    frame the shifted evaluations are exp(-1j dpsi) for the small phase
    increments dpsi of phase_increment, accurate relative to their own size
    and measured against the reference path (the range differences lack a
    multiple of the all-ones vector, which the projection removes). The
    differences stay second order in h but no longer sit on top of absolute
    phases of order 2 pi r / lambda, whose rounding otherwise dominates once
    the Fisher residuals get small. Pair the result with an all-ones
    steering vector.

    The four shifts go through one stacked phase_increment call and one
    complex exponential over a (4, K*M) array; each row has the bits of
    the scalar call for its shift, so the result equals differences of
    four separate evaluations exactly.

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        h_r: Range step, meters (must leave r - h_r > 0).
        h_theta: Angle step, radians.

    Returns:
        SteeringDerivatives in the rebased frame.

    Raises:
        ValueError: If a step is not positive or the range step is too
            large (r - h_r <= 0).
    """
    if h_r <= 0 or h_theta <= 0:
        raise ValueError(f"steps must be positive, got h_r={h_r}, h_theta={h_theta}")
    if target.r - h_r <= 0:
        raise ValueError(f"range step {h_r} too large for target range {target.r}")

    # Rows: +h_r, -h_r, +h_theta, -h_theta, in one phase pass and one exp.
    dr = np.array([h_r, -h_r, 0.0, 0.0])
    dtheta = np.array([0.0, 0.0, h_theta, -h_theta])
    g = np.exp(-1j * phase_increment(model, layout, target, wavelength, dr, dtheta))
    d_r = (g[0] - g[1]) / (2.0 * h_r)
    d_t = (g[2] - g[3]) / (2.0 * h_theta)
    return SteeringDerivatives(d_r=d_r, d_theta=d_t)


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


def _pair_error(reference: CrbPair, other: CrbPair) -> float:
    """Worst relative deviation across the two bounds of a pair."""
    return max(
        relative_error(reference.crb_r, other.crb_r),
        relative_error(reference.crb_theta, other.crb_theta),
    )


def _pair_dict(pair: CrbPair) -> dict[str, float]:
    return {"crb_r_m2": pair.crb_r, "crb_theta_rad2": pair.crb_theta}


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


def _fd_steps(dg: SteeringDerivatives, target: TargetPolar) -> tuple[float, float]:
    """Phase-aware steps keeping central-difference truncation near 1e-8.

    A unit-modulus entry exp(-1j psi(u)) differenced at step h picks up a
    multiplicative sin(w h)/(w h) ~ 1 - (w h)^2/6 attenuation at phase rate
    w = dpsi/du, so the step is sized against the largest entry rate. The
    range rates are rebased (see _wavefront) and can be tiny, but they vary
    on the scale of r, so h_r also stays below 1e-5 r, a truncation of about
    (h_r / r)^2. The rates only size the steps; the finite differences
    never reuse the analytic values.
    """
    eta = 1.4e-4  # (w h) giving (w h)^2 / 6 ~ 3e-9
    rate_r = float(np.abs(dg.d_r).max())
    rate_t = float(np.abs(dg.d_theta).max())
    h_r = min(1e-5 * target.r, eta / rate_r) if rate_r else 1e-5 * target.r
    h_theta = min(1e-4, eta / rate_t) if rate_t else 1e-4
    return h_r, h_theta


def cross_validate(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    snr: SensingSnr,
    h_r: float | None = None,
    h_theta: float | None = None,
) -> ValidationReport:
    """Check one closed form against the generic route at one point.

    Both legs of the generic route work in the reference-path frame (see
    the module docstring). The finite-difference leg uses fd_rebased with
    phase-aware steps (recorded in the report) so that it stays meaningful
    even where the closed forms are themselves heavily
    cancellation-protected.

    Args:
        model: Wavefront model under test.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        snr: Sensing SNR.
        h_r: Optional explicit range step.
        h_theta: Optional explicit angle step.

    Returns:
        ValidationReport with both relative errors.
    """
    closed = crb_bounds(model, layout, target, wavelength, snr)
    g, dg = _wavefront(model, layout, target, wavelength)
    cos_t = math.cos(target.theta)
    analytic = crb_from_steering(g, dg, snr, model=model, cos_theta=cos_t)

    auto_r, auto_t = _fd_steps(dg, target)
    h_r = h_r if h_r is not None else auto_r
    h_theta = h_theta if h_theta is not None else auto_t
    dg_fd = fd_rebased(model, layout, target, wavelength, h_r, h_theta)
    g_ones = SteeringVector(values=np.ones_like(dg_fd.d_r))
    fd = crb_from_steering(g_ones, dg_fd, snr, model=model, cos_theta=cos_t)

    return ValidationReport(
        model=model.value,
        point={"layout": layout.digest, "r": target.r, "theta": target.theta},
        closed_form=_pair_dict(closed),
        generic_analytic=_pair_dict(analytic),
        generic_fd=_pair_dict(fd),
        rel_err_analytic=_pair_error(closed, analytic),
        rel_err_fd=_pair_error(closed, fd),
        fd_step_used={"h_r": h_r, "h_theta": h_theta},
    )


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
        elapsed_s: Wall-clock time of the batch.
    """

    num_cases: int
    seed: int
    tol_analytic: float
    tol_fd: float
    max_rel_err_analytic: dict[str, float]
    max_rel_err_fd: dict[str, float]
    failures: tuple[ValidationReport, ...]
    elapsed_s: float

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
    """
    if num_cases < 1:
        raise InvalidConfigurationError(f"num_cases must be >= 1, got {num_cases}")
    rng = np.random.default_rng(seed)
    max_an = {model.value: 0.0 for model in MODEL_ORDER}
    max_fd = {model.value: 0.0 for model in MODEL_ORDER}
    failures: list[ValidationReport] = []
    start = time.perf_counter()
    for _ in range(num_cases):
        layout, target, snr, wavelength = sample_case(rng)
        for model in MODEL_ORDER:
            report = cross_validate(model, layout, target, wavelength, snr)
            token = model.value
            max_an[token] = max(max_an[token], report.rel_err_analytic)
            max_fd[token] = max(max_fd[token], report.rel_err_fd)
            if report.rel_err_analytic > tol_analytic or report.rel_err_fd > tol_fd:
                failures.append(report)
    elapsed = time.perf_counter() - start
    return VerificationSummary(
        num_cases=num_cases,
        seed=seed,
        tol_analytic=tol_analytic,
        tol_fd=tol_fd,
        max_rel_err_analytic=max_an,
        max_rel_err_fd=max_fd,
        failures=tuple(failures),
        elapsed_s=elapsed,
    )
