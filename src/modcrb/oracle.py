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

The projections are evaluated on explicit residual vectors, and the whole
route can run in extended precision (np.longdouble) where the platform
provides it, so that it is trustworthy at more digits than the tolerance
it is asked to certify.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
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
    phase_increment,
    steering,
    steering_derivatives,
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
    """Real dtype used by the oracle route.

    Extended precision when the platform's long double is wider than
    float64, plain float64 otherwise.
    """
    if np.finfo(np.longdouble).eps < np.finfo(np.float64).eps:
        return np.longdouble
    return np.float64


def _projected(g: np.ndarray, d_r: np.ndarray, d_theta: np.ndarray):
    """A_rr, A_thetatheta, A_rtheta via explicit residuals.

    Values keep the dtype of the inputs so that extended-precision runs
    stay extended through the determinant.
    """
    n2_g = (np.conj(g) * g).real.sum()
    e_r = d_r - ((np.conj(g) * d_r).sum() / n2_g) * g
    e_t = d_theta - ((np.conj(g) * d_theta).sum() / n2_g) * g
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
        dg: Derivatives with respect to (r, theta).
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
    dtype=np.float64,
) -> SteeringDerivatives:
    """Central finite-difference derivatives of the steering vector.

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        h_r: Range step, meters. Defaults to max(1e-4, 1e-7 * r).
        h_theta: Angle step, radians. Defaults to 1e-4.
        dtype: Real dtype of the steering evaluations.

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
        return steering(model, layout, TargetPolar(rr, tt), wavelength, dtype=dtype).values

    # Snapped steps: divide by the spacing the floats actually realize.
    d_r = (g_at(r_hi, theta) - g_at(r_lo, theta)) / dtype(r_hi - r_lo)
    d_t = (g_at(r, t_hi) - g_at(r, t_lo)) / dtype(t_hi - t_lo)
    return SteeringDerivatives(d_r=d_r, d_theta=d_t)


def fd_rebased(
    model: WavefrontModel,
    layout: ModularLayout,
    target: TargetPolar,
    wavelength: float,
    h_r: float,
    h_theta: float,
    dtype=np.float64,
) -> SteeringDerivatives:
    """Central differences of the steering vector in its own phase frame.

    Rotating entry i of the steering vector by exp(+1j psi_i(target)), a
    per-entry constant, leaves every Gram quantity the CRB is built from
    unchanged and turns the vector at the base point into all ones. In that
    frame the shifted evaluations are exp(-1j dpsi) for the small phase
    increments dpsi = psi(u +- h) - psi(u), which phase_increment provides
    accurately relative to their own size. The differences stay second
    order in h but no longer sit on top of absolute phases of order
    2 pi r / lambda, whose rounding otherwise dominates once the Fisher
    residuals get small. Pair the result with an all-ones steering vector.

    Args:
        model: Wavefront approximation.
        layout: Array layout.
        target: Target position.
        wavelength: Carrier wavelength, meters.
        h_r: Range step, meters (must leave r - h_r > 0).
        h_theta: Angle step, radians.
        dtype: Real dtype of the phase computation.

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

    def shifted(dr: float, dtheta: float) -> np.ndarray:
        dpsi = phase_increment(model, layout, target, wavelength, dr, dtheta, dtype)
        return np.exp(-1j * dpsi)

    two = dtype(2.0)
    d_r = (shifted(h_r, 0.0) - shifted(-h_r, 0.0)) / (two * dtype(h_r))
    d_t = (shifted(0.0, h_theta) - shifted(0.0, -h_theta)) / (two * dtype(h_theta))
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
            if isinstance(value, float) and not math.isfinite(value):
                if value == math.inf:
                    return "inf"
                return "-inf" if value == -math.inf else "nan"
            if isinstance(value, dict):
                return {k: clean(v) for k, v in value.items()}
            return value

        return {
            "model": self.model,
            "point": clean(self.point),
            "closed_form": clean(self.closed_form),
            "generic_analytic": clean(self.generic_analytic),
            "generic_fd": clean(self.generic_fd),
            "rel_err_analytic": clean(self.rel_err_analytic),
            "rel_err_fd": clean(self.rel_err_fd),
            "fd_step_used": clean(self.fd_step_used),
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize to JSON text."""
        return json.dumps(self.to_dict(), indent=indent)


def _fd_steps(dg: SteeringDerivatives, target: TargetPolar) -> tuple[float, float]:
    """Phase-aware steps keeping central-difference truncation near 1e-8.

    A unit-modulus entry exp(-1j psi(u)) differenced at step h picks up a
    multiplicative sin(w h)/(w h) ~ 1 - (w h)^2/6 attenuation at phase rate
    w = dpsi/du, so the step is sized against the largest entry rate. The
    rates are only used for step sizing; the finite differences themselves
    never reuse the analytic values.
    """
    eta = 1.4e-4  # (w h) giving (w h)^2 / 6 ~ 3e-9
    rate_r = float(np.abs(dg.d_r).max())
    rate_t = float(np.abs(dg.d_theta).max())
    h_r = min(1e-4, 0.5 * target.r)
    if rate_r > 0:
        h_r = min(h_r, eta / rate_r)
    h_theta = 1e-4 if rate_t == 0 else min(1e-4, eta / rate_t)
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

    The generic route runs in the oracle dtype (extended precision where
    available). The finite-difference leg uses fd_rebased with phase-aware
    steps (recorded in the report) so that it stays meaningful even where
    the closed forms are themselves heavily cancellation-protected.

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
    dtype = oracle_dtype()
    closed = crb_bounds(model, layout, target, wavelength, snr)
    g = steering(model, layout, target, wavelength, dtype=dtype)
    dg = steering_derivatives(model, layout, target, wavelength, dtype=dtype)
    cos_t = math.cos(target.theta)
    analytic = crb_from_steering(g, dg, snr, model=model, cos_theta=cos_t)

    auto_r, auto_t = _fd_steps(dg, target)
    h_r = h_r if h_r is not None else auto_r
    h_theta = h_theta if h_theta is not None else auto_t
    dg_fd = fd_rebased(model, layout, target, wavelength, h_r, h_theta, dtype=dtype)
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
