"""Acceptance gate: eight end-to-end criteria, one verdict line each.

Every test gathers its sub-checks, registers a single PASS/FAIL line via
the acceptance_line fixture (echoed after the run by conftest.py), and
then asserts, so a failed criterion is both visible and red.
"""

import math
import time

import numpy as np

from geometry_reference import hspm_sums
from oracle_reference import fd_derivatives
from modcrb import (
    TargetPolar,
    WavefrontModel,
    build_layout,
    crb_boresight,
    crb_boresight_far,
    crb_bounds,
    preset,
    radial_terms,
    read_csv,
    relative_error,
    run_layout_sweep,
    run_range_sweep,
    steering_derivatives,
    verify_batch,
    write_csv,
)
from modcrb.cli import main


def _finish(record, num, name, checks):
    """Register one verdict line, then fail the test if any check failed."""
    failed = [f"{label} ({detail})" for label, ok, detail in checks if not ok]
    if failed:
        line = f"ACCEPTANCE {num} ({name}): FAIL — " + "; ".join(failed)
    else:
        notes = "; ".join(detail for _, _, detail in checks if detail)
        line = f"ACCEPTANCE {num} ({name}): PASS — {notes}"
    record(line)
    assert not failed, line


def _symmetric_layout(rng, min_subarrays=1):
    choices = [k for k in (1, 3, 5, 7) if k >= min_subarrays]
    num_sub = int(rng.choice(choices))
    size = int(rng.integers(1, 13)) * 2 + 1
    half = [int(g) for g in rng.integers(1, 50, size=num_sub // 2)]
    gaps = tuple(half) + (0,) + tuple(reversed(half))
    pitch = float(rng.uniform(1e-3, 1e-2))
    return build_layout(num_sub, size, gaps, pitch)


def _pair_error(a, b):
    return max(relative_error(a.crb_r, b.crb_r),
               relative_error(a.crb_theta, b.crb_theta))


def test_criterion_1_oracle_equivalence(acceptance_line):
    start = time.perf_counter()
    summary = verify_batch(num_cases=500, seed=7, tol_analytic=1e-9, tol_fd=1e-4)
    elapsed = time.perf_counter() - start
    worst_an = max(summary.max_rel_err_analytic.values())
    worst_fd = max(summary.max_rel_err_fd.values())
    checks = [
        ("500-case batch within tolerance", summary.passed,
         f"worst analytic {worst_an:.2e}, worst fd {worst_fd:.2e}"),
        ("runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f} s"),
    ]
    _finish(acceptance_line, 1, "oracle equivalence", checks)


def test_criterion_2_boresight_specialization(acceptance_line):
    start = time.perf_counter()
    cfg = preset("fig3")
    snr = cfg.snr()
    rng = np.random.default_rng(2)
    layouts = [build_layout(cfg.num_subarrays, cfg.subarray_size,
                            cfg.spacings, cfg.pitch)]
    layouts += [_symmetric_layout(rng) for _ in range(30)]
    worst = 0.0
    for lay in layouts:
        for _ in range(3):
            tgt = TargetPolar(float(rng.uniform(2.0, 80.0)), 0.0)
            specialized = crb_boresight(lay, tgt, cfg.wavelength, snr)
            general = crb_bounds(WavefrontModel.HSPM_DIST, lay, tgt, cfg.wavelength, snr)
            worst = max(worst, _pair_error(specialized, general))

    reference = layouts[0]
    aperture = reference.aperture
    mults = (10, 20, 50, 100)
    devs = []
    range_devs = []
    for mult in mults:
        tgt = TargetPolar(mult * aperture, 0.0)
        exact = crb_boresight(reference, tgt, cfg.wavelength, snr)
        far = crb_boresight_far(reference, tgt, cfg.wavelength, snr)
        devs.append(abs(far.crb_theta - exact.crb_theta) / exact.crb_theta)
        range_devs.append(abs(far.crb_r - exact.crb_r) / exact.crb_r)
    scaled = [dev * mult**2 for dev, mult in zip(range_devs, mults)]
    scaled_spread = max(scaled) / min(scaled) - 1.0
    elapsed = time.perf_counter() - start
    checks = [
        ("specialized form matches the general bound at boresight",
         worst <= 1e-10, f"worst rel {worst:.2e} over 31 layouts"),
        ("asymptotic angle deviation shrinks with range",
         all(b < a for a, b in zip(devs, devs[1:])),
         "devs " + ", ".join(f"{d:.1e}" for d in devs)),
        ("asymptotic angle deviation < 1% at 100x aperture",
         devs[-1] < 0.01, f"{devs[-1]:.2e}"),
        ("asymptotic range deviation falls as (A/r)^2",
         all(b < a for a, b in zip(range_devs, range_devs[1:]))
         and scaled_spread <= 0.01 and range_devs[-1] < 1e-4,
         "range devs " + ", ".join(f"{d:.2e}" for d in range_devs)
         + f"; dev*(r/A)^2 {min(scaled):.4f}..{max(scaled):.4f}"),
        ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.1f} s"),
    ]
    _finish(acceptance_line, 2, "boresight specialization", checks)


def test_criterion_3_boresight_cross_sums_vanish(acceptance_line):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        lay = _symmetric_layout(rng, min_subarrays=3)
        tgt = TargetPolar(float(rng.uniform(2.0, 80.0)), 0.0)
        inter = hspm_sums(lay, tgt)
        scale_p = float(np.sum(np.abs(
            radial_terms(lay.subarray_x, tgt.r, tgt.theta)["dr_dt"])))
        worst = max(
            worst,
            abs(inter.p_tilde) / scale_p,
            abs(inter.q_hat) / math.sqrt(inter.q * inter.q_tilde),
            abs(inter.z_hat) / math.sqrt(inter.z * inter.z_tilde),
        )
    checks = [
        ("scaled cross sums vanish on 100 mirror-symmetric layouts",
         worst <= 1e-12, f"worst {worst:.2e}"),
    ]
    _finish(acceptance_line, 3, "boresight cross-term cancellation", checks)


def test_criterion_4_range_sweep_orderings(acceptance_line):
    start = time.perf_counter()
    records = run_range_sweep(preset("fig3"))
    by_model = {}
    for rec in records:
        by_model.setdefault(rec.model, []).append(rec)

    monotone = True
    for recs in by_model.values():
        rr = [rec.crb_r_m2 for rec in recs]
        tt = [rec.crb_theta_rad2 for rec in recs]
        monotone = monotone and all(b >= a for a, b in zip(rr, rr[1:]))
        monotone = monotone and all(b <= a for a, b in zip(tt, tt[1:]))

    worst_gap = max(
        abs(d.crb_r_m2 - s.crb_r_m2) / s.crb_r_m2
        for d, s in zip(by_model["hspm-dist"], by_model["swm"])
        if d.sweep_value >= 38.44)
    ordered = all(d.crb_r_m2 < s.crb_r_m2 for d, s in
                  zip(by_model["hspm-dist"], by_model["hspm-shared"]))
    pwm_r_inf = all(math.isinf(rec.crb_r_m2) for rec in by_model["pwm"])
    pwm_theta = [rec.crb_theta_rad2 for rec in by_model["pwm"]]
    pwm_const = (max(pwm_theta) - min(pwm_theta)) / min(pwm_theta)
    elapsed = time.perf_counter() - start
    checks = [
        ("range bound nondecreasing, angle bound nonincreasing per model",
         monotone, "all 4 models over 56 points"),
        ("subarray-wise range bound tracks the exact one beyond 38.44 m",
         worst_gap <= 0.05, f"worst gap {worst_gap:.2%}"),
        ("distinct arrival angles beat the shared-angle bound everywhere",
         ordered, "56/56 points"),
        ("planar model: range bound inf, angle bound flat",
         pwm_r_inf and pwm_const <= 1e-12, f"angle spread {pwm_const:.2e}"),
        ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f} s"),
    ]
    _finish(acceptance_line, 4, "range-sweep orderings", checks)


def test_criterion_5_gap_sweep_orderings(acceptance_line):
    """Constant-aperture gap sweeps: aperture, angle ordering, range moment law.

    Both presets pin the end subarrays at offsets +-A and move the inner
    pair to +-a = +-(M-1+gamma)d; u = a^2/A^2 is 1/4 on the uniform layout.
    To leading order in (A/r)^2 the hspm-dist range information is
    cos^4(theta)/r^4 * F times a layout-independent constant, with

        F = K(M^2-1)d^2 Sx2 + 3(K Sx4 - Sx2^2)
          = 2K(M^2-1)d^2 A^2 (1+u) + 3A^4 (6u^2 - 8u + 6),

    where Sxn sums the n-th powers of the subarray offsets. The first term
    is the arrival-sine derivative x_k cos^2(theta)/r^2 seen across the M
    antennas of each subarray; the second is the spread over subarrays of
    the curvature term -x_k^2 cos^2(theta)/(2r^2). Mirror symmetry removes
    the leading cross information with the angle. So crb_r * F is constant
    along the sweep up to O((A/r)^2), 4.3e-4 (fig4-c1) and 6.2e-4 (fig4-c2)
    at r = 30 m; measured it varies by 0.05% and 0.08%, and the law gives
    crb_r(95)/crb_r(uniform) = 1.1816 and 1.0722 against 1.1815 and 1.0720
    swept (exact swm: 1.1814 and 1.0720).

    F is a convex quadratic in u with its minimum at
    u* = 2/3 - K(M^2-1)d^2/(18A^2), i.e. gamma* = sqrt(u*)A/d - (M-1),
    about 125 (fig4-c1) and 166 (fig4-c2). Both lie past the largest
    admissible inner gap, gap_budget - 1 (99 and 149), so F falls and the
    range bound rises strictly over the whole sweep: its argmax is the last
    swept gamma. On both presets F(u) < F(1/4) for every u in (1/4, 1], so
    no layout of this family with the inner pair pushed outward beats the
    uniform one on range, even with the pair touching the end subarrays. The closed form behind these numbers is certified by the
    oracle (criterion 1, worst analytic deviation 1.9e-13), and a probe of
    hspm-dist and swm over theta = 0, 5, ..., 85 deg, r = 3, 5, 10, 30,
    100 m and every admissible gamma above the uniform one found no layout
    with a lower range bound than the uniform layout.

    PAPER.md quotes claim (ii): subarrays placed closer to the edges "can
    significantly reduce the CRBs" at fixed aperture. On this family the
    angle half holds (the angle bound falls strictly in gamma) and is
    checked here. PAPER.md does not name the layout family or sweep
    variable of the paper's Fig. 4 and says nothing of an interior peak, so
    the range half is checked against the moment law rather than against
    an ordering the paper does not state for these presets.
    """
    start = time.perf_counter()
    checks = []
    for name, uniform_gamma, expect_aperture in (("fig4-c1", 50, 1.425),
                                                 ("fig4-c2", 75, 1.675)):
        cfg = preset(name)
        num_sub, size, pitch = cfg.num_subarrays, cfg.subarray_size, cfg.pitch
        dist = [rec for rec in run_layout_sweep(cfg) if rec.model == "hspm-dist"]
        gammas = [int(rec.sweep_value) for rec in dist]

        worst_ap = 0.0
        moment = {}
        for gamma in gammas:
            outer = cfg.gap_budget - gamma
            lay = build_layout(num_sub, size, (outer, gamma, 0, gamma, outer),
                               pitch)
            worst_ap = max(worst_ap, abs(lay.aperture - expect_aperture))
            sx2 = float(np.sum(lay.subarray_x ** 2))
            sx4 = float(np.sum(lay.subarray_x ** 4))
            moment[gamma] = (num_sub * (size * size - 1) * pitch**2 * sx2
                             + 3.0 * (num_sub * sx4 - sx2 * sx2))
        checks.append((f"{name} aperture pinned at {expect_aperture} m",
                       worst_ap <= 1e-12 * expect_aperture,
                       f"max dev {worst_ap:.2e} m"))

        tt = [rec.crb_theta_rad2 for rec in dist]
        checks.append((f"{name} angle bound strictly decreasing in the inner gap",
                       all(b < a for a, b in zip(tt, tt[1:])),
                       f"{tt[0]:.3e} -> {tt[-1]:.3e}"))

        rr = {gamma: rec.crb_r_m2 for gamma, rec in zip(gammas, dist)}
        product = [rr[gamma] * moment[gamma] for gamma in gammas]
        spread = max(product) / min(product) - 1.0
        top = gammas[-1]
        checks.append((f"{name} range bound times F constant within 1%",
                       spread <= 0.01,
                       f"spread {spread:.1e}; gamma={top} vs uniform "
                       f"gamma={uniform_gamma}: {rr[top]:.3f} vs "
                       f"{rr[uniform_gamma]:.3f} m^2, ratio "
                       f"{rr[top] / rr[uniform_gamma]:.4f} (law "
                       f"{moment[uniform_gamma] / moment[top]:.4f})"))

        # The end subarrays do not move, so any swept layout gives A.
        end = float(np.max(np.abs(lay.subarray_x)))
        u_star = 2.0 / 3.0 - num_sub * (size * size - 1) * pitch**2 / (18.0 * end**2)
        gamma_star = math.sqrt(u_star) * end / pitch - (size - 1)
        peak = max(gammas, key=rr.get)
        checks.append((f"{name} F minimum lies past the sweep and the range "
                       "bound peaks at its last point",
                       gamma_star > cfg.gap_budget - 1 and peak == top,
                       f"gamma*={gamma_star:.1f} > {cfg.gap_budget - 1}, "
                       f"argmax at gamma={peak}"))
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 10 s", elapsed < 10.0, f"{elapsed:.1f} s"))
    _finish(acceptance_line, 5, "gap-sweep orderings", checks)


def _concordant(a, b):
    """Whether two sequences order their entries the same way, pair by pair."""
    sign_a = np.sign(np.subtract.outer(a, a))
    sign_b = np.sign(np.subtract.outer(b, b))
    return bool(np.array_equal(sign_a, sign_b))


def test_criterion_6_far_field_layout_ranking(acceptance_line):
    """The far-field moment law ranks constant-aperture layouts as crb_boresight.

    To leading order in (A/r)^2 the boresight range bound is num r^4 / F
    with F = K(M^2-1)d^2 Sx2 + 3(K Sx4 - Sx2^2) (criterion 5); the angle
    bound keeps its (A/r)^2 correction. crb_boresight_far evaluates that
    law, so over every admissible inner gap gamma of fig4-c1 (1..99) and
    fig4-c2 (1..149) it must sort crb_r and crb_theta exactly as the
    oracle-certified crb_boresight does, with a range deviation within
    (A/r)^2 (measured 0.33 and 0.34 (A/r)^2 at r = 10A and 100A).
    """
    start = time.perf_counter()
    checks = []
    for name in ("fig4-c1", "fig4-c2"):
        cfg = preset(name)
        snr = cfg.snr()
        gammas = range(1, cfg.gap_budget)
        layouts = []
        for gamma in gammas:
            outer = cfg.gap_budget - gamma
            layouts.append(build_layout(cfg.num_subarrays, cfg.subarray_size,
                                        (outer, gamma, 0, gamma, outer), cfg.pitch))
        for mult in (10, 100):
            exact, far = [], []
            for lay in layouts:
                tgt = TargetPolar(mult * lay.aperture, 0.0)
                exact.append(crb_boresight(lay, tgt, cfg.wavelength, snr))
                far.append(crb_boresight_far(lay, tgt, cfg.wavelength, snr))
            exact_r = np.array([p.crb_r for p in exact])
            far_r = np.array([p.crb_r for p in far])
            same_order = (
                _concordant(far_r, exact_r)
                and _concordant([p.crb_theta for p in far],
                                [p.crb_theta for p in exact]))
            worst = float(np.max(np.abs(far_r - exact_r) / exact_r))
            checks.append((f"{name} r={mult}A: far-field law orders crb_r and "
                           f"crb_theta over gamma=1..{gammas[-1]} as the exact bound",
                           same_order, f"{name} r={mult}A ranking "
                           + ("identical" if same_order else "differs")))
            checks.append((f"{name} r={mult}A: range deviation <= (A/r)^2",
                           worst <= 1.0 / mult**2,
                           f"worst range dev {worst:.2e} <= {1.0 / mult**2:.0e}"))
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"))
    _finish(acceptance_line, 6, "far-field layout ranking", checks)


def test_criterion_7_derivative_convergence(acceptance_line):
    start = time.perf_counter()
    wavelength = 0.5
    lay = build_layout(3, 5, (3, 0, 3), wavelength / 2)
    tgt = TargetPolar(40.0, 0.7)
    steps = (2e-3, 1e-3, 5e-4)
    checks = []
    for model in WavefrontModel:
        d_r, d_t = steering_derivatives(model, lay, tgt, wavelength)
        errs = []
        for h in steps:
            fd_r, fd_t = fd_derivatives(model, lay, tgt, wavelength, h_r=h, h_theta=h)
            parts = [np.max(np.abs(fd_t - d_t)) / np.max(np.abs(d_t))]
            if model is not WavefrontModel.PWM:  # its range derivative is 0
                parts.append(np.max(np.abs(fd_r - d_r)) / np.max(np.abs(d_r)))
            errs.append(max(parts))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        checks.append((f"{model.value} halving ratio in [3.6, 4.4]",
                       all(3.6 <= q <= 4.4 for q in ratios),
                       "ratios " + ", ".join(f"{q:.2f}" for q in ratios)))
    elapsed = time.perf_counter() - start
    checks.append(("runtime < 5 s", elapsed < 5.0, f"{elapsed:.1f} s"))
    _finish(acceptance_line, 7, "second-order derivative convergence", checks)


def test_criterion_8_serialization_contract(acceptance_line, tmp_path, capsys):
    records = run_range_sweep(preset("fig3"))
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    write_csv(records, str(first))
    write_csv(run_range_sweep(preset("fig3")), str(second))
    lossless = read_csv(str(first)) == records
    identical = first.read_bytes() == second.read_bytes()

    ok_pass = main(["verify", "--cases", "3", "--seed", "5"]) == 0
    ok_fail = main(["verify", "--cases", "3", "--seed", "5",
                    "--tol-analytic", "1e-18"]) == 1
    capsys.readouterr()
    checks = [
        ("CSV round-trip lossless", lossless, "224 records"),
        ("byte-identical rewrite", identical, f"{first.stat().st_size} bytes"),
        ("verify exit codes 0/1", ok_pass and ok_fail, "pass and forced-fail runs"),
    ]
    _finish(acceptance_line, 8, "serialization contract", checks)
