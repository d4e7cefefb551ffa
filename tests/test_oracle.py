"""Generic-FIM oracle: inner-product identities, FD legs, cross-validation."""

import hashlib
import json
import math

import numpy as np
import pytest

from geometry_reference import hspm_sums
from oracle_reference import bounds_from, fd_derivatives
from modcrb import (
    InvalidConfigurationError,
    FLAG_DEGENERATE,
    FLAG_ENDFIRE,
    MODEL_ORDER,
    SensingSnr,
    TargetPolar,
    WavefrontModel,
    build_layout,
    crb_bounds,
    cross_validate,
    relative_error,
    sample_case,
    steering,
    steering_derivatives,
    verify_batch,
)
from modcrb import crb as crb_module
from modcrb.cli import main
from modcrb import oracle, preset, run_range_sweep
from modcrb.oracle import ValidationReport, _fd_rebased, _fd_steps, _groups, _validate
from modcrb.wavefront import _antennas, _phase_increment, _phase_terms, _wavefront

PITCH = 0.0025
LAMBDA = 0.005
FIG3 = build_layout(3, 125, (90, 0, 90), PITCH)
TGT = TargetPolar(30.0, math.pi / 3)
SNR = SensingSnr(1.0)


def rebased(model, layout, target, lam):
    """Steering vector and rebased derivatives of one case, from one phase pass."""
    return _wavefront(model, _antennas([(layout, target, lam)]))


def fd_rebased(model, layout, target, lam, h_r, h_theta):
    """_fd_rebased's (d_r, d_theta) of one case."""
    ants = _antennas([(layout, target, lam)])
    out = np.empty((2, len(ants.case)), dtype=complex)
    return tuple(_fd_rebased(model, ants, np.array([h_r]), np.array([h_theta]), out))


def test_closed_forms_match_generic_route():
    for model in MODEL_ORDER:
        closed = crb_bounds(model, FIG3, TGT, LAMBDA, SNR)
        generic = bounds_from(*rebased(model, FIG3, TGT, LAMBDA), SNR, model=model,
                              cos_theta=math.cos(TGT.theta))
        assert relative_error(closed.crb_r, generic.crb_r) <= 1e-9
        assert relative_error(closed.crb_theta, generic.crb_theta) <= 1e-9


def test_fim_norm_terms_match_subarray_sums():
    # |dg_u|^2 collapses to (2 pi / lambda)^2 [ (M^3 - M) d^2 Xi + 12 M Y ] / 12
    # with Xi the sine-derivative sum and Y the range-derivative sum
    k2 = 2.0 * math.pi / LAMBDA
    m = FIG3.subarray_size
    md = (m**3 - m) * PITCH**2
    inter = hspm_sums(FIG3, TGT)
    d_r, d_t = steering_derivatives(WavefrontModel.HSPM_DIST, FIG3, TGT, LAMBDA)
    ip_gr_gtheta = np.vdot(d_r, d_t)
    expected_rr = k2**2 * (md * inter.z + 12.0 * m * inter.q) / 12.0
    expected_tt = k2**2 * (md * inter.z_tilde + 12.0 * m * inter.q_tilde) / 12.0
    expected_rt = k2**2 * (md * inter.z_hat + 12.0 * m * inter.q_hat) / 12.0
    assert math.isclose(np.vdot(d_r, d_r).real, expected_rr, rel_tol=1e-9)
    assert math.isclose(np.vdot(d_t, d_t).real, expected_tt, rel_tol=1e-9)
    assert math.isclose(ip_gr_gtheta.real, expected_rt, rel_tol=1e-9)
    assert abs(ip_gr_gtheta.imag) <= 1e-12 * abs(expected_rt)


def test_fim_cross_terms_reduce_to_range_rate_sums():
    # the intra-subarray ramp sums to zero over symmetric offsets, so
    # dg_u^H g keeps only the per-subarray range rates: j k2 M p_u
    k2 = 2.0 * math.pi / LAMBDA
    m = FIG3.subarray_size
    inter = hspm_sums(FIG3, TGT)
    g = steering(WavefrontModel.HSPM_DIST, FIG3, TGT, LAMBDA)
    d_r, d_t = steering_derivatives(WavefrontModel.HSPM_DIST, FIG3, TGT, LAMBDA)
    scale_r = k2 * m * (3.0 + abs(inter.p))
    scale_t = k2 * m * (3.0 + abs(inter.p_tilde))
    assert abs(np.vdot(d_r, g) - 1j * k2 * m * inter.p) <= 1e-10 * scale_r
    assert abs(np.vdot(d_t, g) - 1j * k2 * m * inter.p_tilde) <= 1e-10 * scale_t


def test_fim_terms_invariants():
    rng = np.random.default_rng(59)
    for _ in range(15):
        layout, target, _, wavelength = sample_case(rng)
        for model in MODEL_ORDER:
            g = steering(model, layout, target, wavelength)
            d_r, d_t = steering_derivatives(model, layout, target, wavelength)
            n2_g = np.vdot(g, g).real
            assert math.isclose(n2_g, float(layout.num_elements), rel_tol=1e-12)
            # determinant of the gain-projected information, from residuals
            e_r = d_r - (np.vdot(g, d_r) / n2_g) * g
            e_t = d_t - (np.vdot(g, d_t) / n2_g) * g
            detq = np.vdot(e_r, e_r).real * np.vdot(e_t, e_t).real - np.vdot(e_r, e_t).real ** 2
            cross_scale = np.vdot(d_r, d_r).real * np.vdot(d_t, d_t).real
            assert detq >= -1e-9 * max(cross_scale, 1.0)
            assert detq <= cross_scale * (1.0 + 1e-12)
            assert abs(np.vdot(d_r, d_t)) ** 2 <= cross_scale * (1.0 + 1e-12)


def test_generic_route_flags_pwm_range_degeneracy():
    g = steering(WavefrontModel.PWM, FIG3, TGT, LAMBDA)
    d_r, d_t = steering_derivatives(WavefrontModel.PWM, FIG3, TGT, LAMBDA)
    generic = bounds_from(g, d_r, d_t, SNR, model=WavefrontModel.PWM,
                          cos_theta=math.cos(TGT.theta))
    assert math.isinf(generic.crb_r)
    closed = crb_bounds(WavefrontModel.PWM, FIG3, TGT, LAMBDA, SNR)
    assert relative_error(closed.crb_theta, generic.crb_theta) <= 1e-9


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2])
def test_endfire_is_flagged_by_every_closed_form_and_the_oracle(theta):
    # on the array axis every d r_k / d r is 1, so the range information of
    # a model with range is zero (it scales as cos^4 theta, and cos(fl(pi/2))
    # is 6e-17 rather than 0): range is degenerate, the angle endfire
    tgt = TargetPolar(30.0, theta)
    for model in MODEL_ORDER:
        closed = crb_bounds(model, FIG3, tgt, LAMBDA, SNR)
        generic = bounds_from(*rebased(model, FIG3, tgt, LAMBDA), SNR, model=model,
                              cos_theta=math.cos(theta))
        for pair in (closed, generic):
            assert pair.crb_theta == math.inf, (model, pair)
            assert FLAG_ENDFIRE in pair.flags, (model, pair)
            assert pair.crb_r == math.inf, (model, pair)
        if model is not WavefrontModel.PWM:
            assert closed.flags == (FLAG_DEGENERATE, FLAG_ENDFIRE), (model, closed)
            assert generic.flags == (FLAG_DEGENERATE, FLAG_ENDFIRE), (model, generic)


def test_fd_derivatives_agree_with_analytic_at_long_wavelength():
    lam = 0.5
    lay = build_layout(3, 5, (3, 0, 3), lam / 2.0)
    tgt = TargetPolar(20.0, 0.8)
    for model in MODEL_ORDER:
        analytic = steering_derivatives(model, lay, tgt, lam)
        fd = fd_derivatives(model, lay, tgt, lam, h_r=1e-4, h_theta=1e-4)
        for a, f in zip(analytic, fd):
            scale = np.abs(a).max()
            if scale == 0.0:
                assert np.abs(f).max() == 0.0
            else:
                assert np.abs(a - f).max() / scale <= 1e-5


def test_fd_derivatives_pwm_range_leg_is_exactly_zero():
    fd_r, _ = fd_derivatives(WavefrontModel.PWM, FIG3, TGT, LAMBDA)
    assert np.all(fd_r == 0)


def test_fd_derivatives_halving_quarters_the_error():
    lam = 1.0
    lay = build_layout(3, 5, (3, 0, 3), lam / 2.0)
    tgt = TargetPolar(25.0, 0.7)
    analytic = steering_derivatives(WavefrontModel.SWM, lay, tgt, lam)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = fd_derivatives(WavefrontModel.SWM, lay, tgt, lam, h_r=h, h_theta=h)
        errs.append(max(np.abs(f - a).max() for f, a in zip(fd, analytic)))
    assert 3.6 <= errs[0] / errs[1] <= 4.4
    assert 3.6 <= errs[1] / errs[2] <= 4.4


def test_fd_step_validation():
    with pytest.raises(ValueError):
        fd_derivatives(WavefrontModel.SWM, FIG3, TGT, LAMBDA, h_r=-1e-4)
    with pytest.raises(ValueError):
        fd_derivatives(WavefrontModel.SWM, FIG3, TargetPolar(5e-5, 0.0), LAMBDA)
    # a range step past the target is _phase_increment's shifted-range error
    with pytest.raises(InvalidConfigurationError, match="must stay positive"):
        fd_rebased(WavefrontModel.SWM, FIG3, TargetPolar(5e-5, 0.0), LAMBDA,
                   h_r=1e-4, h_theta=1e-4)


def test_rebased_differences_match_direct_frame():
    # the rebased frame rotates each entry by a unit factor, so the entry
    # magnitudes and every Gram quantity must agree with the direct frame.
    # Its range differences are those of the phase measured against the
    # reference path, i.e. of g * exp(2j pi r / lambda) for a model with
    # range; that factor adds a multiple of g to d_r, which the projection
    # removes, so the bounds agree with plain differences of g as well.
    lam = 0.5
    lay = build_layout(3, 5, (3, 0, 3), lam / 2.0)
    tgt = TargetPolar(20.0, 0.8)
    h = 1e-4
    for model in MODEL_ORDER:
        k2 = 0.0 if model is WavefrontModel.PWM else 2.0 * math.pi / lam

        def g_ref(rr):
            return steering(model, lay, TargetPolar(rr, tgt.theta), lam) * np.exp(1j * k2 * rr)

        direct = fd_derivatives(model, lay, tgt, lam, h_r=h, h_theta=h)
        direct_r = (g_ref(tgt.r + h) - g_ref(tgt.r - h)) / ((tgt.r + h) - (tgt.r - h))
        rebased = fd_rebased(model, lay, tgt, lam, h_r=h, h_theta=h)
        # the direct frame differences absolute phases near 2 pi r / lambda =
        # 251 rad, whose rounding (ulp 2.8e-14) over 2 h leaves ~1.4e-10 where
        # the rebased frame is exactly 0 (the center subarray of hspm-*)
        np.testing.assert_allclose(
            np.abs(rebased[0]), np.abs(direct_r), rtol=1e-8, atol=1e-9
        )
        np.testing.assert_allclose(
            np.abs(rebased[1]), np.abs(direct[1]), rtol=1e-8, atol=1e-10
        )
        g = steering(model, lay, tgt, lam)
        pair_direct = bounds_from(g, *direct, SNR, model=model)
        pair_rebased = bounds_from(np.ones_like(g), *rebased, SNR, model=model)
        assert relative_error(pair_direct.crb_r, pair_rebased.crb_r) <= 1e-5
        assert relative_error(pair_direct.crb_theta, pair_rebased.crb_theta) <= 1e-5


def test_relative_error_semantics():
    inf = math.inf
    assert relative_error(inf, inf) == 0.0
    assert relative_error(inf, -inf) == inf
    assert relative_error(inf, 1.0) == inf
    assert relative_error(1.0, inf) == inf
    assert relative_error(0.0, 0.0) == 0.0
    assert relative_error(1.0, 2.0) == 0.5


def test_cross_validate_reference_point():
    report = cross_validate(WavefrontModel.HSPM_SHARED, FIG3,
                            TargetPolar(30.0, TGT.theta), LAMBDA, SNR)
    assert report.rel_err_analytic <= 1e-9
    assert report.rel_err_fd <= 1e-4
    assert report.model == "hspm-shared"
    assert set(report.fd_step_used) == {"h_r", "h_theta"}
    assert report.point["r"] == 30.0


def test_cross_validate_degenerate_pair_counts_as_exact():
    lay = build_layout(1, 1, (0,), PITCH)
    report = cross_validate(WavefrontModel.SWM, lay, TargetPolar(1.0, 0.3),
                            LAMBDA, SNR)
    assert report.rel_err_analytic == 0.0
    assert report.closed_form["crb_r_m2"] == math.inf


def separate_passes(model, layout, target, snr, lam):
    """The report cross_validate gives, from separate single-case passes."""
    cos_t = math.cos(target.theta)
    g = steering(model, layout, target, lam)
    ants = _antennas([(layout, target, lam)])
    _, rate_r, rate_t = _phase_terms(model, ants)
    d_r, d_t = -1j * rate_r * g, -1j * rate_t * g
    analytic = bounds_from(g, d_r, d_t, snr, model=model, cos_theta=cos_t)
    h_r, h_t = _fd_steps(np.abs(d_r).max(), np.abs(d_t).max(), target.r)

    def shifted(dr, dtheta):
        return np.exp(-1j * _phase_increment(model, ants, np.array([dr]), np.array([dtheta])))

    fd = bounds_from(np.ones_like(g),
                     (shifted(h_r, 0.0) - shifted(-h_r, 0.0)) / (2.0 * h_r),
                     (shifted(0.0, h_t) - shifted(0.0, -h_t)) / (2.0 * h_t),
                     snr, model=model, cos_theta=cos_t)
    closed = crb_bounds(model, layout, target, lam, snr)

    def error(other):
        return max(relative_error(closed.crb_r, other.crb_r),
                   relative_error(closed.crb_theta, other.crb_theta))

    return ValidationReport(
        model=model.value,
        point={"layout": layout.digest, "r": target.r, "theta": target.theta},
        closed_form={"crb_r_m2": closed.crb_r, "crb_theta_rad2": closed.crb_theta},
        generic_analytic={"crb_r_m2": analytic.crb_r, "crb_theta_rad2": analytic.crb_theta},
        generic_fd={"crb_r_m2": fd.crb_r, "crb_theta_rad2": fd.crb_theta},
        rel_err_analytic=error(analytic),
        rel_err_fd=error(fd),
        fd_step_used={"h_r": h_r, "h_theta": h_t},
    )


def test_cross_validate_equals_a_reference_built_from_separate_passes():
    # the oracle evaluates the phase once per leg for a whole group of cases
    # of different K * M side by side, and stacks its four finite-difference
    # shifts; none of it may move a single bit of a report. The reference
    # builds each case alone, the analytic leg from a separate steering pass
    # and a separate pass of the rebased phase rates. to_json writes every
    # float by repr, so equal texts are equal bits (-0.0 included).
    rng = np.random.default_rng(11)
    drawn = [sample_case(rng) for _ in range(6)]
    built = []
    for i, (k, m, lam) in enumerate([(7, 125, 0.005), (1, 1, 0.005), (3, 5, 0.01),
                                     (5, 125, 0.005), (1, 125, 0.0025), (3, 63, 0.005),
                                     (7, 3, 0.02), (5, 1, 0.005)]):
        half = (k - 1) // 2
        gaps = tuple(range(1 + i, 1 + i + half)) + (0,) + tuple(range(7 * i + 2, 7 * i + 2 + half))
        layout = build_layout(k, m, gaps, lam / 2.0)
        theta = (-1.0) ** i * (0.1 + 0.17 * i)
        r = 2.0 + 3.0 * i + 2.0 * layout.aperture
        built.append((layout, TargetPolar(r, theta), SensingSnr(0.3 + i), lam))
    group = [case for pair in zip(drawn + drawn[:2], built) for case in pair]
    assert len({case[0].num_elements for case in group}) > 8
    reports = _validate(MODEL_ORDER, group)
    assert len(reports) == len(group) * len(MODEL_ORDER)
    for c, (layout, target, snr, lam) in enumerate(group):
        for i, model in enumerate(MODEL_ORDER):
            report = reports[c * len(MODEL_ORDER) + i]
            expected = separate_passes(model, layout, target, snr, lam)
            assert report.to_json() == expected.to_json(), (c, model)
            # a group of one is the same path
            alone = cross_validate(model, layout, target, lam, snr)
            assert alone.to_json() == expected.to_json(), (c, model)


def test_only_structural_degeneracy_is_flagged():
    # A single subarray gives hspm-* one range rate shared by all of its
    # antennas (and, for hspm-dist, a center arrival sine that no range
    # moves), so their range information is zero by structure. Every other
    # sampled case is well conditioned: flagged nowhere, finite, and
    # certified by the oracle far below its 1e-9 threshold.
    subarray_wise = (WavefrontModel.HSPM_DIST, WavefrontModel.HSPM_SHARED)
    rng = np.random.default_rng(7)
    for _ in range(60):
        layout, target, snr, lam = sample_case(rng)
        single = layout.num_subarrays == 1
        for model in MODEL_ORDER:
            report = cross_validate(model, layout, target, lam, snr)
            closed = crb_bounds(model, layout, target, lam, snr)
            structural = single and model in subarray_wise
            assert (FLAG_DEGENERATE in closed.flags) == structural, (model, layout, target)
            if single:
                continue
            assert report.rel_err_analytic <= 1e-12, (model, layout, target)
            for pair in (report.closed_form, report.generic_analytic, report.generic_fd):
                assert math.isfinite(pair["crb_theta_rad2"])
                assert math.isfinite(pair["crb_r_m2"]) != (model is WavefrontModel.PWM)


def test_validation_report_serializes_infinities():
    report = cross_validate(WavefrontModel.PWM, FIG3, TGT, LAMBDA, SNR)
    payload = json.loads(report.to_json())
    assert payload["closed_form"]["crb_r_m2"] == "inf"
    assert isinstance(payload["closed_form"]["crb_theta_rad2"], float)


def test_sample_case_is_deterministic_and_in_band():
    from modcrb import field_regions

    a = [sample_case(np.random.default_rng(123)) for _ in range(5)]
    b = [sample_case(np.random.default_rng(123)) for _ in range(5)]
    for (la, ta, sa, wa), (lb, tb, sb, wb) in zip(a, b):
        assert la.spacings == lb.spacings and la.subarray_size == lb.subarray_size
        assert ta == tb and sa.gamma == sb.gamma and wa == wb
    for lay, tgt, snr, wavelength in a:
        regions = field_regions(lay, wavelength)
        assert tgt.r >= regions.subarray_farfield_bound
        assert abs(tgt.theta) <= 80.0 * math.pi / 180.0
        assert 0.1 <= snr.gamma <= 100.0


def test_verify_batch_small_run_passes_and_is_reproducible():
    one = verify_batch(num_cases=20, seed=11)
    two = verify_batch(num_cases=20, seed=11)
    assert one.passed
    assert one == two
    assert "PASS" in one.describe()
    with pytest.raises(InvalidConfigurationError):
        verify_batch(num_cases=0)


@pytest.mark.parametrize("kwargs", [
    {"seed": -1},
    {"seed": 1.5},
    {"tol_analytic": math.nan},
    {"tol_analytic": -1e-9},
    {"tol_fd": math.nan},
    {"tol_fd": math.inf},
])
def test_verify_batch_rejects_bad_inputs_before_the_first_draw(kwargs, monkeypatch):
    # a NaN or infinite tolerance would pass every deviation (x > nan and
    # inf > inf are False); a negative seed would fail inside numpy
    drawn = []

    def counting_sample(rng):
        drawn.append(None)
        return sample_case(rng)

    monkeypatch.setattr(oracle, "sample_case", counting_sample)
    with pytest.raises(InvalidConfigurationError, match=next(iter(kwargs))):
        verify_batch(num_cases=3, **kwargs)
    assert drawn == []


@pytest.mark.parametrize("flag, value", [
    ("--seed", "-1"), ("--tol-analytic", "inf"), ("--tol-fd", "nan"), ("--tol-fd", "-1"),
])
def test_cli_verify_bad_inputs_are_configuration_errors(flag, value, capsys):
    assert main(["verify", "--cases", "2", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert flag[2:].replace("-", "_") in err


def test_verify_batch_makes_one_kernel_call_per_model_per_group(monkeypatch):
    # the closed forms of a whole group come from one kernel pass per model
    calls = []
    for model, (attr, kernel) in list(crb_module._KERNELS.items()):
        def counting(*args, _model=model, _kernel=kernel, **kwargs):
            calls.append(_model)
            return _kernel(*args, **kwargs)

        monkeypatch.setitem(crb_module._KERNELS, model, (attr, counting))
    rng = np.random.default_rng(5)
    groups = list(_groups(sample_case(rng) for _ in range(120)))
    assert len(groups) > 2
    assert verify_batch(num_cases=120, seed=5).passed
    assert calls == list(MODEL_ORDER) * len(groups)


def test_each_closed_form_sums_a_ragged_group_in_two_passes(monkeypatch):
    # a kernel stacks the terms it sums, so a group costs one per-case pass
    # for the means and one for the products, whatever the number of terms
    rng = np.random.default_rng(3)
    cases = [sample_case(rng) for _ in range(10)]
    ants = _antennas([(layout, target, lam) for layout, target, _, lam in cases])
    batch = crb_module._group((layout, target.theta, lam, snr)
                              for layout, target, snr, lam in cases)
    passes = []
    case_sum = crb_module._Cases.sum
    monkeypatch.setattr(crb_module._Cases, "sum",
                        lambda self, values: passes.append(values.shape) or case_sum(self, values))
    for model in MODEL_ORDER:
        passes.clear()
        crb_module._crb_group(model, ants, batch)
        assert len(passes) == 2, (model, passes)


def test_verify_batch_draws_each_group_before_checking_it(monkeypatch):
    # cases are drawn as the groups need them, not all up front: when a group
    # is checked, at most one case past its end has been drawn
    drawn, seen = [], []

    def counting_sample(rng):
        drawn.append(None)
        return sample_case(rng)

    def recording_validate(models, group):
        seen.append((len(drawn), len(group)))
        return _validate(models, group)

    monkeypatch.setattr(oracle, "sample_case", counting_sample)
    monkeypatch.setattr(oracle, "_validate", recording_validate)
    assert verify_batch(num_cases=120, seed=5).passed
    assert len(seen) > 2
    checked = 0
    for count, size in seen:
        checked += size
        assert count <= checked + 1, seen
    assert checked == len(drawn) == 120


def test_uniform_group_closed_forms_are_the_range_sweep_bits():
    # a ragged group whose cases share one layout and angle holds the points
    # of a range sweep; its closed forms have the bits of the sweep records
    config = preset("fig3")
    records = run_range_sweep(config)
    layout, snr, theta = config.layout(), config.snr(), math.radians(config.theta_deg)
    grid = config.range_grid()
    cases = [(layout, TargetPolar(r, theta), snr, config.wavelength) for r in grid]
    reports = _validate(MODEL_ORDER, cases)
    assert len(reports) == len(records) == len(grid) * len(MODEL_ORDER)
    for report, record in zip(reports, records):
        assert (report.model, report.point["r"]) == (record.model, record.sweep_value)
        closed = report.closed_form
        assert closed["crb_r_m2"].hex() == record.crb_r_m2.hex(), report.point
        assert closed["crb_theta_rad2"].hex() == record.crb_theta_rad2.hex(), report.point


# The test above runs the same kernels on both sides, so this digest is
# what pins the bits of verify's ragged groups: every closed-form, analytic
# and finite-difference bound of 10 drawn cases at each of seeds 1-3.
_VERIFY_SHA256 = "ae900a99db8f4cd3d94c359a1384216f3f66e0de8a7eed500e16d15c92d93b05"


def test_verify_reports_match_their_digest():
    values = []
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        for rep in _validate(MODEL_ORDER, [sample_case(rng) for _ in range(10)]):
            for pair in (rep.closed_form, rep.generic_analytic, rep.generic_fd):
                values += [pair["crb_r_m2"].hex(), pair["crb_theta_rad2"].hex()]
    assert len(values) == 3 * 10 * len(MODEL_ORDER) * 6
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == _VERIFY_SHA256


# Every field of every report of verify_batch(120, seed=5), whose four
# groups come near the 8192-antenna budget: the digest above covers groups
# of 10 cases, about 2500 antennas, only.
_FULL_GROUPS_SHA256 = "8c85c77ed6604fa86c0941904456f95030e4d3289c1a11680370155f7a1025d3"
_FULL_GROUP_SIZES = [7907, 8019, 8142, 5440]


def test_full_verify_groups_match_their_digest(monkeypatch):
    reports, sizes = [], []

    def recording_validate(models, group):
        sizes.append(sum(layout.num_elements for layout, _, _, _ in group))
        reports.extend(_validate(models, group))
        return reports[-len(models) * len(group):]

    monkeypatch.setattr(oracle, "_validate", recording_validate)
    assert verify_batch(num_cases=120, seed=5).passed
    assert sizes == _FULL_GROUP_SIZES
    text = "\n".join(report.to_json() for report in reports)
    assert hashlib.sha256(text.encode()).hexdigest() == _FULL_GROUPS_SHA256


def test_a_full_group_holds_at_most_300_bytes_per_antenna(traced_peak):
    # it peaks near 185: the finite-difference stencil goes in halves, the
    # shift geometry in place, the legs into one block of rows and their
    # scratch into the crb workspace (567 with the four shifts in one (4, N)
    # block)
    rng = np.random.default_rng(5)
    group = next(_groups(sample_case(rng) for _ in range(120)))
    n = sum(layout.num_elements for layout, _, _, _ in group)
    assert n == _FULL_GROUP_SIZES[0]
    assert traced_peak(lambda: _validate(MODEL_ORDER, group)) <= 300 * n


def test_full_verify_groups_take_few_page_faults(minor_faults):
    # glibc gives the top of its heap back when a stage frees more than its
    # trim threshold, and the next stage faults it in again. With the legs in
    # one block of rows and their scratch in the crb workspace, a warm call
    # reads about 750 alone and 0 after the rest of the suite, where fresh
    # temporaries for every leg read about 6800 and 2800.
    assert minor_faults(lambda: verify_batch(num_cases=120, seed=5), repeats=3) < 2000


def test_finite_differences_outlive_the_next_kernel_call():
    # their scratch lives in the thread's crb workspace, which every kernel
    # call overwrites
    dg = fd_rebased(WavefrontModel.SWM, FIG3, TGT, LAMBDA, 1e-4, 1e-4)
    kept = [values.copy() for values in dg]
    crb_bounds(WavefrontModel.SWM, FIG3, TargetPolar(40.0, 0.2), LAMBDA, SensingSnr(1.0))
    for values, copy in zip(dg, kept):
        assert not np.shares_memory(values, crb_module._WORKSPACE.buffer)
        assert np.array_equal(values, copy)


def _bounds(reports):
    """(closed, analytic, fd) x (crb_r, crb_theta) of each report."""
    return [
        [(pair["crb_r_m2"], pair["crb_theta_rad2"])
         for pair in (rep.closed_form, rep.generic_analytic, rep.generic_fd)]
        for rep in reports
    ]


def _verify_reports(cases):
    """Reports of every model at every case, grouped as verify_batch groups them."""
    return [rep for group in _groups(cases) for rep in _validate(MODEL_ORDER, group)]


@pytest.fixture(scope="module")
def invariance_cases():
    rng = np.random.default_rng(2024)
    cases = [sample_case(rng) for _ in range(100)]
    return cases, _bounds(_verify_reports(cases))


def test_scaling_every_length_by_two_scales_the_range_bound_by_four_exactly(invariance_cases):
    # lambda, the pitch and r doubled leave every phase alone and halve every
    # range rate: crb_r gains exactly 4, crb_theta keeps its bits, for the
    # closed forms and both oracle legs (the phase-aware range step doubles)
    cases, base = invariance_cases
    scaled = [
        (build_layout(lay.num_subarrays, lay.subarray_size, lay.spacings, 2.0 * lay.pitch),
         TargetPolar(2.0 * tgt.r, tgt.theta), snr, 2.0 * lam)
        for lay, tgt, snr, lam in cases
    ]
    # interleaved with the originals, so a case-index slip between
    # neighbours in a group shows
    mixed = _bounds(_verify_reports([case for pair in zip(cases, scaled) for case in pair]))
    for i, legs in enumerate(base):
        c, m = divmod(i, len(MODEL_ORDER))
        assert mixed[2 * c * len(MODEL_ORDER) + m] == legs
        for (crb_r, crb_t), (big_r, big_t) in zip(legs, mixed[(2 * c + 1) * len(MODEL_ORDER) + m]):
            assert big_r == 4.0 * crb_r, (c, m)
            assert big_t == crb_t, (c, m)


def test_doubling_the_snr_halves_every_bound_exactly(invariance_cases):
    cases, base = invariance_cases
    louder = [(lay, tgt, SensingSnr(2.0 * snr.gamma), lam) for lay, tgt, snr, lam in cases]
    for i, legs in enumerate(_bounds(_verify_reports(louder))):
        for (crb_r, crb_t), (half_r, half_t) in zip(base[i], legs):
            assert half_r == 0.5 * crb_r, i
            assert half_t == 0.5 * crb_t, i


def test_mirroring_the_target_and_the_layout_keeps_every_bound(invariance_cases):
    # theta -> -theta over the reversed gap vector is the same geometry seen
    # in a mirror; only the rounding of mirrored abscissas may differ
    cases, base = invariance_cases
    mirrored = [
        (build_layout(lay.num_subarrays, lay.subarray_size, lay.spacings[::-1], lay.pitch),
         TargetPolar(tgt.r, -tgt.theta), snr, lam)
        for lay, tgt, snr, lam in cases
    ]
    for i, legs in enumerate(_bounds(_verify_reports(mirrored))):
        for pair, mirror in zip(base[i], legs):
            for a, b in zip(pair, mirror):
                assert relative_error(a, b) <= 1e-13, (i, pair, mirror)
