"""Generic-FIM oracle: inner-product identities, FD legs, cross-validation."""

import json
import math

import numpy as np
import pytest

from modcrb import (
    InvalidConfigurationError,
    FLAG_ENDFIRE,
    MODEL_ORDER,
    SensingSnr,
    SteeringDerivatives,
    SteeringVector,
    TargetPolar,
    WavefrontModel,
    build_layout,
    crb_bounds,
    crb_from_steering,
    crb_pwm,
    cross_validate,
    fd_derivatives,
    fd_rebased,
    intermediates_hspm,
    oracle_dtype,
    relative_error,
    sample_case,
    steering,
    steering_derivatives,
    verify_batch,
)

PITCH = 0.0025
LAMBDA = 0.005
FIG3 = build_layout(3, 125, (90, 0, 90), PITCH)
TGT = TargetPolar(30.0, math.pi / 3)
SNR = SensingSnr(1.0)


def test_oracle_dtype_is_at_least_double():
    assert np.finfo(oracle_dtype()).eps <= np.finfo(np.float64).eps


def test_closed_forms_match_generic_route():
    for model in MODEL_ORDER:
        closed = crb_bounds(model, FIG3, TGT, LAMBDA, SNR)
        g = steering(model, FIG3, TGT, LAMBDA, dtype=oracle_dtype())
        dg = steering_derivatives(model, FIG3, TGT, LAMBDA, dtype=oracle_dtype())
        generic = crb_from_steering(g, dg, SNR, model=model,
                                    cos_theta=math.cos(TGT.theta))
        assert relative_error(closed.crb_r, generic.crb_r) <= 1e-9
        assert relative_error(closed.crb_theta, generic.crb_theta) <= 1e-9


def test_fim_norm_terms_match_subarray_sums():
    # |dg_u|^2 collapses to (2 pi / lambda)^2 [ (M^3 - M) d^2 Xi + 12 M Y ] / 12
    # with Xi the sine-derivative sum and Y the range-derivative sum
    k2 = 2.0 * math.pi / LAMBDA
    m = FIG3.subarray_size
    md = (m**3 - m) * PITCH**2
    inter = intermediates_hspm(FIG3, TGT)
    dg = steering_derivatives(WavefrontModel.HSPM_DIST, FIG3, TGT, LAMBDA)
    ip_gr_gtheta = np.vdot(dg.d_r, dg.d_theta)
    expected_rr = k2**2 * (md * inter.z + 12.0 * m * inter.q) / 12.0
    expected_tt = k2**2 * (md * inter.z_tilde + 12.0 * m * inter.q_tilde) / 12.0
    expected_rt = k2**2 * (md * inter.z_hat + 12.0 * m * inter.q_hat) / 12.0
    assert math.isclose(np.vdot(dg.d_r, dg.d_r).real, expected_rr, rel_tol=1e-9)
    assert math.isclose(np.vdot(dg.d_theta, dg.d_theta).real, expected_tt, rel_tol=1e-9)
    assert math.isclose(ip_gr_gtheta.real, expected_rt, rel_tol=1e-9)
    assert abs(ip_gr_gtheta.imag) <= 1e-12 * abs(expected_rt)


def test_fim_cross_terms_reduce_to_range_rate_sums():
    # the intra-subarray ramp sums to zero over symmetric offsets, so
    # dg_u^H g keeps only the per-subarray range rates: j k2 M p_u
    k2 = 2.0 * math.pi / LAMBDA
    m = FIG3.subarray_size
    inter = intermediates_hspm(FIG3, TGT)
    g = steering(WavefrontModel.HSPM_DIST, FIG3, TGT, LAMBDA).values
    dg = steering_derivatives(WavefrontModel.HSPM_DIST, FIG3, TGT, LAMBDA)
    scale_r = k2 * m * (3.0 + abs(inter.p))
    scale_t = k2 * m * (3.0 + abs(inter.p_tilde))
    assert abs(np.vdot(dg.d_r, g) - 1j * k2 * m * inter.p) <= 1e-10 * scale_r
    assert abs(np.vdot(dg.d_theta, g) - 1j * k2 * m * inter.p_tilde) <= 1e-10 * scale_t


def test_fim_terms_invariants():
    rng = np.random.default_rng(59)
    for _ in range(15):
        layout, target, _, wavelength = sample_case(rng)
        for model in MODEL_ORDER:
            g = steering(model, layout, target, wavelength).values
            dg = steering_derivatives(model, layout, target, wavelength)
            d_r, d_t = dg.d_r, dg.d_theta
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
    dg = steering_derivatives(WavefrontModel.PWM, FIG3, TGT, LAMBDA)
    generic = crb_from_steering(g, dg, SNR, model=WavefrontModel.PWM,
                                cos_theta=math.cos(TGT.theta))
    assert math.isinf(generic.crb_r)
    closed = crb_pwm(FIG3, TGT, LAMBDA, SNR)
    assert relative_error(closed.crb_theta, generic.crb_theta) <= 1e-9


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2])
def test_endfire_is_flagged_by_every_closed_form_and_the_oracle(theta):
    tgt = TargetPolar(30.0, theta)
    for model in MODEL_ORDER:
        closed = crb_bounds(model, FIG3, tgt, LAMBDA, SNR)
        g = steering(model, FIG3, tgt, LAMBDA, dtype=oracle_dtype())
        dg = steering_derivatives(model, FIG3, tgt, LAMBDA, dtype=oracle_dtype())
        generic = crb_from_steering(g, dg, SNR, model=model, cos_theta=math.cos(theta))
        for pair in (closed, generic):
            assert pair.crb_theta == math.inf, (model, pair)
            assert FLAG_ENDFIRE in pair.flags, (model, pair)
        assert closed.crb_r == generic.crb_r


def test_crb_from_steering_rejects_shape_mismatch():
    g = steering(WavefrontModel.SWM, FIG3, TGT, LAMBDA)
    dg = steering_derivatives(WavefrontModel.SWM, FIG3, TGT, LAMBDA)
    bad = SteeringDerivatives(d_r=dg.d_r[:-1], d_theta=dg.d_theta)
    with pytest.raises(InvalidConfigurationError):
        crb_from_steering(g, bad, SNR)


def test_fd_derivatives_agree_with_analytic_at_long_wavelength():
    lam = 0.5
    lay = build_layout(3, 5, (3, 0, 3), lam / 2.0)
    tgt = TargetPolar(20.0, 0.8)
    for model in MODEL_ORDER:
        analytic = steering_derivatives(model, lay, tgt, lam)
        fd = fd_derivatives(model, lay, tgt, lam, h_r=1e-4, h_theta=1e-4)
        for a, f in ((analytic.d_r, fd.d_r), (analytic.d_theta, fd.d_theta)):
            scale = np.abs(a).max()
            if scale == 0.0:
                assert np.abs(f).max() == 0.0
            else:
                assert np.abs(a - f).max() / scale <= 1e-5


def test_fd_derivatives_pwm_range_leg_is_exactly_zero():
    fd = fd_derivatives(WavefrontModel.PWM, FIG3, TGT, LAMBDA)
    assert np.all(fd.d_r == 0)


def test_fd_derivatives_halving_quarters_the_error():
    lam = 1.0
    lay = build_layout(3, 5, (3, 0, 3), lam / 2.0)
    tgt = TargetPolar(25.0, 0.7)
    analytic = steering_derivatives(WavefrontModel.SWM, lay, tgt, lam)
    errs = []
    for h in (1e-2, 5e-3, 2.5e-3):
        fd = fd_derivatives(WavefrontModel.SWM, lay, tgt, lam, h_r=h, h_theta=h)
        errs.append(max(np.abs(fd.d_r - analytic.d_r).max(),
                        np.abs(fd.d_theta - analytic.d_theta).max()))
    assert 3.6 <= errs[0] / errs[1] <= 4.4
    assert 3.6 <= errs[1] / errs[2] <= 4.4


def test_fd_step_validation():
    with pytest.raises(ValueError):
        fd_derivatives(WavefrontModel.SWM, FIG3, TGT, LAMBDA, h_r=-1e-4)
    with pytest.raises(ValueError):
        fd_derivatives(WavefrontModel.SWM, FIG3, TargetPolar(5e-5, 0.0), LAMBDA)
    with pytest.raises(ValueError):
        fd_rebased(WavefrontModel.SWM, FIG3, TGT, LAMBDA, h_r=0.0, h_theta=1e-4)
    with pytest.raises(ValueError):
        fd_rebased(WavefrontModel.SWM, FIG3, TargetPolar(5e-5, 0.0), LAMBDA,
                   h_r=1e-4, h_theta=1e-4)


def test_rebased_differences_match_direct_frame():
    # the rebased frame rotates each entry by a unit factor, so the entry
    # magnitudes and every Gram quantity must agree with the direct frame
    lam = 0.5
    lay = build_layout(3, 5, (3, 0, 3), lam / 2.0)
    tgt = TargetPolar(20.0, 0.8)
    for model in MODEL_ORDER:
        direct = fd_derivatives(model, lay, tgt, lam, h_r=1e-4, h_theta=1e-4)
        rebased = fd_rebased(model, lay, tgt, lam, h_r=1e-4, h_theta=1e-4)
        np.testing.assert_allclose(
            np.abs(rebased.d_r), np.abs(direct.d_r), rtol=1e-8, atol=1e-10
        )
        np.testing.assert_allclose(
            np.abs(rebased.d_theta), np.abs(direct.d_theta), rtol=1e-8, atol=1e-10
        )
        g = steering(model, lay, tgt, lam)
        ones = SteeringVector(values=np.ones_like(rebased.d_r))
        pair_direct = crb_from_steering(g, direct, SNR, model=model)
        pair_rebased = crb_from_steering(ones, rebased, SNR, model=model)
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
    assert one.max_rel_err_analytic == two.max_rel_err_analytic
    assert one.max_rel_err_fd == two.max_rel_err_fd
    assert "PASS" in one.describe()
    with pytest.raises(InvalidConfigurationError):
        verify_batch(num_cases=0)
