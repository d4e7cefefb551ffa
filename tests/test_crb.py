"""Closed-form bounds: scaling laws, symmetries, degeneracies, boresight forms."""

import math

import numpy as np
import pytest

from modcrb import (
    FLAG_DEGENERATE,
    FLAG_ENDFIRE,
    InvalidConfigurationError,
    MODEL_ORDER,
    SensingSnr,
    TargetPolar,
    WavefrontModel,
    boresight_far_range_bound,
    build_layout,
    crb_boresight,
    crb_boresight_far,
    crb_bounds,
    crb_hspm_dist,
    crb_hspm_shared,
    crb_pwm,
    crb_swm,
    intermediates_hspm,
    optimal_spread,
    subarray_range,
    subarray_sine,
)
from modcrb.crb import _bound_pair, _hspm_arrays, _Quadratic

PITCH = 0.0025
LAMBDA = 0.005
FIG3 = build_layout(3, 125, (90, 0, 90), PITCH)
TGT = TargetPolar(30.0, math.pi / 3)
SNR = SensingSnr(1.0)


def _assert_pair_close(a, b, rel):
    for va, vb in ((a.crb_r, b.crb_r), (a.crb_theta, b.crb_theta)):
        if math.isinf(va) or math.isinf(vb):
            assert va == vb
        else:
            assert math.isclose(va, vb, rel_tol=rel)


def test_snr_validation_and_db_round_trip():
    with pytest.raises(InvalidConfigurationError):
        SensingSnr(0.0)
    with pytest.raises(InvalidConfigurationError):
        SensingSnr(-1.0)
    assert SensingSnr.from_db(0.0).gamma == 1.0
    assert math.isclose(SensingSnr.from_db(10.0).gamma, 10.0, rel_tol=1e-12)
    assert math.isclose(SensingSnr(100.0).db, 20.0, rel_tol=1e-12)


def test_crb_pair_rejects_invalid_values():
    from modcrb import CrbPair

    with pytest.raises(InvalidConfigurationError):
        CrbPair(crb_r=-1.0, crb_theta=1.0, model=WavefrontModel.SWM,
                flags=(), diagnostics={})
    with pytest.raises(InvalidConfigurationError):
        CrbPair(crb_r=1.0, crb_theta=math.nan, model=WavefrontModel.SWM,
                flags=(), diagnostics={})


def test_bounds_scale_inversely_with_snr():
    for model in MODEL_ORDER:
        one = crb_bounds(model, FIG3, TGT, LAMBDA, SensingSnr(1.0))
        two = crb_bounds(model, FIG3, TGT, LAMBDA, SensingSnr(2.0))
        for v1, v2 in ((one.crb_r, two.crb_r), (one.crb_theta, two.crb_theta)):
            if math.isinf(v1):
                assert math.isinf(v2)
            else:
                assert math.isclose(v2, 0.5 * v1, rel_tol=1e-14)


def test_bounds_symmetric_in_angle_sign():
    rng = np.random.default_rng(41)
    for _ in range(10):
        k = int(rng.choice([1, 3, 5]))
        m = int(rng.integers(1, 30)) * 2 + 1
        lay = build_layout(k, m, int(rng.integers(1, 120)), PITCH)
        r = float(rng.uniform(2.0, 120.0))
        theta = float(rng.uniform(0.05, 1.4))
        for model in MODEL_ORDER:
            plus = crb_bounds(model, lay, TargetPolar(r, theta), LAMBDA, SNR)
            minus = crb_bounds(model, lay, TargetPolar(r, -theta), LAMBDA, SNR)
            _assert_pair_close(plus, minus, 1e-12)


def test_distinct_angles_beat_shared_angle_on_range():
    dist = crb_hspm_dist(FIG3, TGT, LAMBDA, SNR)
    shared = crb_hspm_shared(FIG3, TGT, LAMBDA, SNR)
    assert dist.crb_r < shared.crb_r
    assert dist.crb_r > 0
    assert not dist.flags


def test_shared_angle_freezes_sine_derivatives():
    shared = _hspm_arrays(FIG3.subarray_x, TGT.r, TGT.theta, shared_angle=True)
    sr, st = shared["ds_dr"], shared["ds_dt"]
    assert (sr * sr).sum() == 0.0
    assert (sr * st).sum() == 0.0
    assert math.isclose((st * st).sum(), 3.0 * math.cos(TGT.theta) ** 2, rel_tol=1e-12)
    # the distinct-angle model must not collapse the same sums
    dist_inter = intermediates_hspm(FIG3, TGT)
    assert dist_inter.z > 0.0
    assert abs(dist_inter.z_tilde - 3.0 * math.cos(TGT.theta) ** 2) > 1e-6


def test_pwm_has_no_range_information_and_constant_angle_bound():
    pairs = [crb_pwm(FIG3, TargetPolar(r, TGT.theta), LAMBDA, SNR)
             for r in (1.0, 5.0, 30.0, 56.0)]
    assert all(math.isinf(p.crb_r) for p in pairs)
    assert all(not p.flags for p in pairs)
    base = pairs[0].crb_theta
    assert all(p.crb_theta == base for p in pairs)


def test_pwm_endfire_is_flagged():
    pair = crb_pwm(FIG3, TargetPolar(30.0, math.pi / 2), LAMBDA, SNR)
    assert math.isinf(pair.crb_theta)
    assert FLAG_ENDFIRE in pair.flags


# (info_r, info_theta, info_cross, cos_theta) -> (crb_r, crb_theta, flags),
# numerator 2 and degeneracy scales of 10. None marks an absent parameter.
_POLICY_TABLE = {
    # inverse of [[4, 3], [3, 9]] is [[9, -3], [-3, 4]] / 27
    "regular": ((4.0, 9.0, 3.0, 1.0), (2.0 / 3.0, 8.0 / 27.0, ())),
    "range-degenerate": ((1e-12, 9.0, 3.0, 1.0), (math.inf, 2.0 / 9.0, (FLAG_DEGENERATE,))),
    "angle-degenerate": ((4.0, 0.0, 0.0, 1.0), (0.5, math.inf, (FLAG_DEGENERATE,))),
    "both-degenerate": ((0.0, 0.0, 0.0, 1.0), (math.inf, math.inf, (FLAG_DEGENERATE,))),
    "singular-determinant": ((4.0, 9.0, 6.0, 1.0), (math.inf, math.inf, (FLAG_DEGENERATE,))),
    "range-absent": ((None, 9.0, 0.0, 1.0), (math.inf, 2.0 / 9.0, ())),
    "angle-absent": ((4.0, None, 0.0, None), (0.5, math.inf, ())),
    "endfire": ((4.0, 9.0, 3.0, 1e-13), (0.5, math.inf, (FLAG_ENDFIRE,))),
    "endfire-range-degenerate": (
        (0.0, 9.0, 0.0, -1e-13), (math.inf, math.inf, (FLAG_DEGENERATE, FLAG_ENDFIRE))),
    "endfire-range-absent": ((None, 9.0, 0.0, 1e-13), (math.inf, math.inf, (FLAG_ENDFIRE,))),
}


@pytest.mark.parametrize("case", sorted(_POLICY_TABLE))
def test_bound_pair_policy_table(case):
    (info_r, info_t, info_c, cos_t), (crb_r, crb_t, flags) = _POLICY_TABLE[case]
    quad = _Quadratic(info_r, info_t, info_c, 10.0, 10.0)
    pair = _bound_pair(WavefrontModel.SWM, 2.0, quad, cos_t).pair()
    assert (pair.crb_r, pair.crb_theta, pair.flags) == (crb_r, crb_t, flags)


def test_single_subarray_loses_range_only():
    lay = build_layout(1, 125, (0,), PITCH)
    pair = crb_hspm_dist(lay, TGT, LAMBDA, SNR)
    assert math.isinf(pair.crb_r)
    assert FLAG_DEGENERATE in pair.flags
    assert math.isfinite(pair.crb_theta) and pair.crb_theta > 0


def test_single_antenna_is_fully_degenerate():
    lay = build_layout(1, 1, (0,), PITCH)
    for model in MODEL_ORDER:
        pair = crb_bounds(model, lay, TGT, LAMBDA, SNR)
        assert math.isinf(pair.crb_r)
        assert math.isinf(pair.crb_theta)
        assert FLAG_DEGENERATE in pair.flags


def test_intermediates_satisfy_cauchy_schwarz():
    rng = np.random.default_rng(43)
    for _ in range(40):
        k = int(rng.choice([3, 5, 7]))
        m = int(rng.integers(1, 30)) * 2 + 1
        lay = build_layout(k, m, int(rng.integers(1, 150)), PITCH)
        tgt = TargetPolar(float(rng.uniform(1.0, 150.0)), float(rng.uniform(-1.4, 1.4)))
        hspm = intermediates_hspm(lay, tgt)
        kk = lay.num_subarrays
        assert kk * hspm.q >= hspm.p**2 * (1.0 - 1e-12)
        assert kk * hspm.q_tilde >= hspm.p_tilde**2 * (1.0 - 1e-12)
        assert hspm.q * hspm.q_tilde >= hspm.q_hat**2 * (1.0 - 1e-12)
        assert hspm.z * hspm.z_tilde >= hspm.z_hat**2 * (1.0 - 1e-12)


def test_intermediates_match_finite_differences_of_geometry():
    h = 1e-6
    hspm = intermediates_hspm(FIG3, TGT)
    r, theta = TGT.r, TGT.theta
    dr_dr, dr_dt, ds_dr, ds_dt = [], [], [], []
    for k in (-1, 0, 1):
        dr_dr.append((subarray_range(FIG3, TargetPolar(r + h, theta), k)
                      - subarray_range(FIG3, TargetPolar(r - h, theta), k)) / (2 * h))
        dr_dt.append((subarray_range(FIG3, TargetPolar(r, theta + h), k)
                      - subarray_range(FIG3, TargetPolar(r, theta - h), k)) / (2 * h))
        ds_dr.append((subarray_sine(FIG3, TargetPolar(r + h, theta), k)
                      - subarray_sine(FIG3, TargetPolar(r - h, theta), k)) / (2 * h))
        ds_dt.append((subarray_sine(FIG3, TargetPolar(r, theta + h), k)
                      - subarray_sine(FIG3, TargetPolar(r, theta - h), k)) / (2 * h))
    dr_dr, dr_dt = np.array(dr_dr), np.array(dr_dt)
    ds_dr, ds_dt = np.array(ds_dr), np.array(ds_dt)
    assert math.isclose(hspm.p, dr_dr.sum(), rel_tol=1e-7)
    assert math.isclose(hspm.p_tilde, dr_dt.sum(), rel_tol=1e-6)
    assert math.isclose(hspm.q, (dr_dr**2).sum(), rel_tol=1e-7)
    assert math.isclose(hspm.q_tilde, (dr_dt**2).sum(), rel_tol=1e-6)
    assert math.isclose(hspm.q_hat, (dr_dr * dr_dt).sum(), rel_tol=1e-6)
    assert math.isclose(hspm.z, (ds_dr**2).sum(), rel_tol=1e-5)
    assert math.isclose(hspm.z_tilde, (ds_dt**2).sum(), rel_tol=1e-6)
    assert math.isclose(hspm.z_hat, (ds_dr * ds_dt).sum(), rel_tol=1e-5)


def test_boresight_form_matches_general_form():
    rng = np.random.default_rng(47)
    for _ in range(10):
        k = int(rng.choice([3, 5, 7]))
        m = int(rng.integers(1, 40)) * 2 + 1
        half = (k - 1) // 2
        right = [int(g) for g in rng.integers(1, 150, size=half)]
        lay = build_layout(k, m, tuple(right[::-1] + [0] + right), PITCH)
        tgt = TargetPolar(float(rng.uniform(2.0, 150.0)), 0.0)
        fast = crb_boresight(lay, tgt, LAMBDA, SNR)
        general = crb_hspm_dist(lay, tgt, LAMBDA, SNR)
        _assert_pair_close(fast, general, 1e-10)


def test_boresight_form_preconditions():
    with pytest.raises(InvalidConfigurationError):
        crb_boresight(FIG3, TargetPolar(30.0, 0.1), LAMBDA, SNR)
    asym = build_layout(3, 5, (1, 0, 2), PITCH)
    with pytest.raises(InvalidConfigurationError):
        crb_boresight(asym, TargetPolar(30.0, 0.0), LAMBDA, SNR)


def test_boresight_single_subarray_range_degenerates():
    tgt = TargetPolar(30.0, 0.0)
    for m in (125, 1):
        lay = build_layout(1, m, (0,), PITCH)
        pair = crb_boresight(lay, tgt, LAMBDA, SNR)
        assert math.isinf(pair.crb_r)
        assert FLAG_DEGENERATE in pair.flags
        # a single antenna has no angle information either
        assert math.isfinite(pair.crb_theta) == (m > 1)
        _assert_pair_close(pair, crb_hspm_dist(lay, tgt, LAMBDA, SNR), 1e-10)


def test_more_antennas_tighten_boresight_bounds():
    tgt = TargetPolar(30.0, 0.0)
    pairs = [crb_boresight(build_layout(3, m, (90, 0, 90), PITCH), tgt, LAMBDA, SNR)
             for m in (25, 75, 125)]
    assert pairs[0].crb_r > pairs[1].crb_r > pairs[2].crb_r
    assert pairs[0].crb_theta > pairs[1].crb_theta > pairs[2].crb_theta


def test_far_form_angle_bound_converges_to_exact():
    tgt_scale = FIG3.aperture
    devs = []
    for mult in (10.0, 20.0, 50.0, 100.0):
        tgt = TargetPolar(mult * tgt_scale, 0.0)
        exact = crb_boresight(FIG3, tgt, LAMBDA, SNR)
        far = crb_boresight_far(FIG3, tgt, LAMBDA, SNR)
        devs.append(abs(far.crb_theta - exact.crb_theta) / exact.crb_theta)
    assert devs == sorted(devs, reverse=True)
    assert devs[-1] < 0.01


def test_far_form_range_denominator_is_degenerate_for_built_layouts():
    # the truncated range denominator K (M^2-1) d^2 spread - 3 spread^2 is
    # negative for every constructible layout (the offsets of K subarrays
    # at integer gaps always overshoot the admissible spread), so the far
    # form reports +inf range with the degenerate flag
    for lay in (FIG3, build_layout(3, 3, (2, 0, 2), PITCH),
                build_layout(5, 25, (10, 10, 0, 10, 10), PITCH)):
        far = crb_boresight_far(lay, TargetPolar(100.0 * lay.aperture, 0.0), LAMBDA, SNR)
        assert math.isinf(far.crb_r)
        assert FLAG_DEGENERATE in far.flags
        assert far.diagnostics["regime_ratio"] < 0.011


def test_spread_bound_admissible_interval():
    k, m = 3, 125
    cm = (m * m - 1) * PITCH**2
    limit = k * cm / 3.0
    args = (k, m, PITCH, 100.0, LAMBDA, SNR)
    assert math.isfinite(boresight_far_range_bound(0.5 * limit, *args))
    assert math.isinf(boresight_far_range_bound(0.0, *args))
    assert math.isinf(boresight_far_range_bound(limit, *args))
    assert math.isinf(boresight_far_range_bound(1.5 * limit, *args))


def test_spread_bound_minimized_at_optimal_spread():
    for k, m, d in ((3, 3, 0.0025), (5, 75, 0.0025), (7, 11, 0.01)):
        best = optimal_spread(k, m, d)
        args = (k, m, d, 50.0, LAMBDA, SNR)
        at_best = boresight_far_range_bound(best, *args)
        for factor in (0.5, 0.9, 1.1, 1.5):
            assert at_best < boresight_far_range_bound(factor * best, *args)


def test_spread_bound_grows_as_fourth_power_of_range():
    k, m = 5, 75
    s = optimal_spread(k, m, PITCH)
    near = boresight_far_range_bound(s, k, m, PITCH, 50.0, LAMBDA, SNR)
    far = boresight_far_range_bound(s, k, m, PITCH, 100.0, LAMBDA, SNR)
    assert math.isclose(far / near, 16.0, rel_tol=1e-12)


def test_optimal_spread_values():
    assert optimal_spread(1, 1, PITCH) == 0.0
    expected = 5.0 * (75**2 - 1) * 0.0025**2 / 6.0
    assert math.isclose(optimal_spread(5, 75, 0.0025), expected, rel_tol=1e-15)
