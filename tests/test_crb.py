"""Closed-form bounds: scaling laws, symmetries, degeneracies, boresight forms."""

import math

import numpy as np
import pytest

from geometry_reference import hspm_sums
from modcrb import (
    FLAG_DEGENERATE,
    FLAG_ENDFIRE,
    InvalidConfigurationError,
    MODEL_ORDER,
    NumericDomainError,
    SensingSnr,
    TargetPolar,
    WavefrontModel,
    build_layout,
    crb_boresight,
    crb_boresight_far,
    crb_bounds,
    radial_terms,
)
from modcrb.crb import (
    _ROWS,
    _WORKSPACE,
    _bound_pair,
    _hspm_kernel,
    _Quadratic,
    _rows,
    _stacked_sums,
)

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
    dist = crb_bounds(WavefrontModel.HSPM_DIST, FIG3, TGT, LAMBDA, SNR)
    shared = crb_bounds(WavefrontModel.HSPM_SHARED, FIG3, TGT, LAMBDA, SNR)
    assert dist.crb_r < shared.crb_r
    assert dist.crb_r > 0
    assert not dist.flags


def test_shared_angle_freezes_sine_derivatives():
    # every subarray's sine moves only with theta, at rate cos(theta), so the
    # sine sums are z = z_hat = 0 and z_tilde = K cos^2(theta)
    k, m = FIG3.num_subarrays, FIG3.subarray_size
    cm = (m * m - 1) * PITCH**2
    terms = radial_terms(FIG3.subarray_x, TGT.r, TGT.theta)
    da = terms["dr_dr_m1"] - terms["dr_dr_m1"].mean()
    dt = terms["dr_dt"] - terms["dr_dt"].mean()
    batch = _rows(FIG3, TGT.theta, LAMBDA, SNR)
    _, quad = _hspm_kernel(FIG3.subarray_x, TGT.r, TGT.theta, batch, _ROWS, shared_angle=True)
    z_tilde = k * math.cos(TGT.theta) ** 2
    assert math.isclose(quad.info_r, 12.0 * k * (da * da).sum(), rel_tol=1e-12)
    assert math.isclose(
        quad.info_theta, k * cm * z_tilde + 12.0 * k * (dt * dt).sum(), rel_tol=1e-12
    )
    assert math.isclose(quad.info_cross, 12.0 * k * (da * dt).sum(), rel_tol=1e-12)
    # the distinct-angle model must not collapse the same sums
    dist_inter = hspm_sums(FIG3, TGT)
    assert dist_inter.z > 0.0
    assert abs(dist_inter.z_tilde - 3.0 * math.cos(TGT.theta) ** 2) > 1e-6


def test_pwm_has_no_range_information_and_constant_angle_bound():
    pairs = [crb_bounds(WavefrontModel.PWM, FIG3, TargetPolar(r, TGT.theta), LAMBDA, SNR)
             for r in (1.0, 5.0, 30.0, 56.0)]
    assert all(math.isinf(p.crb_r) for p in pairs)
    assert all(not p.flags for p in pairs)
    base = pairs[0].crb_theta
    assert all(p.crb_theta == base for p in pairs)


def test_pwm_endfire_is_flagged():
    pair = crb_bounds(WavefrontModel.PWM, FIG3, TargetPolar(30.0, math.pi / 2), LAMBDA, SNR)
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
    # on the array axis every d r_k / d r is 1, so a model with range has no
    # range information there: endfire makes range degenerate whatever the
    # rounding left in info_r
    "endfire": ((4.0, 9.0, 3.0, 1e-13), (math.inf, math.inf, (FLAG_DEGENERATE, FLAG_ENDFIRE))),
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


def test_bound_pair_mixed_batch_matches_batches_of_one():
    # one batch per combination of absent parameters and known angle, each
    # mixing live, degenerate, singular and endfire points
    groups = {}
    for case, ((info_r, info_t, info_c, cos_t), _) in sorted(_POLICY_TABLE.items()):
        key = (info_r is None, info_t is None, cos_t is None)
        groups.setdefault(key, []).append((info_r, info_t, info_c, cos_t))
    assert len(groups[False, False, False]) == 7
    for (no_r, no_t, no_cos), points in groups.items():
        info_r, info_t, info_c, cos_t = (np.array(column) for column in zip(*points))
        num = np.linspace(1.0, 3.0, len(points))
        quad = _Quadratic(None if no_r else info_r, None if no_t else info_t, info_c,
                          10.0, 10.0)
        batch = _bound_pair(WavefrontModel.SWM, num, quad, None if no_cos else cos_t)
        assert len(batch.points) == len(points)
        for i, (d_r, d_t, d_c, cos_i) in enumerate(points):
            one = _bound_pair(WavefrontModel.SWM, float(num[i]),
                              _Quadratic(d_r, d_t, d_c, 10.0, 10.0), cos_i)
            assert batch.points[i] == one.points[0]
            crb_r, crb_t, _, det2 = batch.points[i]
            assert type(crb_r) is float and type(crb_t) is float
            assert det2 is None or type(det2) is float


def test_stacked_sums_outlive_the_next_call():
    # the blocks are views of the thread's workspace; the sums are not
    def fill(work, x):
        np.multiply(x, x, out=work[0])
        np.add(x, 1.0, out=work[1])

    for shape in ((2, 3), (5,)):  # sweep rows, and one point or a ragged group
        x = np.arange(math.prod(shape), dtype=float).reshape(shape)
        first = _stacked_sums(_ROWS, 2, fill, x)
        kept = first.copy()
        assert not np.shares_memory(first, _WORKSPACE.buffer)
        _stacked_sums(_ROWS, 2, fill, np.full(shape, 7.0))
        assert np.array_equal(first, kept)


def test_bound_pair_rejects_a_bound_that_is_nan_or_not_positive():
    # the one check of a computed bound runs where it is computed, at every
    # point of a batch
    quad = _Quadratic(np.array([4.0, 4.0]), np.array([9.0, 9.0]), 1.0, 10.0, 10.0)
    with pytest.raises(NumericDomainError, match=r"^crb_r must be positive or \+inf, got nan$"):
        _bound_pair(WavefrontModel.SWM, np.array([2.0, math.nan]), quad, 0.5)
    quad = _Quadratic(None, 9.0, 0.0, 0.0, 10.0)
    with pytest.raises(NumericDomainError, match=r"^crb_theta must be positive or \+inf, got -"):
        _bound_pair(WavefrontModel.PWM, -2.0, quad, 0.5)


def test_single_subarray_loses_range_only():
    lay = build_layout(1, 125, (0,), PITCH)
    pair = crb_bounds(WavefrontModel.HSPM_DIST, lay, TGT, LAMBDA, SNR)
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
        general = crb_bounds(WavefrontModel.HSPM_DIST, lay, tgt, LAMBDA, SNR)
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
        general = crb_bounds(WavefrontModel.HSPM_DIST, lay, tgt, LAMBDA, SNR)
        _assert_pair_close(pair, general, 1e-10)


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


def test_far_form_range_bound_converges_to_exact():
    # the moment law is the leading order of the exact range information,
    # so the relative deviation falls as (A/r)^2 on every layout
    for lay in (FIG3, build_layout(3, 3, (2, 0, 2), PITCH),
                build_layout(5, 25, (10, 10, 0, 10, 10), PITCH)):
        mults = (10.0, 20.0, 50.0, 100.0)
        scaled = []
        for mult in mults:
            tgt = TargetPolar(mult * lay.aperture, 0.0)
            exact = crb_boresight(lay, tgt, LAMBDA, SNR)
            far = crb_boresight_far(lay, tgt, LAMBDA, SNR)
            assert far.flags == ()
            scaled.append(abs(far.crb_r - exact.crb_r) / exact.crb_r * mult**2)
        assert max(scaled) / min(scaled) - 1.0 < 0.01
        assert max(scaled) < 1.0


def test_far_form_range_bound_is_finite_beyond_one_subarray():
    rng = np.random.default_rng(71)
    for _ in range(30):
        k = int(rng.choice([1, 3, 5, 7]))
        m = int(rng.integers(0, 40)) * 2 + 1
        right = [int(g) for g in rng.integers(1, 150, size=(k - 1) // 2)]
        lay = build_layout(k, m, tuple(right[::-1] + [0] + right), PITCH)
        tgt = TargetPolar(float(rng.uniform(10.0, 100.0)) * max(lay.aperture, PITCH), 0.0)
        far = crb_boresight_far(lay, tgt, LAMBDA, SNR)
        if k == 1:
            exact = crb_boresight(lay, tgt, LAMBDA, SNR)
            assert math.isinf(far.crb_r) and math.isinf(exact.crb_r)
            assert FLAG_DEGENERATE in far.flags and FLAG_DEGENERATE in exact.flags
        else:
            assert math.isfinite(far.crb_r)
            assert far.flags == ()


def test_far_form_range_information_is_the_moment_law():
    for lay in (FIG3, build_layout(5, 75, (10, 90, 0, 90, 10), PITCH),
                build_layout(7, 1, (3, 1, 4, 0, 4, 1, 3), 0.01)):
        r = 100.0 * lay.aperture
        far = crb_boresight_far(lay, TargetPolar(r, 0.0), LAMBDA, SNR)
        k, m, d = lay.num_subarrays, lay.subarray_size, lay.pitch
        sx2 = float(np.sum(lay.subarray_x**2))
        sx4 = float(np.sum(lay.subarray_x**4))
        moment = k * (m * m - 1) * d**2 * sx2 + 3.0 * (k * sx4 - sx2 * sx2)
        assert math.isclose(far.diagnostics["info_range"] * r**4, moment, rel_tol=1e-12)


def test_far_form_range_bound_grows_as_fourth_power_of_range():
    lay = build_layout(5, 75, (50, 50, 0, 50, 50), PITCH)
    near = crb_boresight_far(lay, TargetPolar(50.0, 0.0), LAMBDA, SNR)
    far = crb_boresight_far(lay, TargetPolar(100.0, 0.0), LAMBDA, SNR)
    assert math.isclose(far.crb_r / near.crb_r, 16.0, rel_tol=1e-12)
