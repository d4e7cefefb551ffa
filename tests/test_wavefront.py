"""Steering vectors: model definitions, symmetries, and derivative checks."""

import math

import numpy as np
import pytest

from geometry_reference import element_range, subarray_range, subarray_sine
from modcrb import (
    InvalidConfigurationError,
    MODEL_ORDER,
    SensingSnr,
    TargetPolar,
    WavefrontModel,
    build_layout,
    crb_bounds,
    field_regions,
    steering,
    steering_derivatives,
)
from modcrb.wavefront import _antennas, _phase_increment

PITCH = 0.0025
LAMBDA = 0.005
FIG3 = build_layout(3, 125, (90, 0, 90), PITCH)
TGT = TargetPolar(30.0, math.pi / 3)


def increment(model, layout, target, wavelength, dr=0.0, dtheta=0.0):
    """_phase_increment of one case; stacked shifts go along leading axes."""
    hr, ht = np.broadcast_arrays(np.asarray(dr), np.asarray(dtheta))
    ants = _antennas([(layout, target, wavelength)])
    return _phase_increment(model, ants, hr[..., None], ht[..., None])


def test_model_parse_and_order():
    assert WavefrontModel.parse(" SWM ") is WavefrontModel.SWM
    assert WavefrontModel.parse("hspm-dist") is WavefrontModel.HSPM_DIST
    with pytest.raises(InvalidConfigurationError):
        WavefrontModel.parse("spherical")
    assert len(MODEL_ORDER) == len(set(MODEL_ORDER)) == 4


def test_unit_modulus_everywhere():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.choice([1, 3, 5]))
        m = int(rng.integers(1, 10)) * 2 + 1
        lay = build_layout(k, m, int(rng.integers(1, 50)), PITCH)
        tgt = TargetPolar(float(rng.uniform(0.5, 100.0)), float(rng.uniform(-1.4, 1.4)))
        for model in MODEL_ORDER:
            g = steering(model, lay, tgt, LAMBDA)
            assert len(g) == lay.num_elements
            np.testing.assert_allclose(np.abs(g), 1.0, rtol=0, atol=1e-12)


def test_single_antenna_entries():
    lay = build_layout(1, 1, (0,), PITCH)
    tgt = TargetPolar(12.0, 0.4)
    bulk = np.exp(-2j * math.pi * 12.0 / LAMBDA)
    for model in (WavefrontModel.SWM, WavefrontModel.HSPM_DIST, WavefrontModel.HSPM_SHARED):
        g = steering(model, lay, tgt, LAMBDA)
        assert abs(g[0] - bulk) < 1e-12
    # the planar model is referenced to the origin, so its only entry is 1
    g = steering(WavefrontModel.PWM, lay, tgt, LAMBDA)
    assert g[0] == 1.0 + 0.0j


def test_entry_phases_match_module_definitions():
    # reconstruct each model's phase map from the scalar reference geometry
    k2 = 2.0 * math.pi / LAMBDA
    lay = build_layout(3, 5, (7, 0, 7), PITCH)
    tgt = TargetPolar(4.0, 0.7)
    half_m = (lay.subarray_size - 1) // 2
    for model in MODEL_ORDER:
        g = steering(model, lay, tgt, LAMBDA).reshape(lay.num_subarrays, -1)
        for ki, k in enumerate((-1, 0, 1)):
            for mi, m in enumerate(range(-half_m, half_m + 1)):
                if model is WavefrontModel.SWM:
                    psi = k2 * element_range(lay, tgt, k, m)
                elif model is WavefrontModel.PWM:
                    x = float(lay.element_x[ki * lay.subarray_size + mi])
                    psi = -k2 * x * math.sin(tgt.theta)
                else:
                    sin_k = (
                        subarray_sine(lay, tgt, k)
                        if model is WavefrontModel.HSPM_DIST
                        else math.sin(tgt.theta)
                    )
                    psi = k2 * (subarray_range(lay, tgt, k) - m * PITCH * sin_k)
                assert abs(g[ki, mi] - np.exp(-1j * psi)) < 1e-9


def test_center_subarray_identical_across_hspm_variants():
    g_dist = steering(WavefrontModel.HSPM_DIST, FIG3, TGT, LAMBDA).reshape(3, -1)
    g_shared = steering(WavefrontModel.HSPM_SHARED, FIG3, TGT, LAMBDA).reshape(3, -1)
    np.testing.assert_allclose(g_dist[1], g_shared[1], rtol=0, atol=1e-12)
    # off-center subarrays must differ (distinct arrival sines)
    assert np.abs(g_dist[0] - g_shared[0]).max() > 1e-6


def test_single_subarray_collapses_hspm_variants():
    lay = build_layout(1, 125, (0,), PITCH)
    tgt = TargetPolar(30.0, math.pi / 3)
    g_dist = steering(WavefrontModel.HSPM_DIST, lay, tgt, LAMBDA)
    g_shared = steering(WavefrontModel.HSPM_SHARED, lay, tgt, LAMBDA)
    np.testing.assert_allclose(g_dist, g_shared, rtol=0, atol=1e-12)
    d_dist = steering_derivatives(WavefrontModel.HSPM_DIST, lay, tgt, LAMBDA)
    d_shared = steering_derivatives(WavefrontModel.HSPM_SHARED, lay, tgt, LAMBDA)
    for a, b in zip(d_dist, d_shared):
        np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-11)


def test_hspm_tracks_exact_ranges_within_fresnel_residual():
    # In the band where subarrays see planar waves, the per-antenna range
    # expands as r_k - m d sin_k + O(((M-1)d/2)^2 / r); the leftover is the
    # classical Fresnel phase residual 2 pi (M d)^2 / (8 lambda r). So the
    # encoded hspm-dist vector matches the exact spherical one entry by
    # entry within that residual.
    lay = build_layout(3, 25, (5, 0, 5), PITCH)
    r = 100.0 * lay.aperture
    bound = 2.0 * math.pi * (lay.subarray_size * PITCH) ** 2 / (8.0 * LAMBDA * r)
    for theta in (0.0, math.pi / 6, math.pi / 3, -math.pi / 3):
        tgt = TargetPolar(r, theta)
        g_hspm = steering(WavefrontModel.HSPM_DIST, lay, tgt, LAMBDA)
        g_swm = steering(WavefrontModel.SWM, lay, tgt, LAMBDA)
        assert np.abs(np.angle(g_hspm * np.conj(g_swm))).max() < bound, theta


def test_pwm_range_derivative_vanishes():
    d_r, _ = steering_derivatives(WavefrontModel.PWM, FIG3, TGT, LAMBDA)
    assert np.all(d_r == 0)
    g1 = steering(WavefrontModel.PWM, FIG3, TargetPolar(5.0, TGT.theta), LAMBDA)
    g2 = steering(WavefrontModel.PWM, FIG3, TargetPolar(50.0, TGT.theta), LAMBDA)
    assert np.array_equal(g1, g2)


def test_pwm_angle_derivative_closed_form():
    _, d_t = steering_derivatives(WavefrontModel.PWM, FIG3, TGT, LAMBDA)
    g = steering(WavefrontModel.PWM, FIG3, TGT, LAMBDA)
    k2 = 2.0 * math.pi / LAMBDA
    expected = 1j * k2 * FIG3.element_x * math.cos(TGT.theta) * g
    np.testing.assert_allclose(d_t, expected, rtol=1e-12, atol=1e-12)


def test_center_subarray_boresight_range_derivative():
    # at theta = 0 the center subarray has unit range rate and a frozen
    # arrival sine, so its d_r block is exactly -j (2 pi / lambda) g
    tgt = TargetPolar(30.0, 0.0)
    g = steering(WavefrontModel.HSPM_DIST, FIG3, tgt, LAMBDA).reshape(3, -1)
    d_r, _ = steering_derivatives(WavefrontModel.HSPM_DIST, FIG3, tgt, LAMBDA)
    k2 = 2.0 * math.pi / LAMBDA
    np.testing.assert_allclose(
        d_r.reshape(3, -1)[1], -1j * k2 * g[1], rtol=1e-12, atol=1e-12
    )


def test_derivatives_tangent_to_unit_sphere():
    # ||g||^2 is constant, so Re <g, dg/du> must vanish for every model
    rng = np.random.default_rng(17)
    for _ in range(20):
        k = int(rng.choice([1, 3, 5]))
        m = int(rng.integers(1, 20)) * 2 + 1
        lay = build_layout(k, m, int(rng.integers(1, 100)), PITCH)
        tgt = TargetPolar(float(rng.uniform(1.0, 200.0)), float(rng.uniform(-1.4, 1.4)))
        for model in MODEL_ORDER:
            g = steering(model, lay, tgt, LAMBDA)
            for du in steering_derivatives(model, lay, tgt, LAMBDA):
                scale = np.linalg.norm(g) * np.linalg.norm(du)
                if scale == 0.0:
                    continue
                assert abs(np.vdot(g, du).real) <= 1e-10 * scale


def test_boresight_mirror_symmetry_is_exact():
    tgt = TargetPolar(30.0, 0.0)
    for model in MODEL_ORDER:
        g = steering(model, FIG3, tgt, LAMBDA)
        assert np.array_equal(g, g[::-1])


def test_finite_differences_confirm_analytic_derivatives():
    # At long wavelengths the phase rates are O(10), so a central difference
    # with h = 1e-4 carries ~(psi' h)^2 / 6 < 1e-5 relative truncation.
    rng = np.random.default_rng(29)
    h = 1e-4
    cases = 0
    while cases < 100:
        lam = float(rng.uniform(0.5, 1.0))
        pitch = lam / 2.0
        k = int(rng.choice([1, 3]))
        m = int(rng.choice([3, 5]))
        lay = build_layout(k, m, int(rng.integers(1, 5)), pitch)
        r = float(rng.uniform(max(2.0 * lay.aperture, 5.0 * lam), 150.0 * lam))
        theta = float(rng.uniform(-1.4, 1.4))
        tgt = TargetPolar(r, theta)
        for model in MODEL_ORDER:
            d_r, d_t = steering_derivatives(model, lay, tgt, lam)
            gp = steering(model, lay, TargetPolar(r + h, theta), lam)
            gm = steering(model, lay, TargetPolar(r - h, theta), lam)
            fd_r = (gp - gm) / (2.0 * h)
            gp = steering(model, lay, TargetPolar(r, theta + h), lam)
            gm = steering(model, lay, TargetPolar(r, theta - h), lam)
            fd_t = (gp - gm) / (2.0 * h)
            for analytic, fd in ((d_r, fd_r), (d_t, fd_t)):
                scale = np.abs(analytic).max()
                if scale == 0.0:
                    assert np.abs(fd).max() == 0.0
                else:
                    assert np.abs(analytic - fd).max() / scale <= 1e-5
            cases += 1


def test_phase_increment_matches_direct_difference_at_long_wavelength():
    # the increment is measured against the reference path, whose phase
    # 2 pi r / lambda moves by k2 dr; pwm has no range and no reference term
    lam = 0.5
    k2 = 2.0 * math.pi / lam
    lay = build_layout(3, 5, (3, 0, 3), lam / 2.0)
    r, theta = 20.0, 0.8
    tgt = TargetPolar(r, theta)
    for model in MODEL_ORDER:
        reference = 0.0 if model is WavefrontModel.PWM else k2
        for dr, dtheta in ((1e-3, 0.0), (0.0, 1e-3), (-5e-4, 2e-4)):
            inc = increment(model, lay, tgt, lam, dr=dr, dtheta=dtheta)
            g0 = steering(model, lay, tgt, lam)
            g1 = steering(model, lay, TargetPolar(r + dr, theta + dtheta), lam)
            direct = np.angle(g0 * np.conj(g1))  # psi1 - psi0, wrapped
            np.testing.assert_allclose(inc + reference * dr, direct, rtol=1e-9, atol=1e-11)


def test_phase_increment_zero_shift_is_zero():
    for model in MODEL_ORDER:
        inc = increment(model, FIG3, TGT, LAMBDA)
        assert np.all(inc == 0.0)


# Shifts of either float width evaluate in float64, the one precision.
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_phase_increment_stacked_shifts_match_scalar_calls(dtype):
    lay = build_layout(3, 5, (7, 0, 7), PITCH)
    dr = np.array([2e-4, -2e-4, 0.0, 0.0], dtype=dtype)
    dtheta = np.array([0.0, 0.0, 1e-4, -1e-4], dtype=dtype)
    for model in MODEL_ORDER:
        for theta in (0.0, 0.6, -1.2):
            tgt = TargetPolar(5.0, theta)
            batch = increment(model, lay, tgt, LAMBDA, dr, dtheta)
            assert batch.shape == (4, lay.num_subarrays * lay.subarray_size)
            for i in range(4):
                single = increment(model, lay, tgt, LAMBDA, dr[i], dtheta[i])
                assert single.dtype == np.float64 and single.shape == batch[i].shape
                assert np.array_equal(batch[i], single), (model, theta, i)


def test_phase_increment_rejects_nonpositive_shifted_range_for_every_model():
    # pwm never reads the range, but a shift to r + dr <= 0 is no target
    tgt = TargetPolar(1.0, 0.3)
    for model in MODEL_ORDER:
        with pytest.raises(InvalidConfigurationError, match="must stay positive"):
            increment(model, FIG3, tgt, LAMBDA, dr=-5.0)
        with pytest.raises(InvalidConfigurationError, match="must stay positive"):
            increment(model, FIG3, tgt, LAMBDA, dr=np.array([1e-4, -1.0]))
        with pytest.raises(InvalidConfigurationError, match="must stay positive"):
            increment(model, FIG3, tgt, LAMBDA, dr=np.array([[0.5], [-1.5]]))


def test_phase_increment_center_subarray_ignores_range_shifts():
    # the center subarray's range is r and its arrival sine sin(theta) at
    # every range, so its rebased phase cannot move under a range shift
    m = FIG3.subarray_size
    for model in (WavefrontModel.HSPM_DIST, WavefrontModel.HSPM_SHARED):
        for theta in (0.0, 0.6, -1.2):
            inc = increment(model, FIG3, TargetPolar(30.0, theta), LAMBDA,
                            dr=np.array([1e-3, -1e-3]))
            assert np.all(inc[:, m:2 * m] == 0.0), (model, theta)


def test_every_wavelength_consumer_requires_a_finite_positive_value():
    snr = SensingSnr(1.0)
    for wavelength in (0.0, -LAMBDA, math.inf, math.nan):
        calls = [
            lambda: field_regions(FIG3, wavelength),
            lambda: crb_bounds(WavefrontModel.SWM, FIG3, TGT, wavelength, snr),
            lambda: increment(WavefrontModel.SWM, FIG3, TGT, wavelength, dr=1e-3),
        ] + [lambda model=model: steering(model, FIG3, TGT, wavelength)
             for model in MODEL_ORDER]
        for call in calls:
            with pytest.raises(InvalidConfigurationError, match="finite and positive"):
                call()
