"""Geometry layer: layouts, ranges, arrival sines, field regions, radial terms."""

import math
import tracemalloc

import numpy as np
import pytest

from geometry_reference import element_range, subarray_range, subarray_sine
from modcrb import (
    InvalidConfigurationError,
    TargetPolar,
    arrival_sine_terms,
    build_layout,
    field_regions,
    preset,
    radial_terms,
)
from modcrb import geometry
from modcrb.geometry import (_angle_terms, _arrival_sine, _arrival_sine_shift, _grid_abscissas,
                             _radial_shift, _require_shifted_range)
from modcrb.sweeps import _sweep_spacings

PITCH = 0.0025


def random_layout(rng, symmetric=False):
    k = int(rng.choice([1, 3, 5, 7]))
    m = int(rng.integers(1, 63)) * 2 + 1
    if k == 1:
        gaps = (0,)
    else:
        half = (k - 1) // 2
        right = [int(g) for g in rng.integers(1, 201, size=half)]
        left = right if symmetric else [int(g) for g in rng.integers(1, 201, size=half)]
        gaps = tuple(left[::-1] + [0] + right)
    return build_layout(k, m, gaps, PITCH)


def test_element_positions_frozen_small_case():
    lay = build_layout(3, 3, (2, 0, 2), PITCH)
    expected = np.array([-5, -4, -3, -1, 0, 1, 3, 4, 5], dtype=np.float64) * PITCH
    assert np.array_equal(lay.element_x, expected)
    assert np.array_equal(lay.subarray_x, np.array([-4.0, 0.0, 4.0]) * PITCH)
    assert lay.num_elements == 9
    assert lay.is_centro_symmetric


def test_single_gap_integer_broadcasts_to_all_sides():
    a = build_layout(5, 3, 7, PITCH)
    b = build_layout(5, 3, (7, 7, 0, 7, 7), PITCH)
    assert a.spacings == b.spacings
    assert np.array_equal(a.element_x, b.element_x)


def test_layout_rejects_one_antenna_past_the_cap_before_allocating():
    # K * M past the cap is a configuration error that names K and M, raised
    # before any abscissa array exists
    cap = geometry._MAX_ELEMENTS
    assert 7 * 1001 < cap
    tracemalloc.start()
    try:
        with pytest.raises(InvalidConfigurationError, match=rf"K \* M = 1 \* {cap + 1} "):
            build_layout(1, cap + 1, 0, PITCH)
        with pytest.raises(InvalidConfigurationError, match=r"K \* M = 3 \* 349527 "):
            build_layout(3, 349527, 1, PITCH)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_layout_validation_errors():
    with pytest.raises(InvalidConfigurationError):
        build_layout(2, 3, (1, 0), PITCH)  # even K
    with pytest.raises(InvalidConfigurationError):
        build_layout(3, 4, (1, 0, 1), PITCH)  # even M
    with pytest.raises(InvalidConfigurationError):
        build_layout(3, 3, (1, 0), PITCH)  # wrong length
    with pytest.raises(InvalidConfigurationError):
        build_layout(3, 3, (1, 2, 1), PITCH)  # center not 0
    with pytest.raises(InvalidConfigurationError):
        build_layout(3, 3, (0, 0, 1), PITCH)  # off-center gap < 1
    with pytest.raises(InvalidConfigurationError):
        build_layout(3, 3, (1, 0, 1), 0.0)  # bad pitch
    with pytest.raises(InvalidConfigurationError):
        TargetPolar(0.0, 0.0)
    with pytest.raises(InvalidConfigurationError):
        TargetPolar(10.0, math.nan)


def test_aperture_equals_coordinate_span():
    rng = np.random.default_rng(11)
    for _ in range(60):
        lay = random_layout(rng)
        span = float(lay.element_x[-1] - lay.element_x[0])
        if lay.num_elements == 1:
            assert lay.aperture == 0.0
        else:
            assert math.isclose(lay.aperture, span, rel_tol=1e-12)


def _assert_rows_are_layouts(gaps, m, pitch):
    grid = _grid_abscissas(np.array(gaps, dtype=np.int64), m, pitch)
    assert grid.subarray_x.shape == (len(gaps), len(gaps[0]))
    assert grid.element_x.shape == (len(gaps), len(gaps[0]) * m)
    for row, spacings in enumerate(gaps):
        lay = build_layout(len(spacings), m, spacings, pitch)
        assert grid.subarray_x[row].tobytes() == lay.subarray_x.tobytes()
        assert grid.element_x[row].tobytes() == lay.element_x.tobytes()
        for values in (lay.subarray_x, lay.element_x):
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0


def test_grid_abscissas_rows_are_the_layouts_bit_for_bit():
    rng = np.random.default_rng(17)
    for k in (1, 3, 5, 7):
        half = (k - 1) // 2
        gaps = [
            tuple(int(g) for g in rng.integers(1, 301, size=half)) + (0,)
            + tuple(int(g) for g in rng.integers(1, 301, size=half))
            for _ in range(12)
        ]
        for m in (1, 3, 75):
            _assert_rows_are_layouts(gaps, m, float(rng.uniform(1e-4, 0.1)))
    for name in ("fig4-c1", "fig4-c2"):
        config = preset(name)
        gaps = [_sweep_spacings(config, gamma)
                for gamma in range(config.gamma_start, config.gamma_stop + 1)]
        _assert_rows_are_layouts(gaps, config.subarray_size, config.pitch)


def test_all_ones_gaps_give_uniform_line():
    lay = build_layout(5, 3, (1, 1, 0, 1, 1), PITCH)
    n = lay.num_elements
    expected = (np.arange(n) - (n - 1) / 2.0) * PITCH
    np.testing.assert_allclose(lay.element_x, expected, rtol=0, atol=1e-15)


def test_palindromic_spacings_mirror_exactly():
    rng = np.random.default_rng(23)
    for _ in range(20):
        lay = random_layout(rng, symmetric=True)
        assert lay.is_centro_symmetric
        assert np.array_equal(lay.element_x, -lay.element_x[::-1])
        assert np.array_equal(lay.subarray_x, -lay.subarray_x[::-1])


def test_subarray_range_matches_cartesian_distance():
    lay = build_layout(3, 125, (90, 0, 90), PITCH)
    tgt = TargetPolar(30.0, math.pi / 3)
    tx, ty = 30.0 * math.sin(tgt.theta), 30.0 * math.cos(tgt.theta)
    for k in (-1, 0, 1):
        x = float(lay.subarray_x[k + 1])
        direct = math.hypot(tx - x, ty)
        assert math.isclose(subarray_range(lay, tgt, k), direct, rel_tol=1e-12)


def test_subarray_range_boresight_cases():
    lay = build_layout(3, 3, (2, 0, 2), PITCH)
    tgt = TargetPolar(30.0, 0.0)
    assert subarray_range(lay, tgt, 0) == 30.0
    x = float(lay.subarray_x[2])
    assert math.isclose(subarray_range(lay, tgt, 1), math.sqrt(900.0 + x * x), rel_tol=1e-15)
    # mirrored subarrays see the same distance at boresight
    assert subarray_range(lay, tgt, -1) == subarray_range(lay, tgt, 1)


def test_subarray_sine_values_and_bounds():
    lay = build_layout(3, 25, (40, 0, 40), PITCH)
    tgt0 = TargetPolar(12.0, 0.0)
    for k in (-1, 0, 1):
        x = float(lay.subarray_x[k + 1])
        expected = -x / math.sqrt(144.0 + x * x)
        assert math.isclose(subarray_sine(lay, tgt0, k), expected, rel_tol=1e-14)
    assert subarray_sine(lay, tgt0, 0) == 0.0

    tgt = TargetPolar(30.0, math.pi / 3)
    assert math.isclose(subarray_sine(lay, tgt, 0), math.sin(tgt.theta), rel_tol=1e-15)
    # arctangent of Cartesian offsets as an independent route
    k = 1
    x = float(lay.subarray_x[2])
    tx, ty = 30.0 * math.sin(tgt.theta), 30.0 * math.cos(tgt.theta)
    assert math.isclose(
        subarray_sine(lay, tgt, k), math.sin(math.atan2(tx - x, ty)), rel_tol=1e-12
    )

    rng = np.random.default_rng(31)
    for _ in range(40):
        lay = random_layout(rng)
        tgt = TargetPolar(float(rng.uniform(0.5, 100.0)), float(rng.uniform(-1.5, 1.5)))
        half = (lay.num_subarrays - 1) // 2
        for k in range(-half, half + 1):
            assert -1.0 <= subarray_sine(lay, tgt, k) <= 1.0


def test_element_range_cases():
    lay = build_layout(3, 5, (10, 0, 10), PITCH)
    tgt = TargetPolar(17.0, 0.0)
    assert element_range(lay, tgt, 0, 0) == 17.0
    x = float(lay.element_x[-1])
    assert math.isclose(element_range(lay, tgt, 1, 2), math.hypot(17.0, x), rel_tol=1e-15)
    tgt2 = TargetPolar(30.0, math.pi / 3)
    tx, ty = 30.0 * math.sin(tgt2.theta), 30.0 * math.cos(tgt2.theta)
    assert math.isclose(
        element_range(lay, tgt2, 1, 2), math.hypot(tx - x, ty), rel_tol=1e-12
    )
    with pytest.raises(InvalidConfigurationError):
        element_range(lay, tgt, 2, 0)
    with pytest.raises(InvalidConfigurationError):
        element_range(lay, tgt, 0, 3)


def test_field_regions_reference_configuration():
    lay = build_layout(3, 125, (90, 0, 90), PITCH)
    regions = field_regions(lay, 0.005)
    assert math.isclose(regions.subarray_farfield_bound, 38.44, rel_tol=1e-12)
    assert math.isclose(regions.array_rayleigh, 761.76, rel_tol=1e-12)
    assert regions.classify(10.0) == "subarray-near-field"
    assert regions.classify(100.0) == "hspm-valid"
    assert regions.classify(1000.0) == "far-field"

    lay75 = build_layout(5, 75, (50, 50, 0, 50, 50), PITCH)
    assert math.isclose(
        field_regions(lay75, 0.005).subarray_farfield_bound, 13.69, rel_tol=1e-12
    )


def test_field_regions_single_subarray_bounds_coincide():
    lay = build_layout(1, 9, (0,), PITCH)
    regions = field_regions(lay, 0.005)
    assert regions.subarray_farfield_bound == regions.array_rayleigh


def test_radial_terms_match_scalar_finite_differences():
    lay = build_layout(3, 125, (90, 0, 90), PITCH)
    r, theta = 30.0, math.pi / 3
    terms = radial_terms(lay.subarray_x, r, theta)
    sines = arrival_sine_terms(lay.subarray_x, r, theta, terms)
    sin_a = _arrival_sine(lay.subarray_x, r, theta, terms)
    h = 1e-6

    def rk(rr, tt, k):
        return subarray_range(lay, TargetPolar(rr, tt), k)

    def sk(rr, tt, k):
        return subarray_sine(lay, TargetPolar(rr, tt), k)

    for i, k in enumerate((-1, 0, 1)):
        assert math.isclose(terms["rng"][i], rk(r, theta, k), rel_tol=1e-14)
        assert math.isclose(sin_a[i], sk(r, theta, k), rel_tol=1e-12)
        fd = (rk(r + h, theta, k) - rk(r - h, theta, k)) / (2 * h)
        assert math.isclose(terms["w"][i] / terms["rng"][i], fd, rel_tol=1e-7)
        fd = (rk(r, theta + h, k) - rk(r, theta - h, k)) / (2 * h)
        assert math.isclose(terms["dr_dt"][i], fd, rel_tol=1e-7, abs_tol=1e-9)
        fd = (sk(r + h, theta, k) - sk(r - h, theta, k)) / (2 * h)
        assert math.isclose(sines["ds_dr"][i], fd, rel_tol=1e-6, abs_tol=1e-12)
        fd = (sk(r, theta + h, k) - sk(r, theta - h, k)) / (2 * h)
        assert math.isclose(sines["ds_dt"][i], fd, rel_tol=1e-7, abs_tol=1e-9)


def test_radial_terms_centered_range_rate():
    # dr_dr_m1 is d rng / d r - 1 = w / rng - 1 evaluated without cancellation
    rng = np.random.default_rng(5)
    for _ in range(20):
        lay = random_layout(rng)
        r = float(rng.uniform(1.0, 500.0))
        theta = float(rng.uniform(-1.3, 1.3))
        terms = radial_terms(lay.subarray_x, r, theta)
        np.testing.assert_allclose(
            terms["dr_dr_m1"], terms["w"] / terms["rng"] - 1.0, rtol=0, atol=1e-13
        )


# Ranges of either float width evaluate in float64, the one precision.
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_radial_terms_broadcast_ranges_match_scalar_calls(dtype):
    lay = build_layout(5, 9, (12, 4, 0, 4, 12), PITCH)
    x = lay.element_x
    r = np.array([0.004, 0.5, 3.0, 30.0, 1e4], dtype=dtype)
    for theta in (0.0, 0.6, -1.2, math.pi / 2):
        batch = radial_terms(x[None, :], r[:, None], theta)
        assert batch.keys() == {"w", "xc", "rng", "dr_dr_m1", "dr_dt"}
        sin_a = _arrival_sine(x[None, :], r[:, None], theta, batch)
        batch.update(arrival_sine_terms(x[None, :], r[:, None], theta, batch), sin_a=sin_a)
        assert len(batch) == 9
        for i, ri in enumerate(r):
            single = radial_terms(x, ri, theta)
            sin_a = _arrival_sine(x, ri, theta, single)
            single.update(arrival_sine_terms(x, ri, theta, single), sin_a=sin_a)
            assert single.keys() == batch.keys()
            for name, values in single.items():
                assert values.dtype == np.float64
                row = np.broadcast_to(batch[name], (len(r), x.size))[i]
                assert np.array_equal(row, values), (name, i, theta)


def test_radial_shift_matches_direct_differences():
    # d_excess is the increment of rng - r, so adding back the reference
    # path's shift dr gives the direct range difference
    lay = build_layout(5, 9, (12, 4, 0, 4, 12), PITCH)
    r, theta = 8.0, 0.6
    for dr, dtheta in ((1e-3, 0.0), (0.0, 1e-3), (-2e-4, 0.0), (0.0, -2e-4)):
        shift = _radial_shift(lay.subarray_x, r, dr, _angle_terms(theta, dtheta))
        base = radial_terms(lay.subarray_x, r, theta)
        moved = radial_terms(lay.subarray_x, r + dr, theta + dtheta)
        np.testing.assert_allclose(
            shift["d_excess"] + dr, moved["rng"] - base["rng"], rtol=1e-9, atol=1e-15
        )
        base_sin = _arrival_sine(lay.subarray_x, r, theta, base)
        moved_sin = _arrival_sine(lay.subarray_x, r + dr, theta + dtheta, moved)
        d_sin = _arrival_sine_shift(lay.subarray_x, r, theta, dr, dtheta, shift)
        np.testing.assert_allclose(d_sin, moved_sin - base_sin, rtol=1e-8, atol=1e-15)


# Shifts of either float width evaluate in float64, the one precision.
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_radial_shift_stacked_shifts_match_scalar_calls(dtype):
    lay = build_layout(5, 9, (12, 4, 0, 4, 12), PITCH)
    x = lay.element_x
    dr = np.array([1e-4, -1e-4, 0.0, 0.0, 3e-3], dtype=dtype)
    dtheta = np.array([0.0, 0.0, 1e-4, -1e-4, -2e-3], dtype=dtype)
    for theta in (0.0, 0.6, -1.2):
        batch = _radial_shift(x, 8.0, dr[:, None], _angle_terms(theta, dtheta[:, None]))
        batch["d_sin"] = _arrival_sine_shift(x, 8.0, theta, dr[:, None], dtheta[:, None], batch)
        for i in range(len(dr)):
            single = _radial_shift(x, 8.0, dr[i], _angle_terms(theta, dtheta[i]))
            single["d_sin"] = _arrival_sine_shift(x, 8.0, theta, dr[i], dtheta[i], single)
            assert single.keys() == batch.keys() == {"d_excess", "rng0", "rng1", "gap0", "d_sin"}
            for name, values in single.items():
                assert values.dtype == np.float64 and values.shape == x.shape
                row = np.broadcast_to(batch[name], (len(dr), x.size))[i]
                assert np.array_equal(row, values), (name, i, theta)


def test_radial_shift_is_exact_at_the_center_abscissa():
    # at x = 0 the range is r itself and the arrival sine is sin(theta), so
    # rng - r never changes and a range shift leaves the sine alone
    x = np.array([0.0, 0.3])
    dr = np.array([[1e-3], [-2e-4], [0.0], [5e-4]])
    dtheta = np.array([[0.0], [0.0], [1e-4], [-2e-3]])
    for theta in (0.0, 0.6, -1.2):
        shift = _radial_shift(x, 8.0, dr, _angle_terms(theta, dtheta))
        d_sin = _arrival_sine_shift(x, 8.0, theta, dr, dtheta, shift)
        assert np.all(shift["d_excess"][:, 0] == 0.0)
        assert np.all(d_sin[:2, 0] == 0.0)
        assert np.all(shift["d_excess"][:, 1] != 0.0)


def test_radial_shift_rejects_nonpositive_shifted_range():
    # _radial_shift leaves the check to its callers, which make it here,
    # once for scalar and stacked shifts alike
    lay = build_layout(3, 3, (2, 0, 2), PITCH)
    with pytest.raises(InvalidConfigurationError, match="must stay positive"):
        _require_shifted_range(1.0, -1.5)
    with pytest.raises(InvalidConfigurationError, match="must stay positive"):
        _require_shifted_range(1.0, np.array([[0.5], [-1.5]]))
    _require_shifted_range(1.0, np.array([[0.5], [-0.5]]))
    shift = _radial_shift(lay.subarray_x, 1.0, np.array([[0.5], [-0.5]]),
                          _angle_terms(0.0, 0.0))
    assert shift["d_excess"].shape == (2, lay.num_subarrays)
