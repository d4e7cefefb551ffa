"""Config files, presets, sweep engines, CSV/JSON emission, and the CLI."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from modcrb import (
    CSV_HEADER,
    FLAG_DEGENERATE,
    FLAG_ENDFIRE,
    ExperimentConfig,
    InvalidConfigurationError,
    PRESET_NAMES,
    SPEED_OF_LIGHT,
    SweepRecord,
    TargetPolar,
    WavefrontModel,
    build_layout,
    crb_bounds,
    emit_outputs,
    load_config,
    parse_config,
    parse_models,
    preset,
    read_csv,
    run_layout_sweep,
    run_point,
    run_range_sweep,
    serialize_config,
    write_csv,
    write_json,
    write_plot_script,
)
from modcrb import sweeps
from modcrb.cli import main

MODEL_TOKENS = ("hspm-dist", "hspm-shared", "pwm", "swm")
PRESET_DIGESTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "preset_csv.sha256"
)


def small_sweep_config(**overrides):
    base = dict(r_start_m=10.0, r_stop_m=30.0, r_count=5)
    base.update(overrides)
    return dataclasses.replace(preset("fig3"), **base)


def test_config_defaults_follow_reference_setup():
    cfg = ExperimentConfig()
    assert cfg.num_subarrays == 3
    assert cfg.subarray_size == 125
    assert cfg.spacings == (90, 0, 90)
    assert cfg.models == MODEL_TOKENS
    assert math.isclose(cfg.wavelength, SPEED_OF_LIGHT / 60e9, rel_tol=1e-15)
    assert cfg.pitch == cfg.wavelength / 2.0
    assert cfg.target().theta == math.radians(60.0)
    assert cfg.snr().gamma == 1.0


def test_config_explicit_wavelength_and_pitch_override():
    cfg = ExperimentConfig(lambda_m=0.005, pitch_m=0.003)
    assert cfg.wavelength == 0.005
    assert cfg.pitch == 0.003
    assert ExperimentConfig(lambda_m=0.005).pitch == 0.0025


def test_config_validation():
    with pytest.raises(InvalidConfigurationError):
        ExperimentConfig(models=())
    with pytest.raises(InvalidConfigurationError):
        ExperimentConfig(models=("swm", "bogus"))
    with pytest.raises(InvalidConfigurationError):
        ExperimentConfig(lambda_m=-1.0)
    with pytest.raises(InvalidConfigurationError):
        ExperimentConfig(r_count=0)
    with pytest.raises(InvalidConfigurationError):
        ExperimentConfig(r_start_m=5.0, r_stop_m=1.0)
    with pytest.raises(InvalidConfigurationError):
        ExperimentConfig(gamma_start=0)


def test_range_grid_is_inclusive_and_even():
    cfg = ExperimentConfig(r_start_m=1.0, r_stop_m=56.0, r_count=56)
    grid = cfg.range_grid()
    assert len(grid) == 56
    assert grid[0] == 1.0 and grid[-1] == 56.0
    np.testing.assert_allclose(np.diff(grid), 1.0, rtol=0, atol=1e-12)
    assert ExperimentConfig(r_count=1).range_grid() == (1.0,)


def test_parse_serialize_round_trip():
    for name in PRESET_NAMES:
        cfg = preset(name)
        assert parse_config(serialize_config(cfg)) == cfg
    cfg = ExperimentConfig(out="sweep.csv", json_out="sweep.json",
                           models=("swm", "pwm"))
    assert parse_config(serialize_config(cfg)) == cfg


def test_parse_config_reports_precise_diagnostics():
    with pytest.raises(InvalidConfigurationError, match=r"conf:2: expected 'key = value'"):
        parse_config("K = 3\nnot a pair\n", source="conf")
    with pytest.raises(InvalidConfigurationError, match=r"conf:1: unknown key 'waves'"):
        parse_config("waves = many\n", source="conf")
    with pytest.raises(InvalidConfigurationError, match=r"conf:3: duplicate key 'K'.*line 1"):
        parse_config("K = 3\nM = 5\nK = 5\n", source="conf")
    with pytest.raises(InvalidConfigurationError, match=r"conf:1: bad value"):
        parse_config("K = three\n", source="conf")
    # subarray-count parity is a layout property: the file parses, the run rejects
    cfg = parse_config("K = 4\nspacings = 1,0,1,1\n", source="conf")
    with pytest.raises(InvalidConfigurationError, match=r"odd"):
        run_point(cfg)


def test_parse_config_accepts_comments_and_blanks():
    cfg = parse_config("# comment\n\nK = 5\nM = 3\nspacings = 1,1,0,1,1\n")
    assert cfg.num_subarrays == 5
    assert cfg.spacings == (1, 1, 0, 1, 1)


def test_parse_models_tokens():
    assert parse_models("all") == MODEL_TOKENS
    assert parse_models("swm, pwm") == ("swm", "pwm")
    with pytest.raises(InvalidConfigurationError):
        parse_models("swm, nope")


def test_presets_pin_reference_configurations():
    fig3 = preset("fig3")
    assert (fig3.num_subarrays, fig3.subarray_size) == (3, 125)
    assert fig3.spacings == (90, 0, 90)
    assert fig3.lambda_m == 0.005 and fig3.pitch == 0.0025
    assert (fig3.r_start_m, fig3.r_stop_m, fig3.r_count) == (1.0, 56.0, 56)

    c1 = preset("fig4-c1")
    c2 = preset("fig4-c2")
    for cfg, budget, gaps in ((c1, 100, (50, 50, 0, 50, 50)),
                              (c2, 150, (75, 75, 0, 75, 75))):
        assert (cfg.num_subarrays, cfg.subarray_size) == (5, 75)
        assert cfg.spacings == gaps
        assert cfg.gap_budget == budget
        assert (cfg.gamma_start, cfg.gamma_stop) == (1, 95)
        assert cfg.lambda_m == 0.005

    with pytest.raises(InvalidConfigurationError):
        preset("fig5")


def test_run_point_orders_models_like_the_config():
    records = run_point(preset("fig3"))
    assert [rec.model for rec in records] == list(MODEL_TOKENS)
    assert all(rec.sweep_var == "r_m" and rec.sweep_value == 30.0 for rec in records)
    by_model = {rec.model: rec for rec in records}
    assert by_model["hspm-dist"].crb_r_m2 < by_model["hspm-shared"].crb_r_m2
    assert math.isinf(by_model["pwm"].crb_r_m2)


def test_run_range_sweep_is_grid_major_and_deterministic():
    cfg = small_sweep_config()
    records = run_range_sweep(cfg)
    grid = cfg.range_grid()
    assert len(records) == len(grid) * len(MODEL_TOKENS)
    for i, r in enumerate(grid):
        chunk = records[i * 4:(i + 1) * 4]
        assert [rec.model for rec in chunk] == list(MODEL_TOKENS)
        assert all(rec.sweep_value == r for rec in chunk)
    again = run_range_sweep(cfg)
    assert records == again


def test_run_layout_sweep_splits_the_gap_budget():
    cfg = dataclasses.replace(preset("fig4-c1"), gamma_start=1, gamma_stop=3)
    records = run_layout_sweep(cfg)
    assert len(records) == 3 * 4
    assert all(rec.sweep_var == "gamma" for rec in records)
    assert [rec.sweep_value for rec in records[::4]] == [1.0, 2.0, 3.0]


def test_run_layout_sweep_validates_shape_and_budget():
    with pytest.raises(InvalidConfigurationError):
        run_layout_sweep(preset("fig3"))  # K = 3
    bad = dataclasses.replace(preset("fig4-c1"), gamma_stop=100)
    with pytest.raises(InvalidConfigurationError):
        run_layout_sweep(bad)  # outer gap would hit 0


def _pointwise_records(config, layout_sweep):
    """The sweep's records from one crb_bounds call per (grid point, model)."""
    snr = config.snr()
    target = config.target()
    if layout_sweep:
        points = [
            ("gamma", float(gamma), build_layout(
                config.num_subarrays, config.subarray_size,
                sweeps._sweep_spacings(config, gamma), config.pitch,
            ), target)
            for gamma in range(config.gamma_start, config.gamma_stop + 1)
        ]
    else:
        layout = config.layout()
        points = [("r_m", r, layout, TargetPolar(r, target.theta)) for r in config.range_grid()]
    records = []
    for sweep_var, value, layout, point in points:
        for model in config.model_list():
            pair = crb_bounds(model, layout, point, config.wavelength, snr)
            records.append(SweepRecord(sweep_var, value, model.value, pair.crb_r,
                                       pair.crb_theta, pair.flags))
    return records


_SWEEP_CASES = {
    "fig3": ("fig3", {}, False, None),
    "fig4-c1": ("fig4-c1", {}, True, None),
    "fig4-c2": ("fig4-c2", {}, True, None),
    "fig3-endfire+": ("fig3", dict(theta_deg=90.0), False, ("swm", FLAG_ENDFIRE)),
    "fig3-endfire-": ("fig3", dict(theta_deg=-90.0), False, ("hspm-dist", FLAG_ENDFIRE)),
    "single-antenna": (
        "fig3", dict(num_subarrays=1, subarray_size=1, spacings=(0,)), False,
        ("swm", FLAG_DEGENERATE)),
    # hspm-dist reports range degenerate here, inside the Rayleigh distance
    "fig4-c1-r300": ("fig4-c1", dict(theta_deg=60.0, r_m=300.0), True,
                     ("hspm-dist", FLAG_DEGENERATE)),
    # swm evaluates two points per chunk at N = 7007, so 7 points end on a
    # partial chunk
    "large-array": ("fig3", dict(num_subarrays=7, subarray_size=1001,
                                 spacings=(100, 100, 100, 0, 100, 100, 100),
                                 r_count=7, r_start_m=2.0, r_stop_m=50.0), False, None),
}


@pytest.mark.parametrize("case", list(_SWEEP_CASES))
def test_sweeps_match_pointwise_closed_forms(case):
    name, overrides, layout_sweep, flagged = _SWEEP_CASES[case]
    config = dataclasses.replace(preset(name), **overrides)
    sweep = run_layout_sweep if layout_sweep else run_range_sweep
    records = sweep(config)
    assert records == _pointwise_records(config, layout_sweep)
    if flagged is not None:
        model, flag = flagged
        assert any(rec.model == model and flag in rec.flags for rec in records)
    if case == "large-array":
        per_chunk = sweeps._CHUNK_ELEMENTS // config.layout().num_elements
        assert per_chunk > 1 and config.r_count % per_chunk != 0


def test_csv_round_trip_is_lossless(tmp_path):
    records = run_point(preset("fig3"))
    path = tmp_path / "point.csv"
    write_csv(records, str(path))
    text = path.read_bytes().decode("utf-8")
    assert text.splitlines()[0] == CSV_HEADER
    assert "\r" not in text
    assert ",inf," in text  # the planar model's range bound
    back = read_csv(str(path))
    assert back == records


def test_csv_writes_are_byte_identical(tmp_path):
    cfg = small_sweep_config()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_range_sweep(cfg), str(a))
    write_csv(run_range_sweep(cfg), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_preset_csvs_match_the_benchmark_digests(tmp_path):
    with open(PRESET_DIGESTS, encoding="utf-8") as handle:
        digests = {name: digest for digest, name in (line.split() for line in handle)}
    for name, sweep in (("fig3", run_range_sweep), ("fig4-c1", run_layout_sweep),
                        ("fig4-c2", run_layout_sweep)):
        path = tmp_path / f"{name}.csv"
        write_csv(sweep(preset(name)), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[f"{name}.csv"], name


def test_csv_reader_rejects_malformed_input(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n", encoding="utf-8")
    with pytest.raises(InvalidConfigurationError):
        read_csv(str(bad))
    bad.write_text(CSV_HEADER + "\nr_m,1.0,swm\n", encoding="utf-8")
    with pytest.raises(InvalidConfigurationError, match=r":2"):
        read_csv(str(bad))


def test_json_emission_spells_out_infinities(tmp_path):
    records = run_point(preset("fig3"))
    path = tmp_path / "point.json"
    write_json(records, str(path))
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert len(payload) == 4
    pwm = next(item for item in payload if item["model"] == "pwm")
    assert pwm["crb_r_m2"] == "inf"
    assert isinstance(pwm["crb_theta_rad2"], float)
    assert payload[0]["flags"] == []


def test_json_bytes_match_the_json_module(tmp_path):
    records = run_range_sweep(small_sweep_config()) + [
        SweepRecord("r_m", 2.5, "swm", math.inf, -math.inf, (FLAG_DEGENERATE,)),
        SweepRecord("gamma", 7.0, "hspm-dist", 1e-300, math.inf,
                    (FLAG_DEGENERATE, FLAG_ENDFIRE)),
        SweepRecord("r_m", 0.1, "pwm", -math.inf, 0.1 + 0.2, (FLAG_ENDFIRE,)),
        SweepRecord("r_m", 30, "swm", math.nan, np.float64(2.5e-7)),
    ]
    payload = [
        {
            "sweep_var": rec.sweep_var,
            "sweep_value": rec.sweep_value,
            "model": rec.model,
            "crb_r_m2": rec.crb_r_m2,
            "crb_theta_rad2": rec.crb_theta_rad2,
            "flags": list(rec.flags),
        }
        for rec in records
    ]
    for item in payload:
        for key in ("sweep_value", "crb_r_m2", "crb_theta_rad2"):
            if math.isinf(item[key]):
                item[key] = "inf" if item[key] > 0 else "-inf"
    assert {len(rec.flags) for rec in records} == {0, 1, 2}
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    path = tmp_path / "records.json"
    write_json(records, str(path))
    assert path.read_bytes() == reference.read_bytes()


def test_emit_outputs_writes_requested_files(tmp_path):
    records = run_point(preset("fig3"))
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    plot_path = tmp_path / "plot.py"
    written = emit_outputs(records, str(csv_path), str(json_path), str(plot_path))
    assert written == [str(csv_path), str(json_path), str(plot_path)]
    assert all(os.path.exists(p) for p in written)
    with pytest.raises(InvalidConfigurationError):
        emit_outputs([], str(csv_path))


def test_plot_script_renders_the_csv(tmp_path):
    pytest.importorskip("matplotlib")
    cfg = small_sweep_config()
    records = run_range_sweep(cfg)
    csv_path = tmp_path / "sweep.csv"
    plot_path = tmp_path / "plot_sweep.py"
    write_csv(records, str(csv_path))
    write_plot_script(records, str(csv_path), str(plot_path))
    env = dict(os.environ, MPLBACKEND="Agg")
    proc = subprocess.run([sys.executable, str(plot_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.png").exists()


def test_angle_bounds_overlap_in_the_valid_band():
    # the three reduced models agree on the angle bound once the target
    # leaves the immediate vicinity of the array; on this grid the spread
    # drops under 5% from r = 8 m on (it is ~257% at r = 1 m, shrinking
    # monotonically, so the qualitative overlap claim only holds there)
    records = run_range_sweep(preset("fig3"))
    by_r = {}
    for rec in records:
        by_r.setdefault(rec.sweep_value, {})[rec.model] = rec.crb_theta_rad2
    checked = 0
    for r, bounds in by_r.items():
        if r < 8.0:
            continue
        vals = [bounds[m] for m in ("hspm-dist", "hspm-shared", "pwm")]
        assert (max(vals) - min(vals)) / min(vals) <= 0.05
        checked += 1
    assert checked == 49


def test_cli_reports_a_point_evaluation(capsys):
    assert main(["crb", "--preset", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "hspm-dist" in out and "swm" in out
    assert "inf" in out  # planar range bound


def test_cli_exit_codes():
    assert main(["crb", "--preset", "fig3", "--K", "4"]) == 2  # even K
    single = ["crb", "--preset", "fig3", "--K", "1", "--spacings", "0"]
    assert main(single + ["--strict"]) == 3  # one subarray: range info degenerate
    assert main(single) == 0  # same point, but flags are only advisory
    with pytest.raises(SystemExit):
        main(["crb", "--bogus-flag", "1"])
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_cli_rejects_oversized_grids_before_building_them(tmp_path, monkeypatch, capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("grid built")

    monkeypatch.setattr(ExperimentConfig, "range_grid", no_grid)
    monkeypatch.setattr(sweeps, "build_layout", no_grid)
    csv_path = tmp_path / "huge.csv"
    assert main(["sweep-range", "--preset", "fig3", "--r-count", "100000000",
                 "--out", str(csv_path)]) == 2
    assert "r_count" in capsys.readouterr().err
    assert main(["sweep-layout", "--preset", "fig4-c1", "--gap-budget", "300000",
                 "--gamma-stop", "200000", "--out", str(csv_path)]) == 2
    assert "gamma" in capsys.readouterr().err
    assert not csv_path.exists()


def test_cli_verify_exit_contract(capsys):
    assert main(["verify", "--cases", "3", "--seed", "5"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["verify", "--cases", "3", "--seed", "5",
                 "--tol-analytic", "1e-18"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_regions_report(capsys):
    assert main(["regions", "--preset", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "38.44" in out
    assert "761.76" in out
    assert "hspm-valid" not in out  # r = 30 sits below the subarray bound
    assert "subarray-near-field" in out


def test_cli_writes_output_files(tmp_path, capsys):
    csv_path = tmp_path / "cli.csv"
    json_path = tmp_path / "cli.json"
    code = main(["crb", "--preset", "fig3", "--out", str(csv_path),
                 "--json-out", str(json_path)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert read_csv(str(csv_path))[0].model == "hspm-dist"
    assert json.loads(json_path.read_text(encoding="utf-8"))


def test_cli_sweep_range_with_inline_overrides(tmp_path):
    csv_path = tmp_path / "sweep.csv"
    code = main(["sweep-range", "--preset", "fig3", "--r-start", "10",
                 "--r-stop", "12", "--r-count", "3", "--models", "swm",
                 "--out", str(csv_path)])
    assert code == 0
    records = read_csv(str(csv_path))
    assert [rec.sweep_value for rec in records] == [10.0, 11.0, 12.0]
    assert {rec.model for rec in records} == {"swm"}


def test_cli_config_file_matches_preset(tmp_path, capsys):
    path = tmp_path / "fig3.cfg"
    path.write_text(serialize_config(preset("fig3")), encoding="utf-8")
    assert main(["crb", "--config", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert main(["crb", "--preset", "fig3"]) == 0
    from_preset = capsys.readouterr().out
    assert from_file == from_preset
    assert main(["crb", "--config", str(tmp_path / "missing.cfg")]) == 2
