"""Config files, presets, sweep engines, CSV/JSON emission, and the CLI."""

import ast
import dataclasses
import glob
import hashlib
import importlib
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

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
    SingularGeometryError,
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
from modcrb import crb as crb_module
from modcrb import sweeps
from modcrb.cli import _resolve_config, build_parser, main

MODEL_TOKENS = ("hspm-dist", "hspm-shared", "pwm", "swm")
REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PRESET_DIGESTS = os.path.join(REPO_ROOT, "bench", "preset_csv.sha256")


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


def test_run_layout_sweep_validates_shape_and_budget(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return crb_module._crb_batch(*args, **kwargs)

    monkeypatch.setattr(sweeps, "_crb_batch", counting)
    with pytest.raises(InvalidConfigurationError):
        run_layout_sweep(preset("fig3"))  # K = 3
    bad = dataclasses.replace(preset("fig4-c1"), gamma_stop=100)
    with pytest.raises(InvalidConfigurationError):
        run_layout_sweep(bad)  # the last outer gap would hit 0
    assert calls == []  # every gamma is checked before any evaluation
    run_layout_sweep(dataclasses.replace(preset("fig4-c1"), gamma_stop=3))
    assert len(calls) == 4  # one call per model


def test_range_sweep_calls_each_kernel_once_over_its_chunks(monkeypatch):
    # the kernel walks the sweep's chunks itself, in one workspace
    calls = []
    for model, (attr, kernel) in list(crb_module._KERNELS.items()):
        def counting(*args, _model=model, _kernel=kernel, **kwargs):
            calls.append(_model)
            return _kernel(*args, **kwargs)

        monkeypatch.setitem(crb_module._KERNELS, model, (attr, counting))
    _, overrides, _, _ = _SWEEP_CASES["mid-array"]
    config = dataclasses.replace(preset("fig3"), **overrides)
    assert len(crb_module._chunks(config.r_count, config.layout().num_elements)) == 3
    run_range_sweep(config)
    assert calls == list(config.model_list())


def _pointwise_records(config, kind):
    """The records of a range sweep, layout sweep or run_point (kind "range",
    "layout" or "point") from one crb_bounds call per (grid point, model)."""
    snr = config.snr()
    target = config.target()
    if kind == "layout":
        points = [
            ("gamma", float(gamma), build_layout(
                config.num_subarrays, config.subarray_size,
                sweeps._sweep_spacings(config, gamma), config.pitch,
            ), target)
            for gamma in range(config.gamma_start, config.gamma_stop + 1)
        ]
    else:
        layout = config.layout()
        grid = (config.r_m,) if kind == "point" else config.range_grid()
        points = [("r_m", r, layout, TargetPolar(r, target.theta)) for r in grid]
    records = []
    for sweep_var, value, layout, point in points:
        for model in config.model_list():
            pair = crb_bounds(model, layout, point, config.wavelength, snr)
            records.append(SweepRecord(sweep_var, value, model.value, pair.crb_r,
                                       pair.crb_theta, pair.flags))
    return records


# case -> (preset, overrides, layout sweep?, (model, flag) that some record
# must carry, or None when no record may be flagged)
_SWEEP_CASES = {
    "fig3": ("fig3", {}, False, None),
    "fig4-c1": ("fig4-c1", {}, True, None),
    "fig4-c2": ("fig4-c2", {}, True, None),
    "fig3-endfire+": ("fig3", dict(theta_deg=90.0), False, ("swm", FLAG_ENDFIRE)),
    "fig3-endfire-": ("fig3", dict(theta_deg=-90.0), False, ("hspm-dist", FLAG_ENDFIRE)),
    "fig4-c1-endfire": ("fig4-c1", dict(theta_deg=90.0), True, ("hspm-shared", FLAG_ENDFIRE)),
    "single-antenna": (
        "fig3", dict(num_subarrays=1, subarray_size=1, spacings=(0,)), False,
        ("swm", FLAG_DEGENERATE)),
    # inside the 812 m Rayleigh distance the range information is small,
    # O((A / r)^4), but well conditioned: no record may be flagged
    "fig4-c1-r300": ("fig4-c1", dict(theta_deg=60.0, r_m=300.0), True, None),
    # swm evaluates one point per call at N = 7007, a point alone holding
    # more abscissas than a chunk
    "large-array": ("fig3", dict(num_subarrays=7, subarray_size=1001,
                                 spacings=(100, 100, 100, 0, 100, 100, 100),
                                 r_count=7, r_start_m=2.0, r_stop_m=50.0), False, None),
    # swm evaluates three points per chunk at N = 2107, so 7 points end on a
    # partial chunk
    "mid-array": ("fig3", dict(num_subarrays=7, subarray_size=301,
                               spacings=(100, 100, 100, 0, 100, 100, 100),
                               r_count=7, r_start_m=2.0, r_stop_m=50.0), False, None),
}


@pytest.mark.parametrize("case", list(_SWEEP_CASES))
def test_sweeps_match_pointwise_closed_forms(case):
    name, overrides, layout_sweep, flagged = _SWEEP_CASES[case]
    config = dataclasses.replace(preset(name), **overrides)
    sweep = run_layout_sweep if layout_sweep else run_range_sweep
    records = sweep(config)
    assert records == _pointwise_records(config, "layout" if layout_sweep else "range")
    assert run_point(config) == _pointwise_records(config, "point")
    if flagged is None:
        assert not any(rec.flags for rec in records)
    else:
        model, flag = flagged
        assert any(rec.model == model and flag in rec.flags for rec in records)
    sizes = [part.stop - part.start
             for part in crb_module._chunks(config.r_count, config.layout().num_elements)]
    if case == "large-array":
        assert sizes == [1] * config.r_count
    if case == "mid-array":
        assert sizes[0] > 1 and sizes[-1] < sizes[0]


def test_concurrent_sweeps_match_serial_runs():
    # each thread's kernels work in a workspace of their own; four threads
    # that switch often
    _, overrides, _, _ = _SWEEP_CASES["large-array"]
    jobs = [(run_layout_sweep, preset("fig4-c1")),
            (run_range_sweep, dataclasses.replace(preset("fig3"), **overrides))] * 2
    serial = [sweep(config) for sweep, config in jobs]
    start = threading.Barrier(len(jobs))

    def run(job):
        start.wait(timeout=60)
        sweep, config = job
        return sweep(config)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            for _ in range(3):
                assert list(pool.map(run, jobs, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_sweep_record_is_an_immutable_hashable_named_tuple():
    rec = SweepRecord("r_m", 1.0, "swm", 2.0, 3.0)
    assert rec.flags == ()
    with pytest.raises(AttributeError):
        rec.crb_r_m2 = 4.0
    assert rec == ("r_m", 1.0, "swm", 2.0, 3.0, ())
    assert hash(rec) == hash(("r_m", 1.0, "swm", 2.0, 3.0, ()))
    assert ",".join(SweepRecord._fields) == CSV_HEADER
    flagged = rec._replace(flags=(FLAG_DEGENERATE,))
    assert flagged == ("r_m", 1.0, "swm", 2.0, 3.0, (FLAG_DEGENERATE,)) and rec.flags == ()
    assert len({rec, flagged, rec._replace()}) == 2
    assert list(rec._asdict()) == list(SweepRecord._fields)


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
    # +-inf, -0.0 and 1e-300 read back as written; repr tells -0.0 from 0.0
    # and lets NaN compare equal to itself
    records = _writer_records()
    write_csv(records, str(path))
    back = read_csv(str(path))

    def cells(rec):
        numbers = (rec.sweep_value, rec.crb_r_m2, rec.crb_theta_rad2)
        return (rec.sweep_var, rec.model, rec.flags) + tuple(repr(float(v)) for v in numbers)

    assert [cells(rec) for rec in back] == [cells(rec) for rec in records]
    assert {"inf", "-inf", "-0.0", "1e-300"} <= {c for rec in back for c in cells(rec)[3:]}


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


# The preset digests cover arrays of at most 375 antennas, and the pointwise
# comparison above runs the same kernels on both sides, so this digest is
# what pins the closed forms' bits at N = 7007.
_LARGE_ARRAY_CSV_SHA256 = "2964da76eb0fcd611821647192d29a24d4b8a72582a0cd1ac6c55f2ea4d622d5"


def test_large_array_csv_matches_its_digest(tmp_path):
    _, overrides, _, _ = _SWEEP_CASES["large-array"]
    config = dataclasses.replace(preset("fig3"), theta_deg=37.0, **overrides)
    path = tmp_path / "large-array.csv"
    write_csv(run_range_sweep(config), str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _LARGE_ARRAY_CSV_SHA256


# Memory freed at the top of glibc's heap past its trim threshold goes back
# to the operating system and faults in again on the next call. Each thread's
# kernels work in one workspace that it keeps, and a layout sweep builds its
# abscissa grid in place, so a warm sweep faults in almost nothing.


def test_large_range_sweep_does_not_page_fault(minor_faults):
    # about 4800 minor faults per sweep when each point allocated its own
    # kernel temporaries, and 0 or about 90 by heap placement when each
    # kernel call allocated and freed its own workspace
    _, overrides, _, _ = _SWEEP_CASES["large-array"]
    config = dataclasses.replace(preset("fig3"), **dict(overrides, r_count=56))
    assert minor_faults(lambda: run_range_sweep(config)) < 20


def test_layout_sweep_does_not_page_fault(minor_faults):
    # about 185 when each kernel call allocated its own workspace and the
    # grid went through an int64 index copy and a float64 cast
    config = preset("fig4-c2")
    assert minor_faults(lambda: run_layout_sweep(config)) < 20


# Names the benchmark harness reads from the package. The harness takes
# about 40 s to self-test, so a refactor that drops one of them would
# otherwise surface only as failed benchmark operations. Most entries are
# the tracer's probes, the module attributes it wraps to time a layer: it
# skips a missing probe silently, which would zero that layer's metrics
# and fail nothing.
_BENCH_NAMES = (
    ("modcrb", "__version__"),
    ("modcrb", "oracle_dtype"),
    ("modcrb.cli", "_resolve_config"),
    ("modcrb.cli", "build_parser"),
    ("modcrb.cli", "preset"),
    ("modcrb.config", "build_layout"),
    ("modcrb.crb", "radial_terms"),
    ("modcrb.geometry", "TargetPolar"),
    ("modcrb.geometry", "build_layout"),
    ("modcrb.oracle", "build_layout"),
    ("modcrb.oracle", "cross_validate"),
    ("modcrb.oracle", "sample_case"),
    ("modcrb.oracle", "verify_batch"),
    ("modcrb.sweeps", "_sweep_spacings"),
    ("modcrb.sweeps", "build_layout"),
    ("modcrb.sweeps", "emit_outputs"),
    ("modcrb.sweeps", "read_csv"),
    ("modcrb.sweeps", "run_layout_sweep"),
    ("modcrb.sweeps", "run_range_sweep"),
    ("modcrb.sweeps", "write_csv"),
    ("modcrb.sweeps", "write_json"),
    ("modcrb.wavefront", "WavefrontModel"),
    ("modcrb.wavefront", "radial_terms"),
)


def test_benchmark_reads_existing_names():
    for module, name in _BENCH_NAMES:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
    # the run record stores this eps; the verify workload reads these defaults
    assert np.finfo(importlib.import_module("modcrb").oracle_dtype()).eps == np.finfo(float).eps
    args = build_parser().parse_args(["verify"])
    assert (args.tol_analytic, args.tol_fd) == (1e-9, 1e-4)


def test_readme_python_api_runs_and_names_public_symbols(capsys):
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("## Python API", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert "PASS" in capsys.readouterr().out
    paragraph = next(p for p in section.split("\n\n") if p.startswith("Geometry helpers"))
    names = re.findall(r"`([^`]+)`", paragraph)
    assert len(names) >= 10
    public = set(importlib.import_module("modcrb").__all__)
    assert [name for name in names if name not in public] == []


def _identifiers(path):
    """Names a Python file reads: bare names, attributes and imported names."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return tree, names


def _top_level_names(tree):
    """Functions, classes and assigned names at a module's top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_every_public_name_has_a_consumer():
    # each name of modcrb.__all__ is read by another library module, read
    # by the benchmark, or documented in the README's Python API section
    modules = []
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "modcrb", "*.py")):
        if os.path.basename(path) != "__init__.py":
            tree, names = _identifiers(path)
            modules.append((_top_level_names(tree), names))
    bench = set()
    for path in glob.glob(os.path.join(REPO_ROOT, "bench", "*.py")):
        bench |= _identifiers(path)[1]
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
        section = handle.read().split("## Python API", 1)[1].split("\n## ", 1)[0]
    before, code = section.split("```python\n", 1)
    code, after = code.split("```", 1)
    readme = set(re.findall(r"`([^`]+)`", before + after)) | {
        node.name for node in ast.walk(ast.parse(code)) if isinstance(node, ast.alias)
    }
    public = importlib.import_module("modcrb").__all__
    internal = {name for name in public
                if any(name in used and name not in defined for defined, used in modules)}
    assert [name for name in public if name not in internal | bench | readme] == []


def test_readme_cli_commands_run(tmp_path, monkeypatch, capsys):
    # every modcrb line of the README's CLI block; the plot script needs matplotlib
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line) for line in lines if line.startswith("modcrb ")]
    assert len(commands) == 5
    assert [line for line in lines if line and not line.startswith("modcrb ")] == [
        "python plot_sweep.py"
    ]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()


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


def _writer_records():
    """A sweep plus records with unusual values, flags and sweep values.

    Equal but distinct values follow each other (-0.0 then 0.0, 30 then
    30.0, two NaNs), and one bound is an int, which the JSON writer formats
    cell by cell rather than as a float column.
    """
    return run_range_sweep(small_sweep_config()) + [
        SweepRecord("r_m", 2.5, "swm", math.inf, -math.inf, (FLAG_DEGENERATE,)),
        SweepRecord("gamma", 7.0, "hspm-dist", 1e-300, math.inf,
                    (FLAG_DEGENERATE, FLAG_ENDFIRE)),
        SweepRecord("r_m", 0.1, "pwm", -math.inf, 0.1 + 0.2, (FLAG_ENDFIRE,)),
        SweepRecord("r_m", 30, "swm", math.nan, np.float64(2.5e-7)),
        SweepRecord("r_m", 30.0, "pwm", 1.0, 2.0),
        SweepRecord("r_m", np.float64(0.1 + 0.2), "swm", 1.0, 2.0),
        SweepRecord("r_m", -0.0, "swm", 1.0, 2.0),
        SweepRecord("r_m", 0.0, "pwm", 1.0, 2.0),
        SweepRecord("r_m", math.nan, "swm", 1.0, 2.0),
        SweepRecord("r_m", math.nan, "pwm", 1.0, 2.0),
        SweepRecord("r_m", math.inf, "swm", 1.0, 2.0),
        SweepRecord("r_m", 1.0, "swm", 2, 3.0),
    ]


def test_csv_bytes_match_per_cell_formatting(tmp_path):
    records = _writer_records()
    lines = [CSV_HEADER] + [
        ",".join((rec.sweep_var, format(rec.sweep_value, ".17g"), rec.model,
                  format(rec.crb_r_m2, ".17g"), format(rec.crb_theta_rad2, ".17g"),
                  ";".join(rec.flags)))
        for rec in records
    ]
    path = tmp_path / "records.csv"
    write_csv(records, str(path))
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
    assert b"\nr_m,-0,swm," in path.read_bytes()


def test_json_bytes_match_the_json_module(tmp_path):
    records = _writer_records()
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


def test_writers_hold_one_block_of_records(tmp_path, traced_peak, monkeypatch):
    # 20000 records, 20 blocks: each writer peaks below the size of its
    # file (at 80000 records the one-template writers peaked at 4 times it),
    # and the blocks join to the bytes of one template of every record
    records = run_range_sweep(dataclasses.replace(preset("fig3"), r_count=5000))
    assert len(records) > 16 * sweeps._WRITE_BLOCK
    for write in (write_csv, write_json):
        path = tmp_path / f"blocks.{write.__name__}"
        peak = traced_peak(lambda: write(records, str(path)))
        written = path.read_bytes()
        assert peak < len(written), (write.__name__, peak, len(written))
        with monkeypatch.context() as patch:
            patch.setattr(sweeps, "_WRITE_BLOCK", len(records))
            write(records, str(path))
        assert path.read_bytes() == written, write.__name__


def test_writer_blocks_join_at_every_edge_cell(tmp_path, monkeypatch):
    # the edge cells of _writer_records split across blocks of every size
    # keep the bytes of one template, which test_csv_bytes_match_per_cell_formatting
    # and test_json_bytes_match_the_json_module check
    records = _writer_records()
    assert len(records) < sweeps._WRITE_BLOCK
    for write in (write_csv, write_json):
        whole = tmp_path / f"whole.{write.__name__}"
        write(records, str(whole))
        for block in (1, 2, 3, 7, len(records) - 1):
            path = tmp_path / f"block{block}.{write.__name__}"
            with monkeypatch.context() as patch:
                patch.setattr(sweeps, "_WRITE_BLOCK", block)
                write(records, str(path))
            assert path.read_bytes() == whole.read_bytes(), (write.__name__, block)


def _records_then(bad):
    """1500 fig3 records, then bad."""
    records = run_range_sweep(dataclasses.replace(preset("fig3"), r_count=375))
    assert len(records) == 1500
    return records + [bad]


# A str bound fails to format; a lone surrogate, which json.dumps escapes,
# fails to encode as CSV.
_STR_BOUND = SweepRecord("r_m", 1.0, "swm", "1.0", 2.0)
_SURROGATE = SweepRecord("r_m", 1.0, "\ud800", 1.0, 2.0)


@pytest.mark.parametrize("write, bad", [(write_csv, _STR_BOUND), (write_json, _STR_BOUND),
                                        (write_csv, _SURROGATE)])
def test_a_failing_first_block_leaves_the_file_as_it_was(tmp_path, monkeypatch, write, bad):
    records = _records_then(bad)
    monkeypatch.setattr(sweeps, "_WRITE_BLOCK", len(records))
    old = tmp_path / "old"
    old.write_bytes(b"old bytes\n" * 5000)
    for path in (old, tmp_path / "absent"):
        before = path.read_bytes() if path.exists() else None
        with pytest.raises((TypeError, UnicodeEncodeError)):
            write(records, str(path))
        assert (path.read_bytes() if path.exists() else None) == before
    assert not (tmp_path / "absent").exists()


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("write", [write_csv, write_json])
def test_a_failing_later_block_leaves_only_the_blocks_before_it(tmp_path, monkeypatch, write, block):
    # the old file is longer than the new one: none of its tail may
    # follow the new bytes
    tail = b"\n]\n" if write is write_json else b""
    if block is not None:
        monkeypatch.setattr(sweeps, "_WRITE_BLOCK", block)
    records = _records_then(_STR_BOUND)
    kept = records[:1500 // sweeps._WRITE_BLOCK * sweeps._WRITE_BLOCK]
    reference = tmp_path / "reference"
    write(kept, str(reference))
    path = tmp_path / "out"
    path.write_bytes(b"old bytes\n" * 50000)
    with pytest.raises(TypeError):
        write(records, str(path))
    expected = reference.read_bytes()
    assert path.read_bytes() == expected[:len(expected) - len(tail)]


@pytest.mark.parametrize("write", [write_csv, write_json, write_plot_script])
def test_writers_rewrite_an_existing_file_in_place(tmp_path, monkeypatch, write):
    # like open(path, "w"): the same inode, which a hard link shares, and
    # no byte of a longer old file left behind; unlike it, no O_TRUNC
    def emit(path):
        args = (records, str(tmp_path / "sweep.csv")) if write is write_plot_script else (records,)
        write(*args, str(path))

    records = run_range_sweep(small_sweep_config())
    fresh, path, link = tmp_path / "fresh", tmp_path / "out", tmp_path / "link"
    emit(fresh)
    path.write_bytes(b"a longer old file\n" * 2000)
    os.link(path, link)
    inode = os.stat(path).st_ino
    flags = []
    real_open = os.open

    def spy(file, mode, *args, **kwargs):
        flags.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    emit(path)
    monkeypatch.undo()
    assert flags and not any(mode & os.O_TRUNC for mode in flags)
    assert path.read_bytes() == link.read_bytes() == fresh.read_bytes()
    assert os.stat(path).st_ino == inode


_KILL_ON_THIRD_BLOCK = """
import dataclasses, os, signal, sys
from modcrb import sweeps
from modcrb.config import preset
records = sweeps.run_range_sweep(dataclasses.replace(preset("fig3"), r_count=375))
sweeps._WRITE_BLOCK = 400
rows, calls = sweeps._csv_rows, []
def rows_then_kill(block):
    calls.append(block)
    if len(calls) == 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return rows(block)
sweeps._csv_rows = rows_then_kill
sweeps.write_csv(records, sys.argv[1])
"""


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_a_killed_writer_leaves_the_new_head_over_the_old_tail(tmp_path):
    # the documented hazard of the in-place rewrite: no final truncate runs,
    # so the two blocks written lie over a longer old file's first bytes
    records = run_range_sweep(dataclasses.replace(preset("fig3"), r_count=375))
    head = tmp_path / "head"
    write_csv(records[:800], str(head))
    path = tmp_path / "out"
    old = b"old,record\n" * 20000
    path.write_bytes(old)
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", _KILL_ON_THIRD_BLOCK, str(path)],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    new = head.read_bytes()
    assert path.read_bytes() == new + old[len(new):]


def test_a_new_output_file_takes_the_umask(tmp_path):
    records = run_point(preset("fig3"))
    previous = os.umask(0o027)
    try:
        write_csv(records, str(tmp_path / "new.csv"))
    finally:
        os.umask(previous)
    assert os.stat(tmp_path / "new.csv").st_mode & 0o777 == 0o666 & ~0o027


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_writers_stream_into_a_fifo(tmp_path):
    # a FIFO cannot be truncated: it gets the bytes of a regular file
    records = run_range_sweep(small_sweep_config())
    for write in (write_csv, write_json):
        reference, fifo = tmp_path / "reference", tmp_path / f"{write.__name__}.fifo"
        write(records, str(reference))
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write(records, str(fifo))
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert received == [reference.read_bytes()], write.__name__


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_cli_writes_to_stdout_and_dev_null(tmp_path):
    # neither can be truncated: a pipe gets the CSV bytes, /dev/null nothing
    reference = tmp_path / "fig3.csv"
    write_csv(run_range_sweep(preset("fig3")), str(reference))
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    run = "import sys; from modcrb.cli import main; sys.exit(main(sys.argv[1:]))"
    for out, expected in (("/dev/stdout", reference.read_bytes()), ("/dev/null", b"")):
        proc = subprocess.run(
            [sys.executable, "-c", run, "sweep-range", "--preset", "fig3", "--out", out],
            env=env, capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == expected + f"wrote {out}\n".encode()


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
    # endfire alone is no degeneracy: --strict still exits 0
    assert main(["crb", "--preset", "fig3", "--models", "pwm", "--theta-deg", "90",
                 "--strict"]) == 0
    with pytest.raises(SystemExit):
        main(["crb", "--bogus-flag", "1"])
    with pytest.raises(SystemExit):
        main(["not-a-command"])


@pytest.mark.parametrize("flag, value, message", [
    ("--spacings", "1,x,1", "bad value '1,x,1' for key 'spacings'"),
    ("--K", "x", "bad value 'x' for key 'K'"),
    ("--r", "abc", "bad value 'abc' for key 'r'"),
    ("--models", "foo", "unknown wavefront model 'foo'"),
    ("--snr-db", "1e6", "snr 1000000.0 dB overflows gamma"),
])
def test_cli_bad_inline_values_are_configuration_errors(flag, value, message, capsys):
    # an inline value parses as its config-file key does: exit 2, one line
    assert main(["crb", "--preset", "fig3", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}") and err.count("\n") == 1


def test_cli_flags_set_every_config_key():
    # --r-start for r_start: each serialized key = value pair, given inline,
    # rebuilds the config
    config = dataclasses.replace(preset("fig3"), lambda_m=0.004, pitch_m=0.002,
                                 out="a.csv", json_out="a.json", plot_out="a.py")
    argv = ["crb"]
    for line in serialize_config(config).splitlines():
        key, _, value = line.partition(" = ")
        argv += ["--" + key.replace("_", "-"), value]
    assert len(argv) == 1 + 2 * len(dataclasses.fields(config))
    assert _resolve_config(build_parser().parse_args(argv)) == config


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


def test_cli_rejects_an_array_past_the_antenna_cap(capsys):
    # 3 * 349527 antennas is just past the cap: exit 2, not a memory error
    assert main(["crb", "--preset", "fig3", "--M", "349527"]) == 2
    err = capsys.readouterr().err
    assert err == "configuration error: K * M = 3 * 349527 antennas exceeds the limit of 1048576\n"


def test_cli_rejects_non_finite_range_grid_ends(tmp_path, capsys):
    csv_path = tmp_path / "inf.csv"
    assert main(["sweep-range", "--preset", "fig3", "--r-stop", "inf",
                 "--out", str(csv_path)]) == 2
    assert "r_stop_m must be finite" in capsys.readouterr().err
    assert not csv_path.exists()
    text = serialize_config(preset("fig3"))
    assert "r_start = 1.0\n" in text
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(text.replace("r_start = 1.0\n", "r_start = nan\n"), encoding="utf-8")
    assert main(["sweep-range", "--config", str(cfg)]) == 2
    assert "r_start_m must be finite" in capsys.readouterr().err


def test_cli_numeric_failures_exit_4(monkeypatch, capsys):
    def nan_kernel(x, r, theta, batch, cases):
        _, quad = crb_module._pwm_kernel(x, r, theta, batch, cases)
        return math.nan, quad

    with monkeypatch.context() as patch:
        patch.setitem(crb_module._KERNELS, WavefrontModel.PWM, ("subarray_x", nan_kernel))
        assert main(["crb", "--preset", "fig3", "--models", "pwm"]) == 4
        assert "numeric error: crb_theta" in capsys.readouterr().err

    def coincident(*args, **kwargs):
        raise SingularGeometryError("target coincides with an antenna")

    monkeypatch.setattr(crb_module, "radial_terms", coincident)
    assert main(["crb", "--preset", "fig3", "--models", "swm"]) == 4
    assert "numeric error: target coincides" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (["--preset", "fig3", "--lambda-m", "inf", "--pitch-m", "0.0025"], 2,
     "configuration error: lambda_m must be finite"),
    (["--preset", "fig3", "--lambda-m", "nan", "--pitch-m", "0.0025"], 2,
     "configuration error: lambda_m must be finite"),
    (["--freq-ghz", "nan"], 2, "configuration error: freq_ghz must be finite"),
    (["--freq-ghz", "1e-300"], 4, "numeric error"),
    (["--preset", "fig3", "--lambda-m", "1e200", "--pitch-m", "0.0025"], 4,
     "numeric error"),
    (["--preset", "fig3", "--lambda-m", "1e150", "--pitch-m", "0.0025", "--snr-db", "-3000"],
     4, "numeric error"),
])
def test_cli_wavelength_that_is_not_finite_or_overflows(argv, code, message, capsys):
    # an overflow is caught before any array arithmetic warns about it
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["crb", *argv]) == code
    err = capsys.readouterr().err
    assert message in err
    if code == 4:
        assert "wavelength" in err


@pytest.mark.parametrize("argv", [
    ["crb", "--preset", "fig3", "--pitch-m", "1e150"],
    ["crb", "--preset", "fig3", "--pitch-m", "1e300"],
    ["sweep-range", "--preset", "fig3", "--pitch-m", "1e150"],
    ["sweep-layout", "--preset", "fig4-c1", "--pitch-m", "1e300"],
])
def test_cli_pitch_that_overflows(argv, capsys):
    # the overflow names the pitch, and no numpy warning or bound row escapes
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 4
    out, err = capsys.readouterr()
    assert "numeric error" in err and "pitch" in err
    assert out == ""


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


@pytest.mark.parametrize("flag, value", [
    ("--r", "nan"), ("--r", "-5"), ("--r", "inf"), ("--theta-deg", "nan"),
])
def test_cli_regions_rejects_an_invalid_target(flag, value, capsys):
    # classify() alone would call NaN hspm-valid: it compares false against both bounds
    assert main(["regions", "--preset", "fig3", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: target ")


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


def test_cli_range_sweep_ignores_the_point_range(tmp_path, capsys):
    # a range sweep reads its grid, never --r; a point evaluation still checks it
    plain, zero = tmp_path / "plain.csv", tmp_path / "zero.csv"
    argv = ["sweep-range", "--preset", "fig3", "--r-count", "2"]
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--r", "0", "--out", str(zero)]) == 0
    assert zero.read_bytes() == plain.read_bytes()
    capsys.readouterr()
    assert main(["crb", "--preset", "fig3", "--r", "0"]) == 2
    assert "target range must be finite and positive" in capsys.readouterr().err


def test_cli_config_file_matches_preset(tmp_path, capsys):
    path = tmp_path / "fig3.cfg"
    path.write_text(serialize_config(preset("fig3")), encoding="utf-8")
    assert main(["crb", "--config", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert main(["crb", "--preset", "fig3"]) == 0
    from_preset = capsys.readouterr().out
    assert from_file == from_preset
    assert main(["crb", "--config", str(tmp_path / "missing.cfg")]) == 2
