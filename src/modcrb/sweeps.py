"""Sweep engines and record persistence.

Sweeps evaluate the requested wavefront models over a grid (target ranges
or inner-gap values) and return flat records ready for CSV/JSON emission.
Each model's closed form runs once per chunk of grid points, a chunk
holding at most _CHUNK_ELEMENTS abscissas (points times the model's
subarrays or antennas per point), which bounds the memory of one call
whatever the grid and array sizes. The arithmetic is elementwise, so every
record has the bits the scalar API (crb_bounds) gives for its point, and
two runs of the same config produce byte-identical files.

The CSV format is fixed: header
``sweep_var,sweep_value,model,crb_r_m2,crb_theta_rad2,flags``, UTF-8, LF
line endings, '.' decimal separator, 17 significant digits, infinities as
the literal ``inf``, and flags joined by ';' within their cell.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .crb import _abscissas, _crb_batch
from .errors import InvalidConfigurationError
from .geometry import TargetPolar, build_layout

__all__ = [
    "CSV_HEADER",
    "SweepRecord",
    "run_point",
    "run_range_sweep",
    "run_layout_sweep",
    "emit_outputs",
    "write_csv",
    "read_csv",
    "write_json",
    "write_plot_script",
]

#: Exact CSV header line, without the trailing newline.
CSV_HEADER = "sweep_var,sweep_value,model,crb_r_m2,crb_theta_rad2,flags"

# Most abscissas one closed-form call evaluates: a chunk's grid points times
# the model's abscissas per point. Peak memory grows with it. Over five
# 56-point range sweeps at K=7, M=1001 (7007 antennas), 2**14 peaked at
# 30.5 MB of RSS against 29.7 MB for one point per call; 2**16 peaked at
# 34.3 MB and the whole grid in one call at 57.2 MB.
_CHUNK_ELEMENTS = 1 << 14


@dataclass(frozen=True)
class SweepRecord:
    """One (sweep value, model) evaluation result.

    Attributes:
        sweep_var: Name of the swept variable ("r_m" or "gamma").
        sweep_value: Value of the swept variable at this record.
        model: Wavefront model token.
        crb_r_m2: Range bound, m^2 (may be inf).
        crb_theta_rad2: Angle bound, rad^2 (may be inf).
        flags: Diagnostic flags ("degenerate", "endfire"), possibly empty.
    """

    sweep_var: str
    sweep_value: float
    model: str
    crb_r_m2: float
    crb_theta_rad2: float
    flags: tuple[str, ...] = ()


def _chunks(count: int, per_point: int) -> list[slice]:
    """Slices of a grid of count points, each within _CHUNK_ELEMENTS abscissas."""
    step = max(1, _CHUNK_ELEMENTS // per_point)
    return [slice(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _records(sweep_var: str, values, models, columns) -> list[SweepRecord]:
    """Records ordered by grid position first and model order second.

    columns holds, per model, the (crb_r, crb_theta, flags) rows of every
    grid point.
    """
    tokens = [model.value for model in models]
    return [
        SweepRecord(sweep_var, value, token, *rows[i])
        for i, value in enumerate(values)
        for token, rows in zip(tokens, columns)
    ]


def run_point(config: ExperimentConfig) -> list[SweepRecord]:
    """Evaluate every configured model at the config's single target.

    Returns:
        One record per model, in the config's model order, with the
        target range as the sweep value.
    """
    layout = config.layout()
    target = config.target()
    snr = config.snr()
    models = config.model_list()
    columns = [
        _crb_batch(
            model, layout, _abscissas(model, layout), target.r, target.theta,
            config.wavelength, snr,
        ).rows()
        for model in models
    ]
    return _records("r_m", [config.r_m], models, columns)


def run_range_sweep(config: ExperimentConfig) -> list[SweepRecord]:
    """Evaluate the configured models over the config's range grid.

    The returned records are ordered by grid position first and model
    order second.
    """
    layout = config.layout()
    snr = config.snr()
    models = config.model_list()
    theta = config.target().theta
    grid = config.range_grid()
    # Validate every grid point before spending time on any evaluation.
    ranges = np.array([TargetPolar(r, theta).r for r in grid])[:, None]
    columns = []
    for model in models:
        x = _abscissas(model, layout)[None, :]
        rows = []
        for part in _chunks(len(grid), x.size):
            bounds = _crb_batch(model, layout, x, ranges[part], theta, config.wavelength, snr)
            rows += bounds.rows()
        columns.append(rows)
    return _records("r_m", grid, models, columns)


def _sweep_spacings(config: ExperimentConfig, gamma: int) -> tuple[int, ...]:
    """Gap tuple (budget-gamma, gamma, 0, gamma, budget-gamma) for K = 5."""
    if config.num_subarrays != 5:
        raise InvalidConfigurationError(
            f"layout sweeps require K = 5, got K = {config.num_subarrays}"
        )
    outer = config.gap_budget - gamma
    if gamma < 1 or outer < 1:
        raise InvalidConfigurationError(
            f"gamma = {gamma} leaves gap {outer} < 1 under budget {config.gap_budget}"
        )
    return (outer, gamma, 0, gamma, outer)


def run_layout_sweep(config: ExperimentConfig) -> list[SweepRecord]:
    """Evaluate the configured models while the inner gap gamma sweeps.

    The two end subarrays stay fixed: each side splits gap_budget pitches
    between the inner gap (gamma) and the outer gap (budget - gamma), so
    the aperture is constant across the sweep. Gamma values that would
    push either gap below 1 pitch are rejected.
    """
    target = config.target()
    snr = config.snr()
    models = config.model_list()
    gammas = range(config.gamma_start, config.gamma_stop + 1)
    # Validate the whole grid before spending time on any evaluation.
    layouts = [
        build_layout(
            config.num_subarrays,
            config.subarray_size,
            _sweep_spacings(config, gamma),
            config.pitch,
        )
        for gamma in gammas
    ]
    columns = []
    for model in models:
        rows = []
        for part in _chunks(len(layouts), _abscissas(model, layouts[0]).size):
            x = np.stack([_abscissas(model, layout) for layout in layouts[part]])
            bounds = _crb_batch(
                model, layouts[0], x, target.r, target.theta, config.wavelength, snr
            )
            rows += bounds.rows()
        columns.append(rows)
    return _records("gamma", [float(gamma) for gamma in gammas], models, columns)


def _format_float(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return format(value, ".17g")


def _parse_float(cell: str) -> float:
    if cell == "inf":
        return math.inf
    if cell == "-inf":
        return -math.inf
    return float(cell)


def write_csv(records: list[SweepRecord], path: str) -> None:
    """Write records as CSV with the fixed header and 17-digit floats."""
    if not records:
        raise InvalidConfigurationError("no records to write")
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(
            ",".join(
                (
                    rec.sweep_var,
                    _format_float(rec.sweep_value),
                    rec.model,
                    _format_float(rec.crb_r_m2),
                    _format_float(rec.crb_theta_rad2),
                    ";".join(rec.flags),
                )
            )
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_csv(path: str) -> list[SweepRecord]:
    """Parse a CSV written by write_csv back into records."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidConfigurationError(f"{path}: missing or wrong CSV header")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 6:
            raise InvalidConfigurationError(
                f"{path}:{lineno}: expected 6 cells, got {len(cells)}"
            )
        records.append(
            SweepRecord(
                sweep_var=cells[0],
                sweep_value=_parse_float(cells[1]),
                model=cells[2],
                crb_r_m2=_parse_float(cells[3]),
                crb_theta_rad2=_parse_float(cells[4]),
                flags=tuple(cells[5].split(";")) if cells[5] else (),
            )
        )
    return records


def _json_value(value) -> str:
    """A record number as json.dump writes it, infinities as strings."""
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    if isinstance(value, float):
        return float.__repr__(value) if value == value else "NaN"
    return json.dumps(value)


def write_json(records: list[SweepRecord], path: str) -> None:
    """Write records as a JSON array; infinities become the string "inf".

    The bytes are those of json.dump(payload, indent=2) plus a newline,
    where payload holds one dict per record. The fixed record shape is
    formatted directly, because json's fast C encoder is not used when an
    indent is set.
    """
    if not records:
        raise InvalidConfigurationError("no records to write")
    items = []
    for rec in records:
        if rec.flags:
            flags = "[\n      " + ",\n      ".join(map(json.dumps, rec.flags)) + "\n    ]"
        else:
            flags = "[]"
        items.append(
            "  {\n"
            f'    "sweep_var": {json.dumps(rec.sweep_var)},\n'
            f'    "sweep_value": {_json_value(rec.sweep_value)},\n'
            f'    "model": {json.dumps(rec.model)},\n'
            f'    "crb_r_m2": {_json_value(rec.crb_r_m2)},\n'
            f'    "crb_theta_rad2": {_json_value(rec.crb_theta_rad2)},\n'
            f'    "flags": {flags}\n'
            "  }"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("[\n" + ",\n".join(items) + "\n]\n")


_PLOT_TEMPLATE = '''\
#!/usr/bin/env python3
"""Plot CRB sweep results from {csv_name} (needs matplotlib)."""

import csv
import math
import os

import matplotlib.pyplot as plt

HERE = os.path.dirname(os.path.abspath(__file__))
CSV_PATH = os.path.join(HERE, {csv_rel!r})


def load(path):
    series = {{}}
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            key = row["model"]
            series.setdefault(key, {{"x": [], "r": [], "t": []}})
            series[key]["x"].append(float(row["sweep_value"]))
            series[key]["r"].append(float(row["crb_r_m2"]))
            series[key]["t"].append(float(row["crb_theta_rad2"]))
    return series


def main():
    series = load(CSV_PATH)
    fig, (ax_r, ax_t) = plt.subplots(1, 2, figsize=(11, 4.5))
    for model, data in series.items():
        finite = [(x, v) for x, v in zip(data["x"], data["r"]) if math.isfinite(v)]
        if finite:
            ax_r.semilogy([p[0] for p in finite], [p[1] for p in finite], label=model)
        ax_t.semilogy(data["x"], data["t"], label=model)
    ax_r.set_xlabel({sweep_var!r})
    ax_r.set_ylabel("range CRB (m^2)")
    ax_t.set_xlabel({sweep_var!r})
    ax_t.set_ylabel("angle CRB (rad^2)")
    for ax in (ax_r, ax_t):
        ax.grid(True, which="both", alpha=0.3)
        ax.legend()
    fig.tight_layout()
    out = os.path.splitext(CSV_PATH)[0] + ".png"
    fig.savefig(out, dpi=150)
    print(f"wrote {{out}}")


if __name__ == "__main__":
    main()
'''


def write_plot_script(records: list[SweepRecord], csv_path: str, path: str) -> None:
    """Emit a standalone matplotlib script that reads the CSV by relative path."""
    if not records:
        raise InvalidConfigurationError("no records to write")
    csv_rel = os.path.relpath(csv_path, start=os.path.dirname(os.path.abspath(path)))
    script = _PLOT_TEMPLATE.format(
        csv_name=os.path.basename(csv_path),
        csv_rel=csv_rel,
        sweep_var=records[0].sweep_var,
    )
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(script)


def emit_outputs(
    records: list[SweepRecord],
    csv_path: str,
    json_path: str | None = None,
    plot_path: str | None = None,
) -> list[str]:
    """Write the CSV (always) plus optional JSON and plot script.

    Returns:
        The list of paths written.
    """
    if not records:
        raise InvalidConfigurationError("no records to write")
    written = [csv_path]
    write_csv(records, csv_path)
    if json_path is not None:
        write_json(records, json_path)
        written.append(json_path)
    if plot_path is not None:
        write_plot_script(records, csv_path, plot_path)
        written.append(plot_path)
    return written
