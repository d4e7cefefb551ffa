"""Sweep engines and record persistence.

Sweeps evaluate the requested wavefront models over a grid (target ranges
or inner-gap values) and return flat records ready for CSV/JSON emission.
Grid points are evaluated in grid order, so outputs are deterministic and
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

from .config import ExperimentConfig
from .crb import CrbPair, crb_bounds
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


def _record(sweep_var: str, sweep_value: float, pair: CrbPair) -> SweepRecord:
    model = pair.model.value if pair.model is not None else ""
    return SweepRecord(
        sweep_var=sweep_var,
        sweep_value=sweep_value,
        model=model,
        crb_r_m2=pair.crb_r,
        crb_theta_rad2=pair.crb_theta,
        flags=pair.flags,
    )


def run_point(config: ExperimentConfig) -> list[SweepRecord]:
    """Evaluate every configured model at the config's single target.

    Returns:
        One record per model, in the config's model order, with the
        target range as the sweep value.
    """
    layout = config.layout()
    target = config.target()
    snr = config.snr()
    return [
        _record("r_m", config.r_m, crb_bounds(model, layout, target, config.wavelength, snr))
        for model in config.model_list()
    ]


def run_range_sweep(config: ExperimentConfig) -> list[SweepRecord]:
    """Evaluate the configured models over the config's range grid.

    The returned records are ordered by grid position first and model
    order second.
    """
    layout = config.layout()
    snr = config.snr()
    models = config.model_list()
    theta = config.target().theta
    records = []
    for r in config.range_grid():
        target = TargetPolar(r, theta)
        for model in models:
            pair = crb_bounds(model, layout, target, config.wavelength, snr)
            records.append(_record("r_m", r, pair))
    return records


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
    records = []
    for gamma, layout in zip(gammas, layouts):
        for model in models:
            pair = crb_bounds(model, layout, target, config.wavelength, snr)
            records.append(_record("gamma", float(gamma), pair))
    return records


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


def write_json(records: list[SweepRecord], path: str) -> None:
    """Write records as a JSON array; infinities become the string "inf"."""
    if not records:
        raise InvalidConfigurationError("no records to write")

    def value(v: float) -> float | str:
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v

    payload = [
        {
            "sweep_var": rec.sweep_var,
            "sweep_value": value(rec.sweep_value),
            "model": rec.model,
            "crb_r_m2": value(rec.crb_r_m2),
            "crb_theta_rad2": value(rec.crb_theta_rad2),
            "flags": list(rec.flags),
        }
        for rec in records
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


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
