"""Sweep engines and record persistence.

Sweeps evaluate the requested wavefront models over a grid (target ranges
or inner-gap values) and return flat records ready for CSV/JSON emission.
A layout sweep builds no layout per gap value: it stacks the validated gap
rows of the whole grid and derives every abscissa from them in one integer
pass (geometry._grid_abscissas, the formula build_layout uses for one row).
Each model's kernel runs once per sweep, walking the grid in chunks of at
most crb._BATCH_ELEMENTS abscissas (points times abscissas per point), or
one point where a point alone holds more, in the one workspace each thread
keeps from its first kernel call: a warm presets or large-array op faults in
under one page (368 and 0 or 92 with a workspace per call). The arithmetic is
elementwise, so every record has the bits crb_bounds gives for its point,
and two runs of the same config produce byte-identical files. Records are
zipped from the kernels' columns, and each writer formats a block of them per pass.

The writers rewrite a file in place: open without O_TRUNC, write, truncate at
the end, as on ext4 a truncating open of an existing file costs more than
writing it again. The first block is formatted and encoded before the open, so a
record that fails there leaves the file as it was, or absent; one failing
later leaves the blocks before. A writer killed mid-file leaves the new head
in front of the old file's tail (see the README). Inode, new-file mode and
pipes or devices are as with open(path, "w").

The CSV format is fixed: header
``sweep_var,sweep_value,model,crb_r_m2,crb_theta_rad2,flags``, UTF-8, LF
line endings, '.' decimal separator, 17 significant digits, infinities as
the literal ``inf``, and flags joined by ';' within their cell.
"""

from __future__ import annotations

import json
import math
import os
import stat
from itertools import chain, cycle, repeat
from typing import NamedTuple

import numpy as np

from .config import ExperimentConfig
from .crb import _abscissas, _crb_batch, _rows
from .errors import InvalidConfigurationError
from .geometry import TargetPolar, _grid_abscissas, build_layout

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


class SweepRecord(NamedTuple):
    """One (sweep value, model) evaluation result.

    A NamedTuple: immutable and hashable, with _replace and _asdict for
    what dataclasses.replace and dataclasses.asdict gave when it was a
    frozen dataclass, and equal to a plain tuple of the same cells.

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


def _records(sweep_var: str, values, models, points) -> list[SweepRecord]:
    """Records ordered by grid position first and model order second.

    points holds, per model, the _Bounds.points of every grid point. The
    cells are zipped from the model columns, with no Python code per record.
    """
    crb_r, crb_theta, flags, _ = zip(*chain.from_iterable(zip(*points)))
    values = chain.from_iterable(zip(*[values] * len(models)))
    cells = zip(repeat(sweep_var), values, cycle([model.value for model in models]),
                crb_r, crb_theta, flags)
    return list(map(SweepRecord._make, cells))


def run_point(config: ExperimentConfig) -> list[SweepRecord]:
    """Evaluate every configured model at the config's single target.

    Returns:
        One record per model, in the config's model order, with the
        target range as the sweep value.
    """
    return _range_records(config, (config.r_m,))


def run_range_sweep(config: ExperimentConfig) -> list[SweepRecord]:
    """Evaluate the configured models over the config's range grid.

    The returned records are ordered by grid position first and model
    order second.
    """
    return _range_records(config, config.range_grid())


def _range_records(config: ExperimentConfig, grid: tuple[float, ...]) -> list[SweepRecord]:
    """Records of the configured models at the config's angle and the given ranges."""
    layout = config.layout()
    snr = config.snr()
    models = config.model_list()
    # The config's own range is not a grid point, so config.target() would
    # check a value the sweep never reads.
    theta = math.radians(config.theta_deg)
    # Validate every grid point before spending time on any evaluation.
    ranges = np.array([TargetPolar(r, theta).r for r in grid])[:, None]
    batch = _rows(layout, theta, config.wavelength, snr)
    points = [_crb_batch(model, _abscissas(model, layout)[None, :], ranges, theta, batch).points
              for model in models]
    return _records("r_m", grid, models, points)


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
    gaps = np.array([_sweep_spacings(config, gamma) for gamma in gammas], dtype=np.int64)
    layout = build_layout(config.num_subarrays, config.subarray_size, gaps[0], config.pitch)
    grid = _grid_abscissas(gaps, layout.subarray_size, layout.pitch)
    batch = _rows(layout, target.theta, config.wavelength, snr)
    points = [_crb_batch(model, _abscissas(model, grid), target.r, target.theta, batch).points
              for model in models]
    return _records("gamma", [float(gamma) for gamma in gammas], models, points)


# Records formatted per template by the writers: more than any preset or
# benchmark sweep writes (380), so those files take one pass, while a sweep
# at the grid cap holds the text of one block at a time.
_WRITE_BLOCK = 1024


def _rewrite(path: str, texts) -> None:
    """Write an iterator of texts to path as UTF-8 in place, the first encoded before the open."""
    first = next(texts).encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    with open(fd, "wb") as handle:
        try:
            handle.write(first)
            handle.writelines(text.encode("utf-8") for text in texts)
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):  # a pipe or a device is only written to
                handle.truncate()


def _block_texts(records: list[SweepRecord], text, head: str, sep: str = "", tail: str = ""):
    """head + text(first block), sep + text(block) for each later block of records, then tail."""
    if not records:
        raise InvalidConfigurationError("no records to write")
    for start in range(0, len(records), _WRITE_BLOCK):
        yield (sep if start else head) + text(records[start:start + _WRITE_BLOCK])
    yield tail


def write_csv(records: list[SweepRecord], path: str) -> None:
    """Write records as CSV with the fixed header and 17-digit floats.

    "%.17g" spells infinities "inf" and "-inf". The cells of a block of
    records fill one template of as many rows, in one formatting pass.
    """
    _rewrite(path, _block_texts(records, _csv_rows, CSV_HEADER + "\n"))


def _csv_rows(block: list[SweepRecord]) -> str:
    """The CSV rows of a block of records."""
    cells = list(chain.from_iterable(block))
    cells[5::6] = map(";".join, cells[5::6])
    return ("%s,%.17g,%s,%.17g,%.17g,%s\n" * len(block)) % tuple(cells)


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
                sweep_value=float(cells[1]),
                model=cells[2],
                crb_r_m2=float(cells[3]),
                crb_theta_rad2=float(cells[4]),
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


_JSON_SPECIALS = {"inf": '"inf"', "-inf": '"-inf"', "nan": "NaN"}  # float.__repr__ -> json.dump


def _json_numbers(column) -> list[str]:
    """_json_value of every cell of a column, in one pass where every cell is a float."""
    try:
        reprs = list(map(float.__repr__, column))
    except TypeError:  # a cell that is not a float
        return list(map(_json_value, column))
    return list(map(_JSON_SPECIALS.get, reprs, reprs))


def _json_flags(flags: tuple[str, ...]) -> str:
    """A flags tuple as json.dump(..., indent=2) writes it inside a record."""
    if not flags:
        return "[]"
    return "[\n      " + ",\n      ".join(map(json.dumps, flags)) + "\n    ]"


_JSON_RECORD = (
    "  {\n"
    '    "sweep_var": %s,\n'
    '    "sweep_value": %s,\n'
    '    "model": %s,\n'
    '    "crb_r_m2": %s,\n'
    '    "crb_theta_rad2": %s,\n'
    '    "flags": %s\n'
    "  }"
)


def write_json(records: list[SweepRecord], path: str) -> None:
    """Write records as a JSON array; infinities become the string "inf".

    The bytes are those of json.dump(payload, indent=2) plus a newline,
    where payload holds one dict per record. The fixed record shape is
    formatted directly, because json's fast C encoder is not used when an
    indent is set: each column of a block of records is converted in one
    pass (the few distinct names and flag sets encoded once each), and the
    cells fill one template of as many records.
    """
    _rewrite(path, _block_texts(records, _json_records, "[\n", ",\n", "\n]\n"))


def _json_records(block: list[SweepRecord]) -> str:
    """The JSON records of a block of records, joined by commas."""
    cells = list(chain.from_iterable(block))
    for col, encode in ((0, json.dumps), (2, json.dumps), (5, _json_flags)):
        column = cells[col::6]
        cells[col::6] = map({key: encode(key) for key in set(column)}.__getitem__, column)
    for col in (1, 3, 4):
        cells[col::6] = _json_numbers(cells[col::6])
    return ",\n".join([_JSON_RECORD] * len(block)) % tuple(cells)


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
    _rewrite(path, iter([script]))


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
    written = [csv_path]
    write_csv(records, csv_path)
    if json_path is not None:
        write_json(records, json_path)
        written.append(json_path)
    if plot_path is not None:
        write_plot_script(records, csv_path, plot_path)
        written.append(plot_path)
    return written
