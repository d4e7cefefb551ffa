"""Command-line interface.

Subcommands:

    crb           evaluate the bounds at a single target
    sweep-range   sweep the target range over a grid
    sweep-layout  sweep the inner gap at fixed aperture
    verify        randomized cross-validation of closed forms vs oracle
    regions       report the field-region boundaries of a layout

Every subcommand accepts --config <path> and/or --preset <name>. Every
config-file key is also an inline flag (--K, --spacings, --r-start for
r_start, ...) that overrides the file value and parses as the file's value
does. Exit codes: 0 success, 1 verification failure, 2 configuration
error, 3 degenerate information in `crb --strict`, 4 numeric error (a
computed bound that is NaN or not positive, a target that coincides with
an antenna, or an overflow).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import _KEY_FIELDS, PRESET_NAMES, ExperimentConfig, _parse_value, load_config, preset
from .crb import FLAG_DEGENERATE
from .errors import InvalidConfigurationError, NumericDomainError, SingularGeometryError
from .geometry import field_regions
from .oracle import verify_batch
from .sweeps import SweepRecord, emit_outputs, run_layout_sweep, run_point, run_range_sweep

__all__ = ["main", "build_parser"]

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_CONFIG = 2
_EXIT_DEGENERATE = 3
_EXIT_NUMERIC = 4


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="config file to start from")
    parser.add_argument(
        "--preset",
        choices=PRESET_NAMES,
        help="packaged preset to start from (overridden by --config values)",
    )
    # One inline flag per config-file key, --r-start for r_start; values are
    # kept as text and parsed as the file's are.
    for key, (field, _) in _KEY_FIELDS.items():
        parser.add_argument("--" + key.replace("_", "-"), dest=f"cfg_{key}",
                            metavar=field.upper())


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Start from defaults, --preset, or --config, then apply inline flags.

    A --config file replaces the preset wholesale; inline flags override
    individual fields of whichever base was selected.
    """
    config = ExperimentConfig()
    if args.preset:
        config = preset(args.preset)
    if args.config:
        config = load_config(args.config)
    texts = {key: getattr(args, f"cfg_{key}") for key in _KEY_FIELDS}
    overrides = dict(_parse_value(key, text) for key, text in texts.items() if text is not None)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcrb",
        description="Range/angle Cramer-Rao bounds for modular antenna arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_crb = sub.add_parser("crb", help="evaluate the bounds at a single target")
    _add_config_flags(p_crb)
    p_crb.add_argument(
        "--strict",
        action="store_true",
        help="exit 3 if any requested model has degenerate information",
    )

    p_range = sub.add_parser("sweep-range", help="sweep the target range")
    _add_config_flags(p_range)

    p_layout = sub.add_parser("sweep-layout", help="sweep the inner gap")
    _add_config_flags(p_layout)

    p_verify = sub.add_parser("verify", help="randomized closed-form vs oracle check")
    p_verify.add_argument("--cases", type=int, default=500)
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--tol-analytic", type=float, default=1e-9)
    p_verify.add_argument("--tol-fd", type=float, default=1e-4)

    p_regions = sub.add_parser("regions", help="report field-region boundaries")
    _add_config_flags(p_regions)

    return parser


def _print_records(records: list[SweepRecord]) -> None:
    header = f"{'model':<12} {'sweep':>10} {'crb_r_m2':>24} {'crb_theta_rad2':>24}  flags"
    print(header)
    for rec in records:
        print(
            f"{rec.model:<12} {rec.sweep_value:>10.4g} {rec.crb_r_m2:>24.16e}"
            f" {rec.crb_theta_rad2:>24.16e}  {';'.join(rec.flags)}"
        )


def _emit_or_print(records: list[SweepRecord], config: ExperimentConfig) -> None:
    if config.out:
        written = emit_outputs(records, config.out, config.json_out, config.plot_out)
        for path in written:
            print(f"wrote {path}")
    else:
        _print_records(records)


def _cmd_crb(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    records = run_point(config)
    _emit_or_print(records, config)
    if args.strict and any(FLAG_DEGENERATE in rec.flags for rec in records):
        print("degenerate information in at least one model", file=sys.stderr)
        return _EXIT_DEGENERATE
    return _EXIT_OK


def _cmd_sweep_range(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    _emit_or_print(run_range_sweep(config), config)
    return _EXIT_OK


def _cmd_sweep_layout(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    _emit_or_print(run_layout_sweep(config), config)
    return _EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    summary = verify_batch(
        num_cases=args.cases,
        seed=args.seed,
        tol_analytic=args.tol_analytic,
        tol_fd=args.tol_fd,
    )
    print(summary.describe())
    return _EXIT_OK if summary.passed else _EXIT_VERIFY_FAILED


def _cmd_regions(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    layout = config.layout()
    target = config.target()  # crb's check: a finite positive range, a finite angle
    regions = field_regions(layout, config.wavelength)
    print(f"aperture_m             {layout.aperture:.6g}")
    print(f"subarray_farfield_m    {regions.subarray_farfield_bound:.6g}")
    print(f"array_rayleigh_m       {regions.array_rayleigh:.6g}")
    print(f"target_r_m             {target.r:.6g}")
    print(f"target_region          {regions.classify(target.r)}")
    return _EXIT_OK


_COMMANDS = {
    "crb": _cmd_crb,
    "sweep-range": _cmd_sweep_range,
    "sweep-layout": _cmd_sweep_layout,
    "verify": _cmd_verify,
    "regions": _cmd_regions,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvalidConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (NumericDomainError, SingularGeometryError, OverflowError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
