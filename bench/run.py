"""modcrb benchmark: end-to-end and per-layer metrics for one workload.

Usage, from the repository root:

    python3 bench/run.py --workload {presets,large-array,verify} \\
        --seed N --seconds S --trace {0,1} [--out results.jsonl]
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

A run pins itself to one CPU, imports modcrb from ./src, runs the
workload's ops in a closed loop with one client for S seconds, checks
every op's outputs, cross-validates sweep records against the oracle
outside the timed region, and prints:

  * one JSON line {"run_record": ...}: git sha, python and numpy
    versions, nproc, the CPU the run was pinned to, the oracle dtype's
    eps, the seed, the threads the sweep engine used, op counts, the raw
    worst oracle deviations and the failed-op ratio;
  * a table of every metric with its unit;
  * as the last line, {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:

  setup_s        median wall time of a fresh interpreter importing modcrb,
                 resolving the workload's CLI arguments (--preset and
                 overrides) through cli.build_parser, and building the
                 layouts, over cold starts spread across the run.
  op_ms_p50/p90  op latency percentiles over every op of the timed loop.
  evals_per_s    (model, point) bound pairs, or closed-form vs oracle
                 comparisons for verify, per second of op time over every
                 op of the timed loop.
  success_ratio  1 - failed ops / attempted ops. An op fails on an
                 exception, a CSV digest or round-trip mismatch, a failed
                 oracle check of its records, or a failed verify batch.
  peak_rss_mb    peak resident memory of the process after the timed loop.
  digits_analytic, digits_fd
                 -log10 of the worst closed-form vs oracle deviation
                 (analytic derivatives, finite differences) over the run's
                 oracle checks; deterministic for a given seed.

With --trace 1 the run measures seconds/2 untraced, then seconds/2 with
spans recorded at the module attributes through which modcrb's layers
call one another (tracing.py), and reports the per-layer metrics. Call
counts are per op.

--compare prints, per workload, each metric's median in NEW over its
median in BASE; both files hold the lines --out appends.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback


def _pin_to_one_cpu() -> int | None:
    """Run this process, its threads and its cold starts on one CPU.

    The sweep engine runs up to eight threads that take turns holding the
    interpreter lock. Free to use two CPUs, they pass the lock back and
    forth between them, and a large-array op is slower while the second
    CPU is idle (96-136 ms median on a 2-CPU x86_64 VM, with more CPU time
    than wall time) than while other processes keep it busy (67-80 ms).
    Op latency then follows the neighbours' load, not the program. Pinned,
    the threads share one CPU whatever the other is doing. Pinning comes
    before numpy is imported, so that every thread started later inherits
    it. Returns the CPU, or None where the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


PINNED_CPU = _pin_to_one_cpu()

import numpy as np  # noqa: E402

from tracing import CLOSED_FORMS, Tracer  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The timed loop runs in this many segments, with a burst of
#: SETUP_BURST_RUNS timed cold starts before each and after the last.
SETUP_BURSTS = 4
SETUP_BURST_RUNS = 3
#: Untimed ops before the loop.
WARMUP_OPS = 3
#: Config resolutions timed under tracing for cli.resolve and config.preset.
TRACED_RESOLVES = 20
#: Floor for a worst deviation of exactly zero, so digits stay finite.
MIN_REL_ERR = 1e-17


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("presets", "large-array", "verify"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result as one JSON line to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_modcrb():
    """Import modcrb from ./src; exit 2 when the checkout has no source."""
    if not (SRC / "modcrb" / "__init__.py").is_file():
        print(f"no modcrb source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import modcrb

    if pathlib.Path(modcrb.__file__).resolve().parent != (SRC / "modcrb").resolve():
        print(f"imported modcrb from {modcrb.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return modcrb


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _load_digests() -> dict[str, str]:
    """Reference sha256 of the preset CSVs, by preset name."""
    digests = {}
    with open(HERE / "preset_csv.sha256", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                sha, name = line.split()
                digests[name.removesuffix(".csv")] = sha
    return digests


class SetupProbe:
    """Cold starts of the workload, each a fresh interpreter (setup_probe.py).

    The first start runs untimed, so that byte-code caches exist as they do
    for an installed package. The timed starts come in bursts spread over
    the run, so that one slow or fast spell of the machine does not set
    the whole run's setup_s.
    """

    def __init__(self, argvs) -> None:
        self.command = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(argvs)]
        self.walls: list[float] = []
        self.imports: list[float] = []
        self._start()

    def _start(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        done = subprocess.run(self.command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        return wall, json.loads(done.stdout.splitlines()[-1])["import_ms"]

    def burst(self, runs: int) -> None:
        for _ in range(runs):
            wall, import_ms = self._start()
            self.walls.append(wall)
            self.imports.append(import_ms)


class Loop:
    """Latencies and outcomes of a run of consecutive ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.op_evals: list[int] = []
        self.failed: list[int] = []
        self.indices: list[int] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def evals_per_s(self) -> float:
        return sum(self.op_evals) / self.busy_s

    def extend(self, other: "Loop") -> None:
        self.latencies += other.latencies
        self.op_evals += other.op_evals
        self.failed += other.failed
        self.indices += other.indices


def run_ops(workload, first: int, seconds: float | None, count: int | None = None) -> Loop:
    """Run ops from index `first` for `seconds`, or exactly `count` ops."""
    loop = Loop()
    start = time.perf_counter()
    i = first
    while True:
        arg = workload.prepare(i)
        t0 = time.perf_counter()
        # An op that raises or fails its check is counted, and the loop goes on.
        try:
            out = workload.run(arg)
        except Exception:
            out = None
            traceback.print_exc()
        loop.latencies.append(time.perf_counter() - t0)
        loop.indices.append(i)
        try:
            if out is not None:
                workload.check(i, out)
        except Exception as exc:
            print(f"op {i} failed its check: {exc}", file=sys.stderr)
            out = None
        if out is None:
            loop.failed.append(i)
        loop.op_evals.append(0 if out is None else workload.evals(out))
        i += 1
        if count is not None:
            if len(loop.indices) >= count:
                return loop
        elif time.perf_counter() - start >= seconds:
            return loop


def _certify(workload, next_index: int, tols):
    """Run the untimed ops the certificate needs, then certify."""
    from workloads import Certificate

    extra = None
    if next_index < workload.cert_ops:
        extra = run_ops(workload, next_index, None, count=workload.cert_ops - next_index)
    try:
        cert = workload.certify(tols)
    except Exception:
        traceback.print_exc()
        cert = Certificate(all_failed=True)
    if extra is not None:
        cert.failed_ops.update(extra.failed)
    return cert


def _sweep_threads(workload) -> int:
    """Most threads the sweep engine ran crb_bounds on, over one op."""
    tracer = Tracer()
    tracer.install()
    try:
        workload.run(workload.prepare(0))
    finally:
        tracer.uninstall()
    return max(tracer.sweep_threads, default=0)


def _digits(rel_err: float) -> float:
    return -math.log10(max(rel_err, MIN_REL_ERR))


def _percentile_ms(latencies: list[float], q: float) -> float:
    return float(np.percentile(latencies, q)) * 1e3


def per_layer_metrics(tracer, ops: int, traced_busy_s: float, eps_untraced: float,
                      eps_traced: float, setup_tracer, import_ms: float, bytes_per_op: float):
    """Per-layer metrics from one traced loop of `ops` ops."""
    def per_op(name):
        return tracer.calls(name) / ops

    m = {
        "cli.import_ms": (import_ms, "ms"),
        "cli.resolve.us_p50": (setup_tracer.p50_us("cli.resolve", False), "us"),
        "config.preset.us_p50": (setup_tracer.p50_us("config.preset", False), "us"),
    }
    for name in ("geometry.build_layout", "geometry.radial_terms"):
        m[f"{name}.calls"] = (per_op(name), "calls/op")
        m[f"{name}.self_us_p50"] = (tracer.p50_us(name, True), "us")
    busy = tracer.busy_s("geometry.radial_terms")
    m["geometry.radial_terms.points_per_us"] = (
        tracer.radial_points / (busy * 1e6) if busy else 0.0, "1/us")
    for name in CLOSED_FORMS:
        m[f"{name}.calls"] = (per_op(name), "calls/op")
        m[f"{name}.self_us_p50"] = (tracer.p50_us(name, True), "us")
    forms = sum(tracer.calls(name) for name in CLOSED_FORMS)
    m["crb.flagged_ratio"] = (tracer.flagged / forms if forms else 0.0, "ratio")
    m["sweeps.sweep.self_ms_p50"] = (tracer.p50_us("sweeps.sweep", True) / 1e3, "ms")
    threads = tracer.sweep_threads
    m["sweeps.sweep.threads"] = (statistics.median(threads) if threads else 0.0, "count")
    m["sweeps.sweep.concurrency"] = (
        tracer.sweep_crb_wall_s / tracer.sweep_wall_s if tracer.sweep_wall_s else 0.0, "ratio")
    m["sweeps.write_csv.us_p50"] = (tracer.p50_us("sweeps.write_csv", False), "us")
    m["sweeps.write_json.us_p50"] = (tracer.p50_us("sweeps.write_json", False), "us")
    m["sweeps.bytes_written"] = (bytes_per_op, "B/op")
    for name in ("wavefront.steering", "wavefront.steering_derivatives",
                 "wavefront.phase_increment"):
        m[f"{name}.calls"] = (per_op(name), "calls/op")
        m[f"{name}.self_us_p50"] = (tracer.p50_us(name, True), "us")
    m["oracle.cross_validate.self_us_p50"] = (tracer.p50_us("oracle.cross_validate", True), "us")
    m["oracle.crb_from_steering.us_p50"] = (
        tracer.p50_us("oracle.crb_from_steering", False), "us")
    m["oracle.fd_rebased.self_us_p50"] = (tracer.p50_us("oracle.fd_rebased", True), "us")
    m["oracle.sample_case.us_p50"] = (tracer.p50_us("oracle.sample_case", False), "us")
    m["trace.overhead"] = (eps_untraced / eps_traced if eps_traced else 0.0, "ratio")
    m["trace.coverage"] = (tracer.top_level_s / traced_busy_s if traced_busy_s else 0.0, "ratio")
    return m


def run_workload(args, modcrb, workdir: str) -> tuple[dict, dict]:
    """Run one workload; returns (run record, final result object)."""
    import workloads  # imports modcrb, so only once src/ is on the path

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir, _load_digests())
    probe = SetupProbe(workload.argvs())

    setup_tracer = Tracer()
    if args.trace:
        setup_tracer.install()
        try:
            for _ in range(TRACED_RESOLVES):
                with setup_tracer.span("cli.resolve"):
                    workload.setup()
        finally:
            setup_tracer.uninstall()
    else:
        workload.setup()

    warm = run_ops(workload, 0, None, count=WARMUP_OPS)
    gc.collect()
    gc.freeze()
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    loop = Loop()
    probe.burst(SETUP_BURST_RUNS)
    for _ in range(SETUP_BURSTS):
        loop.extend(run_ops(workload, WARMUP_OPS + len(loop.indices), untraced_s / SETUP_BURSTS))
        probe.burst(SETUP_BURST_RUNS)
    loops = [loop]
    if args.trace:
        bytes_before = workload.bytes_written
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_ops(workload, loop.indices[-1] + 1, args.seconds / 2)
        finally:
            tracer.uninstall()
        bytes_per_op = (workload.bytes_written - bytes_before) / len(traced.indices)
        loops.append(traced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.unfreeze()

    tols = workloads.verify_tolerances()
    cert = _certify(workload, loops[-1].indices[-1] + 1, tols)
    sweep_threads = _sweep_threads(workload) if workload.name != "verify" else 0

    timed = [i for lp in loops for i in lp.indices]
    failed = {i for lp in (warm, *loops) for i in lp.failed}
    failed |= cert.failed_ops
    if cert.all_failed:
        failed |= set(timed)
    timed_failed = len(failed & set(timed))
    attempted = len(timed)
    correct = not failed and not cert.all_failed

    if args.trace:
        eps_untraced = loop.evals_per_s
        eps_traced = traced.evals_per_s
        metrics = per_layer_metrics(
            tracer, len(traced.indices), traced.busy_s, eps_untraced, eps_traced,
            setup_tracer, statistics.median(probe.imports), bytes_per_op)
    else:
        metrics = {
            "setup_s": (statistics.median(probe.walls), "s"),
            "op_ms_p50": (_percentile_ms(loop.latencies, 50), "ms"),
            "op_ms_p90": (_percentile_ms(loop.latencies, 90), "ms"),
            "evals_per_s": (loop.evals_per_s, "1/s"),
            "success_ratio": (1.0 - timed_failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "digits_analytic": (_digits(cert.max_rel_err_analytic), "digits"),
            "digits_fd": (_digits(cert.max_rel_err_fd), "digits"),
        }

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "modcrb_version": modcrb.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": PINNED_CPU,
        "oracle_eps": float(np.finfo(modcrb.oracle_dtype()).eps),
        "sweep_threads": sweep_threads,
        "ops": attempted,
        "oracle_checks": cert.checks,
        "max_rel_err_analytic": cert.max_rel_err_analytic,
        "max_rel_err_fd": cert.max_rel_err_fd,
        "failed_ratio": timed_failed / attempted,
    }
    if args.trace:
        record["evals_per_s_untraced"] = eps_untraced
        record["evals_per_s_traced"] = eps_traced
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": timed_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return record, result


def _medians(path: str) -> dict[str, dict[str, float]]:
    """Per workload, the median of each end-to-end metric over the file's runs."""
    values: dict[str, dict[str, list[float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            entry = json.loads(line)
            if entry["run_record"]["trace"]:
                continue
            per = values.setdefault(entry["run_record"]["workload"], {})
            for name, metric in entry["result"]["metrics"].items():
                per.setdefault(name, []).append(metric["value"])
    return {w: {n: statistics.median(v) for n, v in per.items()} for w, per in values.items()}


def compare(base_path: str, new_path: str) -> int:
    """Print NEW/BASE median ratios of every end-to-end metric per workload."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base, new = _medians(base_path), _medians(new_path)
    print(f"{'workload':<12} {'metric':<16} {'base':>14} {'new':>14} {'new/base':>9}  better")
    for workload in sorted(set(base) & set(new)):
        for name in better:
            if name not in base[workload] or name not in new[workload]:
                continue
            b, n = base[workload][name], new[workload][name]
            ratio = n / b if b else math.nan
            print(f"{workload:<12} {name:<16} {b:>14.6g} {n:>14.6g} {ratio:>9.4f}  {better[name]}")
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    modcrb = _import_modcrb()
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        record, result = run_workload(args, modcrb, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"run_record": record}))
    for name, metric in result["metrics"].items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"run_record": record, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
