"""Self-test of the benchmark harness.

Usage, from the repository root: python3 bench/selftest.py

Runs a short smoke run of every workload with tracing off and on, and
checks that:

  * the last output line has exactly the keys correct, attempted, failed
    and metrics, and the run is correct with no failed op;
  * the metrics are exactly BENCHMARK.json's end-to-end metrics (trace 0)
    or per-layer metrics (trace 1), each with its declared unit;
  * in a copy of the benchmark whose stored preset CSV digests are wrong,
    every presets op fails (success_ratio 0, failed == attempted);
  * a directory holding only BENCHMARK.json and the benchmark's files,
    without the package source, makes run.py exit non-zero with no result;
  * --compare reads the results back and prints a ratio per metric.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SMOKE_SECONDS = "1"


class Failure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


def run(args: list[str], cwd: pathlib.Path = ROOT) -> tuple[int, str]:
    done = subprocess.run(args, cwd=cwd, capture_output=True, text=True, timeout=300)
    return done.returncode, done.stdout


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def smoke(spec: dict, workload: str, trace: int, out: pathlib.Path) -> None:
    code, stdout = run(RUN + [
        "--workload", workload, "--seed", "1", "--seconds", SMOKE_SECONDS,
        "--trace", str(trace), "--out", str(out),
    ])
    expect(code == 0, f"{workload} trace {trace}: exit code {code}")
    result = last_json(stdout)
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace {trace}: not a clean run: {result}")
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{workload} trace {trace}: metrics differ from BENCHMARK.json: "
           f"missing {sorted(set(units) - set(got))}, extra {sorted(set(got) - set(units))}, "
           f"units {[(n, got[n], units[n]) for n in set(got) & set(units) if got[n] != units[n]]}")
    print(f"ok  {workload:<12} trace {trace}: {result['attempted']} ops, "
          f"{len(got)} metrics")


def copy_benchmark(dest: pathlib.Path, spec: dict) -> None:
    """Copy BENCHMARK.json and the benchmark's files, and nothing else, to dest."""
    dest.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, dest / path, ignore=shutil.ignore_patterns("__pycache__"))


def wrong_digest(tmp: pathlib.Path, spec: dict) -> None:
    root = tmp / "wrong-digest"
    copy_benchmark(root, spec)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    lines = [f"{'0' * 64}  {name}.csv" for name in ("fig3", "fig4-c1", "fig4-c2")]
    (root / "bench" / "preset_csv.sha256").write_text("\n".join(lines) + "\n")
    code, stdout = run(spec["command"] + [
        "--workload", "presets", "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", "0",
    ], cwd=root)
    expect(code == 0, f"wrong digest: exit code {code}")
    result = last_json(stdout)
    expect(result["correct"] is False, "wrong digest: run reported correct")
    expect(result["failed"] == result["attempted"], f"wrong digest: {result}")
    expect(result["metrics"]["success_ratio"]["value"] == 0.0,
           f"wrong digest: success_ratio {result['metrics']['success_ratio']}")
    print(f"ok  wrong digest fails all {result['attempted']} presets ops")


def no_source(tmp: pathlib.Path, spec: dict) -> None:
    bare = tmp / "bare"
    copy_benchmark(bare, spec)
    code, stdout = run(spec["command"] + [
        "--workload", "presets", "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", "0",
    ], cwd=bare)
    expect(code != 0, "run without the package source exited 0")
    expect('"metrics"' not in stdout, "run without the package source printed a result")
    print(f"ok  without src/ run.py exits {code} and prints no result")


def compare(out: pathlib.Path) -> None:
    code, stdout = run(RUN + ["--compare", str(out), str(out)])
    expect(code == 0, f"--compare exit code {code}")
    rows = [line.split() for line in stdout.splitlines()[1:]]
    expect(len(rows) >= 3 * 8 and all(row[4] == "1.0000" for row in rows),
           f"--compare of a file with itself:\n{stdout}")
    print(f"ok  --compare prints {len(rows)} ratios")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(dir=scratch))
    try:
        out = tmp / "results.jsonl"
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace in (0, 1):
                smoke(spec, workload, trace, out)
        wrong_digest(tmp, spec)
        no_source(tmp, spec)
        compare(out)
    except Failure as exc:
        print(f"FAIL {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
