"""The benchmark's workloads.

Each workload is a closed loop with one client: op i starts when op i - 1
has returned. An op's inputs come from the workload seed and the op index
alone, so a seed always yields the same ops in the same order.

presets      The paper-reproduction traffic: the fig3 range sweep and the
             fig4-c1 and fig4-c2 layout sweeps, each over all four models
             and written to CSV and JSON (984 records per op). Many small
             evaluations (K <= 5, N <= 375), so per-call dispatch in the
             closed forms, the sweep thread pool and build_layout dominate.
             The inputs are fixed by the paper.
large-array  A 56-point range sweep of all four models at K = 7, M = 1001
             (N = 7007, gaps of 100 pitches), written to CSV. Per-element
             arithmetic dominates and per-call overhead is small. The seed
             draws the target angle of every op.
verify       verify_batch over a chunk of random cases per op, with the
             batch seed derived from the workload seed and the op index.
             Exercises the oracle, the steering vectors and the finite
             differences; touches neither the sweeps nor the writers.

Every op's outputs are checked: the preset CSVs against stored sha256
digests and a read_csv round trip, the large-array CSV by round trip, and
each verify batch by its own pass/fail. After the timed loop, certify()
cross-validates sweep records against the oracle outside the timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os

import numpy as np

from modcrb import cli, geometry, oracle, sweeps, wavefront

#: Cases per verify op.
VERIFY_CASES = 10
#: verify ops whose batch errors make up the error metrics (1000 cases).
VERIFY_CERT_OPS = 100
#: large-array ops whose records the oracle spot-check samples from.
LARGE_CERT_OPS = 16
#: large-array records cross-validated per run.
LARGE_CERT_SAMPLES = 48

LARGE_ARGV = [
    "sweep-range", "--preset", "fig3",
    "--K", "7", "--M", "1001", "--spacings", "100,100,100,0,100,100,100",
]
PRESET_SWEEPS = (
    ("fig3", "sweep-range"),
    ("fig4-c1", "sweep-layout"),
    ("fig4-c2", "sweep-layout"),
)


class OpFailed(Exception):
    """An op's outputs did not pass their check."""


@dataclasses.dataclass
class Certificate:
    """Outcome of the oracle checks of one run.

    Attributes:
        checks: Closed-form vs oracle comparisons made.
        max_rel_err_analytic: Worst deviation against analytic derivatives.
        max_rel_err_fd: Worst deviation against finite differences.
        failed_ops: Indices of ops whose records failed a check.
        all_failed: A failed record is shared by every op.
    """

    checks: int = 0
    max_rel_err_analytic: float = 0.0
    max_rel_err_fd: float = 0.0
    failed_ops: set = dataclasses.field(default_factory=set)
    all_failed: bool = False

    def add(self, rel_err_analytic: float, rel_err_fd: float, checks: int = 1) -> None:
        self.checks += checks
        self.max_rel_err_analytic = max(self.max_rel_err_analytic, rel_err_analytic)
        self.max_rel_err_fd = max(self.max_rel_err_fd, rel_err_fd)


def resolve(argv: list[str]):
    """Configuration a CLI call with these arguments would run with."""
    return cli._resolve_config(cli.build_parser().parse_args(argv))


def verify_tolerances() -> tuple[float, float]:
    """The CLI's default verify thresholds (analytic, finite difference)."""
    args = cli.build_parser().parse_args(["verify"])
    return args.tol_analytic, args.tol_fd


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _check_record(cert: Certificate, report, rec, tols) -> bool:
    """Add one cross_validate report; True when the record passes."""
    cert.add(report.rel_err_analytic, report.rel_err_fd)
    same = (
        report.closed_form["crb_r_m2"] == rec.crb_r_m2
        and report.closed_form["crb_theta_rad2"] == rec.crb_theta_rad2
    )
    return same and report.rel_err_analytic <= tols[0] and report.rel_err_fd <= tols[1]


class Presets:
    name = "presets"
    cert_ops = 1

    def __init__(self, seed: int, workdir: str, digests: dict[str, str]) -> None:
        self.seed = seed
        self.digests = digests
        self.paths = {
            name: (os.path.join(workdir, f"{name}.csv"), os.path.join(workdir, f"{name}.json"))
            for name, _ in PRESET_SWEEPS
        }
        self.records = None
        self.bytes_written = 0

    def argvs(self) -> list[list[str]]:
        return [[command, "--preset", name] for name, command in PRESET_SWEEPS]

    def setup(self) -> None:
        self.configs = [resolve(argv) for argv in self.argvs()]

    def prepare(self, i: int):
        return None

    def run(self, _):
        out = []
        for (name, command), config in zip(PRESET_SWEEPS, self.configs):
            sweep = sweeps.run_range_sweep if command == "sweep-range" else sweeps.run_layout_sweep
            records = sweep(config)
            csv_path, json_path = self.paths[name]
            sweeps.emit_outputs(records, csv_path, json_path)
            out.append(records)
        return out

    def evals(self, out) -> int:
        return sum(len(records) for records in out)

    def check(self, i: int, out) -> None:
        for (name, _), records in zip(PRESET_SWEEPS, out):
            csv_path, json_path = self.paths[name]
            if _sha256(csv_path) != self.digests.get(name):
                raise OpFailed(f"{name}: CSV digest differs from the reference")
            if sweeps.read_csv(csv_path) != records:
                raise OpFailed(f"{name}: CSV round trip differs from the records")
            self.bytes_written += os.path.getsize(csv_path) + os.path.getsize(json_path)
        if self.records is None:
            self.records = out

    def certify(self, tols) -> Certificate:
        """Cross-validate every record of the first op.

        Every op writes the same digest-checked CSVs, so a record that
        fails here is a failure of every op.
        """
        cert = Certificate()
        for (name, command), config, records in zip(PRESET_SWEEPS, self.configs, self.records):
            base = config.layout()
            snr = config.snr()
            theta = config.target().theta
            for rec in records:
                if command == "sweep-range":
                    layout, target = base, geometry.TargetPolar(rec.sweep_value, theta)
                else:
                    layout = geometry.build_layout(
                        config.num_subarrays, config.subarray_size,
                        sweeps._sweep_spacings(config, int(rec.sweep_value)), config.pitch,
                    )
                    target = config.target()
                model = wavefront.WavefrontModel.parse(rec.model)
                report = oracle.cross_validate(model, layout, target, config.wavelength, snr)
                if not _check_record(cert, report, rec, tols):
                    cert.all_failed = True
        return cert


class LargeArray:
    name = "large-array"
    cert_ops = LARGE_CERT_OPS

    def __init__(self, seed: int, workdir: str, digests: dict[str, str]) -> None:
        self.seed = seed
        self.csv_path = os.path.join(workdir, "large-array.csv")
        self.rng = np.random.default_rng(seed)
        self.thetas: list[float] = []
        self.kept: dict[int, list] = {}
        self.bytes_written = 0

    def argvs(self) -> list[list[str]]:
        return [LARGE_ARGV]

    def setup(self) -> None:
        self.base = resolve(LARGE_ARGV)

    def prepare(self, i: int):
        while len(self.thetas) <= i:
            self.thetas.append(float(self.rng.uniform(-80.0, 80.0)))
        return dataclasses.replace(self.base, theta_deg=self.thetas[i])

    def run(self, config):
        records = sweeps.run_range_sweep(config)
        sweeps.emit_outputs(records, self.csv_path)
        return records

    def evals(self, out) -> int:
        return len(out)

    def check(self, i: int, out) -> None:
        if sweeps.read_csv(self.csv_path) != out:
            raise OpFailed("CSV round trip differs from the records")
        self.bytes_written += os.path.getsize(self.csv_path)
        if i < self.cert_ops:
            self.kept[i] = out

    def certify(self, tols) -> Certificate:
        """Cross-validate a seeded sample of the first cert_ops ops' records."""
        cert = Certificate()
        layout = self.base.layout()
        snr = self.base.snr()
        per_op = len(self.kept[0])
        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(self.cert_ops * per_op, size=LARGE_CERT_SAMPLES, replace=False)
        for pick in sorted(int(p) for p in picks):
            op, index = divmod(pick, per_op)
            rec = self.kept[op][index]
            target = geometry.TargetPolar(rec.sweep_value, math.radians(self.thetas[op]))
            model = wavefront.WavefrontModel.parse(rec.model)
            report = oracle.cross_validate(model, layout, target, self.base.wavelength, snr)
            if not _check_record(cert, report, rec, tols):
                cert.failed_ops.add(op)
        return cert


class Verify:
    name = "verify"
    cert_ops = VERIFY_CERT_OPS

    def __init__(self, seed: int, workdir: str, digests: dict[str, str]) -> None:
        self.seed = seed
        self.cert = Certificate()
        self.bytes_written = 0

    def argvs(self) -> list[list[str]]:
        return [["verify", "--cases", str(VERIFY_CASES), "--seed", str(self.seed)]]

    def setup(self) -> None:
        args = cli.build_parser().parse_args(self.argvs()[0])
        self.cases = args.cases
        self.tols = (args.tol_analytic, args.tol_fd)

    def prepare(self, i: int) -> int:
        return int(np.random.SeedSequence([self.seed, i]).generate_state(1)[0])

    def run(self, batch_seed: int):
        return oracle.verify_batch(
            num_cases=self.cases, seed=batch_seed,
            tol_analytic=self.tols[0], tol_fd=self.tols[1],
        )

    def evals(self, summary) -> int:
        return summary.num_cases * len(summary.max_rel_err_analytic)

    def check(self, i: int, summary) -> None:
        if i < self.cert_ops:
            self.cert.add(
                max(summary.max_rel_err_analytic.values()),
                max(summary.max_rel_err_fd.values()),
                checks=self.evals(summary),
            )
        if not summary.passed:
            raise OpFailed(f"{len(summary.failures)} comparison(s) over threshold")

    def certify(self, tols) -> Certificate:
        """The batch errors of the first cert_ops ops, gathered by check()."""
        return self.cert


WORKLOADS = {cls.name: cls for cls in (Presets, LargeArray, Verify)}
