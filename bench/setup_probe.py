"""One cold start of a benchmark workload, as a CLI user pays it.

Usage: python3 bench/setup_probe.py '<json list of CLI argument lists>'

In a fresh interpreter this imports modcrb from the checkout's src/, then
for each argument list builds the CLI parser, parses the arguments and
resolves the configuration through --preset and the inline overrides, and
builds the layouts that configuration describes: the config's layout for
the sweep subcommands, and the first --cases sampled layouts for verify.
It prints one JSON line with the phase times; run.py times the whole
process from outside for setup_s.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from modcrb import cli, oracle  # noqa: E402

_T1 = time.perf_counter()


def main() -> None:
    argvs = json.loads(sys.argv[1])
    t2 = time.perf_counter()
    elements = 0
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        if args.command == "verify":
            rng = np.random.default_rng(args.seed)
            for _ in range(args.cases):
                elements += oracle.sample_case(rng)[0].num_elements
        else:
            elements += cli._resolve_config(args).layout().num_elements
    t3 = time.perf_counter()
    print(json.dumps({
        "import_ms": (_T1 - _T0) * 1e3,
        "resolve_ms": (t3 - t2) * 1e3,
        "elements": elements,
    }))


if __name__ == "__main__":
    main()
