"""Shared pytest plumbing for the suite.

The acceptance tests each register a one-line verdict; the hook below
echoes those lines after the normal test report so the criterion
outcomes stay visible even when pytest captures per-test output.

The report header (and, under -q, the summary of a failing run) names the
numpy version, the SIMD targets numpy dispatches to on the CPU and the C
library: the preset, large-array and verify digest tests pin float bits,
which the libm and the SIMD kernels behind numpy's ufuncs decide. It also
names every MALLOC_* and GLIBC_TUNABLES variable set in the environment:
they change when glibc maps and trims heap memory, which the minor_faults
tests measure. The traced_peak tests measure what Python and numpy allocate,
whatever the C library.
"""

import os
import platform
import sys

import numpy as np
import pytest

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_line():
    """Callable that records one criterion verdict for the run summary."""
    return _ACCEPTANCE_LINES.append


@pytest.fixture
def minor_faults():
    """Callable (fn, repeats=5) -> mean minor page faults of a warm fn() call.

    One call warms fn up; the mean is the getrusage delta over the repeats.
    Skips the test off glibc, whose heap trimming the fault tests guard
    against.
    """
    if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
        pytest.skip("the heap trimming the fault tests guard against is glibc's")
    import resource  # POSIX only, like the condition above

    def measure(fn, repeats=5):
        fn()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(repeats):
            fn()
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / repeats

    return measure


@pytest.fixture
def traced_peak():
    """Callable fn -> tracemalloc peak, in bytes, of a warm fn() call.

    One call warms fn up (the crb workspace, numpy's caches); the peak is
    that of the next call, counted from the memory traced when it starts.
    """
    import tracemalloc

    def measure(fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak

    return measure


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if exitstatus == pytest.ExitCode.TESTS_FAILED and config.option.verbose < 0:
        # -q drops the report header, so name the platform beside the failures
        terminalreporter.write_line(pytest_report_header(config))
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def pytest_report_header(config):
    """numpy version, the SIMD targets numpy dispatches to, the C library and malloc settings."""
    targets = _umath.__cpu_baseline__ + _umath.__cpu_dispatch__
    simd = " ".join(name for name in targets if _umath.__cpu_features__.get(name)) or "none"
    libc = " ".join(platform.libc_ver()).strip() or "unknown"
    malloc = " ".join(f"{name}={value}" for name, value in sorted(os.environ.items())
                      if name.startswith("MALLOC_") or name == "GLIBC_TUNABLES") or "none"
    return f"numpy {np.__version__}, SIMD {simd}, libc {libc}, malloc env {malloc}"
