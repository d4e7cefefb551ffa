"""Shared pytest plumbing for the suite.

The acceptance tests each register a one-line verdict; the hook below
echoes those lines after the normal test report so the criterion
outcomes stay visible even when pytest captures per-test output.

The report header (and, under -q, the summary of a failing run) names the
numpy version, the SIMD targets numpy dispatches to on the CPU and the C
library: the preset, large-array and verify digest tests pin float bits,
which the libm and the SIMD kernels behind numpy's ufuncs decide.
"""

import platform

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
    """numpy version, the SIMD targets numpy dispatches to here, and the C library."""
    targets = _umath.__cpu_baseline__ + _umath.__cpu_dispatch__
    simd = " ".join(name for name in targets if _umath.__cpu_features__.get(name)) or "none"
    libc = " ".join(platform.libc_ver()).strip() or "unknown"
    return f"numpy {np.__version__}, SIMD {simd}, libc {libc}"
