"""Span tracing around the calls between modcrb's layers.

A Tracer replaces public functions at the module attributes through which
one layer of the package calls another (``modcrb.sweeps.crb_bounds``,
``modcrb.crb.crb_swm``, ``modcrb.oracle.steering``, ...) with wrappers that
record one span per call. The package itself is not modified; ``uninstall``
puts every original function back.

Spans are aggregated as they close, so memory stays flat however long a
run is: per span name the tracer keeps the call count, the wall-clock
duration of every call, and its self time. Self time is busy time: the
CPU time of the span's thread during the span, minus that of its direct
children on the same thread. The sweep engine runs up to eight pool
threads on few cores, where a wall-clock span mostly measures waiting for
the interpreter lock; thread CPU time does not. Pool threads do not
inherit the caller's context, so a span opened on a thread with no open
span takes the main thread's innermost open span, the enclosing sweep, as
its parent.
"""

from __future__ import annotations

import contextlib
import importlib
import threading
import time
from array import array

import numpy as np

# (module, attribute, span name) for every attribute through which a traced
# function is reached. A function reached from several modules is wrapped
# at each of them under one span name.
PROBES = (
    ("modcrb.cli", "preset", "config.preset"),
    ("modcrb.config", "build_layout", "geometry.build_layout"),
    ("modcrb.sweeps", "build_layout", "geometry.build_layout"),
    ("modcrb.oracle", "build_layout", "geometry.build_layout"),
    ("modcrb.crb", "radial_terms", "geometry.radial_terms"),
    ("modcrb.wavefront", "radial_terms", "geometry.radial_terms"),
    ("modcrb.sweeps", "crb_bounds", "crb.crb_bounds"),
    ("modcrb.oracle", "crb_bounds", "crb.crb_bounds"),
    ("modcrb.crb", "crb_swm", "crb.swm"),
    ("modcrb.crb", "crb_hspm_dist", "crb.hspm-dist"),
    ("modcrb.crb", "crb_hspm_shared", "crb.hspm-shared"),
    ("modcrb.crb", "crb_pwm", "crb.pwm"),
    ("modcrb.sweeps", "run_range_sweep", "sweeps.sweep"),
    ("modcrb.sweeps", "run_layout_sweep", "sweeps.sweep"),
    ("modcrb.sweeps", "emit_outputs", "sweeps.emit_outputs"),
    ("modcrb.sweeps", "write_csv", "sweeps.write_csv"),
    ("modcrb.sweeps", "write_json", "sweeps.write_json"),
    ("modcrb.oracle", "steering", "wavefront.steering"),
    ("modcrb.oracle", "steering_derivatives", "wavefront.steering_derivatives"),
    ("modcrb.oracle", "phase_increment", "wavefront.phase_increment"),
    ("modcrb.oracle", "verify_batch", "oracle.verify_batch"),
    ("modcrb.oracle", "cross_validate", "oracle.cross_validate"),
    ("modcrb.oracle", "crb_from_steering", "oracle.crb_from_steering"),
    ("modcrb.oracle", "fd_rebased", "oracle.fd_rebased"),
    ("modcrb.oracle", "sample_case", "oracle.sample_case"),
)

CLOSED_FORMS = ("crb.swm", "crb.hspm-dist", "crb.hspm-shared", "crb.pwm")


class _Span:
    __slots__ = ("name", "parent", "thread", "child_cpu", "threads", "crb_wall")

    def __init__(self, name: str, parent: "_Span | None") -> None:
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.child_cpu = 0.0
        self.threads: set[int] = set()
        self.crb_wall = 0.0


class _Stats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = array("d")
        self.self_time = array("d")


class Tracer:
    """Records spans at the layer boundaries listed in PROBES."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stats] = {}
        self.top_level_s = 0.0
        self.radial_points = 0
        self.flagged = 0
        self.sweep_threads: list[int] = []
        self.sweep_crb_wall_s = 0.0
        self.sweep_wall_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[_Span] = []
        self._main_ident = threading.main_thread().ident
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every probe attribute that exists in the imported package."""
        for module_name, attr, span_name in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        """Restore the original functions, in reverse order of wrapping."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _stack(self) -> list[_Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[_Span], _Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread: the main thread is blocked inside the sweep.
            main = self._main_stack
            parent = main[-1] if (stack is not main and main) else None
        span = _Span(name, parent)
        stack.append(span)
        return stack, span

    def _close(self, span: _Span, wall: float, cpu: float, result, args) -> None:
        parent = span.parent
        with self._lock:
            stats = self.stats.get(span.name)
            if stats is None:
                stats = self.stats[span.name] = _Stats()
            stats.calls += 1
            stats.total.append(wall)
            stats.self_time.append(cpu - span.child_cpu)
            if parent is None:
                self.top_level_s += wall
            elif parent.thread == span.thread:
                parent.child_cpu += cpu
            name = span.name
            if name == "geometry.radial_terms" and args:
                self.radial_points += int(np.size(args[0]))
            elif name in CLOSED_FORMS and getattr(result, "flags", ()):
                self.flagged += 1
            elif name == "crb.crb_bounds" and parent is not None and parent.name == "sweeps.sweep":
                parent.threads.add(span.thread)
                parent.crb_wall += wall
            elif name == "sweeps.sweep":
                self.sweep_threads.append(len(span.threads))
                self.sweep_crb_wall_s += span.crb_wall
                self.sweep_wall_s += wall

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            stack, span = tracer._open(name)
            result = None
            t0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                cpu = time.thread_time() - c0
                wall = time.perf_counter() - t0
                stack.pop()
                tracer._close(span, wall, cpu, result, args)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call into a layer."""
        stack, span = self._open(name)
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            yield
        finally:
            cpu = time.thread_time() - c0
            wall = time.perf_counter() - t0
            stack.pop()
            self._close(span, wall, cpu, None, ())

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats else 0

    def p50_us(self, name: str, self_time: bool) -> float:
        """Median self (busy) or wall time in microseconds; 0 if never run."""
        stats = self.stats.get(name)
        if not stats or not stats.calls:
            return 0.0
        values = stats.self_time if self_time else stats.total
        return float(np.median(np.frombuffer(values, dtype=np.float64))) * 1e6

    def busy_s(self, name: str) -> float:
        """Summed self (busy) time of one span name, seconds."""
        stats = self.stats.get(name)
        return float(sum(stats.self_time)) if stats else 0.0
