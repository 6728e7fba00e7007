"""Boundary instrumentation for the benchmark, kept outside the package.

:class:`Boundaries` replaces each public rbcsp function named in
:data:`BOUNDARIES` with a wrapper, at every attribute of every loaded
``rbcsp`` module that refers to it (``rbcsp.harness.generate``,
``rbcsp.cli.generate``, ``rbcsp.generator.generate``, ...).  Calls that go
through a module attribute therefore cross the wrapper wherever they come
from; a caller that stops going through the boundary records no span, and
the benchmark's per-batch span-count check turns that into a failure.

Untimed, the wrappers only keep the results the output checks need.  Timed,
every call also records a span ``(name, key, duration, self_time)``: self
time is the duration minus the durations of the spans nested directly
inside it.  The program is single-threaded, so nested spans never overlap,
and the self times of all spans under a root span add up to the root's
duration exactly.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# span name -> (module, function); the span's layer is the part before the dot
BOUNDARIES = {
    "harness.sweep": ("rbcsp.harness", "sweep"),
    "harness.scaling_study": ("rbcsp.harness", "scaling_study"),
    "cli.cli_main": ("rbcsp.cli", "cli_main"),
    "generator.generate": ("rbcsp.generator", "generate"),
    "solver.solve_csp": ("rbcsp.solver", "solve_csp"),
    "core.check_assignment": ("rbcsp.core", "check_assignment"),
    "encoder.encode_cnf": ("rbcsp.encoder", "encode_cnf"),
    "encoder.write_dimacs": ("rbcsp.encoder", "write_dimacs"),
    "encoder.write_csp_native": ("rbcsp.encoder", "write_csp_native"),
    "encoder.read_csp_native": ("rbcsp.encoder", "read_csp_native"),
    "encoder.write_solution": ("rbcsp.encoder", "write_solution"),
}

# results the output checks read back; other calls are only counted or timed
CAPTURED = ("generator.generate", "solver.solve_csp")

ROOT = "bench.batch"


@dataclass
class Span:
    name: str
    key: int | None
    duration: float = 0.0
    self_time: float = 0.0
    child_time: float = 0.0


@dataclass
class Boundaries:
    """Context manager that instruments the boundaries while it is open.

    ``key`` tags each span with the instance it serves: a ``generate`` call
    sets it to the request's seed, and the benchmark sets it before work of
    its own on one instance (reading a file back).
    """

    timed: bool
    key: int | None = None
    spans: list[Span] = field(default_factory=list)
    calls: dict[str, list] = field(default_factory=dict)
    _stack: list[Span] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def __enter__(self):
        loaded = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "rbcsp" or name.startswith("rbcsp."))]
        for span_name, (module_name, attr) in BOUNDARIES.items():
            # a module the workload never imported has no callers to wrap
            module = sys.modules.get(module_name)
            if module is None:
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            self.calls[span_name] = []
            for m in loaded:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, name, original))
                        setattr(m, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()
        return False

    def _wrap(self, span_name, fn):
        captured = span_name in CAPTURED
        sets_key = span_name == "generator.generate"

        def wrapper(*args, **kwargs):
            if sets_key:
                self.key = args[0].seed if args else kwargs["request"].seed
            if self.timed:
                with self.span(span_name):
                    out = fn(*args, **kwargs)
            else:
                out = fn(*args, **kwargs)
            self.calls[span_name].append((args, out) if captured else None)
            return out

        return wrapper

    @contextmanager
    def span(self, name: str):
        span = Span(name, self.key)
        self._stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - start
            span.self_time = span.duration - span.child_time
            self._stack.pop()
            if self._stack:
                self._stack[-1].child_time += span.duration
            self.spans.append(span)

    def count(self, span_name: str) -> int:
        return len(self.calls.get(span_name, ()))
