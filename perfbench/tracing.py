"""Spans and counters for the traced benchmark runs.

The benchmark times layers from outside the program: ``install`` replaces
the public functions of ``exitchoice.io``, ``simulation``, ``core``,
``estimation`` and ``design`` (in every exitchoice module that binds them)
with wrappers that record a span per call, and wraps numpy's eigen and
determinant routines to count the K x K matrices they receive while a
design search runs.  Spans are aggregated in memory per name (calls,
inclusive time, self time) rather than stored one by one, because the core
layer sees tens of thousands of calls per run.

Only the worker processes of a ``--trace 1`` run import this module; the
untraced runs execute the program unmodified.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

import numpy as np

#: Public functions timed per layer, as (module, function name).
SPANS = (
    ("io", "read_choice_csv"), ("io", "read_params_csv"),
    ("io", "read_scenarios_csv"), ("io", "write_choice_csv"),
    ("io", "write_inference_csv"), ("io", "write_probabilities_csv"),
    ("io", "write_scenarios_csv"),
    ("simulation", "generate_dataset"),
    ("core", "choice_probabilities"),
    ("estimation", "fit_mnl"), ("estimation", "inference_table"),
    ("estimation", "log_likelihood"), ("estimation", "hessian"),
    ("design", "full_factorial"), ("design", "fisher_information"),
    ("design", "d_error"), ("design", "search_design"),
)

#: Spans whose last result is kept, so that the benchmark can compute
#: counts and run extra evaluations on the same objects after a replay.
CAPTURED = ("io.read_choice_csv", "simulation.generate_dataset",
            "estimation.fit_mnl", "design.full_factorial")

#: numpy.linalg routines whose matrix arguments are counted.
LINALG = ("eigvalsh", "eigh", "eigvals", "eig", "det", "slogdet")


class Tracer:
    """Per-name span aggregates plus named counters."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.captured: dict = {}
        self.active: dict[str, int] = {}
        self._child_time: list[float] = []

    def reset(self) -> None:
        """Forget spans and counts (captured results are kept)."""
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        keep = name in CAPTURED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._child_time
            stack.append(0.0)
            self.active[name] = self.active.get(name, 0) + 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.active[name] -= 1
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total[name] = self.total.get(name, 0.0) + dt
                self.self_time[name] = (self.self_time.get(name, 0.0)
                                        + dt - children)
            if keep:
                self.captured[name] = result
            return result

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    @contextmanager
    def only(self, *names: str):
        """Keep the spans recorded inside the block for ``names`` only.

        Used for evaluations the benchmark adds after a replay, so that the
        calls they make into other layers do not inflate those layers.
        """
        saved = [dict(d) for d in (self.calls, self.total, self.self_time,
                                   self.counts)]
        try:
            yield
        finally:
            for now, before in zip((self.calls, self.total, self.self_time,
                                    self.counts), saved):
                for key in list(now):
                    if key not in names:
                        if key in before:
                            now[key] = before[key]
                        else:
                            del now[key]

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total),
                "self_s": dict(self.self_time)}


def _count_matrices(tracer: Tracer, fn):
    @functools.wraps(fn)
    def counted(a, *args, **kwargs):
        if tracer.active.get("design.search_design"):
            shape = np.shape(a)
            n = 1
            for dim in shape[:-2]:
                n *= dim
            tracer.count("design.linalg_matrices", n)
        return fn(a, *args, **kwargs)
    return counted


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of an imported exitchoice in ``tracer``."""
    import exitchoice.cli  # noqa: F401  (binds every module to wrap)
    from exitchoice.core import ModelSpec

    modules = [m for name, m in list(sys.modules.items())
               if name == "exitchoice" or name.startswith("exitchoice.")]
    for layer, attr in SPANS:
        owner = sys.modules[f"exitchoice.{layer}"]
        original = getattr(owner, attr)
        traced = tracer.wrap(f"{layer}.{attr}", original)
        for module in modules:
            if vars(module).get(attr) is original:
                setattr(module, attr, traced)
    ModelSpec.design_matrix = tracer.wrap("core.design_matrix",
                                          ModelSpec.design_matrix)
    for attr in LINALG:
        setattr(np.linalg, attr,
                _count_matrices(tracer, getattr(np.linalg, attr)))
