"""In-memory spans recorded around the benchmark's calls into qlambda.

A span holds a module, a name, a start, an end, the index of its parent span
and whether an exception left it. Spans stay in memory and are summarised
when the run ends. Self time is a span's duration minus the time its direct
children cover; children never overlap because spans are only recorded on
the thread that created the tracer.
"""
from __future__ import annotations

import functools
import threading
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter

MODULES = ("lorentz", "dirac", "amplitudes", "vacuum", "dynamics", "cli")

# dirac functions that the other modules import by name; patching those
# bindings records dirac spans nested inside amplitudes and vacuum spans
DIRAC_NAMES = ("u_spinor", "ubar", "slash", "polarization_pair", "vertex_bilinear", "spin_sum")


def module_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class NullTracer:
    """Untraced runs: calls go straight through."""

    def span(self, module: str, name: str):
        return nullcontext()

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        # [module, name, start, end, parent, error]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _open(self, module: str, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [module, name, perf_counter(), 0.0, parent, False]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, module: str, name: str):
        record = self._open(module, name)
        try:
            yield
        except BaseException:
            record[5] = True
            raise
        finally:
            self._close(record)

    def call(self, fn, *args, **kwargs):
        if threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        record = self._open(module_of(fn), fn.__name__)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            record[5] = True
            raise
        finally:
            self._close(record)

    @contextmanager
    def patched(self, namespaces):
        """Trace the calls that other modules make through names imported from dirac."""
        saved = []
        for namespace in namespaces:
            for name in DIRAC_NAMES:
                original = getattr(namespace, name, None)
                if original is None or module_of(original) != "dirac":
                    continue
                saved.append((namespace, name, original))
                setattr(namespace, name, functools.partial(self.call, original))
        try:
            yield
        finally:
            for namespace, name, original in saved:
                setattr(namespace, name, original)

    def summary(self, passes: int) -> dict:
        """Per-module calls per pass, errors, and self-time share of item time."""
        child_time = [0.0] * len(self.spans)
        for module, name, start, end, parent, error in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        calls = Counter()
        errors = Counter()
        item_time = 0.0
        for i, (module, name, start, end, parent, error) in enumerate(self.spans):
            self_time[module] += end - start - child_time[i]
            if parent < 0:
                item_time += end - start
            else:
                calls[module] += 1
                errors[module] += error
        out = {}
        for module in MODULES + ("bench",):
            out[f"{module}.self_pct"] = 100.0 * self_time[module] / item_time
        for module in MODULES:
            out[f"{module}.calls"] = calls[module] / passes
            out[f"{module}.errors"] = errors[module]
        return out
