"""Outside-in span recorder for the benchmark's traced runs.

The benchmark times the package from outside: it never edits program
code.  A :class:`Tracer` wraps the public entry points of each layer
*where they are called* — every ``repro.*`` module that bound the
function by name (``from .common import fit_sita_cutoffs``) gets the
wrapper, not only the defining module — and wraps class methods on the
class, so calls through instances are seen too.  Benchmark code that
calls the serving layers directly records its spans at the call site
with :meth:`Tracer.call`.

Spans live in memory as ``[name, start_ns, end_ns, parent]`` rows and
are written out once, at the end of the run.  A span's layer is the
part of its name before the first dot; its self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

#: The layers whose self times the traced run reports, in report order.
LAYERS = ("workloads", "core", "sim", "experiments", "serve", "shard")


class NullTracer:
    """The untraced run: calls go straight through, nothing is kept."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def begin(self, name: str) -> int:
        return -1

    def end(self, idx: int) -> None:
        pass


class Tracer(NullTracer):
    """Records nested spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while {popped} was open")

    def call(self, name, fn, *args, **kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    # -- wrapping program entry points ----------------------------------

    def _wrapper(self, fn, name: str, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if on_result is not None:
                on_result(idx, out)
            return out

        return traced

    def wrap_function(self, module: str, attr: str, name: str, on_result=None):
        """Wrap ``module.attr`` in every ``repro`` module that bound it."""
        original = getattr(sys.modules[module], attr)
        traced = self._wrapper(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr: str, name: str, on_result=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, on_result))

    def count_method(self, cls, attr: str, counter: str):
        """Count calls to ``cls.attr`` without a span (hot inner calls)."""
        original = cls.__dict__[attr]
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patches.append((cls, attr, original))
        setattr(cls, attr, counted)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per span name, and the seconds the ``bench.body``
        root spans last."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        body_ns = 0
        for k, (name, start, end, _) in enumerate(self.spans):
            if name == "bench.body":
                body_ns += end - start
            out[name] = out.get(name, 0.0) + (end - start - child[k]) / 1e9
        return out, body_ns / 1e9

    def as_dict(self) -> dict:
        return {
            "columns": ["name", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
            "counts": dict(self.counts),
        }
