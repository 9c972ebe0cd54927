"""Outside-in tracer for the gaussfactor package.

The tracer wraps every public module-level function of the package from
outside: nothing under `src/` knows it exists.  A wrapped function is
patched under every name a caller looks it up by, so a name imported with
`from .gausssums import continuous_sum_grid` into `factorizer` is replaced
as well as the defining module's own attribute, and so is a module-level
dict that stores the function (`verify.SUITES`).

Each call is a span.  Span stacks are kept per thread.  Work that
`factorizer.scan_series` hands to its thread pool is parented to the
`scan_series` span through a patched executor, so the workers' time lands
under the span that caused it.

Self time is a span's duration minus the time its child spans cover.
Children run in the span's own thread one after another; children in
worker threads may overlap, so their union is used and each instant of it
is shared equally among the worker spans running then.  The self times of
all spans under a root therefore add up to the root's duration, and the
time a pass spends outside every root span is reported as unattributed.

Aggregates are kept in memory (calls, self and inclusive time per function,
plus computed work counts), never one record per call, because the verify
suites make over a million calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from concurrent.futures import ThreadPoolExecutor

PACKAGE = "gaussfactor"
LAYERS = (
    "cli",
    "factorizer",
    "gausssums",
    "closedform",
    "numtheory",
    "decomposition",
    "nslit",
    "verify",
)

# Integer-argument sums of gausssums.  Calls and phasors are counted at the
# outermost of them only, so reciprocate_complete delegating to
# reciprocate_truncated is one sum of l terms, not two.
INTEGER_SUMS = {
    "gausssums.discrete_sum": lambda n_target, l, w: 2 * w.m_max + 1,
    "gausssums.standard_gauss": lambda a, b: b,
    "gausssums.finite_w": lambda q, r, m: r,
    "gausssums.reciprocate_truncated": lambda n_target, l, m_terms: m_terms,
    "gausssums.reciprocate_complete": lambda n_target, l: l,
    "gausssums.exponential_sum": lambda n_target, l, j, m_terms: m_terms,
    "gausssums.monte_carlo_sum": lambda n_target, l, sample_count, seed: sample_count,
}


class Tracer:
    """Span aggregates for one process.  `install` patches, `uninstall` restores."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, inclusive_s]
        self.counters: dict[str, float] = {}
        self.root_s = 0.0
        self._local = threading.local()
        self._local.stack = []
        self._local.sink = self.stats
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._ld_bytes = 16

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        import numpy as np

        self._ld_bytes = np.dtype(np.longdouble).itemsize
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
        ]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    wrappers[fn] = self._wrap(fn, f"{layer}.{attr}", self._hook_for(layer, attr))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, value, wrappers[value], is_item=False)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch(value, key, item, wrappers[item], is_item=True)
            if getattr(mod, "ThreadPoolExecutor", None) is ThreadPoolExecutor:
                self._patch(mod, "ThreadPoolExecutor", ThreadPoolExecutor,
                            self._executor_class(), is_item=False)

    def _patch(self, owner, key, original, replacement, *, is_item: bool) -> None:
        if is_item:
            owner[key] = replacement
        else:
            setattr(owner, key, replacement)
        self._patches.append((owner, key, original, is_item))

    def uninstall(self) -> None:
        for owner, key, original, is_item in reversed(self._patches):
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, name: str, hook):
        tracer = self
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:  # a thread this tracer did not start
                stack = local.stack = []
                local.sink = tracer.stats
            parent = stack[-1] if stack else None
            frame = [name, 0.0, None]  # name, covered by children, worker spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                covered = frame[1]
                if frame[2]:
                    covered += tracer._merge_workers(frame[2])
                sink = local.sink
                rec = sink.get(name)
                if rec is None:
                    rec = sink[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur - covered
                rec[2] += dur
                if parent is not None:
                    parent[1] += dur
                else:
                    tracer.root_s += dur
            if hook is not None:
                hook(parent, result, *args, **kwargs)
            return result

        return functools.wraps(fn)(traced)

    def _executor_class(self):
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = getattr(tracer._local, "stack", None)
                if not stack:
                    return super().submit(fn, *args, **kwargs)
                return super().submit(tracer._run_worker, stack[-1], fn, *args, **kwargs)

        return TracedExecutor

    def _run_worker(self, parent, fn, *args, **kwargs):
        """Run a pool task under a span that continues `parent` in this thread."""
        local = self._local
        name = parent[0]
        frame = [name, 0.0, None]
        local.stack = [frame]
        local.sink = sink = {}
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            rec = sink.setdefault(name, [0, 0.0, 0.0])
            rec[1] += (end - start) - frame[1]  # task time outside wrapped calls
            with self._lock:
                if parent[2] is None:
                    parent[2] = []
                parent[2].append((start, end, sink))

    def _merge_workers(self, tasks) -> float:
        """Fold worker sinks into this thread's sink, each scaled to its share
        of the wall time the workers covered; return the covered time."""
        points = sorted({t for s, e, _ in tasks for t in (s, e)})
        shares = [0.0] * len(tasks)
        union = 0.0
        for lo, hi in zip(points, points[1:]):
            active = [i for i, (s, e, _) in enumerate(tasks) if s <= lo and e >= hi]
            if active:
                union += hi - lo
                for i in active:
                    shares[i] += (hi - lo) / len(active)
        for (s, e, sink), share in zip(tasks, shares):
            _merge_into(self._local.sink, sink, share / (e - s) if e > s else 0.0)
        return union

    # -- computed work counts ---------------------------------------------

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0.0) + amount

    def _hook_for(self, layer: str, attr: str):
        name = f"{layer}.{attr}"
        if name == "gausssums.continuous_sum_grid":
            def hook(parent, result, xis, spec, w):
                phasors = len(xis) * (2 * w.m_max + 1)
                self.count("gausssums.continuous_sum_grid.phasors", phasors)
                # reduced phase (longdouble) plus phasor (complex128) per term
                self.count("gausssums.continuous_sum_grid.bytes_computed",
                           phasors * (self._ld_bytes + 16))
            return hook
        if name in INTEGER_SUMS:
            terms = INTEGER_SUMS[name]

            def hook(parent, result, *args, **kwargs):
                if parent is None or parent[0] not in INTEGER_SUMS:
                    self.count("gausssums.integer.calls", 1)
                    self.count("gausssums.integer.phasors", terms(*args, **kwargs))
            return hook
        if layer == "factorizer":
            def hook(parent, result, *args, **kwargs):
                outermost = parent is None or not parent[0].startswith("factorizer.")
                if outermost and hasattr(result, "verified_factors"):
                    self.count("factorizer.candidates", len(result.candidates))
                    self.count("factorizer.verified", len(result.verified_factors))
            return hook
        return None

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "root_s": self.root_s,
        }


def _merge_into(sink: dict, source: dict, scale: float) -> None:
    for name, (calls, self_s, incl) in source.items():
        rec = sink.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += self_s * scale
        rec[2] += incl
