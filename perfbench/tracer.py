"""In-memory span tracer that wraps misa's public functions from outside.

Each wrapped call records a span: name, start, end, the span that caused it
and the id of the replicate it ran in. Spans are kept in memory and turned
into per-layer numbers after the traced run; nothing under ``src/`` is
changed. Every wrapper is installed where the caller looks the name up, so
names bound by ``from ... import`` are patched in the importing module.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "parent", "rep", "start", "end", "info")

    def __init__(self, name, parent, rep):
        self.name = name
        self.parent = parent
        self.rep = rep
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


class Tracer:
    """Holds the spans of one traced run and the patches that produce them.

    One span stack per thread gives each span its parent; a pool thread's
    first span takes the traced root as parent. ``install`` patches, and
    ``uninstall`` restores the original attributes.
    """

    def __init__(self):
        self.spans = []
        self.root = None
        self._local = threading.local()
        self._patches = []
        self._rep_ids = itertools.count()

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _call(self, name, fn, args, kwargs, info_of, new_rep):
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        rep = next(self._rep_ids) if new_rep else (parent.rep if parent else None)
        span = Span(name, parent, rep)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if info_of is not None:
            span.info = info_of(result)
        return result

    def wrap(self, owner, attr, name, info_of=None, new_rep=False):
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.
        ``info_of(result)`` keeps what the metrics need from the result;
        ``new_rep`` starts a new replicate id for the span and its children."""
        fn = getattr(owner, attr)  # a renamed function fails here, not silently
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs, info_of, new_rep)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    def run(self, fn, *args):
        """Call ``fn(*args)`` as the traced root span."""
        self.root = Span("root", None, None)
        self.root.start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.root.end = time.perf_counter()

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict:
        """Span -> its duration minus the part its child spans cover."""
        children = defaultdict(list)
        for sp in self.spans:
            children[sp.parent].append((sp.start, sp.end))
        return {sp: sp.duration - _covered(children.get(sp, ()))
                for sp in self.spans + [self.root]}

    def by_name(self, selfs: dict) -> dict:
        """name -> {"calls", "s" (inclusive), "self_s"}, given the
        ``self_times()`` of the run."""
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sp in self.spans:
            agg = out[sp.name]
            agg["calls"] += 1
            agg["s"] += sp.duration
            agg["self_s"] += selfs[sp]
        return out

    def under(self, span, name) -> bool:
        """Whether ``span`` has an ancestor called ``name``."""
        p = span.parent
        while p is not None:
            if p.name == name:
                return True
            p = p.parent
        return False


def install(tracer: Tracer) -> None:
    """Wrap the public functions of each measured layer of ``misa``."""
    from misa import combinatorics, harness, metrics, model, objective
    from misa import optimizer, reduction, simgen

    def sol_info(sol):
        return (sol.status.value, sol.n_iters, sol.n_evals)

    w = tracer.wrap
    w(harness, "_run_replicate", "harness.replicate", new_rep=True,
      info_of=lambda rec: rec.instance)
    w(harness, "build_instance", "simgen.build_instance")
    w(harness, "correlation_summary", "harness.correlation_summary")
    w(simgen, "sample_copula_sources", "simgen.sample_copula_sources")
    w(reduction, "reduce_data", "reduction.reduce_data",
      info_of=lambda red: sum(red.iterations))
    w(objective, "evaluate", "objective.evaluate")
    w(objective, "value_from_sources", "objective.value_from_sources")
    w(model.BlockTransform, "transform", "model.transform")
    w(optimizer, "minimize", "optimizer.minimize", info_of=sol_info)
    w(combinatorics, "run_misa", "combinatorics.run_misa")
    w(combinatorics, "gp", "combinatorics.gp")
    w(combinatorics, "match", "combinatorics.match")
    w(combinatorics, "hungarian", "combinatorics.hungarian")
    w(metrics, "hungarian", "combinatorics.hungarian")
    w(metrics, "misi", "metrics.misi")
    w(metrics, "mmse", "metrics.mmse")
