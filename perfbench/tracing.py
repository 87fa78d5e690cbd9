"""Spans and counts around the package's public functions, for traced passes.

``Tracer.install()`` replaces each traced function or method with a wrapper
that records a span: name, parent span, start and end. A function imported by
name into other modules (``from .designs import enumerate_support``) is
replaced wherever the same object is bound, so calls between modules are
seen too. Counts are taken at the same boundaries. Spans stay in memory and
are written once, when the op ends. Nothing under ``src/`` changes, and
untraced ops never import this module.

Metric names are ``<module>.<entry>.<metric>``; the ``_kernels`` module
appears as ``kernels`` because a metric name must start with a letter.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import Counter

# Closed forms of the random-graph module, traced as one layer entry.
ER_CLOSED_FORMS = (
    "moment_two_pow_nbhd",
    "moment_two_pow_shared",
    "prob_no_common",
    "h_bound",
    "dense_lower_bound",
    "regime_report",
    "classify_regime",
    "expected_effective_treatments",
    "expected_informative_fraction",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name id, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """fn with a span named ``name`` around each call; ``after(result)``
        updates counts once the call returns."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        nid = self._name_id(name)
        calls = name + ".calls"

        def traced(*args, **kwargs):
            rec = [nid, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            counts[calls] += 1
            if after is not None:
                after(result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, count: str):
        """A generator function: one span per resume, since the consumer runs
        between resumes; ``count`` counts the items yielded."""
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        nid = self._name_id(name)
        calls = name + ".calls"

        def traced(*args, **kwargs):
            counts[calls] += 1
            inner = fn(*args, **kwargs)
            while True:
                rec = [nid, stack[-1], clock(), 0.0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec[3] = clock()
                    stack.pop()
                counts[count] += 1
                yield item

        return traced

    def _scan(self, fn):
        """An exhaustive graph scan, counting graphs and the peak bytes its
        allocations reach (tracemalloc sees numpy's array buffers)."""
        counts = self.counts

        def scan(n, *args):
            tracemalloc.start()
            try:
                result = fn(n, *args)
            finally:
                counts["kernels.scan_bytes_computed"] += tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            counts["kernels.graphs_scanned"] += 1 << (n * (n - 1) // 2)
            return result

        return scan

    def _function(self, module, attr: str, name: str, after=None) -> None:
        self._rebind(module, attr, self.wrap(name, getattr(module, attr), after))

    @staticmethod
    def _rebind(module, attr: str, traced) -> None:
        """Bind ``traced`` wherever the package binds ``module.attr``."""
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").split(".")[0] != "interference_lab":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def _method(self, cls, attr: str, name: str, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self.wrap(name, raw.__func__, after)))
        else:
            setattr(cls, attr, self.wrap(name, raw, after))

    def install(self) -> None:
        from interference_lab import (
            _kernels,
            cli,
            designs,
            er,
            estimators,
            exact,
            feasibility,
            graphs,
            outcomes,
        )

        counts = self.counts

        def system_shape(cert) -> None:
            counts["feasibility.system_rows"] += cert.family_size
            counts["feasibility.system_cols"] += cert.n_unknowns
            counts["feasibility.rank"] += cert.rank

        def ball_sizes(index) -> None:
            counts["graphs.ball_size_sum"] += sum(len(ball) for ball in index.closed)

        def replicates(mc) -> None:
            counts["er.mc.reps_attempted"] += mc.reps_used + mc.reps_rejected
            counts["er.mc.reps_used"] += mc.reps_used

        self._function(cli, "main", "cli.main")
        self._rebind(
            designs,
            "enumerate_support",
            self.wrap_generator(
                "designs.enumerate_support", designs.enumerate_support, "designs.support_points"
            ),
        )
        table = outcomes.PotentialOutcomeTable
        self._method(table, "observed_vector", "outcomes.observed_vector")
        self._method(table, "random", "outcomes.random")
        self._function(outcomes, "estimand_value", "outcomes.estimand_value")
        for cls in (
            estimators.DifferenceInMeans,
            estimators.HorvitzThompson,
            estimators.PureArmIPW,
            estimators.SoloTreatedIPW,
            estimators.ConstantEstimator,
            estimators.TabularEstimator,
        ):
            self._method(cls, "__call__", "estimators.call")
        self._function(exact, "exact_moments", "exact.exact_moments")
        self._function(exact, "neyman_variance_terms", "exact.neyman_variance_terms")
        self._function(feasibility, "default_witness_family", "feasibility.default_witness_family")
        self._function(
            feasibility, "unbiased_feasibility", "feasibility.unbiased_feasibility", system_shape
        )
        self._function(feasibility, "mse_adversary", "feasibility.mse_adversary")
        self._method(graphs.Graph, "from_edges", "graphs.Graph.from_edges")
        self._method(graphs.NeighborhoodIndex, "build", "graphs.NeighborhoodIndex.build", ball_sizes)
        self._method(graphs.NeighborhoodIndex, "masks", "graphs.NeighborhoodIndex.masks")
        self._function(er, "mc_expected_variance", "er.mc_expected_variance", replicates)
        self._function(er, "sample_er_graph", "er.sample_er_graph")
        for attr in ER_CLOSED_FORMS:
            self._function(er, attr, "er.closed_forms")
        self._function(_kernels, "ht_variance_terms", "kernels.ht_variance_terms")
        for attr in ("er_variance_scan", "er_moment_scan"):
            scan = self._scan(getattr(_kernels, attr))
            self._rebind(_kernels, attr, self.wrap(f"kernels.{attr}", scan))

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}


def layer_totals(dump: dict) -> Counter:
    """Counts plus ``<name>.self_s``: each span's duration minus the time its
    direct child spans cover, summed by name."""
    spans = dump["spans"]
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = Counter(dump["counts"])
    for (nid, _, start, end), child in zip(spans, covered):
        totals[dump["names"][nid] + ".self_s"] += (end - start) - child
    return totals
