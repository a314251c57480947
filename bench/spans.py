"""Spans around the calls into each `matchbound` module, taken from outside.

`Tracer.install` replaces public functions in the namespace of the module
that looks them up (for example `matchbound.bounds.matching_profile`, which
`bound_report` calls) with wrappers that record a span: a name, a start, an
end, the index of the parent span and the operation it belongs to. Spans
stay in memory until the run ends. Engine work is counted by replacing
`MaskProfiler` with a subclass that registers each instance, whose memo size
is read when the counting call that built it returns.
"""

from __future__ import annotations

import functools
import time

# (module, attribute looked up there, span name)
WRAPPED = [
    ("cli", "parse_graph6", "graphs.parse"),
    ("cli", "parse_bipartite", "graphs.parse"),
    ("cli", "parse_edge_list", "graphs.parse"),
    ("cli", "emit_bipartite", "graphs.emit"),
    ("cli", "bipartite_double_cover", "graphs.cover"),
    ("cli", "matching_profile", "counting.profile"),
    ("cli", "matching_marginals", "counting.marginals"),
    ("cli", "profile_to_json", "counting.emit"),
    ("cli", "bound_report", "bounds.report"),
    ("cli", "reports_to_csv", "bounds.emit"),
    ("cli", "verify_fibers", "correspondence.verify"),
    ("cli", "inequality_chain_audit", "prooflab.chain"),
    ("cli", "zx_distribution_audit", "prooflab.zx"),
    ("cli", "rk_formula_audit", "prooflab.rk"),
    ("cli", "run_campaign", "campaigns.run"),
    ("bounds", "matching_profile", "counting.profile"),
    ("bounds", "matching_marginals", "counting.marginals"),
    ("bounds", "as_bipartite", "graphs.bipartition"),
    ("bounds", "genminc_bound", "bounds.genminc"),
    ("bounds", "wild_bound", "bounds.wild"),
    ("campaigns", "matching_profile", "counting.profile"),
    ("campaigns", "umc_extremal_profile", "counting.extremal"),
    ("campaigns", "genminc_bound", "bounds.genminc"),
    ("campaigns", "wild_bound", "bounds.wild"),
    ("campaigns", "random_regular", "graphs.generate"),
    ("campaigns", "emit_bipartite", "graphs.emit"),
    ("campaigns", "emit_graph6", "graphs.emit"),
    ("correspondence", "matching_profile", "counting.profile"),
    ("correspondence", "bipartite_double_cover", "graphs.cover"),
    ("prooflab", "thm_bipartite_bound", "bounds.closed_form"),
]
ROOT_SPAN = "cli.dispatch"
COUNTING_SPANS = ("counting.profile", "counting.marginals")

# per-layer metric -> the span whose self time it sums
SELF_TIME_METRICS = {
    "cli.self_s": ROOT_SPAN,
    "graphs.parse_s": "graphs.parse",
    "graphs.generate_s": "graphs.generate",
    "counting.profile_s": "counting.profile",
    "counting.marginals_s": "counting.marginals",
    "bounds.report_s": "bounds.report",
    "bounds.genminc_s": "bounds.genminc",
    "bounds.wild_s": "bounds.wild",
    "correspondence.verify_s": "correspondence.verify",
    "prooflab.chain_s": "prooflab.chain",
    "prooflab.zx_s": "prooflab.zx",
    "prooflab.rk_s": "prooflab.rk",
    "campaigns.self_s": "campaigns.run",
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []    # [name, start, end, parent, op]
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._engines: list = []
        self.op = -1
        self.engine_runs = 0
        self.states = 0
        self.peak_states = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for mod_name, attr, span in WRAPPED:
            module = getattr(self.package, mod_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original))
        counting = self.package.counting
        self._saved.append((counting, "MaskProfiler", counting.MaskProfiler))
        counting.MaskProfiler = self._engine_class(counting.MaskProfiler)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        flush = name in COUNTING_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if flush:
                    self._flush_engines()
        return traced

    def _engine_class(self, base):
        engines = self._engines

        class TracedProfiler(base):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)
        return TracedProfiler

    def _flush_engines(self) -> None:
        for engine in self._engines:
            size = len(engine.memo)
            self.engine_runs += 1
            self.states += size
            self.peak_states = max(self.peak_states, size)
        self._engines.clear()

    # -- one operation -----------------------------------------------------

    def call(self, op_index: int, fn, *args):
        """Run fn(*args) as the root span of operation op_index."""
        self.op = op_index
        try:
            return self._wrap(ROOT_SPAN, fn)(*args)
        finally:
            self._flush_engines()

    # -- summary -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child[i]
        return totals
