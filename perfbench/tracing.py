"""In-memory spans and counters around semitick's public functions.

The benchmark installs these wrappers only for a traced run.  Each wrapper
replaces a function under the module name its callers look it up by (for
example ``semitick.market_maker.extension_slice``, the name the quote source
calls), records one span per call, and is removed again by ``uninstall``.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import resource
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

PAGE_MB = resource.getpagesize() / 2**20


def current_rss_mb() -> float:
    """Resident set size of this process now (not its peak)."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


class Tracer:
    """Spans (name, start, end, parent, command id) plus named counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.command_id = -1
        self.sweeps: list = []  # (solve kind, sweeps) per fixed-point solve
        self.lattice_nodes = 0
        self.rss_growth_mb = 0.0
        self._rss_entry = None
        self._patched: list = []

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` so that every call records a span named ``name``."""

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[sid] = (name, start, end, parent, self.command_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def command(self, name, fn, *args):
        """Run one CLI command under a fresh command id."""
        self.command_id += 1
        return self.span("cmd." + name, fn)(*args)

    # -- hooks read from call arguments and results ----------------------------

    def _after_solve(self, args, kwargs, field):
        problem = args[1] if len(args) > 1 else kwargs["problem"]
        kind = "expected_price" if problem.w is None else "quote"
        self.sweeps.append((kind, field.iterations))
        self.counts["solver.sweeps"] += field.iterations
        self.lattice_nodes = field.lattice.n_nodes

    def _after_save(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["solver.save_field_csv.bytes"] += os.path.getsize(path)

    def _before_rate_point(self, args, kwargs):
        # same test as market_maker._field_values: ages past the field's
        # cached band go through the exact per-point extension
        source, s = args[0], (args[4] if len(args) > 4 else kwargs["s"])
        fld = source.field
        s_arr = np.asarray(s, dtype=float)
        if fld.age_invariant or (s_arr.ndim == 0 and float(s_arr) == 0.0):
            return
        edge = fld.s_grid[-1] + 1e-12 if fld.s_grid is not None else -np.inf
        self.counts["market_maker.rate_point.beyond_band"] += int(np.count_nonzero(s_arr > edge))

    def _before_quote_solve(self, args, kwargs):
        self._rss_entry = current_rss_mb()

    def _sample_rss(self, *unused):
        if self._rss_entry is not None:
            self.rss_growth_mb = max(self.rss_growth_mb, current_rss_mb() - self._rss_entry)

    def _after_quote_solve(self, args, kwargs, result):
        self._sample_rss()
        self._rss_entry = None

    def _after_backtest(self, args, kwargs, result):
        self.counts["market_maker.backtest.paths"] += (
            args[7] if len(args) > 7 else kwargs["n_paths"]
        )

    def _counter(self, name, fn, accepted=None):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            result = fn(*args, **kwargs)
            if accepted is not None and result is not accepted:
                self.counts[name + ".accepted"] += 1
            return result

        return counted

    # -- installation -------------------------------------------------------

    def install(self):
        """Patch every traced name; ``uninstall`` restores the originals."""
        from semitick import harness, solver
        from semitick import hazards as hz
        from semitick import market_maker as mm
        from semitick import simulate as sim

        plan = [
            # (owners that expose the name, attribute, wrapper factory)
            ((solver, mm), "solve_fixed_point",
             lambda f: self.span("solver.solve_fixed_point", f, after=self._after_solve)),
            ((solver, mm, harness), "extension_slice",
             lambda f: self.span("solver.extension_slice", f)),
            ((harness,), "pde_residual", lambda f: self.span("solver.pde_residual", f)),
            ((harness,), "save_field_csv",
             lambda f: self.span("solver.save_field_csv", f, after=self._after_save)),
            ((mm.QuoteGainSource,), "slab",
             lambda f: self.span("market_maker.slab", f, after=self._sample_rss)),
            ((mm.QuoteGainSource,), "rate_point",
             lambda f: self.span("market_maker.rate_point", f, before=self._before_rate_point)),
            ((mm.OptimalQuotePolicy,), "__call__",
             lambda f: self._counter("market_maker.policy.calls", f)),
            ((mm,), "solve_quote_value",
             lambda f: self.span("market_maker.solve_quote_value", f,
                                 before=self._before_quote_solve,
                                 after=self._after_quote_solve)),
            ((mm,), "backtest",
             lambda f: self.span("market_maker.backtest", f, after=self._after_backtest)),
            ((mm,), "export_policy_csv", lambda f: self.span("market_maker.export_policy_csv", f)),
            ((sim, harness), "sample_holding", lambda f: self.span("simulate.sample_holding", f)),
            ((hz.SemiMarkovKernel,), "integrated_intensity",
             lambda f: self._counter("hazards.integrated_intensity.calls", f)),
            ((hz.MarkLayout,), "classify",
             lambda f: self._counter("hazards.classify.calls", f, accepted=hz.NO_EVENT)),
        ]
        for owners, attr, factory in plan:
            original = getattr(owners[0], attr)
            wrapper = factory(original)
            for owner in owners:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the shared function")
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------------

    def per_name(self):
        """calls, total seconds and self seconds for every span name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
        return out

    def slices_per_quote_solve(self) -> list[int]:
        """Extension slices nested under each quote solve."""
        counts = {}
        for sid, (name, *_rest) in enumerate(self.spans):
            if name == "market_maker.solve_quote_value":
                counts[sid] = 0
        for name, _s, _e, parent, _c in self.spans:
            if name != "solver.extension_slice":
                continue
            while parent >= 0:
                if parent in counts:
                    counts[parent] += 1
                    break
                parent = self.spans[parent][3]
        return [counts[k] for k in sorted(counts)]

    def write(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, cmd) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "command": cmd}) + "\n")
