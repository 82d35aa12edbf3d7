"""The fused, node-parallel quote source integral of the quoting-premium solve."""

import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from semitick import (
    ConstantIntensity,
    GridSpec,
    MarkLayout,
    MarketMakingSpec,
    QuoteGainSource,
    STATES,
    SaturatingIntensity,
    SemiMarkovKernel,
    SolverError,
    alpha,
    solve_expected_price,
    solve_quote_value,
    successors,
)
from semitick import market_maker as mm
from semitick import solver
from semitick.harness import load_config
from semitick.solver import _build_tables

SIZES = (0.25, 0.5, 0.25)


def _setup(name):
    """(kernel, layout) of one test case; every layout but the age-free one
    has an aged ask flow, so only that case takes the age-free path."""
    if name == "saturating-preset":
        cfg = load_config("saturating-hazard")
        return cfg.kernel, cfg.layout
    if name == "mixed":
        kernel = SemiMarkovKernel(
            ConstantIntensity(0.4), SaturatingIntensity(base=0.0, gain=3.0, rate=0.5), 0.01
        )
    else:  # flat hazards: an age-invariant field
        kernel = SemiMarkovKernel(ConstantIntensity(0.8), ConstantIntensity(0.4), 0.01)
    if name == "age-free":  # and flat flow: one source serves every age
        ask_flow = ConstantIntensity(1.5)
    else:
        ask_flow = SaturatingIntensity(base=0.5, gain=0.8, rate=1.5)
    layout = MarkLayout(kernel, ask_flow, ConstantIntensity(0.9), SIZES, SIZES)
    return kernel, layout


_FIELDS = {}


def _field(name, n_t):
    # a small lattice keeps the reference fold cheap; the blocks split nodes
    # the same way at any size
    if (name, n_t) not in _FIELDS:
        kernel, layout = _setup(name)
        grid = GridSpec(n_t=n_t, n_max=4, tol_fp=1e-5)
        _FIELDS[name, n_t] = solve_expected_price(kernel, grid, 1.0, 1.0)
    return _FIELDS[name, n_t]


def _streamed_fold(src, q_source):
    """Test-local copy of the streamed source integral the fused kernel
    replaced: one expected-price slice per age node (the characteristic
    sweep, or the core of an age-invariant field), the gain rate of each of
    the eight transitions, max(rate, 0) summed per state, and the diagonal
    fold of ``q_source``."""
    field, lattice, kernel, layout, spec = src.field, src.lattice, src.kernel, src.layout, src.mmspec
    prices = lattice.prices[None, :]
    if spec.portfolio_consistent:
        edge = prices * kernel.delta - spec.transaction_cost
    else:
        edge = kernel.delta - spec.transaction_cost
    big_edge = {}
    for i in STATES:
        for j in successors(i):
            d = alpha(j)
            idx, scale = lattice.image_maps(d)
            image = field.core[:, idx, STATES.index(j)] * scale[None, :]
            big_edge[(d, j)] = d * (prices - image) + edge
    n_t = len(field.t_grid) - 1
    h = field.t_grid[1] - field.t_grid[0]

    def slab(age, pi_rows, first):
        out = np.zeros((n_t + 1 - first, lattice.n_nodes, len(STATES)))
        for i in STATES:
            ii = STATES.index(i)
            for j in successors(i):
                d = alpha(j)
                flow = layout.side_flow(d).value(age) * layout.mean_size(d)
                h_dir = (
                    kernel.continuation.value(age) if alpha(i) == d
                    else kernel.reversal.value(age)
                )
                small = flow * (d * (prices - pi_rows[:, :, ii]) + edge)
                large = h_dir * spec.big_size * big_edge[(d, j)][first:]
                out[:, :, ii] += np.maximum(small + large, 0.0)
        return out

    if field.age_invariant:
        pairs = ((d, field.core[d:]) for d in range(n_t + 1))
    else:
        rows = solver._CharacteristicSweep(field).rows(0, field.lattice.n_nodes)
        pairs = ((d, field.core if d == 0 else pi.reshape(-1, *field.core.shape[1:]))
                 for d, pi in rows)
    out = np.zeros(field.core.shape)
    for d, pi_rows in pairs:
        out[: n_t + 1 - d] += q_source.diagonal(d)[:, None, None] * slab(d * h, pi_rows, d)
    return out


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


class TestFusedSourceKernel:
    @pytest.mark.parametrize("n_t", [120, 81])
    @pytest.mark.parametrize("consistent", [True, False], ids=["node_edge", "scalar_edge"])
    @pytest.mark.parametrize("name", ["saturating-preset", "mixed", "flat-hazards", "age-free"])
    def test_matches_streamed_fold(self, monkeypatch, name, consistent, n_t):
        # every element keeps its operations and their order, so the result
        # is the streamed fold's bit for bit at every block count (an odd
        # n_t puts both row parities at both ends of the sweep)
        kernel, layout = _setup(name)
        field = _field(name, n_t)
        assert field.age_invariant == (name in ("flat-hazards", "age-free"))
        spec = MarketMakingSpec(
            big_size=layout.max_units, transaction_cost=0.001, portfolio_consistent=consistent
        )
        src = QuoteGainSource(kernel, layout, spec, field)
        q_source = _build_tables(kernel, field.t_grid, 0.0).q_source
        expected = _streamed_fold(src, q_source).tobytes()
        for cpus in (1, 2, 3, 64):
            # 64 CPUs: as many blocks as keep _MIN_BLOCK_NODES nodes each
            _use_cpus(monkeypatch, cpus)
            blocks = mm._node_blocks(field.lattice.n_nodes)
            assert len(blocks) == min(cpus, field.lattice.n_nodes // mm._MIN_BLOCK_NODES)
            assert src.integrals(q_source).tobytes() == expected, cpus

    def test_many_blocks_under_fast_thread_switching(self, monkeypatch):
        # more threads than cores, switching every microsecond: blocks share
        # one output array, and a write lost to a race would change its bytes
        kernel, layout = _setup("mixed")
        field = _field("mixed", 81)
        spec = MarketMakingSpec(big_size=layout.max_units, transaction_cost=0.001)
        src = QuoteGainSource(kernel, layout, spec, field)
        q_source = _build_tables(kernel, field.t_grid, 0.0).q_source
        _use_cpus(monkeypatch, 1)
        expected = src.integrals(q_source).tobytes()
        _use_cpus(monkeypatch, 64)
        assert len(mm._node_blocks(field.lattice.n_nodes)) > 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert src.integrals(q_source).tobytes() == expected
        finally:
            sys.setswitchinterval(interval)

    def test_worker_failure_surfaces(self, monkeypatch):
        # one infinite core value in the second of two node blocks: the sweep
        # of that block fails on its worker thread, and the caller raises it
        kernel, layout = _setup("saturating-preset")
        field = _field("saturating-preset", 81)
        core = field.core.copy()
        core[40, 3 * field.lattice.n_nodes // 4, 1] = np.inf
        bad = replace(field, core=core)
        spec = MarketMakingSpec(big_size=layout.max_units, transaction_cost=0.001)
        _use_cpus(monkeypatch, 2)
        failed_on = []
        fold_block = QuoteGainSource._fold_block

        def spy(self, *args):
            try:
                return fold_block(self, *args)
            except SolverError:
                failed_on.append(threading.get_ident())
                raise

        monkeypatch.setattr(QuoteGainSource, "_fold_block", spy)
        with pytest.raises(SolverError, match="characteristic sweep produced non-finite values"):
            solve_quote_value(kernel, layout, spec, bad)
        assert failed_on and threading.get_ident() not in failed_on

    @pytest.mark.parametrize("name", ["saturating-preset", "age-free"])
    def test_traced_names_stay_on_the_calling_thread(self, monkeypatch, name, asymmetric_kernel,
                                                    asymmetric_layout):
        # the benchmark tracer records spans and counters without a lock, so
        # worker threads may call none of the names it patches; the age-free
        # solve need not call any of them
        if name == "age-free":
            kernel, layout = asymmetric_kernel, asymmetric_layout
            field = solve_expected_price(kernel, GridSpec(n_t=40, n_max=6), 1.0, 1.0)
        else:
            kernel, layout = _setup(name)
            field = _field(name, 120)
        spec = MarketMakingSpec(big_size=layout.max_units, transaction_cost=0.001)
        _use_cpus(monkeypatch, 3)
        calls = []

        def spy(label, fn):
            def wrapped(*args, **kwargs):
                calls.append((label, threading.get_ident()))
                return fn(*args, **kwargs)

            return wrapped

        for owner, attr in [
            (SemiMarkovKernel, "integrated_intensity"),
            (QuoteGainSource, "rate_point"),
            (solver, "extension_slice"),
            (mm, "extension_slice"),
        ]:
            monkeypatch.setattr(owner, attr, spy(attr, getattr(owner, attr)))
        solve_quote_value(kernel, layout, spec, field)
        assert calls or name == "age-free"
        assert {ident for _, ident in calls} <= {threading.get_ident()}
