"""Grid artifact writers: the streamed CSVs equal the row-by-row originals.

The reference writers below are the row-at-a-time implementations the
streamed ones replaced, kept verbatim as the slow path to compare against.
"""

import json

import numpy as np
import pytest

from semitick import (
    STATES,
    GridSpec,
    MarketMakingSpec,
    alpha,
    extend_to_age,
    save_field_csv,
    solve_expected_price,
    solve_quote_value,
    successors,
)
from semitick.market_maker import QuoteGainSource, export_policy_csv


def reference_save_field_csv(field, path, header_meta=None):
    keep = np.nonzero(field.lattice.report_mask)[0]
    meta = {
        "p0": field.lattice.p0,
        "delta": field.lattice.delta,
        "n_max": field.lattice.n_report,
        "n_report": field.lattice.n_report,
        "horizon": field.horizon,
        "n_t": len(field.t_grid) - 1,
        "s_grid": None if field.s_grid is None else list(map(float, field.s_grid)),
        "age_invariant": field.age_invariant,
    }
    if header_meta:
        meta.update(header_meta)
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("t,p,i,s,value\n")
        s_axis = [0.0] if field.s_grid is None else field.s_grid
        for si, s in enumerate(s_axis):
            block = field.core if field.full is None else field.full[..., si]
            for ki, t in enumerate(field.t_grid):
                for n in keep:
                    p = field.lattice.prices[n]
                    for ii, i in enumerate(STATES):
                        fh.write(
                            f"{float(t)!r},{float(p)!r},{i},{float(s)!r},"
                            f"{float(block[ki, n, ii])!r}\n"
                        )


def reference_export_policy_csv(
    path, kernel, layout, mmspec, price_field, s_values=None, header_meta=None
):
    mmspec.require_risk_neutral("the optimal quoting policy")
    source = QuoteGainSource(kernel, layout, mmspec, price_field)
    if s_values is None:
        s_values = [0.0] if price_field.s_grid is None else list(
            np.linspace(0.0, price_field.s_grid[-1], 5)
        )
    with open(path, "w") as fh:
        meta = {"p0": price_field.lattice.p0, "delta": kernel.delta}
        if header_meta:
            meta.update(header_meta)
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("t,p,i,s,quote_ask,quote_bid\n")
        prices = price_field.lattice.prices
        keep = np.nonzero(price_field.lattice.report_mask)[0]
        for s in s_values:
            rates = source.gain_rates_at_age(float(s))
            for i in STATES:
                bits = {}
                for j in successors(i):
                    bits[alpha(j)] = rates[(i, j)] > 0.0
                for ki, t in enumerate(price_field.t_grid):
                    for n in keep:
                        fh.write(
                            f"{float(t)!r},{float(prices[n])!r},{i},{float(s)!r},"
                            f"{int(bits[1][ki, n])},{int(bits[-1][ki, n])}\n"
                        )


def assert_same_bytes(tmp_path, write, reference):
    write(tmp_path / "streamed.csv")
    reference(tmp_path / "reference.csv")
    streamed = (tmp_path / "streamed.csv").read_bytes()
    assert streamed == (tmp_path / "reference.csv").read_bytes()
    return streamed


@pytest.fixture(scope="module")
def saturating_core(saturating_kernel):
    return solve_expected_price(saturating_kernel, GridSpec(n_t=24), 1.0, 1.0, extend=False)


@pytest.fixture(scope="module")
def asym_quote_setup(asymmetric_kernel, asymmetric_layout):
    spec = MarketMakingSpec(big_size=2, transaction_cost=0.001, portfolio_consistent=True)
    field = solve_expected_price(asymmetric_kernel, GridSpec(n_t=30), 1.0, 1.0, extend=False)
    quote = solve_quote_value(asymmetric_kernel, asymmetric_layout, spec, field)
    return asymmetric_kernel, asymmetric_layout, spec, field, quote


class TestFieldCsv:
    def test_without_age_axis(self, saturating_core, tmp_path):
        assert saturating_core.s_grid is None
        text = assert_same_bytes(
            tmp_path,
            lambda out: save_field_csv(saturating_core, out),
            lambda out: reference_save_field_csv(saturating_core, out),
        )
        n_rows = len(saturating_core.t_grid) * int(saturating_core.lattice.report_mask.sum()) * 4
        assert text.count(b"\n") == 2 + n_rows

    def test_age_axis_with_guard_rings_and_meta(self, saturating_core, tmp_path):
        field = extend_to_age(saturating_core, s_grid=np.linspace(0.0, 0.5, 4))
        assert field.lattice.n_nodes > int(field.lattice.report_mask.sum())
        meta = {"config_sha256": "abc", "master_seed": 3}
        assert_same_bytes(
            tmp_path,
            lambda out: save_field_csv(field, out, meta),
            lambda out: reference_save_field_csv(field, out, meta),
        )

    def test_quote_value_field(self, asym_quote_setup, tmp_path):
        quote = asym_quote_setup[-1]
        assert_same_bytes(
            tmp_path,
            lambda out: save_field_csv(quote, out),
            lambda out: reference_save_field_csv(quote, out),
        )


class TestPolicyCsv:
    def test_saturating_layout_two_ages(
        self, saturating_kernel, saturating_layout, saturating_core, tmp_path
    ):
        spec = MarketMakingSpec(big_size=saturating_layout.max_units, transaction_cost=0.001)
        args = (saturating_kernel, saturating_layout, spec, saturating_core)
        meta = {"master_seed": 5}
        text = assert_same_bytes(
            tmp_path,
            lambda out: export_policy_csv(out, *args, s_values=[0.0, 0.5], header_meta=meta),
            lambda out: reference_export_policy_csv(
                out, *args, s_values=[0.0, 0.5], header_meta=meta
            ),
        )
        # the grid mixes quoted and unquoted sides, so the bits are exercised
        bit_pairs = {line[-3:] for line in text.splitlines()[2:]}
        assert len(bit_pairs) > 1

    def test_asymmetric_layout(self, asym_quote_setup, tmp_path):
        kernel, layout, spec, field, _ = asym_quote_setup
        assert_same_bytes(
            tmp_path,
            lambda out: export_policy_csv(out, kernel, layout, spec, field),
            lambda out: reference_export_policy_csv(out, kernel, layout, spec, field),
        )
