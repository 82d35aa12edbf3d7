"""Map the optimal quoting region of a risk-neutral market maker.

Quoting a side is worthwhile exactly when its marginal gain rate is positive:
small orders earn the half-spread against the expected terminal price, big
orders earn the post-jump edge.  This script computes the gain rates on the
grid, shows how the quoting region shrinks as the fixed transaction cost
grows, and exports the policy bits to CSV.
"""

import numpy as np

from semitick import (
    ConstantIntensity,
    GridSpec,
    MarkLayout,
    MarketMakingSpec,
    QuoteGainSource,
    SemiMarkovKernel,
    solve_expected_price,
)
from semitick.market_maker import export_policy_csv

kernel = SemiMarkovKernel(ConstantIntensity(0.8), ConstantIntensity(0.4), 0.01)
layout = MarkLayout(
    kernel,
    ask_flow=ConstantIntensity(1.5),
    bid_flow=ConstantIntensity(1.0),
    ask_sizes=(0.2, 0.5, 0.3),
    bid_sizes=(0.1, 0.6, 0.3),
)
field = solve_expected_price(kernel, GridSpec(n_t=100), horizon=1.0, p0=1.0)

print("fraction of the grid where each side is quoted, by transaction cost")
print(f"{'cost/tick':>10} {'ask side':>10} {'bid side':>10}")
for frac in (0.0, 0.3, 0.6, 0.9, 1.2):
    spec = MarketMakingSpec(
        big_size=2, transaction_cost=frac * kernel.delta, portfolio_consistent=True
    )
    source = QuoteGainSource(kernel, layout, spec, field)
    rates = source.gain_rates_at_age(0.0)
    mask = field.lattice.report_mask
    ask_on = np.mean([np.mean(rates[(i, j)][:, mask] > 0)
                      for (i, j) in rates if j % 2 == 0])
    bid_on = np.mean([np.mean(rates[(i, j)][:, mask] > 0)
                      for (i, j) in rates if j % 2 == 1])
    print(f"{frac:>10.1f} {ask_on:>10.2%} {bid_on:>10.2%}")

spec = MarketMakingSpec(big_size=2, transaction_cost=0.006, portfolio_consistent=True)
source = QuoteGainSource(kernel, layout, spec, field)
print("\ngain rates at the anchor price (time 0, age 0, cost 0.6 tick):")
for i in (1, 2, 3, 4):
    rates = {j: float(source.rate_point(0.0, 1.0, i, 0.0, j))
             for j in ((3, 4) if i <= 2 else (1, 2))}
    print(f"  state {i}: " + ", ".join(
        f"toward {j}: {r:+.5f}" for j, r in rates.items()))

export_policy_csv(
    "demo_policy.csv", kernel, layout, spec, field, s_values=[0.0],
    header_meta={"demo": "03_quoting_policy"},
)
print("\nwrote demo_policy.csv (t, p, i, s, ask bit, bid bit)")
