"""Backtest the optimal quoting policy against fixed baselines.

All policies are replayed against the same simulated market (the market
ignores the agent), so the comparison shares randomness.  The optimal policy's
mean matches the solved value function, every mean stays under the a-priori
bound, and the ordering demonstrates the dynamic-programming optimality.
"""

import time

from semitick import (
    AgentState,
    ConstantIntensity,
    GridSpec,
    MarkLayout,
    MarketMakingSpec,
    MarketState,
    SemiMarkovKernel,
    backtest_against_baselines,
    holding_value,
    solve_expected_price,
    solve_quote_value,
    total_value,
)

kernel = SemiMarkovKernel(ConstantIntensity(0.8), ConstantIntensity(0.4), 0.01)
layout = MarkLayout(
    kernel,
    ask_flow=ConstantIntensity(1.5),
    bid_flow=ConstantIntensity(1.0),
    ask_sizes=(0.2, 0.5, 0.3),
    bid_sizes=(0.1, 0.6, 0.3),
)
spec = MarketMakingSpec(big_size=2, transaction_cost=0.003, portfolio_consistent=True)
horizon = 1.0
start = MarketState(price=1.0, state=2, age=0.0)
agent = AgentState(cash=0.0, inventory=0)

field = solve_expected_price(kernel, GridSpec(n_t=100), horizon, start.price)
quote = solve_quote_value(kernel, layout, spec, field)
t0 = time.time()
report = backtest_against_baselines(kernel, layout, spec, field, start, agent, horizon,
                                    n_paths=10_000, seed=2024)
print(f"backtest of {len(report.rows)} policies on 10k shared paths "
      f"({time.time() - t0:.1f}s)\n")
print(f"{'policy':<14} {'mean':>10} {'se':>9}")
for row in sorted(report.rows, key=lambda r: -r.mean):
    print(f"{row.policy:<14} {row.mean:>+10.6f} {row.se:>9.6f}")

solved = total_value(field, quote, 0.0, start.price, start.state, start.age,
                     agent.cash, agent.inventory)
frozen = holding_value(field, 0.0, start.price, start.state, start.age,
                       agent.cash, agent.inventory)
opt = report.row("optimal")
print(f"\nsolved optimal value: {solved:+.6f} "
      f"(backtest gap {opt.mean - solved:+.2e}, se {opt.se:.1e})")
print(f"value of never quoting: {frozen:+.6f}")
print(f"a-priori upper bound:   {report.upper_bound:+.4f}")

report.to_csv("demo_backtest.csv", header_meta={"demo": "04_backtest"})
report.to_json("demo_backtest.json")
print("\nwrote demo_backtest.csv and demo_backtest.json")
