"""Solve for the expected terminal price and cross-check it three ways.

The conditional expectation of the terminal price solves a terminal value
problem whose fixed-point form closes on age-zero slices.  This script solves
it on the jump-reachable price lattice and validates the result against

* the martingale identity (symmetric hazards make the price a martingale),
* a 2x2 matrix-exponential closed form for flat hazards,
* a plain Monte-Carlo estimate of the defining expectation.
"""

import time

import numpy as np

from semitick import (
    ConstantIntensity,
    GridSpec,
    SLOT_MOVES,
    SemiMarkovKernel,
    estimate_terminal_value,
    expected_price_ode_oracle,
    solve_expected_price,
    z_score,
)

horizon, p0 = 1.0, 1.0
grid = GridSpec(n_t=200)

# 1. symmetric hazards: up and down moves are equally likely, so the price
#    is a martingale and the solved field must equal the price itself
sym = SemiMarkovKernel(ConstantIntensity(0.5), ConstantIntensity(0.5), 0.01)
field = solve_expected_price(sym, grid, horizon, p0)
mask = field.lattice.report_mask
prices = field.lattice.prices[mask]
err = np.max(np.abs(field.core[:, :, mask] - prices) / prices)
print(f"martingale check: max relative error {err:.2e} over "
      f"{mask.sum()} lattice nodes x {len(field.t_grid)} times x 2 move directions")

# 2. trending hazards: continuation beats reversal, giving the price drift;
#    the direction-dependent factor solves a 2x2 linear ODE; the core holds one
#    (time, node) block per direction of the last move (down, up), as states
#    1, 3 and 2, 4
trend = SemiMarkovKernel(ConstantIntensity(0.8), ConstantIntensity(0.4), 0.01)
t0 = time.time()
field = solve_expected_price(trend, grid, horizon, p0)
factors = expected_price_ode_oracle(0.8, 0.4, 0.01, horizon - field.t_grid)
mask = field.lattice.report_mask
worst = 0.0
for b, move in enumerate(SLOT_MOVES):
    col = 0 if move > 0 else 1
    oracle = field.lattice.prices[None, mask] * factors[:, col][:, None]
    worst = max(worst, np.max(np.abs(field.core[b][:, mask] - oracle) / oracle))
print(f"matrix-exponential check: max relative error {worst:.2e} "
      f"(solved in {time.time() - t0:.2f}s, {field.iterations} sweeps)")
print(f"  contraction ratios per sweep: {[round(r, 3) for r in field.ratios]}")

value_up = field.eval(0.0, p0, 2, 0.0)
value_dn = field.eval(0.0, p0, 1, 0.0)
print(f"  expected terminal price from an up state: {value_up:.6f}")
print(f"  expected terminal price from a down state: {value_dn:.6f}")

# 3. Monte-Carlo oracle for the same quantity
est = estimate_terminal_value(trend, lambda p: p, None, (0.0, p0, 2, 0.0),
                              horizon, 50_000, seed=11)
print(f"Monte-Carlo estimate: {est.mean:.6f} +- {est.se:.6f} "
      f"(z against solver: {z_score(value_up, est):+.2f})")
