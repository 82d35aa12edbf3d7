"""Simulate tick-by-tick mid-price paths two independent ways.

The mid-price moves by a constant relative tick at the jumps of a four-state
semi-Markov direction process.  Paths can be produced by renewal sampling
(inverse-CDF holding times plus a categorical transition draw) or by thinning
a dominating Poisson stream of marked points; both give the same law, which
this script checks empirically with the checks `semitick validate` runs.
`semitick simulate` writes renewal paths to `paths.csv`.
"""

import numpy as np

from semitick import (
    MarkLayout,
    MarketState,
    SaturatingIntensity,
    ConstantIntensity,
    SemiMarkovKernel,
    checks,
    path_rng,
    renewal_segments,
)

# trending microstructure: continuations arrive faster than reversals, and
# both intensities build up with the time since the last move
kernel = SemiMarkovKernel(
    continuation=SaturatingIntensity(base=0.2, gain=1.0, rate=2.0),
    reversal=SaturatingIntensity(base=0.3, gain=0.5, rate=1.0),
    delta=0.01,
)
layout = MarkLayout(
    kernel,
    ask_flow=SaturatingIntensity(base=0.5, gain=0.8, rate=1.5),
    bid_flow=ConstantIntensity(0.9),
    ask_sizes=(0.25, 0.5, 0.25),
    bid_sizes=(0.25, 0.5, 0.25),
)
start = MarketState(price=1.0, state=2, age=0.0)
horizon = 2.0

# one segment per holding time: price p and state i hold on [t0, t1) while the
# age runs from s0 to s1; j is the state entered at t1 (None on the last
# segment, which the horizon cuts), and the next segment starts at the new price
segments = list(
    renewal_segments(kernel, (0.0, start.price, start.state, start.age), horizon, path_rng(7, 0))
)
print(f"renewal path: {len(segments) - 1} price moves over {horizon} time units")
for (_, t1, p, _, _, s1, j), after in list(zip(segments, segments[1:]))[:6]:
    move = "up  " if after[2] > p else "down"
    print(f"  t={t1:.3f}  {move}  {p:.5f} -> {after[2]:.5f}  (held {s1:.3f})")

# the two constructions agree in law: completed holding times of 4,000
# renewal paths (streams seeded 1) against 4,000 thinning paths (seeded 2)
check = checks.renewal_vs_thinning(kernel, layout, start, horizon, 4000, seed=1)
print(f"\nrenewal vs thinning holding times: KS {check.detail}")

# holding times against the analytic distribution; note these must be drawn
# directly, not harvested from finite-horizon paths, where completed holdings
# are biased short by the censoring at the horizon
check = checks.holding_ks(kernel, np.random.default_rng(3), 8000)
print(f"holding times vs analytic law:     KS {check.detail}")
