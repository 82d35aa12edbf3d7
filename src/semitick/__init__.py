"""Semi-Markov tick-price model: exact path simulation, terminal-value
solving, and risk-neutral market making."""

from .hazards import (
    SLOT_MOVES,
    STATES,
    SUCCESSOR_INDEX,
    BigJump,
    ConstantIntensity,
    MarkLayout,
    NO_EVENT,
    SaturatingIntensity,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
    direction_index,
    equivalent,
    successors,
)
from .lattice import PriceLattice, max_jumps_for_tail
from .market_maker import (
    BacktestReport,
    MarketMakingSpec,
    OptimalQuotePolicy,
    QuoteGainSource,
    UnsupportedRiskAversion,
    backtest,
    backtest_against_baselines,
    default_baselines,
    holding_value,
    optimal_policy,
    solve_quote_value,
    total_value,
    value_upper_bound,
)
from .mc import (
    DynkinResult,
    TestFunction,
    McEstimate,
    battery_controlled,
    battery_uncontrolled,
    dynkin_battery,
    estimate_terminal_value,
    z_score,
)
from .simulate import (
    AgentState,
    FixedQuotePolicy,
    MarketState,
    RandomQuotePolicy,
    path_rng,
    renewal_segments,
    sample_holding,
    sample_transition,
    thinning_segments,
)
from .solver import (
    ConvergenceError,
    GridSpec,
    ProblemSpec,
    ResidualStats,
    SolverError,
    ValueField,
    contraction_bound,
    expected_price_ode_oracle,
    extension_slice,
    pde_residual,
    save_field_csv,
    solve_expected_price,
    solve_fixed_point,
)

__version__ = "0.1.0"
