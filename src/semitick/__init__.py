"""Semi-Markov tick-price model: exact path simulation, terminal-value
solving, and risk-neutral market making."""

from .hazards import (
    STATES,
    BigJump,
    ConstantIntensity,
    MarkLayout,
    NO_EVENT,
    SaturatingIntensity,
    SemiMarkovKernel,
    SmallOrder,
    alpha,
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
    quote_gain_rate,
    solve_quote_value,
    total_value,
    value_upper_bound,
)
from .mc import (
    ControlledTestFunction,
    DynkinResult,
    TestFunction,
    McEstimate,
    battery_controlled,
    battery_uncontrolled,
    dynkin_battery,
    dynkin_check,
    estimate_terminal_value,
    z_score,
)
from .simulate import (
    AgentState,
    AlwaysQuotePolicy,
    AskOnlyPolicy,
    BidOnlyPolicy,
    HoldPolicy,
    JumpEvent,
    MarketState,
    Path,
    RandomQuotePolicy,
    path_rng,
    sample_holding,
    sample_transition,
    simulate_controlled_path,
    simulate_price_path,
    simulate_price_path_thinning,
)
from .solver import (
    ConvergenceError,
    GridSpec,
    ProblemSpec,
    ResidualStats,
    SolverError,
    ValueField,
    apply_age_zero_operator,
    characteristic_slices,
    contraction_bound,
    expected_price_ode_oracle,
    extension_slice,
    load_field_csv,
    pde_residual,
    save_field_csv,
    solve_expected_price,
    solve_fixed_point,
)

__version__ = "0.1.0"
