"""Quasi-periodic response solutions of strongly dissipative forced
one-dimensional systems, for arbitrary non-resonant frequency vectors.

The solver splits the problem into a range equation on the nonzero
Fourier modes (solved order by order in an auxiliary expansion parameter)
and a scalar zero-mode balance fixing the response average.  Independent
oracles (labelled-tree sums and a Picard fixed-point solve) verify every
piece, and small-divisor diagnostics size the admissible dissipation.
"""

from .bifurcation import (
    H,
    ResponseSolution,
    bifurcation_balance,
    solve_response,
    solve_zeta,
)
from .diophantine import (
    DiophantineProfile,
    EpsilonBounds,
    alpha_n,
    estimate_epsilon_bar,
    min_small_divisor,
    profile,
    recheck_bounds,
)
from .errors import (
    BifurcationSolveError,
    ConfigError,
    DimensionMismatchError,
    GuardExceededError,
    HypothesisError,
    LadderDivergenceError,
    QPResponseError,
    ResonanceError,
    StiffnessError,
    SymmetryError,
)
from .fourier import FourierSeries, cosine, delta, sine, unit_series, zero_series
from .ladder import (
    OrderLadder,
    Propagator,
    assemble,
    build_ladder,
    convergence_ratio,
    first_order,
    next_order_thm1,
    next_order_thm2,
    propagator_denominator,
)
from .systems import (
    AnalyticityEnvelope,
    GeneralSystem,
    Root,
    SeparableSystem,
    certify_envelope,
    check_nonresonance,
    find_c0,
    recentre,
)
from .trees import (
    Chain,
    TreeNode,
    TreeSupport,
    TreeValueContext,
    chain_value_bound_check,
    enumerate_all,
    enumerate_trees,
    find_chains,
    sum_trees,
    tree_value,
    verify_counting,
)
from .validation import (
    FixedPointResult,
    Trajectory,
    TrajectoryComparison,
    compare,
    direct_solve,
    integrate,
    response_state,
    write_trajectory_csv,
)

__version__ = "0.1.0"
