"""Quasi-periodic response solutions of strongly dissipative forced
one-dimensional systems, for arbitrary non-resonant frequency vectors.

The solver splits the problem into a range equation on the nonzero
Fourier modes (solved order by order in an auxiliary expansion parameter)
and a scalar zero-mode balance fixing the response average.  Independent
oracles (labelled-tree sums and a Picard fixed-point solve) verify every
piece, and small-divisor diagnostics size the admissible dissipation.
"""

from .bifurcation import solve_response
from .diophantine import estimate_epsilon_bar, profile
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
from .fourier import cosine
from .ladder import build_ladder, convergence_ratio, propagator_denominator
from .systems import GeneralSystem, SeparableSystem, certify_envelope, recentre
from .trees import (
    TreeSupport,
    TreeValueContext,
    enumerate_all,
    enumerate_trees,
    find_chains,
    sum_trees,
    verify_counting,
)
from .validation import compare, direct_solve, integrate, response_state

__version__ = "0.1.0"
