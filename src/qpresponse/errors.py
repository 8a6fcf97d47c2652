"""Exception types shared across the solver."""


class QPResponseError(Exception):
    """Base class for all solver errors."""


class ConfigError(QPResponseError):
    """A config cannot be read, fails the schema, or sets a value the
    solver cannot use."""


class DimensionMismatchError(QPResponseError):
    """Operands live on tori of different dimension."""


class HypothesisError(QPResponseError):
    """The simple-zero hypothesis could not be certified."""


class ResonanceError(QPResponseError):
    """An exact (or numerically exact) rational relation omega . nu = 0 was hit."""

    def __init__(self, message, nu=None, value=None):
        super().__init__(message)
        self.nu = nu
        self.value = value


class GuardExceededError(QPResponseError):
    """A requested enumeration exceeds the configured cost guard."""


class LadderDivergenceError(QPResponseError):
    """The order-by-order expansion stopped contracting.

    Carries ``advice`` for the caller (typically: shrink epsilon).
    """

    def __init__(self, message, advice="shrink epsilon (or the zeta bracket)"):
        super().__init__(message)
        self.advice = advice


class SymmetryError(QPResponseError):
    """A quantity that must be real by conjugate symmetry came out complex."""


class BifurcationSolveError(QPResponseError):
    """The zero-mode balance could not be solved on the given bracket."""


class StiffnessError(QPResponseError):
    """Time integration refused or failed: the fast rate 1/epsilon is too large."""
