"""Frequency-vector arithmetic: small-divisor minima over dyadic balls,
their log-averaged decay profile, and the constructive admissibility
estimates for the dissipation parameter.

All mode balls are l1 balls.  Enumeration walks the canonical half-space
(first nonzero component positive, which covers every +-nu pair once) in
lexicographic order with a deterministic strictly-smaller min-reduction,
so reported argmins are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import GuardExceededError, ResonanceError
from .fourier import _omega_grid

# Default enumeration guards (maximum l1 radius) per torus dimension.
# Cost grows like radius**d; the d=2 default walks ~3e7 modes.
DEFAULT_GUARDS = {1: 2**62, 2: 4096, 3: 64}
_FALLBACK_GUARD = 16

# cells per numpy call of the walk when short rows share one
_WALK_BLOCK = 1 << 13

DEFAULT_A_FRACTION = 0.5


def guard_radius(dimension: int, guard: int | None = None) -> int:
    if guard is not None:
        return int(guard)
    return DEFAULT_GUARDS.get(dimension, _FALLBACK_GUARD)


def min_small_divisor(omega, radius: int):
    """Exhaustive min of |omega . nu| over 0 < |nu| <= radius.

    Returns ``(value, argmin)`` with the argmin reported as the canonical
    representative of the +-nu pair (first nonzero component positive),
    lexicographically first among exact ties.

    The walk runs by rows, which fix the leading d - 1 components; rows
    are reduced in lexicographic order, skipping a row holding NaN, as a
    strictly-smaller scan of the rows in turn reduces them.
    """
    omega = [float(w) for w in omega]
    d = len(omega)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if d == 1:
        return abs(omega[0]), (1,)
    R = int(radius)
    # the leading d - 1 components of the canonical half ball (first
    # nonzero component positive, or all zero) in lexicographic order,
    # built one component at a time
    heads = np.arange(R + 1)[:, None]
    for _ in range(d - 2):
        budget = R - np.abs(heads).sum(axis=1)
        low = np.where(heads.any(axis=1), -budget, 0)
        count = budget - low + 1
        at = np.repeat(np.arange(len(heads)), count)
        step = np.arange(len(at)) - (np.cumsum(count) - count)[at] + low[at]
        heads = np.column_stack([heads[at], step])
    budget = R - np.abs(heads).sum(axis=1)
    dots = _omega_grid(omega[:-1], heads.T)
    kw = np.arange(-R, R + 1) * omega[-1]
    value, last = np.empty(len(heads)), np.empty(len(heads), dtype=np.intp)
    with np.errstate(invalid="ignore"):
        # row 0 is the zero head: its last component runs over 1..R
        v = np.abs(dots[0] + kw[R + 1:])
        j = int(v.argmin())
        value[0], last[0] = v[j], j + 1
        # the other rows run over -b..b; a block takes rows of falling b
        # padded to the first one's width
        order = np.argsort(-budget[1:], kind="stable") + 1
        start = 0
        while start < len(order):
            b = int(budget[order[start]])
            rows = order[start:start + max(1, _WALK_BLOCK // (2 * b + 1))]
            start += len(rows)
            v = np.abs(dots[rows, None] + kw[R - b:R + b + 1])
            if budget[rows[-1]] < b:
                v[np.abs(np.arange(-b, b + 1)) > budget[rows, None]] = np.inf
            j = v.argmin(axis=1)
            value[rows] = v[np.arange(len(rows)), j]
            last[rows] = j - b
    i = int(np.argmin(np.where(np.isnan(value), np.inf, value)))
    if not value[i] < math.inf:
        return math.inf, None
    return float(value[i]), tuple(heads[i].tolist()) + (int(last[i]),)


def ball_minimum(omega, radius: int, guard: int | None = None):
    """min |omega . nu| over the ball 0 < |nu| <= radius, with argmin.

    Raises :class:`GuardExceededError` when the radius exceeds the
    enumeration guard and :class:`ResonanceError` on an exact zero.
    """
    limit = guard_radius(len(omega), guard)
    if radius > limit:
        raise GuardExceededError(
            f"ball radius {radius} exceeds the enumeration guard {limit} "
            f"for d={len(omega)}; raise the guard explicitly if the cost "
            f"(~radius^d modes) is acceptable"
        )
    value, arg = min_small_divisor(omega, radius)
    if value == 0.0:
        raise ResonanceError(
            f"omega . nu = 0 at nu = {arg}: frequency vector is resonant",
            nu=arg, value=value,
        )
    return value, arg


def alpha_n(omega, n: int, guard: int | None = None):
    """:func:`ball_minimum` on the dyadic ball of radius 2**n."""
    return ball_minimum(omega, 2 ** int(n), guard)


def epsilon_n(alpha: float, n: int) -> float:
    """Scaled divisor logarithm 2**-n * log(1/alpha_n)."""
    return math.log(1.0 / alpha) / 2 ** int(n)


# a ball-to-ball drop of alpha_n below this share of the Diophantine
# decay 2^-(d-1) marks a near-resonance
_DROP_SHARE = 0.1


@dataclass
class DiophantineProfile:
    """Small-divisor decay profile of a frequency vector.

    ``alpha[n]`` is the ball minimum at radius 2**n, ``eps[n]`` its scaled
    logarithm, ``bryuno_partial`` the running partial sums of ``eps``, and
    ``r_table`` ball minima at the extra radii requested.
    """

    omega: tuple
    n_max: int
    alpha: list = field(default_factory=list)
    eps: list = field(default_factory=list)
    argmins: list = field(default_factory=list)
    bryuno_partial: list = field(default_factory=list)
    r_table: dict = field(default_factory=dict)
    classification: str = "unclassified"


def classify_eps_sequence(eps: list, dimension: int) -> str:
    """Rough decay class of the scaled-divisor sequence of a d-dimensional
    frequency vector.  A near-resonance entering the ball makes
    alpha_{n+1}/alpha_n = exp(2^n eps_n - 2^{n+1} eps_{n+1}) drop far below
    the Diophantine decay 2^-(d-1) (liouville-suspect); otherwise clear
    decay of eps_n is diophantine-like and a plateau is bryuno-like."""
    if len(eps) < 3:
        return "unclassified"
    floor = _DROP_SHARE * 2.0 ** (1 - dimension)
    if any(math.exp(2**n * eps[n] - 2 ** (n + 1) * eps[n + 1]) < floor
           for n in range(len(eps) - 1)):
        return "liouville-suspect"
    positive = [e for e in eps[1:] if e > 0]
    if not positive:
        return "diophantine-like"
    head = max(positive[: max(1, len(positive) // 2)])
    if eps[-1] <= 0.5 * head:
        return "diophantine-like"
    return "bryuno-like"


def profile_rows(omega, n_max: int, guard: int | None = None):
    """Yield ``(n, alpha_n, argmin, eps_n, bryuno_partial)`` for n = 0..n_max
    until :func:`alpha_n` raises.  For d = 1 the profile is degenerate (the
    minimum is |omega| at every radius) and collapses to the row n = 0."""
    omega = tuple(float(w) for w in omega)
    running = 0.0
    for n in range((0 if len(omega) == 1 else int(n_max)) + 1):
        a, arg = alpha_n(omega, n, guard=guard)
        e = epsilon_n(a, n)
        running += e
        yield n, a, arg, e, running


def ball_minima(omega, radii, guard: int | None = None) -> dict:
    """The :func:`ball_minimum` value at each radius, keyed by int radius."""
    return {int(N): ball_minimum(omega, int(N), guard)[0] for N in radii}


def profile(omega, n_max: int, N_list=(), guard: int | None = None) -> DiophantineProfile:
    """The rows of :func:`profile_rows`, the ball minima at ``N_list`` and
    the decay class."""
    omega = tuple(float(w) for w in omega)
    rows = list(profile_rows(omega, n_max, guard))
    alpha, argmins, eps, partial = ([row[i] for row in rows]
                                    for i in range(1, 5))
    return DiophantineProfile(
        omega=omega, n_max=len(rows) - 1, alpha=alpha, eps=eps,
        argmins=argmins, bryuno_partial=partial,
        r_table=ball_minima(omega, N_list, guard),
        classification=classify_eps_sequence(eps, len(omega)))


@dataclass
class EpsilonBounds:
    """Constructive admissibility constants.

    ``eps_bar`` and ``zeta_bar`` are sized so that the defining inequalities
    of the convergence estimates hold verbatim when re-checked:

    theorem 1:  C0^2 delta/|a| <= A^2,  C0^2 eps_bar/alpha_n0 <= A^2,
                C0^2 zeta_bar < A^2
    theorem 2:  C0^4 max{zeta_bar, delta/|a|, eps_bar/alpha_n0, beta} < A^4
                with beta = max{delta, 2|eps_bar a|/alpha_n0}
    """

    theorem: int
    A: float
    n0: int
    delta: float
    C0: float
    alpha_n0: float
    eps_bar: float
    zeta_bar: float
    beta: float | None = None
    guard_limited: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def propagator_floor_constant(envelope, a: float, theorem: int) -> float:
    """The constant C0 entering every admissibility inequality."""
    if theorem == 1:
        top = max(envelope.Gamma / abs(a), envelope.Phi, 1.0)
    elif theorem == 2:
        top = max(envelope.Gamma / abs(a), 1.0)
    else:
        raise ValueError("theorem must be 1 or 2")
    return top / envelope.rho


# Margin keeping strict inequalities strict after floating-point round-trips.
_STRICT_MARGIN = 1.0 - 1e-12


def estimate_epsilon_bar(
    envelope,
    a: float,
    omega,
    A_fraction: float = DEFAULT_A_FRACTION,
    theorem: int = 1,
    *,
    A: float | None = None,
    n0: int | None = None,
    guard: int | None = None,
) -> EpsilonBounds:
    """Size the admissible dissipation range from the analyticity envelope.

    ``A`` defaults to ``A_fraction * C0`` (the free constant must sit in
    (0, C0)).  ``n0`` is normally chosen as the smallest level at which the
    large-mode branch of the inequalities holds; pass it explicitly to pin
    scaling experiments.  If the required ball exceeds the enumeration
    guard, the guard-ball minimum is used as an upper bound for alpha_n0
    and the result is flagged ``guard_limited``.
    """
    omega = tuple(float(w) for w in omega)
    C0 = propagator_floor_constant(envelope, a, theorem)
    if A is None:
        if not 0.0 < A_fraction < 1.0:
            raise ValueError("A_fraction must lie in (0, 1)")
        A = A_fraction * C0
    if not 0.0 < A < C0:
        raise ValueError("A must lie in (0, C0)")
    xi = envelope.xi

    def delta_of(level: int) -> float:
        return math.exp(-xi * 2**level / 4.0)

    # the large-mode branch holds at a level once delta_of(level) <= target
    if theorem == 1:
        target = (A / C0) ** 2 * abs(a)
    else:
        target = 0.5 * (A / C0) ** 4 * min(abs(a), 1.0)

    if n0 is None:
        n0 = 0
        while not delta_of(n0) <= target:
            n0 += 1
            if n0 > 60:
                raise ValueError("no admissible n0 below 2^60: envelope too tight")

    limit = guard_radius(len(omega), guard)
    guard_limited = 2**n0 > limit
    alpha, _ = ball_minimum(omega, min(2**n0, limit), guard)
    delta = delta_of(n0)

    if theorem == 1:
        eps_bar = (A / C0) ** 2 * alpha * _STRICT_MARGIN
        zeta_bar = 0.5 * (A / C0) ** 2
        beta = None
    else:
        # Largest eps_bar keeping the combined strict inequality satisfied,
        # with a definite margin so the verbatim re-check stays strict.
        margin_budget = (A / C0) ** 4 * _STRICT_MARGIN
        zeta_bar = 0.5 * margin_budget

        def admissible(eps: float) -> bool:
            b = max(delta, 2.0 * abs(eps * a) / alpha)
            worst = max(zeta_bar, delta / abs(a), eps / alpha, b)
            return worst <= margin_budget

        if not admissible(0.0):  # the eps-free terms exceed the budget
            raise ValueError("no admissible eps_bar found (envelope too tight)")
        # eps enters only through eps/alpha and 2|eps a|/alpha, both
        # monotone: the bound is this start up to a few roundings
        eps_bar = alpha * margin_budget / max(1.0, 2.0 * abs(a))
        while not admissible(eps_bar):
            eps_bar = math.nextafter(eps_bar, 0.0)
        while admissible(math.nextafter(eps_bar, math.inf)):
            eps_bar = math.nextafter(eps_bar, math.inf)
        beta = max(delta, 2.0 * abs(eps_bar * a) / alpha)

    return EpsilonBounds(
        theorem=theorem,
        A=A,
        n0=int(n0),
        delta=delta,
        C0=C0,
        alpha_n0=alpha,
        eps_bar=eps_bar,
        zeta_bar=zeta_bar,
        beta=beta,
        guard_limited=guard_limited,
    )


def recheck_bounds(bounds: EpsilonBounds, a: float) -> dict:
    """Re-evaluate the defining inequalities verbatim; True means satisfied."""
    A2 = bounds.A**2
    C2 = bounds.C0**2
    if bounds.theorem == 1:
        return {
            "delta": C2 * bounds.delta / abs(a) <= A2,
            "eps_bar": C2 * bounds.eps_bar / bounds.alpha_n0 <= A2,
            "zeta_bar": C2 * bounds.zeta_bar < A2,
        }
    A4 = bounds.A**4
    C4 = bounds.C0**4
    beta = max(bounds.delta, 2.0 * abs(bounds.eps_bar * a) / bounds.alpha_n0)
    worst = max(
        bounds.zeta_bar,
        bounds.delta / abs(a),
        bounds.eps_bar / bounds.alpha_n0,
        beta,
    )
    return {"combined": C4 * worst < A4, "beta_consistent": beta == bounds.beta}
