"""The zero-mode (bifurcation) balance and its solution zeta(eps).

The range expansion leaves the average of the solution free; this module
fixes it by a derivative-free root solve of the balance

    a zeta + [nonlinear part](zero mode) = 0

over a bracket inside the analyticity disk: a scan finds the sign
change, and batched bracketing steps refine it (see :func:`solve_zeta`).
The balance is the zero mode of the equation itself, in its
dissipation-homogeneous form, the form that the tree and Picard oracles
check.

The solves at several eps (the continuity probe's eps, eps/2 and eps/4,
or the points of a sweep) advance in lockstep.  Each solve is a
generator that yields the zetas it needs next; each step gathers the
zetas of every live solve and evaluates them all in one batched
expansion whose rows differ in eps as well as in zeta.  Every row keeps
its place in the batch, a failed one as the zero series, and is bitwise
what its evaluation alone gives, so the lockstep solves return what the
solves one eps at a time return.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BifurcationSolveError,
    LadderDivergenceError,
    SymmetryError,
)
from .fourier import DenseBlock, FourierSeries
from .ladder import (
    OrderLadder,
    _Expansion,
    _nonlinearity,
    _ratios,
    range_residuals,
)
# not called here: bench/test_checks.py reads this binding of the name
from .ladder import build_ladder  # noqa: F401

_IMAG_TOL = 1e-12
DEFAULT_BRACKET = (-0.25, 0.25)
SCAN_POINTS = 7
# the balance residual a solved zeta meets, relative to max(1, |a|)
ZETA_TOL = 1e-12
# the refinement ends at a sign-change bracket narrower than
# BRACKET_TOL (1 + |root|)
BRACKET_TOL = 1e-15


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > _IMAG_TOL:
        raise SymmetryError(
            f"{what} has imaginary part {value.imag:.3e} beyond tolerance"
        )
    return value.real


def _balances(sys, w: DenseBlock) -> list:
    """The zero-mode balance a zeta + [nl(w)]_0 of each series in the
    block ``w``: a float, or the SymmetryError that
    :func:`bifurcation_balance` raises for it."""
    zetas = np.broadcast_to(w.zero_mode(), (w.batch,))
    nl0 = np.broadcast_to(_nonlinearity(sys, w, radius=0).zero_mode(),
                          (w.batch,)).tolist()
    out = []
    for zeta, nl in zip(zetas.tolist(), nl0):
        try:
            zeta = _real_part(zeta, "the assembled zero mode")
            out.append(sys.a * zeta + _real_part(nl, "the zero-mode balance"))
        except SymmetryError as exc:
            out.append(exc)
    return out


def bifurcation_balance(sys, w: FourierSeries) -> float:
    """Evaluate the zero-mode balance at an assembled solution ``w``
    (whose zero mode is the free parameter zeta).  The balance is
    homogeneous in the dissipation, so it takes no eps."""
    with np.errstate(all="ignore"):
        (value,) = _balances(sys, DenseBlock.of(w))
    if isinstance(value, Exception):
        raise value
    return value


def _contraction_error(eps, zeta, estimate):
    """The error of a ladder whose ratio estimate shows no contraction."""
    if not np.isfinite(estimate) or estimate >= 1.0:
        return LadderDivergenceError(
            f"expansion does not contract at eps={eps!r}, zeta={zeta!r} "
            f"(ratio estimate {estimate:.3g})"
        )
    return None


class _Evaluation:
    """The balance at a batch of (eps, zeta) rows from one batched K-order
    expansion.

    ``eps`` is one value for every zeta or one per zeta.  ``outcomes[i]``
    is the balance at ``(eps[i], zetas[i])`` or the exception that
    evaluating :func:`H` there alone raises.  Every row stays at its
    position in the expansion and in its assembled sums ``w``; a row whose
    ladder failed or did not contract is the zero series there, and
    ``ratios`` is keyed by the positions of the rows that contracted.
    """

    def __init__(self, sys, eps, zetas, K, N, tables=None):
        if K < 1:
            raise ValueError("K must be >= 1")
        exp = _Expansion(sys, eps, zetas, N, tables)
        with np.errstate(all="ignore"):
            exp.build(K)
            self.ratios = {}
            failed = {}
            for pos, norms in enumerate(zip(*exp.norms)):
                if pos in exp.errors:
                    continue
                ratios, estimate = _ratios([float(n) for n in norms])
                error = _contraction_error(exp.eps[pos], zetas[pos], estimate)
                if error is None:
                    self.ratios[pos] = (ratios, estimate)
                else:
                    failed[pos] = error
            exp.fail(failed)
            self.w = exp.assembled()
            balances = _balances(sys, self.w)
        self.outcomes = [exp.errors.get(pos, value)
                         for pos, value in enumerate(balances)]
        self.expansion = exp

    def result(self, pos: int):
        """(ladder, ratios, estimate, assembled series) of the row at
        position ``pos``, copied out of the batch; its ladder must have
        contracted."""
        ratios, estimate = self.ratios[pos]
        return self.expansion.ladder(pos), ratios, estimate, self.w.series(pos)


def H(zeta: float, eps: float, sys, K: int, N: int) -> float:
    """Zero-mode balance evaluated through a fresh K-order expansion."""
    sys.require_certified()
    (value,) = _Evaluation(sys, eps, [zeta], K, N).outcomes
    if isinstance(value, Exception):
        raise value
    return value


def _estimate(values: dict):
    """The root of the balance by inverse cubic interpolation through the
    four evaluated zetas of smallest |H| (Neville's scheme at H = 0), and
    its distance from the inverse quadratic root through the first three
    of them; None when two of them share a balance."""
    points = sorted(values.items(), key=lambda item: abs(item[1]))[:4]
    zs, hs = [z for z, _ in points], [h for _, h in points]
    for m in range(1, len(zs)):
        lower = zs[0]
        for i in range(len(zs) - m):
            if hs[i + m] == hs[i]:
                return None
            zs[i] = (hs[i + m] * zs[i] - hs[i] * zs[i + 1]) \
                / (hs[i + m] - hs[i])
    return zs[0], abs(zs[0] - lower)


def _zeta_steps(lo, hi, xs: list, tol: float):
    """The zeta solve at one eps, as a generator.

    It yields the list of zetas whose balance it needs next and is sent
    ``(evaluation, positions)``, the :class:`_Evaluation` holding them at
    ``positions``.  It asks first for zeta = 0 and the scan points ``xs``
    together, then for the zetas of each refinement step together (see
    :func:`solve_zeta`); each zeta is evaluated once.  It returns the root,
    its expansion (ladder, ratios, estimate, assembled series) and its
    balance, and raises what :func:`solve_zeta` raises.  After the scan
    it holds only the evaluations of the bracket ends, and the root is
    one of them.
    """
    zetas = list(dict.fromkeys(([0.0] if lo <= 0.0 <= hi else []) + xs))
    # the balance at each zeta evaluated, and the (evaluation, position)
    # of each zeta whose expansion is held
    values, held = {}, {}

    def record(asked):
        evaluation, positions = yield asked
        for z, p in zip(asked, positions):
            values[z] = evaluation.outcomes[p]
            held[z] = evaluation, p

    def h(z):
        if isinstance(values[z], Exception):
            raise values[z]
        return values[z]

    def found(z):
        evaluation, p = held[z]
        return z, evaluation.result(p), evaluation.outcomes[p]

    yield from record(zetas)
    if lo <= 0.0 <= hi and abs(h(0.0)) <= tol:
        return found(0.0)
    vals = []
    for x in xs:
        v = h(x)
        if abs(v) <= tol:
            return found(x)
        vals.append(v)

    changes = [
        i for i in range(len(xs) - 1) if vals[i] * vals[i + 1] < 0.0
    ]
    if not changes:
        raise BifurcationSolveError(
            f"no sign change of the balance on [{lo}, {hi}]: widen the "
            "bracket or check the hypothesis"
        )
    if len(changes) > 1:
        raise BifurcationSolveError(
            f"{len(changes)} sign changes on [{lo}, {hi}]: bracket exceeds "
            "the uniqueness neighbourhood, shrink it"
        )
    i = changes[0]
    # exactly one end of the bracket [a, b] has a negative balance
    a, b = xs[i], xs[i + 1]
    halved = True
    while True:
        # release the evaluations that hold no bracket end
        held = {z: held[z] for z in (a, b)}
        root = min(a, b, key=lambda z: abs(values[z]))
        width = b - a
        if width < BRACKET_TOL * (1.0 + abs(root)):
            break
        # the estimate and its guards, or the midpoint when the estimate
        # leaves the bracket, its guards span more than half of it, or the
        # last step did not halve it
        asked = [a + width / 2]
        estimate = _estimate(values) if halved else None
        if estimate is not None:
            x, e = estimate
            e = max(e, BRACKET_TOL * (1.0 + abs(x)) / 4)
            if a < x < b and 4 * e <= width:
                asked = [z for z in (x - e, x, x + e) if a < z < b]
        yield from record(asked)
        for z in asked:
            if h(z) == 0.0:
                return found(z)
        # the new bracket from the held zetas alone: zeta = 0, evaluated
        # with the scan, may lie inside the first bracket but is released
        inside = sorted(held)
        a, b = next((l, r) for l, r in zip(inside, inside[1:])
                    if (values[l] < 0.0) != (values[r] < 0.0))
        halved = b - a <= width / 2
    value = values[root]
    if not abs(value) <= tol:
        raise BifurcationSolveError(
            f"balance residual {abs(value):.3e} stayed above tolerance "
            f"{tol:.3e}"
        )
    return found(root)


def _bracket(bracket, envelope) -> tuple:
    """The zeta bracket of a solve: ``bracket`` when given, else
    (-rho/4, rho/4) inside the analyticity disk of ``envelope``, else
    :data:`DEFAULT_BRACKET`."""
    if bracket is not None:
        return bracket[0], bracket[1]
    if envelope is not None:
        return -envelope.rho / 4.0, envelope.rho / 4.0
    return DEFAULT_BRACKET


def _lockstep(sys, eps_list, K, N, bracket, tables=None) -> list:
    """Solve the balance for zeta at every eps of ``eps_list`` together,
    on the bracket ``(lo, hi)`` that :func:`_bracket` gives.

    Each eps runs :func:`_zeta_steps` on its own memo, and every
    expansion reads its propagator tables from ``tables``, a cache that
    lives as long as the caller holds it (one of its own by default).
    The first batched expansion evaluates the scan of every eps; each
    later one evaluates the zetas of the next step of every live solve,
    up to three per solve.  Entry i of the result is ``(zeta, expansion,
    balance)`` as :func:`_zeta_steps` returns it at ``eps_list[i]``, or
    the exception that solve raised; the caller raises those in the order
    the solves one at a time would.
    """
    sys.require_certified()
    tables = {} if tables is None else tables
    tol = ZETA_TOL * max(1.0, abs(sys.a))
    lo, hi = bracket
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")
    xs = [float(x) for x in np.linspace(lo, hi, SCAN_POINTS)]
    solves = [_zeta_steps(lo, hi, xs, tol) for _ in eps_list]
    wanted = {i: next(solve) for i, solve in enumerate(solves)}
    outcomes: list = [None] * len(solves)
    while wanted:
        live = list(wanted)
        evaluation = _Evaluation(
            sys, [eps_list[i] for i in live for _ in wanted[i]],
            [z for i in live for z in wanted[i]], K, N, tables)
        stop = 0
        for i in live:
            positions = range(stop, stop + len(wanted[i]))
            stop = positions.stop
            try:
                wanted[i] = solves[i].send((evaluation, positions))
            except StopIteration as done:
                outcomes[i] = done.value
                del wanted[i]
            except Exception as exc:
                # the caller raises it where the solves in turn would
                outcomes[i] = exc
                del wanted[i]
    return outcomes


def solve_zeta(eps: float, sys, K: int, N: int, bracket=None) -> float:
    """Solve the balance for zeta on a bracket.

    The bracket is scanned first: a point already below tolerance is
    returned as is (zeta = 0 is probed up front, so linear systems return
    exactly 0.0), and the sign change must be unique.  The scan takes
    :data:`SCAN_POINTS` points, ends included; zeta = 0 and the scan
    points are evaluated together in one batched expansion, then read in
    the order above: a value, or an error a point raised, counts only once
    the scan reaches that point.

    Bracketing steps then refine the sign change.  Each step evaluates,
    in one batched expansion, the root estimated by inverse cubic
    interpolation through the four evaluated zetas of smallest |H|, and
    two guards at plus and minus that estimate's error: its distance from
    the inverse quadratic root, and at least a quarter of the stopping
    width.  The bracket midpoint is asked instead when the estimate leaves
    the bracket, when its guards span more than half of it, or when the
    last step did not halve it.  Near the simple zero the guards straddle
    the root, so the bracket shrinks to the guards' spacing.  The steps
    stop at an exact zero or at a sign-change bracket narrower than
    :data:`BRACKET_TOL` (1 + |root|), whose end of smaller |H| is the
    root; the root must meet |H| <= :data:`ZETA_TOL` max(1, |a|), else
    :class:`BifurcationSolveError` is raised.  Each zeta is evaluated
    once, and the root's expansion is that of its own evaluation.  This
    is the lockstep solve of :func:`solve_response` over one eps.
    """
    (outcome,) = _lockstep(sys, [eps], K, N, _bracket(bracket, None))
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[0]


@dataclass
class ResponseSolution:
    """Assembled quasi-periodic response with residual diagnostics."""

    c0: float
    zeta: float
    u: FourierSeries  # zero mode equals zeta
    epsilon: float
    residual_range: float
    residual_bifurcation: float
    K: int
    N: int
    ratios: list = field(default_factory=list)
    ratio_estimate: float = 0.0
    continuity_checked: bool = False
    probe_norms: list = field(default_factory=list)
    # the expansion u was assembled from; not serialised
    ladder: OrderLadder | None = field(default=None, repr=False, compare=False)

    def response_norm(self) -> float:
        """|zeta| + sum of nonzero-mode amplitudes (sup-norm majorant)."""
        return abs(self.zeta) + self.u.without_zero_mode().weighted_norm(0.0)

    def x_at_times(self, times, omega) -> np.ndarray:
        angles = np.outer(np.asarray(times, dtype=float), omega)
        values = self.u.evaluate_many(angles)
        worst = float(np.max(np.abs(values.imag))) if values.size else 0.0
        if worst > 1e-9 * max(1.0, float(np.max(np.abs(values.real)))):
            raise SymmetryError("response evaluation is not real-valued")
        return self.c0 + values.real

    def velocity_at_times(self, times, omega) -> np.ndarray:
        du = self.u.time_derivative(omega)
        angles = np.outer(np.asarray(times, dtype=float), omega)
        return du.evaluate_many(angles).real

    def to_json_dict(self) -> dict:
        return {
            "c0": self.c0,
            "zeta": self.zeta,
            "epsilon": self.epsilon,
            "residuals": {
                "range": self.residual_range,
                "bifurcation": self.residual_bifurcation,
            },
            "u": self.u.to_json_dict(),
            "ladder_meta": {
                "K": self.K,
                "N": self.N,
                "ratios": list(self.ratios),
                "ratio_estimate": self.ratio_estimate,
                "continuity_checked": self.continuity_checked,
                "probe_norms": list(self.probe_norms),
            },
        }


def _responses(sys, eps_list, K, N, roots, tables) -> list:
    """The response at each eps of ``eps_list`` from its root ``(zeta,
    (ladder, ratios, estimate, assembled series), balance)``, with its
    residuals; a root that is an exception stays in its place.  The range
    residuals of all roots are formed in one batch, each bitwise what it
    is alone, reading the propagator tables of the solve."""
    solved = [i for i, root in enumerate(roots)
              if not isinstance(root, Exception)]
    out = list(roots)
    if not solved:
        return out
    residuals = range_residuals(
        sys, [eps_list[i] for i in solved],
        DenseBlock.stack([roots[i][1][3] for i in solved]), N, tables)
    for i, residual in zip(solved, residuals):
        zeta, (ladder, ratios, estimate, w), balance = roots[i]
        out[i] = ResponseSolution(
            c0=sys.c0,
            zeta=zeta,
            u=w,
            epsilon=eps_list[i],
            residual_range=residual,
            residual_bifurcation=abs(balance),
            K=K,
            N=N,
            ratios=ratios,
            ratio_estimate=estimate,
            ladder=ladder,
        )
    return out


def solve_response(eps: float, sys, K: int, N: int, *, envelope=None,
                   bounds=None, bracket=None,
                   probe: bool = True) -> ResponseSolution:
    """Solve the balance, take the expansion at the solved zeta and
    package the response with residuals.

    When ``bounds`` (an EpsilonBounds) is supplied and eps exceeds its
    admissible estimate, a warning is issued but the solve proceeds.  With
    ``probe=True`` the root is also solved at eps/2 and eps/4, in lockstep
    with the solve at eps, and ``continuity_checked`` records whether the
    response norm decreases towards zero dissipation.  A failed solve
    raises its error; the one at eps comes first, then eps/2's, then
    eps/4's.
    """
    sys.require_certified()
    if bounds is not None and abs(eps) > bounds.eps_bar:
        warnings.warn(
            f"eps = {eps!r} exceeds the constructive estimate "
            f"eps_bar = {bounds.eps_bar:.3e}; the expansion may diverge",
            stacklevel=2,
        )
    probing = probe and eps != 0.0
    eps_list = [eps, eps * 0.5, eps * 0.25] if probing else [eps]
    # the propagator tables of this solve, dropped with it
    tables: dict = {}
    roots = _lockstep(sys, eps_list, K, N, _bracket(bracket, envelope),
                      tables)
    (solution,) = _responses(sys, [eps], K, N, roots[:1], tables)
    if isinstance(solution, Exception):
        raise solution
    if probing:
        norms = [solution.response_norm()]
        for root in roots[1:]:
            if isinstance(root, Exception):
                raise root
            # the response norm of the solve at eps/2 or eps/4
            z, (_, _, _, u), _ = root
            norms.append(abs(z) + u.without_zero_mode().weighted_norm(0.0))
        solution.probe_norms = norms
        solution.continuity_checked = norms[0] > norms[1] > norms[2]
        if not solution.continuity_checked:
            warnings.warn(
                f"response norms {norms} do not decrease towards eps -> 0",
                stacklevel=2,
            )
    return solution


def solve_responses(eps_grid, sys, K: int, N: int, *, envelope=None,
                    bracket=None) -> list:
    """:func:`solve_response` without the probe at every eps of
    ``eps_grid``, all solved in lockstep.  Entry i is the solution at
    ``eps_grid[i]`` or the exception that solving there alone raises; no
    eps_bar warning is issued."""
    eps_list, tables = list(eps_grid), {}
    roots = _lockstep(sys, eps_list, K, N, _bracket(bracket, envelope),
                      tables)
    return _responses(sys, eps_list, K, N, roots, tables)
