"""The zero-mode (bifurcation) balance and its solution zeta(eps).

The range expansion leaves the average of the solution free; this module
fixes it by a derivative-free root solve of the balance

    a zeta + [nonlinear part](zero mode) = 0

over a bracket inside the analyticity disk, by Brent's method: a port of
scipy's ``Zeros/brentq.c`` that evaluates the same points and returns the
same root bit for bit, with the argument checks of
``scipy.optimize.brentq``.  The balance is the zero mode of the equation
itself, in its dissipation-homogeneous form, the form that the tree and
Picard oracles check.

The solves at several eps (the continuity probe's eps, eps/2 and eps/4,
or the points of a sweep) advance in lockstep.  Brent's method is a
generator that yields the next zeta it needs; each step gathers the next
zeta of every live solve and evaluates them all in one batched expansion
whose rows differ in eps as well as in zeta.  Every row keeps its place
in the batch, a failed one as the zero series, and is bitwise what its
evaluation alone gives, so the lockstep solves return what the solves
one eps at a time return.
"""

from __future__ import annotations

import math
import operator
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
    range_residual,
)
# not called here: bench/test_checks.py reads this binding of the name
from .ladder import build_ladder  # noqa: F401

_IMAG_TOL = 1e-12
DEFAULT_BRACKET = (-0.25, 0.25)
SCAN_POINTS = 7
# the balance residual a solved zeta meets, relative to max(1, |a|)
ZETA_TOL = 1e-12
_RTOL_MIN = 4 * np.finfo(float).eps


def _div(n: float, d: float) -> float:
    """``n / d`` as C computes it: inf or nan where Python raises."""
    if d:
        return n / d
    if n == 0 or math.isnan(n):
        return math.nan
    return math.copysign(math.inf, n) * math.copysign(1.0, d)


def brent_steps(a, b, xtol=2e-12, rtol=_RTOL_MIN, maxiter=100):
    """Brent's method on [a, b] as a generator: it yields each x at which
    f is needed, is sent f(x), and returns the root.

    A line-for-line port of scipy's ``Zeros/brentq.c`` with the checks of
    ``scipy.optimize.brentq``: the same arguments give the same points and
    root, bit for bit, and the same exceptions.
    """
    maxiter = operator.index(maxiter)
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xtol, rtol = float(xtol), float(rtol)

    def value(x):
        fx = float((yield x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = yield from value(xpre)
    fcur = yield from value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _div(fpre - fcur, xpre - xcur)
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield from value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL_MIN, maxiter=100):
    """Root of ``f`` on [a, b] by :func:`brent_steps`: what
    ``scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=rtol,
    maxiter=maxiter)`` returns."""
    steps = brent_steps(a, b, xtol, rtol, maxiter)
    x = next(steps)
    while True:
        fx = f(x)
        try:
            x = steps.send(fx)
        except StopIteration as done:
            return done.value


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

    def __init__(self, sys, eps, zetas, K, N):
        if K < 1:
            raise ValueError("K must be >= 1")
        exp = _Expansion(sys, eps, zetas, N)
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


def _zeta_steps(lo, hi, xs: list, tol: float):
    """The zeta solve at one eps, as a generator.

    It yields the list of zetas whose balance it needs next and is sent
    ``(evaluation, positions)``, the :class:`_Evaluation` holding them at
    ``positions``.  It asks first for zeta = 0 and the scan points ``xs``
    together, then for one zeta at a time; each zeta is evaluated once.
    It returns the root, its expansion (ladder, ratios, estimate,
    assembled series) and its balance, asking for the root once more when
    it no longer holds that.  It raises what :func:`solve_zeta` raises.
    """
    zetas = list(dict.fromkeys(([0.0] if lo <= 0.0 <= hi else []) + xs))
    scan, positions = yield zetas
    at = dict(zip(zetas, positions))
    values = {z: scan.outcomes[p] for z, p in at.items()}
    # (evaluation, position) of the last two zetas evaluated after the
    # scan whose ladders contracted
    held: dict = {}

    def h(z):
        if z not in values:
            evaluation, (p,) = yield [z]
            if len(held) == 2:
                del held[next(iter(held))]
            values[z] = evaluation.outcomes[p]
            if p in evaluation.ratios:
                held[z] = evaluation, p
        if isinstance(values[z], Exception):
            raise values[z]
        return values[z]

    def found(z):
        if z in held:
            evaluation, p = held[z]
        elif scan is not None:
            evaluation, p = scan, at[z]
        else:
            # the solve evaluated the root, so its expansion contracts
            evaluation, (p,) = yield [z]
        return z, evaluation.result(p), evaluation.outcomes[p]

    if lo <= 0.0 <= hi:
        h0 = yield from h(0.0)
        if abs(h0) <= tol:
            return (yield from found(0.0))

    vals = []
    for x in xs:
        v = yield from h(x)
        if abs(v) <= tol:
            return (yield from found(x))
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
    # brentq starts from the bracket ends: they are the first two held
    held.update((x, (scan, at[x])) for x in xs[i:i + 2])
    scan = None
    steps = brent_steps(xs[i], xs[i + 1], xtol=1e-15, rtol=1e-15,
                        maxiter=200)
    try:
        z = next(steps)
        while True:
            z = steps.send((yield from h(z)))
    except StopIteration as done:
        root = done.value
    value = yield from h(root)
    if abs(value) > tol:
        raise BifurcationSolveError(
            f"balance residual {abs(value):.3e} stayed above tolerance "
            f"{tol:.3e}"
        )
    return (yield from found(root))


def _bracket(bracket, envelope) -> tuple:
    """The zeta bracket of a solve: ``bracket`` when given, else
    (-rho/4, rho/4) inside the analyticity disk of ``envelope``, else
    :data:`DEFAULT_BRACKET`."""
    if bracket is not None:
        return bracket[0], bracket[1]
    if envelope is not None:
        return -envelope.rho / 4.0, envelope.rho / 4.0
    return DEFAULT_BRACKET


def _lockstep(sys, eps_list, K, N, bracket) -> list:
    """Solve the balance for zeta at every eps of ``eps_list`` together,
    on the bracket ``(lo, hi)`` that :func:`_bracket` gives.

    Each eps runs :func:`_zeta_steps` on its own memo.  The first batched
    expansion evaluates the scan of every eps; each later one evaluates
    the zetas that the live solves ask for next, one row per solve.
    Entry i of the result is ``(zeta, expansion, balance)`` as
    :func:`_zeta_steps` returns it at ``eps_list[i]``, or the exception
    that solve raised; the caller raises those in the order the solves
    one at a time would.
    """
    sys.require_certified()
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
            [z for i in live for z in wanted[i]], K, N)
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
    exactly 0.0), the sign change must be unique, and Brent's method
    then finds the root inside it, which must meet |H| <= :data:`ZETA_TOL`
    max(1, |a|): near the simple zero the balance has slope close to a,
    so Brent's root meets it, and a root that misses it raises
    :class:`BifurcationSolveError`.  The scan takes :data:`SCAN_POINTS`
    points, ends included.

    zeta = 0 and the scan points are evaluated together in one batched
    expansion, then read in the order above: a value, or an error a point
    raised, counts only once the scan reaches that point.  After the
    scan, the balance is evaluated once per distinct zeta, and the
    expansions of the last two evaluations are held; a root whose
    expansion is no longer held is evaluated again.  This is the lockstep
    solve of :func:`solve_response` over one eps.
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


def _response(sys, eps, K, N, root) -> ResponseSolution:
    """The response at ``eps`` from its root ``(zeta, (ladder, ratios,
    estimate, assembled series), balance)``, with its residuals; a root
    that is an exception is raised."""
    if isinstance(root, Exception):
        raise root
    zeta, (ladder, ratios, estimate, w), balance = root
    return ResponseSolution(
        c0=sys.c0,
        zeta=zeta,
        u=w,
        epsilon=eps,
        residual_range=range_residual(sys, eps, w, N),
        residual_bifurcation=abs(balance),
        K=K,
        N=N,
        ratios=ratios,
        ratio_estimate=estimate,
        ladder=ladder,
    )


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
    roots = _lockstep(sys, eps_list, K, N, _bracket(bracket, envelope))
    solution = _response(sys, eps, K, N, roots[0])
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
    roots = _lockstep(sys, list(eps_grid), K, N, _bracket(bracket, envelope))
    out = []
    for eps, root in zip(eps_grid, roots):
        try:
            out.append(_response(sys, eps, K, N, root))
        except Exception as exc:
            # the caller raises it where the solves in turn would
            out.append(exc)
    return out
