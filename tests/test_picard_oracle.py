"""The pseudo-spectral Picard oracle against the series-based solve it
replaced.

``validation.direct_solve`` forms nl(w) on its own FFT grid.  The solve
below is the one it replaced, kept as the reference: it forms nl(w) with
``ladder.nonlinearity_series`` and sorts every mode into dicts on every
iteration.  Both must stop after the same number of iterations with the
same verdict, and every coefficient must agree to rounding, on d = 1, 2
and 3, real and complex grids, a near-resonant omega, eps close to
eps_bar and a seeded start.
"""

import math

import numpy as np
import pytest

from qpresponse.bifurcation import solve_response
from qpresponse.fourier import DenseBlock, FourierSeries, cosine, mode_norm
from qpresponse.ladder import (
    forcing_term,
    nonlinearity_series,
    propagator_denominator,
)
from qpresponse.systems import GeneralSystem, SeparableSystem, recentre
from qpresponse.validation import PICARD_MAX_ITER, PICARD_TOL, direct_solve

from test_batched_scan import eps_near_bar, near_resonant_system
from test_fast_paths import OMEGAS, TAYLOR, general_system, separable_system


def reference_residual(sys, eps, w_c, nl_c, f_c, N):
    a = sys.a
    zero = (0,) * sys.dimension
    worst = abs(a * w_c.get(zero, 0j).real + nl_c.get(zero, 0j).real)
    for nu in sorted(set(w_c) | set(nl_c) | set(f_c)):
        if not any(nu) or mode_norm(nu) > N:
            continue
        s = 0.0
        for x, om in zip(nu, sys.omega):
            s += x * om
        d = propagator_denominator(eps, s, a)
        worst = max(worst, abs(d * w_c.get(nu, 0j) + eps * nl_c.get(nu, 0j)
                               - eps * f_c.get(nu, 0j)))
    return worst


def reference_direct_solve(sys, eps, N, seed=None, *, tol=PICARD_TOL,
                           max_iter=PICARD_MAX_ITER):
    """The Picard solve on dicts of modes, nl(w) by the series engine:
    (series, iterations, residual, converged)."""
    d = sys.dimension
    a = sys.a
    if seed is not None:
        w = seed.u.truncate(N)
    else:
        w = FourierSeries(d, {}, real_valued=True)
    f_c = dict(forcing_term(sys).items_sorted())
    iterations = 0
    residual = math.inf
    for iterations in range(max_iter + 1):
        nl = nonlinearity_series(sys, w)
        nl_c = dict(nl.items_sorted())
        residual = reference_residual(sys, eps, dict(w.items_sorted()), nl_c,
                                      f_c, N)
        if residual <= tol:
            return w, iterations, residual, True
        if not math.isfinite(residual) or w.weighted_norm(0.0) > 1e6:
            break
        if iterations == max_iter:
            break
        table = {}
        for nu in sorted(set(f_c) | set(nl_c)):
            if not any(nu) or mode_norm(nu) > N:
                continue
            s = 0.0
            for x, om in zip(nu, sys.omega):
                s += x * om
            dd = propagator_denominator(eps, s, a)
            table[nu] = eps * (f_c.get(nu, 0j) - nl_c.get(nu, 0j)) / dd
        table[(0,) * d] = -nl.zero_mode().real / a
        w = FourierSeries(d, table, w.real_valued)
    return w, iterations, residual, False


def general_d3_system():
    """Complex theorem-2 grid in d = 3 with angle coupling at p = 1 and 2."""
    grid = {
        ((0, 0, 0), 1): 1.2,
        ((0, 1, 0), 1): 0.2 - 0.1j,
        ((0, -1, 0), 1): 0.2 + 0.1j,
        ((0, 0, 0), 2): 0.5,
        ((1, 0, -1), 2): 0.1j,
        ((-1, 0, 1), 2): -0.1j,
        ((0, 0, 0), 3): 0.3,
        ((1, 0, 0), 0): 0.2 + 0.05j,
        ((-1, 0, 0), 0): 0.2 - 0.05j,
        ((0, 0, 1), 0): -0.1,
        ((0, 0, -1), 0): -0.1,
    }
    return recentre(GeneralSystem(OMEGAS[3], grid), 0.0)


def general_d1_system():
    """Complex theorem-2 grid in d = 1 whose top layer (p = 2) reaches
    |nu| = 3, farther than its p = 1 layer."""
    grid = {
        ((0,), 1): -0.8,
        ((1,), 1): 0.1 + 0.2j,
        ((-1,), 1): 0.1 - 0.2j,
        ((0,), 2): 0.6,
        ((3,), 2): 0.05j,
        ((-3,), 2): -0.05j,
        ((1,), 0): 0.3 - 0.1j,
        ((-1,), 0): 0.3 + 0.1j,
    }
    return recentre(GeneralSystem((math.sqrt(2.0),), grid), 0.0)


def strongly_forced_cubic():
    """x + x^3 under unit forcing on both angles: the Picard map does not
    contract at eps = 1.5."""
    forcing = cosine(2, 0).add(cosine(2, 1))
    return recentre(SeparableSystem(OMEGAS[2], forcing, {1: 1.0, 3: 1.0}),
                    0.0)


def near_bar():
    return eps_near_bar()[0]


CASES = {
    "separable-d1": (lambda: separable_system(1, TAYLOR), 0.05, 8, {}),
    "separable-d2": (lambda: separable_system(2, TAYLOR), 0.05, 6, {}),
    "separable-d3": (lambda: separable_system(3, {**TAYLOR, 5: -0.2}), 0.04,
                     3, {}),
    "general-d1": (general_d1_system, 0.05, 7, {}),
    "general-d2": (general_system, 0.04, 5, {}),
    "general-d3": (general_d3_system, 0.03, 3, {}),
    "near-resonant": (near_resonant_system, 0.05, 5, {}),
    "eps-near-bar": (near_bar, eps_near_bar()[1], 6, {}),
    "max-iter": (lambda: separable_system(2, TAYLOR), 0.05, 6,
                 dict(max_iter=2)),
    "diverging": (strongly_forced_cubic, 1.5, 6, dict(max_iter=300)),
}


def assert_same_solve(new, old):
    series, iterations, residual, converged = old
    assert (new.converged, new.iterations) == (converged, iterations)
    modes = set(series.support()) | set(new.u_direct.support())
    scale = max([1.0] + [abs(c) for _, c in series.items_sorted()])
    gap = max((abs(series.coeff(nu) - new.u_direct.coeff(nu)) for nu in modes),
              default=0.0)
    assert gap <= 1e-14 * scale
    assert abs(new.zeta_direct - series.zero_mode().real) <= 1e-14 * scale
    assert new.u_direct.real_valued == series.real_valued
    assert math.isfinite(new.final_residual) == math.isfinite(residual)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fft_solve_is_the_series_solve(name):
    make, eps, N, kwargs = CASES[name]
    sys = make()
    assert_same_solve(direct_solve(sys, eps, N, **kwargs),
                      reference_direct_solve(sys, eps, N, **kwargs))


@pytest.mark.parametrize("make, eps, K, N", [
    (lambda: separable_system(2, TAYLOR), 0.05, 10, 6),
    (general_system, 0.04, 9, 5),
    (general_d3_system, 0.03, 7, 3),
])
def test_seeded_fft_solve_is_the_seeded_series_solve(make, eps, K, N):
    sys = make()
    # seeded from a series cut at a larger radius than the solve's
    seed = solve_response(eps, sys, K, N + 2, probe=False)
    assert_same_solve(direct_solve(sys, eps, N, seed=seed),
                      reference_direct_solve(sys, eps, N, seed=seed))


def test_the_grid_keeps_aliases_off_the_ball():
    # w_N^2 times the top layer's mode 3 sits at 2 N + 3 = p_max N + r:
    # on M points, one short of (p_max + 1) N + r + 1, it would alias
    # onto the ball's edge -N
    sys = general_d1_system()
    for N in (1, 2, 3, 9):
        assert_same_solve(direct_solve(sys, 0.05, N),
                          reference_direct_solve(sys, 0.05, N))


def test_fft_solve_runs_no_series_arithmetic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle ran the series engine")

    for name in ("convolve", "add", "scaled"):
        monkeypatch.setattr(DenseBlock, name, refuse)
    calls = []
    fftn = np.fft.fftn
    monkeypatch.setattr(np.fft, "fftn",
                        lambda *a, **k: calls.append(1) or fftn(*a, **k))
    result = direct_solve(general_system(), 0.04, 5)
    assert result.converged and len(calls) == result.iterations + 1
