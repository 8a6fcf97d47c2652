"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them)
and enforces the stated tolerance and runtime budget.
"""

import math
import time

import numpy as np
import pytest

from qpresponse.bifurcation import solve_response
from qpresponse.diophantine import estimate_epsilon_bar, recheck_bounds
from qpresponse.fourier import FourierSeries, cosine
from qpresponse.ladder import build_ladder, propagator_denominator
from qpresponse.systems import (
    GeneralSystem,
    SeparableSystem,
    certify_envelope,
    recentre,
)
from qpresponse.trees import (
    TreeSupport,
    TreeValueContext,
    enumerate_all,
    sum_trees,
    verify_counting,
)
from qpresponse.validation import compare, direct_solve, integrate, response_state

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = (1.0, PHI)
# (1, 0.1 + sum_{j<=4} 10^{-j!}): far closer to rationals than the golden pair
OMEGA_L = (1.0, 0.1 + 1e-1 + 1e-2 + 1e-6 + 1e-24)


def golden_forcing():
    return cosine(2, 0).add(cosine(2, 1))


def cubic_system(omega=GOLDEN):
    return recentre(SeparableSystem(omega, golden_forcing(), {1: 1.0, 3: 1.0}),
                    0.0)


def mixed_system():
    """(1 + cos psi_1) x + x^2 + 0.3 sin psi_2 as a coefficient grid."""
    grid = {
        ((0, 0), 1): 1.0,
        ((1, 0), 1): 0.5,
        ((-1, 0), 1): 0.5,
        ((0, 0), 2): 1.0,
        ((0, 1), 0): -0.15j,
        ((0, -1), 0): 0.15j,
    }
    return recentre(GeneralSystem(GOLDEN, grid), 0.0)


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance {num:02d}] {status} - {detail} ({elapsed:.1f}s / "
          f"budget {budget:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.1f}s over budget"


def max_gap(a: FourierSeries, b: FourierSeries) -> float:
    return max(abs(a.coeff(nu) - b.coeff(nu))
               for nu in set(a.support()) | set(b.support()))


def test_01_structural_zero_second_order():
    start = time.time()
    rng = np.random.default_rng(11)
    for trial in range(5):
        taylor = {1: 1.0 + float(rng.uniform(0.2, 1.0))}
        for p in (2, 3, 4):
            taylor[p] = float(rng.normal())
        coeffs = {}
        while len(coeffs) < 4:
            nu = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            if not any(nu) or nu in coeffs:
                continue
            c = complex(rng.normal(), rng.normal())
            coeffs[nu] = coeffs.get(nu, 0j) + 0.5 * c
            neg = tuple(-x for x in nu)
            coeffs[neg] = coeffs.get(neg, 0j) + 0.5 * c.conjugate()
        forcing = FourierSeries(2, coeffs, real_valued=True)
        sys_ = recentre(SeparableSystem(GOLDEN, forcing, taylor), 0.0)
        ladder = build_ladder(sys_, float(rng.uniform(0.01, 0.08)),
                              float(rng.normal() * 0.05), 2, 10)
        assert len(ladder.order(2)) == 0, f"trial {trial}"
    report(1, True, "second order empty for 5 randomized systems",
           time.time() - start, 1.0)


def test_02_linear_exactness_and_trajectory():
    start = time.time()
    sys_ = recentre(SeparableSystem(GOLDEN, golden_forcing(), {1: 1.0}), 0.0)
    worst_coeff = 0.0
    worst_traj = 0.0
    for eps in (0.2, 0.05, 0.01):
        sol = solve_response(eps, sys_, 4, 8, probe=False)
        assert sol.zeta == 0.0
        for nu, c in sys_.range_forcing.items_sorted():
            s = nu[0] * GOLDEN[0] + nu[1] * GOLDEN[1]
            exact = eps * c / propagator_denominator(eps, s, 1.0)
            worst_coeff = max(worst_coeff, abs(sol.u.coeff(nu) - exact))
        x0, v0 = response_state(sol, GOLDEN, 0.0)
        T0 = 20.0 / eps
        times = np.linspace(T0, T0 + 40.0, 801)
        traj = integrate(sys_, eps, x0 + 0.05, v0, T0 + 40.0, tol=1e-10,
                         t_eval=times)
        ref = sol.x_at_times(times, GOLDEN)
        worst_traj = max(worst_traj, float(np.max(np.abs(traj.x - ref))))
    ok = worst_coeff <= 1e-13 and worst_traj <= 1e-6
    report(2, ok, f"coeff gap {worst_coeff:.1e} <= 1e-13, zeta exact, "
           f"trajectory sup {worst_traj:.1e} <= 1e-6",
           time.time() - start, 30.0)


def test_03_oracle_equivalence_separable():
    start = time.time()
    eps, K, N = 0.05, 20, 20
    sys_ = cubic_system()
    sol = solve_response(eps, sys_, K, N, probe=False)
    fp = direct_solve(sys_, eps, N)
    assert fp.converged
    gap = max_gap(sol.u, fp.u_direct)
    ok = (gap <= 1e-10 and sol.residual_bifurcation <= 1e-12
          and sol.ratio_estimate < 0.8)
    report(3, ok, f"series-direct gap {gap:.1e} <= 1e-10, balance residual "
           f"{sol.residual_bifurcation:.1e} <= 1e-12, ratio "
           f"{sol.ratio_estimate:.3f} < 0.8", time.time() - start, 120.0)


def test_04_oracle_equivalence_general_with_chains():
    start = time.time()
    eps, K, N = 0.03, 16, 16
    sys_ = mixed_system()
    assert sys_.a == pytest.approx(1.0)
    sol = solve_response(eps, sys_, K, N, probe=False)
    fp = direct_solve(sys_, eps, N)
    assert fp.converged
    gap = max_gap(sol.u, fp.u_direct)

    zeta_probe = 0.02
    ladder = build_ladder(sys_, eps, zeta_probe, 4, N)
    ctx = TreeValueContext(sys_, eps, zeta_probe)
    worst_rel = 0.0
    for k in range(1, 5):
        order = ladder.order(k)
        scale = max([abs(c) for _, c in order.items_sorted()] or [1.0])
        for nu in order.support():
            if not any(nu):
                continue
            rel = abs(sum_trees(k, nu, ctx) - order.coeff(nu)) / scale
            worst_rel = max(worst_rel, rel)
    ok = gap <= 1e-10 and worst_rel <= 1e-12
    report(4, ok, f"series-direct gap {gap:.1e} <= 1e-10, tree oracle "
           f"relative gap {worst_rel:.1e} <= 1e-12 (orders 1..4)",
           time.time() - start, 180.0)


def test_05_tree_counting_relations():
    start = time.time()
    rich = recentre(
        SeparableSystem(GOLDEN, golden_forcing(),
                        {1: 1.0, 2: 0.7, 3: 0.5, 4: -0.3}),
        0.0,
    )
    total = 0
    failures = 0
    for sys_ in (rich, mixed_system()):
        support = TreeSupport.from_system(sys_)
        for k in range(1, 6):
            for tree in enumerate_all(k, support):
                total += 1
                if not all(verify_counting(tree).values()):
                    failures += 1
    ok = failures == 0 and total > 0
    report(5, ok, f"{total} trees enumerated (orders 1..5, both system "
           f"classes), {failures} counting failures",
           time.time() - start, 60.0)


def test_06_response_vanishes_with_dissipation():
    start = time.time()
    sys_ = cubic_system()
    norms = []
    eps_grid = [2.0**-k for k in range(4, 11)]
    for eps in eps_grid:
        sol = solve_response(eps, sys_, 10, 12, probe=False)
        norms.append(sol.response_norm())
    decreasing = all(a > b for a, b in zip(norms, norms[1:]))
    bound = 3.0 * eps_grid[-1] * golden_forcing().weighted_norm(0.0)
    ok = decreasing and norms[-1] <= bound
    report(6, ok, f"norms strictly decreasing over eps = 2^-4..2^-10, "
           f"final {norms[-1]:.2e} <= {bound:.2e}",
           time.time() - start, 120.0)


def test_07_arbitrary_frequency_robustness():
    start = time.time()
    env = certify_envelope(cubic_system(), xi=0.5, rho=0.5)
    bounds_gold = estimate_epsilon_bar(env, 1.0, GOLDEN, guard=256)
    bounds_liou = estimate_epsilon_bar(env, 1.0, OMEGA_L, guard=256)
    assert bounds_gold.n0 <= 8 and bounds_liou.n0 <= 8
    sys_liou = cubic_system(omega=OMEGA_L)
    eps_run = 1e-3 * bounds_liou.eps_bar
    sol = solve_response(eps_run, sys_liou, 8, 12, probe=False)
    ok = (bounds_liou.eps_bar < bounds_gold.eps_bar
          and sol.ratio_estimate < 1.0
          and sol.residual_range <= 1e-10
          and sol.residual_bifurcation <= 1e-10)
    report(7, ok, f"eps_bar {bounds_liou.eps_bar:.4g} (near-resonant) < "
           f"{bounds_gold.eps_bar:.4g} (golden); solver converged at "
           f"eps = {eps_run:.2e} with residuals <= 1e-10",
           time.time() - start, 300.0)


def test_08_propagator_lower_bound():
    start = time.time()
    rng = np.random.default_rng(20260811)
    violations = 0
    for _ in range(10_000):
        a = float(rng.uniform(-3.0, 3.0))
        if abs(a) < 1e-3:
            a = math.copysign(1e-3, a)
        eps = float(rng.uniform(-1.0, 1.0)) / math.sqrt(2.0 * abs(a))
        s = float(rng.normal()) * 3.0
        d = abs(propagator_denominator(eps, s, a))
        if not d >= max(abs(a * eps), abs(s)):
            violations += 1
    report(8, violations == 0,
           f"|D| >= max(|a eps|, |s|) on 10^4 draws, {violations} violations",
           time.time() - start, 1.0)


def test_09_attractivity():
    start = time.time()
    eps = 0.02
    sys_ = cubic_system()
    sol = solve_response(eps, sys_, 16, 16, probe=False)
    x0, v0 = response_state(sol, GOLDEN, 0.0)
    ics = [(x0 + 0.08, v0), (x0 - 0.05, v0 + 0.05), (x0 + 0.02, v0 - 0.08)]
    rep = compare(sol, sys_, eps, ics, T1=50.0, tol=1e-10)
    ok = rep.sup_error <= 1e-5 and rep.pairwise_max <= 1e-8
    report(9, ok, f"3 trajectories land on the response: sup "
           f"{rep.sup_error:.1e} <= 1e-5, pairwise {rep.pairwise_max:.1e} "
           f"<= 1e-8", time.time() - start, 180.0)


def test_10_bounds_self_consistency():
    start = time.time()
    env1 = certify_envelope(cubic_system(), xi=0.5, rho=0.5)
    env2 = certify_envelope(mixed_system(), xi=0.4, rho=0.5)
    all_ok = True
    detail = []
    for theorem, env, a in ((1, env1, 1.0), (2, env2, 1.0)):
        for name, omega in (("golden", GOLDEN), ("near-resonant", OMEGA_L)):
            bounds = estimate_epsilon_bar(env, a, omega, theorem=theorem,
                                          guard=256)
            checks = recheck_bounds(bounds, a)
            all_ok = all_ok and all(checks.values())
            detail.append(f"thm{theorem}/{name}:"
                          f"{'ok' if all(checks.values()) else 'BAD'}")
    report(10, all_ok, "defining inequalities re-verified verbatim "
           + ", ".join(detail), time.time() - start, 1.0)
