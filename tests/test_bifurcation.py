import math

import numpy as np
import pytest

from qpresponse.bifurcation import (
    H,
    bifurcation_balance,
    solve_response,
    solve_zeta,
)
from qpresponse.errors import BifurcationSolveError, LadderDivergenceError
from qpresponse.fourier import cosine
from qpresponse.ladder import assemble, build_ladder
from qpresponse.systems import (
    GeneralSystem,
    SeparableSystem,
    certify_envelope,
    recentre,
)

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = (1.0, PHI)


def golden_forcing():
    return cosine(2, 0).add(cosine(2, 1))


def separable(taylor, forcing=None):
    if forcing is None:
        forcing = golden_forcing()
    return recentre(SeparableSystem(GOLDEN, forcing, taylor), 0.0)


def grid_system():
    grid = {
        ((0, 0), 1): 1.0,
        ((1, 0), 1): 0.5,
        ((-1, 0), 1): 0.5,
        ((0, 0), 2): 1.0,
        ((0, 1), 0): -0.15j,
        ((0, -1), 0): 0.15j,
    }
    return recentre(GeneralSystem(GOLDEN, grid), 0.0)


def conv_brute(a: dict, b: dict) -> dict:
    out = {}
    for nu1, c1 in a.items():
        for nu2, c2 in b.items():
            key = tuple(x + y for x, y in zip(nu1, nu2))
            out[key] = out.get(key, 0j) + c1 * c2
    return out


class TestBalance:
    def test_linear_g_reduces_to_a_zeta(self):
        sys = separable({1: 1.3})
        for eps in (0.0, 0.05, 0.2):
            assert H(0.2, eps, sys, 4, 8) == pytest.approx(1.3 * 0.2, abs=1e-15)

    def test_anchor_at_origin(self):
        sys = separable({1: 1.0, 2: 0.5, 3: 0.4})
        assert H(0.0, 0.0, sys, 4, 8) == 0.0

    def test_quadratic_against_brute_force_zero_mode(self):
        eps = 0.05
        sys = separable({1: 1.0, 2: 1.0})
        ladder = build_ladder(sys, eps, 0.0, 10, 12)
        w = assemble(ladder, 1.0)
        table = dict(w.items_sorted())
        expected = conv_brute(table, table).get((0, 0), 0j).real
        assert H(0.0, eps, sys, 10, 12) == pytest.approx(expected, abs=1e-14)

    def test_general_balance_against_brute_force_zero_mode(self):
        sys = grid_system()
        eps, K, N = 0.03, 8, 10
        ladder = build_ladder(sys, eps, 0.01, K, N)
        w = assemble(ladder, 1.0)
        # a zeta + [alpha_1 * w]_0 + [alpha_2 * w^2]_0, with a = 1
        lin0 = sys.alpha1_series.convolve(w).zero_mode().real
        nl0 = sys.alpha_series(2).convolve(w.convolve(w)).zero_mode().real
        assert bifurcation_balance(sys, w) == pytest.approx(
            0.01 + lin0 + nl0, abs=1e-14)


class TestSolveZeta:
    def test_linear_gives_exact_zero(self):
        sys = separable({1: 1.0})
        for eps in (0.01, 0.1):
            assert solve_zeta(eps, sys, 4, 8) == 0.0

    def test_eps_zero_reduces_to_hypothesis(self):
        sys = separable({1: 1.0, 2: 0.7, 3: -0.3})
        assert solve_zeta(0.0, sys, 4, 8) == 0.0

    def test_quadratic_residual(self):
        sys = separable({1: 1.0, 2: 1.0})
        eps, K, N = 0.05, 12, 12
        zeta = solve_zeta(eps, sys, K, N)
        assert zeta != 0.0
        assert abs(H(zeta, eps, sys, K, N)) <= 1e-12
        # first-order prediction: zeta ~ -H(0)/a
        h0 = H(0.0, eps, sys, K, N)
        assert zeta == pytest.approx(-h0 / sys.a, abs=5e-3 * abs(h0) + 1e-12)

    def test_no_sign_change_reported(self):
        sys = separable({1: 1.0, 2: 1.0})
        with pytest.raises(BifurcationSolveError, match="sign change"):
            solve_zeta(0.05, sys, 8, 10, bracket=(0.1, 0.2))

    def test_divergence_propagates_with_advice(self):
        sys = separable({1: 1.0, 3: 1.0})
        with pytest.raises(LadderDivergenceError) as err:
            solve_zeta(5.0, sys, 14, 10)
        assert "eps" in err.value.advice


class TestSolveResponse:
    def test_linear_closed_form(self):
        f = cosine(2, 0)
        sys = separable({1: 1.0}, forcing=f)
        eps = 0.05
        sol = solve_response(eps, sys, 4, 8, probe=False)
        assert sol.zeta == 0.0
        assert sol.residual_bifurcation == 0.0
        s = 1.0
        expected = eps * 0.5 / complex(eps * (1 - s * s), s)
        assert sol.u.coeff((1, 0)) == pytest.approx(expected, abs=1e-16)
        # time reconstruction matches 2 Re(u e^{i nu . omega t})
        t = 0.7
        closed = 2 * (expected * np.exp(1j * t)).real
        assert sol.x_at_times([t], GOLDEN)[0] == pytest.approx(closed, abs=1e-13)

    def test_norms_decrease_towards_zero_dissipation(self):
        sys = separable({1: 1.0, 3: 1.0})
        norms = []
        for eps in (2.0**-4, 2.0**-6, 2.0**-8, 2.0**-10):
            sol = solve_response(eps, sys, 8, 10, probe=False)
            norms.append(sol.response_norm())
        assert norms == sorted(norms, reverse=True)
        assert norms[-1] <= 3 * 2.0**-10 * golden_forcing().weighted_norm(0.0)

    def test_probe_marks_continuity(self):
        sys = separable({1: 1.0, 3: 1.0})
        sol = solve_response(0.05, sys, 6, 8, probe=True)
        assert sol.continuity_checked
        assert len(sol.probe_norms) == 3
        assert sol.probe_norms[0] > sol.probe_norms[1] > sol.probe_norms[2]

    def test_residuals_filled_and_small(self):
        sys = separable({1: 1.0, 3: 1.0})
        sol = solve_response(0.05, sys, 14, 14, probe=False)
        assert sol.residual_bifurcation <= 1e-12
        assert sol.residual_range <= 1e-10 * max(sol.u.weighted_norm(0.0), 1e-30)
        assert sol.u.zero_mode().real == pytest.approx(sol.zeta, abs=1e-18)

    def test_warning_above_eps_bar(self):
        from qpresponse.diophantine import estimate_epsilon_bar

        sys = separable({1: 1.0, 3: 1.0})
        env = certify_envelope(sys, xi=0.5, rho=0.5)
        bounds = estimate_epsilon_bar(env, sys.a, sys.omega)
        with pytest.warns(UserWarning, match="eps_bar"):
            solve_response(2 * bounds.eps_bar, sys, 8, 10, bounds=bounds,
                           envelope=env, probe=False)

    def test_general_system_solution(self):
        sys = grid_system()
        sol = solve_response(0.03, sys, 10, 10, probe=False)
        assert sol.residual_bifurcation <= 1e-12
        assert sol.residual_range <= 1e-10 * max(sol.u.weighted_norm(0.0), 1e-30)

    def test_json_shape(self):
        sys = separable({1: 1.0})
        sol = solve_response(0.05, sys, 3, 8, probe=False)
        blob = sol.to_json_dict()
        assert set(blob) == {"c0", "zeta", "epsilon", "residuals", "u",
                             "ladder_meta"}
        assert blob["residuals"]["bifurcation"] == 0.0
        assert set(blob["ladder_meta"]) == {
            "K", "N", "ratios", "ratio_estimate", "continuity_checked",
            "probe_norms"}

    def test_keeps_the_ladder_it_assembled(self):
        sys = separable({1: 1.0, 2: 0.8, 3: 0.5})
        sol = solve_response(0.04, sys, 6, 6, probe=True)
        rebuilt = build_ladder(sys, 0.04, sol.zeta, 6, 6)
        assert sol.ladder.to_json_dict() == rebuilt.to_json_dict()
        assert list(assemble(sol.ladder).items_sorted()) == \
            list(sol.u.items_sorted())
        assert "ladder" not in sol.to_json_dict()


class TestZetaContinuity:
    def test_grid_refinement_bounds_jumps(self):
        sys = separable({1: 1.0, 2: 0.8})
        K, N = 8, 10

        def zetas(grid):
            return [solve_zeta(e, sys, K, N) for e in grid]

        coarse = np.linspace(0.01, 0.08, 8)
        fine = np.linspace(0.01, 0.08, 15)
        jump_coarse = max(abs(b - a) for a, b in zip(*(zetas(coarse),
                                                       zetas(coarse)[1:])))
        jump_fine = max(abs(b - a) for a, b in zip(*(zetas(fine),
                                                     zetas(fine)[1:])))
        # halving the grid step should roughly halve the maximal jump
        assert jump_fine <= jump_coarse * (0.5 * 4.0)
