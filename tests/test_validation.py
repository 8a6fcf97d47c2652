import math
import sys as interpreter

import numpy as np
import pytest

import qpresponse.validation as validation
from qpresponse.bifurcation import solve_response
from qpresponse.errors import StiffnessError
from qpresponse.fourier import FourierSeries, cosine
from qpresponse.ladder import build_ladder, convergence_ratio
from qpresponse.systems import GeneralSystem, SeparableSystem, recentre
from qpresponse.validation import (
    FixedPointResult,
    compare,
    direct_solve,
    integrate,
    response_state,
)

PHI = (1 + math.sqrt(5)) / 2
GOLDEN = (1.0, PHI)


def golden_forcing():
    return cosine(2, 0).add(cosine(2, 1))


def separable(taylor, forcing=None, omega=GOLDEN, c0=0.0):
    if forcing is None:
        forcing = golden_forcing()
    return recentre(SeparableSystem(omega, forcing, taylor), c0)


class TestDirectSolve:
    def test_linear_converges_immediately(self):
        sys = separable({1: 1.0}, forcing=cosine(2, 0))
        eps = 0.05
        result = direct_solve(sys, eps, 6)
        assert result.converged
        assert result.iterations == 1
        assert result.zeta_direct == 0.0
        s = 1.0
        expected = eps * 0.5 / complex(eps * (1 - s * s), s)
        assert result.u_direct.coeff((1, 0)) == pytest.approx(expected,
                                                              abs=1e-16)

    def test_cubic_matches_series(self):
        sys = separable({1: 1.0, 3: 1.0})
        eps, K, N = 0.05, 14, 14
        sol = solve_response(eps, sys, K, N, probe=False)
        fp = direct_solve(sys, eps, N)
        assert fp.converged
        worst = max(
            abs(sol.u.coeff(nu) - fp.u_direct.coeff(nu))
            for nu in set(sol.u.support()) | set(fp.u_direct.support())
        )
        assert worst <= 1e-10

    def test_seeding_from_series_shortens_iteration(self):
        sys = separable({1: 1.0, 2: 0.6})
        eps, N = 0.05, 10
        sol = solve_response(eps, sys, 12, N, probe=False)
        seeded = direct_solve(sys, eps, N, seed=sol)
        cold = direct_solve(sys, eps, N)
        assert seeded.converged and cold.converged
        assert seeded.iterations <= cold.iterations

    def test_divergence_report_pairs_with_ladder_ratio(self):
        sys = separable({1: 1.0, 3: 1.0})
        eps = 1.5
        report = direct_solve(sys, eps, 10, max_iter=300)
        assert isinstance(report, FixedPointResult)
        assert not report.converged
        ladder = build_ladder(sys, eps, 0.0, 12, 10)
        _, estimate = convergence_ratio(ladder)
        assert estimate >= 1.0

    def test_general_system_agreement(self):
        grid = {
            ((0, 0), 1): 1.0,
            ((1, 0), 1): 0.5,
            ((-1, 0), 1): 0.5,
            ((0, 0), 2): 1.0,
            ((0, 1), 0): -0.15j,
            ((0, -1), 0): 0.15j,
        }
        sys = recentre(GeneralSystem(GOLDEN, grid), 0.0)
        eps, K, N = 0.03, 12, 12
        sol = solve_response(eps, sys, K, N, probe=False)
        fp = direct_solve(sys, eps, N)
        assert fp.converged
        worst = max(
            abs(sol.u.coeff(nu) - fp.u_direct.coeff(nu))
            for nu in set(sol.u.support()) | set(fp.u_direct.support())
        )
        assert worst <= 1e-10


class TestIntegrate:
    def test_homogeneous_decay(self):
        sys = separable({1: 1.0}, forcing=golden_forcing().scaled(0.0))
        eps = 0.05
        traj = integrate(sys, eps, 0.1, 0.0, 20 / eps, tol=1e-10, samples=50)
        assert abs(traj.x[-1]) <= 1e-3

    def test_linear_single_mode_matches_closed_form(self):
        sys = separable({1: 1.0}, forcing=cosine(2, 0))
        eps, tol = 0.05, 1e-11
        sol = solve_response(eps, sys, 3, 6, probe=False)
        x0, v0 = response_state(sol, GOLDEN, 0.0)
        T0 = 10 / eps
        times = np.linspace(T0, T0 + 30, 301)
        traj = integrate(sys, eps, x0, v0, T0 + 30, tol, t_eval=times)
        ref = sol.x_at_times(times, GOLDEN)
        assert np.max(np.abs(traj.x - ref)) <= 10 * tol

    def test_constant_forcing_settles_at_fixed_point(self):
        f = FourierSeries(2, {(0, 0): 1.3}, real_valued=True)
        sys = separable({1: 1.0}, forcing=f, c0=1.3)
        traj = integrate(sys, 0.05, 0.0, 0.0, 600, tol=1e-10, samples=20)
        assert traj.x[-1] == pytest.approx(1.3, abs=1e-9)

    def test_stiffness_guard(self):
        sys = separable({1: 1.0})
        with pytest.raises(StiffnessError):
            integrate(sys, 5e-4, 0.0, 0.0, 1.0)

    def test_tol_guard(self):
        sys = separable({1: 1.0})
        with pytest.raises(ValueError):
            integrate(sys, 0.05, 0.0, 0.0, 1.0, tol=1e-14)

    def test_without_scipy_the_error_names_scipy(self, monkeypatch):
        # as `from scipy.integrate import odeint` words a missing scipy
        monkeypatch.setattr(validation, "_lsoda", None)
        monkeypatch.delitem(interpreter.modules, "scipy.integrate._odepack",
                            raising=False)
        monkeypatch.setitem(interpreter.modules, "scipy", None)
        with pytest.raises(ModuleNotFoundError,
                           match="^No module named 'scipy'$") as missing:
            integrate(separable({1: 1.0}), 0.05, 0.0, 0.0, 1.0)
        assert missing.value.name == "scipy"


class TestCompare:
    def test_linear_three_initial_conditions(self):
        sys = separable({1: 1.0}, forcing=cosine(2, 0))
        eps = 0.05
        sol = solve_response(eps, sys, 3, 6, probe=False)
        x0, v0 = response_state(sol, GOLDEN, 0.0)
        ics = [(x0 + 0.05, v0), (x0 - 0.03, v0 + 0.04), (x0, v0 - 0.05)]
        report = compare(sol, sys, eps, ics, tol=1e-10)
        assert report.sup_error <= 1e-6
        assert len(report.sup_errors) == 3

    def test_negative_feedback_skips_attraction(self):
        # a < 0: the response exists but repels; compare judges nothing and
        # still measures finite errors for the caller
        sys = separable({1: -1.0}, forcing=cosine(2, 0))
        eps = 0.05
        sol = solve_response(eps, sys, 3, 6, probe=False)
        assert sol.residual_bifurcation <= 1e-12
        x0, v0 = response_state(sol, GOLDEN, 0.0)
        report = compare(sol, sys, eps, [(x0, v0)], T0=1.0, T1=5.0, tol=1e-10)
        assert report.transient_time == 1.0
        assert len(report.sup_errors) == 1
        assert math.isfinite(report.sup_error)
        assert report.sup_error == report.sup_errors[0]
        assert not hasattr(report, "attraction_verified")

    def test_tighter_integrator_does_not_worsen_error(self):
        sys = separable({1: 1.0}, forcing=cosine(2, 0))
        eps = 0.05
        sol = solve_response(eps, sys, 3, 6, probe=False)
        x0, v0 = response_state(sol, GOLDEN, 0.0)
        loose = compare(sol, sys, eps, [(x0 + 0.05, v0)], T1=20.0, tol=1e-8)
        tight = compare(sol, sys, eps, [(x0 + 0.05, v0)], T1=20.0, tol=5e-9)
        assert tight.sup_error <= 2 * max(loose.sup_error, 1e-13)


def test_response_state_consistency():
    sys = separable({1: 1.0}, forcing=cosine(2, 0))
    sol = solve_response(0.05, sys, 3, 6, probe=False)
    x, v = response_state(sol, GOLDEN, 0.3)
    h = 1e-6
    xp = sol.x_at_times([0.3 + h], GOLDEN)[0]
    xm = sol.x_at_times([0.3 - h], GOLDEN)[0]
    assert v == pytest.approx((xp - xm) / (2 * h), abs=1e-6)


def test_trajectory_csv_format(tmp_path):
    from qpresponse.validation import write_trajectory_csv

    sys = separable({1: 1.0}, forcing=cosine(2, 0))
    sol = solve_response(0.05, sys, 3, 6, probe=False)
    x0, v0 = response_state(sol, GOLDEN, 0.0)
    report = compare(sol, sys, 0.05, [(x0, v0)], T0=5.0, T1=10.0, tol=1e-10,
                     samples=51)
    out = tmp_path / "trajectory.csv"
    write_trajectory_csv(out, report.trajectories[0], report.reference)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,x,y,x_response,abs_error"
    assert len(lines) == 52
    t, x, y, xr, err = (float(v) for v in lines[1].split(","))
    assert err == abs(x - xr)
