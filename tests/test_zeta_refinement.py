"""The zeta solve's bracketing steps against ``scipy.optimize.brentq``.

After the scan, ``solve_zeta`` refines the sign change by batched steps,
each of an inverse-interpolated root and two guards around it.  scipy's
Brent solver on the same balance H and the same scan bracket, at the same
xtol = rtol = 1e-15, is the oracle: both stop at a sign-change bracket
narrower than 1e-15 (1 + |zeta|), so their roots lie within twice that
of each other, and the solve's root meets the balance tolerance.
"""

import gc
import importlib.util
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

import qpresponse.bifurcation as bifurcation
from qpresponse import cli
from qpresponse.bifurcation import (
    H,
    _zeta_steps,
    solve_response,
    solve_responses,
    solve_zeta,
)
from qpresponse.fourier import cosine
from qpresponse.systems import GeneralSystem, SeparableSystem, recentre

from test_batched_scan import eps_near_bar, near_resonant_system
from test_fast_paths import (
    OMEGAS,
    TAYLOR,
    general_system,
    separable_system,
    spy_builds,
)

BRENT_TOLS = dict(xtol=1e-15, rtol=1e-15, maxiter=200)


def complex_general_system(d):
    """Theorem-2 system with complex angle coefficients on every axis."""
    rng = np.random.default_rng([d, 25])
    grid = {((0,) * d, 1): 1.0, ((0,) * d, 2): 0.8, ((0,) * d, 3): -0.3}
    for axis in range(d):
        nu = tuple(int(i == axis) for i in range(d))
        neg = tuple(-x for x in nu)
        for p, scale in ((0, 0.3), (1, 0.3), (2, 0.2)):
            c = scale * complex(rng.uniform(0.5, 1.0), rng.uniform(-0.5, 0.5))
            grid[(nu, p)] = c
            grid[(neg, p)] = c.conjugate()
    return recentre(GeneralSystem(OMEGAS[d], grid), 0.0)


def large_root_system():
    """Separable system whose root at eps = 0.2 is zeta = -0.103."""
    forcing = cosine(2, 0, 2.0).add(cosine(2, 1, 2.0))
    return recentre(SeparableSystem(OMEGAS[2], forcing, TAYLOR), 0.0)


# name: (system and eps, K, N, bracket)
CASES = {
    "separable-d1": (lambda: (separable_system(1, TAYLOR), 0.05), 8, 6, None),
    "separable-d2": (lambda: (separable_system(2, TAYLOR), 0.05), 8, 6, None),
    "separable-d3": (lambda: (separable_system(3, TAYLOR), 0.05), 5, 3, None),
    "general-d1": (lambda: (complex_general_system(1), 0.05), 8, 6, None),
    "general-d2": (lambda: (general_system(), 0.04), 7, 4, None),
    "general-d3": (lambda: (complex_general_system(3), 0.04), 5, 3, None),
    "near-resonant": (lambda: (near_resonant_system(), 0.05), 6, 3, None),
    "eps-near-bar": (eps_near_bar, 6, 3, None),
    "bracket-without-zero": (lambda: (separable_system(2, TAYLOR), 0.05),
                             8, 6, (-0.01, -1e-4)),
    "large-root": (lambda: (large_root_system(), 0.2), 10, 8, None),
    # zeta = 0 is evaluated with the scan and lies inside the sign change
    # (-5e-4, 5e-4) of the root -2.7e-4, but is no scan point
    "zero-inside-scan-bracket": (lambda: (separable_system(2, TAYLOR), 0.05),
                                 8, 6, (-0.0035, 0.0025)),
}


def brent_root(eps, sys, K, N, bracket):
    """scipy's brentq on the sign change of the solve's scan."""
    lo, hi = bifurcation._bracket(bracket, None)
    xs = [float(x) for x in np.linspace(lo, hi, bifurcation.SCAN_POINTS)]
    vals = [H(x, eps, sys, K, N) for x in xs]
    (i,) = [i for i in range(len(xs) - 1) if vals[i] * vals[i + 1] < 0.0]
    return brentq(lambda z: H(z, eps, sys, K, N), xs[i], xs[i + 1],
                  **BRENT_TOLS)


@pytest.mark.parametrize("name", sorted(CASES))
def test_root_is_brentq_root_within_the_stopping_width(name):
    make, K, N, bracket = CASES[name]
    sys, eps = make()
    root = solve_zeta(eps, sys, K, N, bracket)
    want = brent_root(eps, sys, K, N, bracket)
    assert abs(root - want) <= 2 * (1e-15 + 1e-15 * abs(want)), (root, want)
    assert abs(H(root, eps, sys, K, N)) <= \
        bifurcation.ZETA_TOL * max(1.0, abs(sys.a))


class Scalar:
    """What a solve reads of an evaluation, for a scalar function."""

    def __init__(self, values):
        self.outcomes = values

    def result(self, pos):
        return None


def scan_points(lo, hi):
    return [float(x) for x in np.linspace(lo, hi, bifurcation.SCAN_POINTS)]


def drive(f, lo, hi, tol=bifurcation.ZETA_TOL):
    """Run the solve's steps on a scalar ``f``: the root and the number of
    steps after the scan."""
    xs = scan_points(lo, hi)
    steps = _zeta_steps(lo, hi, xs, tol)
    asked, count = next(steps), -1
    try:
        while True:
            count += 1
            asked = steps.send((Scalar([f(z) for z in asked]),
                                range(len(asked))))
            assert 1 <= len(asked) <= 3
    except StopIteration as done:
        return done.value[0], count


FUNCTIONS = {
    # steep: the first estimates leave the bracket or fail to halve it
    "tanh": lambda x: math.tanh(40.0 * (x - 0.123)) + 0.01 * x,
    "flat-cubic": lambda x: (x - 0.1) ** 3 + 1e-9 * (x - 0.1),
    "linear": lambda x: x - 0.1,
    "kink": lambda x: x - 0.037 if x < 0.037 else 100.0 * (x - 0.037),
    "exp": lambda x: math.exp(x) - 1.2,
}


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_steps_on_scalar_functions_stop_at_brentq_root(name):
    f = FUNCTIONS[name]
    lo, hi = -0.25, 0.25
    root, count = drive(f, lo, hi)
    want = brentq(f, lo, hi, **BRENT_TOLS)
    assert abs(root - want) <= 2 * (1e-15 + 1e-15 * abs(want)) or f(root) == 0
    # a step that does not halve the bracket is followed by a midpoint
    assert count <= 2 * math.ceil(math.log2((hi - lo) / 1e-15)) + 2


# f(x; c, s): a root at c, scaled by s
FAMILIES = {
    "linear": lambda c, s: lambda x: s * (x - c),
    "steep-tanh": lambda c, s: lambda x: math.tanh(1e3 * s * (x - c)),
    "near-flat-cubic": lambda c, s: lambda x: s * (x - c) ** 3,
    "tiny-values": lambda c, s: lambda x: 1e-200 * s * (x - c),
    "exponential": lambda c, s: lambda x: math.expm1(min(s * (x - c), 700.0)),
    "kinked": lambda c, s: lambda x: (x - c) * abs(x - c) ** 0.1 - 1e-9 * s,
    # monotone, so the root is the only one and brentq's
    "wiggly": lambda c, s: lambda x: (
        (x - c) + 0.1 * math.sin(7 * s * (x - c)) / s),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_steps_on_random_brackets_stop_at_brentq_root(family):
    # on random brackets, roots and scales the steps end within the
    # stopping width of brentq's root on the scan's sign change, or raise
    # the scan's error where the scan sees other than one sign change
    rng = np.random.default_rng([sorted(FAMILIES).index(family), 25])
    for _ in range(100):
        lo, hi = sorted(float(x) for x in rng.uniform(-1.0, 1.0, 2))
        c = float(rng.uniform(lo, hi))
        s = float(10 ** rng.uniform(-3.0, 3.0))
        f = FAMILIES[family](c, s)
        xs = scan_points(lo, hi)
        vals = [f(x) for x in xs]
        # the scan asks for zeta = 0 first, where the bracket holds it
        scanned = ([0.0] if lo <= 0.0 <= hi else []) + xs
        zeros = [x for x in scanned if f(x) == 0.0]
        if zeros:
            assert drive(f, lo, hi, 0.0) == (zeros[0], 0)
            continue
        # below every scan value, so the scan does not stop early
        tol = min(abs(f(x)) for x in scanned) / 2
        changes = [i for i in range(len(xs) - 1)
                   if vals[i] * vals[i + 1] < 0.0]
        if len(changes) != 1:
            with pytest.raises(bifurcation.BifurcationSolveError,
                               match="sign change"):
                drive(f, lo, hi, tol)
            continue
        (i,) = changes
        want = brentq(f, xs[i], xs[i + 1], **BRENT_TOLS)
        root, _ = drive(f, lo, hi, tol)
        assert xs[i] <= root <= xs[i + 1], (family, lo, hi, c, s)
        assert abs(root - want) <= 2 * (1e-15 + 1e-15 * abs(want)) \
            or f(root) == 0.0, (family, lo, hi, c, s, root, want)


def test_a_scan_point_within_tolerance_is_the_root():
    xs = scan_points(-0.25, 0.25)
    root, count = drive(lambda x: x - xs[4], -0.25, 0.25)
    assert root == xs[4] and count == 0


def test_an_asked_zeta_of_zero_balance_is_the_root():
    # the balance vanishes exactly on (0.09, 0.11), which the first step
    # reaches; the steps stop at the first zeta asked there
    def f(x):
        return 0.0 if 0.09 < x < 0.11 else x - 0.1

    root, count = drive(f, -0.25, 0.25, tol=0.0)
    assert 0.09 < root < 0.11 and count == 1


def test_a_root_whose_balance_exceeds_tol_raises():
    # slope 1e6: the balance a stopping width from the root is 1e-9
    with pytest.raises(bifurcation.BifurcationSolveError) as raised:
        drive(lambda x: 1e6 * (x - 0.1) - 1e-20, -0.25, 0.25, tol=1e-12)
    message = str(raised.value)
    assert message.startswith("balance residual ")
    assert message.endswith(" stayed above tolerance 1.000e-12")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).parents[1] / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 3, 7])
@pytest.mark.parametrize("workload",
                         ["probe_separable", "verify_general", "sweep_d3"])
def test_workload_solves_take_at_most_three_expansions(workload, seed,
                                                        monkeypatch):
    config = getattr(load_workloads(), workload)(seed)
    sys_, envelope = cli.build_system(config)
    K, N = config["truncation"]["K"], config["truncation"]["N"]
    _, batches = spy_builds(monkeypatch)
    if "epsilon_grid" in config:
        solutions = solve_responses(config["epsilon_grid"], sys_, K, N,
                                    envelope=envelope)
        assert not any(isinstance(s, Exception) for s in solutions)
    else:
        solve_response(config["epsilon"], sys_, K, N, envelope=envelope,
                       probe=config["options"]["continuity_probe"])
    assert len(batches) <= 3, [len(batch) for batch in batches]


def test_evaluations_go_once_they_hold_no_bracket_end(monkeypatch):
    # when a step is built, the solve holds only the evaluations of its
    # bracket ends, and the lockstep the one before; none outlives it
    alive = []
    built = []

    class Tracked(bifurcation._Evaluation):
        def __init__(self, *args):
            gc.collect()
            alive.append(sum(r() is not None for r in built))
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(bifurcation, "_Evaluation", Tracked)
    sys = separable_system(2, TAYLOR)
    solution = solve_response(0.05, sys, 8, 6, probe=False)
    assert len(built) == 3 and max(alive) <= 2
    # the scan's evaluation holds no end after the first step
    assert alive[-1] == 1
    gc.collect()
    assert not any(r() is not None for r in built)
    assert solution.ladder.zeta == solution.zeta
