"""Brent's method in ``bifurcation`` against ``scipy.optimize.brentq``.

The package solves the zeta balance with its own port of scipy's
``brentq``, so that no command but ``verify`` imports scipy.  scipy's
compiled solver stays the oracle here: on every bracket both must evaluate
the same points in the same order, bit for bit, return the same root and
raise the same exceptions with the same messages.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

from qpresponse.bifurcation import brent_steps, brentq

SOLVE_ZETA_TOLS = dict(xtol=1e-15, rtol=1e-15, maxiter=200)
# a step of at least delta = (xtol + rtol |x|) / 2 then shapes most moves
LOOSE_TOLS = dict(xtol=1e-2, rtol=1e-3)


def recorded(f):
    """``f`` and the list of the points it is called at."""
    points = []

    def g(x):
        points.append(x)
        return f(x)

    return g, points


def outcome(solver, f, a, b, **kw):
    """(root or exception type and message, evaluated points) in hex."""
    g, points = recorded(f)
    try:
        result = solver(g, a, b, **kw).hex()
    except (ValueError, RuntimeError) as exc:
        result = (type(exc), str(exc))
    return result, [float(x).hex() for x in points]


# f(x; c, s): a root at c, scaled by s
FAMILIES = {
    "linear": lambda c, s: lambda x: s * (x - c),
    "steep-tanh": lambda c, s: lambda x: math.tanh(1e3 * s * (x - c)),
    "near-flat-cubic": lambda c, s: lambda x: s * (x - c) ** 3,
    "tiny-values": lambda c, s: lambda x: 1e-200 * s * (x - c),
    "exponential": lambda c, s: lambda x: math.expm1(min(s * (x - c), 700.0)),
    "kinked": lambda c, s: lambda x: (x - c) * abs(x - c) ** 0.1 - 1e-9 * s,
    "wiggly": lambda c, s: lambda x: (x - c) + 0.3 * math.sin(7 * s * (x - c)),
}


@pytest.mark.parametrize("tols", [SOLVE_ZETA_TOLS, {}, LOOSE_TOLS],
                         ids=["solve-zeta-tols", "scipy-defaults", "loose"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_points_and_root_match_scipy_bit_for_bit(family, tols):
    rng = np.random.default_rng([sorted(FAMILIES).index(family), len(tols)])
    for _ in range(300):
        a, b = sorted(float(x) for x in rng.uniform(-1.0, 1.0, 2))
        c = float(rng.uniform(a, b))
        s = float(10 ** rng.uniform(-3.0, 3.0))
        if rng.random() < 0.3:
            a, b = b, a
        f = FAMILIES[family](c, s)
        assert outcome(brentq, f, a, b, **tols) == \
            outcome(scipy_brentq, f, a, b, **tols), (family, a, b, c, s)


@pytest.mark.parametrize("a, b", [(0.3, 1.0), (-1.0, 0.3), (1.0, 0.3)])
def test_exact_zero_at_an_end_is_returned_after_two_calls(a, b):
    mine = outcome(brentq, lambda x: x - 0.3, a, b)
    assert mine == outcome(scipy_brentq, lambda x: x - 0.3, a, b)
    assert mine[0] == (0.3).hex() and len(mine[1]) == 2


def nan_between(lo, hi):
    return lambda x: math.nan if lo < x < hi else x - 0.45


@pytest.mark.parametrize("f, a, b, kw", [
    (lambda x: x * x + 1.0, -1.0, 1.0, {}),
    (lambda x: 1e-200 * (x + 2.0), -1.0, 1.0, {}),
    (lambda x: math.nan, -1.0, 1.0, {}),
    (nan_between(0.9, 2.0), 0.0, 1.0, {}),
    (nan_between(0.4, 0.5), 0.0, 1.0, {}),
    (lambda x: x, -1.0, 1.0, {"xtol": 0.0}),
    (lambda x: x, -1.0, 1.0, {"xtol": -1e-3}),
    (lambda x: x, -1.0, 1.0, {"rtol": 1e-16}),
    (lambda x: x, -1.0, 1.0, {"maxiter": -1}),
], ids=["same-sign", "same-sign-tiny", "nan-at-a", "nan-at-b",
        "nan-inside", "xtol-zero", "xtol-negative", "rtol-too-small",
        "maxiter-negative"])
def test_rejections_match_scipy(f, a, b, kw):
    mine = outcome(brentq, f, a, b, **kw)
    assert mine == outcome(scipy_brentq, f, a, b, **kw)
    assert mine[0][0] is ValueError


@pytest.mark.parametrize("maxiter", [0, 1, 3])
def test_maxiter_exhaustion_raises_runtime_error(maxiter):
    f = lambda x: x ** 3 - 0.3  # noqa: E731
    mine = outcome(brentq, f, 0.0, 1.0, maxiter=maxiter)
    assert mine == outcome(scipy_brentq, f, 0.0, 1.0, maxiter=maxiter)
    assert mine[0] == (RuntimeError,
                       f"Failed to converge after {maxiter} iterations.")
    assert len(mine[1]) == 2 + maxiter


def test_generator_yields_the_points_the_driver_evaluates():
    f = lambda x: math.tanh(40.0 * (x - 0.123)) + 0.01 * x  # noqa: E731
    g, points = recorded(f)
    root = brentq(g, -0.25, 0.25, **SOLVE_ZETA_TOLS)
    steps = brent_steps(-0.25, 0.25, 1e-15, 1e-15, 200)
    yielded = [next(steps)]
    with pytest.raises(StopIteration) as done:
        while True:
            yielded.append(steps.send(f(yielded[-1])))
    assert [x.hex() for x in yielded] == [x.hex() for x in points]
    assert done.value.value == root
    assert all(type(x) is float for x in yielded)
