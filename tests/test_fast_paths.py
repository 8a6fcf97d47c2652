"""Fast paths against the paths they replace.

Radius-aware products, boundary-only validation, the vectorised response
evaluation and the memoized zeta solve are compared bitwise: a radius-cut
product must keep exactly the modes of the full product within the
radius, with coefficients whose real and imaginary parts have the same
bits (signed zeros included).  The stacked LSODA integrator is compared
against DOP853 within a tolerance, since the two take different steps,
and bitwise against the public ``scipy.integrate.odeint``, whose compiled
module it calls without loading ``scipy.integrate``.
"""

import cmath
import json
import math

import numpy as np
import pytest
from scipy.integrate import ode, odeint, solve_ivp
from scipy.integrate._odepack_py import _msgs

import qpresponse.bifurcation as bifurcation
from qpresponse.bifurcation import (
    H,
    _Evaluation,
    solve_response,
    solve_responses,
    solve_zeta,
)
from qpresponse.errors import (
    BifurcationSolveError,
    DimensionMismatchError,
    QPResponseError,
    StiffnessError,
    SymmetryError,
)
from qpresponse.fourier import FourierSeries, cosine, mode_norm, zero_series
from qpresponse.ladder import (
    OrderLadder,
    build_ladder,
    next_order_thm1,
    next_order_thm2,
    nonlinearity_series,
    propagator_denominator,
)
from qpresponse.systems import GeneralSystem, SeparableSystem, recentre
from qpresponse.validation import (
    _LSODA_FAILURES,
    _LSODA_TOL_FACTOR,
    _rhs_factory,
    integrate,
)

PHI = (1 + math.sqrt(5)) / 2
OMEGAS = {1: (1.0,), 2: (1.0, PHI), 3: (1.0, math.sqrt(2.0), math.sqrt(3.0))}


def random_series(rng, d, n_modes, span, real):
    """Random series on scattered modes of the box [-span, span]^d, so its
    bounding box holds empty cells; ``real`` makes it conjugate-symmetric."""
    coeffs = {}
    for _ in range(n_modes):
        nu = tuple(int(x) for x in rng.integers(-span, span + 1, size=d))
        c = complex(rng.normal(), rng.normal())
        coeffs[nu] = coeffs.get(nu, 0j) + c
    if not real:
        return FourierSeries(d, coeffs)
    sym = {}
    for nu, c in coeffs.items():
        neg = tuple(-x for x in nu)
        sym[nu] = sym.get(nu, 0j) + 0.5 * c
        sym[neg] = sym.get(neg, 0j) + 0.5 * c.conjugate()
    return FourierSeries(d, sym, real_valued=True)


def ball_series(rng, d, radius, zeta=0.1):
    """Real series on the whole l1 ball, shaped like an assembled response."""
    coeffs = {(0,) * d: zeta}
    for nu in np.ndindex(*([2 * radius + 1] * d)):
        nu = tuple(x - radius for x in nu)
        if 0 < mode_norm(nu) <= radius and nu > tuple(-x for x in nu):
            c = complex(rng.normal(), rng.normal()) * 0.3 ** mode_norm(nu)
            coeffs[nu] = c
            coeffs[tuple(-x for x in nu)] = c.conjugate()
    return FourierSeries(d, coeffs, real_valued=True)


def bits(series):
    return [(nu, c.real.hex(), c.imag.hex()) for nu, c in series.items_sorted()]


def cut(series, radius):
    return [(nu, c) for nu, c in series.items_sorted() if mode_norm(nu) <= radius]


def assert_cut_equal(fast, full, radius):
    """``fast`` holds exactly the modes of ``full`` within ``radius``,
    coefficient for coefficient and bit for bit."""
    expected = cut(full, radius)
    assert list(fast.items_sorted()) == expected
    assert fast.support() == [nu for nu, _ in expected]
    assert bits(fast) == [(nu, c.real.hex(), c.imag.hex()) for nu, c in expected]


def assert_equal_within(fast, full, radius):
    """``fast`` and ``full`` agree bit for bit on the modes within
    ``radius``; what ``fast`` holds beyond it is not compared."""
    kept = cut(fast, radius)
    expected = cut(full, radius)
    assert kept == expected
    assert [(nu, c.real.hex(), c.imag.hex()) for nu, c in kept] == \
        [(nu, c.real.hex(), c.imag.hex()) for nu, c in expected]


def radii(full):
    """Radius 0, one inside the full product's box and one beyond it."""
    top = full.max_norm()
    return (0, max(1, top // 2), top + 3)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("real", [False, True])
class TestConvolveRadius:
    def test_equals_full_product_cut(self, d, real):
        rng = np.random.default_rng([d, real, 1])
        for _ in range(4):
            a = random_series(rng, d, n_modes=12, span=4, real=real)
            b = random_series(rng, d, n_modes=9, span=3, real=real)
            full = a.convolve(b)
            for radius in radii(full):
                fast = a.convolve(b, radius=radius)
                assert_cut_equal(fast, full, radius)
                assert fast.real_valued == full.real_valued


def test_convolve_radius_edge_cases():
    a = FourierSeries(1, {(2,): 1.0})
    b = FourierSeries(1, {(1,): 1.0})
    # the product sits at 3: nothing within radius 1
    assert len(a.convolve(b, radius=1)) == 0
    assert a.convolve(b, radius=3).support() == [(3,)]
    assert len(zero_series(2).convolve(cosine(2, 0), radius=2)) == 0
    with pytest.raises(ValueError):
        a.convolve(b, radius=-1)


def separable_system(d, taylor):
    rng = np.random.default_rng([d, 7])
    forcing = zero_series(d)
    for axis in range(d):
        forcing = forcing.add(cosine(d, axis, rng.uniform(0.3, 0.6)))
    return recentre(SeparableSystem(OMEGAS[d], forcing, taylor), 0.0)


def general_system():
    """Theorem-2 system whose angle coefficients reach |nu| = 2."""
    grid = {
        ((0, 0), 1): 1.0,
        ((1, 0), 1): 0.3 + 0.1j,
        ((-1, 0), 1): 0.3 - 0.1j,
        ((0, 0), 2): 0.8,
        ((1, -1), 2): 0.2 - 0.05j,
        ((-1, 1), 2): 0.2 + 0.05j,
        ((0, 0), 3): -0.4,
        ((0, 2), 3): 0.1j,
        ((0, -2), 3): -0.1j,
        ((0, 1), 0): 0.15,
        ((0, -1), 0): 0.15,
    }
    return recentre(GeneralSystem(OMEGAS[2], grid), 0.0)


TAYLOR = {1: 1.0, 2: 1.0, 3: 0.5}


class TestNonlinearityRadius:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("real", [False, True])
    def test_separable(self, d, real):
        sys = separable_system(d, {**TAYLOR, 5: -0.2})
        rng = np.random.default_rng([d, real, 3])
        N = {1: 6, 2: 4, 3: 3}[d]
        w = ball_series(rng, d, N) if real else \
            random_series(rng, d, n_modes=10, span=N, real=False)
        full = nonlinearity_series(sys, w)
        for radius in (0, 1, N, 3 * N + 1) + radii(full):
            assert_equal_within(nonlinearity_series(sys, w, radius=radius),
                                full, radius)

    @pytest.mark.parametrize("real", [False, True])
    def test_general_with_angle_coupling(self, real):
        sys = general_system()
        rng = np.random.default_rng([2, real, 4])
        N = 4
        w = ball_series(rng, 2, N) if real else \
            random_series(rng, 2, n_modes=10, span=N, real=False)
        full = nonlinearity_series(sys, w)
        for radius in (0, 1, N, N + 2) + radii(full):
            assert_equal_within(nonlinearity_series(sys, w, radius=radius),
                                full, radius)


def _powers(sys):
    if sys.theorem == 2:
        return sys.nonlinear_powers()
    return sorted(p for p, c in sys.averaged_taylor().items() if p >= 2 and c)


def _divide(sys, eps, N, series, scale):
    out = {}
    for nu, c in series.items_sorted():
        if not any(nu) or mode_norm(nu) > N:
            continue
        s = 0.0
        for x, om in zip(nu, sys.omega):
            s += x * om
        out[nu] = scale * c * (1.0 / propagator_denominator(eps, s, sys.a))
    return out


def reference_next(sys, eps, orders, N):
    """The order after ``orders`` with every product formed at full
    support by plain ``convolve``, cut back only to the ball."""
    d = sys.dimension
    general = sys.theorem == 2
    k = len(orders) + 1
    products = {}

    def product(p, m):
        if p == 1:
            return orders[m - 1]
        if (p, m) not in products:
            total = zero_series(d)
            for j in range(1, m - p + 2):
                left, right = orders[j - 1], product(p - 1, m - j)
                if len(left) and len(right):
                    total = total.add(left.convolve(right))
            products[(p, m)] = total
        return products[(p, m)]

    source = zero_series(d)
    if general and len(sys.alpha1_series) and len(orders[-1]):
        source = source.add(sys.alpha1_series.convolve(orders[-1]))
    for p in _powers(sys):
        if p > k - 1:
            break
        block = product(p, k - 1)
        if not len(block):
            continue
        if general:
            source = source.add(sys.alpha_series(p).convolve(block))
        else:
            source = source.add(block.scaled(sys.averaged_taylor()[p]))
    return FourierSeries(d, _divide(sys, eps, N, source, -eps),
                         real_valued=True)


def reference_ladder(sys, eps, zeta, K, N):
    """Orders 1..K of the range recursion through :func:`reference_next`."""
    d = sys.dimension
    if sys.theorem == 2:
        table = _divide(sys, eps, N, sys.forcing_series, -eps)
    else:
        table = _divide(sys, eps, N, sys.range_forcing, eps)
    table[(0,) * d] = zeta
    orders = [FourierSeries(d, table, real_valued=True)]
    for _ in range(2, K + 1):
        orders.append(reference_next(sys, eps, orders, N))
    return orders


class TestLadderMatchesFullSupport:
    # K is large against N, so the products overflow the ball and the cut
    # radii decide which of their modes are formed
    @pytest.mark.parametrize("d, K, N", [(1, 9, 3), (2, 8, 3), (3, 6, 2)])
    def test_separable(self, d, K, N):
        sys = separable_system(d, {**TAYLOR, 4: 0.3})
        ladder = build_ladder(sys, 0.05, 0.02, K, N)
        expected = reference_ladder(sys, 0.05, 0.02, K, N)
        assert [bits(s) for s in ladder.orders] == [bits(s) for s in expected]

    def test_general_with_angle_coupling(self):
        sys = general_system()
        ladder = build_ladder(sys, 0.04, -0.03, 7, 3)
        expected = reference_ladder(sys, 0.04, -0.03, 7, 3)
        assert [bits(s) for s in ladder.orders] == [bits(s) for s in expected]


class TestReplayBeyondTheBall:
    """A caller's ladder may hold orders wider than its N; replaying it
    must still form every product term that reaches the ball."""

    @staticmethod
    def wide_ladder(seed, eps, k, N):
        """Orders 1..k-1 on the radius-4 ball, declared with a smaller N."""
        rng = np.random.default_rng(seed)
        orders = [ball_series(rng, 2, 4, zeta=0.02)]
        orders += [ball_series(rng, 2, 4, zeta=0.0).without_zero_mode()
                   for _ in range(k - 2)]
        return OrderLadder(orders=orders, zeta=0.02, eps=eps, N=N)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_separable(self, k):
        sys = separable_system(2, {**TAYLOR, 4: 0.3})
        ladder = self.wide_ladder([k, 5], 0.05, k, 1)
        expected = reference_next(sys, 0.05, ladder.orders, 1)
        assert bits(next_order_thm1(sys, ladder, k)) == bits(expected)

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_general_with_angle_coupling(self, k):
        sys = general_system()
        ladder = self.wide_ladder([k, 6], 0.04, k, 1)
        expected = reference_next(sys, 0.04, ladder.orders, 1)
        assert bits(next_order_thm2(sys, ladder, k)) == bits(expected)


@pytest.mark.parametrize("args, error", [
    ((2, {(1, 0, 0): 1.0}), DimensionMismatchError),
    ((2, {(1,): 1.0}), DimensionMismatchError),
    ((2, {(1.5, 0): 1.0}), ValueError),
    ((1, {(1,): 1.0, (-1,): 0.5}, True), SymmetryError),
    ((0, {}), ValueError),
])
def test_public_constructor_still_validates(args, error):
    with pytest.raises(error):
        FourierSeries(*args)


# -- the ODE oracle: one LSODA call over one stacked state ----------------

def reference_rhs(sys, eps):
    """Scalar right-hand side for one (x, v) pair, written out term by term."""
    def freq(nu):
        return sum(x * w for x, w in zip(nu, sys.omega))

    # a theorem-1 system is h = g - f: g = h_0 + f0, and f is the range
    # forcing with the average f0 at its zero mode
    g_taylor = {0: sys.f0, **sys.averaged_taylor()}
    average = FourierSeries(sys.dimension, {(0,) * sys.dimension: sys.f0})
    forcing = sys.range_forcing.add(average)

    def rhs(t, y):
        x, v = y
        dx = x - sys.center
        if sys.theorem == 2:
            h = 0.0
            for (nu, p), c in sorted(sys.grid.items()):
                h += (c * cmath.exp(1j * freq(nu) * t)).real * dx**p
            return (v, -v / eps - h)
        g = sum(c * dx**p for p, c in sorted(g_taylor.items()))
        force = sum((c * cmath.exp(1j * freq(nu) * t)).real
                    for nu, c in forcing.items_sorted())
        return (v, -v / eps - g + force)

    return rhs


def reference_trajectory(sys, eps, x0, v0, times, tol):
    sol = solve_ivp(reference_rhs(sys, eps), (0.0, times[-1]), (x0, v0),
                    method="DOP853", rtol=tol, atol=tol, t_eval=times)
    assert sol.success
    return sol.y[0], sol.y[1]


def compiled_reference(sys, eps, ics, times, tol):
    """DOP853 on the package's right-hand side, stepped by scipy's compiled
    ``ode('dop853')`` to each sample time in turn; ``solve_ivp``'s Python
    stepping would take 20-30 s a pair on verify's window at eps = 0.02.
    The short-window cases check that right-hand side against
    ``reference_rhs``.  Returns the x and v rows of each initial condition."""
    solver = ode(_rhs_factory(sys, eps)).set_integrator(
        "dop853", rtol=tol, atol=tol, nsteps=np.iinfo(np.int32).max)
    solver.set_initial_value(np.ravel(ics), 0.0)
    states = np.array([solver.integrate(t) for t in times])
    assert solver.successful()
    return states[:, 0::2].T, states[:, 1::2].T


ODE_SYSTEMS = {
    "separable-d1": lambda: separable_system(1, TAYLOR),
    "separable-d2": lambda: separable_system(2, TAYLOR),
    "separable-d3": lambda: separable_system(3, TAYLOR),
    "general": general_system,
}
TIMES = np.linspace(0.0, 3.0, 61)
WINDOW_ICS = [(0.1, -0.05), (-0.08, 0.1)]


def verify_window(sys, eps):
    """``compare``'s default samples: 2,001 over [T0, T0 + 50], after the
    transient T0 = 20/(a eps)."""
    T0 = 20.0 / (abs(sys.a) * eps)
    return np.linspace(T0, T0 + 50.0, 2001)


@pytest.mark.parametrize("name, eps, window", [
    *(pytest.param(name, eps, False, id=f"{eps}-{name}")
      for eps in (1e-3, 0.02, 0.1) for name in sorted(ODE_SYSTEMS)),
    # two stacked pairs over verify's window
    *(pytest.param(name, eps, True, id=f"{eps}-{name}-verify-window")
      for eps in (0.02, 0.1) for name in ("general", "separable-d2")),
])
def test_integrate_matches_solve_ivp(name, eps, window):
    sys = ODE_SYSTEMS[name]()
    if window:
        times = verify_window(sys, eps)
        x0s, v0s = zip(*WINDOW_ICS)
        traj = integrate(sys, eps, x0s, v0s, times[-1], tol=1e-10,
                         t_eval=times)
        x, v = compiled_reference(sys, eps, WINDOW_ICS, times, tol=1e-10)
        assert traj.x.shape == traj.v.shape == (2, times.size)
    else:
        times = TIMES
        traj = integrate(sys, eps, 0.1, -0.05, TIMES[-1], tol=1e-10,
                         t_eval=TIMES)
        x, v = reference_trajectory(sys, eps, 0.1, -0.05, TIMES, tol=1e-10)
        assert traj.x.shape == traj.v.shape == TIMES.shape
    assert traj.t.tolist() == times.tolist()
    assert np.max(np.abs(traj.x - x)) <= 1e-9
    # the fast rate 1/eps amplifies the step-to-step differences in v
    assert np.max(np.abs(traj.v - v)) <= 1e-9 / eps


@pytest.mark.parametrize("name", sorted(ODE_SYSTEMS))
def test_folded_rhs_is_the_term_by_term_sum(name):
    # one exponential per conjugate pair, against one per grid entry
    sys = ODE_SYSTEMS[name]()
    rng = np.random.default_rng([len(name), 12])
    folded, terms = _rhs_factory(sys, 0.02), reference_rhs(sys, 0.02)
    for t in [0.0, *rng.uniform(0.0, 1e3, size=20)]:
        x, v = rng.normal(scale=0.3, size=2)
        got, want = folded(t, np.array([x, v])), terms(t, (x, v))
        assert got[0] == want[0]
        assert abs(got[1] - want[1]) <= 1e-13 * max(1.0, abs(want[1]))


@pytest.mark.parametrize("name", sorted(ODE_SYSTEMS))
def test_stacked_matches_separate(name):
    sys = ODE_SYSTEMS[name]()
    ics = [(0.1, -0.05), (-0.08, 0.1), (0.0, 0.0)]
    x0s, v0s = zip(*ics)
    stacked = integrate(sys, 0.02, x0s, v0s, TIMES[-1], tol=1e-10,
                        t_eval=TIMES)
    assert stacked.x.shape == stacked.v.shape == (3, TIMES.size)
    for i, (x0, v0) in enumerate(ics):
        alone = integrate(sys, 0.02, x0, v0, TIMES[-1], tol=1e-10,
                          t_eval=TIMES)
        assert np.max(np.abs(stacked.x[i] - alone.x)) <= 1e-9
        assert np.max(np.abs(stacked.v[i] - alone.v)) <= 1e-9 / 0.02


def test_one_pair_stacked_is_the_scalar_run():
    sys = general_system()
    alone = integrate(sys, 0.02, 0.1, -0.05, 3.0, samples=31)
    stacked = integrate(sys, 0.02, [0.1], [-0.05], 3.0, samples=31)
    assert stacked.x.shape == (1, 31)
    assert stacked.x[0].tolist() == alone.x.tolist()
    assert stacked.v[0].tolist() == alone.v.tolist()


def test_repeated_and_initial_times_keep_the_state():
    sys = separable_system(2, TAYLOR)
    times = [0.0, 0.0, 1.0, 1.0, 2.0]
    traj = integrate(sys, 0.02, 0.1, 0.0, 2.0, t_eval=times)
    assert traj.x[0] == traj.x[1] == 0.1
    assert traj.x[2] == traj.x[3]
    assert traj.v[2] == traj.v[3]


class TestIntegrateGuards:
    # the eps and tol guards are checked in tests/test_validation.py
    @pytest.mark.parametrize("x0, v0", [
        ([0.1, 0.2], [0.0]),
        ([], []),
        ([[0.1]], [[0.0]]),
    ])
    def test_initial_conditions_must_pair_up(self, x0, v0):
        with pytest.raises(ValueError):
            integrate(separable_system(1, TAYLOR), 0.02, x0, v0, 1.0)

    @pytest.mark.parametrize("t_eval", [[0.5, 0.2], [-0.1, 0.5], [0.5, 1.5]])
    def test_t_eval_sorted_within_span(self, t_eval):
        with pytest.raises(ValueError):
            integrate(separable_system(1, TAYLOR), 0.02, 0.0, 0.0, 1.0,
                      t_eval=t_eval)

    def test_failed_run_names_the_return_code(self):
        # x'' + x'/eps + x - 5 x^3 = f blows up in finite time from x = 10
        sys = separable_system(1, {1: 1.0, 3: -5.0})
        with pytest.raises(StiffnessError, match="non-finite state at t = 0.5"):
            integrate(sys, 0.1, 10.0, 0.0, 5.0, samples=11)

    @pytest.mark.parametrize("x0, reason", [
        # LSODA stops with return code -3, worded as scipy words it
        (1e60, "LSODA: Illegal input detected (internal error)."),
        (1e120, "the right-hand side overflowed"),  # (1e120)**3 is no float
    ], ids=["lsoda-failure", "overflow"])
    def test_huge_states_fail_with_a_stiffness_error(self, x0, reason):
        sys = separable_system(1, {1: 1.0, 3: -5.0})
        with pytest.raises(StiffnessError) as failure:
            integrate(sys, 0.1, x0, 0.0, 5.0, samples=11)
        assert str(failure.value) == \
            f"integration failed ({reason}); increase eps or shorten T"


def test_failure_texts_are_scipys():
    # the texts scipy.integrate.odeint gives LSODA's codes -1, ..., -8
    assert {-k: text for k, text in enumerate(_LSODA_FAILURES, 1)} == \
        {code: _msgs[code] for code in range(-8, 0)}


@pytest.mark.parametrize("x0, v0, t0, times", [
    (0.1, -0.05, 0.0, TIMES),
    ((0.1, -0.08, 0.0), (-0.05, 0.1, 0.0), 0.0, TIMES),
    # t0 != 0, with the initial time and a later time repeated
    ((0.1, -0.08), (-0.05, 0.1), 0.7, [0.7, 0.7, 1.5, 1.5, 2.25, 3.0]),
], ids=["scalar", "stacked", "t0-repeated-times"])
@pytest.mark.parametrize("name", sorted(ODE_SYSTEMS))
# at eps = 1e-3 LSODA takes BDF steps up to order 5 with banded Jacobians,
# at 0.02 Adams steps up to order 8
@pytest.mark.parametrize("eps", [1e-3, 0.02])
def test_integrate_is_public_odeint_bit_for_bit(eps, name, x0, v0, t0, times):
    # integrate calls scipy's compiled LSODA module directly, with the
    # arguments scipy.integrate.odeint passes it for these settings
    sys = ODE_SYSTEMS[name]()
    times = np.array(times, dtype=float)
    traj = integrate(sys, eps, x0, v0, 3.0, tol=1e-10, t0=t0, t_eval=times)
    tol = _LSODA_TOL_FACTOR * 1e-10
    states = odeint(_rhs_factory(sys, eps),
                    np.column_stack((np.atleast_1d(x0), np.atleast_1d(v0))).ravel(),
                    np.concatenate(([t0], times)), ml=1, mu=1, rtol=tol,
                    atol=tol, mxstep=np.iinfo(np.int32).max, tfirst=True)[1:]
    x, v = states[:, 0::2].T, states[:, 1::2].T
    if np.ndim(x0) == 0:
        x, v = x[0], v[0]
    assert traj.x.shape == x.shape and traj.v.shape == v.shape
    assert traj.x.tobytes() == x.tobytes()
    assert traj.v.tobytes() == v.tobytes()


# -- response evaluation ----------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("real", [False, True])
def test_evaluate_many_bitwise_equal_to_complex_matmul(d, real):
    rng = np.random.default_rng([d, real, 8])
    w = ball_series(rng, d, 3) if real else \
        random_series(rng, d, n_modes=15, span=3, real=False)
    keys = np.array(w.support(), dtype=float)
    vals = np.array([w.coeff(nu) for nu in w.support()])
    # the rows are evaluated in blocks of at most EVALUATION_ROWS (64); 65
    # and 129 rows cut in slices of 64 would leave a block of one row,
    # which numpy multiplies by another path
    for m in (1, 2, 63, 64, 65, 129, 2001):
        times = np.concatenate([np.linspace(9.9e3, 1e4, m - m // 2),
                                np.linspace(0.0, 50.0, m // 2)])
        angles = np.outer(times, OMEGAS[d])
        expected = np.exp(1j * angles @ keys.T) @ vals
        if m == 1:
            # that other path: at d = 3 its complex phases round apart
            # from its real ones, so one row is the product of its real
            # phases
            expected = np.exp(1j * (angles @ keys.T)) @ vals
        got = w.evaluate_many(angles)
        assert got.real.tobytes() == expected.real.tobytes(), m
        assert got.imag.tobytes() == expected.imag.tobytes(), m


@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluate_is_evaluate_many_of_one_row(d):
    rng = np.random.default_rng([d, 9])
    w = random_series(rng, d, n_modes=15, span=3, real=False)
    for psi in rng.uniform(-10.0, 10.0, size=(5, d)):
        got, want = w.evaluate(list(psi)), w.evaluate_many(psi[None])[0]
        assert (got.real.hex(), got.imag.hex()) == \
            (float(want.real).hex(), float(want.imag).hex())
    assert zero_series(d).evaluate([0.5] * d) == 0j
    with pytest.raises(DimensionMismatchError):
        w.evaluate([0.0] * (d + 1))


# -- one ladder per distinct zeta ------------------------------------------

def inverse_root(points, j):
    """Neville's inverse interpolation at H = 0 through ``points[0..j]``,
    a list of (zeta, H): the recursion p(i, j) = (h_j p(i, j - 1) - h_i
    p(i + 1, j)) / (h_j - h_i), or None where two balances coincide."""
    if j == 0:
        return points[0][0]
    (_, h_i), (_, h_j) = points[0], points[j]
    if h_i == h_j:
        return None
    left, right = inverse_root(points, j - 1), inverse_root(points[1:], j - 1)
    if left is None or right is None:
        return None
    return (h_j * left - h_i * right) / (h_j - h_i)


def unmemoized_solve_zeta(eps, sys, K, N, bracket=None):
    """The zeta solve without a memo: the scan, then the bracketing steps
    of ``solve_zeta`` one zeta at a time, with H called afresh at every
    point."""
    tol = bifurcation.ZETA_TOL * max(1.0, abs(sys.a))
    lo, hi = (-0.25, 0.25) if bracket is None else bracket
    seen = {}

    def h(z):
        seen[z] = H(z, eps, sys, K, N)
        return seen[z]

    if lo <= 0.0 <= hi and abs(h(0.0)) <= tol:
        return 0.0
    xs = list(np.linspace(lo, hi, bifurcation.SCAN_POINTS))
    vals = []
    for x in xs:
        v = h(float(x))
        if abs(v) <= tol:
            return float(x)
        vals.append(v)
    (i,) = [i for i in range(len(xs) - 1) if vals[i] * vals[i + 1] < 0.0]
    a, b = float(xs[i]), float(xs[i + 1])
    halved = True
    while True:
        root = b if abs(seen[b]) < abs(seen[a]) else a
        width = b - a
        if width < 1e-15 * (1.0 + abs(root)):
            break
        points = sorted(seen.items(), key=lambda item: abs(item[1]))[:4]
        cubic, quadratic = inverse_root(points, 3), inverse_root(points, 2)
        asked = [a + width / 2]
        if halved and cubic is not None:
            e = max(abs(cubic - quadratic), 1e-15 * (1.0 + abs(cubic)) / 4)
            if a < cubic < b and 4 * e <= width:
                asked = [z for z in (cubic - e, cubic, cubic + e) if a < z < b]
        for z in asked:
            h(z)
        for z in asked:
            if seen[z] == 0.0:
                return z
        inside = sorted({a, b, *asked})
        a, b = [(l, r) for l, r in zip(inside, inside[1:])
                if (seen[l] < 0.0) != (seen[r] < 0.0)][0]
        halved = b - a <= width / 2
    if abs(seen[root]) > tol:
        raise BifurcationSolveError(
            f"balance residual {abs(seen[root]):.3e} stayed above tolerance "
            f"{tol:.3e}")
    return root


def sequential_lockstep(sys, eps_list, K, N, bracket, tables=None):
    """``bifurcation._lockstep`` as solves one eps at a time: each root
    from :func:`unmemoized_solve_zeta`, its expansion and balance built
    afresh as a batch of one, on tables of their own."""
    out = []
    for eps in eps_list:
        try:
            zeta = unmemoized_solve_zeta(eps, sys, K, N, bracket)
            alone = _Evaluation(sys, eps, [zeta], K, N)
            out.append((zeta, alone.result(0), alone.outcomes[0]))
        except QPResponseError as exc:
            out.append(exc)
    return out


def spy_builds(monkeypatch):
    """Record every (eps, zeta) row and every batch that
    ``bifurcation._Evaluation`` builds."""
    rows, batches = [], []

    class SpyEvaluation(bifurcation._Evaluation):
        def __init__(self, sys_, eps_, zetas, *args):
            super().__init__(sys_, eps_, zetas, *args)
            batch = list(zip(self.expansion.eps, zetas))
            rows.extend(batch)
            batches.append(batch)

    monkeypatch.setattr(bifurcation, "_Evaluation", SpyEvaluation)
    return rows, batches


MEMO_CASES = {
    "separable-probe": (lambda: separable_system(2, TAYLOR), 0.05, 8, 6,
                        dict(probe=True)),
    "general": (general_system, 0.04, 7, 4, dict(probe=False)),
}


@pytest.mark.parametrize("case", sorted(MEMO_CASES))
def test_memoized_solve_builds_each_zeta_once(case, monkeypatch):
    make, eps, K, N, kwargs = MEMO_CASES[case]
    sys = make()
    probed = [eps, eps * 0.5, eps * 0.25] if kwargs["probe"] else [eps]
    roots = [(e, solve_zeta(e, sys, K, N)) for e in probed]
    built, _ = spy_builds(monkeypatch)
    fast = solve_response(eps, sys, K, N, **kwargs)
    # each (eps, zeta) is built once, the root's expansion included
    assert len(set(built)) == len(built)
    assert set(roots) <= set(built)
    fast_builds = len(built)

    monkeypatch.setattr(bifurcation, "_lockstep", sequential_lockstep)
    slow = solve_response(eps, sys, K, N, **kwargs)
    assert fast_builds < len(built) - fast_builds
    assert json.dumps(fast.to_json_dict()) == json.dumps(slow.to_json_dict())
    assert [bits(s) for s in fast.ladder.orders] == \
        [bits(s) for s in slow.ladder.orders]


def test_a_root_above_tolerance_is_a_solve_error(monkeypatch):
    # at tol = 1e-17 the root's balance at eps = 0.2 (2.8e-17, rounding
    # in a balance whose terms reach 0.1) is not small enough, and every
    # solve refuses the root with the same error
    forcing = cosine(2, 0, 2.0).add(cosine(2, 1, 2.0))
    sys = recentre(SeparableSystem(OMEGAS[2], forcing, TAYLOR), 0.0)
    assert sys.a == 1.0
    monkeypatch.setattr(bifurcation, "ZETA_TOL", 1e-17)
    with pytest.raises(BifurcationSolveError) as alone:
        solve_zeta(0.2, sys, 10, 8)
    message = str(alone.value)
    assert message.startswith("balance residual ")
    assert message.endswith(" stayed above tolerance 1.000e-17")
    with pytest.raises(BifurcationSolveError) as probed:
        solve_response(0.2, sys, 10, 8)
    assert str(probed.value) == message
    eps_list = [0.2, 0.1, 0.05]
    fast = bifurcation._lockstep(sys, eps_list, 10, 8,
                                 bifurcation.DEFAULT_BRACKET)
    slow = sequential_lockstep(sys, eps_list, 10, 8,
                               bifurcation.DEFAULT_BRACKET)
    for got in (fast[0], slow[0]):
        assert isinstance(got, BifurcationSolveError)
        assert str(got) == message
    # eps/2 and eps/4 meet the tolerance
    assert [o[0] for o in fast[1:]] == [o[0] for o in slow[1:]]
    (swept,) = solve_responses([0.2], sys, 10, 8)
    assert isinstance(swept, BifurcationSolveError)
    assert str(swept) == message


def test_solve_zeta_keeps_at_most_one_expansion():
    sys = separable_system(2, TAYLOR)
    (z, (ladder, _, _, w), _), = bifurcation._lockstep(
        sys, [0.05], 8, 6, bifurcation.DEFAULT_BRACKET)
    assert z == solve_zeta(0.05, sys, 8, 6)
    assert ladder.zeta == z and w.zero_mode().real == z
