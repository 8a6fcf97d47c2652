"""The inner loops of a solve and of ``verify`` against the loops they
replaced.

LSODA's right-hand side forms its layer weights once per distinct step
time and adds ``weight * dx`` for a layer of power 1; a sum of products
reads its plans from the cache of its solve and skips the cleans that
cannot change a cell.  The code they replaced is kept below, as it was,
as the reference: a right-hand side that evaluates its weights on every
call and takes ``dx**p`` for every power, and a sum that plans every
product afresh and cleans every product and every partial sum.  Every
result must be the reference's bits, signed zeros, infinities and NaN
included, also for operands at and beyond the bounds that decide a skip.
"""

import cmath
import gc
import json
import math
import struct
import weakref

import numpy as np
import pytest

import qpresponse.fourier as fourier
import qpresponse.ladder as ladder
import qpresponse.validation as validation
from qpresponse.bifurcation import solve_response, solve_responses
from qpresponse.fourier import DenseBlock, sum_of_products
from qpresponse.ladder import _Expansion
from qpresponse.systems import GeneralSystem, recentre

from test_batched_scan import eps_near_bar, near_resonant_system
from test_fast_paths import OMEGAS, TAYLOR, general_system, separable_system
from test_product_loops import RADII, assert_same_block, random_block

# -- the replaced code ---------------------------------------------------------


def old_rhs_factory(sys, eps):
    """The right-hand side that evaluates its weights on every call."""
    omega = sys.omega
    c0 = sys.center
    by_power = {}
    for (nu, p), c in sorted(sys.grid.items()):
        mirror = tuple(-x for x in nu)
        if mirror > nu:
            nu, c = mirror, c.conjugate()
        pairs = by_power.setdefault(p, {})
        pairs[nu] = pairs.get(nu, 0j) + c
    layers = [(p, [(1j * sum(x * w for x, w in zip(nu, omega)), c)
                   for nu, c in sorted(pairs.items())])
              for p, pairs in sorted(by_power.items())]

    def rhs(t, y):
        weights = []
        for p, entries in layers:
            total = 0.0
            for js, c in entries:
                total += (c * cmath.exp(js * t)).real if js else c.real
            weights.append((p, total))
        state = y.tolist()
        out = []
        for x, v in zip(state[0::2], state[1::2]):
            dx = x - c0
            h = 0.0
            for p, weight in weights:
                h += weight * dx**p
            out += (v, -v / eps - h)
        return out

    return rhs


def clean_every_term_sum(pairs, radius, dimension):
    """The sum that plans each product afresh and cleans every product
    and every partial sum."""
    real = all(a.real and b.real for a, b in pairs)
    batch = max([1] + [max(a.batch, b.batch) for a, b in pairs])
    terms = [(a, b, plan) for a, b in pairs
             if (plan := a.product_plan(b, radius)) is not None]
    if not terms:
        return DenseBlock.empty(dimension, batch, real)
    lo = [min(axis) for axis in zip(*(plan[0] for *_, plan in terms))]
    hi = [max(axis) for axis in zip(*(plan[1] for *_, plan in terms))]
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    total = np.zeros((batch,) + shape, dtype=complex)
    inside = None if radius is None else \
        fourier._norm_grid(tuple(lo), shape) <= radius
    scratch = np.empty_like(total) if len(terms) > 1 else None
    with np.errstate(all="ignore"):
        for k, (a, b, plan) in enumerate(terms):
            box = tuple(slice(x - l, y - l + 1)
                        for x, y, l in zip(plan[0], plan[1], lo))
            cells = total[(slice(None),) + box]
            out = cells
            if k:
                out = scratch[(slice(None),) + box]
                out.fill(0)
            fourier._slice_adds(out, plan, a, b)
            fourier._clean(out, None if inside is None else inside[box])
            if k:
                cells += out
                fourier._clean(cells)
    return fourier._cut(total, lo, real)


# -- the right-hand side ---------------------------------------------------------


class GridStub:
    """What ``_rhs_factory`` reads of a system; the grid need not be
    conjugate-symmetric."""

    def __init__(self, omega, grid, center):
        self.omega, self.grid, self.center = tuple(omega), grid, center


def random_grid(rng, d, real, n_entries):
    grid = {}
    for _ in range(n_entries):
        nu = tuple(int(x) for x in rng.integers(-2, 3, size=d))
        p = int(rng.integers(0, 5))
        c = complex(*rng.normal(size=2))
        grid[(nu, p)] = grid.get((nu, p), 0j) + c
        if real:
            mirror = (tuple(-x for x in nu), p)
            grid[mirror] = c.conjugate() if mirror != (nu, p) else c.real
    # every power 0-4 has a zero-mode entry, so each layer is present
    for p in range(5):
        grid.setdefault(((0,) * d, p), complex(rng.normal(), 0.0))
    return grid


def outcome(rhs, t, y):
    """The bits of ``rhs(t, y)``, or the type of what it raised."""
    try:
        out = rhs(t, y)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    return struct.pack(f"{len(out)}d", *out)


def lsoda_times(sys, eps):
    """The step times at which LSODA calls the right-hand side, in order."""
    times = []
    factory = validation._rhs_factory

    def spy(*args):
        rhs = factory(*args)

        def counted(t, y):
            times.append(t)
            return rhs(t, y)
        return counted

    validation._rhs_factory = spy
    try:
        validation.integrate(sys, eps, [0.3, -0.2], [0.0, 0.1], 2.0)
    finally:
        validation._rhs_factory = factory
    return times


def verify_like_system(coupling=0.4 - 0.2j, forcing=0.15 + 0.05j):
    """A theorem-2 system shaped like the verify-general workload."""
    grid = {((0, 0), 1): 1.0, ((1, 0), 1): coupling,
            ((-1, 0), 1): coupling.conjugate(), ((0, 0), 2): 1.0,
            ((0, 1), 0): forcing, ((0, -1), 0): forcing.conjugate()}
    return recentre(GeneralSystem(OMEGAS[2], grid), 0.0)


STATES = [0.0, -0.0, 0.7, -1.3, 1e-300, 5e-324, math.inf, -math.inf,
          math.nan, 2.5e3]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("pairs", [1, 2, 3])
def test_rhs_matches_the_replaced_rhs(d, real, pairs):
    rng = np.random.default_rng([d, real, pairs, 41])
    grid = random_grid(rng, d, real, 8)
    times = [0.0, 0.0, -0.0, -0.0, 0.0, 1.5, 1.5, 1.5, -1.5, -1.5, 0.0,
             2.0 ** -1074, 2.0 ** -1074, -0.0, 7.25, 7.25, math.inf,
             math.nan, math.nan, 3.0, 3.0]
    times += lsoda_times(verify_like_system(), 0.1)[:200]
    for center in (0.0, -0.4):
        sys = GridStub(OMEGAS[d], grid, center)
        new, old = validation._rhs_factory(sys, 0.1), old_rhs_factory(sys, 0.1)
        for t in times:
            # the states include x = c0 (dx = +-0), inf and NaN
            y = np.array(rng.choice(STATES + [center], size=2 * pairs))
            assert outcome(new, t, y) == outcome(old, t, y), (t, y)


def test_rhs_reuses_the_weights_of_a_repeated_time_only(monkeypatch):
    # LSODA calls f twice at most step times; the weights are formed once
    # per distinct time, and t = 0.0 is always formed afresh
    sys = verify_like_system()
    times = lsoda_times(sys, 0.1)
    exps = [0]
    exp = cmath.exp

    def counted(z):
        exps[0] += 1
        return exp(z)

    monkeypatch.setattr(cmath, "exp", counted)
    rhs = validation._rhs_factory(sys, 0.1)
    y = np.array([0.3, 0.0])
    distinct = 1 + sum(b != a or b == 0.0 for a, b in zip(times, times[1:]))
    for t in times:
        rhs(t, y)
    # two conjugate pairs: the forcing's and the coupling's
    assert exps[0] == 2 * distinct
    assert distinct < 0.6 * len(times)


@pytest.mark.parametrize("eps, T", [(1e-3, 1.5), (1.2e-3, 1.5), (0.1, 20.0)])
@pytest.mark.parametrize("coupling", [0.4 - 0.2j, 0.3 + 0.35j])
def test_integrate_gives_the_states_of_the_replaced_rhs(eps, T, coupling,
                                                        monkeypatch):
    sys = verify_like_system(coupling)
    x0, v0 = [0.31, -0.22, 0.0], [0.0, 0.1, -0.0]
    new = validation.integrate(sys, eps, x0, v0, T, samples=101)
    monkeypatch.setattr(validation, "_rhs_factory", old_rhs_factory)
    old = validation.integrate(sys, eps, x0, v0, T, samples=101)
    assert new.x.tobytes() == old.x.tobytes()
    assert new.v.tobytes() == old.v.tobytes()


# -- skipping the cleans ---------------------------------------------------------


def block(cells, lo, real=False):
    """The batch of one holding ``cells`` on the box at ``lo``, as given."""
    return DenseBlock(np.array([cells], dtype=complex), lo, real)


def planned(pairs, radius):
    return [(a, b, p) for a, b in pairs
            if (p := fourier._planned(a, b, radius, None)) is not None]


def assert_sum_is_the_replaced_sum(pairs, radius, d, skipped=None):
    with np.errstate(all="ignore"):
        want = clean_every_term_sum(pairs, radius, d)
        got = sum_of_products(pairs, radius, d)
        cached = sum_of_products(pairs, radius, d, {})
    assert_same_block(got, want)
    assert_same_block(cached, want)
    if skipped is not None:
        assert fourier._cleaned(planned(pairs, radius)) is skipped


def test_the_least_parts_decide_the_skip():
    # m_a m_b at 2^-800 skips the cleans, a factor 2 below takes them
    for least_a, least_b, skipped in ((2.0 ** -800, 1.0, True),
                                      (2.0 ** -801, 1.0, False),
                                      (2.0 ** -400, 2.0 ** -400, True),
                                      (2.0 ** -400, 2.0 ** -401, False)):
        a = block([complex(3.0, least_a), -least_a], (-1,))
        b = block([1.0, complex(2.0, -least_b), 0.0], (0,))
        assert a.part_range() == (least_a, 3.0)
        assert b.part_range() == (least_b, 2.0)
        assert_sum_is_the_replaced_sum([(a, b), (b, a)], None, 1, skipped)


def test_the_largest_parts_decide_the_skip():
    # one driving mode: 2 n M_a M_b = 2^1000 skips the cleans, 2^1001
    # takes them
    a = block([complex(2.0 ** 500, 1.0)], (0,))
    for top, skipped in ((2.0 ** 499, True), (2.0 ** 500, False)):
        b = block([top, complex(1.0, -top)], (0,))
        assert_sum_is_the_replaced_sum([(a, b)], None, 1, skipped)
    # the bound sums over the products of one sum
    b = block([2.0 ** 498, 1.0], (0,))
    assert_sum_is_the_replaced_sum([(a, b)], None, 1, True)
    assert_sum_is_the_replaced_sum([(a, b), (a, b)], None, 1, True)
    assert_sum_is_the_replaced_sum([(a, b), (a, b), (a, b)], None, 1, False)


@pytest.mark.parametrize("radius", RADII)
def test_edge_operands_give_the_replaced_sum(radius):
    one = block([1.0], (0,))
    x = block([complex(1.0, 1.5e-300), 3.0, complex(2.0, -0.0)], (0,))
    y = block([complex(-1.0, -1e-300), -3.0, 1e-310], (0,))
    cases = {
        # subnormal parts: a skip when the other factor lifts them
        "subnormal-lifted": ([(block([5e-324, 1.0], (-1,)),
                               block([2.0 ** 600, complex(2.0 ** 300,
                                                          -2.0 ** 590)], (0,)))],
                             True),
        "subnormal": ([(block([complex(5e-324, 1.0), 1.0], (-1,)), x)], False),
        # products that underflow below DROP_THRESHOLD take the full clean
        "underflow": ([(block([1e-160, 2e-160j], (-1,)),
                        block([complex(1e-160, -3e-161), 1e-150], (0,)))],
                      False),
        "overflow": ([(block([1e200, 1e200j], (0,)),
                       block([complex(1e200, 1e200), -1e200], (0,)))], False),
        "nan": ([(block([complex(math.nan, 1.0), 2.0], (0,)), one), (one, x)],
                False),
        "nan-imaginary": ([(block([complex(2.0, math.nan), 1.0], (0,)), one)],
                          False),
        "inf": ([(x, block([math.inf, 1.0], (-1,))), (one, y)], False),
        "inf-imaginary": ([(one, block([complex(1.0, -math.inf)], (2,)))],
                          False),
        # exact cancellation to +0.0, in a product and across the sum
        "cancel": ([(block([1.0, -1.0], (0,)), block([2.5, 2.5], (0,))),
                    (one, block([-3.0, 3.0, 0.25], (0,))),
                    (one, block([3.0, -3.0, 0.5], (0,)))], True),
        "cancel-below-threshold": ([(one, x), (one, y)], False),
    }
    for name, (pairs, skipped) in cases.items():
        assert_sum_is_the_replaced_sum(pairs, radius, 1,
                                       skipped if radius is None else None)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("special", [None, math.inf, math.nan])
def test_scaled_blocks_around_the_bounds_give_the_replaced_sum(d, radius,
                                                               special):
    # parts scaled by powers of two so that m_a m_b falls on both sides
    # of 2^-800 and of DROP_THRESHOLD, and M_a M_b on both sides of the
    # overflow bound, on small sparse blocks
    rng = np.random.default_rng([d, 0 if radius is None else radius + 1,
                                 0 if special is None else 1 + (special > 0), 42])
    seen = set()
    for trial in range(24):
        blocks = []
        for _ in range(3):
            b = random_block(rng, d, int(rng.integers(1, 3)),
                             int(rng.integers(1, 3)), rng.uniform(0.2, 0.9),
                             real=bool(rng.integers(2)),
                             special=special if rng.random() < 0.3 else None)
            scale = 2.0 ** int(rng.choice([-560, -420, -400, -380, 0,
                                           380, 499, 520]))
            with np.errstate(all="ignore"):
                values = b.values * scale
            blocks.append(DenseBlock(values, b.lo, b.real))
        pairs = [(blocks[i], blocks[j]) for i, j in ((0, 1), (1, 2), (2, 0))]
        n = int(rng.integers(1, 4))
        assert_sum_is_the_replaced_sum(pairs[:n], radius, d)
        seen.add(fourier._cleaned(planned(pairs[:n], radius)))
    assert seen == {True, False}


# -- the plan cache ---------------------------------------------------------------


def test_equal_boxes_with_other_supports_get_plans_of_their_own():
    one_mode = block([[0, 0, 1.0], [0, 0, 0], [0, 0, 0]], (-1, -1))
    two_modes = block([[0, 0, 1.0], [0, 0, 0], [2.0, 0, 0]], (-1, -1))
    assert one_mode.plan_key() != two_modes.plan_key()
    assert one_mode.lo == two_modes.lo and one_mode.hi == two_modes.hi
    other = block([[0.5, 0.25j], [1.0, 0]], (0, 0))
    plans = {}
    for radius in (None, 1, None):
        for a in (one_mode, two_modes):
            for pair in ((a, other), (other, a)):
                got = sum_of_products([pair], radius, 2, plans)
                assert_same_block(got, clean_every_term_sum([pair], radius, 2))
    # four pairs at two radii; the repeated radius found its plans
    assert len(plans) == 8


def spy_sums(monkeypatch):
    """Check every sum of the ladder against the replaced sum, and count
    the plan lookups and the plans made."""
    counts = {"lookups": 0, "made": 0}
    caches = []

    def checked(pairs, radius, dimension, plans=None):
        if plans is not None:
            if not any(p is plans for p in caches):
                caches.append(plans)
            before = len(plans)
            counts["lookups"] += len(pairs)
        got = sum_of_products(pairs, radius, dimension, plans)
        if plans is not None:
            counts["made"] += len(plans) - before
        assert_same_block(got, clean_every_term_sum(pairs, radius, dimension))
        return got

    monkeypatch.setattr(ladder, "sum_of_products", checked)
    return counts, caches


def dumped(solution):
    """The solution and its ladder as JSON, signed zeros apart."""
    return json.dumps([solution.to_json_dict(), solution.ladder.to_json_dict()])


SOLVES = {
    "separable-d1": (lambda: (separable_system(1, TAYLOR), 0.05), 8, 4),
    "separable-d2": (lambda: (separable_system(2, TAYLOR), 0.05), 7, 4),
    "separable-d3": (lambda: (separable_system(3, TAYLOR), 0.05), 5, 2),
    "general": (lambda: (general_system(), 0.04), 6, 3),
    "near-resonant": (lambda: (near_resonant_system(), 0.05), 6, 3),
    "eps-near-bar": (eps_near_bar, 6, 3),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_a_solve_with_shared_plans_is_the_replaced_solve(name, monkeypatch):
    make, K, N = SOLVES[name]
    sys, eps = make()
    solution = solve_response(eps, sys, K, N, probe=True)
    counts, caches = spy_sums(monkeypatch)
    checked = solve_response(eps, sys, K, N, probe=True)
    assert dumped(checked) == dumped(solution)
    # one cache for the solve, found again by later builds
    assert len(caches) == 1
    assert 0 < counts["made"] < counts["lookups"]
    # the whole solve is the one whose every sum is the replaced sum
    monkeypatch.setattr(ladder, "sum_of_products",
                        lambda pairs, radius, d, plans=None:
                        clean_every_term_sum(pairs, radius, d))
    replaced = solve_response(eps, sys, K, N, probe=True)
    assert dumped(replaced) == dumped(solution)


def test_an_expansion_without_a_solve_keeps_plans_of_its_own(monkeypatch):
    sys = general_system()
    counts, caches = spy_sums(monkeypatch)
    exp = _Expansion(sys, 0.04, [0.0, 0.1], 3)
    exp.build(5)
    assert len(caches) == 1 and 0 < counts["made"] <= counts["lookups"]
    again = _Expansion(sys, 0.04, [0.0, 0.1], 3)
    again.build(5)
    assert len(caches) == 2
    for u, v in zip(exp.orders, again.orders):
        assert_same_block(u, v)


class Plans(dict):
    """A plan cache that a weak reference can follow; it counts the
    plans it is given."""

    stored = 0

    def __setitem__(self, key, value):
        Plans.stored += 1
        super().__setitem__(key, value)


def test_the_plans_go_with_the_solve(monkeypatch):
    caches = []
    monkeypatch.setattr(Plans, "stored", 0)

    def plans(tables):
        if "plans" not in tables:
            tables["plans"] = Plans()
            caches.append(weakref.ref(tables["plans"]))
        return tables["plans"]

    monkeypatch.setattr(ladder, "_plans", plans)
    sys = general_system()
    sizes = []
    for solve in (lambda: solve_response(0.04, sys, 6, 3, probe=True),
                  lambda: solve_responses([0.03, 0.04], sys, 6, 3)):
        for _ in range(2):
            solve()
            gc.collect()
            # each solve made one cache, and nothing holds it now
            assert caches[-1]() is None
            sizes.append(len(caches))
    assert sizes == [1, 2, 3, 4] and Plans.stored > 0
    # nothing in the module keeps a plan between solves
    assert not any(isinstance(value, dict) and value
                   for name, value in vars(fourier).items()
                   if not name.startswith("__"))
