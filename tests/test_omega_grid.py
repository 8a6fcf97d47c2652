"""One omega . nu grid on the fast path.

The propagator table, the range residual, the time derivative and the
small-divisor walk read omega . nu from ``fourier._omega_grid``, a grid of
sums formed from 0.0 in axis order.  Each is checked bit for bit against
the scalar loop it replaced, kept here as the reference.  An ``ast`` walk
keeps hand-written omega . nu loops off the fast path and keeps the
oracles in ``validation.py`` and ``trees.py`` on loops of their own; a
second walk keeps the oracles' functions off the fast path's names and
off series arithmetic.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from qpresponse.diophantine import min_small_divisor
from qpresponse.fourier import DenseBlock, FourierSeries, _omega_grid
from qpresponse.ladder import (_table, propagator_denominator, range_residual,
                               range_residuals)

from test_batched_scan import eps_near_bar, near_resonant_system, scalar_range_residual
from test_fast_paths import TAYLOR, bits, general_system, random_series, separable_system

SRC = Path(__file__).resolve().parents[1] / "src" / "qpresponse"
FAST_PATH = ("fourier.py", "ladder.py", "bifurcation.py", "diophantine.py")
ORACLES = ("validation.py", "trees.py")
GRID_HELPER = "_omega_grid"

SQ2, SQ3 = math.sqrt(2.0), math.sqrt(3.0)


# -- the scalar loops the grid replaced ----------------------------------------

def scalar_dot(nu, omega):
    s = 0.0
    for x, w in zip(nu, omega):
        s += x * w
    return s


def scalar_table(omega, a, eps, N):
    shape = (2 * N + 1,) * len(omega)
    re, im = np.zeros(shape), np.zeros(shape)
    resonant = {}
    for idx in np.ndindex(*shape):
        nu = tuple(i - N for i in idx)
        if not any(nu) or sum(map(abs, nu)) > N:
            continue
        s = scalar_dot(nu, omega)
        d = propagator_denominator(eps, s, a)
        if abs(d) < 1e-300:
            resonant[nu] = s
            continue
        p = 1.0 / d
        re[idx], im[idx] = p.real, p.imag
    return re, im, resonant


def scalar_time_derivative(series, omega):
    out = {}
    for nu, c in series.items_sorted():
        out[nu] = 1j * scalar_dot(nu, omega) * c
    return FourierSeries(series.dimension, out, series.real_valued)


def scalar_weighted_norm(series, xi):
    total = 0.0
    for nu, c in series.items_sorted():
        total += abs(c) * math.exp(xi * sum(map(abs, nu)))
    return total


def scalar_min_small_divisor(omega, radius):
    omega = [float(w) for w in omega]
    d = len(omega)
    if d == 1:
        return abs(omega[0]), (1,)
    best, arg = math.inf, None
    w_last = omega[-1]

    def scan(prefix, prefix_dot, budget, leading_zero):
        nonlocal best, arg
        depth = len(prefix)
        if depth == d - 1:
            ks = np.arange(1 if leading_zero else -budget, budget + 1)
            if ks.size == 0:
                return
            vals = np.abs(prefix_dot + ks * w_last)
            i = int(np.argmin(vals))
            if vals[i] < best:
                best, arg = float(vals[i]), prefix + (int(ks[i]),)
            return
        w = omega[depth]
        for x in range(0 if leading_zero else -budget, budget + 1):
            scan(prefix + (x,), prefix_dot + x * w, budget - abs(x),
                 leading_zero and x == 0)

    with np.errstate(invalid="ignore"):
        scan((), 0.0, int(radius), True)
    return best, arg


def hexes(array):
    return [float(x).hex() for x in np.asarray(array).ravel()]


# -- the grid -------------------------------------------------------------------

GRID_OMEGAS = [
    (1.0,),
    (-0.0,),
    (1.0, -(1 + math.sqrt(5.0)) / 2),
    (0.0, 0.1),
    (-0.0, 0.3, -0.7),
    (1e-17, -1.0, 1e17),
    (SQ2, -0.0, SQ3, -math.pi),
]


@pytest.mark.parametrize("omega", GRID_OMEGAS)
def test_grid_is_the_scalar_sum(omega):
    d = len(omega)
    rng = np.random.default_rng(d)
    for _ in range(3):
        lo = tuple(int(x) for x in rng.integers(-6, 3, size=d))
        shape = tuple(int(x) for x in rng.integers(1, 6, size=d))
        grid = _omega_grid(omega, np.ix_(*(range(l, l + n) for l, n in zip(lo, shape))))
        assert grid.shape == shape
        want = [scalar_dot(tuple(i + l for i, l in zip(idx, lo)), omega)
                for idx in np.ndindex(*shape)]
        assert hexes(grid) == hexes(want)


# -- the propagator table -------------------------------------------------------

def table_cases():
    sys, eps = eps_near_bar()
    golden = separable_system(2, TAYLOR)
    d3 = separable_system(3, TAYLOR)
    return {
        "eps-0": (golden.omega, golden.a, 0.0, 6),
        "eps-minus-0": (golden.omega, golden.a, -0.0, 6),
        "eps-near-bar": (sys.omega, sys.a, eps, 8),
        "d1": ((1.0,), -0.7, 0.05, 9),
        "d3": (d3.omega, d3.a, 0.05, 4),
        "rational": ((1.0, 0.5), 1.3, 0.02, 5),
        "rational-eps-0": ((2.0, -1.0, 3.0), 1.0, 0.0, 3),
        "near-resonant": ((1.0, 1.0 + 1e-7), 1.0, 0.05, 5),
    }


@pytest.mark.parametrize("name", sorted(table_cases()))
def test_table_is_the_scalar_table(name):
    omega, a, eps, N = table_cases()[name]
    re, im, resonant, *_ = _table(tuple(omega), float(a), float(eps), N)
    want_re, want_im, want_resonant = scalar_table(omega, a, eps, N)
    assert re.tobytes() == want_re.tobytes() and im.tobytes() == want_im.tobytes()
    assert [(nu, s.hex()) for nu, s in resonant.items()] == \
        [(nu, s.hex()) for nu, s in want_resonant.items()]
    # a rational omega has omega . nu = 0 inside the ball; at eps = 0 D
    # vanishes there
    assert bool(resonant) == (name == "rational-eps-0")


# -- the range residual ---------------------------------------------------------

RESIDUAL_CASES = {
    "general": (general_system, 0.04, 4),
    "general-eps-minus-0": (general_system, -0.0, 3),
    "near-resonant": (near_resonant_system, 0.05, 4),
    "d3": (lambda: separable_system(3, TAYLOR), 0.03, 2),
}


@pytest.mark.parametrize("name", sorted(RESIDUAL_CASES))
def test_range_residual_on_complex_and_far_series(name):
    make, eps, N = RESIDUAL_CASES[name]
    sys = make()
    rng = np.random.default_rng(len(name))
    d = sys.dimension
    unit = (1,) + (0,) * (d - 1)
    # complex coefficients, modes past N, a mode where f has none, and a
    # series whose nonlinearity overflows to inf and NaN
    for w in (random_series(rng, d, 12, N + 2, real=False),
              random_series(rng, d, 8, N, real=True),
              FourierSeries(d, {unit: 0.5j}),
              FourierSeries(d, {unit: 1e200j, (0,) * (d - 1) + (1,): 1e160j}),
              FourierSeries(d)):
        assert range_residual(sys, eps, w, N).hex() == \
            scalar_range_residual(sys, eps, w, N).hex()


@pytest.mark.parametrize("name", sorted(RESIDUAL_CASES))
def test_range_residuals_of_a_stack_are_each_alone(name):
    # one batch of series on different boxes, at different eps, each row
    # bitwise its residual alone
    make, eps, N = RESIDUAL_CASES[name]
    sys = make()
    rng = np.random.default_rng([len(name), 6])
    d = sys.dimension
    unit = (1,) + (0,) * (d - 1)
    ws = [random_series(rng, d, 12, N + 2, real=False),
          random_series(rng, d, 8, N, real=True),
          FourierSeries(d),
          FourierSeries(d, {unit: 1e200j, (0,) * (d - 1) + (1,): 1e160j}),
          FourierSeries(d, {unit: 0.5j})]
    eps_list = [eps, 0.5 * eps, eps, 0.25 * eps, -0.0]
    got = range_residuals(sys, eps_list, DenseBlock.stack(ws), N)
    assert [r.hex() for r in got] == \
        [range_residual(sys, e, w, N).hex() for e, w in zip(eps_list, ws)]


# -- the time derivative --------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("real", [False, True])
def test_time_derivative_is_the_scalar_loop(d, real):
    rng = np.random.default_rng([d, int(real)])
    omega = GRID_OMEGAS[-1][:d] if d > 1 else (-SQ2,)
    for series in (random_series(rng, d, 15, 4, real),
                   FourierSeries(d, {(0,) * d: 2.0}, real_valued=True),
                   FourierSeries(d, real_valued=real)):
        fast = series.time_derivative(omega)
        slow = scalar_time_derivative(series, omega)
        assert bits(fast) == bits(slow)
        assert fast.real_valued == slow.real_valued
        assert fast._block.lo == slow._block.lo


# -- the weighted norm ----------------------------------------------------------

@pytest.mark.parametrize("xi", [0.0, 1e-3, 0.5, 3.0, 300.0, math.inf])
def test_weighted_norm_is_the_scalar_loop(xi):
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        series = random_series(rng, d, 20, 3, real=d != 2)
        series = series.add(FourierSeries(d, {(0,) * d: 1e-5}))
        try:
            want = scalar_weighted_norm(series, xi)
        except OverflowError:
            # exp(300 |nu|) leaves the float range from |nu| = 3 on
            assert xi == 300.0
            with pytest.raises(OverflowError):
                series.weighted_norm(xi)
            continue
        assert series.weighted_norm(xi).hex() == want.hex()
        # the zero mode at an infinite width is inf * 0 = NaN, as in the loop
        assert math.isnan(want) == (xi == math.inf)


# -- the small-divisor walk -----------------------------------------------------

WALKS = [
    ((SQ2,), 5),
    ((1.0, (1 + math.sqrt(5.0)) / 2), 300),
    ((1.0, -SQ2), 64),
    ((1.0, 2.0), 1),             # exact tie: |1| at (1, -1) and (1, 0)
    ((3.0, 5.0), 9),             # resonant: the first zero is the argmin
    ((0.5, 1.5, -2.0), 7),       # resonant, many exact ties
    ((1.0, 1.0 + 1e-7, SQ3), 6),
    ((-0.0, 1.0, SQ2), 4),       # a zero component
    ((1.0, SQ2, SQ3, math.pi), 9),
    ((0.1, 0.2, 0.3, 0.4), 8),   # ties up to rounding
    (tuple(math.sqrt(p) for p in (2, 3, 5, 7, 11)), 6),
    ((1.0, math.nan), 3),
    ((math.inf, 1.0, 2.0), 3),
]


@pytest.mark.parametrize("omega, radius", WALKS)
def test_walk_is_the_scalar_walk(omega, radius):
    got, want = min_small_divisor(omega, radius), scalar_min_small_divisor(omega, radius)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])


def test_walk_at_every_radius_to_64_in_d3():
    omega = (1.0, SQ2, SQ3)
    for radius in range(1, 65):
        got = min_small_divisor(omega, radius)
        want = scalar_min_small_divisor(omega, radius)
        assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), radius


# -- no hand-written omega . nu loop on the fast path ---------------------------

def _mentions_omega(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "omega") or \
        (isinstance(node, ast.Attribute) and node.attr == "omega")


def _omega_zip(node):
    """The position of omega among the arguments of ``zip(...)``, or None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "zip":
        for i, arg in enumerate(node.args):
            if _mentions_omega(arg):
                return i
    return None


LOOPS = (ast.For, ast.While, ast.GeneratorExp, ast.ListComp, ast.SetComp,
         ast.DictComp)
SCOPES = (ast.FunctionDef, ast.Lambda)


def _under(node, stop):
    """The nodes under ``node``, not descending into nodes of the types
    ``stop``."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(child, stop):
            stack.extend(ast.iter_child_nodes(child))


def _own(parts):
    """The nodes of a loop's body ``parts``, without its nested loops and
    functions, which are judged on their own."""
    for part in parts:
        if not isinstance(part, LOOPS + SCOPES):
            yield part
            yield from _under(part, LOOPS + SCOPES)


def omega_loops(path: Path) -> list[str]:
    """``file:line`` of every loop or generator, outside the grid helper,
    that forms omega . nu by hand: it zips a mode with omega, or its own
    body multiplies by a component of omega (``omega[...]``, a name bound
    to it, or the omega member of such a zip)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef) or func.name == GRID_HELPER:
            continue
        components = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript) \
                    and _mentions_omega(node.value.value):
                components |= {t.id for t in node.targets if isinstance(t, ast.Name)}
            if isinstance(node, (ast.For, ast.comprehension)) \
                    and _omega_zip(node.iter) is not None \
                    and isinstance(node.target, ast.Tuple):
                target = node.target.elts[_omega_zip(node.iter)]
                if isinstance(target, ast.Name):
                    components.add(target.id)

        def component(node):
            return (isinstance(node, ast.Name) and node.id in components) or \
                (isinstance(node, ast.Subscript) and _mentions_omega(node.value))

        for loop in _under(func, SCOPES):
            if isinstance(loop, ast.For):
                iters, body = [loop.iter], loop.body
            elif isinstance(loop, ast.While):
                iters, body = [], loop.body
            elif isinstance(loop, LOOPS):
                iters = [g.iter for g in loop.generators]
                body = [loop.key, loop.value] if isinstance(loop, ast.DictComp) \
                    else [loop.elt]
            else:
                continue
            multiplies = any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
                             and (component(n.left) or component(n.right))
                             for n in _own(body))
            if multiplies or any(_omega_zip(it) is not None for it in iters):
                hits.append(f"{path.name}:{loop.lineno}")
    return sorted(set(hits))


def loop_counts() -> dict:
    """Hand-written omega . nu loops on the fast path and in the oracles."""
    return {group: sum(len(omega_loops(SRC / name)) for name in names)
            for group, names in (("fast path", FAST_PATH), ("oracles", ORACLES))}


def test_fast_path_forms_omega_dot_nu_only_on_the_grid():
    assert [hit for name in FAST_PATH for hit in omega_loops(SRC / name)] == []


def test_the_oracles_keep_their_own_loops():
    # the Picard solve's omega . nu over its box, the ODE right-hand
    # side's per-mode frequencies and the tree oracle's per-mode loop
    hits = [hit for name in ORACLES for hit in omega_loops(SRC / name)]
    assert len(hits) == 3
    assert {hit.split(":")[0] for hit in hits} == set(ORACLES)


def test_the_walk_sees_the_loops_it_forbids(tmp_path):
    path = tmp_path / "loops.py"
    path.write_text(
        "def a(nu, omega):\n"
        "    s = 0.0\n"
        "    for x, w in zip(nu, omega):\n"
        "        s += x * w\n"
        "def b(nu, sys):\n"
        "    return sum(x * w for x, w in zip(nu, sys.omega))\n"
        "def c(omega, n):\n"
        "    w = omega[0]\n"
        "    for x in range(n):\n"
        "        print(x * w)\n"
        "def _omega_grid(omega, lo, shape):\n"
        "    for i, w in enumerate(omega):\n"
        "        print(lo[i] * w)\n")
    assert omega_loops(path) == ["loops.py:3", "loops.py:6", "loops.py:9"]


FAST_PATH_NAMES = {"nonlinearity_series", "_nonlinearity", "forcing_term",
                   "DenseBlock", "sum_of_products", "_Expansion",
                   "_propagator_table", GRID_HELPER}
SERIES_ARITHMETIC = {"convolve", "power", "add", "scaled"}


def fast_path_references(path: Path) -> list[str]:
    """``file:line name`` of every fast-path name that a function body in
    ``path`` reads, and of every call of a series operation
    (``.convolve``, ``.power``, ``.add``, ``.scaled``) in one.  Imports
    at module level are not function bodies."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Name) and node.id in FAST_PATH_NAMES:
                hits.add((node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in FAST_PATH_NAMES:
                hits.add((node.lineno, node.attr))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in SERIES_ARITHMETIC:
                hits.add((node.lineno, "." + node.func.attr))
    return [f"{path.name}:{line} {name}" for line, name in sorted(hits)]


def oracle_references() -> list[str]:
    """What the oracle functions reference of the fast path."""
    return [hit for name in ORACLES for hit in fast_path_references(SRC / name)]


def test_the_oracles_run_nothing_of_the_fast_path():
    assert oracle_references() == []


def test_the_reference_walk_sees_what_it_forbids(tmp_path):
    path = tmp_path / "oracle.py"
    path.write_text(
        "from .ladder import nonlinearity_series  # a binding, not a use\n"
        "def a(sys, w):\n"
        "    return nonlinearity_series(sys, w)\n"
        "def b(w, f):\n"
        "    return w.scaled(2.0).add(f)\n"
        "def c(ladder, w):\n"
        "    return ladder._propagator_table, w.power(3), w.truncate(3)\n")
    assert fast_path_references(path) == [
        "oracle.py:3 nonlinearity_series", "oracle.py:5 .add",
        "oracle.py:5 .scaled", "oracle.py:7 .power",
        "oracle.py:7 _propagator_table"]


def test_the_oracles_import_nothing_of_the_fast_path():
    forbidden = {GRID_HELPER, "DenseBlock", "sum_of_products", "_Expansion",
                 "_propagator_table"}
    for name in ORACLES:
        tree = ast.parse((SRC / name).read_text())
        imported = {alias.name.split(".")[-1] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert not imported & forbidden, name
