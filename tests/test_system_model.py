"""One grid-backed system model.

A separable system eps x'' + x' + eps g(x) = eps f(omega t) is the general
system with the grid {(0, p): g_p} together with {(nu, 0): -f_nu}.  The
package defines one system class, ``System``; ``SeparableSystem`` and
``GeneralSystem`` are functions that fill its grid.  The solver reads
every system through the layers of its grid, so the separable system and
the GeneralSystem built on its grid must give, bit for bit, the same
ladders, balances, zeta, response and tree sums.  No module of the
package may branch on the system's type, and the scaling that stands in
for a convolution with a constant layer must be bitwise that convolution.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qpresponse.bifurcation import (
    DEFAULT_BRACKET,
    SCAN_POINTS,
    _Evaluation,
    solve_response,
)
from qpresponse.fourier import DenseBlock
from qpresponse.ladder import build_ladder
from qpresponse.fourier import FourierSeries, cosine
from qpresponse.systems import GeneralSystem, SeparableSystem, find_c0, recentre
from qpresponse.trees import TreeValueContext, sum_trees

from test_batched_scan import eps_near_bar, near_resonant_system
from test_fast_paths import TAYLOR, bits, separable_system

SRC = Path(__file__).resolve().parents[1] / "src" / "qpresponse"
SYSTEM_TYPES = {"System", "SeparableSystem", "GeneralSystem"}


# -- no branch on the system type ---------------------------------------------

def _class_names(node):
    """The class names the second argument of isinstance may refer to."""
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            yield from _class_names(elt)
    elif isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr


def type_branches(path: Path) -> list[str]:
    """``file:line`` of every isinstance/issubclass test on a system type."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("isinstance", "issubclass") \
                and len(node.args) == 2 \
                and SYSTEM_TYPES & set(_class_names(node.args[1])):
            hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_no_module_branches_on_the_system_type():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    hits = [hit for path in modules for hit in type_branches(path)]
    assert hits == []


def test_the_package_defines_one_system_class():
    classes = [node for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    assert [c.name for c in classes if "System" in c.name] == ["System"]
    bases = {name for c in classes for base in c.bases
             for name in _class_names(base)}
    assert not bases & SYSTEM_TYPES


# -- recentre keeps the system's statement and re-expands its grid ------------

PHI = (1 + math.sqrt(5)) / 2

# (c0, grid) of the two systems below, recentred at their simple zero by
# the subclasses that recentre dispatched to before there was one class:
# (nu, p, real part, imaginary part) in sorted order, as float.hex
RECENTRED = {
    "separable": ("0x1.20b596c179919p-2", [
        ((-1, 0), 0, "-0x1.999999999999ap-3", "-0x0.0p+0"),
        ((0, -1), 0, "-0x1.3333333333333p-3", "-0x0.0p+0"),
        ((0, 0), 1, "0x1.34eee217eb793p+0", "0x0.0p+0"),
        ((0, 0), 2, "0x1.45ddb22227302p-1", "0x0.0p+0"),
        ((0, 0), 3, "0x1.0000000000000p-2", "0x0.0p+0"),
        ((0, 1), 0, "-0x1.3333333333333p-3", "-0x0.0p+0"),
        ((1, 0), 0, "-0x1.999999999999ap-3", "-0x0.0p+0")]),
    "general": ("-0x1.75d54eec3a7ecp-1", [
        ((-1, 0), 0, "-0x1.fe0a35bf506f2p-3", "0x1.5406ce7f8af4cp-4"),
        ((-1, 0), 1, "0x1.3333333333333p-2", "-0x1.999999999999ap-4"),
        ((-1, 1), 0, "0x1.1a454ceeb287dp-3", "0x1.1a454ceeb287dp-5"),
        ((-1, 1), 1, "-0x1.5406ce7f8af4cp-2", "-0x1.5406ce7f8af4cp-4"),
        ((-1, 1), 2, "0x1.999999999999ap-3", "0x1.999999999999ap-5"),
        ((0, -2), 0, "0x0.0p+0", "0x1.d4a66e5c86425p-5"),
        ((0, -2), 1, "0x0.0p+0", "-0x1.a767f3660bcbcp-3"),
        ((0, -2), 2, "0x0.0p+0", "0x1.fe0a35bf506f2p-3"),
        ((0, -2), 3, "0x0.0p+0", "-0x1.999999999999ap-4"),
        ((0, -1), 0, "0x1.3333333333333p-3", "-0x1.47ae147ae147bp-6"),
        ((0, 0), 1, "-0x1.27bac83290daap+0", "0x0.0p+0"),
        ((0, 0), 2, "0x1.cbd1e7ac75046p+0", "0x0.0p+0"),
        ((0, 0), 3, "-0x1.999999999999ap-2", "0x0.0p+0"),
        ((0, 1), 0, "0x1.3333333333333p-3", "0x1.47ae147ae147bp-6"),
        ((0, 2), 0, "0x0.0p+0", "-0x1.d4a66e5c86425p-5"),
        ((0, 2), 1, "0x0.0p+0", "0x1.a767f3660bcbcp-3"),
        ((0, 2), 2, "0x0.0p+0", "-0x1.fe0a35bf506f2p-3"),
        ((0, 2), 3, "0x0.0p+0", "0x1.999999999999ap-4"),
        ((1, -1), 0, "0x1.1a454ceeb287dp-3", "-0x1.1a454ceeb287dp-5"),
        ((1, -1), 1, "-0x1.5406ce7f8af4cp-2", "0x1.5406ce7f8af4cp-4"),
        ((1, -1), 2, "0x1.999999999999ap-3", "-0x1.999999999999ap-5"),
        ((1, 0), 0, "-0x1.fe0a35bf506f2p-3", "-0x1.5406ce7f8af4cp-4"),
        ((1, 0), 1, "0x1.3333333333333p-2", "0x1.999999999999ap-4")]),
}


def unrecentred(name):
    """A separable system with a forcing average and a complex general
    system, both expanded about 0.1, away from their simple zero."""
    if name == "separable":
        forcing = cosine(2, 0, 0.4).add(cosine(2, 1, 0.3)).add(
            FourierSeries(2, {(0, 0): 0.2}, real_valued=True))
        return SeparableSystem((1.0, PHI), forcing,
                               {1: 1.0, 2: 0.5, 3: 0.25}, center=0.1)
    grid = {
        ((0, 0), 0): 0.05,
        ((0, 0), 1): 1.0,
        ((1, 0), 1): 0.3 + 0.1j,
        ((-1, 0), 1): 0.3 - 0.1j,
        ((0, 0), 2): 0.8,
        ((1, -1), 2): 0.2 - 0.05j,
        ((-1, 1), 2): 0.2 + 0.05j,
        ((0, 0), 3): -0.4,
        ((0, 2), 3): 0.1j,
        ((0, -2), 3): -0.1j,
        ((0, 1), 0): 0.15 + 0.02j,
        ((0, -1), 0): 0.15 - 0.02j,
    }
    return GeneralSystem((1.0, PHI), grid, center=0.1)


@pytest.mark.parametrize("name", sorted(RECENTRED))
def test_recentre_keeps_the_statement_and_the_grid_bits(name):
    raw = unrecentred(name)
    root = next(r for r in find_c0(raw.averaged_taylor(), 0.0, (-2.0, 2.0),
                                   center=raw.center) if r.simple)
    sys = recentre(raw, root.c0)
    assert (sys.theorem, sys.f0) == (raw.theorem, raw.f0)
    assert (sys.theorem, sys.f0) == \
        ((1, 0.2) if name == "separable" else (2, 0.0))
    assert sys.center == sys.c0 == root.c0
    c0, grid = RECENTRED[name]
    assert root.c0.hex() == c0
    assert sorted((nu, p, c.real.hex(), c.imag.hex())
                  for (nu, p), c in sys.grid.items()) == grid


# -- a separable system is its grid -------------------------------------------

def as_general(sys):
    return GeneralSystem(sys.omega, sys.grid, center=sys.center, c0=sys.c0)


CASES = {
    "d1": (lambda: (separable_system(1, TAYLOR), 0.05), 8, 4),
    "d2": (lambda: (separable_system(2, TAYLOR), 0.05), 7, 4),
    "d3": (lambda: (separable_system(3, TAYLOR), 0.05), 5, 2),
    "near-resonant": (lambda: (near_resonant_system(), 0.05), 6, 3),
    "eps-near-bar": (eps_near_bar, 6, 3),
}


def hexes(values):
    return [float(v).hex() for v in values]


def outcome_bits(value):
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    return float(value).hex()


@pytest.mark.parametrize("name", sorted(CASES))
def test_separable_system_is_its_grid(name):
    make, K, N = CASES[name]
    sep, eps = make()
    gen = as_general(sep)
    assert (sep.theorem, gen.theorem) == (1, 2)
    assert bits(sep.range_forcing) == bits(gen.range_forcing)

    for zeta in (0.0, 0.013, -0.2):
        one, two = (build_ladder(s, eps, zeta, K, N) for s in (sep, gen))
        assert [bits(u) for u in one.orders] == [bits(u) for u in two.orders]
        assert hexes(one.norms) == hexes(two.norms)

    lo, hi = DEFAULT_BRACKET
    scan = [0.0] + [float(x) for x in np.linspace(lo, hi, SCAN_POINTS)]
    values = [_Evaluation(s, eps, scan, K, N).outcomes for s in (sep, gen)]
    assert [outcome_bits(v) for v in values[0]] == \
        [outcome_bits(v) for v in values[1]]

    one, two = (solve_response(eps, s, K, N, probe=False) for s in (sep, gen))
    assert one.zeta.hex() == two.zeta.hex()
    assert bits(one.u) == bits(two.u)
    assert one.residual_range.hex() == two.residual_range.hex()
    assert one.residual_bifurcation.hex() == two.residual_bifurcation.hex()
    assert json.dumps(one.ladder.to_json_dict()) == \
        json.dumps(two.ladder.to_json_dict())

    # both systems enumerate the same trees, branching nodes at the zero
    # mode: the sums agree term by term
    ctxs = [TreeValueContext(s, eps, one.zeta) for s in (sep, gen)]
    ladder = build_ladder(sep, eps, one.zeta, 3, N)
    for k in (1, 2, 3):
        for nu in ladder.order(k).support()[:6]:
            a, b = (sum_trees(k, nu, ctx) for ctx in ctxs)
            assert (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


def test_separable_grid_layout():
    sep = separable_system(2, {**TAYLOR, 4: 0.3})
    zero = (0, 0)
    for nu, c in sep.range_forcing.items_sorted():
        assert sep.grid[(nu, 0)] == -c
    assert {p: c for (nu, p), c in sep.grid.items() if nu == zero} == \
        {1: 1.0, 2: 1.0, 3: 0.5, 4: 0.3}
    assert sep.nonlinear_powers() == [2, 3, 4]
    assert len(sep.alpha1_series) == 0
    assert sep.layers.radius == 0
    assert [p for p, _ in sep.layers.powers] == [2, 3, 4]


# -- a constant layer scales as it convolves ---------------------------------

def complex_block(rng, d, batch, span):
    """A batch of complex series on a box with empty cells, one empty row,
    a value below the drop threshold and one infinite cell."""
    shape = (batch,) + (2 * span + 1,) * d
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    values[rng.random(shape) < 0.3] = 0
    values[1] = 0
    flat = values.reshape(batch, -1)
    flat[0, 0] = 1e-310
    flat[2, -1] = complex(np.inf, 1.0)
    return DenseBlock(values, (-span,) * d, False)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", [None, 0, 1, 2, 7])
@pytest.mark.parametrize("c", [0.75, -1.3, complex(2.5, -0.0), 0.0])
def test_constant_layer_scaling_is_the_convolution(d, radius, c):
    rng = np.random.default_rng([d, 5])
    other = complex_block(rng, d, 3, 2)
    layer = DenseBlock(np.full((1,) * (d + 1), complex(c)), (0,) * d, True)
    # the same layer with an empty cell beside its zero mode convolves
    padded = DenseBlock(np.pad(layer.values, [(0, 0)] + [(0, 1)] * d),
                        (0,) * d, True)
    with np.errstate(all="ignore"):
        fast = layer.convolve(other, radius=radius)
        slow = padded.convolve(other, radius=radius)
        scaled = other.scaled(c)
        if radius is not None:
            scaled = scaled.truncate(radius)
    for block in (slow, scaled):
        assert fast.lo == block.lo and fast.real == block.real
        assert fast.values.shape == block.values.shape
        assert fast.values.tobytes() == block.values.tobytes()
