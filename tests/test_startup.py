"""What every CLI command pays before it solves anything: the imports of
``qpresponse.cli`` and the root search that each system build runs.

No command but ``verify`` loads scipy: the zeta balance is solved by the
package's own bracketing steps, and ``verify`` loads only scipy's compiled
LSODA module, ``scipy.integrate._odepack``, for the ``odeint`` call inside
``validation.integrate``, not the ``scipy.integrate`` package.  No
command loads jsonschema: ``load_config`` checks a config with its own
reading of ``_SCHEMA`` and words an invalid config's error itself.  Each
check runs in a fresh interpreter, since this test session has scipy and
jsonschema loaded already.

``find_c0`` scans its interval in one vectorised polynomial evaluation; it
is compared with the per-point scan it replaced, kept below as it was.
``systems`` forms its polynomials with numpy's ``poly1d``, which loads with
numpy, in place of ``numpy.polynomial.Polynomial``; the references below
keep ``Polynomial``, and ``find_c0`` and ``shift_taylor`` match them bit
for bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import Polynomial

import qpresponse
from qpresponse.systems import (
    ROOT_RESIDUAL_TOL,
    SIMPLE_ZERO_TOL,
    Root,
    find_c0,
    shift_taylor,
)

SRC = Path(qpresponse.__file__).resolve().parents[1]
CUBIC = SRC.parent / "demos" / "configs" / "cubic.json"


def print_loaded(package):
    """Code that prints the modules of ``package`` loaded so far, as one
    JSON line."""
    return ("print(json.dumps(sorted(m for m in sys.modules "
            f"if m.split('.')[0] == {package!r})))")


LOADED = print_loaded("scipy")


def fresh_interpreter(code, cwd=None):
    """stdout lines of ``code`` run by a new Python on this package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_cli_import_leaves_scipy_integrate_unloaded():
    # and every other scipy module, after either import
    for module in ("qpresponse", "qpresponse.cli"):
        (line,) = fresh_interpreter(f"import json, sys, {module}; {LOADED}")
        assert json.loads(line) == [], module


def test_cli_import_leaves_the_process_pool_unloaded():
    # no command starts workers, so nothing needs the pool
    (line,) = fresh_interpreter(
        "import sys, qpresponse.cli; "
        "print('concurrent.futures.process' in sys.modules)")
    assert line == "False"


def test_cli_import_leaves_statistics_unloaded():
    # the tail median of the ratios is the package's own; statistics
    # would bring fractions and decimal with it
    (line,) = fresh_interpreter(
        "import json, sys, qpresponse.cli; print(json.dumps(sorted(m for m "
        "in ('statistics', 'fractions', 'decimal') if m in sys.modules)))")
    assert json.loads(line) == []


def test_only_verify_loads_scipy_and_only_scipy_integrate(tmp_path):
    # verify loads scipy's compiled LSODA module alone, not the
    # scipy.integrate package, and keeps it out of sys.modules; no command
    # loads jsonschema, not even to word an invalid config's error, which
    # exits 1.  A later import of scipy.integrate works, and its odeint
    # gives the states of validation.integrate bit for bit
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({**json.loads(CUBIC.read_text()),
                                   "surprise": 1}))
    code = "\n".join([
        "import contextlib, io, json, sys, warnings",
        "from qpresponse.cli import main",
        "warnings.simplefilter('ignore')",
        "for command in ('solve', 'diagnose', 'sweep', 'verify'):",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        code = main([command, '--config', {str(CUBIC)!r}, "
        "'--out', command])",
        "    assert code == 0, (command, code)",
        "    " + print_loaded("jsonschema"),
        "    " + LOADED,
        "with contextlib.redirect_stderr(io.StringIO()):",
        f"    code = main(['solve', '--config', {str(invalid)!r}])",
        "assert code == 1, code",
        print_loaded("jsonschema"),
        "import numpy as np",
        "from qpresponse.cli import build_system, load_config",
        "from qpresponse.validation import (_LSODA_TOL_FACTOR, _rhs_factory,",
        "                                   integrate)",
        f"system, _ = build_system(load_config({str(CUBIC)!r}))",
        "traj = integrate(system, 0.05, [0.1, -0.08], [-0.05, 0.1], 3.0,",
        "                 samples=31)",
        LOADED,
        "import scipy.integrate",
        "print(hasattr(scipy.integrate, '_odepack'))",
        "tol = _LSODA_TOL_FACTOR * 1e-10",
        "states = scipy.integrate.odeint(",
        "    _rhs_factory(system, 0.05), [0.1, -0.05, -0.08, 0.1],",
        "    np.concatenate(([0.0], traj.t)), ml=1, mu=1, rtol=tol, atol=tol,",
        "    mxstep=np.iinfo(np.int32).max, tfirst=True)[1:]",
        "print(states[:, 0::2].T.tobytes() == traj.x.tobytes()",
        "      and states[:, 1::2].T.tobytes() == traj.v.tobytes())",
    ])
    *lines, after_invalid, after_integrate, bound, same_bits = \
        fresh_interpreter(code, cwd=tmp_path)
    assert [json.loads(line) for line in lines[0::2]] == [[], [], [], []]
    assert json.loads(after_invalid) == []
    *before_verify, after_verify = lines[1::2]
    assert [json.loads(line) for line in before_verify] == [[], [], []]
    # the LSODA module verify loaded is kept out of sys.modules, so the
    # later import binds scipy.integrate._odepack itself
    assert json.loads(after_verify) == []
    assert json.loads(after_integrate) == []
    assert bound == "True"
    assert same_bits == "True"


def test_every_command_words_a_refusal_without_jsonschema(tmp_path):
    # jsonschema is blocked from loading, and each command still exits 1
    # with the message that jsonschema's best_match words
    cubic = json.loads(CUBIC.read_text())
    refusals = {
        "config error: invalid config: Additional properties are not "
        "allowed ('surprise' was unexpected)": {**cubic, "surprise": 1},
        "config error: invalid config: -1.0 is less than the minimum of 0 "
        "(options.T1)": {**cubic, "options": {"T1": -1.0}},
    }
    paths = []
    for i, config in enumerate(refusals.values()):
        paths.append(str(tmp_path / f"invalid{i}.json"))
        Path(paths[-1]).write_text(json.dumps(config))
    code = "\n".join([
        "import contextlib, io, json, sys",
        "sys.modules['jsonschema'] = None",
        "from qpresponse.cli import main",
        f"for config in {paths!r}:",
        "    for command in ('solve', 'diagnose', 'sweep', 'verify'):",
        "        err = io.StringIO()",
        "        with contextlib.redirect_stderr(err):",
        "            code = main([command, '--config', config, '--out', "
        "command])",
        "        print(json.dumps([code, err.getvalue()]))",
    ])
    lines = fresh_interpreter(code, cwd=tmp_path)
    assert [json.loads(line) for line in lines] == \
        [[1, f"{err}\n"] for err in refusals for _ in range(4)]


def taylor_polynomial(coeffs):
    """The ``Polynomial`` of {power: coefficient}."""
    dense = [0.0] * (max(coeffs, default=0) + 1)
    for p, c in coeffs.items():
        dense[p] = float(c)
    return Polynomial(dense)


def shift_taylor_polynomial(coeffs, old_center, new_center):
    """``shift_taylor`` by composition of ``Polynomial`` objects."""
    shifted = taylor_polynomial(coeffs)(
        Polynomial([new_center - old_center, 1.0]))
    return {p: float(c) for p, c in enumerate(shifted.coef)}


def find_c0_pointwise(g_coeffs, f0, search_interval, *, center=0.0,
                      grid_points=601):
    """``find_c0`` with its scan evaluated one grid point at a time."""
    lo, hi = float(search_interval[0]), float(search_interval[1])
    poly = taylor_polynomial(g_coeffs)
    resid = poly - Polynomial([float(f0)])
    dresid = resid.deriv()

    def r(x):
        return float(resid(x - center))

    def dr(x):
        return float(dresid(x - center))

    xs = np.linspace(lo, hi, int(grid_points))
    vals = np.array([r(x) for x in xs])

    candidates = []
    for i in range(len(xs) - 1):
        if abs(vals[i]) <= ROOT_RESIDUAL_TOL:
            candidates.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            a, b, fa = xs[i], xs[i + 1], vals[i]
            for _ in range(80):
                m = 0.5 * (a + b)
                fm = r(m)
                if fm == 0.0 or b - a < 1e-15 * max(1.0, abs(m)):
                    a = b = m
                    break
                if fa * fm < 0:
                    b = m
                else:
                    a, fa = m, fm
            candidates.append(0.5 * (a + b))
    if abs(vals[-1]) <= ROOT_RESIDUAL_TOL:
        candidates.append(xs[-1])

    roots = []
    for x in candidates:
        for _ in range(60):
            fx = r(x)
            if abs(fx) <= ROOT_RESIDUAL_TOL:
                break
            dfx = dr(x)
            if abs(dfx) < 1e-14:
                break
            step = fx / dfx
            x -= step
            if abs(step) < 1e-16 * max(1.0, abs(x)):
                break
        if abs(r(x)) > ROOT_RESIDUAL_TOL or not lo - 1e-12 <= x <= hi + 1e-12:
            continue
        if any(abs(x - found.c0) <= 1e-8 * max(1.0, abs(x)) for found in roots):
            continue
        slope = dr(x)
        roots.append(Root(float(x), float(slope), abs(slope) > SIMPLE_ZERO_TOL))
    roots.sort(key=lambda root: root.c0)
    return roots


def root_bits(roots):
    return [(r.c0.hex(), r.slope.hex(), r.simple) for r in roots]


@pytest.mark.parametrize("degree", [1, 2, 3, 5])
def test_find_c0_scan_matches_the_pointwise_scan(degree):
    rng = np.random.default_rng([degree, 31])
    for _ in range(40):
        coeffs = {p: float(c) for p, c in enumerate(rng.normal(size=degree + 1))}
        center = float(rng.uniform(-1.0, 1.0))
        f0 = float(rng.normal(scale=0.5))
        grid = int(rng.choice([7, 601]))
        args = (coeffs, f0, (-3.0, 2.5))
        assert root_bits(find_c0(*args, center=center, grid_points=grid)) == \
            root_bits(find_c0_pointwise(*args, center=center, grid_points=grid))


def test_find_c0_keeps_a_root_on_a_grid_point():
    # x^2 - 1 on a grid through -1 and 1, and x on a grid through 0
    for coeffs, interval in (({0: -1.0, 2: 1.0}, (-2.0, 2.0)),
                             ({1: 1.0}, (-1.0, 1.0))):
        assert root_bits(find_c0(coeffs, 0.0, interval)) == \
            root_bits(find_c0_pointwise(coeffs, 0.0, interval))


def test_find_c0_polishes_a_steep_root_with_newton():
    # g' = 1e6: bisection stops within 1e-15 of the root, where |g - f0|
    # is still near 1e-9, so only the Newton steps meet the 1e-13 residual
    g = {1: 1e6, 3: 1.0}
    (root,) = find_c0(g, 0.3, (-2.0, 2.0))
    assert abs(taylor_polynomial(g)(root.c0) - 0.3) <= ROOT_RESIDUAL_TOL
    assert root.slope == pytest.approx(1e6 + 3 * root.c0**2, rel=1e-15)
    assert root.simple
    assert root_bits([root]) == root_bits(find_c0_pointwise(g, 0.3, (-2.0, 2.0)))


def random_taylor(rng, degree):
    """Taylor data of the given degree, about a third of it exact zeros."""
    values = rng.normal(size=degree + 1) * (rng.random(degree + 1) > 0.3)
    return {p: float(c) for p, c in enumerate(values)}


def bits_of(coeffs):
    return {p: float(c).hex() for p, c in coeffs.items()}


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4, 6])
def test_shift_taylor_matches_polynomial_composition(degree):
    rng = np.random.default_rng([degree, 37])
    for _ in range(200):
        coeffs = random_taylor(rng, degree)
        old, new = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
        for centers in ((old, new), (old, old), (0.0, new)):
            assert bits_of(shift_taylor(coeffs, *centers)) == \
                bits_of(shift_taylor_polynomial(coeffs, *centers))


@pytest.mark.parametrize("degree", [0, 1, 2, 4])
def test_find_c0_with_zero_coefficients_matches_the_reference(degree):
    # sparse Taylor data, a zero leading coefficient among it
    rng = np.random.default_rng([degree, 41])
    for _ in range(40):
        coeffs = random_taylor(rng, degree)
        center = float(rng.uniform(-1.0, 1.0))
        f0 = float(rng.normal(scale=0.5))
        args = (coeffs, f0, (-3.0, 2.5))
        assert root_bits(find_c0(*args, center=center)) == \
            root_bits(find_c0_pointwise(*args, center=center))
