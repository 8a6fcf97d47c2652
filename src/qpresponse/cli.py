"""Batch front-end: JSON config in, JSON/CSV results out.

Commands
--------
solve     solve one (system, eps) and write the response solution
diagnose  small-divisor profile and admissibility bounds for omega
sweep     trace zeta, norms, ratios and residuals over an eps grid
verify    cross-check the solver against its independent oracles

Exit codes: 0 success, 1 config error, 2 divergence, failed verification
or a usage error (argparse's), 3 hypothesis failure, 4 resonance or
enumeration guard.
Identical configs produce byte-identical outputs on one CPU class and
BLAS kernel; the JSON files are written as ``json.dumps(payload,
indent=2, sort_keys=True)`` writes them, plus a newline.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys as _sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import qpresponse.trees as trees
from .bifurcation import solve_response, solve_responses
from .diophantine import (
    ball_minima,
    classify_eps_sequence,
    estimate_epsilon_bar,
    profile_rows,
)
from .errors import (
    BifurcationSolveError,
    ConfigError,
    GuardExceededError,
    HypothesisError,
    LadderDivergenceError,
    QPResponseError,
    ResonanceError,
    StiffnessError,
    SymmetryError,
)
from .fourier import DenseBlock, FourierSeries
from .ladder import build_ladder
from .systems import (
    GeneralSystem,
    SeparableSystem,
    certify_envelope,
    check_nonresonance,
    find_c0,
    recentre,
)
from .validation import (
    MIN_EPS_FOR_INTEGRATION,
    MIN_INTEGRATION_TOL,
    compare,
    direct_solve,
    response_state,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_HYPOTHESIS = 3
EXIT_GUARD = 4

_NUMBER = {"type": "number"}
_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}

# each option's default and JSON schema; a range that the library refuses
# with a ValueError is refused here, so that it is a config error
_OPTIONS = {
    "n_max": (8, {"type": "integer"}),
    "N_list": (None, {"type": ["array", "null"],
                      "items": {"type": "integer", "minimum": 1}}),
    "alpha_guard": (None, {"type": ["integer", "null"], "minimum": 1}),
    "zeta_bracket": (None, {**_PAIR, "type": ["array", "null"]}),
    "ode_tol": (1e-10, {"type": "number", "minimum": MIN_INTEGRATION_TOL}),
    "T1": (50.0, {"type": "number", "minimum": 0}),
    "samples": (2001, {"type": "integer", "minimum": 1}),
    "continuity_probe": (True, {"type": "boolean"}),
    "ode_check_tol": (1e-4, _NUMBER),
}
_OPTION_DEFAULTS = {key: default for key, (default, _) in _OPTIONS.items()}

# verify's fixed settings: the tree oracle's top order and zeta, and the
# largest gaps that the tree oracle and the Picard solve may leave
TREE_ORDER = 4
TREE_ZETA = 0.02
ORACLE_TOL = 1e-12
AGREEMENT_TOL = 1e-10

_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dimension", "omega", "theorem", "truncation", "xi", "rho"],
    "properties": {
        "dimension": {"type": "integer", "minimum": 1},
        "omega": {"type": "array", "items": _NUMBER, "minItems": 1},
        "theorem": {"enum": [1, 2]},
        "g": {
            "type": "object",
            "additionalProperties": False,
            "required": ["coeffs"],
            "properties": {
                "c_ref": _NUMBER,
                "coeffs": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "prefixItems": [{"type": "integer", "minimum": 0}, _NUMBER],
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
            },
        },
        "h": {
            "type": "object",
            "additionalProperties": False,
            "required": ["grid"],
            "properties": {
                "c_ref": _NUMBER,
                "grid": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "prefixItems": [
                            {"type": "array", "items": {"type": "integer"}},
                            {"type": "integer", "minimum": 0},
                            _NUMBER,
                            _NUMBER,
                        ],
                        "minItems": 3,
                        "maxItems": 4,
                    },
                },
            },
        },
        "f": {
            "type": "object",
            "additionalProperties": False,
            "required": ["d", "modes"],
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "modes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["nu", "re"],
                        "properties": {
                            "nu": {"type": "array", "items": {"type": "integer"}},
                            "re": _NUMBER,
                            "im": _NUMBER,
                        },
                    },
                },
            },
        },
        "epsilon": _NUMBER,
        "epsilon_grid": {"type": "array", "items": _NUMBER},
        "truncation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["K", "N"],
            "properties": {
                "K": {"type": "integer", "minimum": 1},
                "N": {"type": "integer", "minimum": 1},
            },
        },
        "xi": {"type": "number", "exclusiveMinimum": 0},
        "rho": {"type": "number", "exclusiveMinimum": 0},
        "search_interval": _PAIR,
        "options": {
            "type": "object",
            "additionalProperties": False,
            "properties": {key: schema for key, (_, schema) in _OPTIONS.items()},
        },
    },
}


# _violations reads these keywords of _SCHEMA as JSON Schema does and words
# a violation as jsonschema does, so no config needs jsonschema
# (tests/test_cli.py checks that _SCHEMA uses no other keyword and that
# the verdicts and messages agree with jsonschema's best_match)
_KEYWORDS = frozenset({
    "type", "enum", "minimum", "exclusiveMinimum", "minItems", "maxItems",
    "prefixItems", "items", "required", "properties", "additionalProperties",
})
_TYPES = {"number": (int, float), "string": str, "array": list,
          "object": dict, "boolean": bool, "null": type(None)}


def _is_type(value, name: str) -> bool:
    """JSON Schema's reading: a bool is not a number, and 4.0 is an
    integer."""
    if isinstance(value, bool):
        return name == "boolean"
    if name == "integer":
        return isinstance(value, int) or (isinstance(value, float)
                                          and value.is_integer())
    return isinstance(value, _TYPES[name])


def _violations(value, schema, path: tuple, floats: list):
    """Yield ``(path, message)`` for each violation of ``schema`` by
    ``value`` at ``path`` and below it, worded as jsonschema words it;
    ``schema`` uses only ``_KEYWORDS``, and a comparison with NaN never
    fails.  A node yields its first violation in jsonschema's order and
    is not walked below, since best_match prefers a shallower one.  Each
    float accepted as an integer is appended to ``floats`` as ``(path,
    value)``, in the config's own order."""
    if "type" in schema:
        types = schema["type"]
        types = [types] if isinstance(types, str) else types
        if not any(_is_type(value, name) for name in types):
            yield path, f"{value!r} is not of type " + ", ".join(
                map(repr, types))
            return
        if isinstance(value, float) and "integer" in types:
            floats.append((path, value))
    if "enum" in schema and not any(
            value == each and isinstance(value, bool) == isinstance(each, bool)
            for each in schema["enum"]):
        yield path, f"{value!r} is not one of {schema['enum']!r}"
        return
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        if "minimum" in schema and value < schema["minimum"]:
            yield path, (f"{value!r} is less than the minimum of "
                         f"{schema['minimum']!r}")
        elif "exclusiveMinimum" in schema and \
                value <= schema["exclusiveMinimum"]:
            yield path, (f"{value!r} is less than or equal to the minimum "
                         f"of {schema['exclusiveMinimum']!r}")
    elif isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            yield path, f"{value!r} " + ("should be non-empty"
                                         if schema["minItems"] == 1
                                         else "is too short")
        elif len(value) > schema.get("maxItems", len(value)):
            yield path, f"{value!r} is too long"
        else:
            prefix = schema.get("prefixItems", [])
            rest = schema.get("items", {})
            for i, item in enumerate(value):
                yield from _violations(
                    item, prefix[i] if i < len(prefix) else rest,
                    (*path, i), floats)
    elif isinstance(value, dict):
        properties = schema.get("properties", {})
        extras = sorted(key for key in value if key not in properties)
        missing = [key for key in schema.get("required", ())
                   if key not in value]
        if extras and not schema.get("additionalProperties", True):
            yield path, "Additional properties are not allowed ({} {} " \
                "unexpected)".format(", ".join(map(repr, extras)),
                                     "was" if len(extras) == 1 else "were")
        elif missing:
            yield path, f"{missing[0]!r} is a required property"
        else:
            for key, item in value.items():
                yield from _violations(item, properties.get(key, {}),
                                       (*path, key), floats)


def _dotted(path: tuple) -> str:
    """``path`` written as in ``f.modes[1].nu``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path)[1:]


def _finite(text: str):
    """``json.load``'s reading of a number literal or of NaN, Infinity or
    -Infinity, refusing a value that is not finite as a float (an integer
    beyond float range among them); an integer literal stays an int."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return int(text) if text.lstrip("-").isdigit() else value


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh, parse_float=_finite,
                               parse_int=_finite, parse_constant=_finite)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    floats = []
    violations = list(_violations(config, _SCHEMA, (), floats))
    if violations:
        # jsonschema's best_match: the shallowest, then the greatest path,
        # and the first of equals
        path, message = max(violations, key=lambda v: (-len(v[0]), v[0]))
        at = _dotted(path)
        raise ConfigError(f"invalid config: {message}" + (
            f" ({at})" if at.startswith("options.") else ""))
    if floats:
        path, value = floats[0]
        raise ConfigError(f"{_dotted(path)} must be an integer, not {value!r}")
    theorem = config["theorem"]
    if theorem == 1 and ("g" not in config or "f" not in config):
        raise ConfigError("theorem 1 configs need both 'g' and 'f'")
    if theorem == 2 and "h" not in config:
        raise ConfigError("theorem 2 configs need 'h'")
    d = config["dimension"]
    if len(config["omega"]) != d:
        raise ConfigError("omega length must equal dimension")
    if "f" in config and config["f"]["d"] != d:
        raise ConfigError("f.d must equal dimension")
    modes = [(f"f.modes[{i}].nu", mode["nu"])
             for i, mode in enumerate(config.get("f", {}).get("modes", []))]
    modes += [(f"h.grid[{i}]", entry[0])
              for i, entry in enumerate(config.get("h", {}).get("grid", []))]
    for at, nu in modes:
        if len(nu) != d:
            raise ConfigError(f"{at}: mode {nu} has length {len(nu)}, "
                              f"not dimension {d}")
    options = config.get("options", {})
    for key, pair in (("search_interval", config.get("search_interval")),
                      ("options.zeta_bracket", options.get("zeta_bracket"))):
        if pair is not None and not pair[0] < pair[1]:
            raise ConfigError(f"{key} must satisfy lo < hi")
    return config


def options_of(config: dict) -> dict:
    merged = dict(_OPTION_DEFAULTS)
    merged.update(config.get("options", {}))
    return merged


def build_system(config: dict):
    """Parse, certify the simple-zero hypothesis and recentre."""
    omega = tuple(config["omega"])
    interval = config.get("search_interval", [-2.0, 2.0])
    if config["theorem"] == 1:
        forcing = FourierSeries.from_json_dict(config["f"], real_valued=True)
        g_spec = config["g"]
        raw = SeparableSystem(omega, forcing, g_spec["coeffs"],
                              center=float(g_spec.get("c_ref", 0.0)))
    else:
        h_spec = config["h"]
        # each entry is [nu, p, re] or [nu, p, re, im]
        entries = [((nu, p), complex(*value)) for nu, p, *value in h_spec["grid"]]
        raw = GeneralSystem(omega, entries,
                            center=float(h_spec.get("c_ref", 0.0)))
    # the averaged equation h_0(c0) = 0; for theorem 1, g(c0) = f0
    roots = find_c0(raw.averaged_taylor(), 0.0, interval, center=raw.center)
    simple = [r for r in roots if r.simple]
    if not simple:
        found = ", ".join(f"(c0={r.c0:.6g}, slope={r.slope:.3g})" for r in roots)
        raise HypothesisError(
            "no certified simple zero on the search interval"
            + (f"; flagged roots: {found}" if found else "")
        )
    # the zero nearest 0, the smaller on a tie; search_interval picks another
    c0 = min(simple, key=lambda r: (abs(r.c0), r.c0)).c0
    sys_ = recentre(raw, c0)
    envelope = certify_envelope(sys_, xi=float(config["xi"]),
                                rho=float(config["rho"]))
    return sys_, envelope


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


# json's spelling of the floats that repr spells nan, inf and -inf
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _floats(values) -> list:
    """Each float as json writes it: ``float.__repr__``, or NaN, Infinity
    or -Infinity."""
    return [_NONFINITE.get(text, text) for text in map(float.__repr__, values)]


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value whose
    first line sits at ``indent``: dicts with str keys, lists, tuples,
    scalars and series, each series as its ``to_json_dict``.  The pure
    Python encoder that ``indent`` makes json use costs about a tenth of
    a probed solve; json writes only the scalars here."""
    inner = indent + "  "
    if isinstance(value, FourierSeries):
        return _series_json(value, indent)
    if isinstance(value, dict) and value:
        return "{\n" + ",\n".join(
            f"{inner}{json.dumps(key)}: {_json(value[key], inner)}"
            for key in sorted(value)) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        return "[\n" + ",\n".join(
            inner + _json(item, inner) for item in value) + f"\n{indent}]"
    if isinstance(value, float):
        return _floats([value])[0]
    return json.dumps(value)


def _series_json(series: FourierSeries, indent: str) -> str:
    """:func:`_json` of ``series.to_json_dict()``, written from the
    nonzero cells of its block in lexicographic order, as
    ``items_sorted`` gives them, through one template per mode."""
    block = DenseBlock.of(series)
    inner, mode, key, item = (indent + "  " * n for n in range(1, 5))
    template = (f'{mode}{{\n{key}"im": %s,\n{key}"nu": [\n'
                + ",\n".join([item + "%d"] * block.dimension)
                + f'\n{key}],\n{key}"re": %s\n{mode}}}')
    values = block.values[0]
    cells = np.nonzero(values)
    coefs = values[cells]
    rows = zip(_floats(coefs.imag.tolist()),
               *((i + lo).tolist() for i, lo in zip(cells, block.lo)),
               _floats(coefs.real.tolist()))
    modes = ",\n".join([template % row for row in rows])
    modes = f"[\n{modes}\n{inner}]" if modes else "[]"
    return (f'{{\n{inner}"d": {block.dimension},\n'
            f'{inner}"modes": {modes}\n{indent}}}')


def _as_is(series: FourierSeries):
    """A stand-in for ``series`` whose ``to_json_dict`` is the series
    itself: an object's ``to_json_dict`` then holds its series, for
    :func:`_json` to write from their blocks."""
    return SimpleNamespace(to_json_dict=lambda: series)


def _write_json(path: Path, payload: dict):
    path.write_text(_json(payload) + "\n")


def _write_solution(out_dir: Path, solution):
    """``solution.json`` and ``ladder.json``: the ``to_json_dict`` of
    ``solution`` and of its ladder."""
    ladder = solution.ladder
    _write_json(out_dir / "solution.json",
                replace(solution, u=_as_is(solution.u)).to_json_dict())
    _write_json(out_dir / "ladder.json", replace(
        ladder, orders=list(map(_as_is, ladder.orders))).to_json_dict())


def _prepare(config: dict):
    """The certified system of ``config``, its envelope and its eps
    bounds (None when the alpha guard stops them or the envelope admits
    none)."""
    sys_, envelope = build_system(config)
    N = config["truncation"]["N"]
    report = check_nonresonance(sys_.omega, N)
    if report.resonant:
        raise ResonanceError(
            f"omega is resonant up to N={N}: omega . {report.argmin} = "
            f"{report.min_value:.3e}",
            nu=report.argmin, value=report.min_value,
        )
    try:
        return sys_, envelope, _eps_bounds(config, sys_, envelope)
    except (GuardExceededError, ConfigError):
        return sys_, envelope, None  # bounds are advisory for solves


def _eps_bounds(config: dict, sys_, envelope):
    try:
        return estimate_epsilon_bar(
            envelope, sys_.a, sys_.omega, theorem=sys_.theorem,
            guard=options_of(config)["alpha_guard"])
    except ValueError as exc:
        raise ConfigError(f"no eps bounds for this envelope: {exc}") from exc


def _solve_once(config: dict, eps: float, probe: bool):
    sys_, envelope, bounds = _prepare(config)
    solution = solve_response(
        eps, sys_, config["truncation"]["K"], config["truncation"]["N"],
        envelope=envelope, bounds=bounds, probe=probe,
        bracket=options_of(config)["zeta_bracket"],
    )
    return sys_, bounds, solution


def cmd_solve(config: dict, out_dir: Path) -> int:
    _, bounds, solution = _solve_once(config, float(config["epsilon"]),
                                      options_of(config)["continuity_probe"])
    _write_solution(out_dir, solution)
    print(f"c0 = {_fmt(solution.c0)}")
    print(f"zeta = {_fmt(solution.zeta)}")
    print(f"residual_range = {_fmt(solution.residual_range)}")
    print(f"residual_bifurcation = {_fmt(solution.residual_bifurcation)}")
    print(f"ratio_estimate = {_fmt(solution.ratio_estimate)}")
    if bounds is not None:
        print(f"eps_bar = {_fmt(bounds.eps_bar)}")
    print(f"wrote {out_dir / 'solution.json'}")
    return EXIT_OK


def cmd_diagnose(config: dict, out_dir: Path) -> int:
    sys_, envelope = build_system(config)
    opts = options_of(config)
    rows = []
    failure = None
    try:
        for row in profile_rows(sys_.omega, int(opts["n_max"]),
                                opts["alpha_guard"]):
            rows.append(row)
    except (ResonanceError, GuardExceededError) as exc:
        failure = exc
    csv_path = out_dir / "diagnose.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "alpha_n", "eps_n", "bryuno_partial"])
        for n, a, _, e, b in rows:
            writer.writerow([n, repr(a), repr(e), repr(b)])
    print(f"wrote {csv_path} ({len(rows)} rows)")
    if failure is not None:
        print(f"diagnose stopped early: {failure}", file=_sys.stderr)
        return EXIT_GUARD
    classification = classify_eps_sequence([row[3] for row in rows],
                                           sys_.dimension)
    print(f"classification = {classification}")
    bounds = _eps_bounds(config, sys_, envelope)
    payload = bounds.to_json_dict()
    payload["classification"] = classification
    # keyed by str(N) as given: sort_keys puts "16" before "4"
    N_list = opts["N_list"] or [config["truncation"]["N"]]
    minima = ball_minima(sys_.omega, N_list, opts["alpha_guard"])
    payload["r_table"] = {str(N): minima[int(N)] for N in N_list}
    _write_json(out_dir / "epsilon_bounds.json", payload)
    print(f"eps_bar = {_fmt(bounds.eps_bar)} (n0 = {bounds.n0}, "
          f"guard_limited = {_fmt(bounds.guard_limited)})")
    return EXIT_OK


# most eps of a sweep solved in one lockstep
SWEEP_PART = 8


def _sweep_rows(config: dict, grid: list) -> list:
    """The rows of the sweep table at the eps of the sorted ``grid``,
    solved with the solves' warnings silenced; an empty grid still builds
    and certifies the system.  The grid is solved in lockstep parts of at
    most :data:`SWEEP_PART` eps, in grid order, and each part's solutions
    become rows before the next part is solved, so the working memory does
    not grow with the grid; each row is bitwise what its eps solved alone
    gives.  An eps whose expansion diverges or whose balance has no unique
    root gets a row of NaN; any other failure is raised, the first in grid
    order."""
    rows = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys_, envelope, _ = _prepare(config)
        for start in range(0, len(grid), SWEEP_PART):
            part = grid[start:start + SWEEP_PART]
            # no name holds the solutions: their ladders go with the part
            rows.extend(map(_sweep_row, part, solve_responses(
                part, sys_, config["truncation"]["K"],
                config["truncation"]["N"], envelope=envelope,
                bracket=options_of(config)["zeta_bracket"])))
    return rows


def _sweep_row(eps, solution) -> dict:
    """The sweep table's row at ``eps`` from its solution or the error
    solving it raised; an error other than a divergence or a failed zeta
    solve is raised."""
    if isinstance(solution, (LadderDivergenceError, BifurcationSolveError)):
        row = dict.fromkeys(_SWEEP_COLUMNS, math.nan)
        row.update(epsilon=eps, converged=False)
        return row
    if isinstance(solution, Exception):
        raise solution
    return {
        "epsilon": eps,
        "zeta": solution.zeta,
        "u_norm": solution.u.without_zero_mode().weighted_norm(0.0),
        "ratio_estimate": solution.ratio_estimate,
        "residual_range": solution.residual_range,
        "residual_bifurcation": solution.residual_bifurcation,
        "converged": True,
    }


_SWEEP_COLUMNS = ["epsilon", "zeta", "u_norm", "ratio_estimate",
                  "residual_range", "residual_bifurcation", "converged"]


def cmd_sweep(config: dict, out_dir: Path) -> int:
    grid = sorted(float(e) for e in config.get("epsilon_grid", []))
    results = _sweep_rows(config, grid)
    csv_path = out_dir / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for row in results:
            writer.writerow([_fmt(row[c]) for c in _SWEEP_COLUMNS])
    print(f"wrote {csv_path} ({len(results)} rows)")
    good = [(r["epsilon"], r["zeta"]) for r in results if r["converged"]]
    if len(good) >= 2:
        slopes = [
            abs(z2 - z1) / (e2 - e1)
            for (e1, z1), (e2, z2) in zip(good, good[1:]) if e2 > e1
        ]
        if slopes:
            # empirical finite differences only; nothing is claimed about
            # differentiability in the dissipation parameter
            print(f"max |d zeta / d eps| (finite differences) = "
                  f"{_fmt(max(slopes))}")
    return EXIT_OK


def cmd_verify(config: dict, out_dir: Path) -> int:
    opts = options_of(config)
    eps = float(config["epsilon"])
    checks: list[tuple[str, bool, str]] = []

    sys_, _, solution = _solve_once(config, eps, probe=False)
    N = config["truncation"]["N"]

    # 1. tree-oracle equivalence on low orders
    ladder = build_ladder(sys_, eps, TREE_ZETA, TREE_ORDER, N)
    ctx = trees.TreeValueContext(sys_, eps, TREE_ZETA)
    worst = 0.0
    worst_detail = ""
    for k in range(1, TREE_ORDER + 1):
        order = list(ladder.order(k).items_sorted())
        scale = max([abs(c) for _, c in order] or [1.0])
        for nu, c in order:
            if not any(nu):
                continue
            gap = abs(trees.sum_trees(k, nu, ctx) - c)
            rel = gap / max(scale, 1e-16)
            if rel > worst:
                worst = rel
                worst_detail = f"k={k}, nu={nu}"
    ok = worst <= ORACLE_TOL
    checks.append(("tree_oracle_equivalence", ok,
                   f"worst relative gap {worst:.2e} ({worst_detail})"))

    # 2. counting relations on every tree of the enumeration that 1 summed
    failed_counts = 0
    total_trees = 0
    for k in range(1, TREE_ORDER + 1):
        for tree in trees.enumerate_all(k, ctx.support):
            total_trees += 1
            if not all(trees.verify_counting(tree).values()):
                failed_counts += 1
    checks.append(("tree_counting_relations", failed_counts == 0,
                   f"{total_trees} trees, {failed_counts} failures"))

    # 3. independent fixed-point solve
    fp = direct_solve(sys_, eps, N)
    if fp.converged:
        gap = max(
            abs(solution.u.coeff(nu) - fp.u_direct.coeff(nu))
            for nu in set(solution.u.support()) | set(fp.u_direct.support())
        )
        ok = gap <= AGREEMENT_TOL
        # the orders past K, estimated as a geometric tail of the last one,
        # plus the Picard solve's floor, its final residual over |a| eps
        # (a lower bound of |D| and of the zero mode's |a| while eps <= 1
        # and 2 a eps^2 <= 1): a gap within both is likely truncation and
        # solver tolerance, not a fault
        r = solution.ratio_estimate
        tail = solution.ladder.norms[-1] * r / (1.0 - r)
        floor = fp.final_residual / (abs(sys_.a) * eps)
        checks.append(("direct_solve_agreement", ok,
                       f"max gap {gap:.2e}, "
                       f"{'within' if gap <= tail + floor else 'above'} the "
                       f"series tail {tail:.2e} plus the Picard floor "
                       f"{floor:.2e} after K = {solution.K}"))
    else:
        checks.append(("direct_solve_agreement", False,
                       f"fixed point diverged (residual {fp.final_residual:.2e})"))

    # 4. trajectory comparison (attraction needs a > 0 and integrable eps)
    if sys_.a > 0 and eps >= MIN_EPS_FOR_INTEGRATION:
        x0, v0 = response_state(solution, sys_.omega, 0.0)
        try:
            report = compare(
                solution, sys_, eps, [(x0 + 0.05, v0), (x0 - 0.05, v0 + 0.05)],
                T1=float(opts["T1"]), tol=float(opts["ode_tol"]),
                samples=int(opts["samples"]),
            )
            ok = report.sup_error <= float(opts["ode_check_tol"])
            checks.append(("trajectory_comparison", ok,
                           f"sup error {report.sup_error:.2e}, "
                           f"pairwise {report.pairwise_max:.2e}"))
            write_trajectory_csv(out_dir / "trajectory.csv",
                                 report.trajectories[0], report.reference)
        except StiffnessError as exc:
            checks.append(("trajectory_comparison", False, str(exc)))
    else:
        # 1e-3 spells MIN_EPS_FOR_INTEGRATION as the output always has
        print("trajectory_comparison: SKIPPED (needs a > 0 and eps >= 1e-3)")

    all_ok = True
    for name, ok, detail in checks:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        all_ok = all_ok and ok
    _write_json(out_dir / "verify.json", {
        "checks": [
            {"name": name, "passed": ok, "detail": detail}
            for name, ok, detail in checks
        ],
        "all_passed": all_ok,
    })
    return EXIT_OK if all_ok else EXIT_DIVERGED


# each command and its help, as the parser lists them
COMMANDS = {
    "solve": (cmd_solve, "solve one (system, eps) and write the response"),
    "diagnose": (cmd_diagnose, "small-divisor profile and admissibility bounds"),
    "sweep": (cmd_sweep, "solve over an eps grid and emit a CSV"),
    "verify": (cmd_verify, "run the independent oracles against the solver"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpresponse",
        description="quasi-periodic response solver for strongly "
                    "dissipative forced systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="JSON problem config")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        config = load_config(args.config)
        return COMMANDS[args.command][0](config, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=_sys.stderr)
        return EXIT_HYPOTHESIS
    except (ResonanceError, GuardExceededError) as exc:
        print(f"resonance/guard: {exc}", file=_sys.stderr)
        return EXIT_GUARD
    except (LadderDivergenceError, BifurcationSolveError, StiffnessError,
            SymmetryError) as exc:
        print(f"solver failure: {exc}", file=_sys.stderr)
        return EXIT_DIVERGED
    except QPResponseError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
