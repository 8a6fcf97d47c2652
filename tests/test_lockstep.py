"""The lockstep zeta solves against the solves one eps at a time.

``solve_response`` solves eps, eps/2 and eps/4 together, and ``sweep``
solves its eps grid together in parts of at most ``cli.SWEEP_PART``:
every build evaluates the next zeta of each live solve.  The results must
be the bytes that solving each eps alone gives, the errors must come out
in the order the solves one at a time raise them, and the batching must
cut the number of builds.
"""

import csv
import gc
import json
import math
import sys
import warnings
import weakref

import pytest

import qpresponse.bifurcation as bifurcation
import qpresponse.cli as cli
import qpresponse.ladder as ladder
from qpresponse.bifurcation import (
    ResponseSolution,
    bifurcation_balance,
    solve_response,
    solve_responses,
    solve_zeta,
)
from qpresponse.cli import main
from qpresponse.errors import BifurcationSolveError, LadderDivergenceError
from qpresponse.fourier import cosine
from qpresponse.systems import SeparableSystem, recentre

from test_cli import base_config
from test_fast_paths import (
    TAYLOR,
    separable_system,
    sequential_lockstep,
    spy_builds,
)

PHI = (1 + math.sqrt(5)) / 2

# on this bracket the root of the balance leaves it below eps ~ 0.05, and
# the scan's far end stops contracting above eps ~ 0.6
BRACKET = (-0.25, -0.002)


def golden_system():
    forcing = cosine(2, 0, 1.0).add(cosine(2, 1, 1.0))
    return recentre(SeparableSystem((1.0, PHI), forcing, TAYLOR), 0.0)


def first_sequential_error(eps_list, solve):
    """The error that solving each eps in turn raises first, or None."""
    for eps in eps_list:
        try:
            solve(eps)
        except (LadderDivergenceError, BifurcationSolveError) as exc:
            return exc
    return None


@pytest.mark.parametrize("eps, message", [
    # eps/2 and eps/4 find no sign change
    (0.08, "no sign change"),
    # eps and eps/2 do not contract; eps's error comes first
    (2.0, "does not contract at eps=2.0"),
])
def test_probe_raises_what_the_solves_in_turn_raise(eps, message):
    sys = golden_system()

    def solve(e):
        return solve_zeta(e, sys, 10, 8, BRACKET)

    expected = first_sequential_error([eps, eps * 0.5, eps * 0.25], solve)
    with pytest.raises(type(expected)) as got:
        solve_response(eps, sys, 10, 8, bracket=BRACKET, probe=True)
    assert str(got.value) == str(expected)
    assert message in str(expected)


@pytest.mark.parametrize("failing, raised", [
    ((0.5, 0.25), 0.5),
    ((1.0, 0.5, 0.25), 1.0),
    ((0.25,), 0.25),
])
def test_probe_errors_come_in_sequential_order(failing, raised, monkeypatch):
    # every row at a failing eps reads as that eps's own error
    sys = separable_system(2, TAYLOR)
    eps = 0.05
    errors = {eps * f: LadderDivergenceError(f"fails at {f} eps")
              for f in failing}

    class FailingEvaluation(bifurcation._Evaluation):
        def __init__(self, sys_, eps_, zetas, *args):
            super().__init__(sys_, eps_, zetas, *args)
            self.outcomes = [errors.get(e, o) for e, o in
                             zip(self.expansion.eps, self.outcomes)]

    monkeypatch.setattr(bifurcation, "_Evaluation", FailingEvaluation)
    expected = first_sequential_error(
        [eps, eps * 0.5, eps * 0.25], lambda e: solve_zeta(e, sys, 8, 6))
    assert str(expected) == f"fails at {raised} eps"
    with pytest.raises(LadderDivergenceError, match=f"fails at {raised} eps"):
        solve_response(eps, sys, 8, 6, probe=True)


def golden_config(**overrides):
    """The config of :func:`golden_system`."""
    config = base_config(g={"coeffs": [[1, 1.0], [2, 1.0], [3, 0.5]]},
                         truncation={"K": 10, "N": 8})
    config.update(overrides)
    return config


def run_sweep(tmp_path, config, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(config))
    out = tmp_path / name
    assert main(["sweep", "--config", str(path), "--out", str(out)]) == 0
    return (out / "sweep.csv").read_bytes()


def test_sweep_failures_are_nan_rows_and_warnings_stay_silent(tmp_path):
    grid = [0.01, 0.04, 0.08, 0.5, 2.0]
    config = golden_config(epsilon_grid=grid,
                           options={"zeta_bracket": list(BRACKET)})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        text = run_sweep(tmp_path, config, "sweep").decode()
    assert caught == []
    rows = list(csv.DictReader(text.splitlines()))
    assert [float(r["epsilon"]) for r in rows] == grid
    sys = golden_system()
    kinds = set()
    for eps, row in zip(grid, rows):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                alone = solve_response(eps, sys, 10, 8, bracket=BRACKET,
                                       probe=False)
        except (LadderDivergenceError, BifurcationSolveError) as exc:
            kinds.add(type(exc))
            assert row["converged"] == "false"
            assert all(row[c] == "nan" for c in row
                       if c not in ("epsilon", "converged"))
            continue
        assert row["converged"] == "true"
        assert row["zeta"] == repr(alone.zeta)
        assert row["residual_range"] == repr(alone.residual_range)
    assert kinds == {LadderDivergenceError, BifurcationSolveError}


def test_sweep_matches_the_solves_one_eps_at_a_time(tmp_path, monkeypatch):
    # the top of the grid diverges, so the CSV holds NaN rows too
    config = golden_config(
        g={"coeffs": [[1, 1.0], [3, 1.0]]}, truncation={"K": 14, "N": 10},
        epsilon_grid=[0.01, 0.05, 5.0, 3.0, 0.0, 0.02, 0.02])
    fast = run_sweep(tmp_path, config, "fast")
    monkeypatch.setattr(bifurcation, "_lockstep", sequential_lockstep)
    slow = run_sweep(tmp_path, config, "slow")
    assert b"nan" in fast and fast == slow


# 17 eps, two full parts of cli.SWEEP_PART (8) and one of one; the last
# part's two eps diverge
SWEEP_GRID = sorted([0.004 * k for k in range(1, 16)] + [3.0, 5.0])


def sweep_part_config():
    return golden_config(truncation={"K": 6, "N": 4}, epsilon_grid=SWEEP_GRID)


def row_bits(rows):
    return [[float(row[c]).hex() for c in cli._SWEEP_COLUMNS] for row in rows]


def test_a_sweep_in_parts_writes_the_rows_of_one_lockstep(monkeypatch):
    config = sweep_part_config()
    rows = []
    evaluation = bifurcation._Evaluation

    class Counted(evaluation):
        def __init__(self, *args):
            rows.append(len(args[2]))
            super().__init__(*args)

    monkeypatch.setattr(bifurcation, "_Evaluation", Counted)
    parts = cli._sweep_rows(config, SWEEP_GRID)
    assert cli.SWEEP_PART == 8
    assert max(rows) <= 8 * (bifurcation.SCAN_POINTS + 1)
    assert [r["converged"] for r in parts] == [True] * 15 + [False] * 2
    rows.clear()
    monkeypatch.setattr(cli, "SWEEP_PART", len(SWEEP_GRID))
    whole = cli._sweep_rows(config, SWEEP_GRID)
    assert max(rows) > 8 * (bifurcation.SCAN_POINTS + 1)
    assert row_bits(parts) == row_bits(whole)


def test_a_hard_failure_in_the_first_part_is_the_error_raised(monkeypatch):
    config = sweep_part_config()
    responses = bifurcation._responses
    solved = []

    def failing(sys_, eps_list, *args):
        solved.extend(eps_list)
        return [ValueError(f"fails at {eps!r}")
                if eps in (SWEEP_GRID[2], SWEEP_GRID[12]) else response
                for eps, response in zip(eps_list,
                                         responses(sys_, eps_list, *args))]

    monkeypatch.setattr(bifurcation, "_responses", failing)
    for part in (cli.SWEEP_PART, len(SWEEP_GRID)):
        monkeypatch.setattr(cli, "SWEEP_PART", part)
        solved.clear()
        with pytest.raises(ValueError, match=f"fails at {SWEEP_GRID[2]!r}"):
            cli._sweep_rows(config, SWEEP_GRID)
        # in parts, the grid stops at the part that failed
        assert len(solved) == min(part, len(SWEEP_GRID))


def count_builds(monkeypatch, tmp_path, command, config):
    _, batches = spy_builds(monkeypatch)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path)]) == 0
    return len(batches)


def forcing_json(d, modes, amplitude, f0):
    entries = [{"nu": [0] * d, "re": f0}]
    for nu, phase in zip(modes, (0.3, 1.9, 4.1)):
        c = amplitude * complex(math.cos(phase), math.sin(phase))
        entries.append({"nu": list(nu), "re": c.real, "im": c.imag})
        entries.append({"nu": [-x for x in nu], "re": c.real, "im": -c.imag})
    return {"d": d, "modes": entries}


def test_probed_solve_makes_at_most_six_builds(monkeypatch, tmp_path):
    # shaped like the probe-separable benchmark workload; solving each eps
    # on its own takes 15 builds here
    config = golden_config(
        f=forcing_json(2, [(1, 0), (0, 1), (1, 1)], 0.3, 0.02),
        epsilon=0.02, truncation={"K": 10, "N": 10},
        options={"continuity_probe": True})
    assert count_builds(monkeypatch, tmp_path, "solve", config) <= 6


def test_five_point_sweep_makes_at_most_six_builds(monkeypatch, tmp_path):
    # shaped like the sweep-d3 benchmark workload; solving each eps on its
    # own takes 25 builds here
    config = golden_config(
        dimension=3, omega=[1.0, math.sqrt(2.0), math.sqrt(3.0)],
        f=forcing_json(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 0.3, -0.02),
        truncation={"K": 5, "N": 5},
        epsilon_grid=[0.04 / 2**k for k in range(5)])
    assert count_builds(monkeypatch, tmp_path, "sweep", config) <= 6


def test_a_probed_solve_forms_each_balance_in_its_evaluations(monkeypatch):
    # the response's balance residual is the one its root's evaluation
    # formed, not a zero-mode balance formed again
    callers = []
    balances = bifurcation._balances

    def spy(*args):
        callers.append(sys._getframe(1).f_code.co_qualname)
        return balances(*args)

    monkeypatch.setattr(bifurcation, "_balances", spy)
    system = separable_system(2, TAYLOR)
    solution = solve_response(0.05, system, 8, 6, probe=True)
    assert callers and set(callers) == {"_Evaluation.__init__"}
    monkeypatch.undo()
    assert solution.residual_bifurcation.hex() == \
        abs(bifurcation_balance(system, solution.u)).hex()


def test_range_residuals_of_a_sweep_are_each_alone():
    # the residuals of a lockstep are formed in one batch, each bitwise
    # what the root's series gives alone
    system = golden_system()
    grid = [0.002 * k for k in range(1, 9)]
    for solution, eps in zip(solve_responses(grid, system, 6, 4), grid):
        assert solution.residual_range.hex() == \
            ladder.range_residual(system, eps, solution.u, 4).hex()
    solution = solve_response(0.01, system, 6, 4, probe=True)
    assert solution.residual_range.hex() == \
        ladder.range_residual(system, 0.01, solution.u, 4).hex()


def test_each_propagator_table_is_built_once_per_solve(monkeypatch):
    # the solves and the residuals of 12 eps read 12 tables, each built
    # once; the tables go with the solve, so solving again builds them
    # again
    built = []
    table = ladder._table

    def counted(*args):
        built.append(args)
        return table(*args)

    monkeypatch.setattr(ladder, "_table", counted)
    system = golden_system()
    grid = [0.002 * k for k in range(1, 13)]
    solutions = solve_responses(grid, system, 6, 4)
    assert all(isinstance(s, ResponseSolution) for s in solutions)
    assert len(built) == len(grid)
    assert sorted(eps for _, _, eps, _ in built) == grid
    again = solve_responses(grid, system, 6, 4)
    assert len(built) == 2 * len(grid)
    assert [json.dumps(s.to_json_dict()) for s in again] == \
        [json.dumps(s.to_json_dict()) for s in solutions]
    # -0.0 and 0.0 have tables of their own, bitwise apart
    tables = {}
    zero, minus_zero = (ladder._propagator_table(system, e, 4, tables)
                        for e in (0.0, -0.0))
    assert len(built) == 2 * len(grid) + 2 and len(tables) == 2
    assert zero[3].tobytes() != minus_zero[3].tobytes()
    # nothing keeps the system alive
    alive = weakref.ref(system)
    del system, solutions, again
    gc.collect()
    assert alive() is None
