"""Each output check accepts the program's real output and rejects a
perturbed copy of it.  Run from the repository root:

    python -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from qpresponse import cli  # noqa: E402


def _run(tmp_path_factory, name: str, config: dict, commands) -> dict:
    root = tmp_path_factory.mktemp(name)
    path = root / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        for command in commands:
            assert cli.main([command, "--config", str(path), "--out", str(root)]) == 0
    files = {p.name: p.read_text() for p in root.iterdir() if p.name != "config.json"}
    return {"config": config, "files": files}


@pytest.fixture(scope="module")
def separable(tmp_path_factory):
    config = workloads.probe_separable(7)
    config["truncation"] = {"K": 6, "N": 6}
    config["options"]["continuity_probe"] = False
    return _run(tmp_path_factory, "separable", config, ["solve"])


@pytest.fixture(scope="module")
def general(tmp_path_factory):
    return _run(tmp_path_factory, "general", workloads.verify_general(7),
                ["solve", "verify"])


@pytest.fixture(scope="module")
def d3(tmp_path_factory):
    config = workloads.sweep_d3(7)
    config["epsilon_grid"] = config["epsilon_grid"][-3:]
    config["truncation"] = {"K": 4, "N": 4}
    return _run(tmp_path_factory, "d3", config, ["diagnose", "sweep"])


def _solution(run) -> dict:
    return json.loads(run["files"]["solution.json"])


def _bump(series: dict, nu, delta: complex):
    """Add delta at nu and its conjugate at -nu, keeping u real-valued."""
    for mode, c in ((list(nu), delta), ([-x for x in nu], delta.conjugate())):
        entry = next(m for m in series["modes"] if m["nu"] == mode)
        entry["re"] += c.real
        entry["im"] += c.imag


def _edit_csv(text: str, row: int, column: str, value: str) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[row][rows[0].index(column)] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


# -- solution.json ------------------------------------------------------------

@pytest.mark.parametrize("which", ["separable", "general"])
def test_solution_check_accepts_program_output(which, request):
    run = request.getfixturevalue(which)
    found = checks.check_solution(run["config"], _solution(run))
    assert found["range_residual"] <= checks.RANGE_TOL


@pytest.mark.parametrize("which", ["separable", "general"])
def test_solution_check_rejects_perturbed_mode(which, request):
    run = request.getfixturevalue(which)
    solution = _solution(run)
    _bump(solution["u"], (1, 0), 1e-10)
    with pytest.raises(checks.CheckFailed, match="range residual|balance"):
        checks.check_solution(run["config"], solution)


@pytest.mark.parametrize("which", ["separable", "general"])
def test_solution_check_rejects_shifted_zeta(which, request):
    run = request.getfixturevalue(which)
    solution = _solution(run)
    zero = next(m for m in solution["u"]["modes"] if not any(m["nu"]))
    zero["re"] += 1e-10
    solution["zeta"] = zero["re"]
    with pytest.raises(checks.CheckFailed, match="range residual|balance"):
        checks.check_solution(run["config"], solution)


def test_solution_check_rejects_misreported_residual(separable):
    solution = _solution(separable)
    solution["residuals"]["range"] = 1e-9
    with pytest.raises(checks.CheckFailed, match="reported range"):
        checks.check_solution(separable["config"], solution)


def test_ladder_check_rejects_perturbed_order(separable):
    solution = _solution(separable)
    checks.check_ladder(solution, json.loads(separable["files"]["ladder.json"]))
    ladder = json.loads(separable["files"]["ladder.json"])
    ladder["orders"][2]["modes"][0]["re"] += 1e-12
    with pytest.raises(checks.CheckFailed, match="sum to u"):
        checks.check_ladder(solution, ladder)


# -- diagnose.csv ---------------------------------------------------------------

def test_ball_minimum_matches_hand_enumeration():
    # omega = (1, 1.5): |1 - 1.5| = 0.5 on |nu| <= 3, exact zero at (3, -2)
    assert checks.ball_minimum([1.0, 1.5], 1) == 1.0
    assert checks.ball_minimum([1.0, 1.5], 3) == 0.5
    assert checks.ball_minimum([1.0, 1.5], 5) == 0.0


def test_diagnose_check_accepts_program_output(d3):
    files = d3["files"]
    checks.check_diagnose(d3["config"], files["diagnose.csv"],
                          json.loads(files["epsilon_bounds.json"]))


def test_diagnose_check_rejects_perturbed_alpha(d3):
    files = d3["files"]
    rows = list(csv.reader(io.StringIO(files["diagnose.csv"])))
    text = _edit_csv(files["diagnose.csv"], 4, "alpha_n",
                     repr(float(rows[4][1]) * (1 + 1e-6)))
    with pytest.raises(checks.CheckFailed, match="alpha_n at n=3"):
        checks.check_diagnose(d3["config"], text,
                              json.loads(files["epsilon_bounds.json"]))


def test_diagnose_check_rejects_perturbed_r_table(d3):
    files = d3["files"]
    bounds = json.loads(files["epsilon_bounds.json"])
    key = next(iter(bounds["r_table"]))
    bounds["r_table"][key] *= 1 + 1e-6
    with pytest.raises(checks.CheckFailed, match="r_table"):
        checks.check_diagnose(d3["config"], files["diagnose.csv"], bounds)


# -- sweep.csv ------------------------------------------------------------------

def test_sweep_check_accepts_program_output(d3):
    checks.check_sweep(d3["config"], d3["files"]["sweep.csv"])


@pytest.mark.parametrize("column, value, message", [
    ("converged", "false", "did not converge"),
    ("residual_range", "1e-06", "range residual"),
    ("residual_bifurcation", "1e-09", "balance residual"),
    ("u_norm", "10.0", "u_norm does not fall"),
])
def test_sweep_check_rejects_perturbed_row(d3, column, value, message):
    text = _edit_csv(d3["files"]["sweep.csv"], 1, column, value)
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_sweep(d3["config"], text)


# -- verify.json and trajectory.csv ---------------------------------------------

def test_verify_check_accepts_program_output(general):
    files = general["files"]
    checks.check_verify(general["config"], json.loads(files["verify.json"]),
                        files["trajectory.csv"], _solution(general))


def test_verify_check_rejects_failed_oracle(general):
    files = general["files"]
    verify = json.loads(files["verify.json"])
    verify["checks"][2]["passed"] = False
    with pytest.raises(checks.CheckFailed, match="direct_solve_agreement"):
        checks.check_verify(general["config"], verify, files["trajectory.csv"],
                            _solution(general))


def test_verify_check_rejects_trajectory_off_the_response(general):
    files = general["files"]
    rows = list(csv.reader(io.StringIO(files["trajectory.csv"])))
    x, response = float(rows[5][1]), float(rows[5][3])
    text = _edit_csv(files["trajectory.csv"], 5, "x", repr(x + 2e-4))
    text = _edit_csv(text, 5, "abs_error", repr(abs(x + 2e-4 - response)))
    with pytest.raises(checks.CheckFailed, match="ode_check_tol"):
        checks.check_verify(general["config"], json.loads(files["verify.json"]),
                            text, _solution(general))


def test_verify_check_rejects_perturbed_response_column(general):
    files = general["files"]
    rows = list(csv.reader(io.StringIO(files["trajectory.csv"])))
    text = _edit_csv(files["trajectory.csv"], 5, "x_response",
                     repr(float(rows[5][3]) + 1e-9))
    with pytest.raises(checks.CheckFailed, match="x_response"):
        checks.check_verify(general["config"], json.loads(files["verify.json"]),
                            text, _solution(general))


# -- determinism and tracing ------------------------------------------------------

def test_identical_check_rejects_changed_byte(separable):
    first = {k: v.encode() for k, v in separable["files"].items()}
    checks.check_identical(first, dict(first))
    later = dict(first)
    data = bytearray(later["solution.json"])
    data[-3] ^= 1
    later["solution.json"] = bytes(data)
    with pytest.raises(checks.CheckFailed, match="solution.json"):
        checks.check_identical(first, later)


def test_tracer_patches_every_binding_site_and_restores():
    import qpresponse.bifurcation
    import qpresponse.fourier

    original = cli.build_ladder
    with tracer.Tracer() as tr:
        assert "qpresponse.cli.build_ladder" in tr.sites["ladder.build_ladder"]
        assert "qpresponse.bifurcation.build_ladder" in tr.sites["ladder.build_ladder"]
        assert "qpresponse.validation.nonlinearity_series" \
            in tr.sites["ladder.nonlinearity_series"]
        assert cli.build_ladder is qpresponse.bifurcation.build_ladder
        assert cli.build_ladder is not original
        a = qpresponse.fourier.cosine(2, 0)
        a.convolve(a)
    assert cli.build_ladder is original
    summary = tr.summary()
    assert summary["calls"]["fourier.convolve"] == 1
    assert summary["counts"]["fourier.convolve_cells"] == 5
    assert summary["counts"]["fourier.convolve_out_modes"] == 3
