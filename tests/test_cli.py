import copy
import dataclasses
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import qpresponse
from qpresponse import cli
from qpresponse.cli import _SWEEP_COLUMNS, build_parser, main
from qpresponse.diophantine import profile, profile_rows
from qpresponse.errors import ResonanceError
from qpresponse.fourier import FourierSeries

PHI = (1 + math.sqrt(5)) / 2
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
CUBIC = CONFIGS / "cubic.json"


def golden_f_json():
    return {
        "d": 2,
        "modes": [
            {"nu": [-1, 0], "re": 0.5, "im": 0.0},
            {"nu": [0, -1], "re": 0.5, "im": 0.0},
            {"nu": [0, 1], "re": 0.5, "im": 0.0},
            {"nu": [1, 0], "re": 0.5, "im": 0.0},
        ],
    }


def base_config(**overrides):
    config = {
        "dimension": 2,
        "omega": [1.0, PHI],
        "theorem": 1,
        "g": {"c_ref": 0.0, "coeffs": [[1, 1.0]]},
        "f": golden_f_json(),
        "epsilon": 0.05,
        "truncation": {"K": 4, "N": 8},
        "xi": 0.5,
        "rho": 0.5,
    }
    config.update(overrides)
    return config


def thm2_config(**overrides):
    config = {
        "dimension": 2,
        "omega": [1.0, PHI],
        "theorem": 2,
        "h": {
            "c_ref": 0.0,
            "grid": [
                [[0, 0], 1, 1.0],
                [[1, 0], 1, 0.5],
                [[-1, 0], 1, 0.5],
                [[0, 0], 2, 1.0],
                [[0, 1], 0, 0.0, -0.15],
                [[0, -1], 0, 0.0, 0.15],
            ],
        },
        "epsilon": 0.03,
        "truncation": {"K": 8, "N": 8},
        "xi": 0.4,
        "rho": 0.5,
        "options": {"continuity_probe": False},
    }
    config.update(overrides)
    return config


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path)


class TestSolve:
    def test_linear_exit_zero_and_zeta_zero(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        blob = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert blob["zeta"] == 0.0
        assert blob["residuals"]["bifurcation"] == 0.0
        assert (tmp_path / "out" / "ladder.json").exists()

    def test_cubic_residuals(self, tmp_path):
        config = base_config(
            g={"c_ref": 0.0, "coeffs": [[1, 1.0], [3, 1.0]]},
            truncation={"K": 12, "N": 12},
            options={"continuity_probe": False},
        )
        cfg = write_config(tmp_path, config)
        code = main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        blob = json.loads((tmp_path / "out" / "solution.json").read_text())
        assert blob["residuals"]["range"] <= 1e-10
        assert blob["residuals"]["bifurcation"] <= 1e-10

    def test_double_zero_exits_3(self, tmp_path):
        config = base_config(g={"c_ref": 0.0, "coeffs": [[2, 1.0]]},
                             f={"d": 2, "modes": [
                                 {"nu": [1, 0], "re": 0.5},
                                 {"nu": [-1, 0], "re": 0.5}]})
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_resonant_omega_exits_4(self, tmp_path):
        config = base_config(omega=[1.0, 2.0])
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 4

    def test_unknown_key_rejected(self, tmp_path):
        config = base_config(surprise=1)
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_byte_identical_reruns(self, tmp_path):
        config = base_config(
            g={"c_ref": 0.0, "coeffs": [[1, 1.0], [2, 0.6]]},
            options={"continuity_probe": False},
        )
        cfg = write_config(tmp_path, config)
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["solve", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("solution.json", "ladder.json"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b

    @pytest.mark.parametrize("interval, c0", [(None, 0.0), ([0.5, 2.0], 1.0)])
    def test_the_simple_zero_nearest_0_unless_the_interval_excludes_it(
            self, interval, c0):
        # g = x^3 - x under zero-average forcing: simple zeros -1, 0 and 1
        config = base_config(g={"c_ref": 0.0, "coeffs": [[1, -1.0], [3, 1.0]]})
        if interval is not None:
            config["search_interval"] = interval
        sys_, _ = cli.build_system(config)
        assert sys_.center == pytest.approx(c0, abs=1e-12)


def test_repeated_g_powers_are_summed(tmp_path, capsys):
    # a power given twice counts with the sum of its coefficients, in
    # config order, as repeated f.modes modes do, and so does an h.grid
    # entry split in two
    split = thm2_config()["h"]
    split["grid"][1:2] = [[[1, 0], 1, 0.25], [[1, 0], 1, 0.25, 0.0]]
    cases = {
        "g": (base_config(g={"c_ref": 0.0,
                             "coeffs": [[1, 1.0], [3, 0.25], [3, 0.25]]}),
              base_config(g={"c_ref": 0.0, "coeffs": [[1, 1.0], [3, 0.5]]})),
        "h": (thm2_config(h=split), thm2_config()),
    }
    for case, configs in cases.items():
        outputs = []
        for name, config in zip(("repeated", "summed"), configs):
            config.update(epsilon_grid=[0.02, 0.05],
                          options={"continuity_probe": False, "n_max": 4})
            cfg = write_config(tmp_path, config, name=f"{case}-{name}.json")
            runs = {}
            for command in ("solve", "diagnose", "sweep"):
                out = tmp_path / case / name / command
                assert main([command, "--config", cfg,
                             "--out", str(out)]) == 0
                printed = capsys.readouterr().out.replace(str(out), "<out>")
                files = {path.name: path.read_bytes()
                         for path in sorted(out.iterdir())}
                runs[command] = printed, files
            outputs.append(runs)
        assert outputs[0] == outputs[1], case
        assert all(files for _, files in outputs[0].values())


class TestDiagnose:
    def test_golden_profile(self, tmp_path):
        config = base_config(options={"n_max": 6})
        cfg = write_config(tmp_path, config)
        code = main(["diagnose", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "diagnose.csv").read_text().strip().splitlines()
        assert rows[0] == "n,alpha_n,eps_n,bryuno_partial"
        alphas = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(alphas) == 7
        assert alphas == sorted(alphas, reverse=True)
        bounds = json.loads((tmp_path / "epsilon_bounds.json").read_text())
        assert bounds["eps_bar"] > 0
        assert bounds["classification"] == "diophantine-like"

    def test_rational_omega_partial_output_exit_4(self, tmp_path):
        config = base_config(omega=[1.0, 2.0], options={"n_max": 6})
        cfg = write_config(tmp_path, config)
        code = main(["diagnose", "--config", cfg, "--out", str(tmp_path)])
        assert code == 4
        rows = (tmp_path / "diagnose.csv").read_text().strip().splitlines()
        # radius 1 and 2 balls miss (2, -1); radius 4 hits it and stops
        assert len(rows) == 3
        # the rows are those the profile's own loop yields before it raises
        shared = []
        with pytest.raises(ResonanceError):
            for n, a, _, e, b in profile_rows(config["omega"], 6):
                shared.append([str(n), a.hex(), e.hex(), b.hex()])
        assert [[c if i == 0 else float(c).hex() for i, c in
                 enumerate(row.split(","))] for row in rows[1:]] == shared

    def test_one_dimensional_single_row(self, tmp_path):
        config = base_config(
            dimension=1, omega=[0.7],
            g={"c_ref": 0.0, "coeffs": [[1, 1.0]]},
            f={"d": 1, "modes": [{"nu": [1], "re": 0.5},
                                 {"nu": [-1], "re": 0.5}]},
        )
        cfg = write_config(tmp_path, config)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "diagnose.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + n=0

    def test_r_table_radius_past_the_guard_exits_4(self, tmp_path, capsys):
        # the d = 3 enumeration guard is 64
        modes = [{"nu": nu, "re": 0.3} for nu in
                 ([1, 0, 0], [-1, 0, 0], [0, 0, 1], [0, 0, -1])]
        config = base_config(
            dimension=3, omega=[1.0, math.sqrt(2.0), math.sqrt(3.0)],
            f={"d": 3, "modes": modes}, truncation={"K": 4, "N": 4},
            options={"n_max": 2, "N_list": [4, 65]})
        cfg = write_config(tmp_path, config)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "resonance/guard: ball radius 65 exceeds the enumeration " \
            "guard 64" in capsys.readouterr().err
        assert not (tmp_path / "epsilon_bounds.json").exists()

    @pytest.mark.parametrize("config", [
        base_config(options={"n_max": 7, "N_list": [16, 4, 20]}),
        base_config(
            dimension=3, omega=[1.0, math.sqrt(2.0), math.sqrt(3.0)],
            f={"d": 3, "modes": [{"nu": nu, "re": 0.3} for nu in
                                 ([1, 0, 0], [-1, 0, 0], [0, 0, 1],
                                  [0, 0, -1])]},
            truncation={"K": 4, "N": 6}, options={"n_max": 6}),
        base_config(dimension=1, omega=[0.7],
                    f={"d": 1, "modes": [{"nu": [1], "re": 0.5},
                                         {"nu": [-1], "re": 0.5}]},
                    options={"N_list": [3, 1]}),
    ], ids=["golden", "d3", "d1"])
    def test_rows_and_table_are_the_profile(self, tmp_path, config):
        cfg = write_config(tmp_path, config)
        assert main(["diagnose", "--config", cfg, "--out", str(tmp_path)]) == 0
        opts = config["options"]
        N_list = opts.get("N_list") or [config["truncation"]["N"]]
        prof = profile(config["omega"], opts.get("n_max", 8), N_list)
        rows = (tmp_path / "diagnose.csv").read_text().splitlines()[1:]
        assert len(rows) == len(prof.eps)
        for n, row in enumerate(rows):
            cells = row.split(",")
            assert int(cells[0]) == n
            assert [float(c).hex() for c in cells[1:]] == [
                prof.alpha[n].hex(), prof.eps[n].hex(),
                prof.bryuno_partial[n].hex()]
        bounds = json.loads((tmp_path / "epsilon_bounds.json").read_text())
        assert bounds["classification"] == prof.classification
        assert {int(N): v.hex() for N, v in bounds["r_table"].items()} == {
            N: v.hex() for N, v in prof.r_table.items()}


class TestSweep:
    def test_linear_norm_scales_with_eps(self, tmp_path):
        grid = [2.0**-k for k in range(4, 11)]
        config = base_config(epsilon_grid=grid)
        cfg = write_config(tmp_path, config)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].startswith("epsilon,zeta,u_norm")
        ratios = []
        for row in rows[1:]:
            parts = row.split(",")
            eps, norm = float(parts[0]), float(parts[2])
            ratios.append(norm / eps)
        mid = sorted(ratios)[len(ratios) // 2]
        for r in ratios:
            assert abs(r - mid) <= 0.05 * mid

    def test_divergence_flips_converged_once(self, tmp_path):
        config = base_config(
            g={"c_ref": 0.0, "coeffs": [[1, 1.0], [3, 1.0]]},
            truncation={"K": 10, "N": 10},
            epsilon_grid=[0.02, 0.05, 0.1, 1.5, 3.0],
        )
        cfg = write_config(tmp_path, config)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]
        flags = [row.split(",")[-1] == "true" for row in rows]
        assert flags[0] and not flags[-1]
        flips = sum(1 for a, b in zip(flags, flags[1:]) if a != b)
        assert flips == 1

    def test_empty_grid_header_only(self, tmp_path):
        config = base_config(epsilon_grid=[])
        cfg = write_config(tmp_path, config)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1

    @pytest.mark.parametrize("edits, code", [
        ({"g": {"c_ref": 0.0, "coeffs": [[2, 1.0]]}}, 3),
        ({"g": {"c_ref": 0.0, "coeffs": [[2, 1.0]]}, "epsilon_grid": []}, 3),
        ({"omega": [1.0, 2.0]}, 4),
        ({}, 0),
    ], ids=["double-zero", "double-zero-empty-grid", "resonant", "valid"])
    def test_no_eps_exits_as_solve_does(self, tmp_path, edits, code):
        # with no eps to solve, the system is still built and certified
        config = json.loads(CUBIC.read_text())
        del config["epsilon_grid"]
        config.update(edits)
        cfg = write_config(tmp_path, config)
        for command in ("solve", "sweep"):
            assert main([command, "--config", cfg,
                         "--out", str(tmp_path / command)]) == code, command
        rows = tmp_path / "sweep" / "sweep.csv"
        assert rows.exists() == (code == 0)
        if code == 0:
            assert rows.read_text().splitlines() == [",".join(_SWEEP_COLUMNS)]

    def test_sweep_prints_no_warnings(self, tmp_path, capfd):
        # both eps exceed this system's constructive eps_bar; the run is a
        # fresh interpreter, which prints its warnings to its stderr
        cfg = write_config(tmp_path, thm2_config(epsilon_grid=[0.05, 0.1]))
        done = run_module("qpresponse", "sweep", "--config", cfg,
                          "--out", str(tmp_path), capture=False)
        assert done.returncode == 0
        assert capfd.readouterr().err == ""


class TestVerify:
    def verify_config(self):
        return base_config(
            g={"c_ref": 0.0, "coeffs": [[1, 1.0], [2, 0.6]]},
            epsilon=0.08,
            truncation={"K": 10, "N": 10},
            options={"T1": 20.0, "samples": 401, "ode_tol": 1e-10,
                     "ode_check_tol": 1e-4},
        )

    def test_all_checks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.verify_config())
        code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "tree_oracle_equivalence: PASS" in out
        assert "tree_counting_relations: PASS" in out
        assert "direct_solve_agreement: PASS" in out
        assert "trajectory_comparison: PASS" in out

    def test_fault_injection_names_failing_check(self, tmp_path, capsys,
                                                 monkeypatch):
        import qpresponse.trees

        original = qpresponse.trees.sum_trees

        def corrupted(k, nu, ctx):
            return original(k, nu, ctx) + 1e-3

        monkeypatch.setattr("qpresponse.trees.sum_trees", corrupted)
        cfg = write_config(tmp_path, self.verify_config())
        code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 2
        assert "tree_oracle_equivalence: FAIL" in out
        report = json.loads((tmp_path / "verify.json").read_text())
        assert not report["all_passed"]

    @pytest.mark.parametrize("K, passed, where", [
        (5, False, "within"), (8, True, "within"), (12, True, "within"),
        (12, True, "above")])
    def test_agreement_names_the_series_tail(self, tmp_path, capsys,
                                             monkeypatch, K, passed, where):
        # the sweep-d3 benchmark config at seed 1: at K = 5 the gap to the
        # Picard fixed point (5.67e-10) fails, inside a tail of 1.21e-8; at
        # K = 12 the gap (3.3e-13) is within the Picard solve's own floor
        # (9.2e-12).  A Picard point moved by 5e-11 still passes
        # AGREEMENT_TOL but reads above both.
        spec = importlib.util.spec_from_file_location(
            "workloads", CONFIGS.parents[1] / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        config = workloads.sweep_d3(1)
        config["truncation"]["K"] = K
        cfg = write_config(tmp_path, config)
        if where == "above":
            solve = cli.direct_solve

            def moved(sys_, eps, N):
                fp = solve(sys_, eps, N)
                shift = FourierSeries(3, {(0, 0, 0): 5e-11}, real_valued=True)
                return dataclasses.replace(fp, u_direct=fp.u_direct.add(shift))

            monkeypatch.setattr(cli, "direct_solve", moved)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
            main(["solve", "--config", cfg, "--out", str(tmp_path)])
        assert code == (0 if passed else 2)
        report = json.loads((tmp_path / "verify.json").read_text())
        (check,) = [c for c in report["checks"]
                    if c["name"] == "direct_solve_agreement"]
        assert check["passed"] is passed
        gap, tail, floor = (float(x) for x in re.fullmatch(
            rf"max gap (\S+), {where} the series tail (\S+) plus the Picard "
            rf"floor (\S+) after K = {K}", check["detail"]).groups())
        assert (gap <= cli.AGREEMENT_TOL) is passed
        assert (gap <= tail + floor) is (where == "within")
        assert 0 < floor < cli.AGREEMENT_TOL
        # the tail is the last order's norm times r / (1 - r)
        r = json.loads((tmp_path / "solution.json").read_text())[
            "ladder_meta"]["ratio_estimate"]
        last = json.loads((tmp_path / "ladder.json").read_text())["norms"][-1]
        assert f"{last * r / (1 - r):.2e}" == f"{tail:.2e}"
        assert f"direct_solve_agreement: {'PASS' if passed else 'FAIL'} " \
            f"({check['detail']})" in capsys.readouterr().out

    def test_negative_slope_skips_trajectory(self, tmp_path, capsys):
        config = base_config(
            g={"c_ref": 0.0, "coeffs": [[1, -1.0], [2, 0.3]]},
            epsilon=0.05,
            truncation={"K": 8, "N": 8},
        )
        cfg = write_config(tmp_path, config)
        code = main(["verify", "--config", cfg, "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert "trajectory_comparison: SKIPPED" in out
        assert code == 0


def test_solve_divergence_exits_2(tmp_path):
    config = base_config(
        g={"c_ref": 0.0, "coeffs": [[1, 1.0], [3, 1.0]]},
        epsilon=3.0,
        truncation={"K": 12, "N": 10},
        options={"continuity_probe": False},
    )
    cfg = write_config(tmp_path, config)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2


def run_module(module, *args, capture=True):
    """Run ``python -m module args`` with the package's source on the path."""
    src = str(Path(qpresponse.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", module, *args], env=env,
                          capture_output=capture, text=True, timeout=120)


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["qpresponse", "qpresponse.cli"])
    def test_solve_writes_solution(self, tmp_path, module):
        cfg = write_config(tmp_path, base_config())
        out = tmp_path / "out"
        done = run_module(module, "solve", "--config", cfg, "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert json.loads((out / "solution.json").read_text())["zeta"] == 0.0
        assert "zeta = 0.0" in done.stdout

    def test_unknown_key_exits_1(self, tmp_path):
        cfg = write_config(tmp_path, base_config(surprise=1))
        done = run_module("qpresponse", "solve", "--config", cfg,
                          "--out", str(tmp_path / "out"))
        assert done.returncode == 1
        assert "config error" in done.stderr

    def test_oversized_xi_exits_1_without_a_traceback(self, tmp_path):
        # exp(xi |nu|) overflows a float once xi |nu| > 709
        cfg = write_config(tmp_path, base_config(xi=800.0))
        done = run_module("qpresponse", "solve", "--config", cfg,
                          "--out", str(tmp_path / "out"))
        assert done.returncode == 1
        assert "config error: xi = 800.0" in done.stderr
        assert "Traceback" not in done.stderr


# the fixed settings that are not options, each at its fixed value
FIXED_SETTINGS = {
    "A_fraction": 0.5, "scan_points": 7, "zeta_tol": None, "picard_tol": 1e-12,
    "picard_max_iter": 10_000, "picard_damping": 1.0, "T0": None, "ics": None,
    "c0_hint": 0.0, "tree_order": 4, "tree_zeta": 0.02, "oracle_tol": 1e-12,
    "agreement_tol": 1e-10,
}


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [
        ["diagnose", "--parallel", "2"],
        ["diagnose", "--literal-3-1b"],
        ["solve", "--parallel", "2"],
        ["verify", "--parallel", "2"],
        ["sweep", "--parallel", "2"],
        # the literal balance is a library switch only
        ["solve", "--literal-3-1b"],
        ["sweep", "--literal-3-1b"],
        ["verify", "--literal-3-1b"],
    ])
    def test_a_flag_the_command_ignores_is_a_usage_error(self, argv):
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args([*argv, "--config", "c.json"])
        assert exit_.value.code == 2

    def test_attraction_tol_is_not_an_option(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config(
            options={"attraction_tol": 1e-5}))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "'attraction_tol' was unexpected" in capsys.readouterr().err

    @pytest.mark.parametrize("key", sorted(FIXED_SETTINGS, key=str.lower))
    def test_removed_option_is_a_config_error(self, tmp_path, capsys, key):
        # refused even at its fixed value
        cfg = write_config(tmp_path, base_config(
            options={key: FIXED_SETTINGS[key]}))
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert f"config error: invalid config: Additional properties are " \
            f"not allowed ('{key}' was unexpected)" in capsys.readouterr().err


class TestConfigSchema:
    @pytest.mark.parametrize("command, key, value", [
        ("solve", "options.zeta_bracket", [0.1, -0.1]),
        ("verify", "options.ode_tol", 1e-14),
        ("diagnose", "options.N_list", [0]),
        ("solve", "search_interval", [2.0, -2.0]),
    ], ids=["zeta_bracket", "ode_tol", "N_list", "search_interval"])
    def test_values_the_library_refuses_are_config_errors(self, tmp_path,
                                                          command, key, value):
        config = json.loads(CUBIC.read_text())
        *parents, last = key.split(".")
        node = config
        for parent in parents:
            node = node[parent]
        node[last] = value
        cfg = write_config(tmp_path, config)
        done = run_module("qpresponse", command, "--config", cfg,
                          "--out", str(tmp_path / "out"))
        assert done.returncode == 1
        assert "config error:" in done.stderr
        assert key in done.stderr
        assert "Traceback" not in done.stderr

    @staticmethod
    def forcing_in_three_dimensions(config):
        config["f"]["d"] = 3
        for mode in config["f"]["modes"]:
            mode["nu"].append(0)

    @staticmethod
    def one_forcing_mode_too_long(config):
        config["f"]["modes"][1]["nu"].append(0)

    @staticmethod
    def one_grid_mode_too_long(config):
        config["h"]["grid"].append([[1, 0, 0], 1, 0.0])

    @staticmethod
    def tiny_xi(config):
        # no n0 below 2^60 makes exp(-xi 2^n0 / 4) small enough
        config["xi"] = 1e-20

    @pytest.mark.parametrize("demo, edit, command, code", [
        ("cubic", "forcing_in_three_dimensions", "solve", 1),
        ("cubic", "one_forcing_mode_too_long", "solve", 1),
        ("mixed", "one_grid_mode_too_long", "solve", 1),
        ("mixed", "one_grid_mode_too_long", "sweep", 1),
        ("cubic", "tiny_xi", "solve", 0),
        ("cubic", "tiny_xi", "diagnose", 1),
        ("cubic", "tiny_xi", "sweep", 0),
        ("cubic", "tiny_xi", "verify", 0),
    ])
    def test_configs_the_library_refuses_exit_without_a_traceback(
            self, tmp_path, demo, edit, command, code):
        config = json.loads((CONFIGS / f"{demo}.json").read_text())
        getattr(self, edit)(config)
        cfg = write_config(tmp_path, config)
        out = tmp_path / "out"
        done = run_module("qpresponse", command, "--config", cfg,
                          "--out", str(out))
        assert done.returncode == code, done.stderr
        assert "Traceback" not in done.stderr
        if code == 1:
            assert "config error:" in done.stderr
        if edit == "tiny_xi":
            # the eps bounds are advisory for solves; diagnose needs them
            assert "eps_bar" not in done.stdout
            assert not (out / "epsilon_bounds.json").exists()
            assert (out / "diagnose.csv").exists() == (command == "diagnose")

    def test_the_options_are_the_nine_that_runs_set(self):
        # a new option needs this edit, and a run or test that sets it
        assert sorted(cli._OPTIONS) == [
            "N_list", "T1", "alpha_guard", "continuity_probe", "n_max",
            "ode_check_tol", "ode_tol", "samples", "zeta_bracket"]

    def test_schema_is_valid(self):
        import jsonschema

        from qpresponse.cli import _SCHEMA

        jsonschema.validators.validator_for(_SCHEMA).check_schema(_SCHEMA)

    @pytest.mark.parametrize("config", [
        base_config(surprise=1),
        base_config(theorem=3),
        base_config(omega="golden"),
        base_config(truncation={"K": 4}),
        base_config(g={"c_ref": 0.0, "coeffs": [[-1, 1.0]]}, xi="wide"),
        {k: v for k, v in base_config().items() if k != "rho"},
        base_config(xi=-1.0),
        base_config(rho=0.0),
    ])
    def test_messages_match_jsonschema_validate(self, tmp_path, config):
        import jsonschema

        from qpresponse.cli import _SCHEMA, ConfigError, load_config

        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(config, _SCHEMA)
        with pytest.raises(ConfigError) as got:
            load_config(write_config(tmp_path, config))
        assert str(got.value) == f"invalid config: {expected.value.message}"


def schema_keywords(schema) -> set:
    """Every keyword of ``schema`` and of the subschemas under it."""
    if isinstance(schema, bool):
        return set()
    found = set(schema)
    subschemas = [*schema.get("properties", {}).values(),
                  *schema.get("prefixItems", [])]
    subschemas += [schema[key] for key in ("items", "additionalProperties")
                   if key in schema]
    for subschema in subschemas:
        found |= schema_keywords(subschema)
    return found


# what each node of a config is replaced by: every JSON type, integral
# floats, NaN, infinities and values that meet or miss the schema's bounds
MUTANTS = [None, True, False, 0, 1, 2, 3, -1, 0.0, 1.0, 4.0, -1.0, 0.5, -0.5,
           1e-14, 1e300, math.nan, math.inf, -math.inf, "", "1", [], [0],
           [1, 2], [0.5, 1.5], [2.0, -2.0], [[0, 0], 1, 1.0],
           [[1.0, 0], 2.0, 0.5, 0.0], [1, 2, 3, 4, 5], {}, {"K": 4, "N": 8},
           {"nu": [0, 1], "re": 0.5}]


def every_option(config):
    """``config`` with every optional key set, each option by a value runs
    could set."""
    config = copy.deepcopy(config)
    config["search_interval"] = [-2.0, 2.0]
    config["options"] = {
        "n_max": 8, "N_list": [4, 8], "alpha_guard": 12,
        "zeta_bracket": [-1.0, 1.0], "ode_tol": 1e-10, "T1": 50.0,
        "samples": 2001, "continuity_probe": True, "ode_check_tol": 1e-4}
    return config


def mutants(config):
    """``config`` with each node (the root too) replaced by each of
    ``MUTANTS``, each node below the root deleted, and an unknown key added
    to each object."""
    def paths(node, path=()):
        yield path
        items = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        for key, child in items:
            yield from paths(child, path + (key,))

    def edited(path, edit):
        out = copy.deepcopy(config)
        node = out
        for key in path[:-1]:
            node = node[key]
        edit(node, path[-1])
        return out

    yield from MUTANTS
    for path in list(paths(config))[1:]:
        for value in MUTANTS:
            yield edited(path, lambda node, key: node.__setitem__(key, value))
        yield edited(path, lambda node, key: node.__delitem__(key))
    for path in paths(config):
        node = config
        for key in path:
            node = node[key]
        if isinstance(node, dict):
            yield edited(path + ("surprise",),
                         lambda node, key: node.__setitem__(key, 1))


class TestSchemaReading:
    def test_the_schema_uses_only_the_keywords_load_config_reads(self):
        assert schema_keywords(cli._SCHEMA) <= cli._KEYWORDS

    def test_the_keyword_walk_sees_a_new_keyword(self):
        schema = copy.deepcopy(cli._SCHEMA)
        grid = schema["properties"]["h"]["properties"]["grid"]
        grid["items"]["prefixItems"][1]["maximum"] = 8
        assert schema_keywords(schema) - cli._KEYWORDS == {"maximum"}

    @pytest.mark.parametrize("demo", ["cubic", "linear", "mixed",
                                      "cubic with every option"])
    def test_the_verdict_is_jsonschemas(self, tmp_path, monkeypatch, demo):
        import jsonschema

        validator = jsonschema.validators.validator_for(cli._SCHEMA)(
            cli._SCHEMA)
        config = json.loads((CONFIGS / f"{demo.split()[0]}.json").read_text())
        if demo.endswith("every option"):
            config = every_option(config)
        assert validator.is_valid(config)
        cfg = write_config(tmp_path, config)
        verdicts = []
        for mutant in mutants(config):
            best = jsonschema.exceptions.best_match(
                validator.iter_errors(mutant))
            violations = list(cli._violations(mutant, cli._SCHEMA, (), []))
            assert (not violations) == (best is None), mutant
            verdicts.append(best is None)
            if best is None:
                continue
            # load_config reads the mutant as json.load's result, so that
            # NaN and the infinities reach the reader too
            monkeypatch.setattr(json, "load", lambda fh, **_: mutant)
            with pytest.raises(cli.ConfigError) as got:
                cli.load_config(cfg)
            at = best.json_path[2:]
            assert str(got.value) == f"invalid config: {best.message}" + (
                f" ({at})" if at.startswith("options.") else ""), mutant
        # both verdicts are common: the mutants test the reading both ways
        assert min(verdicts.count(True), verdicts.count(False)) > 100

    @pytest.mark.parametrize("path, value, message", [
        (("truncation", "K"), 4.0, "truncation.K must be an integer, not 4.0"),
        (("f", "modes", 1, "nu", 0), 0.0,
         "f.modes[1].nu[0] must be an integer, not 0.0"),
        (("g", "coeffs", 1, 0), 3.0,
         "g.coeffs[1][0] must be an integer, not 3.0"),
        (("options", "n_max"), 8.0, "options.n_max must be an integer, not 8.0"),
        (("options", "N_list"), [16, 4.0],
         "options.N_list[1] must be an integer, not 4.0"),
    ], ids=["K", "nu", "power", "n_max", "N_list"])
    @pytest.mark.parametrize("command", ["solve", "diagnose", "sweep",
                                         "verify"])
    def test_an_integral_float_in_an_integer_field_is_a_config_error(
            self, tmp_path, capsys, command, path, value, message):
        import jsonschema

        config = json.loads(CUBIC.read_text())
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        # JSON Schema counts the float as an integer: the schema verdict
        # stands, and the refusal comes after it
        jsonschema.validate(config, cli._SCHEMA)
        cfg = write_config(tmp_path, config)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, literal", [
        ("epsilon", "NaN"),
        ("omega", "[1.0, NaN]"),
        ("xi", "Infinity"),
        ("rho", "-Infinity"),
        ("epsilon", "1e400"),
    ])
    @pytest.mark.parametrize("command", ["solve", "diagnose", "sweep",
                                         "verify"])
    def test_a_non_finite_number_is_a_config_error(self, tmp_path, capsys,
                                                   command, key, literal):
        config = json.loads(CUBIC.read_text())
        config[key] = "@"
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config).replace('"@"', literal))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        word = literal.strip("[]").split()[-1]
        assert f"config error: cannot read config {cfg}: {word} is not a " \
            f"finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("path", [
        ("xi",), ("f", "modes", 0, "re"), ("truncation", "K"),
    ], ids=["xi", "re", "K"])
    @pytest.mark.parametrize("command", ["solve", "diagnose", "sweep",
                                         "verify"])
    def test_an_integer_beyond_float_range_is_a_config_error(
            self, tmp_path, capsys, command, path):
        # float(10**400) overflows, and K = 10**400 would never finish
        config = json.loads(CUBIC.read_text())
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "@"
        huge = "1" + "0" * 400
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config).replace('"@"', huge))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 1
        assert f"config error: cannot read config {cfg}: {huge} is not a " \
            f"finite number" in capsys.readouterr().err
