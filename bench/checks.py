"""Checks of the CLI's output files, computed apart from the program.

Nothing here imports qpresponse.  Each check reads the config the program
was given and the files it wrote, recomputes what it can with plain numpy
(FFT products on an unaliased grid, brute-force ball enumeration) and
raises :class:`CheckFailed` with the first discrepancy it finds.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# The benchmark workloads converge their expansions to round-off, so the
# truncated equations must hold far below these bounds; a wrong coefficient
# of size 1e-10 already breaks them.
RANGE_TOL = 1e-13
BALANCE_TOL = 1e-13
# FFT products and direct convolutions round differently; the recomputed
# residual may differ from the one the program reports by this much.
REPORT_TOL = 1e-13
# sweep rows at the top of the eps grid carry the K-truncation error
SWEEP_RANGE_TOL = 1e-8
SWEEP_BALANCE_TOL = 1e-12
ALPHA_RTOL = 1e-9
EVAL_TOL = 1e-12
LADDER_TOL = 1e-15


class CheckFailed(AssertionError):
    pass


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _modes(series: dict):
    nus = np.array([m["nu"] for m in series["modes"]], dtype=int)
    vals = np.array([complex(m["re"], m["im"]) for m in series["modes"]])
    return nus.reshape(len(vals), series["d"]), vals


# -- solution.json ----------------------------------------------------------

def _grid_values(d: int, M: int, nus, vals) -> np.ndarray:
    """Values of sum_nu c_nu exp(i nu.psi) at psi = 2 pi j / M."""
    coeffs = np.zeros((M,) * d, dtype=complex)
    np.add.at(coeffs, tuple((nus % M).T), vals)
    return np.fft.ifftn(coeffs) * M**d


def _grid_angles(d: int, M: int) -> np.ndarray:
    axis = 2.0 * np.pi * np.arange(M) / M
    return np.stack(np.meshgrid(*([axis] * d), indexing="ij"), axis=-1)


def _box_modes(d: int, N: int) -> np.ndarray:
    axes = np.meshgrid(*([np.arange(-N, N + 1)] * d), indexing="ij")
    box = np.stack([a.ravel() for a in axes], axis=-1)
    return box[np.abs(box).sum(axis=1) <= N]


def equation_residuals(config: dict, solution: dict) -> tuple[float, float]:
    """Range residual max_{0<|nu|<=N} |(-eps s^2 + i s) u_nu + eps [F]_nu|
    and balance |[F]_0| of the full equation, where F is g(x) - f for
    separable and h(x, psi) for general systems, evaluated at
    x = c0 + u(psi) on an 8N-point grid per axis and transformed back."""
    d = config["dimension"]
    omega = np.array(config["omega"], dtype=float)
    N = solution["ladder_meta"]["N"]
    eps = solution["epsilon"]
    c0 = solution["c0"]
    u_nus, u_vals = _modes(solution["u"])
    M = 8 * N
    x = c0 + _grid_values(d, M, u_nus, u_vals)
    if config["theorem"] == 1:
        t = x - config["g"].get("c_ref", 0.0)
        values = sum(c * t**p for p, c in config["g"]["coeffs"])
        f_nus, f_vals = _modes(config["f"])
        values = values - _grid_values(d, M, f_nus, f_vals)
    else:
        t = x - config["h"].get("c_ref", 0.0)
        psi = _grid_angles(d, M)
        values = np.zeros_like(x)
        for entry in config["h"]["grid"]:
            nu, p, re = entry[0], entry[1], entry[2]
            im = entry[3] if len(entry) > 3 else 0.0
            values = values + complex(re, im) * t**p * np.exp(1j * (psi @ nu))
    F = np.fft.fftn(values) / M**d
    ball = _box_modes(d, N)
    ball = ball[np.abs(ball).sum(axis=1) > 0]
    s = ball @ omega
    u = np.zeros((M,) * d, dtype=complex)
    np.add.at(u, tuple((u_nus % M).T), u_vals)
    idx = tuple((ball % M).T)
    range_res = np.abs((-eps * s * s + 1j * s) * u[idx] + eps * F[idx])
    balance = abs(F[(0,) * d])
    return float(range_res.max()), float(balance)


def check_solution(config: dict, solution: dict) -> dict:
    """solution.json solves the N-truncated range equation and the zero-mode
    balance of the config's system, and its fields are self-consistent."""
    meta = solution["ladder_meta"]
    _require(solution["epsilon"] == config["epsilon"], "epsilon differs from the config")
    _require(meta["K"] == config["truncation"]["K"]
             and meta["N"] == config["truncation"]["N"], "K, N differ from the config")
    nus, vals = _modes(solution["u"])
    _require(len(vals) > 0, "empty response series")
    _require(int(np.abs(nus).sum(axis=1).max()) <= meta["N"],
             "response has modes outside the radius-N ball")
    zero = np.flatnonzero(~nus.any(axis=1))
    zeta = vals[zero[0]] if len(zero) else 0j
    _require(zeta == complex(solution["zeta"]), "zero mode of u is not zeta")
    coeff = {tuple(nu): c for nu, c in zip(nus.tolist(), vals)}
    asym = max(abs(c - coeff.get(tuple(-x for x in nu), 0j).conjugate())
               for nu, c in coeff.items())
    _require(asym <= 1e-15 * max(1.0, float(np.abs(vals).max())),
             f"u breaks conjugate symmetry by {asym:.2e}")
    range_res, balance = equation_residuals(config, solution)
    _require(range_res <= RANGE_TOL, f"range residual {range_res:.3e} > {RANGE_TOL}")
    _require(balance <= BALANCE_TOL, f"zero-mode balance {balance:.3e} > {BALANCE_TOL}")
    reported = solution["residuals"]
    _require(abs(reported["range"] - range_res) <= REPORT_TOL,
             f"reported range residual {reported['range']:.3e} vs {range_res:.3e}")
    _require(abs(reported["bifurcation"] - balance) <= REPORT_TOL,
             f"reported balance {reported['bifurcation']:.3e} vs {balance:.3e}")
    return {"range_residual": range_res, "balance": balance}


def check_ladder(solution: dict, ladder: dict):
    """ladder.json is the expansion at the solved zeta: its orders sum to u."""
    _require(ladder["zeta"] == solution["zeta"], "ladder zeta differs from solution zeta")
    _require(ladder["eps"] == solution["epsilon"], "ladder eps differs from solution")
    _require(ladder["N"] == solution["ladder_meta"]["N"], "ladder N differs from solution")
    _require(len(ladder["orders"]) == solution["ladder_meta"]["K"],
             "ladder does not hold K orders")
    total: dict = {}
    for order in ladder["orders"]:
        for m in order["modes"]:
            key = tuple(m["nu"])
            total[key] = total.get(key, 0j) + complex(m["re"], m["im"])
    u = {tuple(m["nu"]): complex(m["re"], m["im"]) for m in solution["u"]["modes"]}
    scale = max(abs(c) for c in u.values())
    gap = max(abs(total.get(k, 0j) - u.get(k, 0j)) for k in set(total) | set(u))
    _require(gap <= LADDER_TOL * scale, f"ladder orders sum to u only within {gap:.2e}")


# -- diagnose.csv -------------------------------------------------------------

def ball_minimum(omega, radius: int) -> float:
    """min |omega . nu| over 0 < |nu|_1 <= radius by plain enumeration."""
    omega = np.asarray(omega, dtype=float)
    d = len(omega)
    if d == 1:
        return abs(float(omega[0]))
    best = math.inf
    rest = _box_modes(d - 1, radius)
    rest_norm = np.abs(rest).sum(axis=1)
    rest_dot = rest @ omega[1:]
    for x in range(-radius, radius + 1):
        keep = rest_norm <= radius - abs(x)
        if x == 0:
            keep &= rest_norm > 0
        vals = np.abs(x * omega[0] + rest_dot[keep])
        if vals.size:
            best = min(best, float(vals.min()))
    return best


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_diagnose(config: dict, csv_text: str, bounds: dict):
    """alpha_n, eps_n and the Bryuno partial sums of diagnose.csv, and the
    r_table of epsilon_bounds.json, against brute-force ball minima."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    _require(rows[0] == ["n", "alpha_n", "eps_n", "bryuno_partial"],
             "unexpected diagnose.csv header")
    omega = config["omega"]
    n_max = 0 if len(omega) == 1 else config.get("options", {}).get("n_max", 8)
    _require(len(rows) - 1 == n_max + 1, f"expected {n_max + 1} rows, got {len(rows) - 1}")
    running = 0.0
    for n, row in enumerate(rows[1:]):
        _require(int(row[0]) == n, f"row {n} is labelled {row[0]}")
        alpha = ball_minimum(omega, 2**n)
        eps_n = math.log(1.0 / alpha) / 2**n
        running += eps_n
        for got, want, what in ((float(row[1]), alpha, "alpha_n"),
                                (float(row[2]), eps_n, "eps_n"),
                                (float(row[3]), running, "bryuno_partial")):
            _require(_close(got, want, ALPHA_RTOL),
                     f"{what} at n={n}: file {got!r}, enumeration {want!r}")
    N_list = config.get("options", {}).get("N_list") or [config["truncation"]["N"]]
    _require(sorted(bounds["r_table"]) == sorted(str(N) for N in N_list),
             "r_table radii differ from the config")
    for N in N_list:
        got, want = bounds["r_table"][str(N)], ball_minimum(omega, int(N))
        _require(_close(got, want, ALPHA_RTOL),
                 f"r_table[{N}]: file {got!r}, enumeration {want!r}")


# -- sweep.csv ------------------------------------------------------------------

SWEEP_COLUMNS = ["epsilon", "zeta", "u_norm", "ratio_estimate",
                 "residual_range", "residual_bifurcation", "converged"]


def check_sweep(config: dict, csv_text: str):
    """Every eps of the grid converged, |u| falls strictly as eps falls and
    the residuals are small."""
    rows = list(csv.reader(io.StringIO(csv_text)))
    _require(rows[0] == SWEEP_COLUMNS, "unexpected sweep.csv header")
    body = [dict(zip(rows[0], row)) for row in rows[1:]]
    grid = sorted(float(e) for e in config["epsilon_grid"])
    _require([float(r["epsilon"]) for r in body] == grid,
             "sweep rows do not match the eps grid")
    for r in body:
        eps = r["epsilon"]
        _require(r["converged"] == "true", f"eps={eps} did not converge")
        for key in ("zeta", "u_norm", "ratio_estimate"):
            _require(math.isfinite(float(r[key])), f"eps={eps}: {key} is not finite")
        _require(0.0 <= float(r["ratio_estimate"]) < 1.0,
                 f"eps={eps}: ratio estimate {r['ratio_estimate']} does not contract")
        _require(float(r["residual_range"]) <= SWEEP_RANGE_TOL,
                 f"eps={eps}: range residual {r['residual_range']}")
        _require(float(r["residual_bifurcation"]) <= SWEEP_BALANCE_TOL,
                 f"eps={eps}: balance residual {r['residual_bifurcation']}")
    norms = [float(r["u_norm"]) for r in body]
    _require(all(0.0 < a < b for a, b in zip(norms, norms[1:])),
             f"u_norm does not fall strictly as eps falls: {norms}")


# -- verify.json and trajectory.csv ---------------------------------------------

VERIFY_CHECKS = ["tree_oracle_equivalence", "tree_counting_relations",
                 "direct_solve_agreement", "trajectory_comparison"]


def check_verify(config: dict, verify: dict, trajectory_csv: str, solution: dict):
    """Every oracle check passed, and the trajectory's x_response and
    abs_error columns match the response series within ode_check_tol."""
    names = [c["name"] for c in verify["checks"]]
    _require(names == VERIFY_CHECKS, f"verify ran {names}")
    failed = [c["name"] for c in verify["checks"] if not c["passed"]]
    _require(not failed, f"verify checks failed: {failed}")
    _require(verify["all_passed"] is True, "verify.json reports all_passed false")
    tol = config["options"]["ode_check_tol"]
    data = np.loadtxt(io.StringIO(trajectory_csv), delimiter=",", skiprows=1, ndmin=2)
    _require(trajectory_csv.startswith("t,x,y,x_response,abs_error\n"),
             "unexpected trajectory.csv header")
    t, x, response, abs_error = data[:, 0], data[:, 1], data[:, 3], data[:, 4]
    nus, vals = _modes(solution["u"])
    freqs = nus @ np.asarray(config["omega"], dtype=float)
    mine = solution["c0"] + (np.exp(1j * np.outer(t, freqs)) @ vals).real
    gap = float(np.max(np.abs(mine - response)))
    _require(gap <= EVAL_TOL, f"x_response differs from the series by {gap:.2e}")
    _require(np.array_equal(abs_error, np.abs(x - response)),
             "abs_error is not |x - x_response|")
    worst = float(np.max(np.abs(x - mine)))
    _require(worst <= tol, f"max trajectory error {worst:.2e} > ode_check_tol {tol}")


# -- determinism ------------------------------------------------------------------

def check_identical(first: dict, later: dict):
    """Every pass writes the same files, byte for byte."""
    _require(sorted(first) == sorted(later),
             f"files differ: {sorted(first)} vs {sorted(later)}")
    for name in sorted(first):
        _require(first[name] == later[name], f"{name} differs from the first pass")
