"""The JSON artifacts against json's own layout.

``cli._json`` writes what ``json.dumps(payload, indent=2, sort_keys=True)``
writes, and writes each series straight from its block through one
template per mode.  ``json.dumps`` is the oracle here: on random payloads
and random series (signed zeros, subnormals, 17-digit floats, NaN and the
infinities among their parts), and on every JSON file that ``solve``,
``diagnose`` and ``verify`` write for the demo configs, the bytes must be
its bytes.
"""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qpresponse import cli
from qpresponse.bifurcation import ResponseSolution
from qpresponse.fourier import DenseBlock, FourierSeries
from qpresponse.ladder import OrderLadder

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs")
                 .glob("*.json"))


def oracle(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# parts a coefficient may have: 17-digit values, exact and large ones,
# signed zeros, subnormals and the values json spells itself
SPECIAL_PARTS = [0.0, -0.0, 5e-324, -2.5e-310, 1e-300, 0.1, -1.0, 1e16,
                 1.7976931348623157e308, math.nan, math.inf, -math.inf]


def random_float(rng) -> float:
    if rng.random() < 0.3:
        return SPECIAL_PARTS[rng.integers(len(SPECIAL_PARTS))]
    return float(rng.normal() * 10.0 ** rng.integers(-20, 20))


def random_series(rng, d: int, fill: float) -> FourierSeries:
    """A series on a random box of dimension ``d`` whose cells are held as
    drawn, without the cleaning the arithmetic does, so that any float may
    be a part; a cell drawn as two zeros is an absent mode."""
    shape = tuple(rng.integers(1, 5, size=d).tolist())
    values = np.zeros((1,) + shape, dtype=complex)
    for cell in np.ndindex(*shape):
        if rng.random() < fill:
            values[(0,) + cell] = complex(random_float(rng), random_float(rng))
    lo = rng.integers(-4, 3, size=d).tolist()
    return DenseBlock(values, lo, False).series()


def random_scalar(rng):
    return [None, True, False, int(rng.integers(-10**6, 10**6)), 10**30,
            random_float(rng), "", "tab\there", 'quote " and \\ slash',
            "café ∑ \U0001f600", "\x00\x1f"][rng.integers(11)]


def random_payload(rng, depth: int):
    kind = rng.integers(4) if depth else 3
    if kind == 0:
        return {f"k{rng.integers(20)}{'é' if rng.random() < 0.2 else ''}":
                random_payload(rng, depth - 1) for _ in range(rng.integers(4))}
    if kind == 1:
        return [random_payload(rng, depth - 1) for _ in range(rng.integers(4))]
    if kind == 2:
        return tuple(random_payload(rng, depth - 1)
                     for _ in range(rng.integers(3)))
    return random_scalar(rng)


@pytest.mark.parametrize("seed", range(6))
def test_payloads_are_written_as_json_writes_them(seed):
    rng = np.random.default_rng([seed, 41])
    for _ in range(40):
        payload = {"root": random_payload(rng, 4), "empty": {}, "none": [],
                   "nan": math.nan, "inf": [math.inf, -math.inf, -0.0]}
        assert cli._json(payload) + "\n" == oracle(payload)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("fill", [0.0, 0.3, 1.0])
def test_series_are_written_as_json_writes_their_dicts(d, fill):
    rng = np.random.default_rng([d, int(fill * 10), 42])
    for _ in range(20):
        series = random_series(rng, d, fill)
        if fill == 0.0:
            assert len(series) == 0
        payload = {"u": series, "list": [series, 1.5]}
        want = {"u": series.to_json_dict(),
                "list": [series.to_json_dict(), 1.5]}
        assert cli._json(payload) + "\n" == oracle(want)


def random_solution(rng, d: int) -> ResponseSolution:
    orders = [random_series(rng, d, fill) for fill in (0.5, 0.0, 0.8, 0.2)]
    ladder = OrderLadder(orders=orders, zeta=random_float(rng),
                         eps=random_float(rng), N=int(rng.integers(1, 20)),
                         norms=[random_float(rng) for _ in orders])
    return ResponseSolution(
        c0=random_float(rng), zeta=random_float(rng),
        u=random_series(rng, d, 0.7), epsilon=random_float(rng),
        residual_range=random_float(rng),
        residual_bifurcation=random_float(rng), K=len(orders), N=ladder.N,
        ratios=[random_float(rng) for _ in range(3)],
        ratio_estimate=random_float(rng),
        continuity_checked=bool(rng.random() < 0.5),
        probe_norms=[random_float(rng) for _ in range(int(rng.integers(3)))],
        ladder=ladder)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_solution_and_ladder_files_are_json_of_their_dicts(d, tmp_path):
    rng = np.random.default_rng([d, 43])
    for _ in range(10):
        solution = random_solution(rng, d)
        cli._write_solution(tmp_path, solution)
        assert (tmp_path / "solution.json").read_text() == \
            oracle(solution.to_json_dict())
        assert (tmp_path / "ladder.json").read_text() == \
            oracle(solution.ladder.to_json_dict())


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_every_json_artifact_is_in_jsons_own_layout(config, tmp_path):
    written = []
    with warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("ignore")
        for command in ("solve", "diagnose", "verify"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(config),
                             "--out", str(out)]) == cli.EXIT_OK
            written += sorted(out.glob("*.json"))
        loaded = cli.load_config(config)
        _, _, solution = cli._solve_once(
            loaded, float(loaded["epsilon"]),
            cli.options_of(loaded)["continuity_probe"])
    assert {path.name for path in written} == {
        "solution.json", "ladder.json", "epsilon_bounds.json", "verify.json"}
    for path in written:
        text = path.read_text()
        assert text == oracle(json.loads(text)), path
    solve = tmp_path / "solve"
    assert (solve / "solution.json").read_text() == \
        oracle(solution.to_json_dict())
    assert (solve / "ladder.json").read_text() == \
        oracle(solution.ladder.to_json_dict())
