"""Benchmark for the qpresponse CLI: end-to-end and per-layer numbers.

Run from the repository root:

    python3 bench/run.py --workload probe-separable --seed 1 --seconds 30 --trace 0

Each workload generates its config from ``--seed``, then runs passes of
its command sequence in this process through ``qpresponse.cli.main``
until ``--seconds`` have gone by, and checks every output.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` traced passes alternate with
untraced ones and the JSON holds the per-layer metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / ".runs"

# workload -> (config generator, CLI command sequence of one pass)
WORKLOADS = {
    "probe-separable": (workloads.probe_separable, ("solve",)),
    "verify-general": (workloads.verify_general, ("solve", "verify")),
    "sweep-d3": (workloads.sweep_d3, ("diagnose", "sweep")),
}
SETUP_REPEATS = 5


def measure_setup(make_config, seed: int, run_dir: Path, cli):
    """Median over SETUP_REPEATS of: importing qpresponse.cli in a fresh
    interpreter, then generating, writing, loading and certifying the
    config in this process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    path = run_dir / "config.json"
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qpresponse.cli"],
                       env=env, check=True, stdin=subprocess.DEVNULL)
        config = make_config(seed)
        path.write_text(json.dumps(config, indent=2) + "\n")
        cli.build_system(cli.load_config(path))
        samples.append(time.perf_counter() - start)
    return path, config, statistics.median(samples)


def run_pass(cli, commands, config_path: Path, out_dir: Path):
    """One timed pass of the command sequence into a fresh out_dir.

    Returns the wall time, the exit codes and every file written, plus the
    captured standard output as ``<stdout>``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    captured = io.StringIO()
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        for command in commands:
            codes.append(cli.main([command, "--config", str(config_path),
                                   "--out", str(out_dir)]))
    elapsed = time.perf_counter() - start
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    files["<stdout>"] = captured.getvalue().encode()
    return elapsed, codes, files


def check_outputs(config: dict, commands, codes, files) -> list[str]:
    """Run the independent checks on one pass; returns what they report."""
    notes = []
    ok = dict(zip(commands, (code == 0 for code in codes)))
    text = {name: data.decode() for name, data in files.items()}
    if ok.get("solve"):
        solution = json.loads(text["solution.json"])
        found = checks.check_solution(config, solution)
        notes.append(f"solution.json: range residual {found['range_residual']:.2e}, "
                     f"balance {found['balance']:.2e}")
        checks.check_ladder(solution, json.loads(text["ladder.json"]))
        notes.append("ladder.json: orders sum to u")
        if ok.get("verify"):
            checks.check_verify(config, json.loads(text["verify.json"]),
                                text["trajectory.csv"], solution)
            notes.append("verify.json, trajectory.csv: all checks passed")
    if ok.get("diagnose"):
        checks.check_diagnose(config, text["diagnose.csv"],
                              json.loads(text["epsilon_bounds.json"]))
        notes.append("diagnose.csv: ball minima match enumeration")
    if ok.get("sweep"):
        checks.check_sweep(config, text["sweep.csv"])
        notes.append("sweep.csv: converged, |u| falls with eps, residuals small")
    return notes


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from qpresponse import cli

    make_config, commands = WORKLOADS[workload]
    run_dir = RUNS / f"{workload}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        config_path, config, setup_s = measure_setup(make_config, seed, run_dir, cli)
        out_dir = run_dir / "out"
        correct = True
        attempted = failed = 0
        first = None
        untraced, traced, layer_runs = [], [], []
        tr = tracer.Tracer()
        start = time.perf_counter()
        while True:
            # traced passes alternate with untraced ones, so that a change in
            # machine load shifts both sides of the overhead alike
            if trace and len(traced) < len(untraced):
                tr.reset()
                with tr:
                    elapsed, codes, files = run_pass(cli, commands, config_path, out_dir)
                output_bytes = sum(len(v) for k, v in files.items() if k != "<stdout>")
                layer_runs.append(tracer.layer_metrics(tr.summary(), output_bytes))
                traced.append(elapsed)
            else:
                elapsed, codes, files = run_pass(cli, commands, config_path, out_dir)
                untraced.append(elapsed)
            attempted += len(codes)
            failed += sum(code != 0 for code in codes)
            if first is None:
                first = (codes, files)
            else:
                try:
                    checks.check_identical(first[1], files)
                except checks.CheckFailed as exc:
                    correct = False
                    print(f"check failed: {exc}", file=sys.stderr)
            if time.perf_counter() - start >= seconds \
                    and (not trace or len(traced) == len(untraced)):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            for note in check_outputs(config, commands, *first):
                print(f"checked {note}")
        except Exception:
            correct = False
            traceback.print_exc()
        print(f"{workload}: seed {seed}, passes of {' + '.join(commands)}: "
              f"untraced {[round(t, 3) for t in untraced]} s, "
              f"traced {[round(t, 3) for t in traced]} s")
        if trace:
            metrics = {name: _metric(statistics.median_low(r[name] for r in layer_runs),
                                     tracer.unit_of(name))
                       for name in layer_runs[0]}
            metrics["trace.overhead_s"] = _metric(
                statistics.median(t - u for t, u in zip(traced, untraced)), "s")
        else:
            metrics = {
                "setup_s": _metric(setup_s, "s"),
                "wall_s": _metric(statistics.median(untraced), "s"),
                "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            }
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUNS.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "qpresponse" / "cli.py").is_file():
        print(f"no program source at {SRC}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
