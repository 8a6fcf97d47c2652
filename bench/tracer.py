"""Outside-in span tracer for the qpresponse layers.

The tracer patches public functions of the package from outside, at every
module attribute (and class attribute) through which they are reached, so
the program itself carries no tracing code.  Each call records a span
``[name, start, end, parent, raised, observe_s]`` in memory; counters are
filled by per-function observers that look at arguments and results after
the call.  Observer time is kept out of every span's self time: it is
tracing overhead, like the wrapper itself.

Helpers that run once per Fourier mode or per tree node
(``fourier.mode_norm``, ``ladder.propagator_denominator``,
``trees.tree_value`` and similar) are not wrapped: a wrapper would cost
more than their body, and their time shows as the self time of the
wrapped caller.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter, defaultdict

# (layer, module, attribute) of every wrapped function.  A dotted attribute
# names a method, wrapped on its class.
TARGETS = [
    ("fourier", "qpresponse.fourier", "FourierSeries.convolve"),
    ("fourier", "qpresponse.fourier", "FourierSeries.add"),
    ("fourier", "qpresponse.fourier", "FourierSeries.scaled"),
    ("fourier", "qpresponse.fourier", "FourierSeries.power"),
    ("fourier", "qpresponse.fourier", "FourierSeries.truncate"),
    ("fourier", "qpresponse.fourier", "FourierSeries.without_zero_mode"),
    ("fourier", "qpresponse.fourier", "FourierSeries.weighted_norm"),
    ("fourier", "qpresponse.fourier", "FourierSeries.evaluate"),
    ("fourier", "qpresponse.fourier", "FourierSeries.evaluate_many"),
    ("fourier", "qpresponse.fourier", "FourierSeries.time_derivative"),
    ("fourier", "qpresponse.fourier", "FourierSeries.to_json_dict"),
    ("ladder", "qpresponse.ladder", "build_ladder"),
    ("ladder", "qpresponse.ladder", "first_order"),
    ("ladder", "qpresponse.ladder", "next_order_thm1"),
    ("ladder", "qpresponse.ladder", "next_order_thm2"),
    ("ladder", "qpresponse.ladder", "assemble"),
    ("ladder", "qpresponse.ladder", "convergence_ratio"),
    ("ladder", "qpresponse.ladder", "nonlinearity_series"),
    ("ladder", "qpresponse.ladder", "forcing_term"),
    ("ladder", "qpresponse.ladder", "range_residual"),
    ("bifurcation", "qpresponse.bifurcation", "bifurcation_balance"),
    ("bifurcation", "qpresponse.bifurcation", "H"),
    ("bifurcation", "qpresponse.bifurcation", "solve_zeta"),
    ("bifurcation", "qpresponse.bifurcation", "solve_response"),
    ("validation", "qpresponse.validation", "direct_solve"),
    ("validation", "qpresponse.validation", "integrate"),
    ("validation", "qpresponse.validation", "compare"),
    ("validation", "qpresponse.validation", "response_state"),
    ("validation", "qpresponse.validation", "write_trajectory_csv"),
    ("trees", "qpresponse.trees", "enumerate_trees"),
    ("trees", "qpresponse.trees", "enumerate_all"),
    ("trees", "qpresponse.trees", "sum_trees"),
    ("trees", "qpresponse.trees", "find_chains"),
    ("trees", "qpresponse.trees", "verify_counting"),
    ("trees", "qpresponse.trees", "chain_value_bound_check"),
    ("diophantine", "qpresponse.diophantine", "min_small_divisor"),
    ("diophantine", "qpresponse.diophantine", "alpha_n"),
    ("diophantine", "qpresponse.diophantine", "epsilon_n"),
    ("diophantine", "qpresponse.diophantine", "classify_eps_sequence"),
    ("diophantine", "qpresponse.diophantine", "profile"),
    ("diophantine", "qpresponse.diophantine", "estimate_epsilon_bar"),
    ("diophantine", "qpresponse.diophantine", "recheck_bounds"),
    ("systems", "qpresponse.systems", "shift_taylor"),
    ("systems", "qpresponse.systems", "find_c0"),
    ("systems", "qpresponse.systems", "recentre"),
    ("systems", "qpresponse.systems", "certify_envelope"),
    ("systems", "qpresponse.systems", "check_nonresonance"),
    ("cli", "qpresponse.cli", "main"),
]

LAYERS = ("fourier", "ladder", "bifurcation", "validation", "trees",
          "diophantine", "systems", "cli")


def l1_ball_size(d: int, r: int) -> int:
    """Number of integer points nu in Z^d with |nu|_1 <= r."""
    return sum(2**k * math.comb(d, k) * math.comb(r, k)
               for k in range(min(d, r) + 1))


def _observe_convolve(counts, args, kwargs, result):
    left, right = args[0], args[1]
    if not len(left) or not len(right):
        return
    cells = 1
    for a_axis, b_axis in zip(zip(*left.support()), zip(*right.support())):
        cells *= max(a_axis) - min(a_axis) + max(b_axis) - min(b_axis) + 1
    counts["fourier.convolve_cells"] += cells
    counts["fourier.convolve_out_modes"] += len(result)


def _observe_min_small_divisor(counts, args, kwargs, result):
    omega = args[0]
    radius = args[1] if len(args) > 1 else kwargs["radius"]
    # the walk covers the canonical half of the punctured ball
    counts["diophantine.modes_walked"] += (l1_ball_size(len(omega), int(radius)) - 1) // 2


def _observe_direct_solve(counts, args, kwargs, result):
    counts["validation.picard_iterations"] += result.iterations


def _observe_trees(counts, args, kwargs, result):
    counts["trees.trees_enumerated"] += len(result)


OBSERVERS = {
    "fourier.convolve": _observe_convolve,
    "diophantine.min_small_divisor": _observe_min_small_divisor,
    "validation.direct_solve": _observe_direct_solve,
    "trees.enumerate_trees": _observe_trees,
    "trees.enumerate_all": _observe_trees,
}


class Tracer:
    """Installs span-recording wrappers; restores every original on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sites: dict[str, list[str]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
                done = clock()
                rec[5] = done - rec[2]
                rec[2] = done
            return result

        return traced

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "qpresponse" or key.startswith("qpresponse.")]
        for layer, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            func_name = attr.split(".")[-1]
            name = f"{layer}.{func_name}"
            if "." in attr:
                cls = getattr(owner, attr.split(".")[0])
                original = vars(cls)[func_name]
                self._patch(cls, func_name, self._wrap(name, original))
                self.sites[name].append(f"{module_name}.{attr}")
                continue
            original = getattr(owner, func_name)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
                        self.sites[name].append(f"{module.__name__}.{key}")
        return self

    def _patch(self, owner, key, wrapper):
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- derived numbers ---------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, outermost inclusive times, per-layer self
        times and raised calls, and the builds nested in solves."""
        spans = self.spans
        n = len(spans)
        covered = [0.0] * n
        for name, start, end, parent, raised, obs in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        inclusive: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        raised_calls: Counter = Counter()
        builds_in_solves = 0
        outer_solves = 0
        for i, (name, start, end, parent, raised, obs) in enumerate(spans):
            layer = name.split(".", 1)[0]
            duration = end - start - obs
            calls[name] += 1
            self_time[layer] += duration - covered[i]
            raised_calls[layer] += raised
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(spans[p][0])
                p = spans[p][3]
            if name not in ancestors:
                inclusive[name] += duration
            if name == "bifurcation.solve_response" and name not in ancestors:
                outer_solves += 1
            if name == "ladder.build_ladder" \
                    and "bifurcation.solve_response" in ancestors:
                builds_in_solves += 1
        return {
            "calls": calls,
            "inclusive": inclusive,
            "self": self_time,
            "raised": raised_calls,
            "counts": Counter(self.counts),
            "outer_solves": outer_solves,
            "builds_in_solves": builds_in_solves,
            "spans": n,
        }


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return {"fourier.fill_ratio": "ratio", "cli.output_bytes": "bytes"}.get(metric, "count")


def layer_metrics(summary: dict, output_bytes: int) -> dict:
    """The per-layer metrics of one traced pass, as plain numbers."""
    calls = summary["calls"]
    incl = summary["inclusive"]
    counts = summary["counts"]
    cells = counts["fourier.convolve_cells"]
    solves = summary["outer_solves"]
    out = {
        "fourier.convolve_calls": calls["fourier.convolve"],
        "fourier.convolve_s": incl["fourier.convolve"],
        "fourier.convolve_cells": cells,
        "fourier.fill_ratio": counts["fourier.convolve_out_modes"] / cells
        if cells else 0.0,
        "ladder.build_calls": calls["ladder.build_ladder"],
        "ladder.build_s": incl["ladder.build_ladder"],
        "ladder.nonlinearity_s": incl["ladder.nonlinearity_series"],
        "ladder.range_residual_s": incl["ladder.range_residual"],
        "bifurcation.h_evals": calls["bifurcation.H"],
        "bifurcation.builds_per_solve": summary["builds_in_solves"] / solves
        if solves else 0.0,
        "bifurcation.solve_zeta_s": incl["bifurcation.solve_zeta"],
        "bifurcation.solve_response_calls": calls["bifurcation.solve_response"],
        "validation.integrate_calls": calls["validation.integrate"],
        "validation.integrate_s": incl["validation.integrate"],
        "validation.compare_s": incl["validation.compare"],
        "validation.direct_solve_s": incl["validation.direct_solve"],
        "validation.picard_iterations": counts["validation.picard_iterations"],
        "trees.sum_trees_calls": calls["trees.sum_trees"],
        "trees.sum_trees_s": incl["trees.sum_trees"],
        "trees.trees_enumerated": counts["trees.trees_enumerated"],
        "diophantine.min_small_divisor_s": incl["diophantine.min_small_divisor"],
        "diophantine.modes_walked": counts["diophantine.modes_walked"],
        "systems.certify_s": incl["systems.find_c0"] + incl["systems.recentre"]
        + incl["systems.certify_envelope"],
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["self"][layer]
        out[f"{layer}.raised_calls"] = summary["raised"][layer]
    out["trace.spans"] = summary["spans"]
    return out
