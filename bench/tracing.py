"""In-memory spans around the public functions of each nvgames layer.

The package itself is not edited: `install` rebinds module and class
attributes of a freshly imported `nvgames` to wrappers that open a span,
call the original and close the span. Every span has a name
(``<layer>.<what>``), start and end times, the index of the span that was
open when it started (its parent) and an instance id. Spans stay in memory
until the run ends; `write_csv` then stores them and `layer_metrics` reduces
them to the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
from time import perf_counter

import numpy as np


class Tracer:
    """Span store. Wrappers record only while `enabled` is true."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.instance: list[int] = []
        self.error: list[str] = []
        self.data: dict[int, tuple] = {}
        self.current_instance = -1
        self.enabled = False
        self._stack: list[int] = []
        self._next_stress_instance = 0

    def open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current_instance)
        self.error.append("")
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int, error: str = "") -> None:
        self.end[i] = perf_counter()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.name[i]!r} closed out of order")
        if error:
            self.error[i] = error

    def begin_operation(self, name: str, instance: int) -> int:
        """Open a root span; stress instances inside it are numbered from 0."""
        if self._stack:
            raise RuntimeError("a root span is opened inside another span")
        self.current_instance = instance
        self._next_stress_instance = 0
        return self.open(name)

    def next_stress_instance(self, i: int) -> None:
        # run_stress generates instance k as the first step of instance k.
        self.current_instance = self._next_stress_instance
        self._next_stress_instance += 1
        self.instance[i] = self.current_instance

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """(inclusive, self) seconds per span; self excludes child spans."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        parent = np.asarray(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return dur, dur - child

    def write_csv(self, path) -> None:
        dur, self_t = self.durations()
        t_ref = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "name", "instance", "start_s", "end_s", "self_s", "error"])
            for i, name in enumerate(self.name):
                out.writerow([
                    i, self.parent[i], name, self.instance[i],
                    f"{self.start[i] - t_ref:.9f}", f"{self.end[i] - t_ref:.9f}",
                    f"{self_t[i]:.9f}", self.error[i],
                ])


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(i, type(exc).__name__)
            raise
        tracer.close(i)
        if after is not None:
            after(tracer, i, args, out)
        return out

    return traced


def _after_lp(tracer: Tracer, i: int, args, sol) -> None:
    lp = args[0]
    rows = lp.a_eq.shape[0] + lp.a_ub.shape[0]
    cols = lp.n_vars + int(np.count_nonzero(np.isneginf(lp.lower_bounds))) + lp.a_ub.shape[0]
    tracer.data[i] = (sol.iterations, sol.iterations * rows * cols * 8, sol.status == "optimal")


def _after_polytope(tracer: Tracer, i: int, args, _out) -> None:
    rows, cols = args[0].matrix.shape
    tracer.data[i] = (rows * cols * 8,)


def _after_vmax_entry(tracer: Tracer, i: int, args, _out) -> None:
    solver, mask = args[0], int(args[2])
    blocks_met = sum(1 for bm in solver.inst.block_masks if mask & bm)
    if blocks_met > 1:
        tracer.data[i] = (solver.poly, mask)


def _after_gen_instance(tracer: Tracer, i: int, _args, _out) -> None:
    tracer.next_stress_instance(i)


def install(tracer: Tracer) -> None:
    """Rebind the public functions of every layer of the imported nvgames.

    Each module-level function is rebound in its defining module and at every
    call site that imported it by name. A binding the harness does not know
    about raises, so that a refactor cannot make the trace miss calls
    silently. `robust_game` imports `solve_lp` from `nvgames.lp` when a ratio
    LP is solved, so rebinding `nvgames.lp.solve_lp` covers it.
    """
    mod = {n: importlib.import_module(f"nvgames.{n}")
           for n in ("lp", "distributions", "newsvendor", "coop", "robust_game", "stress")}
    functions = [
        # (defining module, function, span name, call sites, after-hook)
        ("lp", "solve_lp", "lp.solve", ("distributions", "coop"), _after_lp),
        ("distributions", "sample_extremal", "distributions.sample_extremal", ("stress",), None),
        ("newsvendor", "grand_action_interval", "newsvendor.action_interval", ("robust_game",), None),
        ("coop", "solve_stability_lp", "coop.stability_lp", ("robust_game",), None),
        ("coop", "build_deterministic_game", "coop.det_game", ("stress", "robust_game"), None),
        ("stress", "gen_instance", "stress.gen_instance", (), _after_gen_instance),
        ("stress", "run_stress", "stress.run", (), None),
    ]
    for home, attr, span, sites, after in functions:
        original = getattr(mod[home], attr)
        for site in sites:
            if getattr(mod[site], attr, None) is not original:
                raise RuntimeError(f"nvgames.{site}.{attr} is no longer bound to nvgames.{home}.{attr}")
        wrapper = _wrap(tracer, span, original, after)
        for site in (home,) + sites:
            setattr(mod[site], attr, wrapper)
        for name, module in list(sys.modules.items()):
            if name.startswith("nvgames.") and getattr(module, attr, None) is original:
                raise RuntimeError(f"{name}.{attr} calls nvgames.{home}.{attr} but is not traced")

    methods = [
        ("distributions", "FrechetPolytope", "__init__", "distributions.polytope_build", _after_polytope),
        ("robust_game", "RobustGameSolver", "min_grand_profit", "robust_game.denominator", None),
        ("robust_game", "RobustGameSolver", "vmax_entry", "robust_game.vmax_entry", _after_vmax_entry),
        ("robust_game", "RobustGameSolver", "table", "robust_game.table", None),
        ("robust_game", "RobustGameSolver", "sigma", "robust_game.sigma", None),
        ("robust_game", "RobustGameSolver", "core_decision", "robust_game.core_decision", None),
        ("robust_game", "RobustGameSolver", "least_core", "robust_game.least_core", None),
        ("stress", "ExcessEvaluator", "excess", "stress.excess", None),
    ]
    for home, cls_name, attr, span, after in methods:
        cls = getattr(mod[home], cls_name)
        setattr(cls, attr, _wrap(tracer, span, cls.__dict__[attr], after))


# Per-layer metric -> unit. "/op" values are per operation of the traced
# pass, its set-up included; the others are ratios of totals or maxima.
PER_LAYER_METRICS = {
    "distributions.polytope_build_s": "s/op",
    "distributions.polytope_builds": "count/op",
    "distributions.matrix_mb_computed": "MB",
    "distributions.sample_extremal_s": "s/op",
    "distributions.sample_extremal_calls": "count/op",
    "lp.solve_s": "s/op",
    "lp.solves": "count/op",
    "lp.pivots": "count/op",
    "lp.pivots_per_solve": "count",
    "lp.ms_per_solve": "ms",
    "lp.us_per_pivot": "us",
    "lp.pricing_mb_computed": "MB/op",
    "lp.nonoptimal": "count/op",
    "newsvendor.action_interval_s": "s/op",
    "newsvendor.action_interval_lps": "count/op",
    "robust_game.denominator_s": "s/op",
    "robust_game.denominator_lps": "count/op",
    "robust_game.table_s": "s/op",
    "robust_game.tables": "count/op",
    "robust_game.vmax_entry_s": "s/op",
    "robust_game.ratio_lps": "count/op",
    "robust_game.gamma_candidates": "count/op",
    "robust_game.screen_solved_frac": "frac",
    "robust_game.sigma_probes": "count/op",
    "robust_game.sigma_refused": "count/op",
    "robust_game.least_core_s": "s/op",
    "robust_game.self_s": "s/op",
    "coop.stability_lp_s": "s/op",
    "coop.stability_lps": "count/op",
    "coop.det_game_s": "s/op",
    "stress.robust_solve_s": "s/op",
    "stress.excess_s": "s/op",
    "stress.excess_calls": "count/op",
    "stress.us_per_excess": "us",
    "stress.degenerate_samples": "count/op",
    "stress.self_s": "s/op",
    "trace_overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, operations: int, overhead_frac: float) -> dict[str, float]:
    """The values of PER_LAYER_METRICS from the spans of one traced pass
    that made `operations` operations."""
    dur, self_t = tracer.durations()
    names = tracer.name
    parent = tracer.parent

    def spans(name):
        return [i for i, n in enumerate(names) if n == name]

    def total(name):
        return float(sum(dur[i] for i in spans(name)))

    def has_ancestor(i, name):
        p = parent[i]
        while p >= 0:
            if names[p] == name:
                return True
            p = parent[p]
        return False

    def layer_self(layer):
        prefix = layer + "."
        return float(sum(self_t[i] for i, n in enumerate(names) if n.startswith(prefix)))

    lps = spans("lp.solve")
    lp_data = [tracer.data.get(i, (0, 0, False)) for i in lps]
    pivots = sum(d[0] for d in lp_data)
    lp_s = total("lp.solve")

    def lps_under(name):
        return sum(1 for i in lps if parent[i] >= 0 and names[parent[i]] == name)

    distinct: dict[tuple[int, int], int] = {}
    gamma_candidates = 0
    for i in spans("robust_game.vmax_entry"):
        if i in tracer.data:
            poly, mask = tracer.data[i]
            key = (id(poly), mask)
            if key not in distinct:
                distinct[key] = int(np.unique(poly.coalition_demands(mask)).size)
            gamma_candidates += distinct[key]
    ratio_lps = lps_under("robust_game.vmax_entry")

    excess = spans("stress.excess")
    excess_s = total("stress.excess")
    builds = spans("distributions.polytope_build")
    robust_in_stress = [
        i for i, n in enumerate(names)
        if n in ("robust_game.core_decision", "robust_game.least_core") and has_ancestor(i, "stress.run")
    ]
    has_child = set(parent)
    tables = [i for i in spans("robust_game.table") if i in has_child]  # cache misses

    ops = float(max(operations, 1))
    return {
        "distributions.polytope_build_s": total("distributions.polytope_build") / ops,
        "distributions.polytope_builds": len(builds) / ops,
        "distributions.matrix_mb_computed": max((tracer.data[i][0] for i in builds if i in tracer.data), default=0) / 1e6,
        "distributions.sample_extremal_s": total("distributions.sample_extremal") / ops,
        "distributions.sample_extremal_calls": len(spans("distributions.sample_extremal")) / ops,
        "lp.solve_s": lp_s / ops,
        "lp.solves": len(lps) / ops,
        "lp.pivots": pivots / ops,
        "lp.pivots_per_solve": _ratio(pivots, len(lps)),
        "lp.ms_per_solve": 1e3 * _ratio(lp_s, len(lps)),
        "lp.us_per_pivot": 1e6 * _ratio(lp_s, pivots),
        "lp.pricing_mb_computed": sum(d[1] for d in lp_data) / 1e6 / ops,
        "lp.nonoptimal": sum(
            1 for i, d in zip(lps, lp_data) if tracer.error[i] or not d[2]
        ) / ops,
        "newsvendor.action_interval_s": total("newsvendor.action_interval") / ops,
        "newsvendor.action_interval_lps": lps_under("newsvendor.action_interval") / ops,
        "robust_game.denominator_s": total("robust_game.denominator") / ops,
        "robust_game.denominator_lps": lps_under("robust_game.denominator") / ops,
        "robust_game.table_s": total("robust_game.table") / ops,
        "robust_game.tables": len(tables) / ops,
        "robust_game.vmax_entry_s": total("robust_game.vmax_entry") / ops,
        "robust_game.ratio_lps": ratio_lps / ops,
        "robust_game.gamma_candidates": gamma_candidates / ops,
        "robust_game.screen_solved_frac": _ratio(ratio_lps, gamma_candidates),
        "robust_game.sigma_probes": len(spans("robust_game.sigma")) / ops,
        "robust_game.sigma_refused": sum(
            1 for i in spans("robust_game.sigma")
            if tracer.error[i] == "DomainError" and has_ancestor(i, "robust_game.least_core")
        ) / ops,
        "robust_game.least_core_s": total("robust_game.least_core") / ops,
        "robust_game.self_s": layer_self("robust_game") / ops,
        "coop.stability_lp_s": total("coop.stability_lp") / ops,
        "coop.stability_lps": lps_under("coop.stability_lp") / ops,
        "coop.det_game_s": total("coop.det_game") / ops,
        "stress.robust_solve_s": float(sum(dur[i] for i in robust_in_stress)) / ops,
        "stress.excess_s": excess_s / ops,
        "stress.excess_calls": len(excess) / ops,
        "stress.us_per_excess": 1e6 * _ratio(excess_s, len(excess)),
        "stress.degenerate_samples": sum(1 for i in excess if tracer.error[i] == "DomainError") / ops,
        "stress.self_s": layer_self("stress") / ops,
        "trace_overhead_frac": overhead_frac,
    }
