"""The benchmark's workloads, each driven through the public API of nvgames.

A workload builds its inputs from the benchmark seed in `setup`, then runs a
fixed number of operations. For each operation `prepare` does the untimed
work (a fresh solver, so no cache carries over), `solve` is the timed
section, and `check` verifies the outputs and returns an `Outcome`. The
workloads receive the freshly imported `nvgames` package as `nv`; they never
import it themselves, because the harness re-imports it for every set-up.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DEFAULT_SEED = 20240811  # held out for later claims: 918273645
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"  # run outputs; listed in .gitignore


@dataclass
class Outcome:
    """Checked result of one operation, which may cover several instances."""

    attempted: int
    failures: list[str] = field(default_factory=list)
    digest_lines: list[str] = field(default_factory=list)
    results: dict = field(default_factory=dict)


def fmt(x) -> str:
    return "%.9g" % float(x)


def decision_line(decision, eps) -> str:
    return " ".join([fmt(decision.y)] + [fmt(v) for v in decision.z] + [fmt(eps)])


class Example1:
    """The paper's example 1 at K=200: one 399 x 40 000 polytope. The seed
    does not change the inputs; every operation repeats the same solve on a
    fresh solver."""

    name = "example1-k200"
    unit_s = 9.0  # nominal seconds per operation on 2 cores

    def __init__(self, seed: int, units: int, smoke: bool):
        # K=12 misses the 2% check (3.4% discretisation error); K=24 passes it.
        self.k = 24 if smoke else 200
        self.units = units
        self.solver = None
        self.first_line = None

    def setup(self, nv) -> None:
        k = self.k
        grid = np.arange(1, k + 1) * (1.0 / k)
        m1 = nv.DiscreteMarginal(np.column_stack([grid, 1.0 - grid]), np.full(k, 1.0 / k))
        m2 = nv.DiscreteMarginal(grid[:, None], np.full(k, 1.0 / k))
        self.inst = nv.Instance(1.5, 1.0, ((0, 1), (2,)), (m1, m2))
        self.solver = nv.RobustGameSolver(self.inst)

    def operations(self) -> int:
        return self.units

    def prepare(self, nv, i: int):
        solver, self.solver = self.solver, None
        return solver if solver is not None else nv.RobustGameSolver(self.inst)

    def solve(self, solver):
        y_wc = solver.grand_wc.y_star
        table = solver.table(y_wc)
        eps_wc, _x = solver.sigma(y_wc)
        decision, eps = solver.least_core(y_tol=0.02)
        return table, eps_wc, decision, eps

    def check(self, nv, solver, out) -> Outcome:
        table, eps_wc, decision, eps = out
        target = 6.0 / 7.0
        v01, v02, v12 = (table.value(s) for s in ((0, 1), (0, 2), (1, 2)))
        line = decision_line(decision, eps)
        res = Outcome(1, digest_lines=[line],
                      results={"v01": v01, "v02": v02, "v12": v12, "eps_wc": eps_wc, "eps": eps})
        if self.first_line is None:
            self.first_line = line
        elif line != self.first_line:
            res.failures.append(f"decision {line!r} differs from the first operation's {self.first_line!r}")
        if abs(v01 - target) > 0.02 * target:
            res.failures.append(f"v_max(y_wc, {{0,1}}) = {v01} is not within 2% of 6/7")
        for label, v in (("{0,2}", v02), ("{1,2}", v12)):
            if v < 0.98 * target:
                res.failures.append(f"v_max(y_wc, {label}) = {v} is below 0.98 * 6/7")
        if not eps_wc > 0.0:
            res.failures.append(f"sigma(y_wc) = {eps_wc} is not positive")
        if not eps > 0.05:
            res.failures.append(f"least-core eps = {eps} is not above 0.05")
        if abs(float(np.sum(decision.z)) - 1.0) > 1e-9:
            res.failures.append(f"z sums to {float(np.sum(decision.z))}")
        return res


class StressSerial:
    """The criterion-10 stress configuration, run serially: 16-atom
    polytopes, thousands of small LPs per instance, excess evaluation."""

    name = "stress-serial"
    unit_s = 2.9  # nominal seconds per instance

    def __init__(self, seed: int, units: int, smoke: bool):
        self.seed = seed
        self.units = units
        self.num_extremal = 4 if smoke else 40

    def setup(self, nv) -> None:
        self.cfg = nv.ExperimentConfig(
            n=6, block_sizes=(3, 3), atoms_per_block=(4, 4), support_lo=1, support_hi=10,
            price=1.5, cost=1.0, num_extremal=self.num_extremal,
            num_instances=self.units, seed=self.seed,
        )

    def operations(self) -> int:
        return 1

    def prepare(self, nv, i: int):
        # Called through the module, so a traced pass sees the wrapped run_stress.
        return nv.stress

    def solve(self, stress):
        return stress.run_stress(self.cfg, workers=None)

    def check(self, nv, stress, stats) -> Outcome:
        cfg = self.cfg
        res = Outcome(cfg.num_instances)
        if len(stats.rows) != cfg.num_instances * len(cfg.lambda_grid):
            res.failures.append(
                f"{len(stats.rows)} rows, expected {cfg.num_instances} x {len(cfg.lambda_grid)}"
            )
        for i in range(cfg.num_instances):
            rows = [r for r in stats.rows if r.instance_id == i]
            lam0 = [r for r in rows if r.lam == 0.0]
            if len(rows) != len(cfg.lambda_grid):
                res.failures.append(f"instance {i}: {len(rows)} rows")
            elif len(lam0) != 1 or not lam0[0].det_max <= 1e-9:
                res.failures.append(f"instance {i}: det_max at lambda=0 is not <= 1e-9")
        # write_csv needs a path; the file lives only until it is hashed.
        path = OUT_DIR / f"stress-{os.getpid()}.csv"
        try:
            stress.write_csv(stats, path)
            res.digest_lines.append(hashlib.sha256(path.read_bytes()).hexdigest())
        finally:
            path.unlink(missing_ok=True)
        lam1 = stats.rows_for_lambda(1.0)
        wins = sum(1 for r in lam1 if r.rob_max <= r.det_max + 1e-12)
        res.results = {
            "robust_win_rate_lambda1": wins / len(lam1) if lam1 else None,
            "degenerate_samples": sum(r.degenerate_count for r in stats.rows),
        }
        return res


class RobustN6K100:
    """Random n=6 instances with two blocks of 10 atoms (K=100): the robust
    core test, then the golden-section least core when the core is empty."""

    name = "robust-n6k100"
    unit_s = 3.4  # nominal seconds per instance

    def __init__(self, seed: int, units: int, smoke: bool):
        self.seed = seed
        self.units = units
        self.smoke = smoke

    def setup(self, nv) -> None:
        if self.smoke:
            cfg = nv.ExperimentConfig(n=4, block_sizes=(2, 2), atoms_per_block=(3, 3), seed=self.seed)
        else:
            cfg = nv.ExperimentConfig(n=6, block_sizes=(3, 3), atoms_per_block=(10, 10), seed=self.seed)
        seeds = np.random.SeedSequence(self.seed).generate_state(self.units, np.uint32)
        self.instances = [nv.gen_instance(cfg, int(s)) for s in seeds]
        self.solvers = [nv.RobustGameSolver(inst) for inst in self.instances]

    def operations(self) -> int:
        return self.units

    def prepare(self, nv, i: int):
        solver, self.solvers[i] = self.solvers[i], None
        return solver

    def solve(self, solver):
        decision = solver.core_decision()
        if decision is not None:
            return decision, None
        return solver.least_core()

    def check(self, nv, solver, out) -> Outcome:
        decision, eps = out
        res = Outcome(1)
        if abs(float(np.sum(decision.z)) - 1.0) > 1e-9:
            res.failures.append(f"z sums to {float(np.sum(decision.z))}")
        if eps is None:
            eps = solver.sigma(decision.y)[0]
            if not nv.verify_rcore2(solver.inst, decision):
                res.failures.append("core decision fails verify_rcore2")
        else:
            fresh = nv.RobustGameSolver(solver.inst).sigma(decision.y)[0]
            if not eps > 0.0:
                res.failures.append(f"least-core eps = {eps} is not positive")
            if abs(eps - fresh) > 1e-9 * max(1.0, abs(eps)):
                res.failures.append(f"least-core eps = {eps} but a fresh solver gives {fresh}")
        res.digest_lines.append(("core " if out[1] is None else "least ") + decision_line(decision, eps))
        res.results = {"core_empty": out[1] is not None}
        return res


WORKLOADS = {w.name: w for w in (Example1, StressSerial, RobustN6K100)}
