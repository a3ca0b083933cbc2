"""Contamination stress experiments: random instances, robust vs
independence-based decisions, and excess values under mixtures of the
independent joint with adversarial extremal vertices.

The excess of a decision (y, z) under a realized joint q is the largest
positive shortfall, over nonempty proper coalitions S, of z(S) against the
ratio of S's achievable profit to the grand profit at y. Coalitions inside a
single block order their known-distribution quantile; coalitions spanning
blocks order optimally for the realized q. `ExcessEvaluator.excess` computes
it for several decisions under a matrix of joints at once; every order and
profit in it comes from the instance's `newsvendor.ProperCoalitions`, the
set-up the robust solver's vertex tables use too, built once per instance
and shared. The robust decision comes from `RobustGameSolver`'s core test
and least-core search, so every worst-case ratio of its vertex tables
equals, bit for bit, the excess pass's ratio under that ratio's witness at
the decision's order.

Per instance the experiment builds a pool of extremal vertices: random-cost
vertices, then the worst-case ratio witnesses, which the robust solver
records in build order (each distinct array once) as it computes the tables
of its core and least-core search. It keeps the first 256 that lie farther
than 1e-10 in max norm from every vector kept before them, and
mixes each with the independent joint at every lambda. Both decisions are
evaluated in two `excess` calls: one on the independent joint, which is
every mixture at lambda = 0, and one on the mixtures of every other lambda
as one matrix. A sample under which either decision's excess is undefined
(its grand profit is nonpositive) is left out and counted as degenerate.
Every value equals the one-joint formula bit for bit.

Everything is reproducible from the config seed: instance generation,
extremal sampling, and the (instance, lambda) aggregation order.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coop import build_deterministic_game, least_core
from .distributions import (
    DiscreteMarginal,
    Instance,
    JointDistribution,
    check_int,
    check_probability_rows,
    check_real,
    independent_joint,
    sample_extremal,
)
from .errors import GameInvalidError, InputError, SolverError
from .newsvendor import _CHUNK_ROWS, ProperCoalitions, optimal_order
from .robust_game import Decision, RobustGameSolver

WITNESS_POOL_CAP = 256
_DEDUPE_BLOCK = 128
"""Candidates per closeness block in `_dedupe_pool`: a block holds one
block x pool matrix, so a pool of 10 000 vectors needs about 10 MB."""
_DEFAULT_LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))

CSV_HEADER = (
    "instance_id,lambda,rob_max,rob_min,rob_mean,det_max,det_min,det_mean,degenerate_count"
)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Knobs for one stress run; all randomness derives from `seed`. Every
    field is checked and converted here, whether it comes from code or from
    a config file: counts must be integers (never truncated) and
    `atoms_per_block` may be one count for every block."""

    n: int
    block_sizes: tuple[int, ...]
    atoms_per_block: tuple[int, ...]
    support_lo: int = 1
    support_hi: int = 10
    price: float = 1.5
    cost: float = 1.0
    lambda_grid: tuple[float, ...] = _DEFAULT_LAMBDAS
    num_extremal: int = 100
    num_instances: int = 20
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (
            ("n", 1), ("support_lo", 1), ("num_extremal", 0), ("num_instances", 1), ("seed", 0)
        ):
            object.__setattr__(self, name, check_int(getattr(self, name), name, minimum))
        hi = check_int(self.support_hi, "support_hi", self.support_lo)
        if hi >= np.iinfo(np.int64).max:
            # gen_instance draws atoms from [support_lo, support_hi + 1) in int64.
            raise InputError(f"support_hi must be below 2**63 - 1, got {hi}")
        object.__setattr__(self, "support_hi", hi)
        blocks = _int_tuple(self.block_sizes, "block_sizes", 1)
        if sum(blocks) != self.n:
            raise InputError(f"block sizes {blocks} must sum to n={self.n}")
        object.__setattr__(self, "block_sizes", blocks)
        atoms = self.atoms_per_block
        if isinstance(atoms, (int, np.integer)):
            atoms = (atoms,) * len(blocks)
        atoms = _int_tuple(atoms, "atoms_per_block", 1)
        if len(atoms) != len(blocks):
            raise InputError(f"atoms_per_block {atoms} must give one count per block")
        object.__setattr__(self, "atoms_per_block", atoms)
        for name in ("price", "cost"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))
        if not (0 < self.cost < self.price):
            raise InputError(
                f"prices must satisfy 0 < cost < price, got {self.cost}, {self.price}"
            )
        try:
            lam = tuple(check_real(v, "lambda_grid") for v in self.lambda_grid)
        except TypeError:
            raise InputError(
                f"lambda_grid must be a list of numbers, got {self.lambda_grid!r}"
            ) from None
        if not lam:
            raise InputError("lambda_grid must not be empty")
        if any(not (0.0 <= v <= 1.0) for v in lam):
            raise InputError(f"lambda grid {lam} must lie in [0, 1]")
        object.__setattr__(self, "lambda_grid", lam)


def _int_tuple(values, name: str, minimum: int) -> tuple[int, ...]:
    try:
        items = tuple(values)
    except TypeError:
        raise InputError(f"{name} must be a list of integers, got {values!r}") from None
    return tuple(check_int(v, name, minimum) for v in items)


@dataclass(frozen=True)
class ExcessRow:
    """Aggregated excess statistics for one instance at one lambda."""

    instance_id: int
    lam: float
    rob_max: float
    rob_min: float
    rob_mean: float
    det_max: float
    det_min: float
    det_mean: float
    degenerate_count: int

    def __post_init__(self):
        for lo, mid, hi in (
            (self.rob_min, self.rob_mean, self.rob_max),
            (self.det_min, self.det_mean, self.det_max),
        ):
            if not (lo <= mid + 1e-12 and mid <= hi + 1e-12) or lo < -1e-12:
                raise SolverError(
                    f"excess statistics out of order: min={lo}, mean={mid}, max={hi}"
                )


@dataclass(frozen=True)
class ExcessStats:
    rows: tuple[ExcessRow, ...]

    def rows_for_lambda(self, lam: float) -> list[ExcessRow]:
        return [r for r in self.rows if abs(r.lam - lam) <= 1e-9]


def gen_instance(cfg: ExperimentConfig, instance_seed: int) -> Instance:
    """Random instance: per block, atoms uniform on the integer box
    [support_lo, support_hi]^size and probabilities as normalized uniform
    draws. Deterministic per seed."""
    rng = np.random.default_rng(check_int(instance_seed, "instance seed"))
    marginals = []
    for size, k_r in zip(cfg.block_sizes, cfg.atoms_per_block):
        atoms = rng.integers(cfg.support_lo, cfg.support_hi + 1, (k_r, size)).astype(float)
        weights = rng.random(k_r)
        total = float(np.sum(weights))
        if total <= 0.0:
            weights = np.ones(k_r)
            total = float(k_r)
        probs = weights / total
        probs[-1] = 1.0 - float(np.sum(probs[:-1]))  # exact unit mass
        marginals.append(DiscreteMarginal(atoms, probs))
    bounds = np.cumsum((0,) + cfg.block_sizes)
    partition = tuple(
        tuple(range(bounds[r], bounds[r + 1])) for r in range(len(cfg.block_sizes))
    )
    return Instance(cfg.price, cfg.cost, partition, tuple(marginals))


def _deterministic_decision(inst: Instance, q_ind: JointDistribution) -> Decision:
    """Core allocation of the deterministic game under the independent
    joint `q_ind`, expressed as multiples of the grand value, with its
    optimal grand order."""
    game = build_deterministic_game(inst, q_ind)
    if game.grand_value <= 0.0:
        raise GameInvalidError("grand-coalition value is nonpositive; cannot form multiples")
    x, s_value = least_core(game)
    if s_value > 1e-7:
        # Deterministic newsvendor games always have a core allocation.
        raise SolverError(
            f"deterministic least core came out positive ({s_value}); solver bug"
        )
    y_det = optimal_order(inst, q_ind, inst.grand_mask).y_star
    return Decision(y_det, x / game.grand_value)


def _solve_robust(
    inst: Instance, y_tol: float | None = None
) -> tuple[Decision, RobustGameSolver]:
    """The robust decision and its solver: a stable decision when one
    exists, otherwise the least-core decision."""
    solver = RobustGameSolver(inst)
    decision = solver.core_decision()
    if decision is None:
        decision, _eps = solver.least_core(y_tol)
    return decision, solver


class ExcessEvaluator:
    """Excess values of decisions under many joints on one instance.

    The per-coalition data that no joint changes (each coalition's demand
    per atom and the pinned quantile order of a coalition inside one
    block) is the instance's `newsvendor.ProperCoalitions`, which the
    evaluator takes as it is: the stress loop hands it the robust
    solver's own, so each instance builds one. `excess` takes its best
    profits from `best_orders`, the routine that also gives
    `RobustGameSolver`'s vertex tables theirs, and its grand profits from
    `grand_profits`. The kernel's values equal its one-joint values bit for
    bit, so each excess equals the one-joint excess, and a vertex-table
    ratio equals the kernel's profit under its witness over the grand
    profit there.
    """

    def __init__(self, coalitions: ProperCoalitions):
        inst = coalitions.inst
        self._coalitions = coalitions
        masks = np.arange(1, inst.grand_mask)
        # _members[i] selects the coalitions that contain retailer i.
        self._members = [((masks >> i) & 1).astype(bool) for i in range(inst.n_retailers)]

    def excess(self, q: np.ndarray, decisions: Sequence[Decision]) -> np.ndarray:
        """Largest positive coalition dissatisfaction of each decision under
        each row of `q` (one joint, or a matrix of joints as rows), shape
        (decisions, rows); NaN where the decision's grand profit is
        nonpositive, since the excess is undefined there. Every coalition's
        best profit comes from `ProperCoalitions.best_orders`, one call per
        `_CHUNK_ROWS` rows that serves every decision: a coalition inside
        one block at its pinned known-marginal quantile, a coalition
        spanning blocks at its critical-ratio order under each row."""
        qs = np.atleast_2d(np.asarray(q, dtype=float))
        atoms = self._coalitions.d_grand.size
        if qs.ndim != 2 or qs.shape[1] != atoms:
            raise InputError(f"joints have shape {np.shape(q)}, expected rows of {atoms} atoms")
        n = self._coalitions.inst.n_retailers
        for d in decisions:
            if d.z.shape != (n,):
                raise InputError(f"decision has {d.z.size} multiples, instance has {n} retailers")
        dens = [self._coalitions.grand_profits(d.y, qs) for d in decisions]
        zsums = [self._zsum(d.z) for d in decisions]
        out = np.empty((len(dens), qs.shape[0]))
        # A tiny positive grand profit gives an inf ratio, as in float math;
        # a nonpositive one gives values that NaN replaces below.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for lo in range(0, qs.shape[0], _CHUNK_ROWS):
                rows = slice(lo, lo + _CHUNK_ROWS)
                profits = self._coalitions.best_orders(qs[rows])[1]
                for values, den, zsum in zip(out, dens, zsums):
                    worst = np.max(profits / den[rows, None] - zsum, axis=1, initial=0.0)
                    values[rows] = np.where(worst > 0.0, worst, 0.0)
        for values, den in zip(out, dens):
            values[den <= 0.0] = np.nan
        return out

    def _zsum(self, z: np.ndarray) -> np.ndarray:
        """z(S) for every coalition S, in coalition order, summed from the
        highest member down to the lowest: the order of the one-joint
        reference in the tests, so each z(S) is the same float."""
        zsum = np.zeros(self._coalitions.inst.grand_mask - 1)
        for i in reversed(range(len(self._members))):
            zsum[self._members[i]] += z[i]
        return zsum


# ---------------------------------------------------------------------------
# The experiment loop
# ---------------------------------------------------------------------------


def _dedupe_pool(pool: Sequence[np.ndarray], limit: int = WITNESS_POOL_CAP) -> list[np.ndarray]:
    """The first `limit` vectors of `pool` that lie farther than 1e-10 (max
    norm) from every vector kept before them, in pool order. The rule is
    not transitive (of a ~ b ~ c with a !~ c, the pool a, b, c keeps a and
    c), so it runs one candidate at a time: a kept vector drops every later
    one close to it. Closeness is found for `_DEDUPE_BLOCK` candidates
    against the rest of the pool at once, one atom at a time, so no
    temporary spans the atoms."""
    kept: list[np.ndarray] = []
    rows = np.array(pool)
    dropped = np.zeros(len(pool), dtype=bool)
    for lo in range(0, len(pool), _DEDUPE_BLOCK):
        close = np.ones((min(_DEDUPE_BLOCK, len(pool) - lo), len(pool) - lo), dtype=bool)
        for atom in rows[lo:].T:
            close &= np.abs(atom[: close.shape[0], None] - atom) <= 1e-10
        for i, near in enumerate(close, lo):
            if dropped[i]:
                continue
            if len(kept) >= limit:
                return kept
            kept.append(pool[i])
            dropped[lo:] |= near
    return kept


def _instance_rows(args: tuple[ExperimentConfig, int, int, int]) -> list[ExcessRow]:
    cfg, instance_id, instance_seed, sampling_seed = args
    inst = gen_instance(cfg, instance_seed)
    robust, solver = _solve_robust(inst)
    q_ind = independent_joint(inst)
    det = _deterministic_decision(inst, q_ind)

    rng = np.random.default_rng(sampling_seed)
    pool: list[np.ndarray] = []
    for _ in range(cfg.num_extremal):
        cost = rng.uniform(-1.0, 1.0, inst.joint_size())
        pool.append(sample_extremal(inst, cost).q)
    pool.extend(solver.witnesses)
    # The solver's coalition set-up: the vertex path has built it already,
    # the LP path builds it here.
    evaluator = ExcessEvaluator(solver._coalitions)
    del solver  # its per-instance tables need not live through the excess pass
    pool = _dedupe_pool(pool)
    if not pool:
        pool = [q_ind.q]
    ext = np.array(pool)
    check_probability_rows(ext)

    lams = np.array([lam for lam in cfg.lambda_grid if lam != 0.0])
    # The contaminated joints (1 - lambda) q_ind + lambda e, for every
    # nonzero lambda and sample e at once: row i * len(ext) + j mixes sample
    # j at the i-th of them. At lambda = 0 every mixture is
    # (1 - 0) q_ind + 0 e = q_ind + 0 = q_ind, so q_ind is evaluated once.
    mixed = ((1.0 - lams)[:, None, None] * q_ind.q + lams[:, None, None] * ext).reshape(
        -1, ext.shape[1]
    )
    check_probability_rows(mixed)
    decisions = (robust, det)
    at_zero = np.broadcast_to(evaluator.excess(q_ind.q, decisions), (2, len(ext)))
    rest = iter(evaluator.excess(mixed, decisions).reshape(2, len(lams), len(ext)).swapaxes(0, 1))
    rows = []
    for lam in cfg.lambda_grid:
        values = at_zero if lam == 0.0 else next(rest)
        # A sample is degenerate when either decision's excess is undefined.
        degenerate = np.isnan(values).any(axis=0)
        if degenerate.all():
            raise SolverError(
                f"instance {instance_id}: every sample at lambda={lam} was degenerate"
            )
        rob_lam, det_lam = values[:, ~degenerate]
        rows.append(
            ExcessRow(
                instance_id=instance_id,
                lam=lam,
                rob_max=float(np.max(rob_lam)),
                rob_min=float(np.min(rob_lam)),
                rob_mean=float(np.mean(rob_lam)),
                det_max=float(np.max(det_lam)),
                det_min=float(np.min(det_lam)),
                det_mean=float(np.mean(det_lam)),
                degenerate_count=int(np.count_nonzero(degenerate)),
            )
        )
    return rows


def run_stress(
    cfg: ExperimentConfig, workers: int | None = None, csv_path=None
) -> ExcessStats:
    """Run the full experiment: per instance, solve both decisions, build
    the extremal pool (random-cost vertices plus worst-case ratio
    witnesses), and aggregate excess statistics per lambda.

    A sample is excluded (and counted) when either decision's realized grand
    profit is nonpositive under it. Results are reduced in (instance,
    lambda) order regardless of worker scheduling.

    `workers` bounds the worker processes (None runs serially); the pool
    never has more of them than there are instances, because it starts all
    of them at its first job."""
    workers = 1 if workers is None else min(check_int(workers, "workers", 1), cfg.num_instances)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.num_instances, np.uint32)
    jobs = [(cfg, i, int(seeds[2 * i]), int(seeds[2 * i + 1])) for i in range(cfg.num_instances)]
    if workers > 1:
        # Imported here: the pool pulls in multiprocessing, socket and
        # subprocess, some 1.9 MB of RSS that a serial run does not need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_instance = list(pool.map(_instance_rows, jobs))
    else:
        per_instance = [_instance_rows(job) for job in jobs]
    rows = [row for instance_rows in per_instance for row in instance_rows]
    rows.sort(key=lambda r: (r.instance_id, r.lam))
    stats = ExcessStats(tuple(rows))
    if csv_path is not None:
        write_csv(stats, csv_path)
    return stats


def write_csv(stats: ExcessStats, path) -> None:
    """One row per instance x lambda, 9 significant digits, header included."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER.split(","))
        for r in stats.rows:
            writer.writerow(
                [r.instance_id, f"{r.lam:.9g}"]
                + [
                    f"{v:.9g}"
                    for v in (
                        r.rob_max, r.rob_min, r.rob_mean,
                        r.det_max, r.det_min, r.det_mean,
                    )
                ]
                + [r.degenerate_count]
            )


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise InputError("experiment config must be an object")
    # The field-name messages below sort and join the keys.
    names = [key for key in data if not isinstance(key, str)]
    if names:
        raise InputError(f"experiment config field names must be strings, got {names[0]!r}")
    required = {"n", "block_sizes", "atoms_per_block", "seed"}
    missing = sorted(required - set(data))
    if missing:
        raise InputError(f"experiment config is missing fields: {', '.join(missing)}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise InputError(f"experiment config has unknown fields: {', '.join(unknown)}")
    try:
        return ExperimentConfig(**data)
    except TypeError as exc:
        raise InputError(f"experiment config invalid: {exc}") from exc
