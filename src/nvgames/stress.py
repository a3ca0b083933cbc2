"""Contamination stress experiments: random instances, robust vs
independence-based decisions, and excess values under mixtures of the
independent joint with adversarial extremal vertices.

The excess of a decision (y, z) under a realized joint q is the largest
positive shortfall, over nonempty proper coalitions S, of z(S) against the
ratio of S's achievable profit to the grand profit at y. Coalitions inside a
single block order their known-distribution quantile; coalitions spanning
blocks order optimally for the realized q.

Per instance the experiment builds a pool of extremal vertices: random-cost
vertices, then the worst-case ratio witnesses, which the robust solver
records in build order (each distinct array once) as it computes the tables
of its core and least-core search. It keeps the first 256 that lie farther
than 1e-10 in max norm from every vector kept before them, and
mixes each with the independent joint at every lambda. The mixtures of one
lambda are evaluated as one matrix: samples under which either decision's
grand profit is nonpositive are screened out and counted as degenerate, the
coalition profits of the rest are computed once (they do not depend on the
decision), and each decision's excesses come from one stacked pass over
them. Every value equals the one-joint formula bit for bit.

Everything is reproducible from the config seed: instance generation,
extremal sampling, and the (instance, lambda) aggregation order.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .coop import build_deterministic_game, least_core
from .distributions import (
    DiscreteMarginal,
    Instance,
    JointDistribution,
    check_probability_rows,
    get_polytope,
    independent_joint,
    sample_extremal,
)
from .errors import DomainError, GameInvalidError, InputError, SolverError
from .newsvendor import block_demand, optimal_order, quantile_order
from .robust_game import Decision, RobustGameSolver

WITNESS_POOL_CAP = 256
_DEFAULT_LAMBDAS = tuple(round(0.1 * i, 1) for i in range(11))

CSV_HEADER = (
    "instance_id,lambda,rob_max,rob_min,rob_mean,det_max,det_min,det_mean,degenerate_count"
)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Knobs for one stress run; all randomness derives from `seed`."""

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
        blocks = tuple(int(b) for b in self.block_sizes)
        object.__setattr__(self, "block_sizes", blocks)
        if sum(blocks) != self.n or any(b <= 0 for b in blocks):
            raise InputError(
                f"block sizes {blocks} must be positive and sum to n={self.n}"
            )
        atoms = self.atoms_per_block
        if isinstance(atoms, (int, np.integer)):
            atoms = tuple(int(atoms) for _ in blocks)
        else:
            atoms = tuple(int(a) for a in atoms)
        if len(atoms) != len(blocks) or any(a <= 0 for a in atoms):
            raise InputError(
                f"atoms_per_block {atoms} must give a positive count per block"
            )
        object.__setattr__(self, "atoms_per_block", atoms)
        if not (0 < self.cost < self.price):
            raise InputError(
                f"prices must satisfy 0 < cost < price, got {self.cost}, {self.price}"
            )
        if not (0 < self.support_lo <= self.support_hi):
            raise InputError(
                f"demand support [{self.support_lo}, {self.support_hi}] must be positive"
            )
        lam = tuple(float(v) for v in self.lambda_grid)
        if any(not (0.0 <= v <= 1.0) for v in lam):
            raise InputError(f"lambda grid {lam} must lie in [0, 1]")
        object.__setattr__(self, "lambda_grid", lam)
        if self.num_instances < 1 or self.num_extremal < 0:
            raise InputError("num_instances must be >= 1 and num_extremal >= 0")
        object.__setattr__(self, "seed", _check_seed(self.seed, "seed"))


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

    def rows_for_lambda(self, lam: float, tol: float = 1e-9) -> list[ExcessRow]:
        return [r for r in self.rows if abs(r.lam - lam) <= tol]


def _check_seed(seed, name: str) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"{name} must be a nonnegative integer, got {seed!r}")
    return int(seed)


def gen_instance(cfg: ExperimentConfig, instance_seed: int) -> Instance:
    """Random instance: per block, atoms uniform on the integer box
    [support_lo, support_hi]^size and probabilities as normalized uniform
    draws. Deterministic per seed."""
    rng = np.random.default_rng(_check_seed(instance_seed, "instance seed"))
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


def _deterministic_decision(inst: Instance) -> Decision:
    """Core allocation of the deterministic game under the independent
    joint, expressed as multiples of the grand value, with its optimal
    grand order."""
    q_ind = independent_joint(inst)
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


def solve_pair(
    inst: Instance, y_tol: float | None = None
) -> tuple[Decision, Decision]:
    """(robust decision, independence-based decision). The robust side is a
    stable decision when one exists, otherwise the least-core decision."""
    robust, _solver = _solve_robust(inst, y_tol)
    return robust, _deterministic_decision(inst)


def _solve_robust(
    inst: Instance, y_tol: float | None = None
) -> tuple[Decision, RobustGameSolver]:
    solver = RobustGameSolver(inst)
    decision = solver.core_decision()
    if decision is None:
        decision, _eps = solver.least_core(y_tol)
    return decision, solver


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row i, as one stacked matmul: numpy computes
    each row with the same BLAS dot as a 1-D `a[i] @ b[i]`, so the values
    are bit-identical to the per-row products (an einsum, an elementwise
    product summed, or a matrix-vector product can differ in the last bit)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


@dataclass(frozen=True, eq=False)
class JointStack:
    """Joints as the rows of `q` (read-only, rows x atoms) with `profits`
    (rows x coalitions): each nonempty proper coalition's profit at its
    best order under each row, in `ExcessEvaluator` coalition order.
    Neither depends on a decision, so one stack serves every decision."""

    evaluator: "ExcessEvaluator"
    q: np.ndarray
    profits: np.ndarray


class ExcessEvaluator:
    """Excess values of decisions under many joints on one instance.

    The per-coalition data that no joint changes is fixed once here: each
    coalition's demand per atom, the pinned quantile order of a coalition
    inside one block, and the demand sort order of a coalition spanning
    blocks. `stack` then evaluates all coalitions for a whole matrix of
    joints at once, and `excess` turns a stack into one excess per row for
    a decision. Every per-row dot product runs as the same BLAS dot as the
    scalar formula, so a stacked value equals the one-joint value bit for
    bit. The excess is undefined under a joint where the decision's grand
    profit is nonpositive; `excess` raises DomainError on such a row, so a
    caller with many joints screens them first with `grand_profit`.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.poly = get_polytope(inst)
        self.p, self.c = inst.price, inst.cost
        self.ratio = inst.ratio
        self.d_grand = self.poly.coalition_demands(inst.grand_mask)
        block_masks = inst.block_masks
        self._masks = []
        for mask in range(1, inst.grand_mask):
            d_s = self.poly.coalition_demands(mask)
            met = [r for r, bm in enumerate(block_masks) if mask & bm]
            if len(met) == 1:
                # Known marginal: the order is pinned to its quantile.
                y_s = quantile_order(block_demand(inst, met[0], mask), self.ratio)
                self._masks.append((mask, d_s, None, y_s))
            else:
                order = np.argsort(d_s, kind="stable")
                self._masks.append((mask, d_s, order, None))
        coalitions = np.array([m[0] for m in self._masks], dtype=np.int64)
        # _members[i] selects the coalitions that contain retailer i.
        self._members = [((coalitions >> i) & 1).astype(bool) for i in range(inst.n_retailers)]

    def stack(self, q: np.ndarray) -> JointStack:
        """Every coalition's best profit under every row of `q` (one joint,
        or a matrix of joints as rows).

        A coalition inside one block orders its known-marginal quantile. A
        coalition spanning blocks orders the smallest demand, in its sorted
        order, whose cumulative probability reaches the critical ratio less
        1e-12: the count of cumulative sums below that level."""
        qs = np.array(q, dtype=float, order="C", ndmin=2)
        if qs.ndim != 2 or qs.shape[1] != self.poly.n_atoms:
            raise InputError(
                f"joints have shape {np.shape(q)}, expected rows of {self.poly.n_atoms} atoms"
            )
        qs.setflags(write=False)
        p, c = self.p, self.c
        level = self.ratio - 1e-12
        profits = np.empty((qs.shape[0], len(self._masks)))
        for j, (_mask, d_s, order, y_fixed) in enumerate(self._masks):
            if y_fixed is None:
                below = np.count_nonzero(np.cumsum(qs[:, order], axis=1) < level, axis=1)
                y_s = d_s[order][np.minimum(below, d_s.size - 1)]
                short = np.maximum(y_s[:, None] - d_s, 0.0)
            else:
                y_s = y_fixed
                short = np.broadcast_to(np.maximum(y_s - d_s, 0.0), qs.shape)
            profits[:, j] = (p - c) * y_s - p * _row_dots(short, qs)
        profits.setflags(write=False)
        return JointStack(self, qs, profits)

    def grand_profit(self, q: np.ndarray, decision: Decision) -> np.ndarray:
        """The grand coalition's realized profit at order `decision.y` under
        each row of `q` (a matrix of joints as rows)."""
        shortfall = np.maximum(decision.y - self.d_grand, 0.0)
        return (self.p - self.c) * decision.y - self.p * _row_dots(
            np.broadcast_to(shortfall, q.shape), q
        )

    def excess(
        self, q: JointDistribution | np.ndarray | JointStack, decision: Decision
    ) -> float | np.ndarray:
        """Largest positive coalition dissatisfaction of `decision` under a
        joint `q`.

        One joint (a `JointDistribution` or a 1-D vector) gives a float. A
        matrix of joints as rows, or a `JointStack` of them, gives one
        excess per row. Raises DomainError when the grand profit is
        nonpositive under any of the joints: the excess is undefined there."""
        if isinstance(q, JointStack):
            if q.evaluator is not self:
                raise InputError("joint stack was built for another instance")
            stack, single = q, False
        else:
            qv = q.q if isinstance(q, JointDistribution) else q
            stack, single = self.stack(qv), np.ndim(qv) == 1
        den = self.grand_profit(stack.q, decision)
        bad = np.flatnonzero(den <= 0.0)
        if bad.size:
            raise DomainError(
                f"grand profit {den[bad[0]]} is nonpositive under the realized joint"
                f"{'' if single else f' in row {bad[0]}'}; excess is undefined"
            )
        with np.errstate(over="ignore"):  # a tiny positive grand profit gives inf, as in float math
            ratios = stack.profits / den[:, None]
        worst = np.max(ratios - self._zsum(decision.z), axis=1, initial=0.0)
        out = np.where(worst > 0.0, worst, 0.0)
        return float(out[0]) if single else out

    def _zsum(self, z: np.ndarray) -> np.ndarray:
        """z(S) for every coalition S, in coalition order, summed from the
        highest member down to the lowest: the order of the one-joint
        reference in the tests, so each z(S) is the same float."""
        zsum = np.zeros(len(self._masks))
        for i in reversed(range(len(self._members))):
            zsum[self._members[i]] += z[i]
        return zsum


def excess(inst: Instance, q: JointDistribution, decision: Decision) -> float:
    """Largest positive coalition dissatisfaction of `decision` when the
    joint distribution turns out to be `q`."""
    return ExcessEvaluator(inst).excess(q, decision)


# ---------------------------------------------------------------------------
# The experiment loop
# ---------------------------------------------------------------------------


def _dedupe_pool(pool: Sequence[np.ndarray], cap: int = WITNESS_POOL_CAP) -> list[np.ndarray]:
    """The first `cap` vectors of `pool` that lie farther than 1e-10 (max
    norm) from every vector kept before them, in pool order. The rule is
    not transitive (of a ~ b ~ c with a !~ c, the pool a, b, c keeps a and
    c), so it is applied one candidate at a time, against all kept rows at
    once."""
    kept: list[np.ndarray] = []
    if not pool:
        return kept
    rows = np.empty((min(cap, len(pool)), np.size(pool[0])))
    for q in pool:
        n = len(kept)
        if n >= cap:
            break
        if np.any(np.max(np.abs(rows[:n] - q), axis=1) <= 1e-10):
            continue
        rows[n] = q
        kept.append(q)
    return kept


def _instance_rows(args: tuple[ExperimentConfig, int, int, int, float | None]) -> list[ExcessRow]:
    cfg, instance_id, instance_seed, sampling_seed, y_tol = args
    inst = gen_instance(cfg, instance_seed)
    robust, solver = _solve_robust(inst, y_tol)
    det = _deterministic_decision(inst)
    q_ind = independent_joint(inst)

    rng = np.random.default_rng(sampling_seed)
    pool: list[np.ndarray] = []
    for _ in range(cfg.num_extremal):
        cost = rng.uniform(-1.0, 1.0, inst.joint_size())
        pool.append(sample_extremal(inst, cost).q)
    pool.extend(solver.witnesses)
    pool = _dedupe_pool(pool)
    if not pool:
        pool = [q_ind.q]
    ext = np.array(pool)
    check_probability_rows(ext)

    evaluator = ExcessEvaluator(inst)
    rows = []
    for lam in cfg.lambda_grid:
        # Elementwise the same mixture as `contaminate`, for all samples.
        mixed = (1.0 - lam) * q_ind.q + lam * ext
        check_probability_rows(mixed)
        # A sample is degenerate when either decision's grand profit is
        # nonpositive under it; the excess is undefined there.
        admissible = (evaluator.grand_profit(mixed, robust) > 0.0) & (
            evaluator.grand_profit(mixed, det) > 0.0
        )
        if not admissible.any():
            raise SolverError(
                f"instance {instance_id}: every sample at lambda={lam} was degenerate"
            )
        degenerate = int(np.count_nonzero(~admissible))
        stack = evaluator.stack(mixed[admissible])
        rob_vals = evaluator.excess(stack, robust)
        det_vals = evaluator.excess(stack, det)
        rows.append(
            ExcessRow(
                instance_id=instance_id,
                lam=lam,
                rob_max=float(np.max(rob_vals)),
                rob_min=float(np.min(rob_vals)),
                rob_mean=float(np.mean(rob_vals)),
                det_max=float(np.max(det_vals)),
                det_min=float(np.min(det_vals)),
                det_mean=float(np.mean(det_vals)),
                degenerate_count=degenerate,
            )
        )
    return rows


def run_stress(
    cfg: ExperimentConfig,
    workers: int | None = None,
    csv_path=None,
    y_tol: float | None = None,
) -> ExcessStats:
    """Run the full experiment: per instance, solve both decisions, build
    the extremal pool (random-cost vertices plus worst-case ratio
    witnesses), and aggregate excess statistics per lambda.

    A sample is excluded (and counted) when either decision's realized grand
    profit is nonpositive under it. Results are reduced in (instance,
    lambda) order regardless of worker scheduling."""
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.num_instances, np.uint32)
    jobs = [
        (cfg, i, int(seeds[2 * i]), int(seeds[2 * i + 1]), y_tol)
        for i in range(cfg.num_instances)
    ]
    if workers and workers > 1:
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
    required = {"n", "block_sizes", "atoms_per_block", "seed"}
    missing = sorted(required - set(data))
    if missing:
        raise InputError(f"experiment config is missing fields: {', '.join(missing)}")
    known = {
        "n", "block_sizes", "atoms_per_block", "support_lo", "support_hi",
        "price", "cost", "lambda_grid", "num_extremal", "num_instances", "seed",
    }
    unknown = sorted(set(data) - known)
    if unknown:
        raise InputError(f"experiment config has unknown fields: {', '.join(unknown)}")
    kwargs = dict(data)
    kwargs["block_sizes"] = tuple(data["block_sizes"])
    try:
        kwargs["atoms_per_block"] = tuple(data["atoms_per_block"])
    except TypeError:
        kwargs["atoms_per_block"] = data["atoms_per_block"]
    if "lambda_grid" in kwargs:
        kwargs["lambda_grid"] = tuple(kwargs["lambda_grid"])
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise InputError(f"experiment config invalid: {exc}") from exc
