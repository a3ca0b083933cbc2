"""Robust newsvendor game computations: worst-case payoff ratios v_max(y,S)
over the consistency polytope, the stability value sigma(y), robust core
decisions, the robust least core via one-dimensional convex search, and
structural self-checks.

For a coalition meeting several blocks, v_max(y, S) maximizes the ratio of
the coalition's profit (over its order gamma and the joint q) to the grand
coalition's profit at order y. The maximization over q for a fixed gamma is
a linear fractional program solved as a single LP after the standard
ratio-to-linear substitution (theta = 1/denominator, psi = q * theta); the
optimal gamma lies among the distinct aggregate-demand support values, so
enumerating those values is exact. Candidate gammas are screened best-first
through an exact upper bound so that most of them are never solved:

    v_q(gamma, S) <= (p-c)*gamma - p*(gamma - E[d(S)])^+   for every q

(Jensen on the shortage term; E[d(S)] is the same under every consistent q),
and dividing by the minimum grand profit bounds the ratio from above.
Coalitions inside one block shortcut to the known block value divided by the
minimum grand profit. That minimum needs no LP: it is the grand profit under
the comonotonic coupling of the block aggregates, one joint for every y.

A per-instance solver keeps warm ratio-LP bases: the consistency polytope
never changes, and a basis optimal for one (gamma, y) pair remains feasible
for the next, so repeated solves cost a handful of pivots each. It keeps each
coalition's last ratio-LP solution, which at an unchanged y also lends its
basis factorization to the next solve. The ratio system at y is the
polytope's incidence operator with one dense border row and column.

Beyond those warm starts the solver keeps no per-y history: only the last
table and, once computed, its sigma, which is what the least-core search
reads back. Every joint that attains a worst-case ratio is appended to the
solver's `witnesses` list as its table is built, so the stress experiment
gets its adversarial joints without the tables being kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .coop import build_deterministic_game, core_membership, solve_stability_lp
from .distributions import (
    DEFAULT_SUPPORT_CAP,
    Instance,
    coalition_mask,
    get_polytope,
    independent_joint,
)
from .errors import DomainError, GameInvalidError, InputError, SolverError
from .lp import LinearProgram, LpSolution
from .newsvendor import (
    comonotonic_coupling,
    coupled_profit,
    grand_action_interval,
    worst_case_order,
)

CORE_EPS_TOL = 1e-9
GOLDEN_MAX_ITERS = 200
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class Decision:
    """Grand-coalition order quantity plus payoff multiples summing to 1."""

    y: float
    z: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.y) and self.y >= 0):
            raise InputError(f"order quantity must be finite and nonnegative, got {self.y}")
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if not np.all(np.isfinite(z)):
            raise InputError(f"multiples must be finite, got {z}")
        total = float(np.sum(z))
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"multiples sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True, eq=False)
class VmaxResult:
    """One worst-case ratio with its attaining order and joint vertex."""

    value: float
    gamma: float
    q: np.ndarray


@dataclass(frozen=True, eq=False)
class VmaxTable:
    """Worst-case ratios for every nonempty proper coalition at a fixed
    grand-coalition order y, plus the minimum grand profit at y."""

    y: float
    entries: dict[int, VmaxResult]
    min_grand_profit: float

    def value(self, s) -> float:
        return self.entries[coalition_mask(s)].value

    @property
    def values(self) -> dict[int, float]:
        return {mask: e.value for mask, e in self.entries.items()}


class RobustGameSolver:
    """Worst-case ratio machinery for one instance.

    Holds warm-start ratio-LP solutions (bases and their factorizations), so
    it is cheap to evaluate tables at many order quantities. Of the tables
    it keeps only the last one and its sigma; `witnesses` lists, in build
    order and once per array, the joints that attained the ratios of every
    table built. Not safe to share across threads.
    """

    def __init__(self, inst: Instance, cap: int = DEFAULT_SUPPORT_CAP):
        self.inst = inst
        self.poly = get_polytope(inst, cap)
        self.p = inst.price
        self.c = inst.cost
        self.n = inst.n_retailers
        self.d_grand = self.poly.coalition_demands(inst.grand_mask)
        self.grand_wc = worst_case_order(inst, inst.grand_mask)
        self._grand_coupling: tuple | None = None
        self._cc_start: dict[int, LpSolution] = {}
        self._coalition_cache: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        self._single_block_value: dict[int, tuple[float, float]] = {}
        self._cc_lp = None
        self._cc_lp_y: float | None = None
        self._last_table: VmaxTable | None = None
        self._last_sigma: tuple[float, np.ndarray] | None = None
        self.witnesses: list[np.ndarray] = []
        self._witness_ids: set[int] = set()

    # -- denominators ----------------------------------------------------

    def min_grand_profit(self, y: float) -> tuple[float, np.ndarray]:
        """min over consistent q of the grand profit at order y, with the
        attaining joint (the same comonotonic one at every y)."""
        if self._grand_coupling is None:
            self._grand_coupling = comonotonic_coupling(self.inst, self.inst.grand_mask)
        return coupled_profit(self.inst, self._grand_coupling, y), self._grand_coupling[2]

    # -- per-coalition data ------------------------------------------------

    def _coalition_data(self, mask: int) -> tuple[np.ndarray, np.ndarray, float]:
        hit = self._coalition_cache.get(mask)
        if hit is not None:
            return hit
        d_s = self.poly.coalition_demands(mask)
        gammas = np.unique(d_s)
        if gammas.size > 1:
            keep = np.r_[True, np.diff(gammas) > 1e-12]
            gammas = gammas[keep]
        mean = sum(
            float(self.poly.class_probs[r] @ vals)
            for r, vals in enumerate(self.poly.coalition_block_values(mask))
        )
        data = (d_s, gammas, mean)
        self._coalition_cache[mask] = data
        return data

    def _blocks_met(self, mask: int) -> list[int]:
        return [r for r, bm in enumerate(self.inst.block_masks) if mask & bm]

    def _block_value(self, mask: int) -> tuple[float, float]:
        """(optimal order, optimal value) of a coalition under its known
        distribution; valid when the coalition meets a single block."""
        hit = self._single_block_value.get(mask)
        if hit is None:
            res = worst_case_order(self.inst, mask)
            hit = (res.y_star, res.value)
            self._single_block_value[mask] = hit
        return hit

    # -- the ratio LP ------------------------------------------------------

    def _cc_program(self, y: float):
        """The ratio system [[A, -rhs], [-p (y - d_N)^+, (p-c) y]] as the
        polytope's operator with a border; no dense copy is made."""
        if self._cc_lp is not None and self._cc_lp_y == y:
            return self._cc_lp
        poly = self.poly
        a = poly.matrix.bordered(
            row=-self.p * np.maximum(y - self.d_grand, 0.0),
            col=-poly.rhs,
            corner=(self.p - self.c) * y,
        )
        b = np.zeros(poly.n_rows + 1)
        b[-1] = 1.0
        self._cc_lp = LinearProgram("max", np.zeros(poly.n_atoms + 1), a_eq=a, b_eq=b)
        self._cc_lp_y = y
        return self._cc_lp

    def _solve_ratio(self, y: float, mask: int, gamma: float, d_s: np.ndarray) -> tuple[float, np.ndarray]:
        """max over consistent q of profit(gamma, S) / grand profit(y) via
        the ratio-to-linear LP; returns (value, attaining q)."""
        program = self._cc_program(y)
        k = self.poly.n_atoms
        obj = np.empty(k + 1)
        obj[:k] = -self.p * np.maximum(gamma - d_s, 0.0)
        obj[k] = (self.p - self.c) * gamma
        start = self._cc_start.get(mask) or (self.poly.crash_basis + (k,))
        # Called through the module: bench/tracing.py traces the ratio LPs
        # by rebinding nvgames.lp.solve_lp.
        sol = lp.solve_lp(program.with_objective(obj), start)
        if sol.status != "optimal":
            raise SolverError(
                f"ratio LP for coalition {mask:#x} at gamma={gamma} reported {sol.status!r}"
            )
        self._cc_start[mask] = sol
        theta = sol.x[k]
        if theta <= 1e-300:
            raise SolverError("ratio LP returned theta = 0, which is infeasible")
        return float(sol.objective_value), sol.x[:k] / theta

    # -- v_max -------------------------------------------------------------

    def vmax_entry(self, y: float, mask: int, vmin: float, q_min: np.ndarray) -> VmaxResult:
        if len(self._blocks_met(mask)) == 1:
            y_s, vbar = self._block_value(mask)
            return VmaxResult(vbar / vmin, y_s, q_min)

        d_s, gammas, mean = self._coalition_data(mask)
        pc = self.p - self.c
        ubs = np.maximum(pc * gammas - self.p * np.maximum(gammas - mean, 0.0), 0.0) / vmin
        order = np.lexsort((gammas, -ubs))
        best = -np.inf
        best_gamma = float(gammas[order[0]])
        best_q: np.ndarray | None = None
        for idx in order:
            if ubs[idx] <= best:
                break  # remaining candidates are bounded below the incumbent
            value, q = self._solve_ratio(y, mask, float(gammas[idx]), d_s)
            if value > best:
                best, best_gamma, best_q = value, float(gammas[idx]), q
        if best_q is None:
            raise SolverError(f"no ratio evaluated for coalition {mask:#x}")
        return VmaxResult(best, best_gamma, best_q)

    def _admissible_min_profit(self, y: float) -> tuple[float, np.ndarray]:
        """min_grand_profit(y), refusing orders at which it is not positive."""
        if not np.isfinite(y):
            raise InputError(f"order quantity must be finite, got {y}")
        vmin, q_min = self.min_grand_profit(y)
        if vmin <= 0.0:
            raise DomainError(
                f"grand-coalition profit can drop to {vmin} at order {y}; "
                "the order lies outside the admissible interval"
            )
        return vmin, q_min

    def vmax(self, y: float, s) -> VmaxResult:
        """Worst-case ratio of coalition `s`'s best profit to the grand
        coalition's profit at order y, over all consistent joints."""
        mask = coalition_mask(s, self.n)
        if mask == 0 or mask == self.inst.grand_mask:
            raise InputError("v_max is defined for nonempty proper coalitions")
        vmin, q_min = self._admissible_min_profit(y)
        return self.vmax_entry(y, mask, vmin, q_min)

    def table(self, y: float) -> VmaxTable:
        """Worst-case ratios of every nonempty proper coalition at order y.
        Records the attaining joints in `witnesses`."""
        if self._last_table is not None and self._last_table.y == y:
            return self._last_table
        vmin, q_min = self._admissible_min_profit(y)
        entries = {
            mask: self.vmax_entry(y, mask, vmin, q_min)
            for mask in range(1, self.inst.grand_mask)
        }
        for entry in entries.values():
            if id(entry.q) not in self._witness_ids:
                self._witness_ids.add(id(entry.q))
                self.witnesses.append(entry.q)
        self._last_table = VmaxTable(y, entries, vmin)
        self._last_sigma = None
        return self._last_table

    # -- stability ---------------------------------------------------------

    def sigma(self, y: float) -> tuple[float, np.ndarray]:
        """Least relaxation eps such that some efficient multiple vector
        covers every worst-case ratio at order y, with those multiples;
        eps <= 0 certifies a stable decision."""
        table = self.table(y)
        if self._last_sigma is None:
            x, eps = solve_stability_lp(self.n, table.values, 1.0)
            self._last_sigma = (eps, x)
        return self._last_sigma

    def core_decision(self) -> Decision | None:
        y = self.grand_wc.y_star
        vmin, _ = self.min_grand_profit(y)
        if vmin <= 0.0:
            # The worst-case profit peaks at this order, so a nonpositive
            # value here means no order is admissible at all.
            raise GameInvalidError(
                "no order quantity keeps the grand-coalition profit positive "
                "under every consistent joint distribution"
            )
        eps, x = self.sigma(y)
        if eps <= CORE_EPS_TOL:
            return Decision(y, x)
        return None

    def least_core(self, y_tol: float | None = None) -> tuple[Decision, float]:
        if y_tol is not None and not (np.isfinite(y_tol) and y_tol > 0):
            raise InputError(f"y_tol must be finite and positive, got {y_tol}")
        y_lo, y_hi = grand_action_interval(self.inst)
        if y_tol is None:
            y_tol = 1e-4 * (y_hi - y_lo)

        def probe(y: float) -> tuple[float, np.ndarray | None]:
            try:
                return self.sigma(y)
            except DomainError:
                return np.inf, None

        # The incumbent is the worst-case order, then each new probe; the
        # two initial interior probes are never candidates.
        best_y = self.grand_wc.y_star
        best_eps, best_x = probe(best_y)

        a, b = y_lo, y_hi
        y1 = b - _GOLDEN * (b - a)
        y2 = a + _GOLDEN * (b - a)
        f1, f2 = probe(y1)[0], probe(y2)[0]
        for _ in range(GOLDEN_MAX_ITERS):
            if b - a <= y_tol:
                break
            if f1 <= f2:
                b, y2, f2 = y2, y1, f1
                y1 = y_new = b - _GOLDEN * (b - a)
                f1, x_new = probe(y1)
                f_new = f1
            else:
                a, y1, f1 = y1, y2, f2
                y2 = y_new = a + _GOLDEN * (b - a)
                f2, x_new = probe(y2)
                f_new = f2
            if f_new < best_eps:
                best_y, best_eps, best_x = y_new, f_new, x_new
        if not np.isfinite(best_eps):
            raise SolverError("least-core search never found an admissible order")
        return Decision(best_y, best_x), best_eps


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------


def robust_core(inst: Instance) -> Decision | None:
    """A stable decision if one exists. Only the worst-case optimal grand
    order can be stable, so it suffices to test stability there."""
    return RobustGameSolver(inst).core_decision()


def robust_least_core(inst: Instance, y_tol: float | None = None) -> tuple[Decision, float]:
    """Minimize sigma(y) over admissible orders by golden-section search
    (sigma is convex in y). Returns the best decision and its eps."""
    return RobustGameSolver(inst).least_core(y_tol)


def imputation_exists(inst: Instance) -> tuple[bool, np.ndarray]:
    """Whether the sum of the singleton worst-case ratios at the worst-case
    optimal order is at most 1; the returned multiples (ratio plus an equal
    share of the slack) are individually rational whenever it is."""
    solver = RobustGameSolver(inst)
    vmin, _ = solver._admissible_min_profit(solver.grand_wc.y_star)
    n = inst.n_retailers
    singles = np.array(
        [solver._block_value(1 << i)[1] / vmin for i in range(n)]
    )
    total = float(np.sum(singles))
    ok = total <= 1.0 + 1e-9
    z = singles + (1.0 - total) / n
    return ok, z


def verify_rcore2(inst: Instance, d: Decision, tol: float = 1e-7) -> bool:
    """Structural check of a claimed stable decision: the order must be the
    worst-case optimal one, and the scaled multiples restricted to each
    block must be a core allocation of that block's deterministic game."""
    z = np.asarray(d.z, dtype=float)
    if z.shape != (inst.n_retailers,):
        raise InputError(
            f"decision has {z.size} multiples, instance has {inst.n_retailers} retailers"
        )
    wc = worst_case_order(inst, inst.grand_mask)
    if abs(d.y - wc.y_star) > tol:
        return False
    for r, block in enumerate(inst.partition):
        sub = Instance(
            price=inst.price,
            cost=inst.cost,
            partition=(tuple(range(len(block))),),
            marginals=(inst.marginals[r],),
        )
        game = build_deterministic_game(sub, independent_joint(sub))
        x_block = wc.value * z[list(block)]
        if not core_membership(game, x_block, tol):
            return False
    return True
