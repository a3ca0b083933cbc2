"""Robust newsvendor game computations: worst-case payoff ratios v_max(y,S)
over the consistency polytope, the stability value sigma(y), robust core
decisions, the robust least core by a certified cutting-plane search, and
structural self-checks. Everything but the structural checks is a method of
one per-instance `RobustGameSolver`: `core_decision()` tests the robust core
and `least_core(y_tol)` runs the least-core search.

For a coalition meeting several blocks, v_max(y, S) maximizes the ratio of
the coalition's profit (over its order gamma and the joint q) to the grand
coalition's profit at order y. For a fixed gamma both are linear in q,

    num_k = (p-c) gamma - p (gamma - d_k(S))^+,   den_k = (p-c) y - p (y - d_k(N))^+,

and den @ q is at least the minimum grand profit, positive at an admissible
y. Dinkelbach's method (1967) solves max num@q / den@q over the consistency
polytope: from a ratio lam some consistent joint attains, solve the LP
F(lam) = max over the polytope of (num - lam den) @ q and move lam to the
ratio of its vertex, which exceeds lam whenever F(lam) > 0. It stops on a
certified F(lam) <= tol, when no consistent joint beats lam by more than
tol / min grand profit, and reports the ratio of that last vertex. The
optimal gamma lies among the distinct aggregate-demand support values, so
enumerating those values is exact. Candidate gammas are screened best-first
through an upper bound valid for every gamma, so that most of them are
never solved:

    v_q(gamma, S) <= (p-c)*gamma - p*min_q' E_q'(gamma - d(S))^+   for every q,

and its positive part divided by the minimum grand profit bounds the ratio
from above. For two blocks the minimum is exact and needs no LP: the
countermonotonic coupling of the block aggregates d_0(S) and d_1(S)
minimizes their sum in convex order (Tchen 1980), so it minimizes the
shortage at every gamma at once. For three or more blocks no such coupling
exists, and the screen uses Jensen's (gamma - E[d(S)])^+ instead
(E[d(S)] is the same under every consistent q). A candidate after the first
starts at lam = the incumbent ratio (or its joint's ratio under the
candidate, when higher), so one LP rules out a candidate that cannot win.
Coalitions inside one block shortcut to the known block value divided by
the minimum grand profit. That minimum needs no LP: it is the grand profit
under the comonotonic coupling of the block aggregates, one joint for every
y.

Every ratio LP is the polytope's own program with a new objective, so a
basis optimal for one remains feasible for the next and repeated solves cost
a handful of pivots each. Each coalition meeting several blocks keeps one
start record (`_coalition_data`): the joint its next LP starts from, with
the first lam that joint's ratio. Before its first solve, for two blocks
that is its countermonotonic vertex (the northwest-corner basis with block
0's value classes ascending and block 1's descending by the coalition's
aggregates). It maximizes the numerator, so it attains the ratio whenever
the denominator varies little across joints; in the paper's example 1 the
denominator does not vary at all, and every ratio is certified without a
pivot. For three or more blocks it is the polytope's crash basis with the
grand coalition's comonotonic joint. After each solve the record holds the
coalition's last attaining LP solution, where every later candidate's first
LP starts, each further step from the step before; since all of them share
one operator, a solution also lends its basis factorization, across gammas,
coalitions and orders y alike.

Every product of a K-vector with an LP solution, or with a starting vertex,
runs over that joint's support alone (`lp.support_dot`, and `_ratio`, which
takes the joint as its masses at its ascending support and the numerator
at those atoms alone): the basis columns of the solution or of the
countermonotonic start, the atoms of the comonotonic joint. A vertex has at
most n_rows nonzero atoms out of K (399 of 40 000 in example 1 at K = 200),
and OpenBLAS runs a product over more than 10 000 atoms on two threads (see
`lp`). The LP path's tables keep each witness's support beside it for the
slopes of sigma. The countermonotonic start is held as its support and
masses alone, never as a K-long joint; the first LP solution replaces it as
the coalition's joint. The LP path's K-long vectors are the demand row of
the coalition being solved (formed for each table, not kept), one
denominator per solver and order y (`_denominator`, shared with the vertex
path), and one objective per Dinkelbach step, num - lam den formed in place
in the numerator's own array with the out-of-place formula's bits
(`_atom_profits`); besides those, only the LP solutions that a table or a
start keeps. Passes over a K-long row that would make a K-long temporary
run in blocks of `newsvendor._BLOCK` floats.

Small polytopes skip the LPs. A linear-fractional program with a positive
denominator attains its maximum at a vertex (Charnes-Cooper 1962), so when
the polytope has a vertex table (`FrechetPolytope.vertices`, built when its
value classes have at most `distributions._VERTEX_CAP` = 32 768 candidate
column sets) v_max(y, S) is the largest over the vertices q of S's best
profit under q over the grand profit at y under q: no tolerance, no screen
and no starting vertex. With duplicate atoms the table holds only the
vertices on each class's representative atom, but every ratio depends on
the atoms only through their demands, so its maximum, ties and slopes are
the same. Above the cap the Dinkelbach LPs above are the only path.

Only the grand profit depends on y, so the vertex path runs in whole
arrays. Once per solver one call of `newsvendor.ProperCoalitions.best_orders`
on the vertex table gives, for every coalition S and vertex v, S's best
order under v and its profit best[S, v]: the critical-ratio quantile under
v, or for a coalition inside one block its pinned block quantile. That is
the routine the stress excess pass (`ExcessEvaluator.excess`) calls on its
mixed joints. A table, or the one row that `vmax` needs, is then best /
grand(y), with grand the grand profit at y under every vertex as the
excess pass computes it (`ProperCoalitions.grand_profits`), and one maximum
per row. Among the vertices that attain it exactly, ties go to the least
(order, vertex), so a witness depends only on y and S, not on earlier
solves, and the witness is the table's row itself. So every entry equals,
bit for bit, the excess pass's ratio of S under its witness at order y.

Beyond those warm starts the solver keeps no per-y history: only the last
table and, once computed, its sigma with the stability LP's dual weights,
which is what the least-core search reads back. Every joint that attains a
worst-case ratio is appended to the solver's `witnesses` list as its table
is built, so the stress experiment gets its adversarial joints without the
tables being kept.

sigma(y) is the stability LP's optimum on the table at y, solved in its
balanced-collection form from the singleton basis, which fits every table
(`coop.solve_stability_lp`), never from an earlier probe's basis, so sigma,
its multiples and its dual weights depend on y alone. Neither the
multiples nor the weights are unique in general; any optimal weights give
valid cuts below.

sigma(y) is convex: with the dual weights w fixed it is bounded below by
sum_S w_S v_S(y) - mu, and each v_S(y) by the ratio of its attaining joint,
which is convex in y (a positive constant over a positive concave grand
profit). Both bounds are tight at the probe, so their one-sided derivatives
give two cuts that support sigma there (Kelley 1960). The least-core search
brackets the minimum with these cuts, probes their crossing (snapped to a
grand-demand support value, where sigma may kink, when one is in the
bracket) and stops on a probe whose slopes straddle 0, on a bracket at most
y_tol wide, or once the best eps is within 1e-9 (relative) of the cuts'
lower bound, which the solver then holds as `least_core_lower`. A probe
that contradicts an earlier cut raises SolverError: sigma would not be
convex. On the vertex path each v_S is a maximum of finitely many such
pieces, and the cuts take the extreme one-sided slopes over every vertex
that attains it (Danskin 1967), so that a probe at a kink of v_S certifies.
Those vertices are read off best / grand(y) for all the weighted
coalitions at once, within a rounding bound that keeps every exact one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import lp
from .coop import build_deterministic_game, core_membership, solve_stability_lp
from .distributions import Instance, coalition_mask, get_polytope, independent_joint
from .errors import DomainError, GameInvalidError, InputError, SolverError
from .lp import LpSolution, sorted_distinct
from .newsvendor import (
    _BLOCK,
    ProperCoalitions,
    _check_order,
    _profit,
    comonotonic_coupling,
    coupled_profit,
    grand_action_interval,
    worst_case_order,
    worst_case_orders,
)

CORE_EPS_TOL = 1e-9

# Dinkelbach iterations stop once max_q (num - lam den) @ q is at most this;
# the ratio then lies within this / min grand profit of the optimum. They
# converge superlinearly (at most 4 LPs per gamma on the stress experiment's
# two seeds), so the step cap only guards against a loop.
_DINKELBACH_TOL = 1e-9
_DINKELBACH_MAX_STEPS = 100


def check_y_tol(y_tol: float | None) -> None:
    """Refuse a least-core order tolerance that is given and not finite and
    positive."""
    if y_tol is not None and not (np.isfinite(y_tol) and y_tol > 0):
        raise InputError(f"y_tol must be finite and positive, got {y_tol}")


@dataclass(frozen=True, eq=False)
class Decision:
    """Grand-coalition order quantity plus payoff multiples summing to 1."""

    y: float
    z: np.ndarray

    def __post_init__(self):
        _check_order(self.y)
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        if not np.all(np.isfinite(z)):
            raise InputError(f"multiples must be finite, got {z}")
        total = float(np.sum(z))
        if abs(total - 1.0) > 1e-9:
            raise InputError(f"multiples sum to {total!r}, expected 1 within 1e-9")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True, eq=False)
class VmaxResult:
    """One worst-case ratio with its attaining order and joint vertex; on
    the LP path also the ascending atom ids the joint may be nonzero at."""

    value: float
    gamma: float
    q: np.ndarray
    support: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class VmaxTable:
    """Worst-case ratios for every nonempty proper coalition at a fixed
    grand-coalition order y, plus the minimum grand profit at y. Entry i of
    `ratios`, `gammas`, `joints` and (on the LP path, else None) `supports`
    belongs to coalition mask i + 1: its ratio, its attaining order, its
    attaining joint and the ascending atom ids that joint may be nonzero
    at."""

    y: float
    ratios: np.ndarray
    gammas: np.ndarray
    joints: Sequence[np.ndarray]
    min_grand_profit: float
    supports: Sequence[np.ndarray] | None = None

    def value(self, s) -> float:
        mask = coalition_mask(s)
        if not 0 < mask <= self.ratios.size:
            raise KeyError(mask)
        return float(self.ratios[mask - 1])

    @property
    def values(self) -> dict[int, float]:
        return dict(enumerate(self.ratios.tolist(), start=1))


@dataclass(frozen=True, eq=False)
class _Numerators:
    """The vertex path's per-instance data, row i for coalition mask i + 1
    and column v for vertex v: `orders[i, v]` and `profits[i, v]`, the
    coalition's best order under the vertex and its expected profit there
    (`ProperCoalitions.best_orders`, the excess pass's kernel), and
    `bound[i] = (2p - c) max_v orders[i, v]`, which bounds (p-c) gamma + p
    E_v(gamma - d_S)^+ at every order gamma and vertex v of the coalition
    (`_tie_mask`)."""

    orders: np.ndarray
    profits: np.ndarray
    bound: np.ndarray


class RobustGameSolver:
    """Worst-case ratio machinery for one instance, and the one entry point
    to its robust core (`core_decision`) and least core (`least_core`).

    Holds warm-start ratio-LP solutions (bases and their factorizations), or
    on the vertex path the coalition x vertex best profits, so it is cheap to
    evaluate tables at many order quantities. Of the tables
    it keeps only the last one and its sigma; `witnesses` lists, in build
    order and once per array, the joints that attained the ratios of every
    table built. After `least_core`, `least_core_lower` holds its certified
    lower bound on min sigma. Not safe to share across threads.
    """

    def __init__(self, inst: Instance):
        self.inst = inst
        self.poly = get_polytope(inst)
        self.p = inst.price
        self.c = inst.cost
        self.n = inst.n_retailers
        self._block_masks = inst.block_masks
        self.d_grand = self.poly.coalition_demands(inst.grand_mask)
        self.grand_wc = worst_case_order(inst, inst.grand_mask)
        self._vertex_rows: list[np.ndarray] | None = None
        self._numerators: _Numerators | None = None
        self._den: tuple[float, np.ndarray] | None = None
        self._vertex_grand: tuple[float, np.ndarray] | None = None
        self._coalition_cache: dict[int, tuple] = {}
        self._single_block_value: dict[int, tuple[float, float]] = {}
        self._last_table: VmaxTable | None = None
        self._last_sigma: tuple[float, np.ndarray, np.ndarray] | None = None
        self.least_core_lower: float | None = None
        self.witnesses: list[np.ndarray] = []
        self._witness_ids: set[int] = set()

    # -- denominators ----------------------------------------------------

    @cached_property
    def _grand_coupling(self) -> tuple:
        """The comonotonic coupling of the grand coalition's block
        aggregates: the consistent joint of least grand profit at every y."""
        return comonotonic_coupling(self.inst, self.inst.grand_mask)

    def min_grand_profit(self, y: float) -> tuple[float, np.ndarray]:
        """min over consistent q of the grand profit at order y, with the
        attaining joint (the same comonotonic one at every y)."""
        return coupled_profit(self.inst, self._grand_coupling, y), self._grand_coupling[2]

    @cached_property
    def _grand_support(self) -> np.ndarray:
        """The ascending atom ids at which the comonotonic joint of
        `min_grand_profit` is nonzero."""
        return np.flatnonzero(self._grand_coupling[2])

    # -- per-coalition data ------------------------------------------------

    def _coalition_data(
        self, mask: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
        """(d_s, gammas, shortage, start) of a coalition meeting several
        blocks, for its ratio LPs: its demand at every joint atom, its
        candidate orders, a lower bound on E_q(gamma - d_S)^+ over the
        consistent q at each of them, and the joint its next LPs start from
        as (start, support, mass): an LpSolution or a basis, the ascending
        atoms the joint may be nonzero at, and its masses there. No K-long
        joint is built for a start.

        The coalition's record (`_coalition_cache`) keeps gammas, shortage
        and start, but not the K-long d_s: that is formed anew on every
        call, so a coalition's demand row (320 KB at example 1, K=200)
        lives only while its own ratio LPs run.

        Before the first solve, for R = 2 the start is the countermonotonic
        vertex (its basis in walk order), which attains the bound, then
        exact: the countermonotonic coupling of the two block aggregates
        minimizes their sum in convex order (Tchen 1980). It is the
        northwest-corner walk with block 0's value classes ascending and
        block 1's descending by those aggregates. For R >= 3 the bound is
        Jensen's, (gamma - E d_S)^+, and the start is the polytope's crash
        basis with the comonotonic joint of `min_grand_profit`. After a
        solve, `vmax_entry` puts the solution that attained the ratio in
        its place."""
        d_s = self.poly.coalition_demands(mask)
        hit = self._coalition_cache.get(mask)
        if hit is not None:
            return (d_s, *hit)
        gammas = _candidate_orders(d_s)
        values = self.poly.coalition_block_values(mask)
        if self.inst.n_blocks == 2:
            basis, mass = self.poly.northwest_vertex(
                [np.argsort(values[0], kind="stable"), np.argsort(-values[1], kind="stable")]
            )
            ids = np.array(basis)
            shortage = _expected_shortage(gammas, d_s[ids], mass)
            order = np.argsort(ids)
            start = (basis, ids[order], mass[order])
        else:
            mean = sum(float(self.poly.class_probs[r] @ v) for r, v in enumerate(values))
            shortage = np.maximum(gammas - mean, 0.0)
            support = self._grand_support
            start = (self.poly.crash_basis, support, self._grand_coupling[2][support])
        self._coalition_cache[mask] = (gammas, shortage, start)
        return d_s, gammas, shortage, start

    def _blocks_met(self, mask: int) -> list[int]:
        return [r for r, bm in enumerate(self._block_masks) if mask & bm]

    def _block_value(self, mask: int) -> tuple[float, float]:
        """(optimal order, optimal value) of a coalition under its known
        distribution; valid when the coalition meets a single block."""
        if not self._single_block_value:
            # Every single-block coalition's, in one batch.
            single = [m for m in range(1, self.inst.grand_mask) if len(self._blocks_met(m)) == 1]
            y, value = worst_case_orders(self.inst, single)
            self._single_block_value = dict(zip(single, zip(y.tolist(), value.tolist())))
        return self._single_block_value[mask]

    # -- v_max -------------------------------------------------------------

    def _dinkelbach(
        self, gamma: float, d_s: np.ndarray, den: np.ndarray, lam: float,
        start: LpSolution | tuple[int, ...], mask: int,
    ) -> tuple[LpSolution, float]:
        """Raise lam, a ratio num@q / den@q some consistent q attains, with
        num the coalition's profit at order gamma against its demands d_s,
        until F(lam) = max over consistent q of (num - lam den) @ q is at
        most _DINKELBACH_TOL, solving from `start` (an LpSolution or a
        basis); returns that last LP solution and lam.

        Each step's objective is num, formed in the array `_atom_profits`
        returns, less lam den in place, block by block: the bits of the
        out-of-place num - lam * den, with no K-long num or lam den beside
        it. Each ratio reads num on the vertex's support alone."""
        for _ in range(_DINKELBACH_MAX_STEPS):
            objective = _atom_profits(self.inst, gamma, d_s)
            for i in range(0, objective.size, _BLOCK):
                objective[i : i + _BLOCK] -= lam * den[i : i + _BLOCK]
            # Called through the module: bench/tracing.py traces the ratio
            # LPs by rebinding nvgames.lp.solve_lp.
            sol = lp.solve_lp(self.poly.lp(objective), start)
            del objective  # freed before the next step forms its own
            if sol.status != "optimal":
                raise SolverError(
                    f"ratio LP for coalition {mask:#x} at gamma={gamma} reported {sol.status!r}"
                )
            if sol.objective_value <= _DINKELBACH_TOL:
                return sol, lam
            support = sol.support
            num = _atom_profits(self.inst, gamma, d_s[support])
            ratio = _ratio(num, den, support, sol.x[support])
            if not ratio > lam:
                raise SolverError(
                    f"Dinkelbach step for coalition {mask:#x} at gamma={gamma} left the "
                    f"ratio at {lam!r} with F = {sol.objective_value:.3e}"
                )
            lam, start = ratio, sol
        raise SolverError(
            f"ratio for coalition {mask:#x} at gamma={gamma} not certified "
            f"after {_DINKELBACH_MAX_STEPS} Dinkelbach steps"
        )

    @cached_property
    def _coalitions(self) -> ProperCoalitions:
        """The coalition set-up of the vertex path's best profits and grand
        profits, built on first use: the LP path forms its demand rows only
        when the stress loop's excess pass takes it
        (`stress.ExcessEvaluator`)."""
        return ProperCoalitions(self.inst)

    def _vertex_numerators(self) -> _Numerators:
        """The vertex path's numerators of every nonempty proper coalition
        (see `_Numerators`), built once per solver from one
        `ProperCoalitions.best_orders` call on the vertex table."""
        if self._numerators is None:
            orders, profits = self._coalitions.best_orders(self.poly.vertices())
            bound = (self.p - self.c + self.p) * np.max(orders, axis=0)
            self._numerators = _Numerators(orders.T, profits.T, bound)
        return self._numerators

    def _denominator(self, y: float) -> np.ndarray:
        """The grand profit at order y at every joint atom, the ratios'
        denominator, formed in one array and kept for the last y."""
        if self._den is None or self._den[0] != y:
            self._den = (y, _atom_profits(self.inst, y, self.d_grand))
        return self._den[1]

    def _grand_at(self, y: float) -> np.ndarray:
        """The grand profit at order y under every vertex, as the excess
        pass computes it (`ProperCoalitions.grand_profits`), kept for the
        last y."""
        if self._vertex_grand is None or self._vertex_grand[0] != y:
            self._vertex_grand = (y, self._coalitions.grand_profits(y, self.poly.vertices()))
        return self._vertex_grand[1]

    def _vertex_entries(
        self, y: float, masks: slice
    ) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """(ratios, gammas, joints) of the coalitions in `masks` (a slice of
        masks - 1) on the vertex path: per coalition the largest of its
        ratios profits[v] / grand[v] over the vertices v, its witness the
        least (orders[v], v) among the vertices that attain it exactly, so
        an entry depends only on y and S. Each ratio is the excess pass's
        ratio under that vertex, bit for bit."""
        data = self._vertex_numerators()
        if self._vertex_rows is None:
            self._vertex_rows = list(self.poly.vertices())  # one array per vertex, for `witnesses`
        ratios = data.profits[masks] / self._grand_at(y)
        orders = data.orders[masks]
        tied = ratios == np.max(ratios, axis=1)[:, None]
        first = np.min(np.where(tied, orders, np.inf), axis=1)
        v = np.argmax(tied & (orders == first[:, None]), axis=1)
        values = ratios[np.arange(v.size), v]
        return values, first, [self._vertex_rows[k] for k in v.tolist()]

    def _tie_mask(self, used: np.ndarray) -> np.ndarray:
        """Which vertices tie the last table's entries of the coalitions
        `used` (mask - 1), one row per coalition: those whose ratio
        profits[v] / grand[v] is within the ratios' rounding bound of the
        largest, so that every vertex that attains an entry exactly is
        tied.

        The bound, to first order in the unit roundoff u with gamma_m = m u
        / (1 - m u) (Higham 2002, ch. 3): the kernel computes a profit as
        (p-c) gamma - p (s @ q) with s_k = (gamma - d_k)^+ over the K atoms
        and q a vertex. Each s_k rounds once and the K-term dot of
        nonnegative products adds gamma_K, so s @ q is within gamma_(K+1)
        of E = E_q(gamma - d)^+; p times it, (p-c) gamma and the
        subtraction round once each, so the profit is within gamma_(K+3) A
        of its exact value, A = (p-c) gamma + p E. Demands are nonnegative,
        so E <= gamma and A <= `bound`; likewise the grand profit is within
        gamma_(K+3) B with B = (2p - c) y. The division adds u |ratio| <=
        u A / grand, so each ratio is within gamma_(K+4) (bound + |ratio|
        B) / grand of its exact value. A vertex that attains the exact
        maximum has a computed ratio at least the largest computed ratio
        less its own and the largest's error."""
        data = self._vertex_numerators()
        y = self._last_table.y
        grand = self._grand_at(y)
        ratios = data.profits[used] / grand
        k = self.d_grand.size + 4
        u = np.finfo(float).eps / 2
        err = k * u / (1 - k * u) * (
            data.bound[used, None] + np.abs(ratios) * (self.p - self.c + self.p) * y
        ) / grand
        top = np.argmax(ratios, axis=1)[:, None]
        floor = np.take_along_axis(ratios, top, 1) - np.take_along_axis(err, top, 1)
        return ratios >= floor - err

    def vmax_entry(self, y: float, mask: int, vmin: float, q_min: np.ndarray) -> VmaxResult:
        """v_max(y, S) of coalition `mask` on a polytope without a vertex
        table: the known block value over vmin for a coalition inside one
        block, else the screened Dinkelbach ratio LPs. `q_min` is the
        comonotonic joint of `min_grand_profit`.

        A spanning coalition's K-long demand row is formed for the call
        (`_coalition_data`) and dropped with it. Its record keeps the
        candidate orders, the shortage bounds and the start, which after
        the call is the LP solution that attained the ratio, with its
        support and masses there: that solution's x is the entry's joint."""
        if len(self._blocks_met(mask)) == 1:
            y_s, vbar = self._block_value(mask)
            return VmaxResult(vbar / vmin, y_s, q_min, self._grand_support)

        d_s, gammas, shortage, (start, support, mass) = self._coalition_data(mask)
        ubs = np.maximum(_profit(self.inst, gammas, shortage), 0.0) / vmin
        order = np.lexsort((gammas, -ubs))
        den = self._denominator(y)
        best = best_gamma = None
        for idx in order:
            if best is not None and ubs[idx] <= best:
                break  # remaining candidates are bounded below the incumbent
            gamma = float(gammas[idx])
            lam = _ratio(_atom_profits(self.inst, gamma, d_s[support]), den, support, mass)
            if best is not None:
                lam = max(lam, best)
            sol, lam = self._dinkelbach(gamma, d_s, den, lam, start, mask)
            if best is None or lam > best:
                # F(lam) <= tol, so this vertex is within tol / vmin of the
                # optimum; its own ratio is the value reported.
                support, mass = sol.support, sol.x[sol.support]
                best = _ratio(_atom_profits(self.inst, gamma, d_s[support]), den, support, mass)
                best_gamma, start = gamma, sol
        # The first candidate is always solved, so `start` is an LpSolution.
        self._coalition_cache[mask] = (gammas, shortage, (start, support, mass))
        return VmaxResult(best, best_gamma, start.x, support)

    def _admissible_min_profit(self, y: float) -> tuple[float, np.ndarray]:
        """min_grand_profit(y), refusing orders at which it is not positive."""
        if not np.isfinite(y):
            raise InputError(f"order quantity must be finite, got {y}")
        vmin, q_min = self.min_grand_profit(y)
        _check_admissible(vmin, y)
        return vmin, q_min

    def vmax(self, y: float, s) -> VmaxResult:
        """Worst-case ratio of coalition `s`'s best profit to the grand
        coalition's profit at order y, over all consistent joints."""
        mask = coalition_mask(s, self.n)
        if mask == 0 or mask == self.inst.grand_mask:
            raise InputError("v_max is defined for nonempty proper coalitions")
        vmin, q_min = self._admissible_min_profit(y)
        if self.poly.vertices() is None:
            return self.vmax_entry(y, mask, vmin, q_min)
        values, gammas, joints = self._vertex_entries(y, slice(mask - 1, mask))
        return VmaxResult(float(values[0]), float(gammas[0]), joints[0])

    def table(self, y: float) -> VmaxTable:
        """Worst-case ratios of every nonempty proper coalition at order y.
        Records the attaining joints in `witnesses`."""
        if self._last_table is not None and self._last_table.y == y:
            return self._last_table
        vmin, q_min = self._admissible_min_profit(y)
        if self.poly.vertices() is None or self.n == 1:  # one player has no proper coalition
            masks = range(1, self.inst.grand_mask)
            found = [self.vmax_entry(y, mask, vmin, q_min) for mask in masks]
            values = np.array([e.value for e in found])
            gammas = np.array([e.gamma for e in found])
            joints = [e.q for e in found]
            supports = [e.support for e in found]
        else:
            values, gammas, joints = self._vertex_entries(y, slice(0, self.inst.grand_mask - 1))
            supports = None
        for q in joints:
            if id(q) not in self._witness_ids:
                self._witness_ids.add(id(q))
                self.witnesses.append(q)
        self._last_table = VmaxTable(y, values, gammas, joints, vmin, supports)
        self._last_sigma = None
        return self._last_table

    # -- stability ---------------------------------------------------------

    def sigma(self, y: float) -> tuple[float, np.ndarray]:
        """Least relaxation eps such that some efficient multiple vector
        covers every worst-case ratio at order y, with those multiples;
        eps <= 0 certifies a stable decision."""
        table = self.table(y)
        if self._last_sigma is None:
            x, eps, w = solve_stability_lp(self.n, table.ratios, 1.0)
            self._last_sigma = (eps, x, w)
        return self._last_sigma[:2]

    def core_decision(self) -> Decision | None:
        """A stable decision if one exists, else None. Only the worst-case
        optimal grand order can be stable, so stability is tested there."""
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

    def _sigma_slopes(self) -> tuple[float, float, float]:
        """One-sided slopes (g-, g+) of two cuts that support sigma at the
        last table's order y: sigma(t) >= sigma(y) + g (t - y) for every t
        and both g, with sigma'(y-) <= g- <= g+ <= sigma'(y+); and a bound
        on the rounding error of each computed slope.

        With the stability LP's weights w fixed, sum_S w_S v_S(t) - mu is a
        lower bound on sigma(t) that is tight at y, and with a gamma and a
        joint q that attain v_S(y) fixed, v_S(t) >= N_S / G_q(t), tight at
        y, where G_q(t) = (p-c) t - p E_q(t - d_N)^+ is concave and
        positive. Both minorants are convex, so their one-sided derivatives
        -v_S G_q'(y+-) / G_q(y), weighted by w, give the cuts. On the LP
        path q is the entry's witness, read on its support. On the vertex
        path v_S is the maximum of finitely many such pieces, one per
        vertex at S's best order there, so its one-sided derivatives are
        the extremes over the attaining pieces (Danskin 1967): per S the
        least left slope and the largest right slope over its tied
        vertices (`_tie_mask`, one call for all the used S). A tie that
        does not attain exactly, only within the ratios' rounding bound
        delta_S, still gives a cut valid up to w_S delta_S, some 1e-14
        relative, far below the least-core search's 1e-9.

        The error bound is the standard one for floating-point dot products
        (Higham 2002, ch. 3), to first order in the unit roundoff u, with
        gamma_m = m u / (1 - m u): per piece the probabilities P = q @
        [d_N < y] (or <=) and the shortage E = q @ (y - d_N)^+ are K-term
        sums of nonnegative products, G and the slope factor pc - p P add a
        few roundings, and the sum over the n used coalitions adds gamma_n;
        an extreme over exactly computed pieces errs by at most its worst
        piece. Each slope is then within
            gamma_(K+n+5) * sum_S max_q |s_q| (pc + p P_q) (1 + (pc y + p E_q) / G_q)
        of its exact value over the same pieces, with s_q = w_S v_S / G_q,
        the max over S's pieces, and P_q taken at d_N <= y, the larger of
        the two."""
        table = self._last_table
        w = self._last_sigma[2]
        used = np.flatnonzero(w > 0.0)
        y, d, p, pc = table.y, self.d_grand, self.p, self.p - self.c
        verts = self.poly.vertices()
        tied = None if verts is None or not used.size else self._tie_mask(used)
        lo, hi, bound = np.zeros(used.size), np.zeros(used.size), np.zeros(used.size)
        for j, i in enumerate(used):
            # w and the table's arrays are both in mask order, from mask 1.
            if tied is None:
                s = table.supports[i]
                q, d_q = table.joints[i][s][None, :], d[s]
            else:
                q, d_q = verts[tied[j]], d
            shortage = q @ np.maximum(y - d_q, 0.0)
            grand = _profit(self.inst, y, shortage)
            p_hi = q @ (d_q <= y)
            scale = w[i] * table.ratios[i] / grand
            lo[j] = np.max(scale * (pc - p * (q @ (d_q < y))))
            hi[j] = np.min(scale * (pc - p * p_hi))
            bound[j] = np.max(
                np.abs(scale) * (pc + p * p_hi) * (1.0 + (pc * y + p * shortage) / grand)
            )
        m = d.size + used.size + 5
        u = np.finfo(float).eps / 2
        return -float(np.sum(lo)), -float(np.sum(hi)), m * u / (1 - m * u) * float(np.sum(bound))

    def least_core(self, y_tol: float | None = None) -> tuple[Decision, float]:
        """Minimize the convex sigma(y) over the admissible orders by a
        safeguarded cutting-plane search; returns the best decision probed
        and its eps, and leaves a certified lower bound on min sigma in
        `least_core_lower`.

        Every probe is a sigma evaluation plus the two cuts of
        `_sigma_slopes`. The first probe is the worst-case order. Until the
        bracket has a cut at each end, the next probe bisects it on the side
        the slopes point to (an inadmissible probe shrinks it too); then it
        is the crossing of the two end cuts, kept within the inner 90% of
        the bracket. A grand-demand support value inside the bracket, where
        sigma may have a kink, replaces that point when one exists (the
        nearest), so a kink optimum is probed exactly. The search stops
        when a probe's slopes satisfy g- <= 0 <= g+ within their rounding
        error bound (an exact minimum),
        when the bracket is at most y_tol wide (default 1e-4 of the
        admissible interval), or when the best eps exceeds the cuts' lower
        bound by at most 1e-9 * max(1, |eps|). A probe below an earlier cut,
        or a cut above an earlier probe, by more than that tolerance means
        sigma is not convex and raises SolverError.
        """
        check_y_tol(y_tol)
        y_lo, y_hi = grand_action_interval(self.inst, self.grand_wc, self._grand_coupling)
        if y_tol is None:
            y_tol = 1e-4 * (y_hi - y_lo)
        support = sorted_distinct(self.d_grand)

        probes: list[tuple[float, float, float, float]] = []  # (y, eps, g-, g+)
        a, b = y_lo, y_hi
        cut_a = cut_b = None  # (y, eps, slope) of the cut at each bracket end
        best_y, best_eps, best_x = None, np.inf, None
        lower = -np.inf
        y = y_wc = self.grand_wc.y_star
        while True:
            try:
                f, x = self.sigma(y)
            except DomainError:
                # The admissible orders form an interval around y_wc.
                if y < y_wc:
                    a = y
                else:
                    b = y
            else:
                g_lo, g_hi, err = self._sigma_slopes()
                if f < best_eps:
                    best_y, best_eps, best_x = y, f, x
                tol = 1e-9 * max(1.0, abs(best_eps))
                for y_j, f_j, lo_j, hi_j in probes:
                    if f < f_j + max(lo_j * (y - y_j), hi_j * (y - y_j)) - tol or (
                        f_j < f + max(g_lo * (y_j - y), g_hi * (y_j - y)) - tol
                    ):
                        raise SolverError(
                            f"sigma is not convex: the probes at y={y_j!r} and y={y!r} "
                            "contradict each other's cuts"
                        )
                probes.append((y, f, g_lo, g_hi))
                if g_lo <= err and -err <= g_hi:
                    # Exact slopes straddle 0 up to their rounding error.
                    lower = min(f, best_eps)
                    break
                if g_hi < 0.0:
                    a, cut_a = y, (y, f, g_hi)
                else:
                    b, cut_b = y, (y, f, g_lo)

            if cut_a is not None and cut_b is not None:
                (ya, fa, sa), (yb, fb, sb) = cut_a, cut_b
                y_next = (fb - fa + sa * ya - sb * yb) / (sa - sb)
                lower = min(fa + sa * (y_next - ya), best_eps)
                y_next = min(max(y_next, a + 0.05 * (b - a)), b - 0.05 * (b - a))
            else:
                if cut_a is not None:
                    lower = min(cut_a[1] + cut_a[2] * (b - cut_a[0]), best_eps)
                elif cut_b is not None:
                    lower = min(cut_b[1] + cut_b[2] * (a - cut_b[0]), best_eps)
                y_next = 0.5 * (a + b)
            if b - a <= y_tol or best_eps - lower <= 1e-9 * max(1.0, abs(best_eps)):
                break
            inside = support[(support > a) & (support < b)]
            if inside.size:
                y_next = inside[np.argmin(np.abs(inside - y_next))]
            y = float(y_next)
            if not a < y < b:
                break  # the bracket is down to adjacent floats
        if best_x is None:
            raise SolverError("least-core search never found an admissible order")
        self.least_core_lower = float(lower)
        return Decision(best_y, best_x), best_eps


def _candidate_orders(d_s: np.ndarray) -> np.ndarray:
    """The distinct values of a coalition's demand row `d_s`, ascending,
    less those within 1e-12 of the one before: the orders the ratio LPs
    have to try. The keep mask compares the differences of neighbours in
    the sorted copy over blocks of `_BLOCK` entries, the subtractions of
    `np.diff`, so no K-long difference is built."""
    ordered = np.sort(d_s)
    keep = np.ones(ordered.shape, dtype=bool)
    for i in range(1, ordered.size, _BLOCK):
        j = min(i + _BLOCK, ordered.size)
        np.greater(ordered[i:j] - ordered[i - 1 : j - 1], 1e-12, out=keep[i:j])
    return ordered[keep]


def _ratio(num: np.ndarray, den: np.ndarray, support: np.ndarray, mass: np.ndarray) -> float:
    """num @ q / den @ q for the joint q that is `mass` at the ascending atom
    ids `support` and zero elsewhere, given num at those atoms alone (as
    `_atom_profits` forms it from their demands) and den at every atom: the
    products run over those entries alone, in that order, as
    `lp.support_dot` runs them."""
    return float(num @ mass) / float(den[support] @ mass)


def _atom_profits(inst: Instance, y: float, demands: np.ndarray) -> np.ndarray:
    """The profit at order y against every atom's demand, `_profit` of the
    shortages (y - demands)^+, formed in one new array: the same operations
    in the same order as ``_profit(inst, y, np.maximum(y - demands, 0.0))``,
    so the same bits."""
    out = y - demands
    np.maximum(out, 0.0, out=out)
    return _profit(inst, y, out, out=out)


def _expected_shortage(gammas: np.ndarray, values: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """E(gamma - X)^+ at every gamma, for X taking `values` with
    probabilities `mass`: sum over values below gamma of mass * (gamma -
    value), by cumulative sums over the sorted values."""
    order = np.argsort(values, kind="stable")
    values, mass = values[order], mass[order]
    below = np.searchsorted(values, gammas, side="left")
    prob = np.r_[0.0, np.cumsum(mass)][below]
    first = np.r_[0.0, np.cumsum(mass * values)][below]
    return gammas * prob - first


def _check_admissible(vmin: float, y: float) -> None:
    """Raise DomainError unless the minimum grand profit at order y is
    positive."""
    if vmin <= 0.0:
        raise DomainError(
            f"grand-coalition profit can drop to {vmin} at order {y}; "
            "the order lies outside the admissible interval"
        )


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------


def imputation_exists(inst: Instance) -> tuple[bool, np.ndarray]:
    """Whether the sum of the singleton worst-case ratios at the worst-case
    optimal order is at most 1; the returned multiples (ratio plus an equal
    share of the slack) are individually rational whenever it is. Needs no
    polytope: both the minimum grand profit and a single player's best
    profit have closed forms."""
    n = inst.n_retailers
    y_wc, value = worst_case_orders(inst, [inst.grand_mask] + [1 << i for i in range(n)])
    y = float(y_wc[0])
    vmin = coupled_profit(inst, comonotonic_coupling(inst, inst.grand_mask), y)
    _check_admissible(vmin, y)
    singles = value[1:] / vmin
    total = float(np.sum(singles))
    ok = total <= 1.0 + 1e-9
    z = singles + (1.0 - total) / n
    return ok, z


def verify_rcore2(inst: Instance, d: Decision, tol: float = 1e-7) -> bool:
    """Structural check of a claimed stable decision: the order must be the
    worst-case optimal one, and the scaled multiples restricted to each
    block must be a core allocation of that block's deterministic game,
    both within `tol`, which must be finite and nonnegative."""
    if not (np.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and nonnegative, got {tol}")
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
