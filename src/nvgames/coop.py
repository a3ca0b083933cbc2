"""Deterministic cooperative-game solution concepts: characteristic
functions over all coalitions, core membership, the least core, and the
balancedness check for worst-case ratio tables.

Coalitions are bitmasks (bit i = player i); LP columns are always emitted
in increasing mask order so bases are reproducible. Every stability LP (the
least core here and each robust sigma probe) is solved in its dual form,
the balanced-collection program of Bondareva (1963) and Shapley (1967),
which has one row per player and one more. Its variables, one weight per
coalition and t, are all nonnegative, so the simplex solves it on the
matrix built here with no column added. It takes a full table, one value
per nonempty proper coalition, and starts from the singleton basis,
feasible for every such table (see `solve_stability_lp`), so it runs no
phase 1 and its answer depends on that table alone. It is solved on the
table divided by a power of two near its largest value, so the LP's
absolute tolerances act alike at every scale of profits.

Balancedness is one balanced-collection program too, normalized to cover
every player once (`balancedness_duality_pair`). It starts from the same
singleton basis, and its certified duals are the optimal allocation, so
no second program is solved for the primal side.

The deterministic game takes every coalition's value from one call of the
newsvendor's row-wise order kernel over all 2^n - 1 demand rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .distributions import Instance, JointDistribution, coalition_mask
from .errors import InputError, SolverError
from .lp import LinearProgram, solve_lp
from .newsvendor import optimal_orders

MEMBERSHIP_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class CharacteristicFunction:
    """Values v(S) for every coalition of n players, indexed by bitmask;
    v(empty) = 0."""

    n: int
    values: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise InputError(f"player count must be >= 1, got {self.n}")
        values = np.asarray(self.values, dtype=float)
        if values.shape != (1 << self.n,):
            raise InputError(
                f"values must cover all {1 << self.n} coalitions, got shape {values.shape}"
            )
        if values[0] != 0.0:
            raise InputError(f"v(empty) must be 0, got {values[0]}")
        object.__setattr__(self, "values", values)

    @property
    def grand_value(self) -> float:
        return float(self.values[-1])


def build_deterministic_game(inst: Instance, q: JointDistribution) -> CharacteristicFunction:
    """Characteristic function v(S) = optimal expected profit of S under the
    (fully known) joint distribution q, every coalition's in one
    `optimal_orders` call."""
    n = inst.n_retailers
    values = np.zeros(1 << n)
    values[1:] = optimal_orders(inst, q, range(1, 1 << n))[1]
    return CharacteristicFunction(n, values)


def _coalition_indicator_rows(n: int, masks) -> np.ndarray:
    masks = np.asarray(masks, dtype=np.int64).reshape(-1)
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def _singleton_basis(n: int) -> tuple[int, ...]:
    """The positions of the singletons {0}, ..., {n-1} among the masks
    1, ..., 2^n - 2 in increasing order, in player order."""
    return tuple((1 << i) - 1 for i in range(n))


def solve_stability_lp(
    n: int, values: np.ndarray, total: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """min eps s.t. x(S) + eps >= value(S) for every nonempty proper
    coalition S and x(N) = total, with x and eps free. `values` is an array
    of the 2^n - 2 values, entry i the value of mask i + 1 (a robust
    table's `ratios`). Returns (x, eps, w): w holds the coalition weights
    of the dual, w_S = d eps / d value(S) >= 0 in increasing mask order,
    summing to 1.

    The simplex solves the LP dual, the balanced-collection program

        max sum_S w_S value(S) - t total  s.t.  sum_{S ni i} w_S - t = 0
        for each player i,  sum_S w_S = 1,  w >= 0,  t >= 0,

    which has n + 1 rows whatever the number of coalitions. Here t is -u,
    u the free dual variable of x(N) = total. Each player row gives
    t = sum_{S ni i} w_S, and a feasible w sums to 1, so some w_S > 0 and
    t > 0 already for a player i in S: t >= 0 cuts off no feasible point.
    Every variable is then nonnegative, so the program is its own standard
    form, with no column added. w is its solution; x is the duals of its
    player rows and eps the dual of its sum-of-weights row. It starts from
    the singleton basis w_{i} = t = 1/n, which is feasible for every table,
    so it runs no phase 1 and its start depends on no table and on no
    earlier solve. The optimal x and w are not unique in general; this
    start picks the vertex that the pivots from it reach. The program is
    bounded, since the weights sum to 1. It is built afresh by each
    call: about 90 us at n = 6 on a 2-vCPU x86 host, 2-3% of a
    criterion-10 stress run and inside that run's spread, so none is kept.

    The program is solved on the table and total divided by the power of
    two nearest max(|value(S)|, |total|), and x and eps are multiplied back.
    Short of underflow that division rounds nothing, so a table scaled by
    2^k gives x and eps scaled by 2^k bit for bit and the same w, and the
    absolute tolerances of `lp` act on a program of unit size."""
    k = (1 << n) - 2
    shape = values.shape if isinstance(values, np.ndarray) else type(values).__name__
    if shape != (k,):
        raise InputError(f"stability values must be an array of shape ({k},), got {shape}")
    if not k:
        return np.full(n, total / n), 0.0, np.zeros(0)
    vals = values.astype(float)
    top = max(float(np.max(np.abs(vals))), abs(float(total)))
    scale = math.ldexp(1.0, min(round(math.log2(top)), 1023)) if 0.0 < top < math.inf else 1.0
    rows = _coalition_indicator_rows(n, np.arange(1, k + 1))
    lp = LinearProgram(
        sense="max",
        objective=np.append(vals / scale, -total / scale),
        a_eq=np.block([[rows.T, -np.ones((n, 1))], [np.ones(k), 0.0]]),
        b_eq=np.append(np.zeros(n), 1.0),
    )
    # Each singleton's weight, then t.
    sol = solve_lp(lp, _singleton_basis(n) + (k,))
    if sol.status != "optimal":
        raise SolverError(f"stability LP reported {sol.status!r}")
    # Adding 0.0 turns a dual's -0.0 into +0.0.
    return sol.duals[:n] * scale + 0.0, float(sol.duals[n]) * scale + 0.0, sol.x[:-1]


def least_core(v: CharacteristicFunction) -> tuple[np.ndarray, float]:
    """Solve min eps s.t. x(S) >= v(S) - eps for every nonempty proper S and
    x(N) = v(N). Returns (allocation, s_value); a nonpositive s_value means
    the core is nonempty."""
    x, eps, _w = solve_stability_lp(v.n, v.values[1:-1], v.grand_value)
    return x, eps


def core_membership(v: CharacteristicFunction, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """Efficiency plus stability against every nonempty proper coalition,
    both within `tol`, which must be finite and nonnegative."""
    if not (np.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and nonnegative, got {tol}")
    x = np.asarray(x, dtype=float)
    if x.shape != (v.n,):
        raise InputError(f"allocation has shape {x.shape}, expected ({v.n},)")
    if abs(float(np.sum(x)) - v.grand_value) > tol:
        return False
    for mask in range(1, (1 << v.n) - 1):
        total = sum(x[j] for j in range(v.n) if mask >> j & 1)
        if total < v.values[mask] - tol:
            return False
    return True


def balancedness_duality_pair(vmax_table: Mapping, n: int) -> tuple[float, float]:
    """Capped primal/dual optima certifying balancedness of a worst-case
    ratio table over players 0..n-1, whose entries for the empty and the
    grand coalition are ignored. It must hold every other coalition.

    The raw dual (weights over coalitions whose per-player totals equal a
    common level p) is a cone, so its optimum is 0 or +inf; normalizing to
    p = 1 makes both sides finite. One program is solved, that normalized
    balanced-collection LP

        max sum_S y_S v(S)  s.t.  sum_{S ni i} y_S = 1 for each player i,
        y >= 0,

    from the singleton basis y_{i} = 1, which is feasible for every table;
    the program is bounded, since no y_S exceeds 1. z_d is its optimum
    less 1. Its duals x, one per player, are an optimum of the primal
    min x(N) s.t. x(S) >= v(S), x free, and z_p is x(N) - 1.
    `solve_lp` certifies x before it returns: every reduced cost v(S) -
    x(S) is at most `lp.OPT_TOL`, so x is feasible within that tolerance,
    and the duality gap between x(N) and the optimum is zero within the
    solver's gap tolerance. Both values are clipped at 0, equal each other
    up to that gap, and are 0 exactly when some efficient allocation
    satisfies every coalition ratio constraint (nonempty core). A table
    that lacks a nonempty proper coalition raises InputError, naming its
    mask; a one-player game has none, and its empty table is balanced.
    """
    table = {coalition_mask(key, n): float(val) for key, val in vmax_table.items()}
    masks = range(1, (1 << n) - 1)
    missing = [m for m in masks if m not in table]
    if missing:
        raise InputError(f"ratio table lacks coalition mask {missing[0]}")
    if not masks:
        return 0.0, 0.0
    rows = _coalition_indicator_rows(n, masks)
    vals = [table[m] for m in masks]
    lp = LinearProgram(sense="max", objective=vals, a_eq=rows.T, b_eq=np.ones(n))
    sol = solve_lp(lp, _singleton_basis(n))
    if sol.status != "optimal":
        raise SolverError(f"balancedness dual reported {sol.status!r}")
    z_p = max(0.0, float(np.sum(sol.duals)) - 1.0)
    z_d = max(0.0, float(sol.objective_value) - 1.0)
    return z_p, z_d
