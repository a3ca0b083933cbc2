"""Deterministic cooperative-game solution concepts: characteristic
functions over all coalitions, core membership, the least core, and the
LP-duality balancedness check for worst-case ratio tables.

Coalitions are bitmasks (bit i = player i); LP rows are always emitted in
increasing mask order so bases are reproducible. Every stability LP (the
least core here and each robust sigma probe) starts from a feasible crash
basis built from its own table (see `solve_stability_lp`), so its answer
depends on that table alone. It is solved on the table divided by a power
of two near its largest value, so the LP's absolute tolerances act alike
at every scale of profits. Its standard form, and the factor of its crash
basis, are kept per (n, masks): on the criterion-10 stress shape every
stability LP of a run shares one.

The deterministic game takes every coalition's value from one call of the
newsvendor's row-wise order kernel over all 2^n - 1 demand rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .distributions import Instance, JointDistribution, coalition_mask
from .errors import InputError, SolverError
from .lp import LinearProgram, solve_lp
from .newsvendor import optimal_orders

MEMBERSHIP_TOL = 1e-7
_STABILITY_FORMS = 4
"""Stability LP standard forms kept, the least recently used dropped
first. Each holds a (2^n - 1) x (2^n + 2n + 1) matrix and the inverse of
one crash basis, 2^n x 2^n: about 0.07 MB at n = 6 and 17 MB at n = 10."""


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

    def __call__(self, s) -> float:
        return float(self.values[coalition_mask(s, self.n)])

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


def solve_stability_lp(
    n: int, values_by_mask: Mapping[int, float] | np.ndarray, total: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """min eps s.t. x(S) + eps >= value(S) for each given coalition and
    x(N) = total, with x and eps free. The values come as a mapping from
    coalition masks, or as an array whose entry i is the value of mask
    i + 1 (a robust table's `ratios`). Rows are emitted in increasing mask
    order. Returns (x, eps, w): w holds the coalition weights of the dual,
    w_S = d eps / d value(S) >= 0 in increasing mask order, summing to 1.

    The simplex starts from a crash basis (Bixby 1992) read off the table,
    so it runs no phase 1: x = total e_0 and eps0 = max_S (value(S) - x(S)),
    attained first at row k*. In the `LpSolution.basis` layout of this
    program (x_0..x_{n-1}, eps at ids 0..n; their negative parts at
    n+1..2n+1; the slack of coalition row k at 2n+2+k) the basis holds x_0
    (id 0, or its negative part n+1 when total < 0), eps (id n, or 2n+1
    when eps0 < 0) and the slack of every row but k*. The equality row
    fixes x_0, row k* then eps and every other row its own slack, so the
    basis is triangular, and each slack is eps0 - (value(S) - x(S)) >= 0.
    The start depends on the table alone, never on an earlier solve. The
    optimal x and w are not unique in general; this start picks the vertex
    that the pivots from it reach.

    The standard form is built once per (n, masks) and kept with the
    factor of its last crash basis (`_stability_form`), so a probe that
    starts from the same basis as the last one over its masks builds no
    matrix and inverts none before its first pivot. The kept factor holds
    the bits a fresh factorization of that basis gives, so x, eps and w do
    not depend on what an earlier call left.

    The program is solved on the table and total divided by the power of
    two nearest max(|value(S)|, |total|), and x and eps are multiplied back.
    Short of underflow that division rounds nothing, so a table scaled by
    2^k gives x and eps scaled by 2^k bit for bit and the same w, and the
    absolute tolerances of `lp` act on a program of unit size."""
    if isinstance(values_by_mask, np.ndarray):
        masks = list(range(1, values_by_mask.size + 1))
        vals = values_by_mask.astype(float)
    else:
        masks = sorted(values_by_mask)
        vals = np.array([float(values_by_mask[m]) for m in masks])
    if any(m <= 0 or m >= (1 << n) for m in masks):
        raise InputError("stability constraints must be over nonempty coalitions of 0..n-1")
    if not masks:
        return np.full(n, total / n), 0.0, np.zeros(0)
    top = max(float(np.max(np.abs(vals))), abs(float(total)))
    scale = math.ldexp(1.0, min(round(math.log2(top)), 1023)) if 0.0 < top < math.inf else 1.0
    vals, total = vals / scale, total / scale
    form, player0, factors = _stability_form(n, tuple(masks))
    lp = form.with_rhs([total], -vals)
    # The crash basis of the docstring; ids are LpSolution.basis columns.
    excess = vals - total * player0
    k_star = int(np.argmax(excess))
    basis = (n + 1 if total < 0 else 0, 2 * n + 1 if excess[k_star] < 0 else n) + tuple(
        2 * n + 2 + k for k in range(len(masks)) if k != k_star
    )
    factor = factors.get(basis)
    if factor is None:
        factor = form.factor(basis)
        factors.clear()  # only the last crash basis of a form keeps its factor
        factors[basis] = factor
    sol = solve_lp(lp, factor or basis)
    if sol.status != "optimal":
        raise SolverError(f"stability LP reported {sol.status!r}")
    # duals[0] prices x(N) = total; a coalition row reads -(x(S) + eps) <= -value(S).
    return sol.x[:n] * scale, float(sol.x[n]) * scale, -sol.duals[1:]


@functools.lru_cache(maxsize=_STABILITY_FORMS)
def _stability_form(n: int, masks: tuple[int, ...]) -> tuple[LinearProgram, np.ndarray, dict]:
    """The stability LP over `masks` with a zero right-hand side; each
    row's indicator of player 0; and an empty map from a crash basis to its
    factor. `LinearProgram.with_rhs` gives the program of any table and
    total, sharing this standard form, so its factor."""
    rows = _coalition_indicator_rows(n, masks)
    lp = LinearProgram(
        sense="min",
        objective=np.concatenate([np.zeros(n), [1.0]]),
        a_eq=np.concatenate([np.ones(n), [0.0]])[None, :],
        b_eq=np.zeros(1),
        a_ub=-np.hstack([rows, np.ones((len(masks), 1))]),
        b_ub=np.zeros(len(masks)),
        lower_bounds=np.full(n + 1, -np.inf),
    )
    return lp, rows[:, 0], {}


def least_core(v: CharacteristicFunction) -> tuple[np.ndarray, float]:
    """Solve min eps s.t. x(S) >= v(S) - eps for every nonempty proper S and
    x(N) = v(N). Returns (allocation, s_value); a nonpositive s_value means
    the core is nonempty."""
    table = {mask: float(v.values[mask]) for mask in range(1, (1 << v.n) - 1)}
    x, eps, _w = solve_stability_lp(v.n, table, v.grand_value)
    return x, eps


def core_membership(v: CharacteristicFunction, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """Efficiency plus stability against every nonempty proper coalition."""
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


def imputation_check(v: CharacteristicFunction, x, tol: float = MEMBERSHIP_TOL) -> bool:
    """Efficiency plus individual rationality."""
    x = np.asarray(x, dtype=float)
    if x.shape != (v.n,):
        raise InputError(f"allocation has shape {x.shape}, expected ({v.n},)")
    if abs(float(np.sum(x)) - v.grand_value) > tol:
        return False
    singles = v.values[[1 << j for j in range(v.n)]]
    return bool(np.all(x >= singles - tol))


def _ratio_table(vmax_table: Mapping, n: int | None) -> tuple[int, list[int], np.ndarray]:
    masks_in = {coalition_mask(key): float(val) for key, val in vmax_table.items()}
    if n is None:
        if not masks_in:
            raise InputError("empty ratio table and no player count given")
        n = max(max(masks_in).bit_length(), 1)
    grand = (1 << n) - 1
    masks = sorted(m for m in masks_in if 0 < m < grand)
    return n, masks, np.array([masks_in[m] for m in masks])


def balancedness_duality_pair(
    vmax_table: Mapping, n: int | None = None
) -> tuple[float, float]:
    """Capped primal/dual optima certifying balancedness of a worst-case
    ratio table.

    The raw dual (weights over coalitions whose per-player totals equal a
    common level p) is a cone, so its optimum is 0 or +inf; normalizing to
    p = 1 makes both sides finite. Returned values are clipped at 0, equal
    to each other by strong duality, and are 0 exactly when some efficient
    allocation satisfies every coalition ratio constraint (nonempty core).
    """
    n, masks, vals = _ratio_table(vmax_table, n)
    if not masks:
        return 0.0, 0.0
    rows = _coalition_indicator_rows(n, masks)

    # Primal side: min x(N) - 1 subject to x(S) >= v(S), x free.
    primal = LinearProgram(
        sense="min",
        objective=np.ones(n),
        a_ub=-rows,
        b_ub=-vals,
        lower_bounds=np.full(n, -np.inf),
    )
    psol = solve_lp(primal)
    if psol.status != "optimal":
        raise SolverError(f"balancedness primal reported {psol.status!r}")

    # Dual side: max sum_S y_S v(S) - 1 over balanced weight maps
    # (sum over S containing i of y_S = 1 for each player, y >= 0).
    dual = LinearProgram(
        sense="max",
        objective=vals,
        a_eq=rows.T,
        b_eq=np.ones(n),
    )
    dsol = solve_lp(dual)
    if dsol.status != "optimal":
        raise SolverError(f"balancedness dual reported {dsol.status!r}")

    z_p = max(0.0, float(psol.objective_value) - 1.0)
    z_d = max(0.0, float(dsol.objective_value) - 1.0)
    return z_p, z_d

