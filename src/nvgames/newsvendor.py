"""Deterministic newsvendor quantities: expected profits, critical-ratio
orders under a known joint, worst-case orders over the consistency polytope,
and the interval of grand-coalition orders whose worst-case profit stays
positive.

The worst-case shortage has a closed form. (y - d(S))^+ is convex in
d(S) = sum_r d_r(S), and among all joints with the given block marginals
the comonotonic coupling of the block aggregates d_r(S) maximizes the
expectation of every convex function of their sum (Meilijson & Nadas 1979;
Dhaene et al. 2002). That coupling does not depend on y.

Every critical-ratio order goes through one row-wise kernel,
`critical_orders`, under one probability vector or each row of a matrix of
joints. `ProperCoalitions.best_orders` gives every nonempty proper
coalition's best order and profit under each row of a joint matrix: the
stress excess pass and the robust solver's vertex tables both call it.
Every expected profit at an order is `_profit` of its expected shortage,
taken as one BLAS dot: per (row, joint) in the kernel's tail,
`order_profits`, and directly in the scalar entry point `coupled_profit`.
The action-interval scan takes `coupled_profit`'s dots at every kink past
the peak as the rows of `row_dots` calls, one per block of kinks. A value
does not depend on the other rows or joints, so the batched callers
(`worst_case_orders` once per block, `optimal_orders` over every
coalition, `best_orders` over chunks of joints, the kink scan) and the
one-coalition entry points give the same floats.

The one-coalition entry points are the one-row case of the batched ones:
`optimal_order` is row 0 of `optimal_orders` and `worst_case_order` row 0
of `worst_case_orders`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .distributions import (
    FrechetPolytope,
    Instance,
    JointDistribution,
    block_aggregate,
    coalition_mask,
    get_polytope,
    northwest_corner,
)
from .errors import GameInvalidError, InputError, SolverError
from .lp import sorted_distinct

_QUANTILE_EPS = 1e-12

# Floats per block of the blocked passes over K-long data (the kink scan
# here; a ratio-LP coalition's candidate orders and the Dinkelbach
# objectives in `robust_game`):
# 64 KB, so no block's temporary is a K-long array.
_BLOCK = 1 << 13

_CHUNK_ROWS = 128
"""Joint rows per kernel call of `ProperCoalitions.best_orders`, and per
`best_orders` call of `ExcessEvaluator.excess` in the stress loop, which
so keeps its profit matrices at this many rows. A call's temporaries are
coalitions x rows x atoms: at the criterion-10 shape (48 coalitions
spanning both blocks, 16 atoms) 0.75 MB each at 128 rows. On a 2-vCPU x86
VM (2 MB of L2 per core) the kernel time of one instance's 1 034 rows was,
min of 7 x 5 passes over three sweeps: 6.3-6.5 ms at 32 rows, 5.3-7.4 ms
at 64, 4.6-4.9 ms at 128 and 4.9-5.3 ms at 256 (7.0 ms with 4 coalitions
per call and 256 rows). Against 64 rows, 128 raised the peak RSS of a
serial 17-instance run by 0.4 MB, and 256 by 1.4 MB."""


@dataclass(frozen=True)
class OrderResult:
    """Optimal order quantity and the expected profit it achieves."""

    y_star: float
    value: float


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., i, :] @ b[i] for every row i (a may stack several matrices of
    b's shape, and a row axis of length 1 in a stands for every row of b),
    as one stacked matmul: numpy computes each row with the same BLAS dot as
    a 1-D `a[i] @ b[i]`, so the values are bit-identical to the per-row
    products (an einsum, an elementwise product summed, or a matrix-vector
    product can differ in the last bit)."""
    return np.matmul(a[..., None, :], b[:, :, None])[..., 0, 0]


def _quantile_rows(values: np.ndarray, probs: np.ndarray, ratio: float) -> np.ndarray:
    """The critical-ratio quantile of every row of `values` (rows x atoms)
    under one probability vector, shape (rows,), or under each row of a
    (joints x atoms) matrix, shape (rows, joints): in the row's stable sort
    order, the value at the count of cumulative probabilities below ratio -
    1e-12 (the largest value if rounding keeps all of them below). With
    nonnegative probabilities that is the smallest value whose CDF reaches
    ratio - 1e-12, duplicates merged. Either way the sums add along the
    atoms in order, the bits of `np.cumsum` along one row: one `np.cumsum`
    for one row of probabilities, else one in-place addition per atom over
    every (row, joint) pair, cheaper than a `np.cumsum` per pair."""
    order = np.argsort(values, axis=1, kind="stable")
    k = values.shape[1]
    joints = np.atleast_2d(probs)
    if joints.shape[0] == 1:
        cum = np.cumsum(joints[0][order], axis=1).T[:, :, None]
    else:
        cum = joints.T[order.T]  # (atoms x rows x joints), in each row's order
        for i in range(1, k):
            np.add(cum[i - 1], cum[i], out=cum[i])
    pos = np.minimum(np.count_nonzero(cum < ratio - _QUANTILE_EPS, axis=0), k - 1)
    rows = np.arange(values.shape[0])[:, None]
    y = values[rows, order[rows, pos]]
    return y if probs.ndim == 2 else y[:, 0]


def _profit(inst: Instance, y, shortage, out=None):
    """(p-c)*y - p*shortage, the expected profit at order y from its
    expected shortage E[(y - d)^+]: scalars or arrays of one shape. With
    `out` (an array of the shortages' shape, which may be `shortage`
    itself) the same operations, in the same order, write into it."""
    if out is None:
        return (inst.price - inst.cost) * y - inst.price * shortage
    np.multiply(inst.price, shortage, out=out)
    return np.subtract((inst.price - inst.cost) * y, out, out=out)


def order_profits(
    inst: Instance, y: np.ndarray, demands: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """(p-c)*y - p*E[(y - d)^+] at the order y[r, j] of every row r of
    `demands` (rows x atoms) under every probability row j of `probs`
    (joints x atoms, or one vector as a single joint), shape (rows,
    joints). A y of shape (rows, 1) orders the same under every joint: its
    shortages stay one row per demand row, broadcast across the joints."""
    short = y[:, :, None] - demands[:, None, :]
    np.maximum(short, 0.0, out=short)
    return _profit(inst, y, row_dots(short, np.atleast_2d(probs)))


def critical_orders(
    inst: Instance, demands: np.ndarray, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(orders, profits): the critical-ratio order y of every row of
    `demands` (rows x atoms) and its expected profit, under one probability
    vector (shapes (rows,)) or each row of a (joints x atoms) matrix
    (shapes (rows, joints))."""
    y = _quantile_rows(demands, probs, inst.ratio)
    value = order_profits(inst, y if y.ndim == 2 else y[:, None], demands, probs)
    return y, value.reshape(y.shape)


class ProperCoalitions:
    """Every nonempty proper coalition of one instance, in mask order (entry
    i is mask i + 1), set up once for `best_orders`: its demand row, and
    whether it meets one block or spans several. A coalition inside one
    block knows its demand distribution under every consistent joint, so
    its order is pinned to its worst-case (block quantile) order; one
    spanning blocks orders at its critical-ratio quantile under each
    joint. `d_grand` is the grand coalition's demand row."""

    def __init__(self, inst: Instance):
        self.inst = inst
        demands = get_polytope(inst).coalition_demand_rows(range(1, inst.grand_mask + 1))
        self.d_grand = demands[-1]
        masks = np.arange(1, inst.grand_mask)
        blocks_met = sum(((masks & bm) != 0).astype(int) for bm in inst.block_masks)
        self._pinned = np.flatnonzero(blocks_met == 1)
        self._pinned_y = worst_case_orders(inst, masks[self._pinned].tolist())[0]
        self._pinned_d = demands[self._pinned]
        self._span = np.flatnonzero(blocks_met > 1)
        self._span_d = demands[self._span]

    def best_orders(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(orders, profits), both (joints x coalitions): every coalition's
        best order under every row of `q` (a joints x atoms matrix) and
        its expected profit there, `order_profits` at the pinned orders
        and `critical_orders` for the spanning coalitions. The rows go
        through the kernel `_CHUNK_ROWS` at a time; each value depends on
        its own row alone, so it has the bits of a one-joint call."""
        orders = np.empty((q.shape[0], self.inst.grand_mask - 1))
        profits = np.empty_like(orders)
        orders[:, self._pinned] = self._pinned_y
        for lo in range(0, q.shape[0], _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            profits[rows, self._pinned] = order_profits(
                self.inst, self._pinned_y[:, None], self._pinned_d, q[rows]
            ).T
            y, value = critical_orders(self.inst, self._span_d, q[rows])
            orders[rows, self._span], profits[rows, self._span] = y.T, value.T
        return orders, profits

    def grand_profits(self, y: float, q: np.ndarray) -> np.ndarray:
        """The grand coalition's expected profit at order y under each row
        of `q` (a joints x atoms matrix), `order_profits` of one row."""
        return order_profits(self.inst, np.array([[y]]), self.d_grand[None, :], q)[0]


def _joint_polytope(inst: Instance, q: JointDistribution) -> FrechetPolytope:
    """The instance's polytope, refusing a joint over another support."""
    poly = get_polytope(inst)
    if q.n_atoms != poly.n_atoms:
        raise InputError(
            f"joint distribution has {q.n_atoms} atoms, instance support has {poly.n_atoms}"
        )
    return poly


def _nonempty_masks(inst: Instance, coalitions: Iterable, caller: str) -> list[int]:
    masks = [coalition_mask(s, inst.n_retailers) for s in coalitions]
    if not all(masks):
        raise InputError(f"{caller} requires a nonempty coalition")
    return masks


def _check_order(y: float) -> None:
    """Refuse an order quantity that is not finite and nonnegative."""
    if not (np.isfinite(y) and y >= 0):
        raise InputError(f"order quantity must be finite and nonnegative, got {y}")


def optimal_order(inst: Instance, q: JointDistribution, s) -> OrderResult:
    """Profit-maximizing order for coalition `s` when the joint is `q`: the
    critical-ratio quantile of the aggregate demand, row 0 of
    `optimal_orders`."""
    y, value = optimal_orders(inst, q, [s])
    return OrderResult(float(y[0]), float(value[0]))


def optimal_orders(
    inst: Instance, q: JointDistribution, coalitions: Iterable
) -> tuple[np.ndarray, np.ndarray]:
    """`optimal_order` of every coalition in `coalitions` as (orders,
    values), from one kernel call over their demand rows."""
    masks = _nonempty_masks(inst, coalitions, "optimal_order")
    poly = _joint_polytope(inst, q)
    return critical_orders(inst, poly.coalition_demand_rows(masks), q.q)


def worst_case_order(inst: Instance, s) -> OrderResult:
    """Order maximizing the worst-case expected profit over all joints
    consistent with the block marginals. Decomposes across blocks: the sum
    of each block's quantile order, with value the sum of block optima."""
    y, value = worst_case_orders(inst, [s])
    return OrderResult(float(y[0]), float(value[0]))


def worst_case_orders(inst: Instance, coalitions: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """`worst_case_order` of every coalition in `coalitions` as (orders,
    values). Each block runs the kernel once, over the distinct S cap N_r
    of the coalitions that meet it, and the block optima add in block
    order. Needs no polytope."""
    masks = _nonempty_masks(inst, coalitions, "worst_case_order")
    y_total, v_total = np.zeros(len(masks)), np.zeros(len(masks))
    for block, m, bmask in zip(inst.partition, inst.marginals, inst.block_masks):
        met = [i for i, mask in enumerate(masks) if mask & bmask]
        if not met:
            continue
        subs: dict[int, int] = {}
        rows = [subs.setdefault(masks[i] & bmask, len(subs)) for i in met]
        demands = np.array([block_aggregate(block, m.atoms, sub) for sub in subs])
        y, value = critical_orders(inst, demands, m.probs)
        y_total[met] += y[rows]
        v_total[met] += value[rows]
    return y_total, v_total


def comonotonic_coupling(inst: Instance, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The consistent joint that couples the blocks comonotonically in the
    aggregate demand of S cap N_r: each block's atoms sorted by that
    aggregate, then the northwest-corner walk. Returns (sums, weights, q):
    the coalition demand and the probability of every step of the walk, and
    the joint as a vector over the product support (last block fastest)."""
    mask = coalition_mask(s, inst.n_retailers)
    values = [
        block_aggregate(block, m.atoms, mask) for block, m in zip(inst.partition, inst.marginals)
    ]
    steps, weights = northwest_corner(
        [m.probs for m in inst.marginals],
        [np.argsort(v, kind="stable") for v in values],
    )
    sums = np.zeros(weights.size)
    for r, v in enumerate(values):
        sums += v[steps[:, r]]
    q = np.zeros(inst.joint_size())
    q[np.ravel_multi_index(steps.T, tuple(m.n_atoms for m in inst.marginals))] = weights
    return sums, weights, q


def coupled_profit(inst: Instance, coupling: tuple, y: float) -> float:
    """(p-c)*y - p*E[(y - d)^+] with d distributed as the coupling's sums;
    for the comonotonic coupling of a coalition, its worst-case profit."""
    sums, weights, _q = coupling
    return _profit(inst, y, float(weights @ np.maximum(y - sums, 0.0)))


def worst_case_shortage(inst: Instance, y: float, s) -> float:
    """max over consistent joints of E[(y - d(S))^+], attained by the
    comonotonic coupling."""
    _check_order(y)
    sums, weights, _q = comonotonic_coupling(inst, s)
    return float(weights @ np.maximum(y - sums, 0.0))


def lemma3_condition(inst: Instance) -> bool:
    """True when some block's minimum aggregate demand is positive, which
    guarantees a nonempty positive-profit interval for the grand coalition."""
    return any(
        float(np.min(block_aggregate(block, m.atoms, inst.grand_mask))) > 0.0
        for block, m in zip(inst.partition, inst.marginals)
    )


def _kink_profits(inst: Instance, coupling: tuple, y: float) -> tuple[np.ndarray, np.ndarray]:
    """(kinks, g): the distinct sums of `coupling` above y, ascending, and
    `coupled_profit` at each. The kinks run in blocks of `_BLOCK` // (number
    of sums) rows, at least one: each block's shortages (kink - sums)^+ are
    formed in one array and their BLAS dots with the weights taken as the
    rows of one `row_dots` call, so every value has the bits of a
    `coupled_profit` call and no (kinks x sums) matrix is built."""
    sums, weights, _q = coupling
    kinks = sorted_distinct(sums[sums > y])
    shortage = np.empty(kinks.size)
    rows = max(1, _BLOCK // sums.size)
    for i in range(0, kinks.size, rows):
        block = kinks[i : i + rows, None] - sums
        np.maximum(block, 0.0, out=block)
        shortage[i : i + rows] = row_dots(block, weights[None, :])
    return kinks, _profit(inst, kinks, shortage)


def grand_action_interval(
    inst: Instance, wc: OrderResult | None = None, coupling: tuple | None = None
) -> tuple[float, float]:
    """The interval (0, y_hi) of grand orders whose profit stays positive
    under every consistent joint. `wc` and `coupling` are the grand
    coalition's `worst_case_order` and `comonotonic_coupling`, computed
    here unless a caller that holds them passes them in.

    The worst-case profit g(y) is concave with g(0) = 0, so when it is
    positive at its peak, {g > 0} is an interval whose lower end is exactly
    0. g is piecewise linear with kinks at the comonotonic sums (slope
    p - c - p * P(sum < y), and -c past the largest sum), so the upper root
    is found by scanning those sums past the peak and interpolating on the
    segment where g changes sign; g(y_hi) <= 0, and it is 0 up to rounding.
    """
    if wc is None:
        wc = worst_case_order(inst, inst.grand_mask)
    if coupling is None:
        coupling = comonotonic_coupling(inst, inst.grand_mask)

    def g(y: float) -> float:
        return coupled_profit(inst, coupling, y)

    y_peak = wc.y_star
    g_peak = g(y_peak)
    if g_peak <= 0.0:
        if lemma3_condition(inst):
            raise SolverError(
                f"worst-case profit {g_peak} at the worst-case order is nonpositive "
                "although a block has strictly positive minimum demand"
            )
        raise GameInvalidError(
            "no order quantity keeps the grand-coalition profit positive under "
            "every consistent joint distribution"
        )

    # g is linear between consecutive kinks, so between the last kink with
    # g > 0 (or the peak) and the first kink past it with g <= 0.
    kinks, g_kinks = _kink_profits(inst, coupling, y_peak)
    y_left, g_left = y_peak, g_peak
    for y_kink, g_kink in zip(kinks.tolist(), g_kinks.tolist()):
        if g_kink <= 0.0:
            root = y_left + (y_kink - y_left) * g_left / (g_left - g_kink)
            break
        y_left, g_left = y_kink, g_kink
    else:
        root = y_left + g_left / inst.cost
    # Rounding can leave g a few ulps above 0; step up to the first float
    # where it is not.
    for _ in range(64):
        if g(root) <= 0.0:
            return 0.0, root
        root = float(np.nextafter(root, np.inf))
    raise SolverError(f"worst-case profit stays positive just past its root {root}")
