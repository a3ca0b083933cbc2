"""Deterministic newsvendor quantities: expected profits, quantile-optimal
orders, worst-case orders over the consistency polytope, and the interval of
grand-coalition orders whose worst-case profit stays positive.

The worst-case shortage has a closed form. (y - d(S))^+ is convex in
d(S) = sum_r d_r(S), and among all joints with the given block marginals
the comonotonic coupling of the block aggregates d_r(S) maximizes the
expectation of every convex function of their sum (Meilijson & Nadas 1979;
Dhaene et al. 2002). That coupling does not depend on y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    Instance,
    JointDistribution,
    coalition_mask,
    get_polytope,
    northwest_corner,
)
from .errors import GameInvalidError, InputError, SolverError

_QUANTILE_EPS = 1e-12
ACTION_Y_TOL = 1e-6  # bisection width of the action interval's upper end


@dataclass(frozen=True, eq=False)
class ScalarDemand:
    """Distribution of an aggregate (scalar) demand: support values with
    probabilities. Values need not be sorted or distinct."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.atleast_1d(np.asarray(self.values, dtype=float))
        probs = np.atleast_1d(np.asarray(self.probs, dtype=float))
        if values.shape != probs.shape or values.ndim != 1:
            raise InputError("values and probs must be vectors of equal length")
        if not np.all(np.isfinite(values)):
            raise InputError("demand values must be finite")
        if np.any(probs < -1e-12):
            raise InputError("probabilities must be nonnegative")
        if abs(float(np.sum(probs)) - 1.0) > 1e-10:
            raise InputError(f"probabilities sum to {float(np.sum(probs))!r}, expected 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class OrderResult:
    """Optimal order quantity and the expected profit it achieves."""

    y_star: float
    value: float


def pushforward(inst: Instance, q: JointDistribution, s) -> ScalarDemand:
    """Distribution of the coalition's aggregate demand under joint q."""
    poly = get_polytope(inst)
    if q.n_atoms != poly.n_atoms:
        raise InputError(
            f"joint distribution has {q.n_atoms} atoms, instance support has {poly.n_atoms}"
        )
    mask = coalition_mask(s, inst.n_retailers)
    return ScalarDemand(poly.coalition_demands(mask), q.q)


def expected_profit(inst: Instance, q: JointDistribution, y: float, s) -> float:
    """(p-c)*y - p*E_q[(y - d(S))^+] for ordering quantity y."""
    if y < 0:
        raise InputError(f"order quantity must be nonnegative, got {y}")
    d = pushforward(inst, q, s)
    shortage = float(np.maximum(y - d.values, 0.0) @ d.probs)
    return (inst.price - inst.cost) * y - inst.price * shortage


def quantile_order(d: ScalarDemand, ratio: float) -> float:
    """Smallest support value whose CDF reaches `ratio` (left-continuous
    generalized inverse; duplicated atoms merge first)."""
    if not (0.0 < ratio < 1.0):
        raise InputError(f"ratio must lie in (0, 1), got {ratio}")
    order = np.argsort(d.values, kind="stable")
    sv = d.values[order]
    cdf = np.cumsum(d.probs[order])
    # Last index of each run of equal values carries that value's full CDF.
    last = np.r_[np.flatnonzero(np.diff(sv) > 0), sv.size - 1]
    hit = cdf[last] >= ratio - _QUANTILE_EPS
    return float(sv[last[np.argmax(hit)]])


def _order_from_scalar(inst: Instance, d: ScalarDemand) -> OrderResult:
    y = quantile_order(d, inst.ratio)
    shortage = float(np.maximum(y - d.values, 0.0) @ d.probs)
    return OrderResult(y, (inst.price - inst.cost) * y - inst.price * shortage)


def optimal_order(inst: Instance, q: JointDistribution, s) -> OrderResult:
    """Profit-maximizing order for coalition `s` when the joint is `q`: the
    critical-ratio quantile of the aggregate demand."""
    mask = coalition_mask(s, inst.n_retailers)
    if mask == 0:
        raise InputError("optimal_order requires a nonempty coalition")
    return _order_from_scalar(inst, pushforward(inst, q, s))


def block_demand(inst: Instance, r: int, mask: int) -> ScalarDemand:
    """Known distribution of the aggregate demand of S cap N_r."""
    block = inst.partition[r]
    cols = [j for j, i in enumerate(block) if mask >> i & 1]
    if not cols:
        raise InputError(f"coalition {mask:#x} does not meet block {r}")
    m = inst.marginals[r]
    return ScalarDemand(m.atoms[:, cols].sum(axis=1), m.probs)


def worst_case_order(inst: Instance, s) -> OrderResult:
    """Order maximizing the worst-case expected profit over all joints
    consistent with the block marginals. Decomposes across blocks: the sum
    of each block's quantile order, with value the sum of block optima."""
    mask = coalition_mask(s, inst.n_retailers)
    if mask == 0:
        raise InputError("worst_case_order requires a nonempty coalition")
    y_total, v_total = 0.0, 0.0
    for r, bmask in enumerate(inst.block_masks):
        if mask & bmask:
            res = _order_from_scalar(inst, block_demand(inst, r, mask))
            y_total += res.y_star
            v_total += res.value
    return OrderResult(y_total, v_total)


def comonotonic_coupling(inst: Instance, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The consistent joint that couples the blocks comonotonically in the
    aggregate demand of S cap N_r: each block's atoms sorted by that
    aggregate, then the northwest-corner walk. Returns (sums, weights, q):
    the coalition demand and the probability of every step of the walk, and
    the joint as a vector over the product support (last block fastest)."""
    mask = coalition_mask(s, inst.n_retailers)
    values = []
    for block, m in zip(inst.partition, inst.marginals):
        cols = [j for j, i in enumerate(block) if mask >> i & 1]
        values.append(m.atoms[:, cols].sum(axis=1))
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
    return (inst.price - inst.cost) * y - inst.price * float(
        weights @ np.maximum(y - sums, 0.0)
    )


def worst_case_shortage(inst: Instance, y: float, s) -> float:
    """max over consistent joints of E[(y - d(S))^+], attained by the
    comonotonic coupling."""
    if y < 0:
        raise InputError(f"order quantity must be nonnegative, got {y}")
    sums, weights, _q = comonotonic_coupling(inst, s)
    return float(weights @ np.maximum(y - sums, 0.0))


def lemma3_condition(inst: Instance) -> bool:
    """True when some block's minimum aggregate demand is positive, which
    guarantees a nonempty positive-profit interval for the grand coalition."""
    for r, bmask in enumerate(inst.block_masks):
        if float(np.min(block_demand(inst, r, bmask).values)) > 0.0:
            return True
    return False


def grand_action_interval(inst: Instance) -> tuple[float, float]:
    """Outer approximation (0, y_hi) of the open interval of grand orders
    whose profit stays positive under every consistent joint.

    The worst-case profit g(y) is concave with g(0) = 0, so when it is
    positive at its peak, {g > 0} is an interval whose lower end is exactly
    0. The upper end is located by bisection to within ACTION_Y_TOL, and
    g(y_hi) <= 0.
    """
    wc = worst_case_order(inst, inst.grand_mask)
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

    # Upper endpoint: expand beyond the peak until the profit turns nonpositive.
    mean_total = sum(
        float(block_demand(inst, r, bmask).values @ inst.marginals[r].probs)
        for r, bmask in enumerate(inst.block_masks)
    )
    cap = inst.price * mean_total / inst.cost + 1.0
    lo, hi = y_peak, max(2.0 * y_peak, y_peak + 1.0)
    while g(hi) > 0.0:
        if hi > cap:
            raise SolverError("failed to bracket the upper endpoint of the action interval")
        lo, hi = hi, 2.0 * hi
    while hi - lo > ACTION_Y_TOL:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.0, hi
