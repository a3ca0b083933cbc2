"""Property tests of the batched coalition quantities against the
one-coalition forms and the per-coalition loops they replaced, bit for bit."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from nvgames.coop import build_deterministic_game
from nvgames.distributions import (
    DiscreteMarginal,
    Instance,
    JointDistribution,
    get_polytope,
    independent_joint,
)
from nvgames.newsvendor import (
    critical_orders,
    optimal_order,
    order_profits,
    worst_case_order,
    worst_case_orders,
)

from oracles import (
    expected_profit,
    per_coalition_demands,
    per_coalition_order,
    per_coalition_worst_case_order,
    per_mask_deterministic_values,
)

# Fractional demands whose sums round (0.1 + 0.2 != 0.3), drawn from a short
# list so that equal values are common.
DEMANDS = (0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.7, 1.5, 2.25, 3.1, 7.0)
PRICES = (1.1, 1.5, 2.0, 4.0)
# Offsets of a probability from the critical ratio: exactly the quantile's
# level (ratio - 1e-12), within its slack, and just outside it.
NUDGES = (-1e-12, -5e-12, -3e-13, 0.0, 2e-13, 1e-12, 5e-12)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@st.composite
def probabilities(draw, k: int, ratio: float) -> np.ndarray:
    """k probabilities from integer weights, zeros included; or, half the
    time, a first atom that carries the critical ratio up to a nudge and
    the rest spread by the weights."""
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                            .filter(lambda w: sum(w) > 0)), dtype=float)
    if k > 1 and draw(st.booleans()):
        head = ratio + draw(st.sampled_from(NUDGES))
        rest = weights[1:] if weights[1:].sum() > 0 else np.ones(k - 1)
        return np.r_[head, (1.0 - head) * rest / rest.sum()]
    return weights / weights.sum()


@st.composite
def instances(draw, wide: bool = True) -> Instance:
    """One to three blocks of one or two retailers, and when `wide` is set
    sometimes one block of 9 or 10 (numpy sums 8 or more columns pairwise),
    each with up to 3 atoms (2 in a wide block) of fractional demand and
    probabilities as above."""
    price = draw(st.sampled_from(PRICES))
    ratio = (price - 1.0) / price
    dims = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    if wide and draw(st.integers(0, 3)) == 0:
        dims.insert(draw(st.integers(0, len(dims))), draw(st.integers(9, 10)))
    partition, marginals, start = [], [], 0
    for dim in dims:
        k = draw(st.integers(1, 3 if dim < 9 else 2))
        atoms = draw(st.lists(st.lists(st.sampled_from(DEMANDS), min_size=dim, max_size=dim),
                              min_size=k, max_size=k))
        marginals.append(DiscreteMarginal(np.array(atoms), draw(probabilities(k, ratio))))
        partition.append(tuple(range(start, start + dim)))
        start += dim
    return Instance(price, 1.0, tuple(partition), tuple(marginals))


@st.composite
def coalition_lists(draw, inst: Instance) -> list[int]:
    """Nonempty coalitions in any order, repeats allowed."""
    return draw(st.lists(st.integers(1, inst.grand_mask), min_size=1, max_size=24))


@st.composite
def joints(draw, inst: Instance) -> JointDistribution:
    """The independent joint, or a probability vector over the joint atoms
    drawn as above."""
    if draw(st.booleans()):
        return independent_joint(inst)
    return JointDistribution(draw(probabilities(inst.joint_size(), inst.ratio)))


@given(st.data())
def test_kernel_rows_equal_one_row_orders(data):
    price = data.draw(st.sampled_from(PRICES))
    inst = Instance(price, 1.0, ((0,),), (DiscreteMarginal(np.ones((1, 1)), np.ones(1)),))
    k = data.draw(st.integers(1, 8))
    rows = np.array(data.draw(st.lists(
        st.lists(st.sampled_from(DEMANDS), min_size=k, max_size=k), min_size=1, max_size=6
    )))
    probs = data.draw(probabilities(k, inst.ratio))
    if data.draw(st.booleans()):
        # Row 0's first atom in sorted order carries the first probability,
        # so its CDF starts at the nudged ratio.
        first = int(np.argsort(rows[0], kind="stable")[0])
        probs[[0, first]] = probs[[first, 0]]
    y, value = critical_orders(inst, rows, probs)
    one = [critical_orders(inst, row[None, :], probs) for row in rows]
    assert bits(y) == bits([r[0][0] for r in one])
    assert bits(value) == bits([r[1][0] for r in one])
    reference = [per_coalition_order(inst, row, probs) for row in rows]
    assert bits(y) == bits([r[0] for r in reference])
    assert bits(value) == bits([r[1] for r in reference])


@given(st.data())
def test_kernel_over_joints_equals_one_call_per_joint(data):
    # A (joints x atoms) matrix adds up every (row, joint) pair atom by atom
    # at once, and a one-row matrix takes np.cumsum; each column of the
    # result must equal the call with that joint's vector, bit for bit.
    price = data.draw(st.sampled_from(PRICES))
    inst = Instance(price, 1.0, ((0,),), (DiscreteMarginal(np.ones((1, 1)), np.ones(1)),))
    k = data.draw(st.integers(1, 8))
    rows = np.array(data.draw(st.lists(
        st.lists(st.sampled_from(DEMANDS), min_size=k, max_size=k), min_size=1, max_size=6
    )))
    matrix = np.array([data.draw(probabilities(k, inst.ratio))
                       for _ in range(data.draw(st.integers(1, 5)))])
    y, value = critical_orders(inst, rows, matrix)
    assert y.shape == value.shape == (len(rows), len(matrix))
    for j, probs in enumerate(matrix):
        y_j, value_j = critical_orders(inst, rows, probs)
        assert bits(y[:, j]) == bits(y_j)
        assert bits(value[:, j]) == bits(value_j)


@given(st.data())
def test_demand_rows_equal_one_mask_demands(data):
    inst = data.draw(instances())
    masks = data.draw(coalition_lists(inst))
    poly = get_polytope(inst)
    rows = poly.coalition_demand_rows(masks)
    assert rows.shape == (len(masks), poly.n_atoms)
    for mask, row in zip(masks, rows):
        assert bits(row) == bits(poly.coalition_demands(mask))
        assert bits(row) == bits(per_coalition_demands(poly, mask))


@given(st.data())
def test_one_coalition_entry_points_equal_one_row_kernel_calls(data):
    # optimal_order is the kernel on the coalition's one demand row, and
    # expected_profit's dot has the bits of order_profits on that row, at
    # the kernel's order and at orders on and between the demands.
    inst = data.draw(instances())
    q = data.draw(joints(inst))
    mask = data.draw(st.integers(1, inst.grand_mask))
    row = get_polytope(inst).coalition_demand_rows([mask])
    y, value = critical_orders(inst, row, q.q)
    res = optimal_order(inst, q, mask)
    assert bits([res.y_star, res.value]) == bits([y[0], value[0]])
    orders = [float(y[0]), data.draw(st.sampled_from(DEMANDS)),
              data.draw(st.floats(0.0, 30.0, allow_subnormal=False))]
    for order in orders:
        profit = order_profits(inst, np.array([[order]]), row, q.q)[0, 0]
        assert bits(expected_profit(inst, q, order, mask)) == bits(profit)


@given(st.data())
def test_batched_worst_case_orders_equal_per_mask(data):
    inst = data.draw(instances())
    masks = data.draw(coalition_lists(inst))
    y, value = worst_case_orders(inst, masks)
    one = [worst_case_order(inst, mask) for mask in masks]
    assert bits(y) == bits([r.y_star for r in one])
    assert bits(value) == bits([r.value for r in one])
    reference = [per_coalition_worst_case_order(inst, mask) for mask in masks]
    assert bits(y) == bits([r[0] for r in reference])
    assert bits(value) == bits([r[1] for r in reference])


@given(st.data())
def test_deterministic_game_equals_per_mask_loop(data):
    # No wide block: the reference makes one call per coalition, and the
    # demand-row test covers wide blocks.
    inst = data.draw(instances(wide=False))
    q = data.draw(joints(inst))
    game = build_deterministic_game(inst, q)
    assert bits(game.values) == bits(per_mask_deterministic_values(inst, q))
