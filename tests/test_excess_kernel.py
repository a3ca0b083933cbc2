"""Property tests of the stacked excess kernel against the per-joint loop."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from nvgames.distributions import (
    DiscreteMarginal,
    Instance,
    independent_joint,
    sample_extremal,
)
from nvgames.errors import DomainError
from nvgames.newsvendor import ProperCoalitions
from nvgames.robust_game import Decision
from nvgames.stress import ExcessEvaluator

from oracles import scalar_excess


@st.composite
def instances(draw) -> Instance:
    """R in {1, 2, 3} blocks of one or two retailers (so coalitions inside
    one block and across blocks both occur), up to 3 atoms each, integer
    demands in [1, 6] and integer weights that may be zero."""
    partition, marginals, start = [], [], 0
    for _ in range(draw(st.integers(1, 3))):
        dim = draw(st.integers(1, 2))
        k = draw(st.integers(1, 3))
        atoms = draw(st.lists(st.lists(st.integers(1, 6), min_size=dim, max_size=dim),
                              min_size=k, max_size=k))
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                       .filter(lambda w: sum(w) > 0))
        marginals.append(DiscreteMarginal(np.array(atoms, dtype=float),
                                          np.array(weights, dtype=float) / sum(weights)))
        partition.append(tuple(range(start, start + dim)))
        start += dim
    price = draw(st.sampled_from([1.1, 1.5, 2.0, 4.0]))
    return Instance(price, 1.0, tuple(partition), tuple(marginals))


@st.composite
def cases(draw):
    """An instance, a stack of joints (the independent joint contaminated by
    weight lambda in [0, 1] with an extremal vertex or with an arbitrary
    probability vector) and a decision."""
    inst = draw(instances())
    k = inst.joint_size()
    q_ind = independent_joint(inst).q
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        lam = draw(st.floats(0.0, 1.0))
        if draw(st.booleans()):
            cost = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            other = sample_extremal(inst, np.array(cost, dtype=float)).q
        else:
            weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                           .filter(lambda w: sum(w) > 0))
            other = np.array(weights, dtype=float) / sum(weights)
        rows.append((1.0 - lam) * q_ind + lam * other)
    n = inst.n_retailers
    z = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                      .filter(lambda w: sum(w) > 0)), dtype=float)
    y = draw(st.floats(0.0, 1.5)) * float(np.max(ExcessEvaluator(ProperCoalitions(inst)).d_grand))
    return inst, np.array(rows), Decision(y, z / z.sum())


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@given(cases())
def test_stacked_excess_equals_per_joint_loop(case):
    inst, qs, decision = case
    evaluator = ExcessEvaluator(ProperCoalitions(inst))
    try:
        expected = [scalar_excess(inst, q, decision) for q in qs]
    except DomainError:
        with pytest.raises(DomainError):
            evaluator.excess(evaluator.stack(qs), decision)
        return
    stacked = evaluator.excess(evaluator.stack(qs), decision)
    assert stacked.shape == (len(qs),)
    assert bits(stacked) == bits(expected)
    for q, value in zip(qs, expected):
        assert bits(evaluator.excess(evaluator.stack(q), decision)) == bits([value])


def test_nonpositive_grand_profit_in_one_row():
    # Two singleton blocks with demand {1, 3}; at y = 5 the grand profit is
    # 5 - 2 E(5 - D)^+: 5 with all mass on D = 6, -1 with all mass on D = 2.
    m = DiscreteMarginal(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))
    inst = Instance(2.0, 1.0, ((0,), (1,)), (m, m))
    evaluator = ExcessEvaluator(ProperCoalitions(inst))
    good, bad = np.eye(4)[3], np.eye(4)[0]
    decision = Decision(5.0, np.array([0.5, 0.5]))
    with pytest.raises(DomainError):
        scalar_excess(inst, bad, decision)
    with pytest.raises(DomainError):
        evaluator.excess(evaluator.stack(bad), decision)
    assert evaluator.excess(evaluator.stack(good), decision).tolist() == [
        scalar_excess(inst, good, decision)
    ]
    with pytest.raises(DomainError, match="row 1"):
        evaluator.excess(evaluator.stack(np.array([good, bad])), decision)
