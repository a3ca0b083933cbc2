"""Property tests of the excess over a matrix of joints against the
per-joint loop."""

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
from nvgames.newsvendor import _CHUNK_ROWS, ProperCoalitions
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
    """An instance, a matrix of joints as rows (the independent joint
    contaminated by weight lambda in [0, 1] with an extremal vertex or with
    an arbitrary probability vector) and one or two decisions."""
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
    d_max = float(np.max(ProperCoalitions(inst).d_grand))
    decisions = []
    for _ in range(draw(st.integers(1, 2))):
        z = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                          .filter(lambda w: sum(w) > 0)), dtype=float)
        decisions.append(Decision(draw(st.floats(0.0, 1.5)) * d_max, z / z.sum()))
    return inst, np.array(rows), decisions


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


@given(cases())
def test_stacked_excess_equals_per_joint_loop(case):
    # The drawn rows repeat past the first chunk, so the rows on either side
    # of a chunk boundary keep their one-joint bits too.
    inst, qs, decisions = case
    evaluator = ExcessEvaluator(ProperCoalitions(inst))
    expected = np.array([[oracle_excess(inst, q, d) for q in qs] for d in decisions])
    repeats = _CHUNK_ROWS // len(qs) + 1
    stacked = evaluator.excess(np.tile(qs, (repeats, 1)), decisions)
    assert stacked.shape == (len(decisions), repeats * len(qs))
    assert bits(stacked) == bits(np.tile(expected, repeats))
    for q, column in zip(qs, expected.T):
        assert bits(evaluator.excess(q, decisions)) == bits(column[:, None])


def oracle_excess(inst, q, decision) -> float:
    """`scalar_excess`, with NaN where it raises DomainError."""
    try:
        return scalar_excess(inst, q, decision)
    except DomainError:
        return np.nan


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
    assert np.isnan(evaluator.excess(bad, [decision])).tolist() == [[True]]
    good_value = scalar_excess(inst, good, decision)
    assert evaluator.excess(good, [decision]).tolist() == [[good_value]]
    values = evaluator.excess(np.array([good, bad]), [decision])
    assert values[0, 0] == good_value and np.isnan(values[0, 1])
