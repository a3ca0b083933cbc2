"""The closed-form worst-case shortage, the comonotonic coupling of the
block aggregates, against the LP over the consistency polytope."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from nvgames.distributions import DiscreteMarginal, Instance, get_polytope
from nvgames.newsvendor import comonotonic_coupling, worst_case_shortage

from oracles import consistency_gap, lp_worst_case_shortage


@st.composite
def queries(draw):
    """One to three blocks of one or two retailers with up to three atoms
    each. Atoms are small integers, so duplicates and zero demands are
    common; integer weights make some atoms zero-probability. The coalition
    often misses whole blocks, and the order runs from 0 to 2 past the
    largest grand demand."""
    partition, marginals = [], []
    for _ in range(draw(st.integers(1, 3))):
        dim, k = draw(st.integers(1, 2)), draw(st.integers(1, 3))
        atoms = draw(st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                              min_size=k, max_size=k))
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
        first = sum(len(b) for b in partition)
        partition.append(tuple(range(first, first + dim)))
        marginals.append(DiscreteMarginal(np.array(atoms, dtype=float),
                                          np.array(weights, dtype=float) / sum(weights)))
    inst = Instance(1.5, 1.0, tuple(partition), tuple(marginals))
    mask = draw(st.integers(1, inst.grand_mask))
    # Quarter steps keep most orders strictly between the integer sums,
    # where the coupling matters.
    top = sum(int(m.atoms.sum(axis=1).max()) for m in marginals)
    return inst, mask, draw(st.integers(0, 4 * top + 8)) / 4.0


@given(queries())
def test_closed_form_matches_lp_and_its_joint_attains_it(query):
    inst, mask, y = query
    tol = 1e-12 * max(1.0, y)
    value = worst_case_shortage(inst, y, mask)
    assert abs(value - lp_worst_case_shortage(inst, y, mask)) <= tol

    poly = get_polytope(inst)
    _sums, _weights, q = comonotonic_coupling(inst, mask)
    assert np.all(q >= 0.0)
    assert consistency_gap(poly, q) <= 1e-12
    attained = float(q @ np.maximum(y - poly.coalition_demands(mask), 0.0))
    assert abs(attained - value) <= tol
