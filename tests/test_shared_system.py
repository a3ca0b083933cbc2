"""Programs derived with `with_objective` share their parent's standard
form; solving them must give exactly what freshly built programs give."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from nvgames.lp import LinearProgram, solve_lp

_LOWER = (-2.0, 0.0, 1.0)


@st.composite
def systems(draw):
    """Equality and inequality rows with small integer entries, nonzero
    lower bounds, and right-hand sides through a point above the bounds, so
    that some are negative (their phase-1 artificials are -e_i)."""
    n = draw(st.integers(1, 4))
    m_eq = draw(st.integers(0, 2))
    m_ub = draw(st.integers(0 if m_eq else 1, 3))
    entries = st.integers(-3, 3)
    a_eq = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=m_eq, max_size=m_eq)), dtype=float).reshape(m_eq, n)
    a_ub = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=m_ub, max_size=m_ub)), dtype=float).reshape(m_ub, n)
    lb = np.array(draw(st.lists(st.sampled_from(_LOWER), min_size=n, max_size=n)))
    x0 = lb + np.array(
        draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), dtype=float
    )
    b_eq = a_eq @ x0
    b_ub = a_ub @ x0 + np.array(draw(st.lists(st.integers(0, 2), min_size=m_ub, max_size=m_ub)))
    sense = draw(st.sampled_from(("min", "max")))
    objectives = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=2, max_size=5))
    return sense, a_eq, b_eq, a_ub, b_ub, lb, [np.array(c, dtype=float) for c in objectives]


def assert_same(got, want):
    assert got.status == want.status
    assert got.iterations == want.iterations
    if want.status != "optimal":
        return
    assert got.x.tobytes() == want.x.tobytes()
    assert got.basis == want.basis
    assert got.duals.tobytes() == want.duals.tobytes()
    assert repr(got.objective_value) == repr(want.objective_value)


@given(systems())
def test_with_objective_chain_matches_fresh_programs(system):
    sense, a_eq, b_eq, a_ub, b_ub, lb, objectives = system
    data = (a_eq, b_eq, a_ub, b_ub, lb)
    copies = [v.copy() for v in data]
    parent = LinearProgram(sense, objectives[0], *data)
    chained_prev = fresh_prev = None
    for i, c in enumerate(objectives):
        child = parent if i == 0 else parent.with_objective(c)
        fresh = LinearProgram(sense, c, *(v.copy() for v in copies))
        chained, alone = solve_lp(child), solve_lp(fresh)
        assert_same(chained, alone)
        if chained_prev is not None:
            # Warm starts: the chain may reuse the previous factorization,
            # the fresh program must refactor; both give the same bits.
            assert_same(solve_lp(child, chained_prev), solve_lp(fresh, fresh_prev))
        chained_prev, fresh_prev = chained, alone
    for original, copy in zip(data, copies):
        assert original.tobytes() == copy.tobytes()
