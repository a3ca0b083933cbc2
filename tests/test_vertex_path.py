"""Bit-for-bit tests of the vertex path: the whole-array tables against the
one-coalition ratio matrix they replaced, and the vertex enumeration from
integer basis inverses against solving every column basis."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

from nvgames import distributions
from nvgames.distributions import DiscreteMarginal, FrechetPolytope, Instance, get_polytope
from nvgames.errors import DomainError
from nvgames.robust_game import RobustGameSolver

from conftest import random_instance
from oracles import per_entry_vertex_table, solved_vertex_table
from test_operators import instances


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


def table_rows(verts: np.ndarray, joints) -> list[int]:
    """The vertex table row of each joint, every one a row of the table."""
    return [int(np.flatnonzero(np.all(verts == q, axis=1))[0]) for q in joints]


def assert_tables_match_the_per_entry_rule(solver: RobustGameSolver, orders) -> None:
    """Tables at every admissible order in `orders`, in that order: each
    value, order and witness row bit for bit that of the per-entry rule,
    each `vmax` the one-row case, and the witnesses the distinct rows in
    build order."""
    verts = solver.poly.vertices()
    expect_witnesses = []
    for y in orders:
        try:
            table = solver.table(y)
        except DomainError:
            continue
        values, gammas, rows = per_entry_vertex_table(solver, y)
        assert np.array_equal(bits(table.ratios), bits(values))
        assert np.array_equal(bits(table.gammas), bits(gammas))
        assert table_rows(verts, table.joints) == rows.tolist()
        for mask in range(1, solver.inst.grand_mask):
            entry = solver.vmax(y, mask)
            assert bits([entry.value, entry.gamma]).tolist() == bits(
                [values[mask - 1], gammas[mask - 1]]).tolist()
            assert entry.q is table.joints[mask - 1]
        for r in rows.tolist():
            if r not in expect_witnesses:
                expect_witnesses.append(r)
    assert table_rows(verts, solver.witnesses) == expect_witnesses


@given(instances(n_blocks=st.integers(2, 3)))
def test_tables_equal_the_per_entry_rule(inst):
    # Weights 0..3 over their sum at p = 2, c = 1 (critical ratio 1/2) make
    # degenerate vertices, repeated atoms, numerators equal across orders
    # and numerators a rounding apart.
    solver = RobustGameSolver(inst)
    assume(solver.poly.vertices() is not None and inst.n_retailers > 1)
    y = solver.grand_wc.y_star
    assert_tables_match_the_per_entry_rule(solver, [y, 0.7 * y, 1.3 * y, y])


def test_equal_numerators_go_to_the_smaller_order():
    # Coalition {0, 2} has the same numerator at two orders on the vertex
    # that attains its ratio: the smaller order wins, as in row-major order.
    inst = Instance(2.0, 1.0, ((0, 1), (2, 3)), (
        DiscreteMarginal([[2.0, 0.0], [1.0, 2.0]], [0.5, 0.5]),
        DiscreteMarginal([[0.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
    ))
    solver = RobustGameSolver(inst)
    y = solver.grand_wc.y_star
    table = solver.table(y)
    data = solver._vertex_numerators()
    v = table_rows(solver.poly.vertices(), table.joints)[0b101 - 1]
    nums = data.rows[data.start[4] : data.start[5]] @ solver.poly.vertices()[v]
    assert np.count_nonzero(nums == nums.max()) > 1
    assert table.gammas[0b101 - 1] == data.gammas[data.start[4] + np.argmax(nums)]
    assert_tables_match_the_per_entry_rule(RobustGameSolver(inst), [y])


def test_a_smaller_order_rounding_to_the_maximum_goes_to_the_least_best_order():
    # At 1.3 times the worst-case order, coalition {1, 2, 3} has a tied
    # vertex where an order before its best one has a numerator below the
    # best, yet a ratio that rounds to the same maximum, so the row-major
    # first of its ratio matrix is another (order, vertex). The entry is
    # the least (best order, vertex) over the tied vertices, whose ratio in
    # that matrix has the bits of its maximum; the table reports that
    # vertex's own ratio, as the per-entry rule does.
    inst = Instance(2.0, 1.0, ((0, 1), (2, 3)), (
        DiscreteMarginal([[1.0, 1.0], [0.0, 1.0], [2.0, 2.0]], np.array([1.0, 3.0, 2.0]) / 6.0),
        DiscreteMarginal([[0.0, 1.0], [1.0, 2.0], [1.0, 0.0], [1.0, 2.0]],
                         np.array([1.0, 1.0, 2.0, 2.0]) / 6.0),
    ))
    solver = RobustGameSolver(inst)
    y = 1.3 * solver.grand_wc.y_star
    table = solver.table(y)
    data = solver._vertex_numerators()
    verts = solver.poly.vertices()
    _den, grand = solver._grand_at(y)
    i = 0b1110 - 1
    full = (data.rows[data.start[i] : data.start[i + 1]] @ verts.T) / grand
    tied = np.flatnonzero(np.max(full, axis=0) == full.max())
    g, v = min((int(data.arg[i, v]), int(v)) for v in tied)
    assert divmod(int(np.argmax(full)), grand.size) != (g, v)
    assert table_rows(verts, [table.joints[i]]) == [v]
    assert table.gammas[i] == data.gammas[data.start[i] + g]
    assert bits([full[g, v]]).tolist() == bits([full.max()]).tolist()
    assert_tables_match_the_per_entry_rule(RobustGameSolver(inst), [y])


@given(instances(n_blocks=st.integers(2, 3)))
def test_vertices_equal_the_solve_of_every_basis(inst):
    # Two blocks screen with the integer inverses, three with the solve;
    # both solve only the kept bases, and every bit matches.
    poly = FrechetPolytope(inst)
    assume(poly.vertices() is not None)
    assume(int(np.prod(poly.class_counts)) > poly.n_rows)  # not a single point
    assert np.array_equal(bits(poly.vertices()), bits(solved_vertex_table(poly)))


def test_a_screen_too_close_to_call_solves_every_basis():
    # With every screened entry taken as too close to the thresholds, the
    # enumeration falls back to solving every basis: the same table.
    inst = random_instance(4, n=6, block_sizes=(3, 3), atoms_per_block=(4, 4))
    expect = get_polytope(inst).vertices()
    solve = np.linalg.solve
    counts = []

    def counted(a, b):
        counts.append(a.shape[0])
        return solve(a, b)

    with mock.patch.object(distributions, "_SCREEN_MARGIN", 1.0), \
            mock.patch.object(np.linalg, "solve", counted):
        verts = FrechetPolytope(inst).vertices()
    assert np.array_equal(bits(verts), bits(expect))
    bases = distributions._column_bases(get_polytope(inst).class_counts)[1]
    assert sum(counts) == bases.shape[0] + verts.shape[0]


@pytest.mark.parametrize("counts", [(2, 2), (3, 4), (4, 4), (2, 9), (3, 6)])
def test_two_block_inverses_are_integral(counts):
    # Hoffman-Kruskal: every basis inverse of a two-block class product
    # has its entries in {-1, 0, 1}.
    a, bases, inv = distributions._column_bases(counts)
    assert inv.dtype == np.int8 and inv.shape == (bases.shape[0],) + (a.shape[0],) * 2
    assert not inv.flags.writeable
    assert set(np.unique(inv).tolist()) <= {-1, 0, 1}
    eye = np.eye(a.shape[0])
    for i in range(0, bases.shape[0], 97):
        assert np.array_equal(a[:, bases[i]] @ inv[i], eye)


@pytest.mark.parametrize("counts", [(2, 2, 2), (2, 3, 2)])
def test_three_block_inverses_are_refused(counts):
    assert distributions._column_bases(counts)[2] is None
