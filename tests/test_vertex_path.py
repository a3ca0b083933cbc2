"""Bit-for-bit tests of the vertex path: the whole-array tables against the
one-coalition, one-vertex rule and against the excess pass's ratios, and
the vertex enumeration from integer basis inverses against solving every
column basis."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

from nvgames import distributions, stress
from nvgames.distributions import DiscreteMarginal, FrechetPolytope, Instance, get_polytope
from nvgames.errors import DomainError, GameInvalidError
from nvgames.newsvendor import ProperCoalitions, _profit
from nvgames.robust_game import RobustGameSolver

from conftest import random_instance
from oracles import per_entry_vertex_table, per_vertex_best_orders, solved_vertex_table
from test_operators import instances
from test_robust_game import small_cfg_instance


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
    best = per_vertex_best_orders(solver)
    expect_witnesses = []
    for y in orders:
        try:
            table = solver.table(y)
        except DomainError:
            continue
        values, gammas, rows = per_entry_vertex_table(solver, best, y)
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
    # that attains its ratio: the kernel's critical-ratio quantile, and so
    # the table, takes the smaller one.
    inst = Instance(2.0, 1.0, ((0, 1), (2, 3)), (
        DiscreteMarginal([[2.0, 0.0], [1.0, 2.0]], [0.5, 0.5]),
        DiscreteMarginal([[0.0, 0.0], [0.0, 1.0]], [0.5, 0.5]),
    ))
    solver = RobustGameSolver(inst)
    y = solver.grand_wc.y_star
    table = solver.table(y)
    d_s = solver.poly.coalition_demands(0b101)
    gammas = np.unique(d_s)
    nums = _profit(inst, gammas, np.maximum(gammas[:, None] - d_s, 0.0) @ table.joints[0b101 - 1])
    assert np.count_nonzero(nums == nums.max()) > 1
    assert table.gammas[0b101 - 1] == gammas[np.argmax(nums)]
    assert_tables_match_the_per_entry_rule(RobustGameSolver(inst), [y])


def test_tied_vertices_go_to_the_least_best_order():
    # Coalition {0, 2} attains its ratio exactly at vertices 0 and 1, whose
    # best orders are 3 and 2: the entry is the least (best order, vertex)
    # over the tied vertices, vertex 1, not the first tied vertex.
    inst = Instance(2.0, 1.0, ((0, 1), (2, 3)), (
        DiscreteMarginal([[0.0, 2.0], [2.0, 2.0], [2.0, 0.0]], [0.25, 0.375, 0.375]),
        DiscreteMarginal([[0.0, 0.0], [1.0, 2.0]], [0.25, 0.75]),
    ))
    solver = RobustGameSolver(inst)
    y = solver.grand_wc.y_star
    table = solver.table(y)
    verts = solver.poly.vertices()
    coalitions = ProperCoalitions(inst)
    i = 0b101 - 1
    orders, profits = coalitions.best_orders(verts)
    ratios = profits[:, i] / coalitions.grand_profits(y, verts)
    tied = np.flatnonzero(ratios == ratios.max())
    assert tied[:2].tolist() == [0, 1] and orders[tied[:2], i].tolist() == [3.0, 2.0]
    assert table_rows(verts, [table.joints[i]]) == [1]
    assert table.gammas[i] == 2.0
    assert_tables_match_the_per_entry_rule(RobustGameSolver(inst), [y])


def assert_entries_are_excess_ratios(solver: RobustGameSolver, decision) -> None:
    """Every entry of the table at the decision's order, bit for bit, the
    excess pass's ratio under its own witness: the kernel's best profit over
    the grand profit at that order."""
    table = solver.table(decision.y)
    coalitions = ProperCoalitions(solver.inst)
    joints = np.array(table.joints)
    ratios = np.diagonal(coalitions.best_orders(joints)[1]) / coalitions.grand_profits(
        decision.y, joints
    )
    assert np.array_equal(bits(table.ratios), bits(ratios))


@pytest.mark.parametrize("i", [0, 1])
def test_table_entries_are_the_excess_ratios_of_their_witnesses(i):
    decision, solver = stress._solve_robust(small_cfg_instance(i))
    assert solver.poly.vertices() is not None
    assert_entries_are_excess_ratios(solver, decision)


@given(instances(n_blocks=st.integers(2, 3)))
def test_table_entries_are_the_excess_ratios_at_the_robust_decision(inst):
    assume(get_polytope(inst).vertices() is not None and inst.n_retailers > 1)
    try:
        decision, solver = stress._solve_robust(inst)
    except GameInvalidError:
        assume(False)
    assert_entries_are_excess_ratios(solver, decision)


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
