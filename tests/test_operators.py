"""Property tests of the constraint operators against their dense forms, and
of the worst-case ratios solved over them."""

import contextlib
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, strategies as st

from nvgames import lp as lp_module
from nvgames.distributions import (
    DiscreteMarginal,
    FrechetPolytope,
    Instance,
    _incidence_rows,
    get_polytope,
    sample_extremal,
)
from nvgames.errors import DomainError, InputError
from nvgames.lp import IncidenceOperator, LinearProgram, solve_lp
from nvgames.robust_game import _DINKELBACH_TOL, RobustGameSolver

from conftest import lp_path_only, make_example1
from oracles import (
    atom_classes,
    consistency_gap,
    dense_joint,
    enumerate_vertices,
    flat_incidence_rows,
    gathered_rmatvec,
    gathered_tree_factor,
    lp_least_shortage,
)


@st.composite
def instances(draw, n_blocks=st.integers(1, 3)) -> Instance:
    """R in {1, 2, 3} blocks (or as `n_blocks` draws) of up to 4 atoms from
    a tiny grid (so atoms repeat) with integer weights that may be zero."""
    partition, marginals, start = [], [], 0
    for _ in range(draw(n_blocks)):
        dim = draw(st.integers(1, 2))
        k = draw(st.integers(1, 4))
        atoms = draw(st.lists(st.lists(st.integers(0, 2), min_size=dim, max_size=dim),
                              min_size=k, max_size=k))
        weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)
                       .filter(lambda w: sum(w) > 0))
        marginals.append(DiscreteMarginal(np.array(atoms, dtype=float),
                                          np.array(weights, dtype=float) / sum(weights)))
        partition.append(tuple(range(start, start + dim)))
        start += dim
    return Instance(2.0, 1.0, tuple(partition), tuple(marginals))


def gather_polytope(inst: Instance) -> FrechetPolytope:
    # Small operators switch to dense products; build this one to gather.
    with mock.patch.object(lp_module, "_DENSE_ENTRIES", -1):
        return FrechetPolytope(inst)


def reference_matrix(poly: FrechetPolytope) -> np.ndarray:
    """The consistency rows written out: total mass, then one indicator row
    per value class of each block except its last."""
    rows = [np.ones(poly.n_atoms)]
    for cls, probs in zip(atom_classes(poly), poly.class_probs):
        rows += [(cls == c).astype(float) for c in range(probs.size - 1)]
    return np.vstack(rows)


@given(instances(), st.integers(0, 2**32 - 1))
def test_incidence_operator_equals_its_dense_form(inst, seed):
    rng = np.random.default_rng(seed)
    poly = gather_polytope(inst)
    op = poly.matrix
    dense = np.asarray(op)
    assert np.array_equal(dense, reference_matrix(poly))
    m, n = op.shape
    assert dense.shape == (m, n)
    y, x = rng.normal(size=m), rng.normal(size=n)
    np.testing.assert_allclose(y @ op, y @ dense, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(op @ x, dense @ x, rtol=1e-12, atol=1e-12)
    ids = rng.integers(0, n, int(rng.integers(1, 2 * n + 1)))
    assert np.array_equal(op[:, ids], dense[:, ids])
    assert np.array_equal(op[:, int(ids[0])], dense[:, ids[0]])


def draw_incidence_ids(data) -> tuple[list[np.ndarray], int]:
    """(ids, m): the per-block row ids of an m-row incidence operator of
    R = 1-3 blocks of 1-4 atoms. Each block owns 0-3 rows; its atoms point
    at them or at the sentinel m, repeats allowed."""
    r = data.draw(st.integers(1, 3))
    owned = [data.draw(st.integers(0, 3)) for _ in range(r)]
    m = 1 + sum(owned)
    ids, offset = [], 1
    for n in owned:
        rows = st.sampled_from(list(range(offset, offset + n)) + [m])
        ids.append(np.array(data.draw(st.lists(rows, min_size=1, max_size=4)), dtype=np.intp))
        offset += n
    return ids, m


def gathering(ids, m) -> IncidenceOperator:
    with mock.patch.object(lp_module, "_DENSE_ENTRIES", -1):
        return IncidenceOperator(ids, m)


@given(st.data())
def test_incidence_matvec_on_a_sparse_x_keeps_the_dense_bits(data):
    # op @ x adds only x's nonzero entries. bincount adds in order from
    # +0.0, so no partial sum is -0.0 and a +-0.0 term changes none: the
    # bits are those of the bincount over every entry of the (R+1, K) ids.
    ids, m = draw_incidence_ids(data)
    rows = flat_incidence_rows(ids, m)
    value = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6, allow_nan=False))
    k = rows.shape[1]
    x = np.array(data.draw(st.lists(value, min_size=k, max_size=k)))
    want = np.bincount(rows.ravel(), weights=np.tile(x, rows.shape[0]), minlength=m + 1)[:m]
    assert (gathering(ids, m) @ x).tobytes() == want.tobytes()


@given(st.data())
def test_incidence_rmatvec_keeps_the_summed_gather_bits(data):
    # y[0], then each block's gather broadcast along its axis: the bits of
    # one gather per row of the (R+1, K) ids, added in order.
    ids, m = draw_incidence_ids(data)
    y = np.array(data.draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                                    min_size=m, max_size=m)))
    want = gathered_rmatvec(flat_incidence_rows(ids, m), y)
    assert (y @ gathering(ids, m)).tobytes() == want.tobytes()


class TestProductForm:
    """The per-block operator against the (R+1, K) row-id layout it
    replaced (`oracles.flat_incidence_rows`)."""

    @given(st.data())
    def test_columns_are_the_dense_columns(self, data):
        ids, m = draw_incidence_ids(data)
        rows = flat_incidence_rows(ids, m)
        k = rows.shape[1]
        dense = np.zeros((m + 1, k))
        dense[rows, np.arange(k)] = 1.0
        dense = dense[:m]
        op = gathering(ids, m)
        assert op.shape == dense.shape and np.array_equal(np.asarray(op), dense)
        assert np.array_equal(np.asarray(IncidenceOperator(ids, m)), dense)
        cols = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=2 * k)))
        assert np.array_equal(op[:, cols], dense[:, cols])
        assert np.array_equal(op[:, int(cols[0])], dense[:, cols[0]])

    @pytest.mark.parametrize("ids", [
        [[1, 2], [2, 3]],  # row 2 in both blocks
        [[0, 1], [2, 3]],  # the mass row named
        [[1, 4], [2, 3]],  # past the sentinel
    ])
    def test_ids_outside_their_blocks_rows_are_refused(self, ids):
        with pytest.raises(InputError, match=r"^incidence row ids must be the sentinel m or rows 1\.\.m-1 of one block$"):
            IncidenceOperator([np.array(v) for v in ids], 3)


@given(instances(), st.integers(0, 2**32 - 1))
def test_solve_on_operator_matches_dense_solve(inst, seed):
    rng = np.random.default_rng(seed)
    poly = gather_polytope(inst)
    cost = rng.uniform(-1.0, 1.0, poly.n_atoms)
    structured = solve_lp(LinearProgram("max", cost, a_eq=poly.matrix, b_eq=poly.rhs))
    dense = solve_lp(LinearProgram("max", cost, a_eq=np.asarray(poly.matrix), b_eq=poly.rhs))
    assert structured.status == dense.status == "optimal"
    assert abs(structured.objective_value - dense.objective_value) <= 1e-9


@given(instances())
def test_every_ratio_is_the_ratio_of_its_witness(inst):
    # Each spanning coalition's v_max is reported as the ratio of the
    # returned joint itself, which the cuts of the least-core search rely
    # on, and that joint is consistent: from the vertex table and from the
    # Dinkelbach LPs alike.
    for path in (contextlib.nullcontext(), lp_path_only()):
        with path:
            solver = RobustGameSolver(inst)
            y = solver.grand_wc.y_star
            try:
                table = solver.table(y)
            except DomainError:
                assume(False)  # every demand is 0: no order is admissible
        p, pc = inst.price, inst.price - inst.cost
        den = pc * y - p * np.maximum(y - solver.d_grand, 0.0)
        entries = zip(table.ratios, table.gammas, table.joints)
        for mask, (value, gamma, q) in enumerate(entries, start=1):
            if sum(1 for bm in inst.block_masks if mask & bm) < 2:
                continue
            d_s = solver.poly.coalition_demands(mask)
            num = pc * gamma - p * np.maximum(gamma - d_s, 0.0)
            ratio = (num @ q) / (den @ q)
            assert abs(value - ratio) <= 1e-15 * abs(ratio)
            assert consistency_gap(solver.poly, q) <= 1e-9


def spanning_masks(inst: Instance):
    return [mask for mask in range(1, inst.grand_mask)
            if sum(1 for bm in inst.block_masks if mask & bm) > 1]


@given(instances(n_blocks=st.just(2)))
def test_countermonotonic_shortage_is_the_least(inst):
    # For two blocks the screen's shortage at every candidate order is the
    # minimum of E_q(gamma - d_S)^+ over the consistent q. Only the LP
    # path screens.
    with lp_path_only():
        solver = RobustGameSolver(inst)
        for mask in spanning_masks(inst):
            _d_s, gammas, shortage, _start = solver._coalition_data(mask)
            for gamma, value in zip(gammas, shortage):
                assert abs(value - lp_least_shortage(inst, gamma, mask)) <= 1e-12


@given(instances(n_blocks=st.just(2)))
def test_countermonotonic_start_is_a_consistent_basis(inst):
    # The start is held as (basis, support, mass): no K-long joint. Its
    # dense joint, rebuilt here, is a consistent vertex on its basis.
    with lp_path_only():
        solver = RobustGameSolver(inst)
        starts = [solver._coalition_data(mask)[3] for mask in spanning_masks(inst)]
    poly = solver.poly
    a = np.asarray(poly.matrix)
    for basis, support, mass in starts:
        assert len(set(basis)) == len(basis) == poly.n_rows
        assert np.linalg.matrix_rank(a[:, list(basis)]) == poly.n_rows
        assert np.array_equal(support, np.sort(basis))
        assert mass.shape == support.shape
        assert np.all(mass >= 0.0)
        assert abs(mass.sum() - 1.0) <= 1e-12
        assert consistency_gap(poly, dense_joint(poly.n_atoms, support, mass)) <= 1e-12


@given(instances(n_blocks=st.integers(2, 3)))
def test_vertex_table_equals_the_brute_force_vertices(inst):
    poly = FrechetPolytope(inst)
    verts = poly.vertices()
    assume(verts is not None)
    # The table holds the vertices supported on the representative atoms
    # (every vertex when no atom repeats): the vertices of the face where
    # every other atom is 0.
    reps = np.zeros(poly.dims, dtype=bool)
    reps[np.ix_(*poly.class_reps)] = True
    reps = np.flatnonzero(reps)
    face = enumerate_vertices(np.asarray(poly.matrix)[:, reps], poly.rhs)
    oracle = np.zeros((len(face), poly.n_atoms))
    oracle[:, reps] = face
    assert not verts.flags.writeable
    assert verts.shape == oracle.shape
    gaps = np.max(np.abs(verts[:, None, :] - oracle[None, :, :]), axis=2)
    assert np.all(gaps.min(axis=0) <= 1e-9) and np.all(gaps.min(axis=1) <= 1e-9)


@given(instances(n_blocks=st.integers(2, 3)), st.integers(0, 2**32 - 1))
def test_vertex_path_agrees_with_the_lp_path(inst, seed):
    # The vertex table's ratios are exact maxima over the vertices; the
    # Dinkelbach LPs stop within their tolerance below the optimum.
    assume(get_polytope(inst).vertices() is not None)
    solver = RobustGameSolver(inst)
    y = solver.grand_wc.y_star
    try:
        table = solver.table(y)
    except DomainError:
        assume(False)  # every demand is 0: no order is admissible
    cost = np.random.default_rng(seed).uniform(-1.0, 1.0, inst.joint_size())
    with lp_path_only():
        lp_table = RobustGameSolver(inst).table(y)
        lp_sample = sample_extremal(inst, cost).q
    bound = _DINKELBACH_TOL / table.min_grand_profit
    gap = table.ratios - lp_table.ratios
    assert np.all(-1e-12 <= gap) and np.all(gap <= bound)
    assert np.max(np.abs(sample_extremal(inst, cost).q - lp_sample)) <= 1e-9


@st.composite
def spanning_trees(draw) -> tuple[int, int, np.ndarray]:
    """(a, b, edges): a spanning tree of K_{a,b}, a and b in 1..12, as its
    (class in block 0, class in block 1) edges in shuffled order. Each
    class after the first edge hangs off a drawn class of the other block
    already in the tree."""
    a, b = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    first = (draw(st.integers(0, a - 1)), draw(st.integers(0, b - 1)))
    reached = ([first[0]], [first[1]])
    rest = [(0, i) for i in range(a) if i != first[0]] + [(1, j) for j in range(b) if j != first[1]]
    edges = [first]
    for block, cls in draw(st.permutations(rest)):
        other = draw(st.sampled_from(reached[1 - block]))
        edges.append((cls, other) if block == 0 else (other, cls))
        reached[block].append(cls)
    return a, b, np.array(draw(st.permutations(edges)))


def tree_operator(a: int, b: int, edges: np.ndarray) -> tuple[IncidenceOperator, np.ndarray]:
    """(op, cols): the consistency rows of a two-block polytope of a x b
    classes whose blocks hold one atom per edge, edge i's classes, and the
    column ids of the edges, (i, i) on the product grid."""
    op = IncidenceOperator(*_incidence_rows((a, b), [edges[:, 0], edges[:, 1]]))
    return op, np.arange(len(edges)) * (len(edges) + 1)


class TestBasisInverse:
    @given(spanning_trees(), st.integers(0, 2**32 - 1))
    def test_tree_solves_are_the_inverse_products(self, tree, seed):
        op, cols = tree_operator(*tree)
        m = op.shape[0]
        with mock.patch.object(lp_module, "_TREE_ROWS", 0):
            factor = op.tree_factor(cols)
        inv = np.linalg.inv(op[:, cols])
        rng = np.random.default_rng(seed)
        # Small integers: every partial sum is exact, so are both sweeps.
        v = rng.integers(-9, 10, m).astype(float)
        assert np.array_equal(factor.solve(v), inv @ v)
        assert np.array_equal(factor.tsolve(v), v @ inv)
        # Otherwise the sweeps add the terms in another order than the
        # products: within a few ulps of the terms' magnitude.
        v = rng.normal(size=m)
        ulp = np.finfo(float).eps * np.abs(v).sum()
        assert np.abs(factor.solve(v) - inv @ v).max() <= 4 * ulp
        assert np.abs(factor.tsolve(v) - v @ inv).max() <= 4 * ulp

    @given(spanning_trees(), st.integers(0, 2**32 - 1))
    def test_tree_factor_is_the_gathered_tree(self, tree, seed):
        op, cols = tree_operator(*tree)
        m = op.shape[0]
        with mock.patch.object(lp_module, "_TREE_ROWS", 0):
            factor = op.tree_factor(cols)
        want = gathered_tree_factor(flat_incidence_rows(op.ids, m), m, cols)
        for name in want.__slots__:
            assert np.array_equal(getattr(factor, name), getattr(want, name)), name
        v = np.random.default_rng(seed).normal(size=m)
        assert factor.solve(v).tobytes() == want.solve(v).tobytes()
        assert factor.tsolve(v).tobytes() == want.tsolve(v).tobytes()

    @pytest.mark.parametrize("edges", [
        [(0, 0), (0, 1), (1, 0), (1, 1)],  # a cycle; class 2 of block 1 is unreached
        [(0, 0), (0, 0), (1, 1), (1, 2)],  # one class pair twice (repeated atoms)
    ])
    def test_a_singular_basis_is_none(self, edges):
        op, cols = tree_operator(2, 3, np.array(edges))
        assert np.linalg.matrix_rank(op[:, cols]) < op.shape[0]
        with mock.patch.object(lp_module, "_TREE_ROWS", 0):
            assert op.tree_factor(cols) is None

    @pytest.mark.parametrize("ids, m, cols", [
        ([[1, 2]], 2, [0, 1]),  # R = 1
        ([[4, 1], [4, 2], [4, 3]], 4, [0, 4, 2, 1]),  # R = 3
    ])
    def test_an_operator_that_is_not_two_block_is_none(self, ids, m, cols):
        op = IncidenceOperator([np.array(v) for v in ids], m)
        assert np.linalg.matrix_rank(op[:, cols]) == m
        with mock.patch.object(lp_module, "_TREE_ROWS", 0):
            assert op.tree_factor(cols) is None

    def test_bases_below_the_gate_are_none(self):
        op, cols = tree_operator(2, 2, np.array([(0, 0), (0, 1), (1, 1)]))
        assert op.tree_factor(cols) is None


def test_a_pivot_from_a_tree_basis_takes_lapacks_inverse(monkeypatch):
    # A 64-row two-block polytope, at the tree gate: its crash basis is
    # factorized by its tree, and the first pivot asks LAPACK for the
    # explicit inverse of that basis.
    rng = np.random.default_rng(5)
    marginals = []
    for k in (33, 32):
        weights = rng.integers(1, 5, k).astype(float)
        marginals.append(DiscreteMarginal(np.arange(1.0, k + 1)[:, None], weights / weights.sum()))
    poly = FrechetPolytope(Instance(2.0, 1.0, ((0,), (1,)), tuple(marginals)))
    m = poly.n_rows
    assert m >= lp_module._TREE_ROWS
    lp = poly.lp(rng.normal(size=poly.n_atoms))
    # Past the dense gate as well, and solved on the operator itself, which
    # is never written out: the simplex, the certificate and the
    # feasibility check use y @ op, op @ x and op[:, ids] alone, and numpy
    # defers y @ op to the operator (`__array_ufunc__ = None`).
    assert poly.matrix._dense is None
    assert lp._std.a is poly.matrix and lp._std.n == lp.n_vars

    def refuse(op, dtype=None, copy=None):
        raise AssertionError("the operator was written out densely")

    monkeypatch.setattr(IncidenceOperator, "__array__", refuse)

    events = []
    inv, tree_factor, pivot = np.linalg.inv, IncidenceOperator.tree_factor, lp_module._Simplex._pivot
    monkeypatch.setattr(np.linalg, "inv", lambda a: events.append(("inv", a.shape)) or inv(a))
    monkeypatch.setattr(IncidenceOperator, "tree_factor",
                        lambda op, ids: events.append(("tree", len(ids))) or tree_factor(op, ids))
    monkeypatch.setattr(lp_module._Simplex, "_pivot",
                        lambda sx, *args: events.append(("pivot",)) or pivot(sx, *args))
    sol = solve_lp(lp, poly.crash_basis)
    assert events[:3] == [("tree", m), ("inv", (m, m)), ("pivot",)]

    monkeypatch.setattr(lp_module, "_TREE_ROWS", m + 1)
    ref = solve_lp(lp, poly.crash_basis)
    assert sol.status == ref.status == "optimal" and sol.iterations > 0
    assert sol.basis == ref.basis
    # The tree's x_B and duals add in another order than LAPACK's products.
    eps = np.finfo(float).eps
    assert np.abs(sol.x - ref.x).max() <= 4 * eps
    assert np.abs(sol.duals - ref.duals).max() <= 4 * eps * np.abs(ref.duals).max()


def test_example1_inverts_only_the_stability_basis_through_lapack(monkeypatch, refactors):
    # One bench operation of example 1 at K=200: both 399-row polytope
    # bases come from their trees, so LAPACK sees only the stability LP's
    # 4-row basis (three players and the sum of the weights).
    inverted = []
    inv = np.linalg.inv

    def recording_inv(a):
        inverted.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    solver = RobustGameSolver(make_example1(200))
    y_wc = solver.grand_wc.y_star
    solver.table(y_wc)
    solver.sigma(y_wc)
    solver.least_core(y_tol=0.02)
    assert 399 in refactors
    assert set(inverted) == {(4, 4)}
