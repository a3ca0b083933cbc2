import numpy as np
import pytest

from nvgames import coop
from nvgames import lp as lp_module
from nvgames.distributions import FrechetPolytope, _incidence_rows, independent_joint
from nvgames.errors import InputError, SolverError
from nvgames.lp import FEAS_TOL, IncidenceOperator, LinearProgram, solve_lp
from nvgames.robust_game import RobustGameSolver
from nvgames.stress import run_stress

from conftest import lp_path_only, make_example1, random_instance
from test_stress import small_cfg
from oracles import (
    active_set_vertices,
    column_basis_vertices,
    dual_objective_offset,
    oracle_solve_lp,
    standard_form_dual,
)


def random_lp(rng: np.random.Generator) -> LinearProgram:
    n = int(rng.integers(1, 4))
    m_eq = int(rng.integers(0, 2))
    m_ub = int(rng.integers(0, 4 - m_eq))
    sense = "min" if rng.random() < 0.5 else "max"
    c = rng.integers(-4, 5, n).astype(float)
    a_eq = rng.integers(-3, 4, (m_eq, n)).astype(float) if m_eq else None
    a_ub = rng.integers(-3, 4, (m_ub, n)).astype(float) if m_ub else None
    # Right-hand sides through a random nonnegative point keep feasibility common.
    x0 = rng.integers(0, 4, n).astype(float)
    b_eq = a_eq @ x0 if m_eq else None
    b_ub = a_ub @ x0 + rng.integers(0, 3, m_ub) if m_ub else None
    lb = np.where(rng.random(n) < 0.25, -rng.integers(1, 4, n).astype(float), 0.0)
    return LinearProgram(sense, c, a_eq, b_eq, a_ub, b_ub, lb)


def random_polytope_lp(rng: np.random.Generator) -> LinearProgram:
    """An LP over a two-block polytope of 1-3 x 1-3 classes: each block's
    atoms are one per class and up to two repeated ones, so the product
    grid repeats class pairs, marginals with zero weights allowed."""
    counts = tuple(int(c) for c in rng.integers(1, 4, 2))
    classes = [np.append(np.arange(c), rng.integers(0, c, rng.integers(0, 3))) for c in counts]
    ids, m = _incidence_rows(counts, classes)
    probs = [rng.integers(0, 4, c).astype(float) + (np.arange(c) == 0) for c in counts]
    rhs = np.concatenate([[1.0]] + [p[:-1] / p.sum() for p in probs])
    sense = "min" if rng.random() < 0.5 else "max"
    c = rng.integers(-4, 5, classes[0].size * classes[1].size).astype(float)
    return LinearProgram(sense, c, a_eq=IncidenceOperator(ids, m), b_eq=rhs)


def is_vertex_of(x: np.ndarray, vertices) -> bool:
    return any(np.max(np.abs(x - v)) <= 1e-6 for v in vertices)


class TestSupport:
    def test_recover_x_works_in_place_and_gives_no_negative_zero(self):
        # Without a finite nonzero lower bound the standard form holds no
        # shift vector; x is still z plus 0.0, so a -0.0 comes out +0.0.
        plain = LinearProgram("min", [1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        assert plain._std.shift is None and plain._std.row_shift is None
        z = np.array([-0.0, 1.0])
        x = plain._std.recover_x(z)
        assert np.shares_memory(x, z)
        assert x.tobytes() == np.array([0.0, 1.0]).tobytes()
        # x_0 >= -1 and x_1 >= 2: the shift is added on z itself, and x_2's
        # -0.0 still comes out +0.0.
        lp = LinearProgram("min", [1.0, 1.0, 1.0], a_eq=[[1.0, 1.0, 1.0]], b_eq=[3.0],
                           lower_bounds=[-1.0, 2.0, 0.0])
        assert lp._std.shift.tolist() == [-1.0, 2.0, 0.0]
        z = np.array([0.25, 0.5, -0.0])
        x = lp._std.recover_x(z)
        assert np.shares_memory(x, z)
        assert x.tobytes() == np.array([-0.75, 2.5, 0.0]).tobytes()

    def test_support_dot_reads_only_the_support(self):
        # Every entry off the support is NaN, in the K-vector and in x
        # alike: the product is still the one over the support.
        rng = np.random.default_rng(3)
        support = np.sort(rng.choice(20_000, 399, replace=False))
        v, x = np.full(20_000, np.nan), np.full(20_000, np.nan)
        v[support], x[support] = rng.normal(size=399), rng.random(399)
        got = lp_module.support_dot(v, x, support)
        assert got == float(v[support] @ x[support])
        clean_v, clean_x = np.nan_to_num(v), np.nan_to_num(x)
        assert abs(got - float(clean_v @ clean_x)) <= 1e-12 * float(np.abs(clean_v) @ clean_x)

    def test_x_is_zero_off_its_support(self):
        # Shifted lower bounds, slack rows and polytope programs: the
        # support is ascending, lies among the variables and holds every
        # nonzero of x, and the objective value is its product.
        rng = np.random.default_rng(8)
        solved = 0
        for i in range(300):
            lp = random_lp(rng) if i % 3 else random_polytope_lp(rng)
            n = lp.n_vars
            shifted = rng.random(n) < 0.3
            lp = LinearProgram(lp.sense, lp.objective, lp.a_eq, lp.b_eq, lp.a_ub, lp.b_ub,
                               np.where(shifted, rng.choice([-2.0, 1.0], n), lp.lower_bounds))
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            solved += 1
            support = sol.support
            assert np.all(np.diff(support) > 0)
            assert support.size == 0 or 0 <= support[0] <= support[-1] < n
            off = np.ones(n, dtype=bool)
            off[support] = False
            assert not np.any(sol.x[off])
            assert sol.objective_value == lp_module.support_dot(lp.objective, sol.x, support)
            assert abs(sol.objective_value - float(lp.objective @ sol.x)) <= 1e-12
        assert solved > 100


class TestSpecExamples:
    def test_equality_pinned_variable(self):
        sol = solve_lp(LinearProgram("min", [1.0], a_eq=[[1.0]], b_eq=[5.0]))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([5.0])
        assert sol.objective_value == pytest.approx(5.0)

    def test_returns_vertex_never_midpoint(self):
        lp = LinearProgram("max", [1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0)
        assert sorted(sol.x) == pytest.approx([0.0, 1.0])


class TestStatusClassification:
    def test_infeasible(self):
        for b_eq in ([1.0, 2.0], [-1.0, -2.0]):
            lp = LinearProgram("min", [1.0], a_eq=[[1.0], [1.0]], b_eq=b_eq)
            assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram("max", [1.0], a_ub=[[-1.0]], b_ub=[0.0])
        assert solve_lp(lp).status == "unbounded"

    def test_a_system_without_rows(self, refactors):
        # The empty basis is factorized like any other: a 0 x 0 inverse.
        sol = solve_lp(LinearProgram("min", [1.0, 0.0]))
        assert sol.status == "optimal"
        assert np.array_equal(sol.x, [0.0, 0.0]) and sol.objective_value == 0.0
        assert sol.basis == () and sol.duals.size == 0 and sol.support.size == 0
        assert solve_lp(LinearProgram("min", [-1.0])).status == "unbounded"
        assert refactors == [0, 0]

    def test_redundant_rows_are_dropped(self):
        # Both right-hand-side signs, and a duplicate row of opposite sign.
        for a_eq, b_eq in (
            ([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0]),
            ([[-1.0, -1.0], [-2.0, -2.0]], [-1.0, -2.0]),
            ([[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0]),
        ):
            sol = solve_lp(LinearProgram("min", [1.0, 1.0], a_eq=a_eq, b_eq=b_eq))
            assert sol.status == "optimal"
            assert sol.objective_value == pytest.approx(1.0)

    def test_dimension_mismatch_is_input_error(self):
        with pytest.raises(InputError):
            LinearProgram("min", [1.0, 2.0], a_eq=[[1.0]], b_eq=[1.0])
        with pytest.raises(InputError):
            LinearProgram("min", [1.0], a_eq=[[1.0]], b_eq=[1.0, 2.0])
        with pytest.raises(InputError):
            LinearProgram("min", [1.0], b_eq=None, a_eq=None, b_ub=[np.inf], a_ub=[[1.0]])


class TestOptimalInvariants:
    def test_residuals_and_objective_consistency(self):
        rng = np.random.default_rng(1)
        checked = 0
        for _ in range(120):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            checked += 1
            x = sol.x
            if lp.a_eq.shape[0]:
                assert np.max(np.abs(lp.a_eq @ x - lp.b_eq)) <= 1e-8
            if lp.a_ub.shape[0]:
                assert np.max(lp.a_ub @ x - lp.b_ub) <= 1e-8
            assert np.all(x >= lp.lower_bounds - 1e-10)
            assert abs(sol.objective_value - float(lp.objective @ x)) <= 1e-8
            # The duals price the shifted right-hand sides (strong duality).
            shift = lp.lower_bounds
            rows = np.vstack([lp.a_eq, lp.a_ub])
            rhs = np.concatenate([lp.b_eq, lp.b_ub]) - rows @ shift
            dual_value = sol.duals @ rhs + lp.objective @ shift
            assert abs(sol.objective_value - dual_value) <= 1e-8
        assert checked > 40

    def test_against_brute_force(self, monkeypatch):
        # Refactoring after every pivot also inverts bases that hold the
        # phase-1 artificials of negative right-hand sides. With the tree
        # gate at 0, every two-block polytope basis without artificials is
        # factorized by its tree: the periodic and final refactorizations
        # and the warm starts from the previous solve's basis.
        monkeypatch.setattr(lp_module, "_TREE_ROWS", 0)
        trees = []
        tree_factor = IncidenceOperator.tree_factor

        def recording_tree_factor(op, ids):
            tree = tree_factor(op, ids)
            trees.append(tree is not None)
            return tree

        monkeypatch.setattr(IncidenceOperator, "tree_factor", recording_tree_factor)
        for refactor_every in (lp_module._REFACTOR_EVERY, 1):
            monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", refactor_every)
            rng = np.random.default_rng(2)
            agreements = 0
            for _ in range(150):
                lp = random_lp(rng)
                status, value, vertices = oracle_solve_lp(lp)
                sol = solve_lp(lp)
                assert sol.status == status
                if status == "optimal":
                    assert sol.objective_value == pytest.approx(value, abs=1e-7)
                    assert is_vertex_of(sol.x, vertices)
                    agreements += 1
            assert agreements > 40
            assert not trees
            for _ in range(40):
                lp = random_polytope_lp(rng)
                status, value, vertices = oracle_solve_lp(lp)
                assert status == "optimal"
                sol = solve_lp(lp)
                for again in (lp.with_objective(-lp.objective), lp):
                    for start in (None, sol):
                        sol = solve_lp(again, start)
                        assert sol.status == "optimal"
                        assert is_vertex_of(sol.x, vertices)
                assert sol.objective_value == pytest.approx(value, abs=1e-7)
            assert len(trees) > 150 and all(trees)
            del trees[:]

    def test_the_vertex_enumerators_agree(self):
        # The column-basis oracle, which `oracle_solve_lp` takes for
        # equality rows and zero lower bounds, against the active-set one:
        # polytopes of up to 12 atoms with repeated classes, and dense
        # systems with right-hand sides through a point x >= 0, some with a
        # repeated row (rank below the row count) and some without rows.
        rng = np.random.default_rng(7)
        systems = []
        while len(systems) < 20:
            lp = random_polytope_lp(rng)
            if lp.n_vars <= 12:  # C(12, 7) active sets at most
                systems.append((np.asarray(lp.a_eq), lp.b_eq))
        for _ in range(60):
            n, m = int(rng.integers(1, 6)), int(rng.integers(0, 4))
            a = rng.integers(-3, 4, (m, n)).astype(float)
            if m and rng.random() < 0.3:
                a = np.vstack([a, a[:1]])
            systems.append((a, a @ rng.integers(0, 3, n).astype(float)))
        found = 0
        for a, b in systems:
            by_columns, by_active_sets = column_basis_vertices(a, b), active_set_vertices(a, b)
            assert len(by_columns) == len(by_active_sets)
            assert all(is_vertex_of(x, by_active_sets) for x in by_columns)
            found += len(by_columns)
        assert found > 200

    def test_strong_duality_via_independent_dual_solve(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(150):
            lp = random_lp(rng)
            if lp.a_eq.shape[0] + lp.a_ub.shape[0] == 0:
                continue  # trivial dual: nothing to cross-check
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            dual = standard_form_dual(lp)
            dstatus, dvalue, _ = oracle_solve_lp(dual)
            assert dstatus == "optimal"
            if np.max(np.abs(dvalue)) > 1e5:
                continue  # hit the artificial box; uninformative draw
            primal_min = sol.objective_value if lp.sense == "min" else -sol.objective_value
            assert primal_min == pytest.approx(dvalue + dual_objective_offset(lp), abs=1e-7)
            checked += 1
        assert checked > 40


class TestDeterminismAndStability:
    def test_row_permutation_preserves_objective(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "optimal" or lp.a_ub.shape[0] < 2:
                continue
            perm = rng.permutation(lp.a_ub.shape[0])
            permuted = LinearProgram(
                lp.sense, lp.objective, lp.a_eq, lp.b_eq,
                lp.a_ub[perm], lp.b_ub[perm], lp.lower_bounds,
            )
            sol2 = solve_lp(permuted)
            assert sol2.status == "optimal"
            assert abs(sol2.objective_value - sol.objective_value) <= 1e-9

    def test_identical_inputs_identical_outputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lp = random_lp(rng)
            s1, s2 = solve_lp(lp), solve_lp(lp)
            assert s1.status == s2.status
            if s1.status == "optimal":
                assert np.array_equal(s1.x, s2.x)
                assert s1.basis == s2.basis

    def test_degenerate_transportation_terminates(self):
        # 3x3 transportation with heavily tied margins; many degenerate bases.
        margins = np.array([1.0, 1.0, 1.0]) / 3.0
        rows = []
        for i in range(3):
            r = np.zeros(9)
            r[3 * i : 3 * i + 3] = 1.0
            rows.append(r)
        for j in range(3):
            r = np.zeros(9)
            r[j::3] = 1.0
            rows.append(r)
        cost = np.array([1, 2, 3, 2, 3, 1, 3, 1, 2], dtype=float)
        lp = LinearProgram(
            "min", cost, a_eq=np.array(rows), b_eq=np.concatenate([margins, margins])
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0)

    def test_warm_start_reproduces_optimum(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            lp = random_lp(rng)
            sol = solve_lp(lp)
            if sol.status != "optimal":
                continue
            warm = solve_lp(lp, start_basis=sol.basis)
            assert warm.status == "optimal"
            assert warm.objective_value == pytest.approx(sol.objective_value, abs=1e-9)
            # A warm start from the optimal basis should not pivot at all.
            assert warm.iterations == 0

    def test_with_objective_shares_constraints(self):
        lp = LinearProgram("max", [1.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        lp2 = lp.with_objective([0.0, 1.0])
        for name in ("a_eq", "b_eq", "a_ub", "b_ub", "lower_bounds"):
            assert getattr(lp2, name) is getattr(lp, name)
        assert list(lp.objective) == [1.0, 0.0]
        s1, s2 = solve_lp(lp), solve_lp(lp2)
        assert s1.x == pytest.approx([1.0, 0.0])
        assert s2.x == pytest.approx([0.0, 1.0])

    @pytest.mark.parametrize("objective", [[0.0, np.inf], [np.nan, 1.0], [1.0], [1.0, 2.0, 3.0],
                                           [[1.0, 2.0]]])
    def test_with_objective_checks_the_new_objective(self, objective):
        lp = LinearProgram("max", [1.0, 0.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
        with pytest.raises(InputError):
            lp.with_objective(objective)


def stop_at_start(self, c_work):
    # A simplex that declares its start basis optimal without pricing.
    self.y = self._basic_cost(c_work) @ self.b_inv
    return "optimal"


class TestCertificate:
    def test_forged_nonoptimal_basis_is_rejected(self, monkeypatch):
        # A simplex that stops at once "optimal" at the start basis {x2}:
        # feasible, but x1 is cheaper, so its reduced cost is -1.
        monkeypatch.setattr(lp_module._Simplex, "_run", stop_at_start)
        lp = LinearProgram("min", [1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(SolverError, match="reduced cost"):
            solve_lp(lp, start_basis=[1])

    def test_forged_basis_of_a_derived_program_is_rejected(self, monkeypatch):
        # The same forgery on a with_objective child, which shares its
        # parent's standard form: it is certified all the same.
        monkeypatch.setattr(lp_module._Simplex, "_run", stop_at_start)
        parent = LinearProgram("min", [0.0, 0.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(SolverError, match="reduced cost"):
            solve_lp(parent.with_objective([1.0, 2.0]), start_basis=[1])


def transportation_lp(k: int, seed: int) -> LinearProgram:
    """k x k transportation problem with uniform margins (total mass, then
    all row and column sums but the implied last ones): every vertex is
    highly degenerate."""
    rows = [np.ones(k * k)]
    rows += [np.kron(np.eye(k)[i], np.ones(k)) for i in range(k - 1)]
    rows += [np.kron(np.ones(k), np.eye(k)[j]) for j in range(k - 1)]
    b = np.r_[1.0, np.full(2 * (k - 1), 1.0 / k)]
    cost = np.random.default_rng(seed).integers(0, 4, k * k).astype(float)
    return LinearProgram("min", cost, a_eq=np.array(rows), b_eq=b)


class TestBlandSwitch:
    def test_switch_after_exactly_the_threshold(self):
        # One row and 60 columns: the former threshold of 2*(m+n)
        # degenerate pivots would be 122 here, and it grew to 80 800 on the
        # K=200 polytope, where it could never fire.
        lp = LinearProgram("min", np.ones(60), a_eq=[np.ones(60)], b_eq=[1.0])
        sx = lp_module._Simplex(lp)
        assert sx.solve([0]) == "optimal"
        unit = np.array([1.0])

        def degenerate_pivots(count):
            for _ in range(count):
                sx._pivot(0, 0, unit, 0.0)

        degenerate_pivots(lp_module._BLAND_AFTER - 1)
        sx._pivot(0, 0, unit, 0.5)  # a real step ends the run
        degenerate_pivots(lp_module._BLAND_AFTER - 1)
        assert not sx._bland
        degenerate_pivots(1)
        assert sx._bland

    @pytest.mark.parametrize("seed", range(4))
    def test_forced_bland_reaches_the_same_optimum(self, monkeypatch, seed):
        lp = transportation_lp(4, seed)
        dantzig = solve_lp(lp)
        switched = []
        pivot = lp_module._Simplex._pivot

        def watched(self, *args):
            pivot(self, *args)
            switched.append(self._bland)

        monkeypatch.setattr(lp_module, "_BLAND_AFTER", 1)
        monkeypatch.setattr(lp_module._Simplex, "_pivot", watched)
        bland = solve_lp(lp)
        assert any(switched)
        assert bland.status == dantzig.status == "optimal"
        assert bland.objective_value == pytest.approx(dantzig.objective_value, abs=1e-12)


class TestFactorizationReuse:
    def test_reuse_is_bit_identical_and_skips_the_inverse(self, monkeypatch):
        inverses = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverses.append(1) or inv(a))
        poly = FrechetPolytope(random_instance(9, n=4, block_sizes=(2, 2), atoms_per_block=(4, 3)))
        rng = np.random.default_rng(9)
        first = solve_lp(poly.lp(rng.uniform(-1, 1, poly.n_atoms)), poly.crash_basis)
        assert first.factor is not None
        lp2 = poly.lp(rng.uniform(-1, 1, poly.n_atoms))

        del inverses[:]
        fresh = solve_lp(lp2, first.basis)
        refactored = len(inverses)
        del inverses[:]
        reused = solve_lp(lp2, first)
        assert len(inverses) == refactored - 1
        assert np.array_equal(reused.x, fresh.x)
        assert np.array_equal(reused.duals, fresh.duals)
        assert reused.basis == fresh.basis

        # A factorization of another operator object is never borrowed.
        other = FrechetPolytope(random_instance(9, n=4, block_sizes=(2, 2), atoms_per_block=(4, 3)))
        del inverses[:]
        again = solve_lp(other.lp(lp2.objective), first)
        assert len(inverses) == refactored
        assert np.array_equal(again.x, fresh.x)

    def test_a_tree_factor_is_reused_bit_for_bit(self, monkeypatch):
        # A two-block basis is factorized by its tree, which the solution
        # hands over in place of an inverse.
        monkeypatch.setattr(lp_module, "_TREE_ROWS", 0)
        trees = []
        tree_factor = IncidenceOperator.tree_factor
        monkeypatch.setattr(IncidenceOperator, "tree_factor",
                            lambda op, ids: trees.append(1) or tree_factor(op, ids))
        poly = FrechetPolytope(random_instance(9, n=4, block_sizes=(2, 2), atoms_per_block=(4, 3)))
        rng = np.random.default_rng(9)
        first = solve_lp(poly.lp(rng.uniform(-1, 1, poly.n_atoms)), poly.crash_basis)
        assert first.factor.tree is not None and first.factor.b_inv is None
        lp2 = poly.lp(rng.uniform(-1, 1, poly.n_atoms))

        del trees[:]
        fresh = solve_lp(lp2, first.basis)
        refactored = len(trees)
        del trees[:]
        reused = solve_lp(lp2, first)
        assert len(trees) == refactored - 1
        assert np.array_equal(reused.x, fresh.x)
        assert np.array_equal(reused.duals, fresh.duals)
        assert reused.basis == fresh.basis


class TestFactorRefusals:
    """`solve_lp` refuses a start that is not a nonsingular basis, each case
    by its own check, and falls back to the cold start: phase 1 runs
    first."""

    @pytest.fixture
    def singular(self, monkeypatch) -> list:
        """The shapes of the bases LAPACK reports singular."""
        shapes = []
        inv = np.linalg.inv

        def recording_inv(a):
            try:
                return inv(a)
            except np.linalg.LinAlgError:
                shapes.append(a.shape)
                raise

        monkeypatch.setattr(np.linalg, "inv", recording_inv)
        return shapes

    @pytest.mark.parametrize("basis", [(), (0,), (0, 0), (0, 2), (-1, 0)],
                             ids=["empty", "short", "repeated", "past-the-end", "negative"])
    def test_a_malformed_basis_is_refused_unfactorized(self, refactors, simplex_phases, basis):
        # The solve factorizes just what the cold solve does.
        lp = LinearProgram("min", [1.0, 2.0], a_eq=[[1.0, 1.0], [1.0, -1.0]], b_eq=[1.0, 0.0])
        cold = solve_lp(lp)
        cold_refactors = refactors[:]
        del refactors[:], simplex_phases[:]
        assert solve_lp(lp, basis).basis == cold.basis
        assert simplex_phases[0] == 1 and refactors == cold_refactors

    def test_a_singular_dense_basis_is_refused_by_lapack(
        self, refactors, simplex_phases, singular
    ):
        lp = LinearProgram("min", [1.0, 1.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
        assert solve_lp(lp, (0, 1)).status == "optimal"
        assert refactors[0] == 2 and singular == [(2, 2)] and simplex_phases[0] == 1

    def test_a_two_block_cycle_is_refused_by_the_tree_then_lapack(
        self, monkeypatch, refactors, simplex_phases, singular
    ):
        # The four columns (0, 0), (0, 1), (1, 0), (1, 1) of a 2 x 3
        # polytope: a cycle, which leaves class 2 of block 1 out.
        monkeypatch.setattr(lp_module, "_TREE_ROWS", 0)
        trees = []
        tree_factor = IncidenceOperator.tree_factor
        monkeypatch.setattr(IncidenceOperator, "tree_factor",
                            lambda op, ids: trees.append(tree_factor(op, ids)) or trees[-1])
        ids, m = _incidence_rows((2, 3), [np.arange(2), np.arange(3)])
        lp = LinearProgram("min", np.zeros(6), a_eq=IncidenceOperator(ids, m),
                           b_eq=[1.0, 0.5, 0.25, 0.25])
        assert solve_lp(lp, (0, 1, 3, 4)).status == "optimal"
        assert refactors[0] == 4 and trees[0] is None and singular == [(4, 4)]
        assert simplex_phases[0] == 1


def shifted_recovery(offset):
    """A `recover_x` that moves every recovered x by `offset`."""
    recover = lp_module._Standardized.recover_x
    return lambda self, z: recover(self, z) + offset


def singular_inv(a):
    raise np.linalg.LinAlgError("Singular matrix")


@pytest.fixture
def singular_after_phase_one_start(monkeypatch):
    """LAPACK's inverse fails from its second call on: the first, the
    phase-1 start of a cold solve, succeeds."""
    inv, calls = np.linalg.inv, []

    def inv_once(a):
        calls.append(a.shape)
        return (singular_inv if len(calls) > 1 else inv)(a)

    monkeypatch.setattr(np.linalg, "inv", inv_once)


class TestRuntimeChecks:
    """Every check `solve_lp` makes of the simplex, fired through `solve_lp`
    on a forged internal."""

    @pytest.mark.parametrize("lp, offset, message", [
        (LinearProgram("min", [1.0], a_eq=[[1.0]], b_eq=[1.0]), 1.0, "equality residual"),
        (LinearProgram("max", [1.0], a_ub=[[1.0]], b_ub=[1.0]), 1.0, "inequality violation"),
        (LinearProgram("min", [1.0], a_ub=[[1.0]], b_ub=[1.0]), -1.0, "bound violation"),
    ], ids=["equality", "inequality", "bound"])
    def test_infeasible_x_is_rejected(self, monkeypatch, lp, offset, message):
        monkeypatch.setattr(lp_module._Standardized, "recover_x", shifted_recovery(offset))
        with pytest.raises(SolverError, match=message):
            solve_lp(lp)

    def test_duality_gap_is_rejected(self, monkeypatch):
        # The optimal start basis {x1} with zero duals: every reduced cost
        # is nonnegative, but b'y = 0 against c'z = 1.
        def zero_duals(self, c_work):
            self.y = np.zeros(self.m)
            return "optimal"

        monkeypatch.setattr(lp_module._Simplex, "_run", zero_duals)
        lp = LinearProgram("min", [1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(SolverError, match="duality gap"):
            solve_lp(lp, start_basis=[0])

    def test_failed_phase_one_factorization(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", singular_inv)
        lp = LinearProgram("min", [1.0], a_eq=[[1.0]], b_eq=[1.0])
        with pytest.raises(SolverError, match="phase-1 factorization failed"):
            solve_lp(lp)

    def test_failed_periodic_refactorization(self, monkeypatch, singular_after_phase_one_start):
        monkeypatch.setattr(lp_module, "_REFACTOR_EVERY", 1)
        lp = LinearProgram("max", [1.0, 1.0], a_ub=[[1.0, 2.0]], b_ub=[2.0])
        with pytest.raises(SolverError, match="basis refactorization failed"):
            solve_lp(lp)

    def test_failed_final_refactorization(self, singular_after_phase_one_start):
        # Fewer pivots than `_REFACTOR_EVERY`: the final guard inverts next.
        lp = LinearProgram("max", [1.0, 1.0], a_ub=[[1.0, 2.0]], b_ub=[2.0])
        with pytest.raises(SolverError, match="final refactorization failed"):
            solve_lp(lp)

    def test_failed_refactorization_after_dropping_rows(self, singular_after_phase_one_start):
        lp = LinearProgram("min", [1.0, 1.0], a_eq=[[1.0, 1.0], [2.0, 2.0]], b_eq=[1.0, 2.0])
        with pytest.raises(SolverError, match="after dropping redundant rows"):
            solve_lp(lp)

    def test_failed_inverse_of_a_tree_basis(self, monkeypatch):
        # The crash basis is factorized by its tree, without LAPACK; the
        # first pivot asks LAPACK for the explicit inverse.
        monkeypatch.setattr(lp_module, "_TREE_ROWS", 0)
        poly = FrechetPolytope(random_instance(9, n=4, block_sizes=(2, 2), atoms_per_block=(4, 3)))
        lp = poly.lp(np.random.default_rng(9).uniform(-1, 1, poly.n_atoms))
        monkeypatch.setattr(np.linalg, "inv", singular_inv)
        with pytest.raises(SolverError, match="inverse of a tree-factorized basis failed"):
            solve_lp(lp, poly.crash_basis)

    def test_phase_one_must_end_optimal(self, monkeypatch):
        run = lp_module._Simplex._run
        monkeypatch.setattr(
            lp_module._Simplex, "_run",
            lambda self, c_work: "unbounded" if self._phase == 1 else run(self, c_work),
        )
        lp = LinearProgram("min", [1.0], a_eq=[[1.0]], b_eq=[1.0])
        with pytest.raises(SolverError, match="phase 1 ended with status 'unbounded'"):
            solve_lp(lp)

    def test_pivot_limit(self, monkeypatch):
        monkeypatch.setattr(lp_module, "_MAX_PIVOTS", 0)
        lp = LinearProgram("max", [1.0, 1.0], a_ub=[[1.0, 2.0]], b_ub=[2.0])
        with pytest.raises(SolverError, match="pivot limit exceeded"):
            solve_lp(lp)


class TestPackagePrograms:
    def test_every_program_is_its_own_standard_form(self, simplex_phases, monkeypatch):
        # Every program the package builds, over example 1's table, sigma
        # and least core, a stress run, an LP-path draw, a deterministic
        # least core and a balancedness check: equality rows only, every
        # variable at lower bound 0, so its standard form is the caller's
        # matrix with no added column, and every solve starts from a
        # feasible basis. The balancedness check solves one program.
        built, solves = [], []
        init = lp_module._Standardized.__init__

        def recording_init(self, program):
            init(self, program)
            built.append((self, program))

        solve = coop.solve_lp
        monkeypatch.setattr(lp_module._Standardized, "__init__", recording_init)
        monkeypatch.setattr(coop, "solve_lp",
                            lambda lp, start=None: solves.append(lp) or solve(lp, start))

        solver = RobustGameSolver(make_example1(24))
        y = solver.grand_wc.y_star
        solver.table(y)
        solver.sigma(y)
        solver.least_core()
        run_stress(small_cfg())
        with lp_path_only():
            drawn = RobustGameSolver(random_instance(5, atoms_per_block=(2, 3)))
            drawn.table(drawn.grand_wc.y_star)
        inst = random_instance(6)
        coop.least_core(coop.build_deterministic_game(inst, independent_joint(inst)))
        rng = np.random.default_rng(36)
        for n in range(2, 7):
            del solves[:]
            table = {m: float(v) for m, v in enumerate(rng.uniform(0.0, 0.9, 1 << n)) if m}
            coop.balancedness_duality_pair(table, n)
            assert len(solves) == 1

        kinds = {type(program.a_eq) for _std, program in built}
        assert kinds == {np.ndarray, IncidenceOperator}
        for std, program in built:
            assert program.a_ub.shape[0] == 0
            assert not np.any(program.lower_bounds)
            assert std.a is program.a_eq and std.n == program.n_vars
        assert simplex_phases and 1 not in simplex_phases
