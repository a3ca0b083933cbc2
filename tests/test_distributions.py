import gc
import math
import weakref

import numpy as np
import pytest

from nvgames import distributions
from nvgames.distributions import (
    DiscreteMarginal,
    FrechetPolytope,
    Instance,
    JointDistribution,
    coalition_mask,
    get_polytope,
    independent_joint,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    northwest_corner,
    sample_extremal,
    save_instance,
)
from nvgames.errors import CapacityError, InputError, SolverError
from nvgames.lp import IncidenceOperator, LinearProgram, solve_lp
from nvgames.newsvendor import (
    ProperCoalitions, grand_action_interval, optimal_order, worst_case_order,
)
from nvgames.robust_game import RobustGameSolver, imputation_exists
from nvgames.stress import ExcessEvaluator

from conftest import lp_path_only, random_instance
from oracles import consistency_gap, contaminate, enumerate_vertices, loop_northwest_corner


def marginal(atoms, probs) -> DiscreteMarginal:
    return DiscreteMarginal(np.asarray(atoms, dtype=float), np.asarray(probs, dtype=float))


class TestTypes:
    def test_marginal_rejects_bad_probs(self):
        with pytest.raises(InputError):
            marginal([[1.0]], [0.9])
        with pytest.raises(InputError):
            marginal([[1.0], [2.0]], [1.2, -0.2])

    @pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan]])
    def test_marginal_rejects_non_finite_probs(self, probs):
        # The sum check alone lets nan through: abs(nan - 1) > tol is False.
        with pytest.raises(InputError, match="probs must be finite"):
            marginal([[1.0], [2.0]], probs)

    def test_marginal_rejects_negative_demand(self):
        with pytest.raises(InputError):
            marginal([[-1.0]], [1.0])

    def test_instance_price_ordering(self):
        m = marginal([[1.0]], [1.0])
        with pytest.raises(InputError):
            Instance(1.0, 1.0, ((0,),), (m,))
        with pytest.raises(InputError):
            Instance(1.0, 2.0, ((0,),), (m,))

    def test_instance_partition_must_cover(self):
        m = marginal([[1.0]], [1.0])
        with pytest.raises(InputError):
            Instance(2.0, 1.0, ((0,), (0,)), (m, m))
        with pytest.raises(InputError):
            Instance(2.0, 1.0, ((0,), (2,)), (m, m))

    def test_marginal_dimension_must_match_block(self):
        with pytest.raises(InputError):
            Instance(2.0, 1.0, ((0, 1),), (marginal([[1.0]], [1.0]),))

    def test_joint_distribution_mass(self):
        with pytest.raises(InputError):
            JointDistribution(np.array([0.5, 0.4]))
        with pytest.raises(InputError):
            JointDistribution(np.array([1.5, -0.5]))

    def test_coalition_mask_roundtrip(self):
        assert coalition_mask([0, 2]) == 0b101
        assert coalition_mask(0b101, 3) == 0b101


class TestProductSupport:
    """The joint support is the product of the block supports, last block
    fastest, as the polytope indexes it."""

    def test_two_by_one(self):
        inst = Instance(
            2.0, 1.0, ((0,), (1,)),
            (marginal([[1.0], [3.0]], [0.5, 0.5]), marginal([[2.0]], [1.0])),
        )
        poly = get_polytope(inst)
        atoms = list(zip(poly.coalition_demands(0b01), poly.coalition_demands(0b10)))
        assert atoms == [(1.0, 2.0), (3.0, 2.0)]

    def test_lexicographic_last_block_fastest(self):
        inst = Instance(
            2.0, 1.0, ((0,), (1,)),
            (marginal([[1.0], [2.0]], [0.5, 0.5]), marginal([[5.0], [6.0]], [0.5, 0.5])),
        )
        poly = get_polytope(inst)
        assert poly.matrix.dims == poly.dims == (2, 2)
        d = [tuple(atom) for atom in poly.coalition_demand_rows([0b01, 0b10]).T.tolist()]
        assert d == [(1.0, 5.0), (1.0, 6.0), (2.0, 5.0), (2.0, 6.0)]

    def test_three_block_count(self):
        inst = Instance(
            2.0, 1.0, ((0,), (1,), (2,)),
            (
                marginal([[1.0], [2.0]], [0.5, 0.5]),
                marginal([[1.0], [2.0], [3.0]], [0.2, 0.3, 0.5]),
                marginal([[1.0], [2.0]], [0.5, 0.5]),
            ),
        )
        assert inst.joint_size() == 12
        assert get_polytope(inst).n_atoms == 12

    def test_support_cap(self, monkeypatch):
        inst = Instance(
            2.0, 1.0, ((0,), (1,)),
            (marginal([[1.0], [2.0]], [0.5, 0.5]), marginal([[1.0], [2.0]], [0.5, 0.5])),
        )
        monkeypatch.setattr(distributions, "SUPPORT_CAP", 3)
        with pytest.raises(CapacityError, match="^joint support has 4 atoms, exceeding the cap of 3;"):
            independent_joint(inst)


class TestIndependentJoint:
    def test_point_mass_factor(self):
        inst = Instance(
            2.0, 1.0, ((0,), (1,)),
            (marginal([[1.0], [3.0]], [0.5, 0.5]), marginal([[2.0]], [1.0])),
        )
        assert independent_joint(inst).q == pytest.approx([0.5, 0.5])

    def test_uniform_product(self):
        m = marginal([[0.0], [1.0]], [0.5, 0.5])
        inst = Instance(2.0, 1.0, ((0,), (1,)), (m, m))
        assert independent_joint(inst).q == pytest.approx([0.25] * 4)

    def test_hand_multiplied_entries(self):
        inst = Instance(
            2.0, 1.0, ((0,), (1,)),
            (marginal([[0.0], [1.0]], [0.2, 0.8]), marginal([[0.0], [1.0]], [0.3, 0.7])),
        )
        assert independent_joint(inst).q == pytest.approx([0.06, 0.14, 0.24, 0.56])

    def test_mass_is_exact(self):
        rng = np.random.default_rng(11)
        for seed in range(30):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(3, 2))
            q = independent_joint(inst).q
            assert abs(float(np.sum(q)) - 1.0) <= 1e-12
            assert consistency_gap(get_polytope(inst), q) <= 1e-12
        del rng


class TestSampleExtremal:
    def test_two_by_two_vertex_by_cost(self):
        m = marginal([[0.0], [1.0]], [0.5, 0.5])
        inst = Instance(2.0, 1.0, ((0,), (1,)), (m, m))
        q = sample_extremal(inst, [1.0, 0.0, 0.0, 0.0])
        assert q.q == pytest.approx([0.5, 0.0, 0.0, 0.5])

    def test_point_mass_block_pins_polytope(self):
        inst = Instance(
            2.0, 1.0, ((0,), (1,)),
            (marginal([[1.0], [3.0]], [0.5, 0.5]), marginal([[2.0]], [1.0])),
        )
        q = sample_extremal(inst, [0.3, -0.7])
        assert q.q == pytest.approx(independent_joint(inst).q)

    def test_outputs_are_polytope_vertices(self):
        # Two blocks (sizes 2 and 1), two atoms each: every sampled extremal
        # joint must be one of the brute-force enumerated vertices.
        inst = random_instance(3, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
        poly = get_polytope(inst)
        vertices = enumerate_vertices(np.asarray(poly.matrix), np.asarray(poly.rhs))
        assert vertices
        rng = np.random.default_rng(12)
        for _ in range(100):
            cost = rng.uniform(-1.0, 1.0, poly.n_atoms)
            q = sample_extremal(inst, cost).q
            assert any(np.max(np.abs(q - v)) <= 1e-9 for v in vertices)
            assert consistency_gap(poly, q) <= 1e-9

    def test_cost_dimension_checked(self):
        inst = random_instance(4)
        with pytest.raises(InputError):
            sample_extremal(inst, [1.0, 2.0])


class TestContaminate:
    """The stress loop's mixture, `oracles.contaminate`, of the independent
    joint with extremal ones."""

    def test_endpoints(self):
        m = marginal([[0.0], [1.0]], [0.5, 0.5])
        inst = Instance(2.0, 1.0, ((0,), (1,)), (m, m))
        p_ind = independent_joint(inst).q
        p_ext = sample_extremal(inst, [1.0, 0.0, 0.0, 0.0]).q
        assert contaminate(p_ind, p_ext, 0.0) == pytest.approx(p_ind)
        assert contaminate(p_ind, p_ext, 1.0) == pytest.approx(p_ext)

    def test_elementwise_average(self):
        m = marginal([[0.0], [1.0]], [0.5, 0.5])
        inst = Instance(2.0, 1.0, ((0,), (1,)), (m, m))
        p_ind = independent_joint(inst).q
        p_ext = np.array([0.5, 0.0, 0.0, 0.5])
        assert contaminate(p_ind, p_ext, 0.5) == pytest.approx([0.375, 0.125, 0.125, 0.375])

    def test_consistency_preserved_on_grid(self):
        inst = random_instance(5, n=4, block_sizes=(2, 2), atoms_per_block=(3, 2))
        p_ind = independent_joint(inst).q
        rng = np.random.default_rng(13)
        cost = rng.uniform(-1.0, 1.0, inst.joint_size())
        p_ext = sample_extremal(inst, cost).q
        for lam in np.linspace(0.0, 1.0, 11):
            mixed = contaminate(p_ind, p_ext, float(lam))
            assert consistency_gap(get_polytope(inst), mixed) <= 1e-9


class TestAggregateDemand:
    """Coalition demand at a joint atom, through `coalition_demands` on a
    single-atom support."""

    @staticmethod
    def demands(atom, mask):
        inst = Instance(
            2.0, 1.0, (tuple(range(len(atom))),), (marginal([atom], [1.0]),)
        )
        return get_polytope(inst).coalition_demands(mask)

    def test_sum(self):
        assert self.demands([1.0, 2.0, 3.0], 0b101).tolist() == [4.0]

    def test_empty(self):
        assert self.demands([1.0, 2.0, 3.0], 0).tolist() == [0.0]

    def test_grand(self):
        assert self.demands([1.0] * 5, (1 << 5) - 1).tolist() == [5.0]


class TestDuplicateAtoms:
    def test_classes_merge_probabilities(self):
        # Duplicate atom rows inside one marginal act as one value class.
        m_dup = marginal([[1.0], [1.0], [3.0]], [0.2, 0.3, 0.5])
        inst = Instance(2.0, 1.0, ((0,), (1,)), (m_dup, marginal([[2.0]], [1.0])))
        poly = get_polytope(inst)
        assert poly.class_probs[0] == pytest.approx([0.5, 0.5])
        assert consistency_gap(poly, independent_joint(inst).q) <= 1e-12


class TestPolytope:
    def test_crash_basis_is_feasible_start(self):
        for seed in range(10):
            inst = random_instance(seed, n=5, block_sizes=(2, 3), atoms_per_block=(3, 3))
            poly = get_polytope(inst)
            lp = poly.lp(np.zeros(poly.n_atoms))
            sol = solve_lp(lp, start_basis=poly.crash_basis)
            assert sol.status == "optimal"
            assert sol.iterations == 0  # the crash basis skipped both phases
            assert consistency_gap(poly, sol.x) <= 1e-10

    def test_three_block_crash_basis(self):
        inst = random_instance(21, n=3, block_sizes=(1, 1, 1), atoms_per_block=(2, 3, 2))
        poly = get_polytope(inst)
        sol = solve_lp(poly.lp(np.zeros(poly.n_atoms)), start_basis=poly.crash_basis)
        assert sol.status == "optimal"
        assert consistency_gap(poly, sol.x) <= 1e-10

    def test_polytope_cached_per_instance(self):
        inst = random_instance(6)
        assert get_polytope(inst) is get_polytope(inst)

    @staticmethod
    def assert_one_cap(inst, monkeypatch):
        """With `SUPPORT_CAP` below `inst`'s 4 atoms, everything that needs
        its joints refuses it, and what needs only its marginals answers."""
        q = independent_joint(inst)
        monkeypatch.setattr(distributions, "SUPPORT_CAP", 3)
        for call in (
            lambda: get_polytope(inst),
            lambda: RobustGameSolver(inst),
            lambda: independent_joint(inst),
            lambda: sample_extremal(inst, np.zeros(4)),
            lambda: optimal_order(inst, q, inst.grand_mask),
            lambda: ExcessEvaluator(ProperCoalitions(inst)),
        ):
            with pytest.raises(CapacityError, match="^joint support has 4 atoms, exceeding"):
                call()
        lo, hi = grand_action_interval(inst)
        y = worst_case_order(inst, inst.grand_mask).y_star
        assert lo == 0.0 < y < hi
        assert imputation_exists(inst)[0]

    def test_cap_checked_when_already_cached(self, monkeypatch):
        inst = random_instance(7)  # 2 x 2 blocks: 4 joint atoms
        get_polytope(inst)
        self.assert_one_cap(inst, monkeypatch)

    def test_cap_checked_before_any_build(self, monkeypatch):
        inst = random_instance(7)
        self.assert_one_cap(inst, monkeypatch)
        assert inst not in distributions._POLYTOPES

    def test_lp_path_only_hides_a_built_table(self):
        # The cap is compared on every call, so patching it to 0 forces the
        # LP path on a polytope that already holds its table.
        poly = get_polytope(random_instance(9, atoms_per_block=(2, 3)))
        assert poly.vertices() is not None
        with lp_path_only():
            assert poly.vertices() is None
        assert poly.vertices() is not None

    def test_set_count_stops_past_its_ceiling_on_a_huge_two_block_shape(self):
        # 2 x 50 000 atoms: C(100 000, 50 001) candidate column sets, a
        # number of 99 992 bits if counted exactly. The count stops once it
        # passes its ceiling, and the cap still refuses the table.
        rng = np.random.default_rng(14)
        inst = Instance(1.5, 1.0, ((0,), (1,)), (
            marginal([[1.0], [2.0]], [0.5, 0.5]),
            marginal(rng.permutation(50_000)[:, None] + 1.0, np.full(50_000, 1.0 / 50_000)),
        ))
        poly = FrechetPolytope(inst)
        assert poly.vertices() is None
        assert poly._set_count > distributions._VERTEX_CAP
        assert poly._set_count.bit_length() <= 65

    def test_set_count_is_exact_below_its_ceiling(self):
        ceiling = distributions._SET_COUNT_CEILING
        for n in range(80):
            for m in range(n + 1):
                want = math.comb(n, m)
                got = distributions._capped_set_count(n, m)
                assert got == (want if want <= ceiling else ceiling + 1)
        assert distributions._capped_set_count(16, 7) == 11_440  # the stress shape

    def test_one_class_shape_shares_its_column_bases(self):
        # Two 3 x 4 draws whose atoms sort into different class labels, so
        # their per-block row ids differ: one enumeration of the bases and
        # their inverses serves both.
        polys = [FrechetPolytope(random_instance(s, atoms_per_block=(3, 4))) for s in (1, 2)]
        assert polys[0].class_counts == polys[1].class_counts == (3, 4)
        assert any(not np.array_equal(a, b) for a, b in zip(polys[0].matrix.ids, polys[1].matrix.ids))
        distributions._column_bases.cache_clear()
        for poly in polys:
            assert poly.vertices() is not None
        info = distributions._column_bases.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    @pytest.mark.parametrize("single_atom_blocks", [0, 2])
    def test_single_point_polytope_needs_no_solve(self, monkeypatch, single_atom_blocks):
        # One block of many distinct atoms, alone or beside one-atom blocks:
        # the polytope is one point, read off the consistency rows, where a
        # basis solve would be a dense system of one row per atom.
        def refuse(*args):
            raise AssertionError("np.linalg.solve called for a single-point polytope")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        rng = np.random.default_rng(13)
        big = marginal(rng.permutation(300)[:, None] + 1.0, rng.dirichlet(np.ones(300)))
        blocks = [big] + [marginal([[2.0]], [1.0])] * single_atom_blocks
        inst = Instance(1.5, 1.0, tuple((r,) for r in range(len(blocks))), tuple(blocks))
        poly = get_polytope(inst)
        want = np.zeros(inst.joint_size())
        probs = poly.class_probs[0]
        want[poly.class_reps[0]] = np.append(probs[:-1], 1.0 - np.sum(probs[:-1]))
        assert np.array_equal(poly.vertices(), want[None, :])
        assert np.max(np.abs(poly.vertices()[0] - big.probs)) <= 1e-14

    def test_a_vertex_table_off_the_consistency_rows_raises(self, t2):
        # A constraint matrix that no longer matches the value classes the
        # table is enumerated from: both atoms of block 0 in its last class.
        poly = FrechetPolytope(t2)
        ids, m = poly.matrix.ids, poly.matrix.m
        poly.matrix = IncidenceOperator([np.full_like(ids[0], m), ids[1]], m)
        with pytest.raises(SolverError, match=r"^vertex table misses the consistency rows by "):
            poly.vertices()

    def test_maximize_over_an_infeasible_program_raises(self, t2):
        # A class probability above the unit mass leaves no consistent joint.
        poly = FrechetPolytope(t2)
        poly._program = LinearProgram("max", np.zeros(poly.n_atoms), poly.matrix, [1.0, 2.0, 0.5])
        with pytest.raises(SolverError, match=r"^consistency polytope LP reported 'infeasible'"):
            poly.maximize(np.ones(poly.n_atoms))

    def test_polytope_freed_with_its_instance(self):
        inst = random_instance(8)
        poly = weakref.ref(get_polytope(inst))
        del inst
        gc.collect()
        assert poly() is None


def sixteenths(rng: np.random.Generator, k: int) -> np.ndarray:
    """k probabilities in sixteenths, zeros allowed, summing to exactly 1."""
    cuts = np.sort(rng.integers(0, 17, k - 1))
    return np.diff(np.concatenate(([0], cuts, [16]))) / 16.0


class TestNorthwestCorner:
    """The walk from merged cumulative sums against the residual loop."""

    ULPS = 4 * np.finfo(float).eps  # masses agree within 4 ulps of 1

    def assert_walks_agree(self, probs, orders):
        steps, mass = northwest_corner(probs, orders)
        loop_steps, loop_mass = loop_northwest_corner(probs, orders)
        assert np.array_equal(steps, loop_steps)
        assert np.abs(mass - loop_mass).max() <= self.ULPS
        assert mass.min() >= 0.0
        return mass

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_exact_ties_take_the_loops_zero_mass_steps(self, n_blocks):
        # Every cumulative sum of sixteenths is exact, so blocks often run
        # out together: the lower block moves first, then a zero-mass step.
        rng = np.random.default_rng(n_blocks)
        zero_steps = 0
        for _ in range(200):
            probs = [sixteenths(rng, int(rng.integers(1, 7))) for _ in range(n_blocks)]
            orders = [rng.permutation(p.size) for p in probs]
            zero_steps += np.count_nonzero(self.assert_walks_agree(probs, orders) == 0.0)
        assert zero_steps > (100 if n_blocks > 1 else 20)

    @pytest.mark.parametrize("k", [4, 16, 200])
    def test_uniform_countermonotonic_walk(self, k):
        # Example 1's marginals: each block's sums tie with the other's.
        probs = [np.full(k, 1.0 / k)] * 2
        mass = self.assert_walks_agree(probs, [np.arange(k), np.arange(k)[::-1]])
        assert np.count_nonzero(mass == 0.0) == k - 1

    def test_a_total_past_the_others_gives_no_negative_mass(self):
        # Block 0 sums to 1 + 2^-52 and ends on a zero: its last move lies
        # beyond block 1's total, 1, and the walk ends there with mass 0.
        p0 = np.array([7, 6, 9, 5, 1, 0]) / 28.0
        assert np.cumsum(p0)[-1] > 1.0
        mass = self.assert_walks_agree([p0, np.array([1.0])], [np.arange(6), np.arange(1)])
        assert mass[-1] == 0.0


class TestInstanceFiles:
    def test_round_trip(self, tmp_path, t1):
        path = tmp_path / "inst.json"
        save_instance(t1, path)
        again = load_instance(path)
        assert instance_to_dict(again) == instance_to_dict(t1)

    def test_missing_field_diagnostic(self):
        with pytest.raises(InputError, match="missing field 'cost'"):
            instance_from_dict({"price": 2.0, "partition": [[0]], "marginals": []})

    def test_marginal_field_diagnostic(self):
        doc = {
            "price": 2.0,
            "cost": 1.0,
            "partition": [[0]],
            "marginals": [{"atoms": [[1.0]], "probs": [0.8]}],
        }
        with pytest.raises(InputError, match=r"marginals\[0\]"):
            instance_from_dict(doc)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"price": 2.0,\n  broken\n}')
        with pytest.raises(InputError, match="line 2"):
            load_instance(path)
