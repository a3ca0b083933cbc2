import numpy as np
import pytest

from nvgames.distributions import independent_joint, sample_extremal, contaminate
from nvgames.errors import GameInvalidError, InputError
from nvgames.newsvendor import (
    ScalarDemand,
    expected_profit,
    grand_action_interval,
    optimal_order,
    quantile_order,
    worst_case_order,
    worst_case_shortage,
)
from nvgames.robust_game import RobustGameSolver

from conftest import make_example1, random_instance


class TestExpectedProfit:
    def test_zero_order_is_zero(self, t1):
        q = independent_joint(t1)
        for mask in (0b01, 0b10, 0b11):
            assert expected_profit(t1, q, 0.0, mask) == 0.0

    def test_t1_hand_expectations(self, t1):
        q = independent_joint(t1)
        assert expected_profit(t1, q, 1.0, {0}) == pytest.approx(1.0)
        assert expected_profit(t1, q, 3.0, {0}) == pytest.approx(1.0)

    def test_negative_order_rejected(self, t1):
        with pytest.raises(InputError):
            expected_profit(t1, independent_joint(t1), -1.0, {0})

    def test_concave_piecewise_linear_in_y(self):
        rng = np.random.default_rng(20)
        for seed in range(10):
            inst = random_instance(seed, n=3, block_sizes=(2, 1), atoms_per_block=(3, 2))
            q = independent_joint(inst)
            for _ in range(20):
                y1, y2 = rng.uniform(0.0, 25.0, 2)
                mid = 0.5 * (y1 + y2)
                v1 = expected_profit(inst, q, y1, 0b111)
                v2 = expected_profit(inst, q, y2, 0b111)
                vm = expected_profit(inst, q, mid, 0b111)
                assert vm >= 0.5 * (v1 + v2) - 1e-9

    def test_linear_in_q(self):
        inst = random_instance(31, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
        q_ind = independent_joint(inst)
        rng = np.random.default_rng(21)
        q_ext = sample_extremal(inst, rng.uniform(-1, 1, inst.joint_size()))
        for lam in (0.25, 0.5, 0.75):
            mixed = contaminate(q_ind, q_ext, lam)
            for mask in (0b001, 0b011, 0b111):
                expect = (1 - lam) * expected_profit(inst, q_ind, 7.0, mask) + lam * expected_profit(
                    inst, q_ext, 7.0, mask
                )
                assert expected_profit(inst, mixed, 7.0, mask) == pytest.approx(expect, abs=1e-10)


class TestQuantileOrder:
    def test_median_of_two_points(self):
        assert quantile_order(ScalarDemand([1.0, 3.0], [0.5, 0.5]), 0.5) == 1.0

    def test_point_mass(self):
        assert quantile_order(ScalarDemand([2.0], [1.0]), 0.123) == 2.0
        assert quantile_order(ScalarDemand([2.0], [1.0]), 0.987) == 2.0

    def test_three_atoms(self):
        d = ScalarDemand([1.0, 2.0, 3.0], [0.2, 0.3, 0.5])
        assert quantile_order(d, 0.6) == 3.0

    def test_duplicates_merge_before_comparison(self):
        d = ScalarDemand([2.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        # CDF(2) = 1.0; CDF(1) = 0.25: the 0.6-quantile is 2.
        assert quantile_order(d, 0.6) == 2.0

    def test_is_smallest_value_reaching_ratio(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            k = int(rng.integers(1, 7))
            values = rng.integers(0, 9, k).astype(float)
            probs = rng.dirichlet(np.ones(k))
            ratio = float(rng.uniform(0.05, 0.95))
            got = quantile_order(ScalarDemand(values, probs), ratio)
            cdf_at = float(np.sum(probs[values <= got]))
            assert cdf_at >= ratio - 1e-9
            below = values[values < got - 1e-12]
            if below.size:
                cdf_below = float(np.sum(probs[values <= np.max(below)]))
                assert cdf_below < ratio


class TestOptimalOrder:
    def test_t1_block_results(self, t1):
        q = independent_joint(t1)
        res = optimal_order(t1, q, {0})
        assert (res.y_star, res.value) == (1.0, pytest.approx(1.0))
        res = optimal_order(t1, q, {1})
        assert (res.y_star, res.value) == (2.0, pytest.approx(2.0))

    def test_empty_coalition_rejected(self, t1):
        with pytest.raises(InputError):
            optimal_order(t1, independent_joint(t1), 0)

    def test_optimal_beats_every_support_point(self):
        for seed in range(15):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(3, 2))
            q = independent_joint(inst)
            for mask in (0b0001, 0b0110, 0b1111):
                res = optimal_order(inst, q, mask)
                support = {0.0}
                for atom_value in np.unique(np.asarray([v for v in _support_values(inst, mask)])):
                    support.add(float(atom_value))
                for y in support:
                    assert res.value >= expected_profit(inst, q, y, mask) - 1e-9

    def test_discretized_uniform_value_converges(self):
        # Uniform demand on {D/K, ..., D} with p=1.5, c=1: optimal value
        # approaches D (p-c)^2 / (2 p) = D / 12 from above. The grid rounds
        # demand up, which inflates the value by (p-c) D / (2K) exactly, so
        # the relative error decays like p / ((p-c) K) = 3/K here.
        d_total = 1.0
        from nvgames.distributions import DiscreteMarginal, Instance

        last_err = None
        for k in (60, 120, 240):
            grid = np.arange(1, k + 1) * (d_total / k)
            inst = Instance(
                1.5, 1.0, ((0,),),
                (DiscreteMarginal(grid[:, None], np.full(k, 1.0 / k)),),
            )
            res = optimal_order(inst, independent_joint(inst), {0})
            assert res.value == pytest.approx(d_total / 12.0, rel=3.5 / k)
            err = res.value - d_total / 12.0
            assert err > 0.0
            if last_err is not None:
                assert err < last_err
            last_err = err


def _support_values(inst, mask):
    from nvgames.distributions import get_polytope

    return get_polytope(inst).coalition_demands(mask)


class TestWorstCaseOrder:
    def test_t1_grand(self, t1):
        res = worst_case_order(t1, 0b11)
        assert res.y_star == pytest.approx(3.0)
        assert res.value == pytest.approx(3.0)

    def test_single_block_matches_known_distribution(self):
        for seed in range(10):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(3, 2))
            q = independent_joint(inst)
            for mask in (0b0001, 0b0010, 0b0011, 0b0100, 0b1100):
                wc = worst_case_order(inst, mask)
                opt = optimal_order(inst, q, mask)
                assert wc.y_star == pytest.approx(opt.y_star, abs=1e-12)
                assert wc.value == pytest.approx(opt.value, abs=1e-10)

    def test_example1_closed_forms(self):
        k = 24
        inst = make_example1(k)
        res = worst_case_order(inst, 0b111)
        assert res.y_star == pytest.approx(4.0 / 3.0, rel=2.0 / k)
        assert res.value == pytest.approx(7.0 / 12.0, rel=2.0 / k)

    def test_matches_grid_maximization(self):
        # Independent check of the block decomposition: maximize
        # (p-c) y - p * worst_case_shortage(y, S) over all support sums.
        for seed in range(8):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(2, 2))
            p, c = inst.price, inst.cost
            for mask in (0b0101, 0b1111, 0b0111):
                grid = np.unique(np.r_[0.0, _support_values(inst, mask)])
                brute = max(
                    (p - c) * y - p * worst_case_shortage(inst, float(y), mask) for y in grid
                )
                assert worst_case_order(inst, mask).value == pytest.approx(brute, abs=1e-6)


class TestWorstCaseShortage:
    def test_no_shortage_below_support(self):
        inst = random_instance(9, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
        d_min = float(np.min(_support_values(inst, 0b111)))
        assert worst_case_shortage(inst, 0.5 * d_min, 0b111) == 0.0

    def test_t1_singleton_polytope(self, t1):
        assert worst_case_shortage(t1, 3.0, 0b11) == pytest.approx(0.0, abs=1e-12)

    def test_t2_antithetic_vs_comonotone(self, t2):
        assert worst_case_shortage(t2, 4.0, 0b11) == pytest.approx(1.0)


class TestGrandActionInterval:
    def test_t1_interval(self, t1):
        lo, hi = grand_action_interval(t1)
        assert lo == pytest.approx(0.0, abs=1e-5)
        assert hi == pytest.approx(8.0, abs=1e-5)
        assert lo < 3.0 < hi
        value, _q = RobustGameSolver(t1).min_grand_profit(3.0)
        assert value == pytest.approx(3.0)

    def test_example1_contains_worst_case_order(self):
        inst = make_example1(24)
        lo, hi = grand_action_interval(inst)
        y_wc = worst_case_order(inst, 0b111).y_star
        assert lo < y_wc < hi
        value, _q = RobustGameSolver(inst).min_grand_profit(y_wc)
        assert value > 0.0

    def test_all_demands_at_least_one(self):
        inst = random_instance(17, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
        lo, _hi = grand_action_interval(inst)
        assert lo <= 1.0

    def test_game_invalid_when_no_positive_interval(self):
        from nvgames.distributions import DiscreteMarginal, Instance

        # Every block can see zero demand with probability above the critical
        # ratio, so no order keeps the worst-case profit positive.
        m = DiscreteMarginal(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        inst = Instance(1.5, 1.0, ((0,), (1,)), (m, m))
        with pytest.raises(GameInvalidError):
            grand_action_interval(inst)


class TestSuperadditivity:
    def test_fixed_joint_superadditive(self):
        for seed in range(10):
            inst = random_instance(seed, n=5, block_sizes=(3, 2), atoms_per_block=(2, 2))
            q = independent_joint(inst)
            grand = inst.grand_mask
            values = {}
            for mask in range(1, grand + 1):
                values[mask] = optimal_order(inst, q, mask).value
            for s1 in range(1, grand + 1):
                rest = grand ^ s1
                s2 = rest
                while s2:
                    assert values[s1 | s2] >= values[s1] + values[s2] - 1e-9
                    s2 = (s2 - 1) & rest
