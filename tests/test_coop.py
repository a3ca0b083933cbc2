import numpy as np
import pytest

from nvgames.coop import (
    CharacteristicFunction,
    balancedness_duality_pair,
    build_deterministic_game,
    core_membership,
    imputation_check,
    least_core,
)
from nvgames.distributions import DiscreteMarginal, Instance, independent_joint
from nvgames.errors import InputError

from conftest import random_instance


def cf(values) -> CharacteristicFunction:
    values = np.asarray(values, dtype=float)
    n = int(np.log2(values.size))
    return CharacteristicFunction(n, values)


class TestCharacteristicFunction:
    def test_empty_value_must_be_zero(self):
        with pytest.raises(InputError):
            cf([1.0, 0.0, 0.0, 0.0])

    def test_all_coalitions_required(self):
        with pytest.raises(InputError):
            CharacteristicFunction(2, np.zeros(3))

    def test_lookup_by_members(self):
        v = cf([0.0, 1.0, 2.0, 4.0])
        assert v({0}) == 1.0
        assert v({1}) == 2.0
        assert v({0, 1}) == 4.0
        assert v(0) == 0.0


class TestBuildDeterministicGame:
    def test_t1_values(self, t1):
        v = build_deterministic_game(t1, independent_joint(t1))
        assert v.values == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_single_player_reduction(self):
        inst = Instance(
            2.0, 1.0, ((0,),),
            (DiscreteMarginal(np.array([[1.0], [3.0]]), np.array([0.5, 0.5])),),
        )
        v = build_deterministic_game(inst, independent_joint(inst))
        assert v.values == pytest.approx([0.0, 1.0])

    def test_empty_is_zero(self):
        inst = random_instance(8, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
        v = build_deterministic_game(inst, independent_joint(inst))
        assert v.values[0] == 0.0


class TestLeastCore:
    def test_two_player_hand_lp(self):
        x, s = least_core(cf([0.0, 1.0, 1.0, 3.0]))
        assert s == pytest.approx(-0.5)
        assert x == pytest.approx([1.5, 1.5])

    def test_t1_boundary(self, t1):
        v = build_deterministic_game(t1, independent_joint(t1))
        x, s = least_core(v)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert x == pytest.approx([1.0, 2.0])

    def test_additive_game(self):
        values = np.array([0.0, 1.0, 1.0, 2.0, 1.0, 2.0, 2.0, 3.0])
        x, s = least_core(cf(values))
        assert s <= 1e-12
        assert x == pytest.approx([1.0, 1.0, 1.0])

    def test_allocation_is_in_relaxed_core(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            values = np.zeros(1 << n)
            for mask in range(1, 1 << n):
                values[mask] = rng.uniform(0.0, bin(mask).count("1"))
            v = cf(values)
            x, s = least_core(v)
            assert abs(float(np.sum(x)) - v.grand_value) <= 1e-9
            relaxed = v.values.copy()
            relaxed[1:-1] -= s + 1e-8
            assert core_membership(cf_from_relaxed(v.n, relaxed, v.grand_value), x, tol=1e-9)

    def test_single_player(self):
        x, s = least_core(cf([0.0, 5.0]))
        assert x == pytest.approx([5.0])
        assert s == 0.0


def cf_from_relaxed(n, relaxed, grand):
    relaxed = relaxed.copy()
    relaxed[0] = 0.0
    relaxed[-1] = grand
    return CharacteristicFunction(n, relaxed)


class TestCoreMembership:
    def test_additive_allocation(self):
        v = cf([0.0, 1.0, 1.0, 2.0])
        assert core_membership(v, [1.0, 1.0])

    def test_two_player_examples(self):
        v = cf([0.0, 1.0, 1.0, 3.0])
        assert core_membership(v, [1.4, 1.6])
        assert not core_membership(v, [0.5, 2.5])

    def test_efficiency_required(self):
        v = cf([0.0, 1.0, 1.0, 3.0])
        assert not core_membership(v, [1.0, 1.0])


class TestImputationCheck:
    def test_least_core_allocation_when_core_nonempty(self):
        v = cf([0.0, 1.0, 1.0, 3.0])
        x, s = least_core(v)
        assert s <= 0
        assert imputation_check(v, x)

    def test_dumping_everything_on_one_player(self):
        v = cf([0.0, 0.0, 1.0, 3.0])
        assert not imputation_check(v, [3.0, 0.0])

    def test_t1_tight_bounds(self, t1):
        v = build_deterministic_game(t1, independent_joint(t1))
        assert imputation_check(v, [1.0, 2.0])


class TestBalancedness:
    def test_t1_ratio_table_balanced(self):
        assert balancedness_duality_pair({0b01: 1.0 / 3.0, 0b10: 2.0 / 3.0})[1] == pytest.approx(0.0, abs=1e-12)

    def test_overloaded_pairs_unbalanced(self):
        # Three pair-coalitions each demanding 6/7 cannot all be covered:
        # the balanced map with weight 1/2 per pair certifies 3*(6/7)/2 - 1 = 2/7.
        table = {
            0b011: 6.0 / 7.0, 0b101: 6.0 / 7.0, 0b110: 6.0 / 7.0,
            0b001: 1.0 / 7.0, 0b010: 1.0 / 7.0, 0b100: 1.0 / 7.0,
        }
        z_p, z_d = balancedness_duality_pair(table)
        assert z_d == pytest.approx(2.0 / 7.0)
        assert z_p == pytest.approx(z_d, abs=1e-9)

    def test_zero_table(self):
        assert balancedness_duality_pair({0b01: 0.0, 0b10: 0.0})[1] == 0.0

    def test_primal_dual_always_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            table = {
                mask: float(rng.uniform(0.0, 0.9))
                for mask in range(1, (1 << n) - 1)
            }
            z_p, z_d = balancedness_duality_pair(table)
            assert z_p == pytest.approx(z_d, abs=1e-8)
            assert z_d >= 0.0

    def test_matches_stability_sign(self):
        # s <= 0 for the unit-total stability LP iff the table is balanced.
        from nvgames.coop import solve_stability_lp

        rng = np.random.default_rng(32)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            table = {
                mask: float(rng.uniform(0.0, 0.8))
                for mask in range(1, (1 << n) - 1)
            }
            _x, eps, _w = solve_stability_lp(n, table, 1.0)
            z_d = balancedness_duality_pair(table)[1]
            if eps <= 1e-9:
                assert z_d <= 1e-7
            else:
                assert z_d > 1e-9

    def test_stability_weights_are_an_optimal_dual(self):
        # sigma = max sum_S w_S v(S) - mu over w >= 0, sum_S w_S = 1 and
        # sum_{S ni i} w_S = mu for every player: the weights must be
        # feasible for that dual and attain eps.
        from nvgames.coop import solve_stability_lp

        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            masks = list(range(1, (1 << n) - 1))
            table = {mask: float(rng.uniform(0.0, 0.8)) for mask in masks}
            _x, eps, w = solve_stability_lp(n, table, 1.0)
            assert w.shape == (len(masks),)
            assert np.all(w >= -1e-12)
            assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)
            cover = [sum(w[k] for k, m in enumerate(masks) if m >> i & 1) for i in range(n)]
            assert np.ptp(cover) <= 1e-9
            vals = np.array([table[m] for m in masks])
            assert float(w @ vals) - cover[0] == pytest.approx(eps, abs=1e-9)
