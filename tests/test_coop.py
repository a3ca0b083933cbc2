import numpy as np
import pytest

from nvgames import coop
from nvgames.coop import (
    CharacteristicFunction,
    balancedness_duality_pair,
    build_deterministic_game,
    core_membership,
    least_core,
    solve_stability_lp,
)
from nvgames.distributions import DiscreteMarginal, Instance, coalition_mask, independent_joint
from nvgames.errors import InputError, SolverError
from nvgames.lp import LpSolution

from conftest import random_instance
from oracles import two_phase_stability_lp


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
        assert v.values[coalition_mask({0})] == 1.0
        assert v.values[coalition_mask({1})] == 2.0
        assert v.values[coalition_mask({0, 1})] == 4.0
        assert v.values[coalition_mask(0)] == 0.0


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


class TestBalancedness:
    def test_t1_ratio_table_balanced(self):
        table = {0b01: 1.0 / 3.0, 0b10: 2.0 / 3.0}
        assert balancedness_duality_pair(table, 2)[1] == pytest.approx(0.0, abs=1e-12)

    def test_overloaded_pairs_unbalanced(self):
        # Three pair-coalitions each demanding 6/7 cannot all be covered:
        # the balanced map with weight 1/2 per pair certifies 3*(6/7)/2 - 1 = 2/7.
        table = {
            0b011: 6.0 / 7.0, 0b101: 6.0 / 7.0, 0b110: 6.0 / 7.0,
            0b001: 1.0 / 7.0, 0b010: 1.0 / 7.0, 0b100: 1.0 / 7.0,
        }
        z_p, z_d = balancedness_duality_pair(table, 3)
        assert z_d == pytest.approx(2.0 / 7.0)
        assert z_p == pytest.approx(z_d, abs=1e-9)

    def test_zero_table(self):
        assert balancedness_duality_pair({0b01: 0.0, 0b10: 0.0}, 2)[1] == 0.0

    def test_a_table_without_proper_coalitions_is_balanced(self):
        # A one-player game has no nonempty proper coalition.
        assert balancedness_duality_pair({}, n=1) == (0.0, 0.0)

    def test_primal_dual_always_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            table = {
                mask: float(rng.uniform(0.0, 0.9))
                for mask in range(1, (1 << n) - 1)
            }
            z_p, z_d = balancedness_duality_pair(table, n)
            assert z_p == pytest.approx(z_d, abs=1e-8)
            assert z_d >= 0.0

    def test_matches_stability_sign(self):
        # s <= 0 for the unit-total stability LP iff the table is balanced.
        rng = np.random.default_rng(32)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            values = rng.uniform(0.0, 0.8, (1 << n) - 2)
            _x, eps, _w = solve_stability_lp(n, values, 1.0)
            z_d = balancedness_duality_pair(dict(enumerate(values, start=1)), n)[1]
            if eps <= 1e-9:
                assert z_d <= 1e-7
            else:
                assert z_d > 1e-9

    def test_stability_weights_are_an_optimal_dual(self):
        # sigma = max sum_S w_S v(S) - mu over w >= 0, sum_S w_S = 1 and
        # sum_{S ni i} w_S = mu for every player: the weights must be
        # feasible for that dual and attain eps.
        rng = np.random.default_rng(33)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            masks = list(range(1, (1 << n) - 1))
            values = rng.uniform(0.0, 0.8, len(masks))
            _x, eps, w = solve_stability_lp(n, values, 1.0)
            assert w.shape == (len(masks),)
            assert np.all(w >= -1e-12)
            assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-9)
            cover = [sum(w[k] for k, m in enumerate(masks) if m >> i & 1) for i in range(n)]
            assert np.ptp(cover) <= 1e-9
            assert float(w @ values) - cover[0] == pytest.approx(eps, abs=1e-9)


def stability_tables(seed: int, count: int):
    """(n, values, total) triples for the stability LP with n from 2 to 6:
    random, additive and few-level values (the last with many ties), one
    per nonempty proper coalition in mask order, with totals positive,
    zero and negative, every fifth table shifted down."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 7))
        masks = np.arange(1, (1 << n) - 1)
        sizes = np.array([bin(m).count("1") for m in masks])
        kind = i % 3
        if kind == 0:
            values = rng.uniform(-1.0, 1.0, masks.size) * sizes
        elif kind == 1:
            share = rng.uniform(-1.0, 2.0, n)
            values = np.array([share[[j for j in range(n) if m >> j & 1]].sum() for m in masks])
        else:
            values = rng.choice([0.0, 0.5, 1.0], masks.size) * sizes
        if i % 5 == 4:
            values -= rng.uniform(0.0, 2.0 * n)  # eps0 < 0 at most totals
        total = (float(rng.uniform(0.1, 2.0) * n), 0.0, float(-rng.uniform(0.1, 2.0)))[i % 4 % 3]
        yield n, values, total


class TestStabilityCrashStart:
    def test_matches_the_two_phase_oracle_without_phase_one(self, simplex_phases, monkeypatch):
        # The dual starts from the singleton basis. (x, eps) is feasible for
        # the primal, w for the dual, the two are complementary, and eps is
        # the cold primal's. Every variable of the program is nonnegative,
        # so its standard form is its own matrix with no added column.
        programs = []
        solve = coop.solve_lp
        monkeypatch.setattr(coop, "solve_lp",
                            lambda lp, start: programs.append(lp) or solve(lp, start))
        for n, table, total in stability_tables(34, 500):
            del simplex_phases[:], programs[:]
            x, eps, w = solve_stability_lp(n, table, total)
            assert simplex_phases and 1 not in simplex_phases
            [lp] = programs
            assert lp._std.a is lp.a_eq and lp._std.n == lp.n_vars
            _x, expect, _w = two_phase_stability_lp(n, table, total)
            assert abs(eps - expect) <= 1e-12
            assert abs(float(np.sum(x)) - total) <= 1e-12
            slack = np.array([sum(x[j] for j in range(n) if m >> j & 1) + eps - v
                              for m, v in enumerate(table, start=1)])
            assert slack.min() >= -1e-12
            size = max(1.0, float(np.max(np.abs(table))), abs(total))
            assert np.all(w >= 0.0) and abs(float(np.sum(w)) - 1.0) <= 1e-12
            assert np.all(np.abs(slack[w > 0.0]) <= 1e-12 * size)

    def test_power_of_two_scaling_is_exact(self):
        # The LP runs on the table divided by a power of two near its
        # largest value, so scaling the table by 2^k scales x and eps by
        # 2^k bit for bit and leaves the dual weights as they are.
        for n, table, total in stability_tables(35, 100):
            x, eps, w = solve_stability_lp(n, table, total)
            for k in (-30, -17, -1, 1, 9, 30):
                f = 2.0**k
                xs, eps_s, ws = solve_stability_lp(n, table * f, total * f)
                assert np.array_equal(xs, x * f)
                assert eps_s == eps * f
                assert np.array_equal(ws, w)

    @pytest.mark.parametrize("factor", [1e9, 1e12])
    def test_large_values_solve(self, factor):
        # Solved unscaled, the LP's absolute feasibility check fails on 60
        # of these 500 tables at x1e9 and on 366 at x1e12.
        for n, table, total in stability_tables(34, 500):
            x, eps, _w = solve_stability_lp(n, table * factor, total * factor)
            _x, expect, _w = solve_stability_lp(n, table, total)
            assert abs(eps / factor - expect) <= 1e-12
            assert abs(float(np.sum(x)) / factor - total) <= 1e-12


class TestNonoptimalStatus:
    @pytest.mark.parametrize("status", ["infeasible", "unbounded"])
    def test_each_program_raises_on_a_nonoptimal_status(self, monkeypatch, status):
        # A full table gives a feasible start and a bounded program, so no
        # input reaches these raises; a forged `solve_lp` answer does.
        monkeypatch.setattr(coop, "solve_lp", lambda lp, start: LpSolution(status=status))
        with pytest.raises(SolverError, match=rf"^stability LP reported '{status}'$"):
            solve_stability_lp(2, np.zeros(2), 1.0)
        with pytest.raises(SolverError, match=rf"^balancedness dual reported '{status}'$"):
            balancedness_duality_pair({0b01: 0.0, 0b10: 0.0}, 2)
