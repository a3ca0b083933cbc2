import gc
import sys
import weakref

import numpy as np
import pytest

from nvgames import lp as lp_module
from nvgames.coop import balancedness_duality_pair, solve_stability_lp
from nvgames.distributions import (
    DEFAULT_SUPPORT_CAP,
    DiscreteMarginal,
    Instance,
    independent_joint,
)
from nvgames.errors import DomainError, InputError
from nvgames.newsvendor import (
    expected_profit,
    grand_action_interval,
    optimal_order,
    worst_case_order,
)
from nvgames.robust_game import (
    Decision,
    RobustGameSolver,
    VmaxResult,
    VmaxTable,
    imputation_exists,
    robust_core,
    robust_least_core,
    verify_rcore2,
)

from conftest import make_example1, random_instance
from oracles import brute_force_vmax


class TestVmax:
    def test_t1_singletons(self, t1):
        solver = RobustGameSolver(t1)
        assert solver.vmax(3.0, {0}).value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert solver.vmax(3.0, {1}).value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_empty_and_grand(self, t1):
        solver = RobustGameSolver(t1)
        with pytest.raises(InputError):
            solver.vmax(3.0, 0)
        with pytest.raises(InputError):
            solver.vmax(3.0, 0b11)

    def test_order_outside_interval_is_domain_error(self, t1):
        with pytest.raises(DomainError):
            RobustGameSolver(t1).vmax(50.0, {0})

    @pytest.mark.parametrize("y", [np.nan, np.inf, -np.inf])
    def test_non_finite_order_is_input_error(self, t1, y):
        solver = RobustGameSolver(t1)
        for call in (lambda: solver.vmax(y, {0}), lambda: solver.table(y)):
            with pytest.raises(InputError, match="finite") as info:
                call()
            assert not isinstance(info.value, DomainError)

    def test_example1_pair_ratios_small_k(self):
        k = 24
        inst = make_example1(k)
        solver = RobustGameSolver(inst)
        y = solver.grand_wc.y_star
        target = 6.0 / 7.0
        assert solver.vmax(y, 0b011).value == pytest.approx(target, rel=4.0 / k)
        assert solver.vmax(y, 0b101).value >= target * (1.0 - 4.0 / k)
        assert solver.vmax(y, 0b110).value >= target * (1.0 - 4.0 / k)

    def test_matches_brute_force_on_tiny_instances(self):
        hits = 0
        for seed in range(12):
            inst = random_instance(seed, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
            solver = RobustGameSolver(inst)
            y = solver.grand_wc.y_star
            vmin, _ = solver.min_grand_profit(y)
            if vmin <= 1e-9:
                continue
            for mask in range(1, inst.grand_mask):
                expect = brute_force_vmax(inst, y, mask)
                got = solver.vmax(y, mask).value
                assert got == pytest.approx(expect, abs=1e-8)
                hits += 1
        assert hits >= 30

    def test_dominates_independent_joint_ratio(self):
        for seed in range(8):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(2, 2))
            q = independent_joint(inst)
            solver = RobustGameSolver(inst)
            y = solver.grand_wc.y_star
            den = expected_profit(inst, q, y, inst.grand_mask)
            for mask in range(1, inst.grand_mask):
                numer = optimal_order(inst, q, mask).value
                assert solver.vmax(y, mask).value >= numer / den - 1e-9

    def test_single_block_shortcut_matches_ratio_lp(self):
        # The shortcut value for a one-block coalition must agree with the
        # generic enumeration run on the same coalition.
        for seed in range(6):
            inst = random_instance(seed, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
            solver = RobustGameSolver(inst)
            y = solver.grand_wc.y_star
            vmin, q_min = solver.min_grand_profit(y)
            for mask in (0b001, 0b010, 0b011, 0b100):
                d_s, _gammas, _mean = solver._coalition_data(mask)
                res = solver.vmax(y, mask)
                brute = brute_force_vmax(inst, y, mask)
                assert res.value == pytest.approx(brute, abs=1e-8)
                del d_s

    def test_witness_attains_value(self, t2):
        solver = RobustGameSolver(t2)
        y = solver.grand_wc.y_star
        res = solver.vmax(y, 0b01)
        q = res.q
        p, c = t2.price, t2.cost
        d_s = solver.poly.coalition_demands(0b01)
        numer = (p - c) * res.gamma - p * float(np.maximum(res.gamma - d_s, 0.0) @ q)
        den = (p - c) * y - p * float(np.maximum(y - solver.d_grand, 0.0) @ q)
        assert numer / den == pytest.approx(res.value, abs=1e-9)

    def test_value_convex_in_y(self):
        for seed in range(5):
            inst = random_instance(seed, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
            solver = RobustGameSolver(inst)
            from nvgames.newsvendor import grand_action_interval

            lo, hi = grand_action_interval(inst)
            rng = np.random.default_rng(seed + 100)
            for mask in (0b101, 0b011):
                for _ in range(10):
                    y1, y2 = sorted(rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 2))
                    mid = 0.5 * (y1 + y2)
                    v1 = solver.vmax(y1, mask).value
                    v2 = solver.vmax(y2, mask).value
                    vm = solver.vmax(mid, mask).value
                    assert vm <= 0.5 * (v1 + v2) + 1e-8


class TestSigma:
    def test_t1(self, t1):
        eps, x = RobustGameSolver(t1).sigma(3.0)
        assert eps == pytest.approx(0.0, abs=1e-12)
        assert x == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-12)

    def test_zero_table_gives_equal_split(self, t1):
        table = VmaxTable(
            y=3.0,
            entries={m: VmaxResult(0.0, 0.0, np.array([])) for m in (0b01, 0b10)},
            min_grand_profit=3.0,
        )
        x, eps = solve_stability_lp(2, table.values, 1.0)
        assert eps == pytest.approx(-0.5)
        assert x == pytest.approx([0.5, 0.5])

    def test_example1_lower_bound(self):
        k = 24
        inst = make_example1(k)
        solver = RobustGameSolver(inst)
        eps, _x = solver.sigma(solver.grand_wc.y_star)
        assert eps >= (6.0 * 1.5 / (3 * 1.5 - 1.0) - 2.0) / 3.0 - 4.0 / k
        assert eps > 0.0


class TestRobustCore:
    def test_t1_decision(self, t1):
        d = robust_core(t1)
        assert d is not None
        assert d.y == pytest.approx(3.0, abs=1e-12)
        assert d.z == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-9)

    def test_example1_empty(self):
        assert robust_core(make_example1(24)) is None

    def test_single_block_instance_always_has_core(self):
        for seed in range(8):
            inst = random_instance(seed, n=3, block_sizes=(3,), atoms_per_block=(4,))
            d = robust_core(inst)
            assert d is not None
            assert verify_rcore2(inst, d, tol=1e-7)

    def test_verify_passes_on_returned_decisions(self):
        for seed in range(12):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(2, 2))
            d = robust_core(inst)
            if d is not None:
                assert verify_rcore2(inst, d, tol=1e-7)


class TestRobustLeastCore:
    def test_t1(self, t1):
        d, eps = robust_least_core(t1)
        assert eps == pytest.approx(0.0, abs=1e-9)
        assert d.y == pytest.approx(3.0, abs=1e-9)
        assert d.z == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-9)

    def test_example1_stays_positive(self):
        d, eps = robust_least_core(make_example1(16), y_tol=0.01)
        assert eps > 0.05
        assert abs(float(np.sum(d.z)) - 1.0) <= 1e-9

    def test_never_worse_than_worst_case_order_sigma(self):
        for seed in range(6):
            inst = random_instance(seed, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
            solver = RobustGameSolver(inst)
            eps_wc, _ = solver.sigma(solver.grand_wc.y_star)
            _d, eps = solver.least_core(y_tol=0.01)
            assert eps <= eps_wc + 1e-9

    def test_sigma_midpoint_convexity(self):
        for seed in range(4):
            inst = random_instance(seed, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
            solver = RobustGameSolver(inst)
            from nvgames.newsvendor import grand_action_interval

            lo, hi = grand_action_interval(inst)
            rng = np.random.default_rng(seed + 7)
            pad = 0.05 * (hi - lo)
            for _ in range(15):
                y1, y2 = rng.uniform(lo + pad, hi - pad, 2)
                mid = 0.5 * (y1 + y2)
                s1, _ = solver.sigma(y1)
                s2, _ = solver.sigma(y2)
                sm, _ = solver.sigma(mid)
                assert sm <= 0.5 * (s1 + s2) + 1e-8


class TestSolverState:
    def test_table_history_is_bounded(self):
        inst = random_instance(3, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
        solver = RobustGameSolver(inst)
        y1 = solver.grand_wc.y_star
        first = weakref.ref(solver.table(y1))
        assert solver.table(y1) is first()
        solver.table(0.9 * y1)
        gc.collect()
        assert first() is None

    def test_sigma_follows_the_last_table(self):
        inst = random_instance(3, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
        solver = RobustGameSolver(inst)
        y = solver.grand_wc.y_star
        for y_i in (y, 0.9 * y, 0.9 * y, y):
            eps, x = solver.sigma(y_i)
            expect_x, expect_eps = solve_stability_lp(3, solver.table(y_i).values, 1.0)
            assert eps == expect_eps
            assert np.array_equal(x, expect_x)

    def test_witnesses_in_build_order_once_per_array(self):
        inst = random_instance(5, n=4, block_sizes=(2, 2), atoms_per_block=(2, 3))
        solver = RobustGameSolver(inst)
        y = solver.grand_wc.y_star
        tables = [solver.table(f * y) for f in (1.0, 0.8, 1.1)]
        expect, seen = [], set()
        for table in tables:
            for mask in sorted(table.entries):
                q = table.entries[mask].q
                if id(q) not in seen:
                    seen.add(id(q))
                    expect.append(q)
        assert len(expect) < sum(len(t.entries) for t in tables)
        assert len(solver.witnesses) == len(expect)
        assert all(a is b for a, b in zip(solver.witnesses, expect))

    def test_least_core_keeps_at_most_one_table(self):
        def live_tables():
            gc.collect()
            return sum(isinstance(o, VmaxTable) for o in gc.get_objects())

        before = live_tables()
        solver = RobustGameSolver(make_example1(8))
        assert solver.core_decision() is None
        solver.least_core(y_tol=0.02)
        assert live_tables() <= before + 1

    @pytest.mark.parametrize("y_tol", [0.0, -0.02, np.nan, np.inf])
    def test_least_core_rejects_bad_y_tol(self, y_tol):
        solver = RobustGameSolver(make_example1(8))
        with pytest.raises(InputError, match="y_tol"):
            solver.least_core(y_tol)


class TestDecision:
    @pytest.mark.parametrize("y", [np.nan, np.inf, -1.0])
    def test_order_must_be_finite_and_nonnegative(self, y):
        with pytest.raises(InputError, match="order quantity"):
            Decision(y, np.array([0.5, 0.5]))

    @pytest.mark.parametrize("z", [[np.nan, 1.0], [np.inf, -np.inf], [0.5, np.nan]])
    def test_multiples_must_be_finite(self, z):
        with pytest.raises(InputError, match="finite"):
            Decision(1.0, np.array(z))


class TestImputationExists:
    def test_t1_exact_sum(self, t1):
        ok, z = imputation_exists(t1)
        assert ok
        assert float(np.sum(z)) == pytest.approx(1.0, abs=1e-12)
        assert z == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-12)

    def test_example1_has_imputation_despite_empty_core(self):
        inst = make_example1(24)
        ok, z = imputation_exists(inst)
        assert ok
        assert robust_core(inst) is None
        assert float(np.sum(z)) == pytest.approx(1.0, abs=1e-9)

    def test_random_instances_always_true(self):
        for seed in range(20):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(3, 2))
            ok, z = imputation_exists(inst)
            assert ok
            # The certificate multiples are individually rational: each covers
            # the player's standalone worst-case ratio.
            solver = RobustGameSolver(inst)
            y = solver.grand_wc.y_star
            for i in range(inst.n_retailers):
                assert z[i] >= solver.vmax(y, 1 << i).value - 1e-9


class TestVerifyDecision:
    def test_t1_pass_and_failures(self, t1):
        d = robust_core(t1)
        assert verify_rcore2(t1, d)
        assert not verify_rcore2(t1, Decision(4.0, d.z))
        assert not verify_rcore2(t1, Decision(d.y, np.array([2.0 / 3.0, 1.0 / 3.0])))

    def test_block_sum_mismatch_fails(self):
        inst = random_instance(1, n=4, block_sizes=(2, 2), atoms_per_block=(2, 2))
        d = robust_core(inst)
        if d is None:
            d, _ = robust_least_core(inst, y_tol=0.05)
            assert not verify_rcore2(inst, d)
            return
        z = d.z.copy()
        shift = 0.2
        z[0] += shift
        z[-1] -= shift
        assert not verify_rcore2(inst, Decision(d.y, z))


class TestSupportCap:
    def test_cap_above_the_default(self, monkeypatch):
        # 1001 x 1000 joint atoms, above DEFAULT_SUPPORT_CAP: the minimum
        # grand profit and the action interval must not look the polytope up
        # at the default cap. Both players are single-block coalitions, so
        # no ratio LP runs either.
        m1 = DiscreteMarginal(np.arange(1.0, 1002.0)[:, None], np.full(1001, 1.0 / 1001))
        m2 = DiscreteMarginal(np.arange(1.0, 1001.0)[:, None], np.full(1000, 1.0 / 1000))
        inst = Instance(1.5, 1.0, ((0,), (1,)), (m1, m2))
        assert inst.joint_size() > DEFAULT_SUPPORT_CAP
        original = lp_module.solve_lp
        calls = []

        def counted(program, start=None):
            calls.append(program)
            return original(program, start)

        for name, module in list(sys.modules.items()):
            if name.startswith("nvgames") and getattr(module, "solve_lp", None) is original:
                monkeypatch.setattr(module, "solve_lp", counted)
        solver = RobustGameSolver(inst, cap=2 * 10**6)
        y = solver.grand_wc.y_star
        table = solver.table(y)
        lo, hi = grand_action_interval(inst)
        assert calls == []
        assert table.min_grand_profit > 0.0
        for i in range(2):
            block_value = worst_case_order(inst, 1 << i).value
            assert table.value(1 << i) == pytest.approx(block_value / table.min_grand_profit)
        assert lo == 0.0 < y < hi


class TestTheoremConsistency:
    def test_stability_sign_matches_balancedness(self):
        for seed in range(10):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(2, 2))
            solver = RobustGameSolver(inst)
            y = solver.grand_wc.y_star
            table = solver.table(y)
            eps, _ = solver.sigma(y)
            z_d = balancedness_duality_pair(table.values, inst.n_retailers)[1]
            if eps <= 1e-9:
                assert z_d <= 1e-7
            else:
                assert z_d > 1e-9


class TestAgainstHighs:
    """Ratio LPs and sigma at K = 20x20 and 30x30, beyond the brute-force
    oracle, against scipy's HiGHS on the dense Charnes-Cooper system."""

    @pytest.mark.parametrize("k", [20, 30])
    def test_vmax_and_sigma(self, k):
        linprog = pytest.importorskip("scipy.optimize").linprog
        inst = random_instance(k, n=3, block_sizes=(2, 1), atoms_per_block=(k, k), support=(1, 60))
        solver = RobustGameSolver(inst)
        y = solver.grand_wc.y_star
        table = solver.table(y)
        p, c = inst.price, inst.cost
        poly = solver.poly

        # Minimum grand profit: maximize the grand shortage over the polytope.
        shortage = linprog(-np.maximum(y - solver.d_grand, 0.0),
                           A_eq=np.asarray(poly.matrix), b_eq=poly.rhs, method="highs")
        vmin = (p - c) * y + p * shortage.fun
        assert table.min_grand_profit == pytest.approx(vmin, abs=1e-9)

        cc = np.asarray(solver._cc_program(y).a_eq)
        b_cc = np.zeros(cc.shape[0])
        b_cc[-1] = 1.0
        expect = {}
        for mask in range(1, inst.grand_mask):
            if len(solver._blocks_met(mask)) == 1:
                expect[mask] = solver._block_value(mask)[1] / vmin
                continue
            d_s, gammas, mean = solver._coalition_data(mask)
            # Gammas whose Jensen bound cannot reach the reported optimum
            # cannot attain it either; HiGHS solves every other one.
            bound = np.maximum((p - c) * gammas - p * np.maximum(gammas - mean, 0.0), 0.0) / vmin
            best = -np.inf
            for gamma in gammas[bound > table.value(mask) - 1e-9]:
                obj = np.r_[-p * np.maximum(gamma - d_s, 0.0), (p - c) * gamma]
                res = linprog(-obj, A_eq=cc, b_eq=b_cc, method="highs")
                assert res.status == 0
                best = max(best, -res.fun)
            expect[mask] = best
        for mask, value in expect.items():
            assert table.value(mask) == pytest.approx(value, abs=1e-8)

        # sigma(y): min eps s.t. x(S) + eps >= v(S), x(N) = 1, x and eps free.
        masks = sorted(expect)
        rows = np.array([[mask >> i & 1 for i in range(inst.n_retailers)] for mask in masks], float)
        res = linprog(np.r_[np.zeros(inst.n_retailers), 1.0],
                      A_ub=-np.hstack([rows, np.ones((len(masks), 1))]),
                      b_ub=-np.array([expect[m] for m in masks]),
                      A_eq=np.r_[np.ones(inst.n_retailers), 0.0][None, :], b_eq=[1.0],
                      bounds=[(None, None)] * (inst.n_retailers + 1), method="highs")
        assert solver.sigma(y)[0] == pytest.approx(res.fun, abs=1e-8)
