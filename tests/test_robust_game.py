import dataclasses
import gc
from fractions import Fraction
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nvgames import coop, distributions
from nvgames import lp as lp_module
from nvgames import robust_game as rg_module
from nvgames.coop import balancedness_duality_pair, solve_stability_lp
from nvgames.distributions import (
    SUPPORT_CAP,
    DiscreteMarginal,
    Instance,
    get_polytope,
    independent_joint,
)
from nvgames.errors import DomainError, InputError, SolverError
from nvgames.newsvendor import (
    _profit,
    grand_action_interval,
    optimal_order,
    worst_case_order,
)
from nvgames.stress import ExperimentConfig, _solve_robust, gen_instance
from nvgames.robust_game import (
    _DINKELBACH_TOL,
    Decision,
    RobustGameSolver,
    VmaxTable,
    imputation_exists,
    verify_rcore2,
)

from conftest import lp_path_only, make_example1, random_instance
from test_stress import small_cfg
from oracles import (
    brute_force_ratios,
    brute_force_vmax,
    dense_joint,
    dense_ratio,
    exact_sigma_slopes,
    expected_profit,
)


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
                res = solver.vmax(y, mask)
                brute = brute_force_vmax(inst, y, mask)
                assert res.value == pytest.approx(brute, abs=1e-8)

    @pytest.mark.parametrize("shape", [
        pytest.param((4, (2, 2), (2, 3)), id="two-blocks"),
        pytest.param((4, (2, 1, 1), (2, 2, 2)), id="three-blocks"),
    ])
    def test_screen_bound_covers_every_gamma(self, shape, lp_path):
        # Every candidate order's screen bound, countermonotonic for two
        # blocks and Jensen's for three, is at least that order's ratio,
        # each order solved by vertex enumeration. Only the LP path screens.
        for seed in range(3):
            inst = random_instance(seed, n=shape[0], block_sizes=shape[1], atoms_per_block=shape[2])
            solver = RobustGameSolver(inst)
            p, pc = inst.price, inst.price - inst.cost
            for y in (solver.grand_wc.y_star, 0.8 * solver.grand_wc.y_star):
                vmin, _q = solver.min_grand_profit(y)
                for mask in range(1, inst.grand_mask):
                    if len(solver._blocks_met(mask)) == 1:
                        continue
                    _d_s, gammas, shortage, _start = solver._coalition_data(mask)
                    bounds = np.maximum(pc * gammas - p * shortage, 0.0) / vmin
                    ratios = brute_force_ratios(inst, y, mask)
                    assert sorted(ratios) == pytest.approx(gammas, abs=1e-12)
                    for gamma, bound in zip(gammas, bounds):
                        assert bound >= ratios[float(gamma)] - 1e-12

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
            y=3.0, ratios=np.zeros(2), gammas=np.zeros(2), joints=[np.array([])] * 2,
            min_grand_profit=3.0,
        )
        x, eps, _w = solve_stability_lp(2, table.ratios, 1.0)
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
        d = RobustGameSolver(t1).core_decision()
        assert d is not None
        assert d.y == pytest.approx(3.0, abs=1e-12)
        assert d.z == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-9)

    def test_example1_empty(self):
        assert RobustGameSolver(make_example1(24)).core_decision() is None

    def test_single_block_instance_always_has_core(self):
        for seed in range(8):
            inst = random_instance(seed, n=3, block_sizes=(3,), atoms_per_block=(4,))
            d = RobustGameSolver(inst).core_decision()
            assert d is not None
            assert verify_rcore2(inst, d, tol=1e-7)

    def test_verify_passes_on_returned_decisions(self):
        for seed in range(12):
            inst = random_instance(seed, n=4, block_sizes=(2, 2), atoms_per_block=(2, 2))
            d = RobustGameSolver(inst).core_decision()
            if d is not None:
                assert verify_rcore2(inst, d, tol=1e-7)


class TestRobustLeastCore:
    def test_t1(self, t1):
        d, eps = RobustGameSolver(t1).least_core()
        assert eps == pytest.approx(0.0, abs=1e-9)
        assert d.y == pytest.approx(3.0, abs=1e-9)
        assert d.z == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-9)

    def test_example1_stays_positive(self):
        d, eps = RobustGameSolver(make_example1(16)).least_core(y_tol=0.01)
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


def small_cfg_instance(i: int) -> Instance:
    """Instance i of run_stress(small_cfg()), seeded as run_stress seeds it."""
    cfg = small_cfg()
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.num_instances, np.uint32)
    return gen_instance(cfg, int(seeds[2 * i]))


def repeated_atom_instance() -> Instance:
    """The criterion-10 shape with a repeated atom in block 0, so its 16
    joint atoms fall into 3 x 4 value classes (C(12, 6) = 924 column sets;
    counted over the atoms, C(16, 6) = 8 008)."""
    cfg = ExperimentConfig(n=6, block_sizes=(3, 3), atoms_per_block=(4, 4),
                           support_lo=1, support_hi=10, seed=1)
    return gen_instance(cfg, 1002)


def counted_sigma(monkeypatch) -> list[int]:
    """Count RobustGameSolver.sigma calls from here on."""
    calls = [0]
    original = RobustGameSolver.sigma

    def sigma(self, y):
        calls[0] += 1
        return original(self, y)

    monkeypatch.setattr(RobustGameSolver, "sigma", sigma)
    return calls


def example1_ratio_lp_counts(monkeypatch, k: int) -> list[int]:
    """[ratio LPs, their simplex iterations] in the benchmark's example-1
    pass at K=k: table, sigma and least core at the worst-case order. Only
    the ratio LPs call solve_lp through the lp module."""
    original = lp_module.solve_lp
    counts = [0, 0]

    def counted(program, start=None):
        sol = original(program, start)
        counts[0] += 1
        counts[1] += sol.iterations
        return sol

    monkeypatch.setattr(lp_module, "solve_lp", counted)
    solver = RobustGameSolver(make_example1(k))
    y = solver.grand_wc.y_star
    solver.table(y)
    solver.sigma(y)
    solver.least_core(y_tol=0.02)
    return counts


class TestCutSearch:
    def test_lower_bound_below_a_grid_and_eps_at_most_its_minimum(self):
        # Oracle: sigma on a fine grid plus every grand-demand support value.
        for seed in range(4):
            shape = (3, (2, 1), (2, 2)) if seed % 2 else (4, (2, 2), (2, 3))
            inst = random_instance(seed, n=shape[0], block_sizes=shape[1], atoms_per_block=shape[2])
            solver = RobustGameSolver(inst)
            _d, eps = solver.least_core(y_tol=1e-6)
            lower = solver.least_core_lower
            lo, hi = grand_action_interval(inst)
            support = np.unique(solver.d_grand)
            grid = np.r_[np.linspace(lo, hi, 202)[1:-1], support[(support > lo) & (support < hi)]]
            oracle = RobustGameSolver(inst)
            best = min(oracle.sigma(float(y))[0] for y in grid)
            assert lower <= best + 1e-12
            assert eps <= best + 1e-9
            assert lower <= eps

    def test_kink_optimum_is_returned_exactly(self):
        # The optimum sits on the grand-demand support value 21, where
        # golden section stopped at 20.99991.
        inst = small_cfg_instance(0)
        solver = RobustGameSolver(inst)
        decision, eps = solver.least_core()
        assert decision.y == 21.0
        assert 21.0 in solver.d_grand
        assert solver.least_core_lower == eps

    @pytest.mark.parametrize("y", [20.0, 21.0, 22.5, 24.2])
    def test_slopes_bracket_finite_differences(self, y):
        # sigma is convex, so (sigma(y) - sigma(y-h))/h <= g- <= g+ <=
        # (sigma(y+h) - sigma(y))/h; 21 is a kink, the others are smooth.
        solver = RobustGameSolver(small_cfg_instance(0))
        h = 1e-5
        f, _x = solver.sigma(y)
        g_lo, g_hi, _err = solver._sigma_slopes()
        back = (f - solver.sigma(y - h)[0]) / h
        fwd = (solver.sigma(y + h)[0] - f) / h
        assert back - 1e-6 <= g_lo <= g_hi <= fwd + 1e-6
        if y == 21.0:
            assert g_lo < 0.0 < g_hi
        else:
            assert g_hi - g_lo <= 1e-12
            assert fwd - back <= 1e-3 * max(1.0, abs(g_lo))

    def test_non_convex_sigma_raises(self, monkeypatch):
        original = RobustGameSolver.sigma

        def dented(self, y):
            eps, x = original(self, y)
            return eps - 10.0 * abs(y - self.grand_wc.y_star), x

        monkeypatch.setattr(RobustGameSolver, "sigma", dented)
        solver = RobustGameSolver(small_cfg_instance(0))
        with pytest.raises(SolverError, match="not convex"):
            solver.least_core()

    def test_inadmissible_probe_shrinks_the_bracket(self, monkeypatch):
        # Orders above 22 made inadmissible: the probe at 25 is refused,
        # the bracket ends there, and the kink optimum 21 is still found.
        original = RobustGameSolver.sigma
        probed = []

        def refusing(self, y):
            probed.append(y)
            if y > 22.0:
                raise DomainError(f"order {y} refused")
            return original(self, y)

        monkeypatch.setattr(RobustGameSolver, "sigma", refusing)
        decision, _eps = RobustGameSolver(small_cfg_instance(0)).least_core()
        assert probed == [19.0, 25.0, 21.0]
        assert decision.y == 21.0

    def test_inadmissible_probe_below_the_worst_case_order_raises_the_floor(self, monkeypatch):
        # sigma tilted by 0.05 (y - y_wc), a convex function whose minimum,
        # near 16.518, lies below the worst-case order 19, with orders below
        # 15 refused: the probes at 9.5 and 14.25 are refused and each
        # becomes the bracket's lower end, no later probe goes below it,
        # and the minimum is found as without the refusals.
        sigma, slopes = RobustGameSolver.sigma, RobustGameSolver._sigma_slopes

        def search(floor: float) -> tuple[list[float], Decision, float]:
            probed = []

            def tilted(self, y):
                probed.append(y)
                if y < floor:
                    raise DomainError(f"order {y} refused")
                eps, x = sigma(self, y)
                return eps + 0.05 * (y - self.grand_wc.y_star), x

            monkeypatch.setattr(RobustGameSolver, "sigma", tilted)
            return probed, *RobustGameSolver(small_cfg_instance(0)).least_core()

        def tilted_slopes(self):
            g_lo, g_hi, err = slopes(self)
            return g_lo + 0.05, g_hi + 0.05, err

        monkeypatch.setattr(RobustGameSolver, "_sigma_slopes", tilted_slopes)
        probed, decision, eps = search(15.0)
        assert probed[:4] == [19.0, 9.5, 14.25, 16.625]
        assert min(probed[3:]) > 14.25
        free_probed, free_decision, free_eps = search(-np.inf)
        assert min(free_probed) < 15.0
        assert abs(decision.y - free_decision.y) <= 1e-4
        assert abs(eps - free_eps) <= 1e-7

    def test_a_bracket_down_to_adjacent_floats_ends_the_search(self, monkeypatch):
        # A convex sigma that falls with slope -2^24 up to the bracket's
        # upper end b, computed exactly: the search bisects toward b, and
        # its lower bound, the last probe's cut at b, stays 2^24 (b - a)
        # below the best probe, 2^-24 at adjacent floats, far above the
        # 1e-9 stop. Once the bracket is two adjacent floats their midpoint
        # is one of them, which ends the search. The last probe, b's lower
        # neighbour, is returned.
        solver = RobustGameSolver(small_cfg_instance(0))
        y_wc, slope = solver.grand_wc.y_star, 2.0**24
        b = y_wc + 2.0**-20
        monkeypatch.setattr("nvgames.robust_game.grand_action_interval",
                            lambda *args: (y_wc - 2.0**-20, b))
        probed = []
        even = np.full(solver.n, 1.0 / solver.n)

        def falling(y):
            probed.append(y)
            return slope * (b - y), even

        monkeypatch.setattr(solver, "sigma", falling)
        monkeypatch.setattr(solver, "_sigma_slopes", lambda: (-slope, -slope, 0.0))
        decision, eps = solver.least_core(y_tol=1e-300)
        below = float(np.nextafter(b, -np.inf))
        assert probed == sorted(probed) and probed[-1] == below == decision.y
        assert len(probed) == 29  # y_wc, then 28 halvings of 2^-20 down to ulp(19) = 2^-48
        assert eps == slope * (b - below) == 2.0**-24
        assert solver.least_core_lower == 0.0

    def test_example1_certified_in_one_probe(self, monkeypatch):
        solver = RobustGameSolver(make_example1(24))
        calls = counted_sigma(monkeypatch)
        decision, eps = solver.least_core(y_tol=0.02)
        assert calls[0] == 1
        assert decision.y == solver.grand_wc.y_star
        assert solver.least_core_lower == eps

    def test_example1_ratio_lps_and_pivots_are_pinned(self, monkeypatch):
        # A change to the pivot path of the benchmark's example-1 pass at
        # K=24 fails here by name.
        assert example1_ratio_lp_counts(monkeypatch, 24) == [2, 0]

    def test_example1_k200_ratio_lps_and_pivots_are_pinned(self, monkeypatch):
        # The benchmark's example-1 pass itself: the countermonotonic start
        # attains each spanning coalition's ratio, so one LP per coalition
        # certifies it without a pivot and the screen rules out every other
        # gamma.
        assert example1_ratio_lp_counts(monkeypatch, 200) == [2, 0]

    def test_slope_rounded_below_zero_still_certifies(self):
        # At example 1's worst-case order (K=24) sigma has its minimum, but
        # the right slope of its cuts computes as about -5e-17. Within the
        # slopes' rounding-error bound it is 0, so the first probe
        # certifies; compared with exactly 0 the search would stop on the
        # gap instead, with a lower bound below eps.
        solver = RobustGameSolver(make_example1(24))
        y = solver.grand_wc.y_star
        solver.sigma(y)
        g_lo, g_hi, err = solver._sigma_slopes()
        exact_lo, exact_hi = exact_sigma_slopes(solver)
        assert g_lo < 0.0 and g_hi < 0.0
        assert abs(exact_hi) <= err
        assert abs(g_lo - exact_lo) <= err and abs(g_hi - exact_hi) <= err
        decision, eps = solver.least_core(y_tol=0.02)
        assert decision.y == y
        assert solver.least_core_lower == eps

    @pytest.mark.parametrize("make, y", [
        pytest.param(lambda: small_cfg_instance(0), 19.0, id="19.0"),
        pytest.param(lambda: small_cfg_instance(0), 21.0, id="21.0"),
        pytest.param(lambda: random_instance(0, block_sizes=(2, 1, 1), atoms_per_block=(2, 2, 2)),
                     None, id="three-blocks"),
        pytest.param(repeated_atom_instance, None, id="repeated-atom"),
    ])
    def test_ties_are_the_vertices_attaining_each_entry(self, make, y):
        # Per coalition, every vertex within 1e-13 (relative) of the best
        # ratio over its candidate orders is tied, and none beyond 1e-10;
        # y None is the worst-case order.
        solver = RobustGameSolver(make())
        y = solver.grand_wc.y_star if y is None else y
        table = solver.table(y)
        tied = solver._tie_mask(np.arange(table.ratios.size))
        verts = solver.poly.vertices()
        p, pc = solver.p, solver.p - solver.c
        den = pc * y - p * np.maximum(y - solver.d_grand, 0.0)
        several = 0
        for mask in range(1, table.ratios.size + 1):
            if len(solver._blocks_met(mask)) == 1:
                vbar = solver._block_value(mask)[1]
                ratios = np.array([vbar / (den @ q) for q in verts])
            else:
                d_s = solver.poly.coalition_demands(mask)
                ratios = np.array([max(
                    (pc * g - p * np.maximum(g - d_s, 0.0)) @ q / (den @ q) for g in np.unique(d_s)
                ) for q in verts])
            best = ratios.max()
            ties = set(np.flatnonzero(tied[mask - 1]).tolist())
            assert set(np.flatnonzero(ratios >= best - 1e-13 * abs(best))) <= ties
            assert ties <= set(np.flatnonzero(ratios >= best - 1e-10 * abs(best)))
            several += len(ties) > 1
        if y == 19.0:
            assert several > 0  # some entries tie several vertices here

    @pytest.mark.parametrize("make, y", [
        pytest.param(lambda: small_cfg_instance(0), 19.0, id="19.0"),
        pytest.param(lambda: small_cfg_instance(1), None, id="small-1"),
        pytest.param(lambda: random_instance(0, block_sizes=(2, 1, 1), atoms_per_block=(2, 2, 2)),
                     None, id="three-blocks"),
        pytest.param(repeated_atom_instance, None, id="repeated-atom"),
    ])
    def test_ties_hold_every_exact_maximum_of_the_kernel_ratios(self, make, y):
        # Each vertex's ratio taken in rational arithmetic from the same
        # floats (the kernel's order, demands, vertex, price and cost):
        # every vertex that attains a coalition's exact maximum is tied.
        solver = RobustGameSolver(make())
        y = solver.grand_wc.y_star if y is None else y
        table = solver.table(y)
        tied = solver._tie_mask(np.arange(table.ratios.size))
        verts = [[Fraction(v) for v in q] for q in solver.poly.vertices()]
        p, pc = Fraction(solver.p), Fraction(solver.p - solver.c)
        orders = solver._vertex_numerators().orders

        def profit(order, d, q):
            return pc * order - p * sum(qk * max(order - dk, 0) for qk, dk in zip(q, d))

        d_n = [Fraction(v) for v in solver.d_grand]
        grand = [profit(Fraction(y), d_n, q) for q in verts]
        for mask in range(1, table.ratios.size + 1):
            d_s = [Fraction(v) for v in solver.poly.coalition_demands(mask)]
            exact = [profit(Fraction(float(g)), d_s, q) / gq
                     for g, q, gq in zip(orders[mask - 1], verts, grand)]
            top = max(exact)
            assert all(tied[mask - 1, v] for v, r in enumerate(exact) if r == top)

    @pytest.mark.parametrize("y", [19.0, 20.0, 21.0, 22.5, 24.2])
    def test_slope_error_bound_covers_exact_slopes(self, y):
        # At 19 several coalitions have two tied vertices.
        solver = RobustGameSolver(small_cfg_instance(0))
        solver.sigma(y)
        g_lo, g_hi, err = solver._sigma_slopes()
        exact_lo, exact_hi = exact_sigma_slopes(solver)
        assert 0.0 < err <= 1e-12
        assert abs(g_lo - exact_lo) <= err and abs(g_hi - exact_hi) <= err

    def test_stress_probe_count_is_pinned(self, monkeypatch):
        # Both small_cfg() instances have an empty core: two core tests at
        # the worst-case order, then 13 least-core probes between them.
        from nvgames.stress import run_stress

        calls = counted_sigma(monkeypatch)
        run_stress(small_cfg())
        assert calls[0] == 15


class TestRuntimeChecks:
    """Each runtime check of the ratio LPs and the least-core search fires,
    with its message, on a corrupted solve."""

    @pytest.fixture
    def vmax_on_lp_path(self, lp_path):
        # Coalition {0, 2} of this draw needs two Dinkelbach steps at
        # gamma = 11.
        inst = random_instance(0, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
        solver = RobustGameSolver(inst)
        return lambda: solver.vmax(solver.grand_wc.y_star, 0b101)

    @staticmethod
    def corrupt_ratio_lps(monkeypatch, change):
        """Every ratio LP solution from here on passed through `change`."""
        solve = lp_module.solve_lp
        monkeypatch.setattr(lp_module, "solve_lp", lambda *args: change(solve(*args)))

    def test_a_ratio_lp_that_is_not_optimal_raises(self, vmax_on_lp_path, monkeypatch):
        self.corrupt_ratio_lps(monkeypatch, lambda sol: dataclasses.replace(sol, status="infeasible"))
        with pytest.raises(SolverError, match=r"ratio LP for coalition 0x5 at gamma=\S+ "
                                              r"reported 'infeasible'"):
            vmax_on_lp_path()

    def test_a_step_that_does_not_raise_the_ratio_raises(self, vmax_on_lp_path, monkeypatch):
        # F stays above the tolerance once the optimal vertex is reached.
        self.corrupt_ratio_lps(monkeypatch, lambda sol: dataclasses.replace(
            sol, objective_value=sol.objective_value + 1.0))
        with pytest.raises(SolverError, match=r"Dinkelbach step for coalition 0x5 at gamma=\S+ "
                                              r"left the ratio at \S+ with F = 1\.0"):
            vmax_on_lp_path()

    def test_a_ratio_not_certified_within_the_step_cap_raises(self, vmax_on_lp_path, monkeypatch):
        monkeypatch.setattr("nvgames.robust_game._DINKELBACH_MAX_STEPS", 1)
        with pytest.raises(SolverError, match=r"ratio for coalition 0x5 at gamma=11\.0 "
                                              r"not certified after 1 Dinkelbach steps"):
            vmax_on_lp_path()

    def test_a_search_without_an_admissible_probe_raises(self, monkeypatch):
        solver = RobustGameSolver(random_instance(0, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2)))

        def inadmissible(y):
            raise DomainError(f"order {y} taken as inadmissible")

        monkeypatch.setattr(solver, "sigma", inadmissible)
        with pytest.raises(SolverError, match="least-core search never found an admissible order"):
            solver.least_core()


def scale_draws(support: tuple[int, int]) -> list[Instance]:
    """gen_instance seeds 0-19 of one config, n=4, blocks (2, 2), 3 and 4
    atoms: 432 column bases, below the vertex cap."""
    cfg = ExperimentConfig(n=4, block_sizes=(2, 2), atoms_per_block=(3, 4),
                           support_lo=support[0], support_hi=support[1], seed=5)
    return [gen_instance(cfg, seed) for seed in range(20)]


def table_and_least_core(inst: Instance) -> tuple[dict, float, float, np.ndarray]:
    """(table at the worst-case order, least-core y, eps and z)."""
    solver = RobustGameSolver(inst)
    table = solver.table(solver.grand_wc.y_star)
    decision, eps = solver.least_core()
    return table.values, decision.y, eps, decision.z


class TestScale:
    """Below the vertex cap no ratio depends on an absolute tolerance, so
    the solver works at any demand scale (above it, the Dinkelbach LPs
    still do)."""

    @pytest.mark.parametrize("support", [(10**6, 10**7), (10**8, 10**9)])
    def test_large_supports_solve(self, support):
        # The LP path raised SolverError on 18 and 20 of these 20 draws.
        for inst in scale_draws(support):
            _values, y, eps, z = table_and_least_core(inst)
            lo, hi = grand_action_interval(inst)
            assert lo <= y <= hi and np.isfinite(eps)
            assert abs(float(np.sum(z)) - 1.0) <= 1e-9

    @pytest.mark.parametrize("f", [2.0**20, 2.0**-20, 1e6, 1e-6])
    def test_scaled_atoms_give_the_same_game(self, f):
        # A power of two changes no rounding, so every output is
        # bit-identical; a power of ten moves the last bits only.
        for inst in scale_draws((1, 10)):
            scaled = Instance(inst.price, inst.cost, inst.partition, tuple(
                DiscreteMarginal(m.atoms * f, m.probs) for m in inst.marginals))
            values, y, eps, z = table_and_least_core(inst)
            values_f, y_f, eps_f, z_f = table_and_least_core(scaled)
            if f in (2.0**20, 2.0**-20):
                assert (values_f, y_f / f, eps_f) == (values, y, eps)
                assert np.array_equal(z_f, z)
            else:
                assert max(abs(values_f[m] - v) for m, v in values.items()) <= 1e-9
                assert abs(y_f / f - y) <= 1e-9 * y and abs(eps_f - eps) <= 1e-9
                assert np.max(np.abs(z_f - z)) <= 1e-9


class TestRepeatedAtoms:
    """A repeated atom merges two value classes; the vertex table is built
    over the classes, so it keeps the vertex path."""

    @pytest.fixture
    def inst(self) -> Instance:
        inst = repeated_atom_instance()
        poly = get_polytope(inst)
        assert (poly.class_counts, poly.n_atoms) == ((3, 4), 16)
        return inst

    def test_table_agrees_with_the_lp_path(self, inst):
        assert get_polytope(inst).vertices() is not None
        solver = RobustGameSolver(inst)
        y = solver.grand_wc.y_star
        table = solver.table(y)
        with lp_path_only():
            lp_table = RobustGameSolver(inst).table(y)
        bound = _DINKELBACH_TOL / table.min_grand_profit
        gap = table.ratios - lp_table.ratios
        assert np.all(-1e-12 <= gap) and np.all(gap <= bound)

    def test_decision_agrees_with_the_lp_path(self, inst):
        lo, hi = grand_action_interval(inst)
        y_tol = 1e-4 * (hi - lo)
        decision, _ = _solve_robust(inst, y_tol)
        with lp_path_only():
            lp_decision, _ = _solve_robust(inst, y_tol)
        assert abs(decision.y - lp_decision.y) <= y_tol


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
            expect_x, expect_eps, _w = solve_stability_lp(3, solver.table(y_i).ratios, 1.0)
            assert eps == expect_eps
            assert np.array_equal(x, expect_x)

    def test_witnesses_in_build_order_once_per_array(self):
        inst = random_instance(5, n=4, block_sizes=(2, 2), atoms_per_block=(2, 3))
        solver = RobustGameSolver(inst)
        y = solver.grand_wc.y_star
        tables = [solver.table(f * y) for f in (1.0, 0.8, 1.1)]
        expect, seen = [], set()
        for table in tables:
            for q in table.joints:
                if id(q) not in seen:
                    seen.add(id(q))
                    expect.append(q)
        assert len(expect) < sum(len(t.joints) for t in tables)
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

    def test_three_block_ratio_lps_are_pinned(self, monkeypatch, lp_path):
        # [ratio LPs, pivots] of table(y_wc) and of the least core's first
        # probe after it, on a three-block polytope. A spanning coalition's
        # first LP starts from the crash basis with lam the ratio of the
        # grand coalition's comonotonic joint, each later one from the
        # coalition's last attaining solution. Before pricing broke its
        # ties within PIVOT_TOL by the lowest column id this read [31, 67],
        # [64, 129], and starting from the coalition's own northwest vertex
        # then read [31, 65], [63, 131].
        inst = random_instance(2, n=4, block_sizes=(2, 1, 1), atoms_per_block=(3, 3, 3))
        original_solve, original_table = lp_module.solve_lp, RobustGameSolver.table
        counts = []

        def counted(program, start=None):
            sol = original_solve(program, start)
            counts[-1][0] += 1
            counts[-1][1] += sol.iterations
            return sol

        def table(self, y):
            if self._last_table is None or self._last_table.y != y:
                counts.append([0, 0])
            return original_table(self, y)

        monkeypatch.setattr(lp_module, "solve_lp", counted)
        monkeypatch.setattr(RobustGameSolver, "table", table)
        solver = RobustGameSolver(inst)
        solver.table(solver.grand_wc.y_star)
        solver.least_core()
        assert counts[:2] == [[31, 69], [63, 125]]


def bench_pass(solver: RobustGameSolver) -> list:
    """What the benchmark's example-1 pass returns: table, sigma and least
    core at the worst-case order, and the least core's lower bound."""
    y = solver.grand_wc.y_star
    ratios = solver.table(y).ratios
    eps_wc, x_wc = solver.sigma(y)
    decision, eps = solver.least_core(y_tol=0.02)
    return [ratios, eps_wc, x_wc, decision.y, decision.z, eps, solver.least_core_lower]


def nan_off(x: np.ndarray, support) -> np.ndarray:
    """A copy of `x` with NaN at every entry off `support`."""
    out = np.full(x.size, np.nan)
    out[support] = x[support]
    return out


class TestSupportProducts:
    @pytest.mark.parametrize("draw", ["example1", "dinkelbach_steps"])
    def test_products_run_over_supports(self, monkeypatch, draw):
        # Example 1 at K = 120 has 14 400 atoms: dots of this length run on
        # two OpenBLAS threads. Its first LPs certify every ratio, so a draw
        # whose coalition 0b101 takes two Dinkelbach steps covers the
        # steps' ratios. Every ratio LP solution and the comonotonic joint
        # is handed on with NaN off its support, so a product over all K
        # atoms would change the results. The countermonotonic start is
        # held as its n_rows masses alone, so it has no entry off its
        # support to poison: the walk's output is checked for that, and
        # the first ratio of each coalition must read exactly its basis's
        # atoms. Every LP makes exactly two helper products, its duality
        # gap and its objective value, every product outside the stability
        # LPs runs over at most n_rows atoms, and so does every ratio.
        if draw == "example1":
            inst = make_example1(120)
        else:
            inst = random_instance(0, n=3, block_sizes=(2, 1), atoms_per_block=(2, 2))
            monkeypatch.setattr("nvgames.distributions._VERTEX_CAP", 0)
        want = bench_pass(RobustGameSolver(inst))

        solver = RobustGameSolver(inst)
        calls, stability = [], set()  # (support size, product); stability LPs' calls
        support_dot = lp_module.support_dot

        def spied_dot(v, x, support):
            calls.append((support.size, support_dot(v, x, support)))
            return calls[-1][1]

        def spied(solve, polytope: bool):
            def run(program, start=None):
                before = len(calls)
                sol = solve(program, start)
                assert len(calls) == before + 2
                assert sol.objective_value == calls[-1][1]
                if not polytope:
                    stability.update(range(before, len(calls)))
                    return sol
                return dataclasses.replace(sol, x=nan_off(sol.x, sol.support))
            return run

        northwest, ratio = solver.poly.northwest_vertex, rg_module._ratio
        starts, ratios = [], []  # each start's ascending basis; each ratio's support

        def recorded_northwest(orders):
            basis, mass = northwest(orders)
            assert len(basis) == mass.size == solver.poly.n_rows
            starts.append(sorted(basis))
            return basis, mass

        def spied_ratio(num, den, support, mass):
            ratios.append(support.tolist())
            return ratio(num, den, support, mass)

        monkeypatch.setattr(lp_module, "support_dot", spied_dot)
        monkeypatch.setattr(lp_module, "solve_lp", spied(lp_module.solve_lp, True))
        monkeypatch.setattr(coop, "solve_lp", spied(coop.solve_lp, False))
        monkeypatch.setattr(solver.poly, "northwest_vertex", recorded_northwest)
        monkeypatch.setattr(rg_module, "_ratio", spied_ratio)
        sums, weights, q_min = solver._grand_coupling
        solver._grand_coupling = (sums, weights, nan_off(q_min, solver._grand_support))
        got = bench_pass(solver)
        assert solver.poly.vertices() is None
        assert draw != "example1" or solver.poly.n_atoms == 14_400
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        sizes = [size for i, (size, _) in enumerate(calls) if i not in stability]
        assert sizes and max(sizes) <= solver.poly.n_rows
        assert starts and all(start in ratios for start in starts)
        assert max(len(support) for support in ratios) <= solver.poly.n_rows


class TestRatioLpFootprint:
    """The ratio LPs' K-long vectors: each numerator, denominator and
    Dinkelbach objective is formed in one array with the out-of-place
    formula's bits, and the countermonotonic start is held on its support."""

    @staticmethod
    def draws(rng, size: int):
        """Random (p, c, y, demands) with exact ties and zero shortages:
        demands on a coarse grid that holds y, some negative, and orders
        that are sometimes 0."""
        for _ in range(size):
            price = float(rng.uniform(1.0, 3.0))
            cost = float(rng.uniform(0.0, price))
            demands = rng.integers(-2, 9, 64) * float(rng.choice([0.125, 0.1, 1.0 / 3.0]))
            y = float(rng.choice([0.0, demands[0], rng.uniform(-1.0, 4.0)]))
            yield SimpleNamespace(price=price, cost=cost), y, demands

    def test_lp_path_forms_no_coalition_demand_rows(self):
        # The coalition set-up of the vertex tables (every coalition's
        # K-long demand row) is never built above the vertex cap.
        solver = RobustGameSolver(make_example1(100))
        assert solver.poly.vertices() is None
        solver.least_core(y_tol=0.02)
        assert "_coalitions" not in vars(solver) and solver._numerators is None

    def test_atom_profits_keep_the_out_of_place_bits(self):
        for inst, y, demands in self.draws(np.random.default_rng(11), 300):
            want = (inst.price - inst.cost) * y - inst.price * np.maximum(y - demands, 0.0)
            got = rg_module._atom_profits(inst, y, demands)
            assert got.tobytes() == want.tobytes()  # signed zeros included

    def test_dinkelbach_objective_keeps_the_out_of_place_bits(self, monkeypatch):
        # Each step's objective is the numerator's own array less lam den,
        # block by block. On example 1 at K = 100 (10 000 atoms: one full
        # block and a shorter one) it has the bytes of num - lam * den,
        # signed zeros included, for every lam tried at the first step.
        class Captured(Exception):
            pass

        objectives = []

        def captured(program, start=None):
            objectives.append(program.objective)
            raise Captured

        solver = RobustGameSolver(make_example1(100))
        atoms, block = solver.poly.n_atoms, rg_module._BLOCK
        assert atoms > block and atoms % block
        monkeypatch.setattr(lp_module, "solve_lp", captured)
        rng = np.random.default_rng(12)
        y = solver.grand_wc.y_star
        den = solver._denominator(y)
        for mask in (0b101, 0b110):
            d_s, gammas, _shortage, (start, _support, _mass) = solver._coalition_data(mask)
            for gamma in [0.0, *rng.choice(gammas, 4).tolist()]:
                num = _profit(solver.inst, gamma, np.maximum(gamma - d_s, 0.0))
                for lam in (0.0, -0.0, 1.0 / 3.0, float(rng.normal()), np.float64(rng.normal())):
                    with pytest.raises(Captured):
                        solver._dinkelbach(gamma, d_s, den, lam, start, mask)
                    assert objectives[-1].tobytes() == (num - lam * den).tobytes()

    def test_denominator_is_formed_once_per_order(self):
        solver = RobustGameSolver(make_example1(24))
        for y in (solver.grand_wc.y_star, 0.3, 0.7):
            want = _profit(solver.inst, y, np.maximum(y - solver.d_grand, 0.0))
            den = solver._denominator(y)
            assert den.tobytes() == want.tobytes()
            assert solver._denominator(y) is den

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: make_example1(24), id="example1"),
        *[pytest.param(lambda seed=seed: random_instance(
            seed, n=4, block_sizes=(2, 2), atoms_per_block=(3, 4)), id=f"draw{seed}")
          for seed in range(3)],
    ])
    def test_start_ratio_is_the_dense_joints(self, monkeypatch, make):
        # The start's ratio reads num and den at its ascending basis atoms
        # against its masses there: the bits of the ratio over the dense
        # joint of the walk, at every candidate order.
        inst = make()
        solver = RobustGameSolver(inst)
        walks = []
        northwest = solver.poly.northwest_vertex

        def recorded(orders):
            walks.append(northwest(orders))
            return walks[-1]

        monkeypatch.setattr(solver.poly, "northwest_vertex", recorded)
        y = solver.grand_wc.y_star
        den = _profit(inst, y, np.maximum(y - solver.d_grand, 0.0))
        for mask in range(1, inst.grand_mask):
            if len(solver._blocks_met(mask)) < 2:
                continue
            d_s, gammas, _shortage, (basis, support, mass) = solver._coalition_data(mask)
            walk_basis, walk_mass = walks[-1]
            assert basis == walk_basis
            q = dense_joint(solver.poly.n_atoms, walk_basis, walk_mass)
            for gamma in gammas.tolist():
                num = _profit(inst, gamma, np.maximum(gamma - d_s, 0.0))
                assert rg_module._ratio(num[support], den, support, mass) == dense_ratio(
                    num, den, q, np.sort(walk_basis))
        assert walks


@pytest.mark.parametrize("block", [None, 5])
def test_candidate_orders_keep_the_one_shot_diff_across_blocks(monkeypatch, block):
    # Rows longer than two blocks whose neighbours at every block edge lie
    # within 1e-12 of each other, at it or just beyond it: the blockwise
    # keep mask gives the bytes of the one-shot np.diff form on each row.
    if block is not None:
        monkeypatch.setattr(rg_module, "_BLOCK", block)
    b = rg_module._BLOCK
    k = 2 * b + 37
    rng = np.random.default_rng(15)
    steps = rng.choice([0.0, 1e-13, 1e-12, 2e-12, 1e-3], size=(3, k))
    edges = np.arange(1, k, b)  # each block's first column
    steps[:, edges] = rng.choice([0.0, 5e-13, 1e-12, 1.5e-12], size=(3, edges.size))
    ordered = 3.0 + np.cumsum(steps, axis=1)
    gaps = np.diff(ordered, axis=1)[:, edges - 1]
    assert np.any((gaps > 0.0) & (gaps <= 1e-12)) and np.any(gaps > 1e-12)
    keep = np.ones(ordered.shape, dtype=bool)
    keep[:, 1:] = np.diff(ordered, axis=1) > 1e-12
    want = [row[kept] for row, kept in zip(ordered, keep)]
    demands = rng.permuted(ordered, axis=1)
    got = [rg_module._candidate_orders(row) for row in demands]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


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
        assert RobustGameSolver(inst).core_decision() is None
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
        d = RobustGameSolver(t1).core_decision()
        assert verify_rcore2(t1, d)
        assert not verify_rcore2(t1, Decision(4.0, d.z))
        assert not verify_rcore2(t1, Decision(d.y, np.array([2.0 / 3.0, 1.0 / 3.0])))

    def test_block_sum_mismatch_fails(self):
        inst = random_instance(1, n=4, block_sizes=(2, 2), atoms_per_block=(2, 2))
        d = RobustGameSolver(inst).core_decision()
        if d is None:
            d, _ = RobustGameSolver(inst).least_core(y_tol=0.05)
            assert not verify_rcore2(inst, d)
            return
        z = d.z.copy()
        shift = 0.2
        z[0] += shift
        z[-1] -= shift
        assert not verify_rcore2(inst, Decision(d.y, z))


class TestSupportCap:
    def test_cap_above_the_default(self, monkeypatch):
        # 1001 x 1000 joint atoms, above the default SUPPORT_CAP, which is
        # raised for this solver: the minimum grand profit and the action
        # interval must not look the polytope up. Both players are
        # single-block coalitions, so no ratio LP runs either.
        m1 = DiscreteMarginal(np.arange(1.0, 1002.0)[:, None], np.full(1001, 1.0 / 1001))
        m2 = DiscreteMarginal(np.arange(1.0, 1001.0)[:, None], np.full(1000, 1.0 / 1000))
        inst = Instance(1.5, 1.0, ((0,), (1,)), (m1, m2))
        assert inst.joint_size() > SUPPORT_CAP
        original = lp_module.solve_lp
        calls = []

        def counted(program, start=None):
            calls.append(program)
            return original(program, start)

        for name, module in list(sys.modules.items()):
            if name.startswith("nvgames") and getattr(module, "solve_lp", None) is original:
                monkeypatch.setattr(module, "solve_lp", counted)
        monkeypatch.setattr(distributions, "SUPPORT_CAP", 2 * 10**6)
        solver = RobustGameSolver(inst)
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
    oracle, against scipy's HiGHS on the dense Charnes-Cooper system, an
    independent formulation of the ratio LPs the solver runs by Dinkelbach
    iterations."""

    @pytest.mark.parametrize("k", [20, 30])
    def test_vmax_and_sigma(self, k, lp_path):
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

        # The Charnes-Cooper system of the ratio LP, written out densely:
        # variables (psi, theta) with psi = q * theta, A psi = rhs theta and
        # grand profit (psi, theta) = 1.
        a = np.asarray(poly.matrix)
        cc = np.block([
            [a, -poly.rhs[:, None]],
            [-p * np.maximum(y - solver.d_grand, 0.0)[None, :], np.array([[(p - c) * y]])],
        ])
        b_cc = np.zeros(cc.shape[0])
        b_cc[-1] = 1.0
        expect = {}
        for mask in range(1, inst.grand_mask):
            if len(solver._blocks_met(mask)) == 1:
                expect[mask] = solver._block_value(mask)[1] / vmin
                continue
            d_s, gammas = solver._coalition_data(mask)[:2]
            mean = float(d_s @ independent_joint(inst).q)  # E d_S under every consistent q
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


EXAMPLE1_BITS = """
import sys
sys.path[:0] = sys.argv[1:]
from conftest import make_example1
from nvgames import RobustGameSolver
solver = RobustGameSolver(make_example1(120))
y_wc = solver.grand_wc.y_star
table = solver.table(y_wc)
eps_wc, _x = solver.sigma(y_wc)
decision, eps = solver.least_core(y_tol=0.02)
print(table.ratios.tobytes().hex(), float(eps_wc).hex(), float(decision.y).hex(),
      decision.z.tobytes().hex(), float(eps).hex())
"""


def test_example1_keeps_its_bits_on_one_blas_thread():
    # OpenBLAS picks its kernels by thread count; example 1's table, sigma
    # and least core read the same on one thread as on the default count.
    # Only the child process sees the variable.
    root = Path(__file__).resolve().parent.parent
    args = [sys.executable, "-c", EXAMPLE1_BITS, str(root / "src"), str(root / "tests")]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    runs = [
        subprocess.run(args, env=env | extra, capture_output=True, text=True, timeout=120)
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[0].stdout == runs[1].stdout
    assert len(runs[0].stdout.split()) == 5
