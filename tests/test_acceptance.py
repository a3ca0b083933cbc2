"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Random-instance criteria draw shapes from seeded generators so reruns are
bit-identical. Tolerances are the contract values, pinned here.
"""

import contextlib
import time
from fractions import Fraction

import numpy as np
import pytest

from nvgames.coop import balancedness_duality_pair
from nvgames.distributions import independent_joint
from nvgames.newsvendor import (
    grand_action_interval,
    optimal_order,
    worst_case_order,
    worst_case_shortage,
)
from nvgames.robust_game import (
    RobustGameSolver,
    imputation_exists,
    verify_rcore2,
)
from nvgames.stress import ExperimentConfig, gen_instance, run_stress
from nvgames.lp import solve_lp

from conftest import lp_path_only, make_example1, random_instance
from oracles import (
    brute_force_vmax,
    dual_objective_offset,
    exact_least_core_eps,
    oracle_solve_lp,
    standard_form_dual,
)
from test_lp import is_vertex_of, random_lp


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def rand_shape_instance(rng: np.random.Generator, n_max=5, k_max=3, n_min=2):
    n = int(rng.integers(n_min, n_max + 1))
    if n >= 2 and rng.random() < 0.85:
        cut = int(rng.integers(1, n))
        blocks = (cut, n - cut)
    else:
        blocks = (n,)
    atoms = tuple(int(rng.integers(2, k_max + 1)) for _ in blocks)
    return random_instance(
        int(rng.integers(0, 2**31)), n=n, block_sizes=blocks, atoms_per_block=atoms
    )


def test_criterion_01_example1_reproduction():
    with criterion(1, "discretized empty-core example at K=200 within 60 s"):
        start = time.monotonic()
        k = 200
        inst = make_example1(k)  # p=1.5, c=1, D=1
        solver = RobustGameSolver(inst)
        y_wc = solver.grand_wc.y_star
        target = 6.0 / 7.0

        v12 = solver.vmax(y_wc, 0b011).value
        assert abs(v12 - target) <= 0.02 * target
        v13 = solver.vmax(y_wc, 0b101).value
        v23 = solver.vmax(y_wc, 0b110).value
        assert v13 >= target * 0.98
        assert v23 >= target * 0.98

        eps_wc, _ = solver.sigma(y_wc)
        assert eps_wc > 0.0  # empty core

        _decision, eps_star = solver.least_core(y_tol=0.02)
        assert eps_star > 0.05

        elapsed = time.monotonic() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_example1_reaches_its_continuous_limit():
    # Example 1 at K = 100, 200, 400 and 800: the discretization error of the
    # pair ratios and of the least-core eps (sigma at the worst-case order)
    # is first order in 1/K, so K (6/7 - v_12) is monotone, and Richardson
    # extrapolation that cancels the 1/K and 1/K^2 terms over the last three
    # K lands on the paper's 6/7 and on 4/21 = (3 * 6/7 - 2) / 3, the least
    # core of three players whose pairs are each worth 6/7.
    start = time.monotonic()
    ks = np.array([100, 200, 400, 800])
    found = []  # per K: v_12, v_13, v_23, eps
    for k in ks:
        solver = RobustGameSolver(make_example1(int(k)))
        y = solver.grand_wc.y_star
        found.append([solver.vmax(y, m).value for m in (0b011, 0b101, 0b110)]
                     + [solver.sigma(y)[0]])
    values = np.array(found)
    for order in (1, 2):  # v(K) = v + a/K + b/K^2 + ...: cancel a, then b
        values = (2**order * values[1:] - values[:-1]) / (2**order - 1)
    limits = values[-1]
    assert np.all(np.abs(limits[:3] - 6.0 / 7.0) <= 1e-6), limits
    assert abs(limits[3] - 4.0 / 21.0) <= 1e-6, limits
    rate = ks * (6.0 / 7.0 - np.array(found)[:, 0])
    assert np.all(np.diff(rate) < 0.0), rate
    assert time.monotonic() - start < 2.0


def test_criterion_02_t1_exact_fixture(t1):
    with criterion(2, "hand-computed two-retailer fixture is exact"):
        d = RobustGameSolver(t1).core_decision()
        assert d is not None
        assert abs(d.y - 3.0) <= 1e-9
        assert np.max(np.abs(d.z - np.array([1.0 / 3.0, 2.0 / 3.0]))) <= 1e-9
        eps, _x = RobustGameSolver(t1).sigma(3.0)
        assert abs(eps) <= 1e-9
        ok, z = imputation_exists(t1)
        assert ok
        assert abs(float(np.sum(z)) - 1.0) <= 1e-9


def test_criterion_03_worst_case_order_grid_oracle():
    with criterion(3, "worst-case order equals grid maximization on 50 instances"):
        rng = np.random.default_rng(1003)
        for _ in range(50):
            inst = rand_shape_instance(rng, n_max=5, k_max=3)
            from nvgames.distributions import get_polytope

            poly = get_polytope(inst)
            p, c = inst.price, inst.cost
            for mask in range(1, inst.grand_mask + 1):
                grid = np.unique(np.r_[0.0, poly.coalition_demands(mask)])
                brute = max(
                    (p - c) * y - p * worst_case_shortage(inst, float(y), mask)
                    for y in grid
                )
                assert abs(worst_case_order(inst, mask).value - brute) <= 1e-6


def test_criterion_04_vmax_brute_force_oracle():
    with criterion(4, "worst-case ratios equal brute force on 25 tiny instances, both paths"):
        rng = np.random.default_rng(1004)
        done = 0
        while done < 25:
            n = int(rng.integers(2, 4))
            blocks = (n - 1, 1) if n > 2 else (1, 1)
            inst = random_instance(
                int(rng.integers(0, 2**31)), n=n, block_sizes=blocks,
                atoms_per_block=(2, 2),
            )
            assert inst.joint_size() <= 4
            solver = RobustGameSolver(inst)  # from the vertex table
            with lp_path_only():
                lp_solver = RobustGameSolver(inst)  # from Dinkelbach LPs
            y = solver.grand_wc.y_star
            vmin, _ = solver.min_grand_profit(y)
            if vmin <= 1e-9:
                continue
            for mask in range(1, inst.grand_mask):
                expect = brute_force_vmax(inst, y, mask)
                assert abs(solver.vmax(y, mask).value - expect) <= 1e-8
                with lp_path_only():
                    assert abs(lp_solver.vmax(y, mask).value - expect) <= 1e-8
            done += 1


def test_criterion_05_duality_consistency():
    with criterion(5, "stability sign matches the balancedness dual on 25 instances"):
        rng = np.random.default_rng(1005)
        seen_positive = 0
        for _ in range(25):
            inst = rand_shape_instance(rng, n_max=4, k_max=3, n_min=3)
            solver = RobustGameSolver(inst)
            y = solver.grand_wc.y_star
            table = solver.table(y)
            eps, _ = solver.sigma(y)
            z_p, z_d = balancedness_duality_pair(table.values, inst.n_retailers)
            assert abs(z_p - z_d) <= 1e-7
            if abs(eps) < 1e-12:
                # A float table whose least-core value is 0 up to rounding:
                # its exact value may be a few 1e-17 of either sign (+2.8e-17
                # and +3.7e-17 on two of these draws), so no sign test holds;
                # eps must match the exact value instead.
                exact = exact_least_core_eps(inst.n_retailers, table.values)
                assert abs(Fraction(eps) - exact) <= Fraction(1e-15)
                assert z_d <= 1e-7
            elif eps <= 0.0:
                assert z_d <= 1e-7
            else:
                assert z_d > 1e-9
                seen_positive += 1
        assert seen_positive > 0  # the sample must exercise both branches


def test_criterion_06_imputations_always_exist():
    with criterion(6, "imputation existence on 100 random instances, zero failures"):
        rng = np.random.default_rng(1006)
        for _ in range(100):
            inst = rand_shape_instance(rng, n_max=5, k_max=3)
            ok, z = imputation_exists(inst)
            assert ok
            assert abs(float(np.sum(z)) - 1.0) <= 1e-9


def test_criterion_07_core_decisions_verify():
    with criterion(7, "every returned stable decision passes the structural check"):
        rng = np.random.default_rng(1007)
        found = 0
        for _ in range(50):
            inst = rand_shape_instance(rng, n_max=5, k_max=3, n_min=3)
            decision = RobustGameSolver(inst).core_decision()
            if decision is not None:
                assert verify_rcore2(inst, decision, tol=1e-7)
                found += 1
        assert found > 0


def test_criterion_08_sigma_convexity():
    with criterion(8, "sigma midpoint convexity, 100 pairs x 10 instances"):
        rng = np.random.default_rng(1008)
        for _ in range(10):
            inst = rand_shape_instance(rng, n_max=3, k_max=2, n_min=3)
            solver = RobustGameSolver(inst)
            lo, hi = grand_action_interval(inst)
            pad = 0.02 * (hi - lo)
            grid = np.linspace(lo + pad, hi - pad, 13)
            for _ in range(100):
                y1, y2 = rng.choice(grid, 2, replace=False)
                mid = 0.5 * (y1 + y2)
                s1, _ = solver.sigma(float(y1))
                s2, _ = solver.sigma(float(y2))
                sm, _ = solver.sigma(float(mid))
                assert sm <= 0.5 * (s1 + s2) + 1e-8


def test_criterion_09_deterministic_superadditivity():
    with criterion(9, "deterministic values superadditive on 50 instances"):
        rng = np.random.default_rng(1009)
        for _ in range(50):
            inst = rand_shape_instance(rng, n_max=5, k_max=3)
            q = independent_joint(inst)
            grand = inst.grand_mask
            values = np.zeros(grand + 1)
            for mask in range(1, grand + 1):
                values[mask] = optimal_order(inst, q, mask).value
            for s1 in range(1, grand + 1):
                rest = grand ^ s1
                s2 = rest
                while s2:
                    assert values[s1 | s2] >= values[s1] + values[s2] - 1e-9
                    s2 = (s2 - 1) & rest


def test_criterion_10_stress_reproduction():
    with criterion(10, "contamination experiment: robust wins the worst case"):
        start = time.monotonic()
        cfg = ExperimentConfig(
            n=6, block_sizes=(3, 3), atoms_per_block=(4, 4),
            support_lo=1, support_hi=10, price=1.5, cost=1.0,
            num_extremal=40, num_instances=20, seed=20240811,
        )
        stats = run_stress(cfg, workers=4)
        lam0 = stats.rows_for_lambda(0.0)
        assert len(lam0) == cfg.num_instances
        for row in lam0:
            assert row.det_max <= 1e-9
        lam1 = stats.rows_for_lambda(1.0)
        wins = sum(1 for row in lam1 if row.rob_max <= row.det_max + 1e-12)
        assert wins >= 0.9 * cfg.num_instances
        elapsed = time.monotonic() - start
        assert elapsed < 30 * 60.0, f"took {elapsed:.0f}s"


def test_criterion_11_lp_duality_and_vertices():
    with criterion(11, "LP strong duality and vertex returns on 200 random programs"):
        rng = np.random.default_rng(1011)
        solved = dual_checked = 0
        trials = 0
        while solved < 200 and trials < 2000:
            trials += 1
            lp = random_lp(rng)
            status, value, vertices = oracle_solve_lp(lp)
            sol = solve_lp(lp)
            assert sol.status == status
            if status != "optimal":
                continue
            solved += 1
            assert abs(sol.objective_value - value) <= 1e-7
            assert is_vertex_of(sol.x, vertices)
            if lp.a_eq.shape[0] + lp.a_ub.shape[0] == 0:
                continue
            dual = standard_form_dual(lp)
            dstatus, dvalue, _ = oracle_solve_lp(dual)
            assert dstatus == "optimal"
            if abs(dvalue) > 1e5:
                continue
            primal_min = (
                sol.objective_value if lp.sense == "min" else -sol.objective_value
            )
            assert abs(primal_min - (dvalue + dual_objective_offset(lp))) <= 1e-7
            dual_checked += 1
        assert solved == 200
        assert dual_checked >= 100
