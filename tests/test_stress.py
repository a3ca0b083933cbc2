import sys
from pathlib import Path

import numpy as np
import pytest

from nvgames import lp as lp_module
from nvgames import stress
from nvgames.distributions import (
    DiscreteMarginal,
    Instance,
    JointDistribution,
    independent_joint,
    sample_extremal,
)
from nvgames.errors import DomainError, InputError
from nvgames.robust_game import Decision, RobustGameSolver, robust_core
from nvgames.stress import (
    CSV_HEADER,
    ExcessEvaluator,
    ExperimentConfig,
    config_from_dict,
    excess,
    gen_instance,
    run_stress,
    solve_pair,
    write_csv,
)

from conftest import make_example1
from oracles import scalar_excess

GOLDEN_CSV = Path(__file__).parent / "data" / "stress_small.csv"


def small_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        n=4,
        block_sizes=(2, 2),
        atoms_per_block=(2, 2),
        num_extremal=6,
        num_instances=2,
        seed=99,
        lambda_grid=(0.0, 0.5, 1.0),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfig:
    def test_block_sizes_must_sum(self):
        with pytest.raises(InputError):
            small_cfg(block_sizes=(2, 3))

    def test_lambda_grid_range(self):
        with pytest.raises(InputError):
            small_cfg(lambda_grid=(0.0, 1.2))

    def test_prices_order(self):
        with pytest.raises(InputError):
            small_cfg(price=1.0, cost=2.0)

    def test_atoms_broadcast(self):
        cfg = small_cfg(atoms_per_block=3)
        assert cfg.atoms_per_block == (3, 3)

    def test_from_dict_diagnostics(self):
        with pytest.raises(InputError, match="missing fields"):
            config_from_dict({"n": 4})
        with pytest.raises(InputError, match="unknown fields"):
            config_from_dict(
                {"n": 4, "block_sizes": [2, 2], "atoms_per_block": [2, 2],
                 "seed": 1, "bogus": True}
            )


    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(InputError, match="seed"):
            small_cfg(seed=seed)


class TestGenInstance:
    @pytest.mark.parametrize("seed", [-1, 2.0])
    def test_instance_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(InputError, match="instance seed"):
            gen_instance(small_cfg(), seed)

    def test_same_seed_same_instance(self):
        cfg = small_cfg()
        a, b = gen_instance(cfg, 7), gen_instance(cfg, 7)
        for ma, mb in zip(a.marginals, b.marginals):
            assert np.array_equal(ma.atoms, mb.atoms)
            assert np.array_equal(ma.probs, mb.probs)

    def test_support_box_and_positive_minimum(self):
        cfg = small_cfg()
        inst = gen_instance(cfg, 3)
        for m in inst.marginals:
            assert np.all(m.atoms >= cfg.support_lo)
            assert np.all(m.atoms <= cfg.support_hi)
        # Demands at least 1 per retailer: the admissible interval is nonempty.
        from nvgames.newsvendor import lemma3_condition

        assert lemma3_condition(inst)

    def test_joint_size(self):
        cfg = small_cfg(n=10, block_sizes=(4, 6), atoms_per_block=(3, 3))
        inst = gen_instance(cfg, 5)
        assert inst.joint_size() == 9
        assert inst.n_retailers == 10


class TestSolvePair:
    def test_t1_pair_coincides(self, t1):
        rob, det = solve_pair(t1)
        assert rob.y == pytest.approx(det.y)
        assert rob.z == pytest.approx(det.z, abs=1e-9)
        assert rob.z == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-9)

    def test_single_block_orders_agree(self):
        cfg = small_cfg(n=3, block_sizes=(3,), atoms_per_block=(4,))
        inst = gen_instance(cfg, 11)
        rob, det = solve_pair(inst)
        assert rob.y == pytest.approx(det.y, abs=1e-9)

    def test_example1_falls_back_to_least_core(self):
        inst = make_example1(12)
        assert robust_core(inst) is None
        rob, _det = solve_pair(inst, y_tol=0.02)
        assert abs(float(np.sum(rob.z)) - 1.0) <= 1e-9


class TestExcess:
    def test_core_decision_has_zero_excess(self, t1):
        d = robust_core(t1)
        assert excess(t1, independent_joint(t1), d) == 0.0

    def test_hand_built_standalone_ratio(self):
        # Point masses 3 and 2, p=2, c=1: ratios are (0.6, 0.4); giving the
        # second player nothing leaves its coalition excess at exactly 0.4.
        inst = Instance(
            2.0, 1.0, ((0,), (1,)),
            (DiscreteMarginal(np.array([[3.0]]), np.array([1.0])),
             DiscreteMarginal(np.array([[2.0]]), np.array([1.0]))),
        )
        q = independent_joint(inst)
        d = Decision(5.0, np.array([1.0, 0.0]))
        assert excess(inst, q, d) == pytest.approx(0.4, abs=1e-12)

    def test_degenerate_grand_profit_raises(self, t1):
        # Ordering far above demand makes the realized profit negative.
        d = Decision(100.0, np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            excess(t1, independent_joint(t1), d)

    def test_nonnegative_and_zero_iff_stable(self):
        cfg = small_cfg()
        inst = gen_instance(cfg, 2)
        evaluator = ExcessEvaluator(inst)
        rob, det = solve_pair(inst)
        rng = np.random.default_rng(40)
        q_ind = independent_joint(inst)
        for _ in range(20):
            q_ext = sample_extremal(inst, rng.uniform(-1, 1, inst.joint_size()))
            for lam in (0.0, 0.3, 1.0):
                q = JointDistribution((1 - lam) * q_ind.q + lam * q_ext.q)
                for d in (rob, det):
                    e = evaluator.excess(q, d)
                    assert e >= 0.0
                    stable = _is_stable(inst, evaluator, q, d)
                    assert (e <= 1e-9) == stable


def _is_stable(inst, evaluator, q, d) -> bool:
    p, c = inst.price, inst.cost
    qv = q.q
    den = (p - c) * d.y - p * float(np.maximum(d.y - evaluator.d_grand, 0.0) @ qv)
    for mask, d_s, order, y_fixed in evaluator._masks:
        if y_fixed is None:
            sv = d_s[order]
            cdf = np.cumsum(qv[order])
            idx = min(int(np.searchsorted(cdf, inst.ratio - 1e-12)), sv.size - 1)
            y_s = float(sv[idx])
        else:
            y_s = y_fixed
        numer = (p - c) * y_s - p * float(np.maximum(y_s - d_s, 0.0) @ qv)
        z_s = sum(d.z[i] for i in range(inst.n_retailers) if mask >> i & 1)
        if numer / den - z_s > 1e-9:
            return False
    return True


class TestRunStress:
    def test_rows_schema_and_order(self, tmp_path):
        cfg = small_cfg()
        stats = run_stress(cfg, csv_path=tmp_path / "out.csv")
        assert len(stats.rows) == cfg.num_instances * len(cfg.lambda_grid)
        keys = [(r.instance_id, r.lam) for r in stats.rows]
        assert keys == sorted(keys)
        for r in stats.rows:
            assert r.rob_min <= r.rob_mean <= r.rob_max + 1e-12
            assert r.det_min <= r.det_mean <= r.det_max + 1e-12
        header = (tmp_path / "out.csv").read_text().splitlines()[0]
        assert header == CSV_HEADER

    def test_lambda_zero_deterministic_excess_is_zero(self):
        cfg = small_cfg(num_instances=3)
        stats = run_stress(cfg)
        for r in stats.rows_for_lambda(0.0):
            assert r.det_max <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg()
        run_stress(cfg, csv_path=tmp_path / "a.csv")
        run_stress(cfg, csv_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        cfg = small_cfg()
        serial = run_stress(cfg)
        parallel = run_stress(cfg, workers=2)
        assert serial == parallel

    def test_csv_values_have_nine_significant_digits(self, tmp_path):
        cfg = small_cfg(num_instances=1)
        run_stress(cfg, csv_path=tmp_path / "o.csv")
        lines = (tmp_path / "o.csv").read_text().splitlines()
        row = lines[1].split(",")
        assert row[0] == "0"
        for cell in row[2:8]:
            assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_csv_matches_golden_file(self, tmp_path):
        # Written by the per-joint excess loop before the stacked kernel
        # replaced it; every cell must survive the change bit for bit.
        run_stress(small_cfg(), csv_path=tmp_path / "o.csv")
        assert (tmp_path / "o.csv").read_bytes() == GOLDEN_CSV.read_bytes()

    def test_lp_calls_and_pivots_are_pinned(self, monkeypatch):
        # The solve_lp calls and simplex iterations of this run: a change
        # to the pivot path fails here by name, not only through the
        # golden CSV. Only ratio LPs, stability LPs and extremal samples
        # remain: the minimum grand profit is closed-form.
        original = lp_module.solve_lp
        counts = [0, 0]

        def counted(program, start=None):
            sol = original(program, start)
            counts[0] += 1
            counts[1] += sol.iterations
            return sol

        for name, module in list(sys.modules.items()):
            if name.startswith("nvgames") and getattr(module, "solve_lp", None) is original:
                monkeypatch.setattr(module, "solve_lp", counted)
        run_stress(small_cfg())
        assert counts == [562, 938]

    def test_degenerate_samples_are_screened_and_counted(self, monkeypatch):
        # Orders far above the optimal ones make the grand profit
        # nonpositive under some pool samples but not others, with more
        # such samples for the deterministic decision than for the robust
        # one: a sample is dropped and counted when either decision's grand
        # profit is nonpositive, and the rest match the per-joint oracle.
        cfg = small_cfg(atoms_per_block=(3, 3), num_extremal=30, lambda_grid=(0.5, 1.0), price=1.1)
        job = (cfg, 0, 7, 8, None)
        pools = []

        def capture(pool):
            pools.append(dedupe(pool))
            return pools[-1]

        dedupe = stress._dedupe_pool
        monkeypatch.setattr(stress, "_dedupe_pool", capture)
        stress._instance_rows(job)
        inst = gen_instance(cfg, 7)
        evaluator = ExcessEvaluator(inst)
        q_ind = independent_joint(inst).q
        ext = np.array(pools[0])
        robust, _ = stress._solve_robust(inst)
        det = stress._deterministic_decision(inst)

        def bad_rows(y):
            mixed = (1.0 - cfg.lambda_grid[-1]) * q_ind + cfg.lambda_grid[-1] * ext
            decision = Decision(y, robust.z)
            return int(np.count_nonzero(evaluator.grand_profit(mixed, decision) <= 0.0))

        ys = np.linspace(robust.y, 3.0 * float(np.max(evaluator.d_grand)), 400)
        partial = [(n, y) for n, y in ((bad_rows(y), y) for y in ys) if 0 < n < len(ext)]
        (n_rob, y_rob), (n_det, y_det) = partial[0], partial[-1]
        assert n_rob < n_det
        robust, det = Decision(y_rob, robust.z), Decision(y_det, det.z)
        monkeypatch.setattr(
            stress, "_solve_robust", lambda inst, y_tol=None: (robust, RobustGameSolver(inst))
        )
        monkeypatch.setattr(stress, "_deterministic_decision", lambda inst: det)
        monkeypatch.setattr(stress, "_dedupe_pool", lambda pool: pools[0])
        rows = stress._instance_rows(job)

        assert sum(r.degenerate_count for r in rows) > 0
        for lam, row in zip(cfg.lambda_grid, rows):
            rob_vals, det_vals, degenerate = [], [], 0
            for q_ext in ext:
                q = (1.0 - lam) * q_ind + lam * q_ext
                try:
                    e_rob = scalar_excess(evaluator, q, robust)
                    e_det = scalar_excess(evaluator, q, det)
                except DomainError:
                    degenerate += 1
                    continue
                rob_vals.append(e_rob)
                det_vals.append(e_det)
            assert row.degenerate_count == degenerate
            assert (row.rob_max, row.rob_min, row.rob_mean) == (
                max(rob_vals), min(rob_vals), float(np.mean(rob_vals)))
            assert (row.det_max, row.det_min, row.det_mean) == (
                max(det_vals), min(det_vals), float(np.mean(det_vals)))


def quadratic_dedupe_pool(pool, cap):
    """The pairwise dedupe `_dedupe_pool` replaced, kept as its reference."""
    kept = []
    for q in pool:
        if len(kept) >= cap:
            break
        if not any(np.max(np.abs(q - other)) <= 1e-10 for other in kept):
            kept.append(q)
    return kept


class TestDedupePool:
    @staticmethod
    def assert_same(pool, cap):
        got = stress._dedupe_pool(pool, cap)
        want = quadratic_dedupe_pool(pool, cap)
        assert [id(q) for q in got] == [id(q) for q in want]
        return got

    def test_exact_duplicates(self):
        a, b = np.array([0.5, 0.5, 0.0]), np.array([0.0, 0.5, 0.5])
        pool = [a, a.copy(), b, a.copy(), b.copy()]
        assert len(self.assert_same(pool, 8)) == 2

    def test_near_duplicates_merge_within_1e_10_only(self):
        a = np.array([0.25, 0.75])
        pool = [a, a + [0.5e-10, -0.5e-10], a + [2e-10, -2e-10]]
        kept = self.assert_same(pool, 8)
        assert [id(q) for q in kept] == [id(pool[0]), id(pool[2])]

    def test_non_transitive_chain(self):
        # a ~ b and b ~ c but a !~ c: b is merged into a, and c is kept.
        a = np.array([0.5, 0.5])
        pool = [a, a + [0.8e-10, -0.8e-10], a + [1.6e-10, -1.6e-10]]
        kept = self.assert_same(pool, 8)
        assert [id(q) for q in kept] == [id(pool[0]), id(pool[2])]
        # Starting from b, both neighbours merge into it.
        assert len(self.assert_same(pool[1:] + pool[:1], 8)) == 1

    def test_cap_stops_the_pool(self):
        rng = np.random.default_rng(3)
        pool = [rng.dirichlet(np.ones(5)) for _ in range(40)]
        pool += [pool[3].copy(), pool[7] + 1e-11]
        rng.shuffle(pool)
        assert len(self.assert_same(pool, 16)) == 16
        assert len(self.assert_same(pool, 64)) == 40

    def test_empty_pool(self):
        assert self.assert_same([], 8) == []
