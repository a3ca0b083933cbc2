import contextlib
import dataclasses
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nvgames import coop, newsvendor, robust_game, stress
from nvgames import lp as lp_module
from nvgames.distributions import (
    DiscreteMarginal,
    FrechetPolytope,
    Instance,
    JointDistribution,
    independent_joint,
    sample_extremal,
)
from nvgames.errors import DomainError, GameInvalidError, InputError, SolverError
from nvgames.newsvendor import ProperCoalitions
from nvgames.robust_game import Decision, RobustGameSolver
from nvgames.stress import (
    CSV_HEADER,
    ExcessEvaluator,
    ExcessRow,
    ExperimentConfig,
    config_from_dict,
    gen_instance,
    run_stress,
    write_csv,
)

from conftest import lp_path_only, make_example1
from oracles import scalar_coalition_profits, scalar_excess, two_phase_stability_lp

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

    def test_all_zero_weights_give_uniform_probabilities(self, monkeypatch):
        # A block whose weight draws are all exactly 0.0 (probability
        # 2^-53 per draw) falls back to equal probabilities.
        real = np.random.default_rng

        class ZeroWeights:
            def __init__(self, seed):
                self.rng = real(seed)

            def integers(self, *args):
                return self.rng.integers(*args)

            def random(self, size):
                return np.zeros(size)

        monkeypatch.setattr(np.random, "default_rng", ZeroWeights)
        inst = gen_instance(small_cfg(atoms_per_block=(2, 4)), 0)
        assert [m.probs.tolist() for m in inst.marginals] == [[0.5, 0.5], [0.25] * 4]


class TestSolvePair:
    """The robust decision and the independence-based one that the stress
    loop pairs on every instance."""

    def test_t1_pair_coincides(self, t1):
        rob, _solver = stress._solve_robust(t1)
        det = stress._deterministic_decision(t1, independent_joint(t1))
        assert rob.y == pytest.approx(det.y)
        assert rob.z == pytest.approx(det.z, abs=1e-9)
        assert rob.z == pytest.approx([1.0 / 3.0, 2.0 / 3.0], abs=1e-9)

    def test_single_block_orders_agree(self):
        cfg = small_cfg(n=3, block_sizes=(3,), atoms_per_block=(4,))
        inst = gen_instance(cfg, 11)
        rob, _solver = stress._solve_robust(inst)
        det = stress._deterministic_decision(inst, independent_joint(inst))
        assert rob.y == pytest.approx(det.y, abs=1e-9)

    def test_a_deterministic_game_without_a_core_raises(self, monkeypatch, t1):
        # A game whose singletons each claim the grand value has an empty
        # core, which no newsvendor game has.
        build = stress.build_deterministic_game

        def coreless(inst, q):
            game = build(inst, q)
            values = game.values.copy()
            values[[1 << j for j in range(game.n)]] = game.grand_value
            return coop.CharacteristicFunction(game.n, values)

        monkeypatch.setattr(stress, "build_deterministic_game", coreless)
        with pytest.raises(SolverError, match=r"^deterministic least core came out positive \("):
            stress._deterministic_decision(t1, independent_joint(t1))

    def test_example1_falls_back_to_least_core(self):
        inst = make_example1(12)
        assert RobustGameSolver(inst).core_decision() is None
        rob, _solver = stress._solve_robust(inst, y_tol=0.02)
        assert abs(float(np.sum(rob.z)) - 1.0) <= 1e-9

    def test_a_nonpositive_deterministic_grand_value_raises(self):
        # All demands 0: no order makes a profit under the independent
        # joint. The worst-case profit is at most that joint's at every
        # order, so the robust side refuses too.
        m = DiscreteMarginal(np.array([[0.0], [0.0]]), np.array([0.5, 0.5]))
        inst = Instance(2.0, 1.0, ((0,), (1,)), (m, m))
        with pytest.raises(GameInvalidError, match="^grand-coalition value is nonpositive; "):
            stress._deterministic_decision(inst, independent_joint(inst))
        with pytest.raises(GameInvalidError, match="^no order quantity keeps "):
            stress._solve_robust(inst)


class TestExcess:
    def test_core_decision_has_zero_excess(self, t1):
        d = RobustGameSolver(t1).core_decision()
        evaluator = ExcessEvaluator(ProperCoalitions(t1))
        assert evaluator.excess(independent_joint(t1).q, [d]).tolist() == [[0.0]]

    def test_hand_built_standalone_ratio(self):
        # Point masses 3 and 2, p=2, c=1: ratios are (0.6, 0.4); giving the
        # second player nothing leaves its coalition excess at exactly 0.4.
        inst = Instance(
            2.0, 1.0, ((0,), (1,)),
            (DiscreteMarginal(np.array([[3.0]]), np.array([1.0])),
             DiscreteMarginal(np.array([[2.0]]), np.array([1.0]))),
        )
        evaluator = ExcessEvaluator(ProperCoalitions(inst))
        d = Decision(5.0, np.array([1.0, 0.0]))
        [value] = evaluator.excess(independent_joint(inst).q, [d])[:, 0]
        assert value == pytest.approx(0.4, abs=1e-12)

    def test_degenerate_grand_profit_is_nan(self, t1):
        # Ordering far above demand makes the realized profit negative.
        d = Decision(100.0, np.array([0.5, 0.5]))
        q = independent_joint(t1).q
        assert ProperCoalitions(t1).grand_profits(d.y, q[None, :])[0] < 0.0
        assert np.isnan(ExcessEvaluator(ProperCoalitions(t1)).excess(q, [d])).tolist() == [[True]]

    def test_only_the_decision_with_a_nonpositive_grand_profit_is_nan(self, t1):
        # Under one joint the deterministic-side decision orders far above
        # demand: its entry is NaN, and the robust entry keeps its value.
        # One joint gives one column, a row per decision.
        robust = RobustGameSolver(t1).core_decision()
        det = Decision(100.0, np.array([0.5, 0.5]))
        q = independent_joint(t1).q
        values = ExcessEvaluator(ProperCoalitions(t1)).excess(q, (robust, det))
        assert values.shape == (2, 1)
        assert values[0, 0] == scalar_excess(t1, q, robust) == 0.0
        assert np.isnan(values[1, 0])

    def test_nonnegative_and_zero_iff_stable(self):
        cfg = small_cfg()
        inst = gen_instance(cfg, 2)
        evaluator = ExcessEvaluator(ProperCoalitions(inst))
        rob, _solver = stress._solve_robust(inst)
        det = stress._deterministic_decision(inst, independent_joint(inst))
        rng = np.random.default_rng(40)
        q_ind = independent_joint(inst)
        for _ in range(20):
            q_ext = sample_extremal(inst, rng.uniform(-1, 1, inst.joint_size()))
            for lam in (0.0, 0.3, 1.0):
                q = JointDistribution((1 - lam) * q_ind.q + lam * q_ext.q)
                for d, e in zip((rob, det), evaluator.excess(q.q, (rob, det))[:, 0]):
                    assert e >= 0.0
                    stable = _is_stable(inst, q, d)
                    assert (e <= 1e-9) == stable


def _is_stable(inst, q, d) -> bool:
    p, c = inst.price, inst.cost
    d_grand, profits = scalar_coalition_profits(inst, q.q)
    den = (p - c) * d.y - p * float(np.maximum(d.y - d_grand, 0.0) @ q.q)
    for mask, numer in profits.items():
        z_s = sum(d.z[i] for i in range(inst.n_retailers) if mask >> i & 1)
        if numer / den - z_s > 1e-9:
            return False
    return True


def counted_lp_run(monkeypatch) -> list[int]:
    """[solve_lp calls, simplex iterations] of run_stress(small_cfg())."""
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
    return counts


class TestExcessRow:
    @pytest.mark.parametrize("rob, det", [  # (min, mean, max) each
        ((0.2, 0.1, 0.3), (0.0, 0.0, 0.0)),  # min above mean
        ((0.1, 0.3, 0.2), (0.0, 0.0, 0.0)),  # mean above max
        ((0.0, 0.0, 0.0), (-1e-9, 0.0, 0.0)),  # negative min
    ])
    def test_statistics_out_of_order_raise(self, rob, det):
        with pytest.raises(SolverError, match=r"^excess statistics out of order: min="):
            ExcessRow(0, 0.5, rob[2], rob[0], rob[1], det[2], det[0], det[1], 0)


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

    def test_a_run_without_samples_or_witnesses_uses_the_independent_joint(self):
        # One player has no proper coalition, so the robust solver records
        # no witness; with no extremal samples the pool is empty and the
        # independent joint stands in. One player has no excess.
        cfg = ExperimentConfig(
            n=1, block_sizes=(1,), atoms_per_block=3, num_extremal=0, num_instances=1, seed=0
        )
        rows = run_stress(cfg).rows
        assert [r.lam for r in rows] == list(cfg.lambda_grid)
        for r in rows:
            assert (r.rob_max, r.rob_min, r.rob_mean, r.det_max, r.det_min, r.det_mean) == (0.0,) * 6
            assert r.degenerate_count == 0

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

    @pytest.mark.parametrize("workers, pools", [(5000, [2]), (2, [2]), (1, []), (None, [])])
    def test_pool_has_at_most_one_worker_per_instance(self, pool_sizes, workers, pools):
        cfg = small_cfg()
        assert run_stress(cfg, workers=workers) == run_stress(cfg)
        assert pool_sizes == pools

    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_workers_must_be_a_positive_integer(self, pool_sizes, workers):
        with pytest.raises(InputError, match="workers"):
            run_stress(small_cfg(), workers=workers)
        assert pool_sizes == []

    def test_csv_values_have_nine_significant_digits(self, tmp_path):
        cfg = small_cfg(num_instances=1)
        run_stress(cfg, csv_path=tmp_path / "o.csv")
        lines = (tmp_path / "o.csv").read_text().splitlines()
        row = lines[1].split(",")
        assert row[0] == "0"
        for cell in row[2:8]:
            assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_csv_matches_golden_file(self, tmp_path):
        # Regenerated when the cutting-plane least core replaced golden
        # section, which moved the robust decisions and so the rob_*
        # columns. Regenerated again when the stability LP started from its
        # crash basis: the least-core allocation is not unique, and the new
        # start reaches another optimal one for instance 0's deterministic
        # game, which moved five det_* cells of its lambda 0.5 and 1 rows.
        # Any later change to a cell must be deliberate and stated.
        run_stress(small_cfg(), csv_path=tmp_path / "o.csv")
        assert (tmp_path / "o.csv").read_bytes() == GOLDEN_CSV.read_bytes()

    def test_lp_calls_and_pivots_are_pinned(self, monkeypatch, lp_path):
        # The solve_lp calls and simplex iterations of this run without
        # vertex tables: a change to the pivot path fails here by name, not
        # only through the golden CSV. Only ratio LPs, stability LPs and
        # extremal samples remain: the minimum grand profit is closed-form.
        # The stability LPs start from their singleton basis, with no phase
        # 1 (143 pivots from the primal's crash basis, 320 with its
        # two-phase start).
        assert counted_lp_run(monkeypatch) == [239, 132]

    def test_vertex_path_lp_calls_and_pivots_are_pinned(self, monkeypatch):
        # With the vertex tables of these 4-atom polytopes, the worst-case
        # ratios and the extremal samples take no LP: only the stability
        # LPs, one per sigma evaluation, remain. Each starts from its
        # singleton basis, with no phase 1 (76 pivots from the primal's
        # crash basis, 253 with its two-phase start).
        assert counted_lp_run(monkeypatch) == [15, 65]

    def test_demand_rows_come_in_batches(self, monkeypatch):
        # Only the grand order of each deterministic decision goes through
        # optimal_order, and every coalition demand row comes from a
        # batched call: the deterministic game's coalition values from one
        # kernel call, the robust solver and the excess evaluator from the
        # row matrix of the one `ProperCoalitions` they share. A
        # per-coalition loop would add one-mask calls.
        orders, batches = [], []
        optimal_order = stress.optimal_order
        demand_rows = FrechetPolytope.coalition_demand_rows

        def order_spy(inst, q, s):
            orders.append(s)
            return optimal_order(inst, q, s)

        def rows_spy(poly, masks):
            masks = list(masks)
            batches.append(len(masks))
            return demand_rows(poly, masks)

        monkeypatch.setattr(stress, "optimal_order", order_spy)
        monkeypatch.setattr(FrechetPolytope, "coalition_demand_rows", rows_spy)
        cfg = small_cfg()
        run_stress(cfg)
        assert orders == [(1 << cfg.n) - 1] * cfg.num_instances
        assert batches == [1, 15, 15, 1] * cfg.num_instances

    def test_no_incidence_basis_is_refactored(self, monkeypatch):
        # The stress polytopes are on the vertex path: every basis this run
        # inverts is a stability LP's, never a polytope's.
        operators = []
        refactor = lp_module._Simplex.refactor

        def spy(sx):
            operators.append(type(sx.a))
            return refactor(sx)

        monkeypatch.setattr(lp_module._Simplex, "refactor", spy)
        run_stress(small_cfg())
        assert operators and lp_module.IncidenceOperator not in operators

    @staticmethod
    def assert_serial_run_leaves_out(module: str):
        """A serial `run_stress(small_cfg())` in a fresh interpreter, which
        shows whether the run pays for importing `module`."""
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from nvgames.stress import ExperimentConfig, run_stress; "
            f"run_stress(ExperimentConfig(**{dataclasses.asdict(small_cfg())!r})); "
            f"sys.exit('{module} was imported' if '{module}' in sys.modules else 0)"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_run_imports_no_masked_arrays(self):
        # numpy 2.4's np.unique imports numpy.ma on its first 1-d call
        # without index or count outputs.
        self.assert_serial_run_leaves_out("numpy.ma")

    def test_serial_run_imports_no_process_pool(self):
        # The process pool pulls in multiprocessing, socket and subprocess.
        self.assert_serial_run_leaves_out("multiprocessing")

    def test_vertex_tables_take_no_per_entry_call(self, monkeypatch):
        # Every table of this run is one whole-array pass over numerators
        # built once per instance: no coalition goes through vmax_entry, the
        # per-coalition ratio LP path.
        entries, builds = [], []
        vmax_entry, numerators = RobustGameSolver.vmax_entry, RobustGameSolver._vertex_numerators

        def spy_entry(self, *args):
            entries.append(args[1])
            return vmax_entry(self, *args)

        def spy_numerators(self):
            if self._numerators is None:
                builds.append(self.inst)
            return numerators(self)

        monkeypatch.setattr(RobustGameSolver, "vmax_entry", spy_entry)
        monkeypatch.setattr(RobustGameSolver, "_vertex_numerators", spy_numerators)
        cfg = small_cfg()
        run_stress(cfg)
        assert entries == []
        assert len(builds) == len(set(map(id, builds))) == cfg.num_instances

    def test_one_coalition_setup_per_instance(self, monkeypatch):
        # The robust solver's vertex path and the excess pass share one
        # `ProperCoalitions` per instance: two builds for the two instances
        # of small_cfg(), 17 for a 17-instance pass of the criterion-10
        # configuration (the stress-serial workload's).
        builds = []
        init = ProperCoalitions.__init__

        def spy(self, inst):
            builds.append(inst)
            init(self, inst)

        monkeypatch.setattr(ProperCoalitions, "__init__", spy)
        for cfg in (small_cfg(), criterion10_cfg(num_instances=17)):
            del builds[:]
            run_stress(cfg)
            assert len(builds) == len(set(map(id, builds))) == cfg.num_instances

    def test_excess_takes_every_grand_profit_and_chunk_of_the_pass(self, monkeypatch):
        # Per instance, two excess calls (the independent joint, then every
        # other mixture) evaluate both decisions. Each computes every
        # decision's grand profits once and hands best_orders at most
        # _CHUNK_ROWS rows per call; the only other grand profits are the
        # robust solver's vertex tables'.
        excess_calls, chunk_rows, grand_callers = [], [], []
        running = []  # holds an entry while an excess call runs
        excess = ExcessEvaluator.excess
        best_orders, grand_profits = ProperCoalitions.best_orders, ProperCoalitions.grand_profits

        def spy_excess(self, q, decisions):
            excess_calls.append(len(decisions))
            running.append(q)
            try:
                return excess(self, q, decisions)
            finally:
                running.pop()

        def spy_best(self, q):
            if running:
                chunk_rows.append(len(q))
            return best_orders(self, q)

        def spy_grand(self, y, q):
            grand_callers.append("excess" if running else sys._getframe(1).f_code.co_name)
            return grand_profits(self, y, q)

        monkeypatch.setattr(ExcessEvaluator, "excess", spy_excess)
        monkeypatch.setattr(ProperCoalitions, "best_orders", spy_best)
        monkeypatch.setattr(ProperCoalitions, "grand_profits", spy_grand)
        for cfg in (small_cfg(), criterion10_cfg(num_instances=1)):
            for calls in (excess_calls, chunk_rows, grand_callers):
                del calls[:]
            run_stress(cfg)
            assert excess_calls == [2] * 2 * cfg.num_instances
            assert 0 < max(chunk_rows) <= newsvendor._CHUNK_ROWS
            assert grand_callers.count("excess") == sum(excess_calls)
            assert set(grand_callers) <= {"excess", "_grand_at"}
        assert chunk_rows.count(newsvendor._CHUNK_ROWS) > 1

    @pytest.mark.parametrize("path", ["vertex", "lp"])
    def test_stability_lps_match_the_two_phase_oracle(self, monkeypatch, simplex_phases, path):
        # Every sigma probe and deterministic least core of this run starts
        # from its singleton basis and ends at the cold primal solve's eps.
        original = coop.solve_stability_lp
        gaps = []

        def checked(n, table, total):
            start = len(simplex_phases)
            x, eps, w = original(n, table, total)
            assert 1 not in simplex_phases[start:]
            gaps.append(abs(eps - two_phase_stability_lp(n, table, total)[1]))
            return x, eps, w

        monkeypatch.setattr(coop, "solve_stability_lp", checked)
        monkeypatch.setattr(robust_game, "solve_stability_lp", checked)
        with lp_path_only() if path == "lp" else contextlib.nullcontext():
            run_stress(small_cfg())
        assert len(gaps) == 15 and max(gaps) <= 1e-12

    @pytest.mark.parametrize("path", ["vertex", "lp"])
    @pytest.mark.parametrize("blocks", [(2, 2), (1, 1, 2)])
    def test_no_lp_runs_phase_one(self, simplex_phases, path, blocks):
        # Every LP of a run starts from a usable basis: the stability LPs
        # from their singleton basis, and on the LP path the ratio LPs and
        # the extremal samples from a warm or crash basis of the polytope.
        with lp_path_only() if path == "lp" else contextlib.nullcontext():
            run_stress(small_cfg(block_sizes=blocks, atoms_per_block=2))
        assert simplex_phases and 1 not in simplex_phases

    def test_degenerate_samples_are_screened_and_counted(self, monkeypatch):
        # Orders far above the optimal ones make the grand profit
        # nonpositive under some pool samples but not others, with more
        # such samples for the deterministic decision than for the robust
        # one: a sample is dropped and counted when either decision's grand
        # profit is nonpositive, and the rest match the per-joint oracle.
        cfg = small_cfg(atoms_per_block=(3, 3), num_extremal=30, lambda_grid=(0.5, 1.0), price=1.1)
        job = (cfg, 0, 7, 8)
        pools = []

        def capture(pool):
            pools.append(dedupe(pool))
            return pools[-1]

        dedupe = stress._dedupe_pool
        monkeypatch.setattr(stress, "_dedupe_pool", capture)
        stress._instance_rows(job)
        inst = gen_instance(cfg, 7)
        coalitions = ProperCoalitions(inst)
        q_ind = independent_joint(inst).q
        ext = np.array(pools[0])
        robust, _ = stress._solve_robust(inst)
        det = stress._deterministic_decision(inst, independent_joint(inst))

        def bad_rows(y):
            mixed = (1.0 - cfg.lambda_grid[-1]) * q_ind + cfg.lambda_grid[-1] * ext
            return int(np.count_nonzero(coalitions.grand_profits(y, mixed) <= 0.0))

        ys = np.linspace(robust.y, 3.0 * float(np.max(coalitions.d_grand)), 400)
        partial = [(n, y) for n, y in ((bad_rows(y), y) for y in ys) if 0 < n < len(ext)]
        (n_rob, y_rob), (n_det, y_det) = partial[0], partial[-1]
        assert n_rob < n_det
        robust, det = Decision(y_rob, robust.z), Decision(y_det, det.z)
        monkeypatch.setattr(
            stress, "_solve_robust", lambda inst: (robust, RobustGameSolver(inst))
        )
        monkeypatch.setattr(stress, "_deterministic_decision", lambda inst, q_ind: det)
        monkeypatch.setattr(stress, "_dedupe_pool", lambda pool: pools[0])
        rows = stress._instance_rows(job)

        assert sum(r.degenerate_count for r in rows) > 0
        for lam, row in zip(cfg.lambda_grid, rows):
            rob_vals, det_vals, degenerate = [], [], 0
            for q_ext in ext:
                q = (1.0 - lam) * q_ind + lam * q_ext
                try:
                    e_rob = scalar_excess(inst, q, robust)
                    e_det = scalar_excess(inst, q, det)
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


def criterion10_cfg(**overrides) -> ExperimentConfig:
    """The criterion-10 stress configuration, with fewer instances."""
    base = dict(
        n=6, block_sizes=(3, 3), atoms_per_block=(4, 4), support_lo=1, support_hi=10,
        price=1.5, cost=1.0, num_extremal=40, num_instances=3, seed=20240811,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def rows_and_pool(monkeypatch, job) -> tuple[list, np.ndarray]:
    """The rows of `_instance_rows(job)` and its deduplicated extremal pool."""
    pools = []
    dedupe = stress._dedupe_pool
    monkeypatch.setattr(
        stress, "_dedupe_pool", lambda pool: pools.append(dedupe(pool)) or pools[-1]
    )
    rows = stress._instance_rows(job)
    monkeypatch.setattr(stress, "_dedupe_pool", dedupe)
    return rows, np.array(pools[0])


def per_lambda_rows(job, ext, robust, det) -> list:
    """The rows of one instance from a loop over lambda that screens each
    lambda's mixtures with the pool `ext` by both grand profits and
    evaluates the admissible ones as one matrix."""
    cfg, instance_id, instance_seed, _ = job
    inst = gen_instance(cfg, instance_seed)
    coalitions = ProperCoalitions(inst)
    evaluator = ExcessEvaluator(coalitions)
    q_ind = independent_joint(inst).q
    rows = []
    for lam in cfg.lambda_grid:
        mixed = (1.0 - lam) * q_ind + lam * ext
        admissible = (coalitions.grand_profits(robust.y, mixed) > 0.0) & (
            coalitions.grand_profits(det.y, mixed) > 0.0
        )
        rob, dt = evaluator.excess(mixed[admissible], (robust, det))
        rows.append(stress.ExcessRow(
            instance_id, lam,
            float(np.max(rob)), float(np.min(rob)), float(np.mean(rob)),
            float(np.max(dt)), float(np.min(dt)), float(np.mean(dt)),
            int(np.count_nonzero(~admissible)),
        ))
    return rows


class TestChunkedExcess:
    @pytest.mark.parametrize("seed, digest", [
        (20240811, "196c57f753c6db98b3c19d2b3f3b5136bdb629059a73de5a941e721d9672365b"),
        (918273645, "471c97afb1ac6290ca8b15eeb0272d6fb9c6bdf0fe7583997f08f42534272a88"),
    ], ids=["20240811", "918273645"])
    def test_criterion10_csv_is_pinned(self, tmp_path, seed, digest):
        # The digests of one kernel pass per lambda, re-pinned when the
        # stability LP started from its crash basis, again when it moved
        # to its dual form (the least-core vertex is not unique, so
        # decisions and cells moved), and again when the vertex tables took
        # their profits from the excess pass's kernel (the ratios' last bits
        # moved, and with them tie-broken witnesses, the extremal pool and
        # the decisions). Every instance here has more admissible mixtures
        # than one chunk holds.
        path = tmp_path / "o.csv"
        run_stress(criterion10_cfg(seed=seed), csv_path=path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_rows_equal_a_per_lambda_loop(self, monkeypatch):
        cfg = criterion10_cfg()
        job = (cfg, 0, 11, 12)
        rows, ext = rows_and_pool(monkeypatch, job)
        assert len(ext) * len(cfg.lambda_grid) > 2 * newsvendor._CHUNK_ROWS
        inst = gen_instance(cfg, 11)
        robust, _ = stress._solve_robust(inst)
        assert rows == per_lambda_rows(
            job, ext, robust, stress._deterministic_decision(inst, independent_joint(inst)))

    def test_rows_equal_a_per_lambda_loop_with_lambda_zero_repeated(self, monkeypatch):
        # Every row of lambda = 0 is the independent joint, evaluated once
        # and copied into each of its slots; the other rows cross chunks.
        cfg = criterion10_cfg(lambda_grid=(0.0, 0.5, 0.0, 1.0))
        job = (cfg, 0, 11, 12)
        rows, ext = rows_and_pool(monkeypatch, job)
        assert 2 * len(ext) > newsvendor._CHUNK_ROWS
        inst = gen_instance(cfg, 11)
        robust, _ = stress._solve_robust(inst)
        assert rows == per_lambda_rows(
            job, ext, robust, stress._deterministic_decision(inst, independent_joint(inst)))
        assert rows[0] == rows[2]

    def test_stack_over_several_chunks_equals_the_per_joint_oracle(self, monkeypatch):
        # One kernel call per coalition group over more rows than two
        # chunks hold, repeated lambda = 0 rows included, has the bits of
        # the one-joint, one-coalition loop; so has the excess of both
        # decisions in every row, on either side of each chunk boundary.
        cfg = criterion10_cfg()
        _, ext = rows_and_pool(monkeypatch, (cfg, 0, 11, 12))
        inst = gen_instance(cfg, 11)
        q_ind = independent_joint(inst).q
        mixed = np.concatenate([(1.0 - lam) * q_ind + lam * ext for lam in (0.0, 0.3, 0.0, 1.0)])
        assert len(mixed) > 2 * newsvendor._CHUNK_ROWS
        coalitions = ProperCoalitions(inst)
        expect = {}  # the rows of lambda = 0 are one row
        for q, row in zip(mixed, coalitions.best_orders(mixed)[1]):
            if q.tobytes() not in expect:
                expect[q.tobytes()] = np.array(list(scalar_coalition_profits(inst, q)[1].values()))
            assert row.tobytes() == expect[q.tobytes()].tobytes()
        robust, _ = stress._solve_robust(inst)
        decisions = (robust, stress._deterministic_decision(inst, independent_joint(inst)))
        evaluator = ExcessEvaluator(coalitions)
        excess = evaluator.excess(mixed, decisions)
        for i, column in enumerate(excess.T):
            assert column.tobytes() == evaluator.excess(mixed[i], decisions)[:, 0].tobytes()
        edges = range(newsvendor._CHUNK_ROWS, len(mixed), newsvendor._CHUNK_ROWS)
        for i in sorted({*range(0, len(mixed), len(ext)), *edges, *(i - 1 for i in edges)}):
            expect = [scalar_excess(inst, mixed[i], d) for d in decisions]
            assert excess[:, i].tobytes() == np.array(expect).tobytes()

    def test_rows_equal_a_per_lambda_loop_with_degenerate_samples(self, monkeypatch):
        # A robust order above demand leaves some samples at lambda = 1 with
        # a nonpositive grand profit, so the lambdas keep different numbers
        # of rows and the chunks split them at other places.
        cfg = criterion10_cfg(lambda_grid=(0.5, 0.75, 1.0), price=1.1)
        job = (cfg, 0, 7, 8)
        _, ext = rows_and_pool(monkeypatch, job)
        inst = gen_instance(cfg, 7)
        coalitions = ProperCoalitions(inst)
        robust, solver = stress._solve_robust(inst)
        det = stress._deterministic_decision(inst, independent_joint(inst))
        q_ind = independent_joint(inst).q
        ys = np.linspace(robust.y, 3.0 * float(np.max(coalitions.d_grand)), 400)
        bad = [np.count_nonzero(coalitions.grand_profits(y, ext) <= 0.0) for y in ys]
        robust = Decision(float(ys[np.flatnonzero(np.array(bad) > 0)[0]]), robust.z)
        assert coalitions.grand_profits(robust.y, q_ind[None, :])[0] > 0.0
        monkeypatch.setattr(stress, "_solve_robust", lambda inst: (robust, solver))
        rows, _ = rows_and_pool(monkeypatch, job)
        assert rows == per_lambda_rows(job, ext, robust, det)
        assert 0 < rows[-1].degenerate_count < len(ext)

    @pytest.mark.parametrize("far", [True, False])
    def test_all_degenerate_error_names_the_first_such_lambda(self, monkeypatch, far):
        # Far above demand every sample is degenerate, so the first lambda
        # of the grid is named. Just past the independent joint's break-even
        # order, only lambda = 0 has no admissible sample left.
        cfg = small_cfg(atoms_per_block=(3, 3), num_extremal=30, price=1.1)
        _, ext = rows_and_pool(monkeypatch, (cfg, 0, 7, 8))
        inst = gen_instance(cfg, 7)
        coalitions = ProperCoalitions(inst)
        robust, solver = stress._solve_robust(inst)
        q_ind = independent_joint(inst).q[None, :]
        if far:
            y, grid, named = 1e6, (0.5, 0.0, 1.0), 0.5
        else:
            ys = np.linspace(robust.y, float(np.max(coalitions.d_grand)), 1000)
            y = next(
                y for y in ys
                if coalitions.grand_profits(y, q_ind)[0] <= 0.0
                and np.max(coalitions.grand_profits(y, ext)) > 0.0
            )
            grid, named = (1.0, 0.0, 0.5), 0.0
        decision = Decision(y, robust.z)
        monkeypatch.setattr(stress, "_solve_robust", lambda inst: (decision, solver))
        monkeypatch.setattr(stress, "_dedupe_pool", lambda pool: list(ext))
        job = (dataclasses.replace(cfg, lambda_grid=grid), 0, 7, 8)
        with pytest.raises(SolverError, match=f"^instance 0: every sample at lambda={named} was"):
            stress._instance_rows(job)


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
