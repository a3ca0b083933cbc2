import io
import json

import numpy as np
import pytest

from nvgames.cli import run
from nvgames.distributions import instance_to_dict, load_instance, save_instance
from nvgames.stress import CSV_HEADER

from conftest import make_example1


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def t1_path(tmp_path, t1):
    path = tmp_path / "t1.json"
    save_instance(t1, path)
    return str(path)


@pytest.fixture
def cfg_path(tmp_path):
    cfg = {
        "n": 4, "block_sizes": [2, 2], "atoms_per_block": [2, 2],
        "num_extremal": 5, "num_instances": 2, "seed": 3,
        "lambda_grid": [0.0, 1.0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestSolve:
    def test_t1_core(self, t1_path):
        code, out, _ = invoke(["solve", t1_path])
        assert code == 0
        assert "core: nonempty" in out
        assert "y: 3" in out
        assert "z: (0.333333333, 0.666666667)" in out
        assert "eps: 0" in out

    def test_empty_core_reports_least_core(self, tmp_path):
        path = tmp_path / "ex1.json"
        save_instance(make_example1(12), path)
        code, out, _ = invoke(["solve", str(path), "--y-tol", "0.05"])
        assert code == 0
        assert "core: empty" in out
        eps = float(next(l for l in out.splitlines() if l.startswith("eps:")).split()[1])
        assert eps > 0.05

    @pytest.mark.parametrize("y_tol", ["0", "-0.05", "nan", "inf"])
    def test_bad_y_tol_is_input_error(self, tmp_path, y_tol):
        path = tmp_path / "ex1.json"
        save_instance(make_example1(8), path)
        code, out, err = invoke(["solve", str(path), f"--y-tol={y_tol}"])
        assert code == 2
        assert "y_tol" in err
        assert out == ""

    def test_missing_file(self):
        code, _, err = invoke(["solve", "/does/not/exist.json"])
        assert code == 2
        assert "error" in err

    def test_invalid_instance_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"price": 1.0, "cost": 2.0, "partition": [[0]], '
                        '"marginals": [{"atoms": [[1.0]], "probs": [1.0]}]}')
        code, _, err = invoke(["solve", str(path)])
        assert code == 2
        assert "price" in err

    def test_model_invalid_exit_code(self, tmp_path):
        doc = {
            "price": 1.5, "cost": 1.0, "partition": [[0], [1]],
            "marginals": [
                {"atoms": [[0.0], [1.0]], "probs": [0.5, 0.5]},
                {"atoms": [[0.0], [1.0]], "probs": [0.5, 0.5]},
            ],
        }
        path = tmp_path / "invalid_game.json"
        path.write_text(json.dumps(doc))
        code, _, err = invoke(["solve", str(path)])
        assert code == 4
        assert "positive" in err


class TestDetSolve:
    def test_t1(self, t1_path):
        code, out, _ = invoke(["det-solve", t1_path])
        assert code == 0
        assert "grand_value: 3" in out
        assert "x: (1, 2)" in out
        assert "core: nonempty" in out


class TestVmax:
    def test_single_entry(self, t1_path):
        code, out, _ = invoke(["vmax", t1_path, "--y", "3", "--coalition", "1"])
        assert code == 0
        assert "vmax: 0.333333333" in out

    def test_table_defaults_to_worst_case_order(self, t1_path):
        code, out, _ = invoke(["vmax", t1_path])
        assert code == 0
        assert "y: 3" in out
        assert "1,0.333333333,1" in out
        assert "2,0.666666667,2" in out


    @pytest.mark.parametrize("y", ["nan", "inf", "-inf"])
    def test_non_finite_order_is_input_error(self, t1_path, y):
        for extra in ([], ["--coalition", "1"]):
            code, out, err = invoke(["vmax", t1_path, f"--y={y}"] + extra)
            assert code == 2
            assert "finite" in err
            assert "nan" not in out


class TestStressAndGen:
    def test_gen_solve_round_trip(self, tmp_path, cfg_path):
        inst_path = tmp_path / "inst.json"
        code, out, _ = invoke(["gen", "--config", cfg_path, "--out", str(inst_path)])
        assert code == 0
        assert "retailers: 4" in out
        code, out, _ = invoke(["solve", str(inst_path)])
        assert code == 0
        # Emitted files re-parse to an identical in-memory instance.
        first = instance_to_dict(load_instance(inst_path))
        save_instance(load_instance(inst_path), inst_path)
        assert instance_to_dict(load_instance(inst_path)) == first

    def test_stress_writes_csv(self, tmp_path, cfg_path):
        csv_path = tmp_path / "stress.csv"
        code, out, _ = invoke(
            ["--threads", "1", "stress", "--config", cfg_path, "--out", str(csv_path)]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2  # instances x lambdas


    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_config_seed_is_input_error(self, tmp_path, cfg_path, seed):
        cfg = json.loads(open(cfg_path).read())
        cfg["seed"] = seed
        bad = tmp_path / "bad_cfg.json"
        bad.write_text(json.dumps(cfg))
        for argv in (
            ["--threads", "1", "stress", "--config", str(bad), "--out", str(tmp_path / "s.csv")],
            ["gen", "--config", str(bad), "--out", str(tmp_path / "i.json")],
        ):
            code, _, err = invoke(argv)
            assert code == 2
            assert "seed" in err

    def test_negative_instance_seed_is_input_error(self, tmp_path, cfg_path):
        code, _, err = invoke(
            ["gen", "--config", cfg_path, "--out", str(tmp_path / "i.json"), "--instance-seed", "-1"]
        )
        assert code == 2
        assert "seed" in err
        assert not (tmp_path / "i.json").exists()


class TestVerify:
    def test_verify_decision(self, tmp_path, t1_path):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"y": 3.0, "z": [1.0 / 3.0, 2.0 / 3.0]}))
        code, out, _ = invoke(["verify", t1_path, "--decision", str(dec)])
        assert code == 0
        assert "structural_check: pass" in out
        assert "imputation_exists: True" in out

    def test_verify_rejects_bad_order(self, tmp_path, t1_path):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"y": 4.0, "z": [0.5, 0.5]}))
        code, out, _ = invoke(["verify", t1_path, "--decision", str(dec)])
        assert code == 0
        assert "structural_check: fail" in out

    @pytest.mark.parametrize("text", [
        '{"y": NaN, "z": [0.3333333333, 0.6666666667]}',
        '{"y": Infinity, "z": [0.3333333333, 0.6666666667]}',
        '{"y": 3.0, "z": [NaN, 1.0]}',
    ])
    def test_non_finite_decision_is_input_error(self, tmp_path, t1_path, text):
        dec = tmp_path / "dec.json"
        dec.write_text(text)
        code, out, err = invoke(["verify", t1_path, "--decision", str(dec)])
        assert code == 2
        assert "finite" in err
        assert "structural_check" not in out

    def test_malformed_decision_file(self, tmp_path, t1_path):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"y": 3.0}))
        code, _, err = invoke(["verify", t1_path, "--decision", str(dec)])
        assert code == 2
        assert "decision" in err


class TestUsageErrors:
    def test_unknown_flag(self, t1_path):
        code, _, _ = invoke(["solve", t1_path, "--bogus"])
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = invoke(["frobnicate"])
        assert code == 2

    def test_no_arguments(self):
        code, _, _ = invoke([])
        assert code == 2
