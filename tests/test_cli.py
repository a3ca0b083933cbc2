import io
import json

import numpy as np
import pytest

from nvgames.cli import run
from nvgames.distributions import (
    SUPPORT_CAP,
    DiscreteMarginal,
    Instance,
    instance_to_dict,
    load_instance,
    save_instance,
)
from nvgames.errors import SolverError
from nvgames.newsvendor import worst_case_order
from nvgames.robust_game import RobustGameSolver
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
        lines = out.splitlines()
        eps = float(next(l for l in lines if l.startswith("eps:")).split()[1])
        assert eps > 0.05
        # The certified lower bound on the least-core eps follows it.
        assert lines[lines.index(f"eps: {eps:.9g}") + 1].startswith("eps_lower: ")
        lower = float(lines[-1].split()[1])
        assert lower <= eps

    @pytest.mark.parametrize("y_tol", ["0", "-0.05", "nan", "inf"])
    def test_bad_y_tol_is_input_error(self, tmp_path, y_tol):
        path = tmp_path / "ex1.json"
        save_instance(make_example1(8), path)
        code, out, err = invoke(["solve", str(path), f"--y-tol={y_tol}"])
        assert code == 2
        assert "y_tol" in err
        assert out == ""

    @pytest.mark.parametrize("y_tol", ["-1", "0", "nan", "inf"])
    def test_bad_y_tol_is_input_error_when_the_core_is_nonempty(self, t1_path, y_tol):
        # The flag is checked before the core test, though only the
        # least-core search of an empty core reads it.
        code, out, err = invoke(["solve", t1_path, f"--y-tol={y_tol}"])
        assert code == 2
        assert err == f"error: y_tol must be finite and positive, got {float(y_tol)}\n"
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

    def test_fractional_partition_id_is_input_error(self, tmp_path, t1):
        # Truncated, these ids would form the valid partition ((0,), (1,)).
        doc = instance_to_dict(t1)
        doc["partition"] = [[0.9], [1.7]]
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["solve", str(path)])
        assert code == 2
        assert "partition" in err
        assert out == ""

    @pytest.mark.parametrize("fields, word", [
        # Converted, these would load as price 2.0 and 1.0 above cost 0.5.
        pytest.param({"price": "2"}, "price", id="string-price"),
        pytest.param({"price": True, "cost": 0.5}, "price", id="bool-price"),
        pytest.param({"cost": "1"}, "cost", id="string-cost"),
        pytest.param({"price": 10**400}, "price", id="price-beyond-float"),
    ])
    def test_bad_price_or_cost_is_input_error(self, tmp_path, t1, fields, word):
        doc = instance_to_dict(t1)
        doc.update(fields)
        path = tmp_path / "bad_price.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["solve", str(path)])
        assert code == 2
        assert f"{word} must be a finite number" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_nan_probs_are_input_error(self, tmp_path, t2, command):
        # The sum check alone passed them: verify printed nan multiples and
        # exited 0, solve failed late on a non-finite LP right-hand side.
        doc = instance_to_dict(t2)
        doc["marginals"][1]["probs"] = [float("nan"), float("nan")]
        path = tmp_path / "nan_probs.json"
        path.write_text(json.dumps(doc))
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"y": 3.0, "z": [0.5, 0.5]}))
        argv = [command, str(path)] + (["--decision", str(dec)] if command == "verify" else [])
        code, out, err = invoke(argv)
        assert code == 2
        assert "marginals[1]: probs must be finite" in err
        assert out == ""

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

    def test_solver_failure_exit_code(self, monkeypatch, t1_path):
        def fail(self):
            raise SolverError("stability LP reported 'infeasible'")

        monkeypatch.setattr(RobustGameSolver, "core_decision", fail)
        code, out, err = invoke(["solve", t1_path])
        assert code == 3
        assert err == "error: stability LP reported 'infeasible'\n"
        assert out == ""


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

    @pytest.mark.parametrize("r, key, values, shown", [
        # Converted by numpy, each of these would load as the numbers of a
        # valid instance, and vmax would answer.
        pytest.param(0, "atoms", [["1"], ["2"]], "'1'", id="string-atoms"),
        pytest.param(1, "probs", ["0.5", "0.5"], "'0.5'", id="string-probs"),
        pytest.param(1, "atoms", [[True], [2.0]], "True", id="bool-atom"),
        pytest.param(0, "atoms", [[10**400], [2.0]], "too large", id="atom-beyond-float"),
    ])
    def test_non_numeric_marginal_is_input_error(self, tmp_path, t1, r, key, values, shown):
        doc = instance_to_dict(t1)
        doc["marginals"][r][key] = values
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(doc))
        code, out, err = invoke(["vmax", str(path)])
        assert code == 2
        assert f"marginals[{r}]: " in err and shown in err
        assert out == ""

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

    def test_threads_beyond_instances_start_one_worker_each(
        self, tmp_path, cfg_path, pool_sizes
    ):
        code, _, _ = invoke(
            ["--threads", "5000", "stress", "--config", cfg_path, "--out", str(tmp_path / "s.csv")]
        )
        assert code == 0
        assert pool_sizes == [2]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_input_error(self, tmp_path, cfg_path, pool_sizes, threads):
        csv_path = tmp_path / "s.csv"
        code, _, err = invoke(
            ["--threads", threads, "stress", "--config", cfg_path, "--out", str(csv_path)]
        )
        assert code == 2
        assert "--threads" in err
        assert pool_sizes == [] and not csv_path.exists()

    @pytest.mark.parametrize("fields, word", [
        pytest.param({"seed": -1}, "seed", id="-1"),
        pytest.param({"seed": 1.5}, "seed", id="1.5"),
        # Integers are checked, never truncated: truncated, the fractional
        # block sizes would sum to n=3 and pass as blocks (1, 2).
        pytest.param({"n": 3, "block_sizes": [1.5, 2.5], "atoms_per_block": [2, 2]},
                     "block_sizes", id="fractional-block-sizes"),
        pytest.param({"atoms_per_block": [2.7, 2]}, "atoms_per_block", id="fractional-atoms"),
        pytest.param({"block_sizes": 5}, "block_sizes", id="scalar-block-sizes"),
        pytest.param({"block_sizes": [2, "two"]}, "block_sizes", id="string-block-size"),
        pytest.param({"num_instances": 1.5}, "num_instances", id="fractional-num-instances"),
        pytest.param({"num_extremal": 2.5}, "num_extremal", id="fractional-num-extremal"),
        pytest.param({"lambda_grid": [0.0, "half"]}, "lambda_grid", id="string-lambda"),
        # gen_instance draws atoms below support_hi + 1 as int64.
        pytest.param({"support_hi": 10**20}, "support_hi", id="support-hi-beyond-int64"),
        pytest.param({"price": "2"}, "price", id="string-price"),
        pytest.param({"cost": "1"}, "cost", id="string-cost"),
        # A bool is not a price: true would pass as 1.0 above cost 0.5.
        pytest.param({"price": True, "cost": 0.5}, "price", id="bool-price"),
    ])
    def test_bad_config_seed_is_input_error(self, tmp_path, cfg_path, fields, word):
        cfg = json.loads(open(cfg_path).read())
        cfg.update(fields)
        bad = tmp_path / "bad_cfg.json"
        bad.write_text(json.dumps(cfg))
        for argv in (
            ["--threads", "1", "stress", "--config", str(bad), "--out", str(tmp_path / "s.csv")],
            ["gen", "--config", str(bad), "--out", str(tmp_path / "i.json")],
        ):
            code, _, err = invoke(argv)
            assert code == 2
            assert word in err

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

    def test_verify_beyond_the_support_cap(self, tmp_path):
        # 1001 x 1000 joint atoms, above the default support cap: the check
        # and the imputation test need no consistency polytope.
        m1 = DiscreteMarginal(np.arange(1.0, 1002.0)[:, None], np.full(1001, 1.0 / 1001))
        m2 = DiscreteMarginal(np.arange(1.0, 1001.0)[:, None], np.full(1000, 1.0 / 1000))
        inst = Instance(1.5, 1.0, ((0,), (1,)), (m1, m2))
        assert inst.joint_size() > SUPPORT_CAP
        path = tmp_path / "big.json"
        save_instance(inst, path)
        dec = tmp_path / "dec.json"
        y = worst_case_order(inst, inst.grand_mask).y_star
        dec.write_text(json.dumps({"y": y, "z": [0.5, 0.5]}))
        code, out, err = invoke(["verify", str(path), "--decision", str(dec)])
        assert code == 0, err
        assert "structural_check: " in out
        assert "imputation_exists: True" in out

    @pytest.mark.parametrize("tol, y, z", [
        # No deviation exceeds a nan or infinite tolerance, so an order far
        # from the worst-case one (3) would pass.
        pytest.param("nan", 100.0, [0.5, 0.5], id="nan"),
        pytest.param("inf", 100.0, [0.5, 0.5], id="inf"),
        # A negative tolerance would fail even the true core decision.
        pytest.param("-1e-7", 3.0, [1.0 / 3.0, 2.0 / 3.0], id="-1e-7"),
    ])
    def test_bad_tol_is_input_error(self, tmp_path, t1_path, tol, y, z):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"y": y, "z": z}))
        code, out, err = invoke(["verify", t1_path, "--decision", str(dec), f"--tol={tol}"])
        assert code == 2
        assert "tol" in err
        assert "structural_check" not in out

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

    @pytest.mark.parametrize("doc, message", [
        # Converted by float(), these loaded as y = 1.0, y = 3.0 and z[0] = 1/3.
        pytest.param({"y": True, "z": [1.0 / 3.0, 2.0 / 3.0]}, "y must be a finite number",
                     id="bool-y"),
        pytest.param({"y": "3", "z": [1.0 / 3.0, 2.0 / 3.0]}, "y must be a finite number",
                     id="string-y"),
        pytest.param({"y": 3.0, "z": ["0.3333333333", 2.0 / 3.0]},
                     "z[0] must be a finite number", id="string-z"),
        pytest.param({"y": 3.0, "z": 1.0}, "field 'z' must be a list", id="scalar-z"),
    ])
    def test_non_number_decision_is_input_error(self, tmp_path, t1_path, doc, message):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps(doc))
        code, out, err = invoke(["verify", t1_path, "--decision", str(dec)])
        assert code == 2
        assert message in err
        assert out == ""

    def test_malformed_decision_file(self, tmp_path, t1_path):
        dec = tmp_path / "dec.json"
        dec.write_text(json.dumps({"y": 3.0}))
        code, _, err = invoke(["verify", t1_path, "--decision", str(dec)])
        assert code == 2
        assert "decision" in err


def reader_argv(command: str, path, t1_path: str, tmp_path) -> list[str]:
    """The argv of `command` with `path` as the file it reads: the instance
    of `solve`, the config of `stress` and `gen`, the decision of `verify`."""
    out_path = str(tmp_path / "out")
    return {
        "solve": ["solve", str(path)],
        "stress": ["stress", "--config", str(path), "--out", out_path],
        "gen": ["gen", "--config", str(path), "--out", out_path],
        "verify": ["verify", t1_path, "--decision", str(path)],
    }[command]


@pytest.mark.parametrize("command", ["solve", "stress", "gen", "verify"])
def test_malformed_json_reports_its_path_line_and_column(tmp_path, t1_path, command):
    # Instance, config and decision files go through one reader. The
    # document breaks off after line 2, column 7.
    bad = tmp_path / "bad.json"
    bad.write_text('{"y": 3.0,\n "z": [')
    code, out, err = invoke(reader_argv(command, bad, t1_path, tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {bad}: line 2, column 8: Expecting value\n"


@pytest.mark.parametrize("command", ["solve", "stress", "gen", "verify"])
def test_non_utf8_file_reports_its_path(tmp_path, t1_path, command):
    # A Latin-1 byte (0xe9) where UTF-8 needs a continuation byte.
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"y": "caf\xe9"}')
    code, out, err = invoke(reader_argv(command, bad, t1_path, tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: not UTF-8 text at byte 10: ")


@pytest.mark.parametrize("command", ["solve", "stress", "gen", "verify"])
def test_directory_as_input_file_is_input_error(tmp_path, t1_path, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    code, out, err = invoke(reader_argv(command, folder, t1_path, tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(folder) in err


@pytest.mark.parametrize("command", ["stress", "gen"])
def test_directory_as_output_is_input_error(tmp_path, cfg_path, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    code, out, err = invoke([command, "--config", cfg_path, "--out", str(folder)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(folder) in err


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
