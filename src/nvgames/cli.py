"""Command-line front end.

Subcommands:
  solve      robust core / least core of an instance file
  det-solve  core of the deterministic game under the independent joint
  vmax       worst-case ratio table (or one entry) at a given grand order
  stress     contamination experiment driven by a config file, CSV output
  gen        write a random instance from a config file
  verify     structural check of a decision file against an instance

Exit codes: 0 success, 2 input error, 3 solver failure, 4 model-invalid
(no admissible grand order). Coalition masks on the command line are decimal
bitmasks with bit i standing for retailer i.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .coop import build_deterministic_game, least_core
from .distributions import check_real, independent_joint, load_instance, read_json, save_instance
from .errors import GameInvalidError, InputError, NvGamesError
from .newsvendor import optimal_order
from .robust_game import Decision, RobustGameSolver, check_y_tol, imputation_exists, verify_rcore2
from .stress import config_from_dict, gen_instance, run_stress

_FMT = "%.9g"


def _fmt(x: float) -> str:
    return _FMT % float(x)


def _fmt_vec(v) -> str:
    return "(" + ", ".join(_fmt(x) for x in np.asarray(v, dtype=float)) + ")"


def _load_decision(path) -> Decision:
    data = read_json(path)
    if not isinstance(data, dict) or "y" not in data or "z" not in data:
        raise InputError(f"{path}: decision file must be an object with 'y' and 'z'")
    try:
        if not isinstance(data["z"], list):
            raise InputError("field 'z' must be a list")
        z = [check_real(v, f"z[{i}]") for i, v in enumerate(data["z"])]
        return Decision(check_real(data["y"], "y"), np.array(z))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _cmd_solve(args, out) -> int:
    check_y_tol(args.y_tol)
    inst = load_instance(args.instance)
    solver = RobustGameSolver(inst)
    decision = solver.core_decision()
    core = decision is not None
    if core:
        eps, _ = solver.sigma(decision.y)
    else:
        decision, eps = solver.least_core(args.y_tol)
    print("core: nonempty" if core else "core: empty", file=out)
    print(f"y: {_fmt(decision.y)}", file=out)
    print(f"z: {_fmt_vec(decision.z)}", file=out)
    print(f"eps: {_fmt(eps)}", file=out)
    if not core:
        print(f"eps_lower: {_fmt(solver.least_core_lower)}", file=out)
    return 0


def _cmd_det_solve(args, out) -> int:
    inst = load_instance(args.instance)
    q_ind = independent_joint(inst)
    game = build_deterministic_game(inst, q_ind)
    x, s_value = least_core(game)
    y = optimal_order(inst, q_ind, inst.grand_mask).y_star
    print(f"grand_value: {_fmt(game.grand_value)}", file=out)
    print(f"y: {_fmt(y)}", file=out)
    print(f"x: {_fmt_vec(x)}", file=out)
    print(f"s_value: {_fmt(s_value)}", file=out)
    print(f"core: {'nonempty' if s_value <= 1e-9 else 'empty'}", file=out)
    return 0


def _cmd_vmax(args, out) -> int:
    inst = load_instance(args.instance)
    solver = RobustGameSolver(inst)
    y = args.y if args.y is not None else solver.grand_wc.y_star
    if args.coalition is not None:
        res = solver.vmax(y, args.coalition)
        print(f"y: {_fmt(y)}", file=out)
        print(f"coalition: {args.coalition}", file=out)
        print(f"vmax: {_fmt(res.value)}", file=out)
        print(f"gamma: {_fmt(res.gamma)}", file=out)
        return 0
    table = solver.table(y)
    print(f"y: {_fmt(y)}", file=out)
    print("coalition,vmax,gamma", file=out)
    for mask, (value, gamma) in enumerate(zip(table.ratios, table.gammas), start=1):
        print(f"{mask},{_fmt(value)},{_fmt(gamma)}", file=out)
    return 0


def _cmd_stress(args, out) -> int:
    if args.threads is not None and args.threads < 1:
        raise InputError(f"--threads must be at least 1, got {args.threads}")
    cfg = config_from_dict(read_json(args.config))
    workers = args.threads if args.threads is not None else os.cpu_count()
    stats = run_stress(cfg, workers=workers, csv_path=args.out)
    print(f"instances: {cfg.num_instances}", file=out)
    print(f"rows: {len(stats.rows)}", file=out)
    print(f"csv: {args.out}", file=out)
    return 0


def _cmd_gen(args, out) -> int:
    cfg = config_from_dict(read_json(args.config))
    inst = gen_instance(cfg, args.instance_seed if args.instance_seed is not None else cfg.seed)
    save_instance(inst, args.out)
    print(f"instance: {args.out}", file=out)
    print(f"retailers: {inst.n_retailers}", file=out)
    print(f"joint_atoms: {inst.joint_size()}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    inst = load_instance(args.instance)
    decision = _load_decision(args.decision)
    ok = verify_rcore2(inst, decision, args.tol)
    has_imputation, z = imputation_exists(inst)
    print(f"structural_check: {'pass' if ok else 'fail'}", file=out)
    print(f"imputation_exists: {has_imputation}", file=out)
    print(f"rational_multiples: {_fmt_vec(z)}", file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvgames",
        description=(
            "Cooperative newsvendor games under demand-distribution ambiguity: "
            "robust cores, least cores, worst-case ratio tables, and "
            "contamination stress experiments."
        ),
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="worker bound for parallel loops (default: all cores)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="robust core / least core of an instance")
    p.add_argument("instance", help="instance file (JSON)")
    p.add_argument("--y-tol", type=float, default=None,
                   help="order-quantity tolerance for the least-core search")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("det-solve", help="deterministic core under the independent joint")
    p.add_argument("instance", help="instance file (JSON)")
    p.set_defaults(func=_cmd_det_solve)

    p = sub.add_parser("vmax", help="worst-case ratio table or one entry")
    p.add_argument("instance", help="instance file (JSON)")
    p.add_argument("--y", type=float, default=None,
                   help="grand order (default: worst-case optimal order)")
    p.add_argument("--coalition", type=int, default=None,
                   help="decimal bitmask of one coalition (bit i = retailer i)")
    p.set_defaults(func=_cmd_vmax)

    p = sub.add_parser("stress", help="contamination stress experiment")
    p.add_argument("--config", required=True, help="experiment config file (JSON)")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_stress)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--config", required=True, help="experiment config file (JSON)")
    p.add_argument("--out", required=True, help="instance output path")
    p.add_argument("--instance-seed", type=int, default=None,
                   help="seed override for this single instance")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check a decision file against an instance")
    p.add_argument("instance", help="instance file (JSON)")
    p.add_argument("--decision", required=True, help="decision file (JSON with y, z)")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=_cmd_verify)
    return parser


def run(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except OSError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except GameInvalidError as exc:
        print(f"error: {exc}", file=err)
        return 4
    except NvGamesError as exc:
        print(f"error: {exc}", file=err)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
