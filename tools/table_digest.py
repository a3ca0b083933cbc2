"""Print one sha256 line per stress instance over its robust solve's table.

Usage: `python tools/table_digest.py [SRC_DIR]` imports `nvgames` from
SRC_DIR (default: the repository's `src`) and, for each of the benchmark's
two seeds (20240811 and the held-out 918273645), generates the instances of
the `stress-serial` workload's configuration (n = 6, blocks (3, 3), 4 atoms
per block, support 1..10, p = 1.5, c = 1; the 17 instances of a 50-second
run), seeded as `run_stress` seeds them, and solves each instance's robust
decision (`stress._solve_robust`). It prints `SEED INSTANCE SHA256` per
instance, the hash over the table at the decision's order (its ratios, its
attaining orders and its witness joints, in mask order), then the
decision's order and multiples, each hashed plus 0.0 so the sign of a zero
does not count.

Two source trees whose tables and decisions keep their bits print the same
lines, so `diff` of two trees' outputs lists the instances that moved.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (20240811, 918273645)
INSTANCES = 17
SHAPE = dict(n=6, block_sizes=(3, 3), atoms_per_block=(4, 4), support_lo=1, support_hi=10,
             price=1.5, cost=1.0)


def digest_lines(nv, seed: int, instances: int = INSTANCES, shape=SHAPE):
    """One `SEED INSTANCE SHA256` line per instance of one seed."""
    cfg = nv.stress.ExperimentConfig(**shape, num_instances=instances, seed=seed)
    seeds = np.random.SeedSequence(cfg.seed).generate_state(2 * cfg.num_instances, np.uint32)
    for i in range(cfg.num_instances):
        inst = nv.stress.gen_instance(cfg, int(seeds[2 * i]))
        decision, solver = nv.stress._solve_robust(inst)
        table = solver.table(decision.y)
        h = hashlib.sha256()
        for values in (table.ratios, table.gammas, *table.joints, [decision.y], decision.z):
            h.update((np.asarray(values, dtype=float) + 0.0).tobytes())
        yield f"{seed} {i} {h.hexdigest()}"


def load(src: Path):
    """The `nvgames` package under `src`, with its stress module."""
    sys.path.insert(0, str(src))
    import nvgames
    import nvgames.stress

    if Path(nvgames.__file__).resolve().parent != src / "nvgames":
        raise SystemExit(f"nvgames was already imported from {Path(nvgames.__file__).parent}")
    return nvgames


def main(argv=None, instances: int = INSTANCES, shape=SHAPE) -> None:
    argv = sys.argv[1:] if argv is None else argv
    nv = load(Path(argv[0] if argv else ROOT / "src").resolve())
    for seed in SEEDS:
        for line in digest_lines(nv, seed, instances, shape):
            print(line)


if __name__ == "__main__":
    main()
