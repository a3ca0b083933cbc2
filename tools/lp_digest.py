"""Print two sha256 lines over the LP solver's answers on a fixed-seed corpus.

Usage: `python tools/lp_digest.py [SRC_DIR]` imports `nvgames` from SRC_DIR
(default: the repository's `src`) and solves four corpora:

- cold-started general programs: equality and inequality rows with
  right-hand sides of both signs, free variables and shifted lower bounds;
- random stability tables through `coop.solve_stability_lp`, every fourth
  with player 0's pair {0, 1} in place of its singleton, so that a quarter
  of them start cold;
- crash-started LPs over the consistency polytopes of `stress.gen_instance`
  draws;
- two-block polytopes of 40-90 value classes per block (79-179 rows):
  a crash-started LP each, then a chain of three LPs, each on a perturbed
  objective and started from the previous solution; most of these solves
  pivot past `lp._REFACTOR_EVERY`.

Each solve adds its status, basis, pivot count, x and duals to the first
line's hash; x and duals are hashed plus 0.0, so the sign of a zero does not
count. Two source trees whose simplex takes the same pivots to the same
answers print the same first line. The second line hashes the objective
value of every optimal solve, plus 0.0, so it also tells apart two trees
that compute the same x but round its objective value differently.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = (2000, 500, 40, 8)
"""General programs, stability tables, polytope draws (five LPs each), large
two-block polytopes (four LPs each)."""


def general_lps(nv, count: int):
    rng = np.random.default_rng(1)
    for _ in range(count):
        n = int(rng.integers(1, 6))
        m_eq, m_ub = int(rng.integers(0, 3)), int(rng.integers(0, 4))
        lb = rng.choice([-np.inf, -2.0, 0.0, 1.5], n)
        # Right-hand sides through a point near the bounds: many feasible
        # programs, with rows of either sign.
        x0 = np.where(np.isfinite(lb), lb, 0.0) + rng.integers(-1, 4, n)
        a_eq = rng.integers(-3, 4, (m_eq, n)).astype(float)
        a_ub = rng.integers(-3, 4, (m_ub, n)).astype(float)
        yield nv.lp.LinearProgram(
            "min" if rng.random() < 0.5 else "max",
            rng.integers(-4, 5, n).astype(float),
            a_eq, a_eq @ x0 + rng.integers(-1, 2, m_eq),
            a_ub, a_ub @ x0 + rng.integers(-1, 3, m_ub),
            lb,
        )


def stability_tables(count: int):
    rng = np.random.default_rng(2)
    for i in range(count):
        n = int(rng.integers(2, 7))
        masks = np.arange(1, (1 << n) - 1)
        if i % 2:
            singles = 1 << np.arange(n)
            masks = np.union1d(singles, masks[rng.random(masks.size) < 0.5])
        if i % 4 == 1:
            # Player 0's pair in place of its singleton: no singleton basis,
            # so the solve starts cold and runs phase 1.
            masks = np.union1d(masks[masks != 1], [3])
        values = rng.uniform(-1.0, 1.0, masks.size) if i % 3 else rng.choice([0.0, 0.5], masks.size)
        total = (float(rng.uniform(0.1, 2.0) * n), 0.0, float(-rng.uniform(0.1, 2.0)))[i % 3]
        yield n, {int(m): float(v) for m, v in zip(masks, values)}, total


def two_block_polytope(nv, rng):
    marginals = []
    for k in rng.integers(40, 91, 2):
        weights = rng.integers(1, 5, k).astype(float)
        atoms = rng.permutation(k)[:, None] + 1.0
        marginals.append(nv.distributions.DiscreteMarginal(atoms, weights / weights.sum()))
    inst = nv.distributions.Instance(2.0, 1.0, ((0,), (1,)), tuple(marginals))
    return nv.distributions.FrechetPolytope(inst)


def solutions(nv, sizes):
    """Every LpSolution of the corpus, in a fixed order."""
    n_general, n_tables, n_polytopes, n_large = sizes
    for lp in general_lps(nv, n_general):
        yield nv.lp.solve_lp(lp)

    solve, found = nv.coop.solve_lp, []
    nv.coop.solve_lp = lambda lp, start=None: found.append(solve(lp, start)) or found[-1]
    try:
        for n, table, total in stability_tables(n_tables):
            nv.coop.solve_stability_lp(n, table, total)
    finally:
        nv.coop.solve_lp = solve
    yield from found

    cfg = nv.stress.ExperimentConfig(n=4, block_sizes=(2, 2), atoms_per_block=(3, 4), seed=3)
    rng = np.random.default_rng(3)
    for seed in range(n_polytopes):
        poly = nv.distributions.FrechetPolytope(nv.stress.gen_instance(cfg, seed))
        for _ in range(5):
            yield nv.lp.solve_lp(poly.lp(rng.normal(size=poly.n_atoms)), poly.crash_basis)

    rng = np.random.default_rng(4)
    for _ in range(n_large):
        poly = two_block_polytope(nv, rng)
        sol, cost = poly.crash_basis, rng.normal(size=poly.n_atoms)
        for _ in range(4):
            sol = nv.lp.solve_lp(poly.lp(cost), sol)
            yield sol
            cost = cost + rng.normal(scale=0.5, size=cost.size)


def digest(nv, sizes=SIZES) -> str:
    """The two lines: the solves' answers, then their objective values."""
    h, h_objective = hashlib.sha256(), hashlib.sha256()
    count = optimal = 0
    for sol in solutions(nv, sizes):
        h.update(repr((sol.status, sol.basis, sol.iterations)).encode())
        if sol.status == "optimal":
            h.update((sol.x + 0.0).tobytes())
            h.update((sol.duals + 0.0).tobytes())
            h_objective.update(np.float64(sol.objective_value + 0.0).tobytes())
            optimal += 1
        count += 1
    return (
        f"{h.hexdigest()}  {count} solves\n"
        f"{h_objective.hexdigest()}  {optimal} objective values"
    )


def load(src: Path):
    """The `nvgames` package under `src`, with its submodules."""
    sys.path.insert(0, str(src))
    import nvgames
    import nvgames.coop
    import nvgames.distributions
    import nvgames.lp
    import nvgames.stress

    if Path(nvgames.__file__).resolve().parent != src / "nvgames":
        raise SystemExit(f"nvgames was already imported from {Path(nvgames.__file__).parent}")
    return nvgames


def main(argv=None, sizes=SIZES) -> None:
    argv = sys.argv[1:] if argv is None else argv
    print(digest(load(Path(argv[0] if argv else ROOT / "src").resolve()), sizes))


if __name__ == "__main__":
    main()
