"""Print two sha256 lines per corpus over the LP solver's answers on
fixed-seed corpora.

Usage: `python tools/lp_digest.py [SRC_DIR]` imports `nvgames` from SRC_DIR
(default: the repository's `src`) and solves four corpora:

- `general`: cold-started general programs, equality and inequality rows
  with right-hand sides of both signs and finite lower bounds, some of
  them nonzero (shifted);
- `stability`: random full stability tables, one value per nonempty
  proper coalition, through `coop.solve_stability_lp`;
- `polytope`: crash-started LPs over the consistency polytopes of
  `stress.gen_instance` draws;
- `two-block`: two-block polytopes of 40-90 value classes per block
  (79-179 rows), a crash-started LP each, then a chain of three LPs, each
  on a perturbed objective and started from the previous solution; most of
  these solves pivot past `lp._REFACTOR_EVERY`.

Per corpus it prints an answers line, `CORPUS SHA256  N solves`, then an
objective line, `CORPUS SHA256  M objective values`. Each solve adds its
status, basis, pivot count, x and duals to the answers hash; x and duals
are hashed plus 0.0, so the sign of a zero does not count. The objective
hash takes the objective value of every optimal solve, plus 0.0, so it
also tells apart two trees that compute the same x but round its
objective value differently. Two source trees whose simplex takes the same
pivots to the same answers print the same lines, so `diff` of two trees'
outputs lists the corpora that moved.
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
        lb = rng.choice([-2.0, 0.0, 1.5], n)
        # Right-hand sides through a point near the bounds: many feasible
        # programs, with rows of either sign.
        x0 = lb + rng.integers(-1, 4, n)
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
        k = (1 << n) - 2
        values = rng.uniform(-1.0, 1.0, k) if i % 3 else rng.choice([0.0, 0.5], k)
        total = (float(rng.uniform(0.1, 2.0) * n), 0.0, float(-rng.uniform(0.1, 2.0)))[i % 3]
        yield n, values, total


def two_block_polytope(nv, rng):
    marginals = []
    for k in rng.integers(40, 91, 2):
        weights = rng.integers(1, 5, k).astype(float)
        atoms = rng.permutation(k)[:, None] + 1.0
        marginals.append(nv.distributions.DiscreteMarginal(atoms, weights / weights.sum()))
    inst = nv.distributions.Instance(2.0, 1.0, ((0,), (1,)), tuple(marginals))
    return nv.distributions.FrechetPolytope(inst)


def general_solutions(nv, count: int):
    for lp in general_lps(nv, count):
        yield nv.lp.solve_lp(lp)


def stability_solutions(nv, count: int):
    solve, found = nv.coop.solve_lp, []
    nv.coop.solve_lp = lambda lp, start=None: found.append(solve(lp, start)) or found[-1]
    try:
        for n, table, total in stability_tables(count):
            nv.coop.solve_stability_lp(n, table, total)
    finally:
        nv.coop.solve_lp = solve
    yield from found


def polytope_solutions(nv, count: int):
    cfg = nv.stress.ExperimentConfig(n=4, block_sizes=(2, 2), atoms_per_block=(3, 4), seed=3)
    rng = np.random.default_rng(3)
    for seed in range(count):
        poly = nv.distributions.FrechetPolytope(nv.stress.gen_instance(cfg, seed))
        for _ in range(5):
            yield nv.lp.solve_lp(poly.lp(rng.normal(size=poly.n_atoms)), poly.crash_basis)


def two_block_solutions(nv, count: int):
    rng = np.random.default_rng(4)
    for _ in range(count):
        poly = two_block_polytope(nv, rng)
        sol, cost = poly.crash_basis, rng.normal(size=poly.n_atoms)
        for _ in range(4):
            sol = nv.lp.solve_lp(poly.lp(cost), sol)
            yield sol
            cost = cost + rng.normal(scale=0.5, size=cost.size)


CORPORA = {
    "general": general_solutions,
    "stability": stability_solutions,
    "polytope": polytope_solutions,
    "two-block": two_block_solutions,
}
"""Each corpus's name and the generator of its LpSolutions, which takes the
corpus's size from `SIZES`, in the same order."""


def corpus_lines(name: str, solutions) -> list[str]:
    """The two lines of one corpus: its solves' answers, then their
    objective values."""
    h, h_objective = hashlib.sha256(), hashlib.sha256()
    count = optimal = 0
    for sol in solutions:
        h.update(repr((sol.status, sol.basis, sol.iterations)).encode())
        if sol.status == "optimal":
            h.update((sol.x + 0.0).tobytes())
            h.update((sol.duals + 0.0).tobytes())
            h_objective.update(np.float64(sol.objective_value + 0.0).tobytes())
            optimal += 1
        count += 1
    return [
        f"{name} {h.hexdigest()}  {count} solves",
        f"{name} {h_objective.hexdigest()}  {optimal} objective values",
    ]


def digest(nv, sizes=SIZES) -> str:
    """The two lines of every corpus, in corpus order."""
    return "\n".join(
        line for (name, solutions), size in zip(CORPORA.items(), sizes)
        for line in corpus_lines(name, solutions(nv, size))
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
