"""Print the memory footprint of warm operations of the paper's example 1.

Usage: `python tools/op_footprint.py [SRC_DIR] [--k K] [--ops N]` imports
`nvgames` from SRC_DIR (default: the repository's `src`) and runs the
benchmark's example-1 operation: a fresh `RobustGameSolver`, then `table`
and `sigma` at the worst-case order and `least_core(y_tol=0.02)`, with
both demands uniform on a grid of K points (default 200, so 40 000 joint
atoms). It prints four lines:

- the median minor page faults (`ru_minflt`) of N warm operations
  (default 20), after two unmeasured ones;
- the `tracemalloc` peak of one warm operation, above what was traced when
  it began;
- at each ratio-LP certificate of that operation (every LP over the
  polytope, taken where `lp._check_certificate` is entered), the number of
  live numpy buffers of at least one float per atom: K^2-long vectors and
  anything larger;
- the growth of the process's peak RSS (`ru_maxrss`) over its first
  operation, run on a solver built just before it, as the benchmark runs
  its first operation on the solver its set-up built. This is measured
  first, before tracemalloc starts, on its own instance.

Tracing starts before the instance and its polytope are built, so the
count includes the arrays they hold. The page faults are counted after
tracing stops. Two source trees measured one after the other on the same
host compare; the fault count and the peak RSS growth move with the
allocator and the host.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def example1(nv, k: int):
    """The paper's example 1 as the benchmark builds it: p = 1.5, c = 1,
    block (d1, 1 - d1) and block d3, d1 and d3 uniform on {1/k, ..., 1}."""
    grid = np.arange(1, k + 1) * (1.0 / k)
    m1 = nv.DiscreteMarginal(np.column_stack([grid, 1.0 - grid]), np.full(k, 1.0 / k))
    m2 = nv.DiscreteMarginal(grid[:, None], np.full(k, 1.0 / k))
    return nv.Instance(1.5, 1.0, ((0, 1), (2,)), (m1, m2))


def run(solver) -> None:
    """The benchmark's timed section on `solver`."""
    y = solver.grand_wc.y_star
    solver.table(y)
    solver.sigma(y)
    solver.least_core(y_tol=0.02)


def operation(nv, inst) -> None:
    run(nv.RobustGameSolver(inst))


def first_growth(nv, k: int) -> float:
    """The growth of the process's peak RSS, in MB, over its first
    operation, on a solver built before it."""
    solver = nv.RobustGameSolver(example1(nv, k))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run(solver)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0


def long_buffers(n: int) -> int:
    """The live numpy buffers of at least n floats that tracemalloc traced."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    )
    return sum(1 for trace in snapshot.traces if trace.size >= 8 * n)


def traced(nv, k: int) -> tuple[object, int, list[int]]:
    """(instance, tracemalloc peak of one warm operation in bytes, live
    atom-long buffers at each of its ratio-LP certificates)."""
    check = nv.lp._check_certificate
    counts: list[int] | None = None

    def counting(program, *args):
        if counts is not None and program.n_vars == k * k:
            counts.append(long_buffers(k * k))
        return check(program, *args)

    tracemalloc.start()
    nv.lp._check_certificate = counting
    try:
        inst = example1(nv, k)
        operation(nv, inst)
        counts = []
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        operation(nv, inst)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        nv.lp._check_certificate = check
        tracemalloc.stop()
    return inst, peak, counts


def page_faults(nv, inst, ops: int) -> float:
    """The median minor page faults of `ops` warm operations."""
    faults = []
    for i in range(ops + 2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        operation(nv, inst)
        if i >= 2:
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return statistics.median(faults)


def footprint(nv, k: int = 200, ops: int = 20) -> str:
    growth = first_growth(nv, k)
    inst, peak, counts = traced(nv, k)
    faults = page_faults(nv, inst, ops)
    return (
        f"minor page faults per operation: {faults:g} (median of {ops})\n"
        f"tracemalloc peak per operation: {peak / 2**20:.2f} MB\n"
        f"buffers of >= {k * k} floats at each ratio-LP certificate: "
        + " ".join(map(str, counts))
        + f"\npeak RSS growth over the first operation: {growth:.2f} MB"
    )


def load(src: Path):
    """The `nvgames` package under `src`, with its `lp` module."""
    sys.path.insert(0, str(src))
    import nvgames
    import nvgames.lp

    if Path(nvgames.__file__).resolve().parent != src / "nvgames":
        raise SystemExit(f"nvgames was already imported from {Path(nvgames.__file__).parent}")
    return nvgames


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", default=str(ROOT / "src"))
    parser.add_argument("--k", type=int, default=200, help="grid points per demand")
    parser.add_argument("--ops", type=int, default=20, help="operations whose faults are counted")
    args = parser.parse_args(argv)
    print(footprint(load(Path(args.src).resolve()), args.k, args.ops))


if __name__ == "__main__":
    main()
