"""Outside-in benchmark of nvgames (see bench/README.md).

    python3 bench/run.py --workload example1-k200 --seed 20240811 --seconds 50 --trace 0

Run from the root of a source checkout. The package is imported from
``src/``; without it the script exits with code 2 and prints no result.

``--seconds`` fixes how much work the run does: each workload has a nominal
cost per operation, and the run makes ``seconds // cost`` operations (at
least one), so reruns with one seed do exactly the same work. ``--smoke``
shrinks every input so that the whole run takes seconds.

With ``--trace 0`` the run sets up ``SETUP_REPS`` times (each time importing
nvgames afresh), keeps the last set-up, runs the operations and reports the
end-to-end metrics. With ``--trace 1`` it runs half as many operations
untraced, then sets up again with every layer wrapped in spans and runs the
same operations traced; it reports the per-layer metrics and the tracing
overhead, and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
is the run's record: environment, output digest, per-operation times and
results. Records are appended to ``.bench_out/history.jsonl``; a digest that
differs from an earlier run of the same source, workload, seed and size
makes the run incorrect.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from time import perf_counter, process_time

import numpy as np

from tracing import PER_LAYER_METRICS, Tracer, install, layer_metrics
from workloads import DEFAULT_SEED, OUT_DIR, ROOT, WORKLOADS

SRC = ROOT / "src"
SETUP_REPS = 5


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nvgames").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def set_up(workload_cls, seed: int, units: int, smoke: bool, tracer: Tracer | None = None):
    """Import nvgames afresh and build the workload's inputs.

    Returns (nv, workload, seconds); the seconds cover the import and the
    build, not the traced pass's wrapping."""
    for name in [m for m in sys.modules if m == "nvgames" or m.startswith("nvgames.")]:
        del sys.modules[name]
    gc.collect()  # frees the previous set-up's polytopes
    t0 = perf_counter()
    nv = importlib.import_module("nvgames")
    t_import = perf_counter() - t0
    if not os.path.realpath(nv.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"imported nvgames from {nv.__file__}, not from {SRC}")
    if tracer is not None:
        install(tracer)
        tracer.enabled = True
        root = tracer.begin_operation("bench.setup", -1)
    t1 = perf_counter()
    workload = workload_cls(seed, units, smoke)
    workload.setup(nv)
    elapsed = t_import + perf_counter() - t1
    if tracer is not None:
        tracer.close(root)
        tracer.enabled = False
    return nv, workload, elapsed


def run_operations(nv, workload, tracer: Tracer | None = None) -> dict:
    """Run and check every operation; returns wall and CPU seconds of the
    timed sections and the checked outcomes (None for an operation that
    raised)."""
    walls, cpus, outcomes = [], [], []
    for i in range(workload.operations()):
        job = workload.prepare(nv, i)
        if tracer is not None:
            tracer.enabled = True
            root = tracer.begin_operation("bench.op", i)
        out, outcome = None, None
        t0, c0 = perf_counter(), process_time()
        try:
            out = workload.solve(job)
        except Exception:  # counted as failed; the run goes on
            traceback.print_exc()
        walls.append(perf_counter() - t0)
        cpus.append(process_time() - c0)
        if tracer is not None:
            tracer.close(root)
            tracer.enabled = False
        if out is not None:
            try:
                outcome = workload.check(nv, job, out)
            except Exception:
                traceback.print_exc()
        outcomes.append(outcome)
        del job, out
    return {"walls": walls, "cpus": cpus, "outcomes": outcomes}


def summarize(run: dict, attempts_per_op: int) -> dict:
    attempted = failed = 0
    failures, digest_lines, results = [], [], []
    ok_walls, ok_cpus = [], []
    for wall, cpu, outcome in zip(run["walls"], run["cpus"], run["outcomes"]):
        if outcome is None:
            attempted += attempts_per_op
            failed += attempts_per_op
            failures.append("operation raised")
            continue
        attempted += outcome.attempted
        failed += min(len(outcome.failures), outcome.attempted)
        failures.extend(outcome.failures)
        digest_lines.extend(outcome.digest_lines)
        results.append(outcome.results)
        if not outcome.failures:
            ok_walls.append(wall)
            ok_cpus.append(cpu)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "digest": hashlib.sha256("\n".join(digest_lines).encode()).hexdigest(),
        "results": results,
        # Timings of checked operations; all timings if none passed.
        "walls": ok_walls or run["walls"],
        "cpus": ok_cpus or run["cpus"],
    }


def history_agrees(record: dict) -> bool:
    """False when an earlier record of the same source, workload, seed and
    size holds another digest."""
    def key(r):
        return (r.get("env", {}).get("source_sha256"), r.get("workload"), r.get("seed"),
                r.get("units"), r.get("smoke"))

    try:
        lines = (OUT_DIR / "history.jsonl").read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        return True
    for line in lines:
        try:
            old = json.loads(line)
        except json.JSONDecodeError:
            continue
        if key(old) == key(record) and old.get("digest") != record["digest"]:
            return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Outside-in benchmark of nvgames.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "nvgames" / "__init__.py").is_file():
        print(f"error: no nvgames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    cls = WORKLOADS[args.workload]
    units = max(1, int(args.seconds // cls.unit_s))
    if args.trace:
        units = max(1, units // 2)
    # One stress operation covers `units` instances; the others one each.
    attempts_per_op = units if cls.name == "stress-serial" else 1

    setup_times = []
    if args.trace:
        nv, workload, _ = set_up(cls, args.seed, units, args.smoke)
        plain = run_operations(nv, workload)
        del nv, workload
        tracer = Tracer()
        nv, workload, _ = set_up(cls, args.seed, units, args.smoke, tracer)
        traced = run_operations(nv, workload, tracer)
        runs = [summarize(plain, attempts_per_op), summarize(traced, attempts_per_op)]
    else:
        for _ in range(SETUP_REPS):
            nv = workload = None
            nv, workload, t = set_up(cls, args.seed, units, args.smoke)
            setup_times.append(t)
        runs = [summarize(run_operations(nv, workload), attempts_per_op)]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "units": units,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
        "digest": runs[0]["digest"],
        "setup_s": setup_times,
        "op_wall_s": [r["walls"] for r in runs],
        "op_cpu_s": [r["cpus"] for r in runs],
        "results": runs[-1]["results"],
        "env": environment(),
    }
    # In a traced run both passes solve the same inputs.
    record["digest_agrees"] = len({r["digest"] for r in runs}) == 1 and history_agrees(record)
    if not record["digest_agrees"]:
        print("error: output digest differs between runs of the same code and seed", file=sys.stderr)

    if args.trace:
        overhead = sum(traced["walls"]) / sum(plain["walls"]) - 1.0
        values = layer_metrics(tracer, runs[1]["attempted"], overhead)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS.items()}
        spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.csv"
        tracer.write_csv(spans)
        record["spans_file"] = spans.relative_to(ROOT).as_posix()
    else:
        s = runs[0]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "solve_s": {"value": statistics.median(s["walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.median(s["cpus"]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "ok_frac": {"value": (s["attempted"] - s["failed"]) / s["attempted"], "unit": "frac"},
        }

    with open(OUT_DIR / "history.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["failed"] == 0 and record["digest_agrees"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
