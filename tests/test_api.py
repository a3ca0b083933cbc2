import subprocess
import sys
from pathlib import Path

import nvgames

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    assert [name for name in nvgames.__all__ if not hasattr(nvgames, name)] == []


def test_benchmark_tracer_binds_every_name():
    # bench/tracing.py rebinds package functions by name and raises when one
    # it expects is gone or moved; a fresh interpreter keeps the rebinding
    # out of this test process.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:]; "
        "import nvgames, tracing; tracing.install(tracing.Tracer())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
