import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_layout(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""A module docstring\nover two lines."""\n\n# a comment\nx = 1\n\n'
                    'def f():\n    """One line."""\n')
    assert load_tool("code_lines").code_lines(path) == 2


def test_lp_digest_is_reproducible(capsys):
    # A tiny corpus of each kind, run twice: the same two lines both times,
    # the answers' hash and the objective values' hash.
    tool = load_tool("lp_digest")
    for _ in range(2):
        tool.main([str(ROOT / "src")], sizes=(30, 6, 2, 1))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[:2] == lines[2:]
    assert lines[0].endswith("  50 solves") and len(lines[0].split()[0]) == 64
    assert lines[1].endswith(" objective values") and len(lines[1].split()[0]) == 64
    assert lines[0].split()[0] != lines[1].split()[0]


def test_line_trace_lists_the_lines_no_test_runs():
    # One test under the hook, in a fresh interpreter: the pivot-limit raise
    # runs, the phase-1 factorization raise does not, and a module constant
    # counts as run at import.
    source = (ROOT / "src" / "nvgames" / "lp.py").read_text().splitlines()

    def where(text):
        return f"src/nvgames/lp.py:{next(i for i, s in enumerate(source, 1) if text in s)}"

    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "line_trace.py"), "-q", "-p", "no:cacheprovider",
         f"{ROOT / 'tests' / 'test_lp.py'}::TestRuntimeChecks::test_pivot_limit"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    listed = {line.split(": ", 1)[0] for line in lines if line.startswith("src/nvgames/")}
    assert where("phase-1 factorization failed") in listed
    assert where("pivot limit exceeded") not in listed
    assert where("_TREE_ROWS = 64") not in listed
    assert lines[-1] == f"{len(listed)} lines of src/nvgames run by no test"
