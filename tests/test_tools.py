import importlib.util
import itertools
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
    # A tiny corpus of each kind, run twice: the same eight lines both
    # times, each corpus's answers hash and objective values hash.
    tool = load_tool("lp_digest")
    for _ in range(2):
        tool.main([str(ROOT / "src")], sizes=(30, 6, 2, 1))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16 and lines[:8] == lines[8:]
    assert [line.split()[0] for line in lines[:8]] == [
        name for name in tool.CORPORA for _ in range(2)]
    assert [line.split("  ")[1].split()[1] for line in lines[:8]] == ["solves", "objective"] * 4
    assert [line.split("  ")[1].split()[0] for line in lines[:8:2]] == ["30", "6", "10", "4"]
    assert all(len(line.split()[1]) == 64 for line in lines[:8])
    assert len({line.split()[1] for line in lines[:8]}) == 8


def test_table_digest_is_reproducible(capsys):
    # Two instances of a 4-retailer shape per seed, run twice: one line per
    # instance, the same lines both times.
    tool = load_tool("table_digest")
    shape = dict(n=4, block_sizes=(2, 2), atoms_per_block=(2, 2))
    for _ in range(2):
        tool.main([str(ROOT / "src")], instances=2, shape=shape)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and lines[:4] == lines[4:]
    assert [line.split()[:2] for line in lines[:4]] == [
        [str(seed), str(i)] for seed in tool.SEEDS for i in range(2)]
    assert all(len(line.split()[2]) == 64 for line in lines)
    assert len({line.split()[2] for line in lines[:4]}) == 4


def test_cli_digest_is_reproducible(capsys):
    # The fixed session, run twice: one line per command and shape, the
    # same lines both times, and the working directory restored.
    tool = load_tool("cli_digest")
    cwd = Path.cwd()
    for _ in range(2):
        tool.main([str(ROOT / "src")])
    assert Path.cwd() == cwd
    lines = capsys.readouterr().out.splitlines()
    commands = ["gen", "solve", "det-solve", "vmax", "vmax-coalition", "verify", "stress"]
    assert len(lines) == 42 and lines[:21] == lines[21:]
    assert [line.split()[0] for line in lines[:21]] == [
        f"{shape}/{name}" for shape in tool.CONFIGS for name in commands]
    assert all(len(line.split()[1]) == 64 for line in lines)
    assert len({line.split()[1] for line in lines[:21]}) == 21


def test_output_digests_are_pinned(capsys):
    """Every line the three digest tools print matches `tests/data/digests.txt`:
    the full `cli_digest` and `table_digest` output, then the `lp_digest`
    lines at sizes=(30, 6, 2, 1), the corpus of the test above. On a
    mismatch it names each moved line, pinned and printed. A change that
    moves a line re-pins it in the file and gives the reason in CHANGES.md,
    as for the criterion-10 CSV pins. The file holds the bits of the
    numpy and BLAS of the host that pinned it, with no tolerance."""
    src = str(ROOT / "src")
    load_tool("cli_digest").main([src])
    load_tool("table_digest").main([src])
    load_tool("lp_digest").main([src], sizes=(30, 6, 2, 1))
    printed = capsys.readouterr().out.splitlines()
    text = (ROOT / "tests" / "data" / "digests.txt").read_text()
    pinned = [line for line in text.splitlines() if not line.startswith("#")]
    moved = [f"pinned {want}\nprinted {got}"
             for want, got in itertools.zip_longest(pinned, printed, fillvalue="(none)")
             if want != got]
    assert not moved, "moved lines:\n" + "\n".join(moved)


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


def test_op_footprint_reports_faults_peak_and_long_buffers(capsys):
    # Example 1 at K = 24 (576 atoms, two ratio LPs per operation), three
    # counted operations: the four lines and their numbers.
    load_tool("op_footprint").main([str(ROOT / "src"), "--k", "24", "--ops", "3"])
    faults, peak, buffers, growth = capsys.readouterr().out.splitlines()
    head, value = faults.split(": ")
    assert head == "minor page faults per operation" and value.endswith(" (median of 3)")
    assert float(value.split()[0]) >= 0
    head, value = peak.split(": ")
    assert head == "tracemalloc peak per operation" and value.endswith(" MB")
    assert float(value.split()[0]) > 0
    head, value = buffers.split(": ")
    assert head == "buffers of >= 576 floats at each ratio-LP certificate"
    counts = [int(c) for c in value.split()]
    assert len(counts) == 2 and min(counts) > 0
    head, value = growth.split(": ")
    assert head == "peak RSS growth over the first operation" and value.endswith(" MB")
    assert float(value.split()[0]) >= 0


def test_op_footprint_pins_the_ratio_lps_long_buffers():
    # Example 1 at K = 200: the numpy buffers of at least 40 000 floats
    # alive where its two ratio-LP certificates start. At the first: the
    # coalition's demand row and LP objective, the grand demands, the
    # comonotonic joint and the denominator. The second adds the first
    # coalition's last LP solution, its table entry's joint. The tree
    # before the blocked passes held 7 and 9: also the coalitions' cached
    # demand rows, the numerator beside the objective, and the dense
    # solution, built before the certificate. The one before the in-place
    # ratio LPs held 11 and 14.
    import nvgames

    _inst, _peak, counts = load_tool("op_footprint").traced(nvgames, 200)
    assert counts == [5, 6]
