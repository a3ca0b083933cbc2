"""List the lines of the package that no test runs.

Usage: `python tools/line_trace.py [PYTEST_ARGS...]` runs pytest in this
process (default: the repository's `tests`) under a `sys.settrace` hook,
set before the package is imported, that records every line executed in
`src/nvgames`. It then prints each line of those sources that holds code
and never ran, as `src/nvgames/FILE:LINE: SOURCE`, and their count. A
line that ran at import, such as a `def` or a module constant, counts as
run. Only this process and its threads are traced, not the worker
processes of a process pool. Standard library and pytest only; the exit
status is pytest's.

`python tools/line_trace.py tests/test_acceptance.py tests/test_cli.py`
traces only the acceptance criteria and the CLI, so it lists the package
lines that no caller but a unit test reaches: the candidates for removal
from the public surface. The benchmark (`bench/run.py`) runs in its own
processes and is not traced, so that listing also shows the lines that
only the benchmark reaches, such as the member-iterable branch of
`distributions.coalition_mask` and `robust_game.VmaxTable.value`; grep
`bench/` before removing a listed line.
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nvgames"


def code_lines(path: Path) -> set[int]:
    """The lines of the source file `path` that hold bytecode."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on `args` under the hook: its exit status and, for each
    package file, the lines that ran."""
    import pytest

    prefix = f"{PACKAGE}/"
    ran: dict[str, set[int]] = {}

    def hook(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def line_hook(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line_hook

        return line_hook

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    status, ran = traced_pytest(args or [str(ROOT / "tests")])
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(code_lines(path) - ran.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
            count += 1
    print(f"{count} lines of src/nvgames run by no test")
    return status


if __name__ == "__main__":
    sys.exit(main())
