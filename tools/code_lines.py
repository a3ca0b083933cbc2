"""Count the code lines of the package sources.

A code line holds at least one token that is not a comment, a docstring (a
logical line that is only a string) or layout (newlines, indentation). A
token spanning several lines, such as a multi-line string inside an
expression, makes each of its lines a code line.

Run from anywhere: `python tools/code_lines.py` prints the count of each
src/nvgames/*.py file, then their total.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    lines: set[int] = set()
    logical: list[tokenize.TokenInfo] = []  # the current logical line's tokens
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _LAYOUT:
                if tok.type == tokenize.NEWLINE:
                    if not (len(logical) == 1 and logical[0].type == tokenize.STRING):
                        for t in logical:
                            lines.update(range(t.start[0], t.end[0] + 1))
                    logical = []
                continue
            logical.append(tok)
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "nvgames").glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
