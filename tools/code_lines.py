"""Count the lines and the code lines of the Python files under src/, tests/ and tools/.

    python tools/code_lines.py [ROOT]

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of docstrings (a string standing alone as a
statement) do not count.  It prints one line per directory of ROOT (the
checkout this script sits in, by default): its name, its line count and
its code-line count; under ``src/``, one more line per module of
``schwarzian_lab``, indented, with the same two counts.  Only the
standard library is used.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

DIRECTORIES = ("src", "tests", "tools")
PACKAGE = "src/schwarzian_lab"  # its modules get a line each
# tokens that are not code
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of one file's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                docstrings.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    for name in DIRECTORIES:
        counts = {path: count(path.read_text()) for path in sorted((root / name).rglob("*.py"))}
        lines = sum(n for n, _ in counts.values())
        code = sum(c for _, c in counts.values())
        print(f"{name}/\t{lines} lines\t{code} code lines")
        for path, (n, c) in counts.items():
            if path.parent == root / PACKAGE:
                print(f"  {path.stem}\t{n} lines\t{c} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
