"""Count the lines of src/rootneg, per module and in total.

    python3 bench/loc.py

Each module gets two counts: its total lines, and its code lines, which
leave out blank lines, comment-only lines and every line of a docstring
(the string that opens a module, class or function body, found with ast).
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rootneg"


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one source file."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in docstrings)
    return len(lines), code


def main() -> None:
    rows = [(path.name, *counts(path)) for path in sorted(SRC.glob("*.py"))]
    print(f"{'module':<20}{'total':>8}{'code':>8}")
    for name, total, code in rows:
        print(f"{name:<20}{total:>8}{code:>8}")
    print(f"{'src/ total':<20}{sum(r[1] for r in rows):>8}{sum(r[2] for r in rows):>8}")


if __name__ == "__main__":
    main()
