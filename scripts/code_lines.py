#!/usr/bin/env python3
"""Count code lines: non-blank, not comment-only, not inside a docstring.

    python scripts/code_lines.py src/repro            # per package
    python scripts/code_lines.py -f src/repro/proc    # per file too

The size measure of ROADMAP's quality-of-design pillar (``wc -l``
counts the docstrings every newly named method carries).  Printed,
never gated.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold a token other than a comment, minus
    the lines of its docstrings."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (
            tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER,
        ):
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list) -> None:
    per_file = "-f" in argv
    for root in [Path(arg) for arg in argv if arg != "-f"] or [Path("src/repro")]:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        packages: dict = {}
        for path in files:
            count = code_lines(path.read_text())
            packages[path.parent] = packages.get(path.parent, 0) + count
            if per_file:
                print(f"{count:7d}  {path}")
        for package, count in sorted(packages.items()):
            print(f"{count:7d}  {package}/")
        print(f"{sum(packages.values()):7d}  {root} (total)")


if __name__ == "__main__":
    main(sys.argv[1:])
