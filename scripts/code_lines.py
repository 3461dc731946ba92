"""Count the code lines of a Python package, per file and in total.

    python scripts/code_lines.py [--src DIR]

A code line is a distinct line on which a token starts that is not a
comment, a newline, an indent or a dedent (Python ``tokenize``), so a
statement spread over several lines counts each of them and a blank or
comment-only line counts none. Docstrings -- a string that is the first
statement of a module, class or function -- are not code: their lines are
left out. ``--src`` is the package directory (default ``src/spikedrive``
beside this directory); every ``*.py`` file under it is counted.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src" / "spikedrive"
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    starts = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type not in SKIPPED}
    return len(starts - docstring_lines(source))


def count(src: Path) -> dict[str, int]:
    """Code lines per ``*.py`` file under ``src``, keyed by relative path."""
    return {path.relative_to(src).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="package directory to count (default: src/spikedrive)")
    args = parser.parse_args(argv)
    if not args.src.is_dir():
        parser.error(f"--src {args.src} is not a directory")
    counts = count(args.src)
    if not counts:
        parser.error(f"--src {args.src} holds no .py file")
    width = max(len(name) for name in counts)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
