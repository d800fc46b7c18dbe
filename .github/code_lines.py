"""Count the code lines of every module of src/filtbem, and their total.

A line counts when it holds a token that is not a comment, a line break or
indentation, or part of a module, class or function docstring; a token
that spans lines (a multi-line string) counts on each line it spans.
Blank lines, comment lines and docstrings therefore never count.

    python3 .github/code_lines.py [package directory]
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_spans(tree: ast.Module) -> list:
    """((line, col), (end_line, end_col)) of every docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: Path) -> int:
    source = path.read_text()
    spans = docstring_spans(ast.parse(source))
    lines = set()
    with path.open("rb") as stream:
        for tok in tokenize.tokenize(stream.readline):
            if tok.type in SKIPPED or any(start <= tok.start and tok.end <= end
                                          for start, end in spans):
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    package = Path(argv[1] if len(argv) > 1 else
                   Path(__file__).resolve().parents[1] / "src" / "filtbem")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:20s} {count:6d}")
    print(f"{'total':20s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
