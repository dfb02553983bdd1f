"""Print the lines of each Python file given that hold code, and their
total: lines with a token other than a comment, leaving out docstrings
and blank lines.  A metric beside ``wc -l``, which counts prose too.

    python tools/code_lines.py src/hoffline/*.py
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path):
    """(lines holding code, all lines) of the file at ``path``."""
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings), source.count(b"\n")


def main(paths):
    total_code = total_all = 0
    for path in paths:
        code, every = code_lines(path)
        total_code += code
        total_all += every
        print(f"{code:7d} {every:7d} {path}")
    print(f"{total_code:7d} {total_all:7d} total (code lines, all lines)")


if __name__ == "__main__":
    main(sys.argv[1:])
