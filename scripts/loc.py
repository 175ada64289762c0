#!/usr/bin/env python3
"""Count the code lines of Python modules.

    python3 scripts/loc.py                 # every .py file in src/fanolap
    python3 scripts/loc.py src/fanolap tests

For each ``.py`` file in the given directories (not their subdirectories)
it prints the code lines and the ``wc -l`` count, then the totals.  A code
line holds a token of the program: it is not blank, and not only a comment
or part of a docstring (a module's, class's or function's first statement
when that is a string).  A string that is not a docstring counts on every
line it spans.  Lines are found with ``tokenize`` and docstrings with ``ast``.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(text):
    """(code lines, wc -l lines) of a module's source text."""
    docstrings = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings), text.count("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dirs", nargs="*", default=["src/fanolap"],
                        help="directories whose .py files are counted (default: src/fanolap)")
    args = parser.parse_args(argv)
    total_code = total_wc = 0
    print("%6s %6s  %s" % ("code", "wc -l", "file"))
    for d in args.dirs:
        for path in sorted(Path(d).glob("*.py")):
            code, wc = count(path.read_text(encoding="utf-8"))
            total_code += code
            total_wc += wc
            print("%6d %6d  %s" % (code, wc, path))
    print("%6d %6d  total" % (total_code, total_wc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
