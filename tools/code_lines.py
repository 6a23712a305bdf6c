"""Count the code lines of Python files.

A code line holds part of a token other than a comment, and is not part
of a module, class or function docstring; blank lines are not code.
Prints each file's count, then the total:

    python3 tools/code_lines.py src/eccnoc/*.py
"""

import ast
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def _docstring_lines(source: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOC_OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(iter(source.splitlines(True))
                                        .__next__):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(source))


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        print(f"{n:6} {path}")
        total += n
    print(f"{total:6} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
