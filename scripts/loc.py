"""Size of a Python package directory: module count, physical lines and
code-only lines.

A code-only line holds at least one token that is not a comment and not
part of a module, class or function docstring; blank lines, comment lines
and docstring lines do not count.  A multi-line token (a string that is
not a docstring) counts every line it spans.

Usage: python scripts/loc.py [package_dir]      (default: georay)
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, col) where each module/class/function docstring starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_source(text: str) -> tuple[int, int]:
    """(physical lines, code-only lines) of one module's source."""
    docs = _docstring_starts(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _SKIP or (tok.type == tokenize.STRING
                                 and tok.start in docs):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code)


def count_package(root) -> tuple[int, int, int]:
    """(modules, physical lines, code-only lines) over every ``*.py``
    under ``root``."""
    modules = physical = code = 0
    for path in sorted(pathlib.Path(root).rglob("*.py")):
        p, c = count_source(path.read_text(encoding="utf-8"))
        modules += 1
        physical += p
        code += c
    return modules, physical, code


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else "georay"
    modules, physical, code = count_package(root)
    print(f"{root}: {modules:,} modules, {physical:,} physical lines, "
          f"{code:,} code-only lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
