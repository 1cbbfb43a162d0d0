"""Count the code lines of ``src/ltfsm``, per module and in total.

A code line holds at least one token of Python code: blank lines, comment
lines and docstring lines are left out.  Run from anywhere::

    python3 tools/src_lines.py [package directory [base package directory]]

With a base directory (say, an export of the parent commit's
``src/ltfsm``), each line also gives the change against the base; a module
missing from either side counts 0 there.
"""

import ast
import io
import pathlib
import sys
import tokenize

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}

_PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "ltfsm"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that carry code."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def _counts(root: pathlib.Path) -> dict[str, int]:
    """Code lines of each module of the package directory ``root``, and
    their ``total``."""
    counts = {path.name: code_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def main(argv: list[str]) -> int:
    counts = _counts(pathlib.Path(argv[0]) if argv else _PACKAGE)
    base = _counts(pathlib.Path(argv[1])) if len(argv) > 1 else None
    modules = counts.keys() | (base or {}).keys()
    for name in sorted(modules - {"total"}) + ["total"]:
        n = counts.get(name, 0)
        delta = "" if base is None else f"{n - base.get(name, 0):>+7}"
        print(f"{name:<16}{n:>6}{delta}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
