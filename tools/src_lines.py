"""Count the code and prose lines of ``src/ltfsm``, per module and in total.

A code line holds at least one token of Python code, docstrings left out.
A prose line is any other line of a docstring or a comment (a line with code
and a trailing comment is a code line), so blank lines are the rest.  Run
from anywhere::

    python3 tools/src_lines.py [package directory [base package directory]]

Each line gives a module's name, its code lines and its prose lines.  With
a base directory (say, an export of the parent commit's ``src/ltfsm``), it
also gives the change of both against the base; a module missing from
either side counts 0 there.
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


def line_counts(source: str) -> tuple[int, int]:
    """Numbers of lines of ``source`` that carry code and that carry only
    prose (docstrings and comments)."""
    docs = _docstring_lines(ast.parse(source))
    code, comments = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comments.add(tok.start[0])
        elif tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len((docs | comments) - code)


def _counts(root: pathlib.Path) -> dict[str, tuple[int, int]]:
    """Code and prose lines of each module of the package directory
    ``root``, and their ``total``."""
    counts = {path.name: line_counts(path.read_text()) for path in sorted(root.glob("*.py"))}
    counts["total"] = tuple(map(sum, zip(*counts.values())))
    return counts


def main(argv: list[str]) -> int:
    counts = _counts(pathlib.Path(argv[0]) if argv else _PACKAGE)
    base = _counts(pathlib.Path(argv[1])) if len(argv) > 1 else None
    modules = counts.keys() | (base or {}).keys()
    for name in sorted(modules - {"total"}) + ["total"]:
        code, prose = counts.get(name, (0, 0))
        line = f"{name:<16}{code:>6}{prose:>7}"
        if base is not None:
            base_code, base_prose = base.get(name, (0, 0))
            line += f"{code - base_code:>+7}{prose - base_prose:>+7}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
