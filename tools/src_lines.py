"""Count the code and prose lines of ``src/ltfsm``, per module and in total.

A code line holds at least one token of Python code, docstrings left out.
A prose line is any other line of a docstring or a comment (a line with code
and a trailing comment is a code line), so blank lines are the rest.  Run
from anywhere::

    python3 tools/src_lines.py [package directory [base package directory]]
    python3 tools/src_lines.py --pairs [package directory]

Each line gives a module's name, its code lines and its prose lines.  With
a base directory (say, an export of the parent commit's ``src/ltfsm``), it
also gives the change of both against the base; a module missing from
either side counts 0 there.

With ``--pairs`` it prints instead every pair of consecutive code lines
(compared token by token, so spacing and trailing comments do not count)
that occurs more than once in the package: its count, the two lines, and
where each occurrence starts.  A pair that holds a ``raise`` is a rule
stated twice.
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


def code_lines(source: str) -> list[tuple[int, str]]:
    """The code lines of ``source`` as ``(line number, tokens)`` pairs, in
    order, each line's tokens joined by single spaces; a token spanning
    several lines counts on its first, and docstrings are left out."""
    docs = _docstring_lines(ast.parse(source))
    lines: dict[int, list[str]] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP and tok.start[0] not in docs:
            lines.setdefault(tok.start[0], []).append(tok.string)
    return [(number, " ".join(tokens)) for number, tokens in lines.items()]


def repeated_pairs(root: pathlib.Path) -> dict[tuple[str, str], list[str]]:
    """Each pair of consecutive code lines that occurs more than once in the
    modules of ``root``, with the ``module:line`` where each occurrence
    starts."""
    where: dict[tuple[str, str], list[str]] = {}
    for path in sorted(root.glob("*.py")):
        lines = code_lines(path.read_text())
        for (number, first), (_, second) in zip(lines, lines[1:]):
            where.setdefault((first, second), []).append(f"{path.name}:{number}")
    return {pair: places for pair, places in where.items() if len(places) > 1}


def _counts(root: pathlib.Path) -> dict[str, tuple[int, int]]:
    """Code and prose lines of each module of the package directory
    ``root``, and their ``total``."""
    counts = {path.name: line_counts(path.read_text()) for path in sorted(root.glob("*.py"))}
    counts["total"] = tuple(map(sum, zip(*counts.values())))
    return counts


def main(argv: list[str]) -> int:
    if argv[:1] == ["--pairs"]:
        for (first, second), places in repeated_pairs(
            pathlib.Path(argv[1]) if len(argv) > 1 else _PACKAGE
        ).items():
            print(f"{len(places)}x  {first}\n    {second}\n    at {' '.join(places)}")
        return 0
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
