"""The code- and prose-line counts of ``tools/src_lines.py``, which reports
the line deltas of ``src/`` for each change, and its repeated-pair scan,
which keeps each refusal of ``src/ltfsm`` stated once."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

_SOURCE = '''"""A module docstring
over two lines."""

# a comment line


def clamp(x):
    """A function docstring."""
    "a string expression after the docstring is code"
    return max(
        x,
        1,
    )
'''


def test_code_lines_skip_docstrings_comments_and_blanks_but_count_every_line_of_a_call():
    # code: ``def``, the second string, and the four lines of the call;
    # prose: the two docstrings' three lines and the comment line
    assert src_lines.line_counts(_SOURCE) == (6, 4)


def test_a_trailing_comment_leaves_a_code_line_and_a_blank_line_is_neither():
    assert src_lines.line_counts("x = 1  # one\n\n# two\n") == (1, 1)


def _report(capsys, *dirs) -> dict[str, list[str]]:
    """The report of ``src_lines.main`` on ``dirs``, its fields by name."""
    assert src_lines.main([str(d) for d in dirs]) == 0
    return {line.split()[0]: line.split()[1:] for line in capsys.readouterr().out.splitlines()}


def test_a_package_against_itself_changes_by_zero_and_one_more_code_line_by_one(
    capsys, tmp_path
):
    package = _PATH.parent.parent / "src" / "ltfsm"
    same = _report(capsys, package, package)
    assert "total" in same and "process.py" in same
    assert all(fields[2:] == ["+0", "+0"] for fields in same.values())
    for path in package.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    with open(tmp_path / "fbm.py", "a") as fh:
        fh.write("\n# a comment and one code line\nEXTRA = 1\n")
    grown = _report(capsys, tmp_path, package)
    changed = {name: fields for name, fields in grown.items() if fields[2:] != ["+0", "+0"]}
    # one more code line and one more prose line, the comment
    assert changed == {name: [str(int(n) + 1) for n in same[name][:2]] + ["+1", "+1"]
                       for name in ("fbm.py", "total")}


def test_the_pair_scan_finds_a_pair_repeated_across_modules_up_to_spacing_and_comments(
    tmp_path, capsys
):
    rule = "def f(x):\n    if x < 0:\n        raise ValueError('x must be >= 0')\n"
    (tmp_path / "a.py").write_text('"""Doc."""\n\n' + rule)
    (tmp_path / "b.py").write_text(rule.replace("x < 0:", "x<0:  # rule") + "\ny = 1\n")
    pairs = src_lines.repeated_pairs(tmp_path)
    assert pairs == {
        ("def f ( x ) :", "if x < 0 :"): ["a.py:3", "b.py:1"],
        ("if x < 0 :", "raise ValueError ( 'x must be >= 0' )"): ["a.py:4", "b.py:2"],
    }
    assert src_lines.main(["--pairs", str(tmp_path)]) == 0
    assert "2x  if x < 0 :\n    raise ValueError ( 'x must be >= 0' )\n    at a.py:4 b.py:2\n" in (
        capsys.readouterr().out)


def test_no_rule_is_stated_twice_in_the_package():
    # a repeated pair of consecutive code lines that holds a ``raise`` is one
    # refusal written in two places; state it once and call it from both
    package = _PATH.parent.parent / "src" / "ltfsm"
    restated = [(pair, places) for pair, places in src_lines.repeated_pairs(package).items()
                if any("raise" in line.split() for line in pair)]
    assert restated == []
