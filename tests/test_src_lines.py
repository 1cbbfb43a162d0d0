"""The code-line count of ``tools/src_lines.py``, which reports the line
delta of ``src/`` for each change."""

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
    # ``def``, the second string, and the four lines of the call
    assert src_lines.code_lines(_SOURCE) == 6
