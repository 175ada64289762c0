"""scripts/loc.py, the code-line counter, on a module of known count.

scripts/loc.py is a script, not part of the package, so it is loaded by path.
"""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

# ten code lines, marked "# code" or inside the one string that is not a
# docstring; the rest are blank, comments or docstrings
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # code


class A:  # code
    """Class docstring."""

    x = 1  # code
    "a string after the first statement is no docstring"  # code

    def f(self):  # code
        """Function
        docstring."""
        # an indented comment

        return """not a docstring,  # code

over four lines
"""


async def g():  # code
    'One-line docstring.'
'''


def test_count_of_the_fixture():
    assert loc.count(FIXTURE) == (10, FIXTURE.count("\n"))
    assert FIXTURE.count("\n") == 26


def test_script_prints_each_file_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["code", "wc", "-l", "file"],
        ["10", "26", str(tmp_path / "a.py")],
        ["1", "3", str(tmp_path / "b.py")],
        ["11", "29", "total"],
    ]
