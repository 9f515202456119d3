"""scripts/loc.py: the package size figures quoted in ROADMAP.md."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "loc.py"
_spec = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""Module docstring,
over two lines."""
# a comment line

import os  # a trailing comment counts as code


class C:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        three lines."""
        s = """a multi-line
string that is not a docstring"""
        return (x +
                1)
'''


def test_count_source_known_counts():
    physical, code = loc.count_source(SOURCE)
    assert physical == 18
    # import, class, def, the 2-line string assignment, the 2-line return
    assert code == 7


def test_count_package(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.count_package(tmp_path) == (2, 20, 8)
