"""The source line counter in tools/src_lines.py."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

FIXTURE = '''\
"""Module docstring,

over three lines."""

# a comment
import os


class Thing:
    """One line."""

    def method(self):
        """Two
        lines."""
        text = """not a docstring,
        though a string"""
        return text  # a trailing comment is code
'''


def test_the_four_parts_sum_to_the_line_total(tmp_path):
    (tmp_path / "one.py").write_text(FIXTURE)
    (tmp_path / "two.py").write_text("x = 1\n\n# end\n")
    (tmp_path / "skipped.txt").write_text("not python\n")
    counts = src_lines.count_directory(tmp_path)
    assert counts == {"lines": 20, "docstring": 6, "comment": 2,
                      "blank": 5, "code": 7}
    assert counts["lines"] == sum(counts[part] for part in (
        "docstring", "comment", "blank", "code"))


def test_main_prints_one_json_object(tmp_path, capsys):
    (tmp_path / "two.py").write_text("x = 1\n\n# end\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "lines": 3, "docstring": 0, "comment": 1, "blank": 1, "code": 1}
