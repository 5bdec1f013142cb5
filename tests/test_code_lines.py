"""The code-line rule of tools/code_lines.py on a small synthetic module."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# each line that counts ends in "# +"; a comment on a code line is still
# code, and the markers are such comments
SOURCE = '''"""Module docstring,
over two lines."""

import os  # +

# a comment-only line


class Thing:  # +
    """Class docstring."""

    size = 3  # +

    def method(self, x):  # +
        """Function docstring
        over three
        lines."""
        # another comment
        total = (  # +
            x  # +
            + self.size  # +
        )  # +
        return total  # +


def helper():  # +
    text = """a string literal,  # +
    not a docstring"""  # +
    "nor this, after a statement"  # +
    return text  # +
'''


def test_counts_code_lines_only():
    expected = sum(line.endswith("# +") for line in SOURCE.splitlines())
    assert expected == 14
    assert code_lines.code_lines(SOURCE) == expected


def test_main_prints_each_module_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["14", "1", "15"]
    assert lines[-1].split()[1] == "total"
