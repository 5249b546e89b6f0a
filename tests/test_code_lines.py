"""The code-line counter of tests/code_lines.py: blank, comment and
docstring lines do not count, every line of a code statement does."""

from code_lines import code_lines, main

SNIPPET = '''\
"""Module docstring,
over two lines."""

import math  # a trailing comment leaves a code line

# a comment line


class Box:
    """Class docstring."""

    size = 2


def area(box):
    """Function docstring,

    with a blank line inside.
    """
    # the product
    text = """a string that is
    not a docstring"""
    return math.prod((box.size,
                      box.size)), text
'''


def test_counts_only_code_lines():
    # import, class, size, def, the two lines of `text` and of the return
    assert code_lines(SNIPPET) == 8


def test_a_module_of_docstring_and_comments_has_no_code():
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["8", "1", "9"]
    assert lines[-1].split()[1] == "total"
