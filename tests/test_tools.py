"""The repository tools stay in step with the source they read."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_mutant_catalogue_matches_the_source():
    # Every catalogued mutant's old text occurs exactly once, and every
    # entry names a test that exists, so a stale entry fails here and not
    # only in the full mutation run.
    mutants = load_tool("mutants")
    assert mutants.check_catalogue(mutants.MUTANTS + mutants.EQUIVALENT) == []
    assert not mutants.names_a_test("")
    assert not mutants.names_a_test("tests/test_tools.py::no_such_test")


def test_joins_crossover_times_both_union_finds(capsys):
    # The tool checks each of its two union-finds against the matroid's own
    # answer before timing it, so it fails here if it drifts from _joins.
    crossover = load_tool("joins_crossover")
    assert crossover.main(["40"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[-1] for row in rows] == ["list)"] * 5 + ["dict)"] * 2


def test_sloc_counts_code_lines_only():
    # Module, class and function docstrings, comments and blank lines do
    # not count; every physical line of a multi-line statement does, a
    # string literal that is not a docstring included.
    sloc = load_tool("sloc")
    source = (
        '"""A module docstring,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment\n"
        'TEXT = """one\n'
        'two"""\n'
        "\n"
        "\n"
        "class A:\n"
        '    """A class docstring."""\n'
        "\n"
        "    def f(self, x):\n"
        '        """A function\n'
        '        docstring."""\n'
        "        # another comment\n"
        "        return (x +\n"
        "                1)\n"
    )
    assert sloc.code_lines(source) == 7  # import, TEXT (2), class, def, return (2)
    assert sloc.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
