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
