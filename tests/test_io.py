"""File formats: strict parsing, canonical emission, round-trips."""

import itertools
import sys
import tracemalloc

import pytest

from matrex import core
from matrex import (
    BasisMatroid,
    FormatError,
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
    ValidationError,
)
from matrex.io import (
    bases_from_json,
    dumps,
    element_array,
    loads,
    matroid_from_json,
    matroid_to_json,
    problem_from_json,
)

from helpers import K4_EDGES


UNIFORM = {"type": "uniform", "n": 6, "rank": 2}
GRAPHIC = {"type": "graphic", "vertices": 4, "edges": [list(e) for e in K4_EDGES]}
LINEAR = {"type": "linear", "prime": 2, "rows": 2, "columns": [[1, 0], [0, 1], [1, 1]]}
BASES = {"type": "bases", "n": 4, "bases": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]}


class TestMatroidFormat:
    @pytest.mark.parametrize("obj", [UNIFORM, GRAPHIC, LINEAR, BASES], ids=lambda o: o["type"])
    def test_round_trip(self, obj):
        assert matroid_to_json(matroid_from_json(obj)) == obj

    def test_types_constructed(self):
        assert isinstance(matroid_from_json(UNIFORM), UniformMatroid)
        assert isinstance(matroid_from_json(GRAPHIC), GraphicMatroid)
        assert isinstance(matroid_from_json(LINEAR), LinearMatroid)
        assert isinstance(matroid_from_json(BASES), BasisMatroid)

    def test_unknown_type_rejected(self):
        with pytest.raises(FormatError, match="unknown matroid type"):
            matroid_from_json({"type": "transversal", "n": 3})
        with pytest.raises(FormatError, match="unknown matroid type"):
            matroid_from_json({"type": ["uniform"], "n": 3, "rank": 1})

    def test_unknown_field_rejected(self):
        with pytest.raises(FormatError, match="unknown field"):
            matroid_from_json({"type": "uniform", "n": 6, "rank": 2, "color": "red"})

    def test_missing_field_rejected(self):
        with pytest.raises(FormatError, match="missing field"):
            matroid_from_json({"type": "uniform", "n": 6})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(FormatError):
            matroid_from_json({"type": "uniform", "n": True, "rank": 0})

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(FormatError):
            matroid_from_json({"type": "graphic", "vertices": 3, "edges": [[0, 1, 2]]})

    def test_semantic_errors_are_validation_errors(self):
        with pytest.raises(ValidationError):
            matroid_from_json({"type": "uniform", "n": 2, "rank": 5})
        with pytest.raises(ValidationError):
            matroid_from_json({"type": "linear", "prime": 4, "rows": 2, "columns": []})
        with pytest.raises(ValidationError, match="exchange axiom"):
            matroid_from_json({"type": "bases", "n": 4, "bases": [[0, 1], [2, 3]]})

    def test_restriction_has_no_format(self):
        with pytest.raises(FormatError):
            matroid_to_json(core.Restriction(UniformMatroid(4, 2), {0, 1}))


def test_a_bases_file_keeps_only_its_masks():
    # 256 bases of rank 1,500 (the family of tests/test_cli.py's 7 MiB file,
    # with a smaller free part): the matroid holds one mask per basis and
    # one weight per element, under 1 MiB here, not a set per basis, which
    # takes tens of MiB.
    free = list(range(1492))
    family = [free + [1492 + 2 * i + pick for i, pick in enumerate(picks)]
              for picks in itertools.product((0, 1), repeat=8)]
    obj = {"type": "bases", "n": 1508, "bases": family}
    tracemalloc.start()
    try:
        matroid = matroid_from_json(obj)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert repr(matroid) == "BasisMatroid(n=1508, bases=256)"
    assert retained < 2 * 2**20
    # ``bases`` decodes each mask in one pass over its binary digits:
    # a few calls per basis, where a decode bit by bit makes two per
    # element, about 768,000 here.
    calls = 0

    def counting(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    profile = sys.getprofile()
    sys.setprofile(counting)
    try:
        bases = matroid.bases
    finally:
        sys.setprofile(profile)
    assert calls < 16 * len(family)
    assert [sorted(b) for b in bases] == family  # the product order is lexicographic


class TestElementArrays:
    def test_ascending_enforced(self):
        with pytest.raises(FormatError, match="ascending"):
            element_array([2, 1], "test")
        with pytest.raises(FormatError, match="ascending"):
            element_array([1, 1], "test")

    def test_only_integers(self):
        with pytest.raises(FormatError):
            element_array([0, "x"], "test")
        with pytest.raises(FormatError):
            element_array([0, True], "test")

    def test_parses(self):
        assert element_array([0, 3, 5], "test") == frozenset({0, 3, 5})
        assert element_array([], "test") == frozenset()

    @pytest.mark.parametrize("values, message", [
        ([0, 2, True], "test must contain only integers, got True"),
        ([0, 1.0], "test must contain only integers, got 1.0"),
        ([0, "1"], "test must contain only integers, got '1'"),
        ([3, 1, "x"], "test must be strictly ascending"),  # the first bad item wins
        (["x", 3, 1], "test must contain only integers, got 'x'"),
        ([0, 4, 4], "test must be strictly ascending"),
        ((0, 1), "test must be an array, got tuple"),
        (5, "test must be an array, got int"),
    ])
    def test_names_the_first_bad_item(self, values, message):
        with pytest.raises(FormatError) as info:
            element_array(values, "test")
        assert str(info.value) == message

    def test_int_subclasses_take_the_checked_loop(self):
        class Id(int):
            pass

        assert element_array([Id(1), Id(4)], "test") == frozenset({1, 4})
        with pytest.raises(FormatError, match="ascending"):
            element_array([Id(4), Id(1)], "test")


class TestBasesFile:
    def test_with_a1(self):
        bases, a1 = bases_from_json({"bases": [[0, 1], [2, 3]], "a1": [0]})
        assert bases == [frozenset({0, 1}), frozenset({2, 3})]
        assert a1 == frozenset({0})

    def test_without_a1(self):
        _, a1 = bases_from_json({"bases": [[0, 1]]})
        assert a1 is None

    def test_unknown_field_rejected(self):
        with pytest.raises(FormatError):
            bases_from_json({"bases": [[0]], "seed": [0]})

    def test_empty_rejected(self):
        with pytest.raises(FormatError):
            bases_from_json({"bases": []})


class TestProblemFile:
    def test_parses_and_solves(self):
        obj = {
            "universe": 2,
            "arms": [
                {"matroid": {"type": "uniform", "n": 2, "rank": 1}, "allowed": [0, 1]},
                {"matroid": {"type": "uniform", "n": 2, "rank": 1}, "allowed": [0, 1]},
            ],
        }
        problem = problem_from_json(obj)
        assert problem.k == 2
        assert problem.universe == frozenset({0, 1})

    def test_ground_size_mismatch_rejected(self):
        obj = {
            "universe": 3,
            "arms": [{"matroid": {"type": "uniform", "n": 2, "rank": 1}, "allowed": [0]}],
        }
        with pytest.raises(FormatError, match="universe"):
            problem_from_json(obj)

    def test_empty_arms_rejected(self):
        with pytest.raises(FormatError):
            problem_from_json({"universe": 2, "arms": []})


class TestDumps:
    def test_deterministic_and_newline_terminated(self):
        obj = {"b": [3, 1], "a": {"y": 1, "x": 2}}
        text = dumps(obj)
        assert text == '{"a":{"x":2,"y":1},"b":[3,1]}\n'
        assert dumps(loads(text)) == text

    def test_loads_reports_position(self):
        with pytest.raises(FormatError, match="line 1 column 9"):
            loads('{"type":')

    def test_deep_nesting_is_a_format_error(self):
        with pytest.raises(FormatError, match="unreadable JSON: maximum recursion depth"):
            loads("[" * 100_000)

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="integer string conversion is unlimited")
    def test_oversized_integer_is_a_format_error(self):
        digits = sys.get_int_max_str_digits() + 1
        with pytest.raises(FormatError, match="unreadable JSON: Exceeds the limit"):
            loads('{"type":"uniform","n":' + "1" * digits + ',"rank":1}')
