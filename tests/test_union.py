"""Matroid partition: augmenting-path solver vs exhaustive assignment search."""

import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrex import core, union
from matrex import (
    Arm,
    DeficiencyCertificate,
    GraphicMatroid,
    InternalVerificationError,
    LinearMatroid,
    Partition,
    PartitionProblem,
    UniformMatroid,
    ValidationError,
    matroid_partition,
    verify_partition,
)

from helpers import (
    K4_EDGES,
    OracleOnly,
    check_every_augmentation,
    is_forest,
    partition_exists_exhaustive,
    random_problem,
)

#: sha256 of the solver's outputs over random_problem seeds 0-119 (27
#: partitions, 93 certificates), one line per seed
GOLDEN_PARTITION_DIGEST = "d366d0836e4909187fa80e19ee934732d2302c765397c80d3d64ee2a6256ee45"


def two_arm_uniform(n, rank):
    m = UniformMatroid(n, rank)
    return PartitionProblem(m.ground_set(), [Arm(m.ground_set(), m) for _ in range(2)])


class TestExamples:
    def test_two_rank_one_arms_split(self):
        result = matroid_partition(two_arm_uniform(2, 1))
        assert isinstance(result, Partition)
        assert result.parts == (frozenset({0}), frozenset({1}))

    def test_pigeonhole_certificate(self):
        result = matroid_partition(two_arm_uniform(3, 1))
        assert isinstance(result, DeficiencyCertificate)
        assert result.witness == frozenset({0, 1, 2})
        assert result.rank_sum == 2
        assert result.size == 3

    def test_k4_two_spanning_trees(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        problem = PartitionProblem(k4.ground_set(), [Arm(k4.ground_set(), k4) for _ in range(2)])
        result = matroid_partition(problem)
        assert isinstance(result, Partition)
        assert verify_partition(problem, result)
        for part in result.parts:
            assert is_forest(sorted(part), k4.edges, 4)
            assert len(part) == 3

    def test_element_outside_every_arm(self):
        # element 1 is allowed nowhere: the certificate is the singleton {1}
        m = UniformMatroid(2, 2)
        problem = PartitionProblem({0, 1}, [Arm({0}, OracleOnly(m))])
        result = matroid_partition(problem)
        assert isinstance(result, DeficiencyCertificate)
        assert result.witness == frozenset({1})
        assert result.rank_sum == 0
        assert result.size == 1

    def test_swap_through_the_default_prepared_part(self, monkeypatch):
        # Element 1 fits only arm 0, which holds 0, so 0 moves on to arm 1:
        # parts of a matroid known only by its oracle answer every circuit
        # and take every move, each add after its own takes().
        calls = []
        for name in ("takes", "circuit", "add", "remove"):
            def spy(self, x, name=name, method=getattr(core.PreparedPart, name)):
                calls.append((name, x))
                return method(self, x)
            monkeypatch.setattr(core.PreparedPart, name, spy)
        m = OracleOnly(UniformMatroid(2, 1))
        oracle = m._indep
        queries = []
        m._indep = lambda s: queries.append(s) or oracle(s)
        result = matroid_partition(PartitionProblem({0, 1}, [Arm({0, 1}, m), Arm({0}, m)]))
        assert result == Partition((frozenset({1}), frozenset({0})))
        # An insertion asks takes() first; circuits are built once a search
        # starts, for the source, which takes() just refused, and then for
        # each expanded node that an arm refuses.  Node 0's takes() on arm 1
        # is a sink arc.  Each add asks takes() of its element again, so
        # that it refuses one that would make the part dependent.
        assert calls == [("takes", 0), ("add", 0), ("takes", 0), ("takes", 1), ("circuit", 1),
                         ("takes", 0), ("remove", 0), ("add", 0), ("takes", 0),
                         ("add", 1), ("takes", 1)]
        # The solve asks {0}, {0, 1} (refused), {1} (1 swaps with 0) and {0},
        # and each of its three adds one query more: {0}, {0} and {1}.  A
        # remove asks none.  The check of the result asks {1} and {0}.
        assert queries == [{0}, {0}, {0, 1}, {1}, {0}, {0}, {1}, {1}, {0}]

    def test_a_path_moves_each_node_as_it_walks_back(self, monkeypatch):
        # Element 2 fits only arm 0, which holds 0; 0 moves on to arm 1,
        # which holds 1, and 1 to arm 2.  Applying that path walks back
        # from 1: each node leaves its arm and joins its new one before the
        # walk reaches the node behind it.
        calls = []
        for name in ("add", "remove"):
            def spy(self, x, name=name, method=getattr(core._UniformPart, name)):
                calls.append((name, x))
                return method(self, x)
            monkeypatch.setattr(core._UniformPart, name, spy)
        m = UniformMatroid(3, 1)
        result = matroid_partition(
            PartitionProblem({0, 1, 2}, [Arm({0, 2}, m), Arm({0, 1}, m), Arm({1}, m)]))
        assert result == Partition((frozenset({2}), frozenset({0}), frozenset({1})))
        assert calls == [("add", 0), ("add", 1),
                         ("remove", 1), ("add", 1), ("remove", 0), ("add", 0), ("add", 2)]

    def test_a_universe_of_large_ids_costs_its_size(self):
        # The path above, on ids near 10**9: the solve keys its state by
        # the ids it is given and maps nothing to 0..N-1, so its memory is
        # that of three elements.
        a, b, c = 10**9 - 3, 10**9 - 2, 10**9 - 1
        m = UniformMatroid(10**9, 1)
        problem = PartitionProblem({a, b, c}, [Arm({a, c}, m), Arm({a, b}, m), Arm({b}, m)])
        tracemalloc.start()
        try:
            result = matroid_partition(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == Partition((frozenset({c}), frozenset({a}), frozenset({b})))
        assert peak < 64 * 2**10


class TestVerifyPartition:
    def test_accepts_valid(self):
        problem = two_arm_uniform(2, 1)
        assert verify_partition(problem, Partition((frozenset({0}), frozenset({1}))))

    def test_rejects_overlap(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        problem = PartitionProblem(k4.ground_set(), [Arm(k4.ground_set(), k4) for _ in range(2)])
        bad = Partition((frozenset({0, 1}), frozenset({1, 2})))
        assert not verify_partition(problem, bad)

    def test_rejects_overlap_of_independent_parts_that_cover(self):
        # only disjointness fails: each part is independent, and together
        # they cover the universe
        problem = two_arm_uniform(3, 2)
        assert not verify_partition(problem, Partition((frozenset({0, 1}), frozenset({1, 2}))))

    def test_rejects_partial_cover(self):
        problem = two_arm_uniform(4, 2)
        bad = Partition((frozenset({0}), frozenset({1})))
        assert not verify_partition(problem, bad)

    def test_rejects_dependent_part(self):
        problem = two_arm_uniform(4, 1)
        bad = Partition((frozenset({0, 1}), frozenset({2, 3})))
        assert not verify_partition(problem, bad)

    def test_rejects_wrong_arity(self):
        problem = two_arm_uniform(2, 1)
        assert not verify_partition(problem, Partition((frozenset({0, 1}),)))

    def test_rejects_disallowed_element(self):
        m = UniformMatroid(2, 2)
        problem = PartitionProblem(
            {0, 1}, [Arm({0}, OracleOnly(m)), Arm({0, 1}, OracleOnly(m))]
        )
        assert not verify_partition(problem, Partition((frozenset({1}), frozenset({0}))))


class TestAgainstExhaustiveSearch:
    @pytest.mark.parametrize("seed", range(120))
    def test_feasibility_agrees(self, seed):
        problem = random_problem(seed)
        outcome = matroid_partition(problem)
        feasible = partition_exists_exhaustive(problem)
        if isinstance(outcome, Partition):
            assert feasible
            assert verify_partition(problem, outcome)
        else:
            assert not feasible
            # re-verify the certificate by direct rank queries
            terms = [arm.rank(outcome.witness & arm.allowed) for arm in problem.arms]
            assert sum(terms) == outcome.rank_sum
            assert outcome.rank_sum < outcome.size
            assert outcome.witness <= problem.universe

    def test_determinism(self):
        for seed in range(25):
            first = matroid_partition(random_problem(seed))
            second = matroid_partition(random_problem(seed))
            assert type(first) is type(second)
            if isinstance(first, Partition):
                assert first.parts == second.parts
            else:
                assert first == second

    def test_outputs_match_golden_digest(self):
        # pins the tie-break order: first-discovered node, ascending arm,
        # ascending element id
        digest = hashlib.sha256()
        for seed in range(120):
            out = matroid_partition(random_problem(seed))
            if isinstance(out, DeficiencyCertificate):
                line = f"{seed} C {sorted(out.witness)} {out.rank_sum} {out.size} {list(out.terms)}"
            else:
                line = f"{seed} P {[sorted(p) for p in out.parts]}"
            digest.update(line.encode() + b"\n")
        assert digest.hexdigest() == GOLDEN_PARTITION_DIGEST


class TestValidation:
    def test_no_arms_rejected(self):
        with pytest.raises(ValidationError):
            PartitionProblem({0}, [])

    @pytest.mark.parametrize("universe, arms, message", [
        (5, [], "universe must be a set of element ids, got 5"),
        ({0}, 5, "arms must be a sequence of Arm objects, got 5"),
    ])
    def test_non_iterable_arguments_rejected(self, universe, arms, message):
        with pytest.raises(ValidationError) as info:
            PartitionProblem(universe, arms)
        assert str(info.value) == message

    def test_arm_that_is_not_an_arm_rejected(self):
        with pytest.raises(ValidationError) as info:
            PartitionProblem(range(3), [1])
        assert str(info.value) == "arm 0 must be an Arm, got 1"

    @pytest.mark.parametrize("bad", [5, None, [0, 1]], ids=["int", "none", "list"])
    def test_arm_matroid_that_is_not_a_matroid_rejected(self, bad):
        with pytest.raises(ValidationError) as info:
            Arm({0}, bad)
        assert str(info.value) == f"an arm's matroid must be a Matroid, got {bad!r}"

    @pytest.mark.parametrize("bad", ["a", None, 1.5], ids=["str", "none", "float"])
    def test_non_integer_universe_element_rejected(self, bad):
        arm = Arm({0}, UniformMatroid(2, 1))
        with pytest.raises(ValidationError) as info:
            PartitionProblem([0, bad], [arm])
        assert str(info.value) == f"universe element must be an integer, got {bad!r}"

    def test_arm_outside_universe_rejected(self):
        m = UniformMatroid(3, 1)
        with pytest.raises(ValidationError, match="outside the universe"):
            PartitionProblem({0, 1}, [Arm({0, 2}, m)])

    def test_arm_ground_size_mismatch(self):
        # the allowed set must lie inside the arm matroid's ground set
        with pytest.raises(ValidationError, match="out of range"):
            Arm({0, 3}, UniformMatroid(3, 1))

    def test_arm_rejects_id_outside_allowed(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        arm = Arm({1, 3, 4}, k4)
        assert arm.is_independent({1, 4}) and arm.rank({1, 3, 4}) == 3
        for query in (arm.is_independent, arm.rank):
            for bad in ({0}, {1, 2}, {6}):
                with pytest.raises(ValidationError, match="outside the arm's allowed set"):
                    query(bad)

    def test_arm_rejects_a_non_iterable_subset(self):
        arm = Arm({0}, UniformMatroid(3, 1))
        for query in (arm.is_independent, arm.rank):
            with pytest.raises(ValidationError) as info:
                query(5)
            assert str(info.value) == "expected a set of element ids, got 5"

    def test_arm_rejects_non_integer_ids(self):
        # A hashable non-integer is named as one, not as outside the
        # allowed set, even when an integer equal to it is allowed.
        arm = Arm({0, 1}, UniformMatroid(4, 2))
        for query in (arm.is_independent, arm.rank):
            for subset, item in (({1.0}, 1.0), ("01", "0"), (["a"], "a"), ([1.5], 1.5),
                                 ([None], None)):
                with pytest.raises(ValidationError) as info:
                    query(subset)
                assert str(info.value) == f"expected an integer, got {item!r}"

    def test_arm_rejects_an_unhashable_id(self):
        arm = Arm({0}, UniformMatroid(3, 1))
        for query in (arm.is_independent, arm.rank):
            with pytest.raises(ValidationError) as info:
                query([[0]])
            assert str(info.value) == "expected an integer, got [0]"
            with pytest.raises(ValidationError) as info:
                query([0, 9])  # outside the allowed set before outside the ground set
            assert str(info.value) == "element 9 is outside the arm's allowed set"

    def test_restricted_arm_matroid_is_prefix_only(self):
        # The arm matroid lives on the universe.  The graph on C's edges alone
        # has ground set {0..|C|-1}, so it only fits an arm whose allowed set
        # is that prefix, where it answers exactly as the whole of K_4.
        k4 = GraphicMatroid(4, K4_EDGES)
        prefix = {0, 1, 2, 3}
        old, new = Arm(prefix, GraphicMatroid(4, K4_EDGES[:4])), Arm(prefix, k4)
        for size in range(5):
            for subset in itertools.combinations(sorted(prefix), size):
                assert old.is_independent(subset) == new.is_independent(subset)
                assert old.rank(subset) == new.rank(subset)
        for allowed in ({1, 3}, {0, 2}, {2, 3, 4}):
            with pytest.raises(ValidationError, match="out of range"):
                Arm(allowed, GraphicMatroid(4, [K4_EDGES[i] for i in sorted(allowed)]))


@st.composite
def arm_cases(draw):
    """A uniform, graphic or linear matroid, an allowed set and a subset of it."""
    n = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("uniform", "graphic", "linear")))
    if kind == "uniform":
        matroid = UniformMatroid(n, draw(st.integers(0, n)))
    elif kind == "graphic":
        vertices = draw(st.integers(1, 5))
        vertex = st.integers(0, vertices - 1)
        edges = draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=n))
        matroid = GraphicMatroid(vertices, edges)
    else:
        prime = draw(st.sampled_from((2, 3)))
        rows = draw(st.integers(1, 3))
        column = st.lists(st.integers(0, prime - 1), min_size=rows, max_size=rows)
        matroid = LinearMatroid(prime, rows, draw(st.lists(column, min_size=n, max_size=n)))
    allowed = draw(st.frozensets(st.integers(0, n - 1))) if n else frozenset()
    subset = draw(st.frozensets(st.sampled_from(sorted(allowed)))) if allowed else frozenset()
    return matroid, allowed, subset


@settings(max_examples=300, deadline=None)
@given(arm_cases())
def test_arm_matches_restriction(case):
    # reference path: the dense restriction to the allowed set, in local ids
    matroid, allowed, subset = case
    arm = Arm(allowed, matroid)
    restricted = core.Restriction(matroid, allowed)
    local = frozenset(map(restricted.elements.index, subset))
    assert arm.is_independent(subset) == restricted.is_independent(local)
    assert arm.rank(subset) == restricted.rank(local)


def test_every_augmentation_keeps_parts_independent(monkeypatch):
    augmented = check_every_augmentation(monkeypatch)
    inserted = 0
    for seed in range(120):
        problem = random_problem(seed)
        if isinstance(matroid_partition(problem), Partition):
            inserted += len(problem.universe)
    assert len(augmented) >= inserted > 0


_SRC = str(Path(__file__).resolve().parent.parent / "src")

_FAILED_VERIFICATION = """
import matrex.union as union
from matrex import InternalVerificationError, UniformMatroid
union.verify_partition = lambda problem, partition: False
m = UniformMatroid(2, 1)
problem = union.PartitionProblem(m.ground_set(), [union.Arm(m.ground_set(), m)] * 2)
print("debug", __debug__)
try:
    union.matroid_partition(problem)
except InternalVerificationError as exc:
    print("raised", exc)
"""


def test_witness_whose_rank_sum_equals_its_size_raises(monkeypatch):
    # a search that stops short of a sink it could reach: {0} has rank 1
    monkeypatch.setattr(union, "_augment", lambda *args: {0})
    m = UniformMatroid(3, 2)
    problem = PartitionProblem(m.ground_set(), [Arm(m.ground_set(), m)])
    with pytest.raises(InternalVerificationError) as info:
        matroid_partition(problem)
    assert str(info.value) == "deficiency witness failed re-verification: rank sum 1 >= size 1"


def test_final_verification_survives_optimize_flag():
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FAILED_VERIFICATION],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "debug False", "raised the computed partition failed re-verification"]
