"""Matroid partition: augmenting-path solver vs exhaustive assignment search."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from matrex import (
    Arm,
    DeficiencyCertificate,
    GraphicMatroid,
    Partition,
    PartitionProblem,
    UniformMatroid,
    ValidationError,
    matroid_partition,
    verify_partition,
)

from helpers import K4_EDGES, is_forest, partition_exists_exhaustive, random_problem


def two_arm_uniform(n, rank):
    m = UniformMatroid(n, rank)
    return PartitionProblem.from_restrictions(m, [m.ground_set(), m.ground_set()])


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
        problem = PartitionProblem.from_restrictions(k4, [k4.ground_set()] * 2)
        result = matroid_partition(problem)
        assert isinstance(result, Partition)
        assert verify_partition(problem, result)
        for part in result.parts:
            assert is_forest(sorted(part), k4.edges, 4)
            assert len(part) == 3

    def test_element_outside_every_arm(self):
        # element 1 is allowed nowhere: the certificate is the singleton {1}
        m = UniformMatroid(2, 2)
        problem = PartitionProblem({0, 1}, [Arm({0}, m.restrict({0}))])
        result = matroid_partition(problem)
        assert isinstance(result, DeficiencyCertificate)
        assert result.witness == frozenset({1})
        assert result.rank_sum == 0
        assert result.size == 1


class TestVerifyPartition:
    def test_accepts_valid(self):
        problem = two_arm_uniform(2, 1)
        assert verify_partition(problem, Partition((frozenset({0}), frozenset({1}))))

    def test_rejects_overlap(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        problem = PartitionProblem.from_restrictions(k4, [k4.ground_set()] * 2)
        bad = Partition((frozenset({0, 1}), frozenset({1, 2})))
        assert not verify_partition(problem, bad)

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
            {0, 1}, [Arm({0}, m.restrict({0})), Arm({0, 1}, m.restrict({0, 1}))]
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


class TestValidation:
    def test_no_arms_rejected(self):
        with pytest.raises(ValidationError):
            PartitionProblem({0}, [])

    def test_arm_outside_universe_rejected(self):
        m = UniformMatroid(3, 1)
        with pytest.raises(ValidationError):
            PartitionProblem({0, 1}, [Arm({0, 2}, m.restrict({0, 2}))])

    def test_arm_ground_size_mismatch(self):
        with pytest.raises(ValidationError):
            Arm({0, 1}, UniformMatroid(3, 1))

    def test_arm_rejects_id_outside_allowed(self):
        # two stacked restrictions: the arm relabels straight onto K_4
        k4 = GraphicMatroid(4, K4_EDGES)
        arm = Arm({1, 3, 4}, k4.restrict({1, 3, 4}).restrict({0, 1, 2}))
        assert arm.is_independent({1, 4}) and arm.rank({1, 3, 4}) == 3
        for query in (arm.is_independent, arm.rank):
            for bad in ({0}, {1, 2}, {6}):
                with pytest.raises(ValidationError, match="outside the arm's allowed set"):
                    query(bad)


_SRC = str(Path(__file__).resolve().parent.parent / "src")

_FAILED_VERIFICATION = """
import matrex.union as union
from matrex import InternalVerificationError, UniformMatroid
union.verify_partition = lambda problem, partition: False
m = UniformMatroid(2, 1)
problem = union.PartitionProblem.from_restrictions(m, [m.ground_set()] * 2)
print("debug", __debug__)
try:
    union.matroid_partition(problem)
except InternalVerificationError as exc:
    print("raised", exc)
"""


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
