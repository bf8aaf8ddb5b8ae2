"""Color classes, the rank-sum diagnostic, and the cyclic exchange pipeline."""

import itertools
import os
import random
import re
import subprocess
import sys
from collections.abc import Sized
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrex import (
    ExchangeInstance,
    GraphicMatroid,
    InstanceGenSpec,
    InternalVerificationError,
    LinearMatroid,
    UniformMatroid,
    ValidationError,
    brute_force_cyclic_exchange,
    build_color_classes,
    check_rank_inequality,
    cyclic_exchange,
    multiple_symmetric_exchange,
    random_instance,
    symmetric_exchange_single,
)

from matrex import core, exchange, union

from helpers import K4_EDGES, check_every_augmentation, is_forest, mask_to_set


def uniform_triple():
    m = UniformMatroid(6, 2)
    return ExchangeInstance(
        m, (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})), frozenset({0})
    )


def k4_pair(a1=frozenset({0})):
    k4 = GraphicMatroid(4, K4_EDGES)
    return ExchangeInstance(k4, (frozenset({0, 1, 2}), frozenset({3, 4, 5})), a1)


def slots_of_basis(lift, tag):
    return {j for j, (t, _) in enumerate(lift.slots) if t == tag}


class TestColorClasses:
    def test_three_bases_with_singleton_seed(self):
        classes = build_color_classes(uniform_triple())
        lift = classes.lifted
        # slots: 0->(0,0) 1->(0,1) 2->(1,2) 3->(1,3) 4->(2,4) 5->(2,5)
        assert lift.slots == ((0, 0), (0, 1), (1, 2), (1, 3), (2, 4), (2, 5))
        assert classes.classes[0] == {1, 4, 5}       # B3 slots + (B1 minus seed)
        assert classes.classes[1] == {0, 2, 3}       # seed slots + B2 slots
        assert classes.classes[2] == {2, 3, 4, 5}    # B2 slots + B3 slots
        assert classes.lists == ((1,), (0,), (1, 2), (1, 2), (0, 2), (0, 2))

    def test_two_bases(self):
        classes = build_color_classes(k4_pair())
        lift = classes.lifted
        b1_slots, b2_slots = slots_of_basis(lift, 0), slots_of_basis(lift, 1)
        seed_slot = lift.slots.index((0, 0))
        assert classes.classes[0] == (b1_slots - {seed_slot}) | b2_slots
        assert classes.classes[1] == {seed_slot} | b2_slots
        for s in sorted(b2_slots):
            assert classes.lists[s] == (0, 1)

    def test_empty_seed(self):
        classes = build_color_classes(k4_pair(frozenset()))
        lift = classes.lifted
        assert classes.classes[1] == slots_of_basis(lift, 1)
        for s in sorted(slots_of_basis(lift, 0)):
            assert classes.lists[s] == (0,)

    def test_k1_rejected(self):
        m = UniformMatroid(2, 1)
        inst = ExchangeInstance(m, (frozenset({0}),), frozenset())
        with pytest.raises(ValidationError):
            build_color_classes(inst)

    def test_membership_matches_lists(self):
        classes = build_color_classes(uniform_triple())
        for s, allowed in enumerate(classes.lists):
            for j, cls in enumerate(classes.classes):
                assert (s in cls) == (j in allowed)


class TestRankInequality:
    def test_empty_set(self):
        classes = build_color_classes(uniform_triple())
        outcome = check_rank_inequality(classes, frozenset())
        assert outcome.holds and outcome.size == 0 and outcome.rank_sum == 0

    def test_full_universe_of_disjoint_bases_is_tight(self):
        inst = uniform_triple()  # bases are pairwise disjoint, rank 2, k=3
        classes = build_color_classes(inst)
        outcome = check_rank_inequality(classes, classes.lifted.ground_set())
        assert outcome.holds
        assert outcome.rank_sum == 3 * 2 == outcome.size

    @pytest.mark.parametrize("make", [uniform_triple, k4_pair])
    def test_exhaustive_over_all_slot_sets(self, make):
        classes = build_color_classes(make())
        n = classes.lifted.ground_size
        for mask in range(1 << n):
            outcome = check_rank_inequality(classes, mask_to_set(mask))
            assert outcome.holds
            assert len(outcome.terms) == len(classes.classes)

    def test_sampled_on_a_larger_lift(self):
        # 20 slots is beyond exhaustive range; sample 300 subsets instead
        spec = InstanceGenSpec("graphic", k=5, seed=11, vertices=5, n=9)
        inst = random_instance(spec)
        classes = build_color_classes(inst)
        slots = sorted(classes.lifted.ground_set())
        rng = random.Random(99)
        for _ in range(300):
            subset = frozenset(s for s in slots if rng.getrandbits(1))
            assert check_rank_inequality(classes, subset).holds


class TestCyclicExchange:
    def test_uniform_triple_all_postconditions(self):
        inst = uniform_triple()
        result = cyclic_exchange(inst)
        assert result.parts[0] == inst.seed
        for i in range(3):
            assert result.parts[i] <= inst.bases[i]
            assert len(result.parts[i]) == 1
            shifted = (inst.bases[i] - result.parts[i]) | result.parts[i - 1]
            assert shifted == result.shifted[i]
            assert inst.matroid.is_basis(shifted)

    def test_k4_unique_answer(self):
        result = cyclic_exchange(k4_pair())
        assert result.parts == (frozenset({0}), frozenset({5}))
        k4 = GraphicMatroid(4, K4_EDGES)
        for shifted in result.shifted:
            assert is_forest(sorted(shifted), k4.edges, 4)

    def test_empty_seed_fixes_everything(self):
        inst = k4_pair(frozenset())
        result = cyclic_exchange(inst)
        assert all(p == frozenset() for p in result.parts)
        assert result.shifted == inst.bases

    def test_k1_degenerate(self):
        m = GraphicMatroid(4, K4_EDGES)
        inst = ExchangeInstance(m, (frozenset({0, 1, 2}),), frozenset({1}))
        result = cyclic_exchange(inst)
        assert result.parts == (frozenset({1}),)
        assert result.shifted == (frozenset({0, 1, 2}),)

    def test_full_seed_forces_full_swap(self):
        inst = k4_pair(frozenset({0, 1, 2}))
        result = cyclic_exchange(inst)
        assert result.parts[1] == frozenset({3, 4, 5})
        assert result.shifted[0] == frozenset({3, 4, 5})
        assert result.shifted[1] == frozenset({0, 1, 2})

    def test_repeated_and_overlapping_bases(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        tree = frozenset({0, 1, 2})
        other = frozenset({0, 2, 4})
        for bases in [(tree, tree, tree), (tree, other, tree), (other, tree, other)]:
            inst = ExchangeInstance(k4, bases, frozenset({0}))
            result = cyclic_exchange(inst)
            for i in range(3):
                assert len(result.parts[i]) == 1
                assert k4.is_basis(result.shifted[i])

    def test_partition_projects_onto_shifted_sets(self):
        inst = uniform_triple()
        result = cyclic_exchange(inst)
        lift = build_color_classes(inst).lifted
        for i, d in enumerate(result.partition):
            assert {lift.slots[j][1] for j in d} == result.shifted[i]

    def test_non_basis_input_rejected(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        with pytest.raises(ValidationError, match=r"bases\[1\]"):
            ExchangeInstance(k4, (frozenset({0, 1, 2}), frozenset({0, 1, 3})), frozenset())

    def test_non_iterable_bases_rejected(self):
        with pytest.raises(ValidationError) as info:
            ExchangeInstance(GraphicMatroid(4, K4_EDGES), 5, frozenset())
        assert str(info.value) == "bases must be a sequence of element sets, got 5"

    def test_non_matroid_rejected(self):
        with pytest.raises(ValidationError) as info:
            ExchangeInstance([0, 1], [{0}], frozenset())
        assert str(info.value) == "matroid must be a Matroid, got [0, 1]"

    def test_seed_outside_first_basis_rejected(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        with pytest.raises(ValidationError, match="seed"):
            ExchangeInstance(k4, (frozenset({0, 1, 2}), frozenset({3, 4, 5})), frozenset({3}))


def corrupt_partition(monkeypatch, corrupt):
    """Make ``cyclic_exchange`` read ``corrupt(parts)`` in place of the
    solver's slot parts (passed as a list of sets, one per part)."""
    solve = exchange._partition

    def corrupted(matroids, arms_of):
        parts = corrupt([set(p) for p in solve(matroids, arms_of)])
        return tuple(map(frozenset, parts))

    monkeypatch.setattr(exchange, "_partition", corrupted)


def move(parts, slot, to=None):
    """Take ``slot`` out of its part and, unless ``to`` is None, put it in part ``to``."""
    for p in parts:
        p.discard(slot)
    if to is not None:
        parts[to].add(slot)
    return parts


def repeated_pair():
    m = UniformMatroid(3, 2)
    return ExchangeInstance(m, (frozenset({0, 1}), frozenset({0, 1})), frozenset({1}))


def overlapping_triple():
    m = UniformMatroid(4, 2)
    return ExchangeInstance(
        m, (frozenset({0, 1}), frozenset({0, 1}), frozenset({1, 2})), frozenset({0})
    )


# uniform_triple's slots: 0->(0,0) 1->(0,1) 2->(1,2) 3->(1,3) 4->(2,4) 5->(2,5);
# k4_pair's: slot j copies element j, slots 0-2 of basis 0 and 3-5 of basis 1;
# overlapping_triple's: 0->(0,0) 1->(0,1) 2->(1,0) 3->(1,1) 4->(2,1) 5->(2,2), and
# its only partition is [{1, 5}, {0, 3}, {2, 4}]
CORRUPTIONS = {
    # a non-seed slot of bases[0] joins the seed slot in part 1
    "seed": (uniform_triple, lambda parts: move(parts, 1, 1),
             "part 1 does not meet basis 0 exactly in the seed slots"),
    # a kept slot of bases[0] belongs to no part
    "projection": (uniform_triple, lambda parts: move(parts, 1),
                   "partition part 0 does not project onto shifted set 0"),
    # bases[1]'s kept slot also moves to part 2, so A_2 gets two elements
    "size": (uniform_triple,
             lambda parts: move(parts, next(s for s in parts[1] if s in (2, 3)), 2),
             "exchange set 1 has size 2, expected 1"),
    # A_2 = {3}: right-sized and consistent, but not an exchange
    "is_basis": (k4_pair, lambda parts: [{1, 2, 3}, {0, 4, 5}],
                 r"shifted set 1 \(\[0, 4, 5\]\) is not a basis"),
    # each corruption below passes every check above, is_basis included
    "arity": (uniform_triple, lambda parts: parts + [set()],
              "the partition has 4 parts, expected 3"),
    # the seed slot also joins part 2, where a copy of its element belongs
    "class": (overlapping_triple, lambda parts: [parts[0], parts[1], parts[2] | {0}],
              "partition part 2 holds slot 0 outside its color class"),
    # the slot that moves to part 2 also stays in part 1
    "disjoint": (overlapping_triple, lambda parts: [parts[0], parts[1] | {2}, parts[2]],
                 "slot 2 is in two partition parts"),
}


class TestReadBackChecks:
    def test_a_reached_set_raises(self, monkeypatch):
        # The induced problem is always feasible, so a failed search in the
        # exchange solve is a solver fault, reported with the reached set.
        monkeypatch.setattr(union, "_augment", lambda *args: {0, 1, 2})
        with pytest.raises(InternalVerificationError, match=(
                "always feasible, but a deficiency certificate of size 3 was returned")):
            cyclic_exchange(uniform_triple())

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_corrupted_partition_raises(self, monkeypatch, case):
        make, corrupt, message = CORRUPTIONS[case]
        corrupt_partition(monkeypatch, corrupt)
        with pytest.raises(InternalVerificationError, match=message):
            cyclic_exchange(make())

    @pytest.mark.parametrize("make", [repeated_pair, k4_pair])
    def test_read_back_accepts_exactly_the_verified_partitions(self, monkeypatch, make):
        # Every assignment of the slots to sets of parts, in place of the
        # solver's: the read-back returns iff verify_partition accepts it,
        # and each exchange of the oracle comes from one such partition.
        inst = make()
        classes = build_color_classes(inst)
        lifted = classes.lifted
        problem = union.PartitionProblem(
            lifted.ground_set(), [union.Arm(c, lifted) for c in classes.classes])
        partition = None
        monkeypatch.setattr(exchange, "_partition", lambda matroids, arms_of: partition)
        accepted = 0
        for choice in itertools.product(range(1 << inst.k), repeat=lifted.ground_size):
            partition = tuple(
                frozenset(s for s, parts in enumerate(choice) if parts >> i & 1)
                for i in range(inst.k))
            try:
                cyclic_exchange(inst)
            except InternalVerificationError:
                ok = False
            else:
                ok = True
            assert ok == union.verify_partition(problem, union.Partition(partition)), partition
            accepted += ok
        assert accepted == len(brute_force_cyclic_exchange(inst))

    def test_wrong_tuple_is_not_an_exchange(self):
        assert (frozenset({3}),) not in brute_force_cyclic_exchange(k4_pair())

    def test_checks_survive_optimize_flag(self):
        # every corruption in one -O process, each printing its message
        tests = Path(__file__).resolve().parent
        script = (
            "import pytest, test_exchange as t\n"
            "print('debug', __debug__)\n"
            "for case, (make, corrupt, _) in sorted(t.CORRUPTIONS.items()):\n"
            "    with pytest.MonkeyPatch.context() as patch:\n"
            "        t.corrupt_partition(patch, corrupt)\n"
            "        try:\n"
            "            t.cyclic_exchange(make())\n"
            "        except t.InternalVerificationError as exc:\n"
            "            print(case, 'raised', exc)\n"
            "        else:\n"
            "            print(case, 'returned')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH", "")])
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        debug, *lines = proc.stdout.splitlines()
        assert debug == "debug False"
        assert len(lines) == len(CORRUPTIONS)
        for line, case in zip(lines, sorted(CORRUPTIONS)):
            assert re.fullmatch(f"{case} raised {CORRUPTIONS[case][2]}", line), line


class TestSymmetricExchange:
    def test_k4_multiple(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        a2 = multiple_symmetric_exchange(k4, {0, 1, 2}, {3, 4, 5}, {0})
        assert a2 == frozenset({5})

    def test_full_subset_swap(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        a2 = multiple_symmetric_exchange(k4, {0, 1, 2}, {3, 4, 5}, {0, 1, 2})
        assert a2 == frozenset({3, 4, 5})

    def test_uniform_either_choice_valid(self):
        m = UniformMatroid(4, 2)
        a2 = multiple_symmetric_exchange(m, {0, 1}, {2, 3}, {1})
        assert a2 in (frozenset({2}), frozenset({3}))
        assert m.is_basis(({0, 1} - {1}) | a2)
        assert m.is_basis((frozenset({2, 3}) - a2) | {1})

    def test_single_k4(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        assert symmetric_exchange_single(k4, {0, 1, 2}, {3, 4, 5}, 0) == 5

    def test_single_shared_element(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        assert symmetric_exchange_single(k4, {0, 1, 2}, {0, 2, 3}, 0) == 0

    @pytest.mark.parametrize("basis1, basis2, message", [
        ({0, 1, 2}, {0}, r"bases\[0\] is not a basis of the matroid"),
        ({0, 1}, {0}, r"bases\[1\] is not a basis of the matroid"),
    ])
    def test_single_shared_element_of_non_bases_rejected(self, basis1, basis2, message):
        # A shared element swaps with itself only when both sets are bases.
        with pytest.raises(ValidationError, match=message):
            symmetric_exchange_single(UniformMatroid(4, 2), basis1, basis2, 0)

    def test_single_uniform(self):
        m = UniformMatroid(4, 2)
        e2 = symmetric_exchange_single(m, {0, 1}, {2, 3}, 0)
        assert e2 in (2, 3)

    def test_single_requires_membership(self):
        m = UniformMatroid(4, 2)
        with pytest.raises(ValidationError):
            symmetric_exchange_single(m, {0, 1}, {2, 3}, 3)

    @pytest.mark.parametrize("element, message", [
        ([0], "element must be an integer, got [0]"),
        ("a", "element must be an integer, got 'a'"),
        (1.0, "element must be an integer, got 1.0"),
    ])
    def test_single_rejects_a_non_integer_element(self, element, message):
        with pytest.raises(ValidationError) as info:
            symmetric_exchange_single(UniformMatroid(3, 1), {0}, {1}, element)
        assert str(info.value) == message

    @pytest.mark.parametrize("basis2", [{0, 3, 5}, {3, 4, 5}], ids=["shared", "not-shared"])
    def test_single_checks_the_element_on_both_paths(self, basis2):
        # A float equal to a member is refused whether or not the second
        # basis shares it, and an integer-like element comes back as an int.
        k4 = GraphicMatroid(4, K4_EDGES)
        with pytest.raises(ValidationError) as info:
            symmetric_exchange_single(k4, {0, 1, 2}, basis2, 0.0)
        assert str(info.value) == "element must be an integer, got 0.0"
        result = symmetric_exchange_single(k4, {0, 1, 2}, basis2, False)
        assert type(result) is int
        assert result == symmetric_exchange_single(k4, {0, 1, 2}, basis2, 0)

    @pytest.mark.parametrize("exchange", [multiple_symmetric_exchange, symmetric_exchange_single])
    def test_non_matroid_rejected(self, exchange):
        with pytest.raises(ValidationError) as info:
            exchange(5, {0}, {1}, {0} if exchange is multiple_symmetric_exchange else 0)
        assert str(info.value) == "matroid must be a Matroid, got 5"

    def test_multiple_rejects_a_non_iterable_basis(self):
        with pytest.raises(ValidationError) as info:
            multiple_symmetric_exchange(UniformMatroid(3, 1), 5, {1}, {0})
        assert str(info.value) == "expected a set of element ids, got 5"

    def test_both_symmetric_sets_are_bases_on_corpus(self):
        # k=2 outputs must make both symmetric sets bases
        for seed in range(40):
            spec = InstanceGenSpec("graphic", k=2, seed=seed, vertices=5, n=7)
            inst = random_instance(spec)
            a2 = multiple_symmetric_exchange(inst.matroid, inst.bases[0], inst.bases[1], inst.seed)
            m = inst.matroid
            assert m.is_basis((inst.bases[0] - inst.seed) | a2)
            assert m.is_basis((inst.bases[1] - a2) | inst.seed)


class TestExchangePropertyAtScale:
    """Randomized small instances: the constructive output always satisfies
    the full invariant set, and agrees with the brute-force oracle."""

    @pytest.mark.parametrize("seed", range(60))
    def test_output_is_an_oracle_member(self, seed):
        classes = ["uniform", "graphic", "linear", "bases"]
        params = {
            "uniform": dict(n=6, rank=2),
            "graphic": dict(vertices=4, n=5),
            "linear": dict(prime=2, rows=3, n=6),
            "bases": dict(n=6, rank=3),
        }
        cls = classes[seed % 4]
        k = 2 + seed % 3
        spec = InstanceGenSpec(cls, k=k, seed=seed, **params[cls])
        inst = random_instance(spec)
        if sum(len(b) for b in inst.bases) > 12:
            pytest.skip("oracle gate")
        solutions = brute_force_cyclic_exchange(inst)
        assert solutions, "a valid instance always has at least one solution"
        result = cyclic_exchange(inst)
        assert result.parts[1:] in set(solutions)

    @settings(max_examples=80, deadline=None)
    @given(
        cls=st.sampled_from(("uniform", "graphic", "linear", "bases")),
        k=st.integers(2, 5),
        seed=st.integers(0, 2**32),
    )
    def test_result_invariants_hold_for_arbitrary_specs(self, cls, k, seed):
        params = {
            "uniform": dict(n=7, rank=3),
            "graphic": dict(vertices=5, n=8),
            "linear": dict(prime=3, rows=3, n=7),
            "bases": dict(n=7, rank=3),
        }[cls]
        inst = random_instance(InstanceGenSpec(cls, k=k, seed=seed, **params))
        result = cyclic_exchange(inst)
        assert result.parts[0] == inst.seed
        for i in range(k):
            assert result.parts[i] <= inst.bases[i]
            assert len(result.parts[i]) == len(inst.seed)
            expected = (inst.bases[i] - result.parts[i]) | result.parts[i - 1]
            assert result.shifted[i] == expected
            assert inst.matroid.is_basis(result.shifted[i])

    def test_single_element_cyclic_exchange_on_graphic(self):
        # |A_1| = 1 on graphic matroids: all shifted sets are spanning trees
        count = 0
        for seed in range(120):
            spec = InstanceGenSpec("graphic", k=3, seed=seed, vertices=5, n=8)
            inst = random_instance(spec)
            if not inst.seed:
                continue
            e1 = min(inst.seed)
            single = ExchangeInstance(inst.matroid, inst.bases, frozenset({e1}))
            result = cyclic_exchange(single)
            for i in range(3):
                assert len(result.parts[i]) == 1
                assert is_forest(sorted(result.shifted[i]), inst.matroid.edges, 5)
            count += 1
        assert count >= 40


def seeded_instance(matroid, k, seed):
    """k bases by shuffled greedy completion and a random seed subset of the first."""
    rng = random.Random(seed)
    bases = []
    for _ in range(k):
        order = list(range(matroid.ground_size))
        rng.shuffle(order)
        picked = frozenset()
        for e in order:
            if matroid.is_independent(picked | {e}):
                picked |= {e}
        bases.append(picked)
    a1 = frozenset(e for e in sorted(bases[0]) if rng.getrandbits(1))
    return ExchangeInstance(matroid, tuple(bases), a1)


K6_EDGES = [[u, v] for u in range(6) for v in range(u + 1, 6)]
GF3_COLUMNS = [[1, 0, 1, 2], [0, 0, 2, 0], [1, 2, 0, 2], [0, 0, 0, 1], [1, 0, 0, 0], [2, 1, 0, 2],
               [0, 0, 2, 2], [2, 0, 2, 2], [1, 0, 0, 0], [2, 0, 1, 1], [0, 2, 0, 2], [1, 2, 2, 0]]


def attribute_sizes(matroid):
    """Every attribute of ``matroid``: its length if it has one, else itself."""
    return {key: len(value) if isinstance(value, Sized) else value
            for key, value in vars(matroid).items()}


class TestOracleBoundary:
    """Ids are validated at the public entry points, no matroid keeps
    per-query state, and arms query the lifted matroid without a restriction."""

    def test_wrapper_layers_keep_no_memo(self, monkeypatch):
        created, solved = [], []
        init, partition = core.Matroid.__init__, exchange._partition

        def recording_init(self, ground_size):
            init(self, ground_size)
            created.append(self)

        def recording_partition(matroids, arms_of):
            lifts = set(matroids)
            layers = lifts | {m.inner for m in lifts}
            before = [(m, attribute_sizes(m)) for m in layers]
            result = partition(matroids, arms_of)
            solved.extend((m, sizes, attribute_sizes(m)) for m, sizes in before)
            return result

        monkeypatch.setattr(core.Matroid, "__init__", recording_init)
        monkeypatch.setattr(exchange, "_partition", recording_partition)
        cyclic_exchange(seeded_instance(GraphicMatroid(6, K6_EDGES), 3, seed=1))
        cyclic_exchange(seeded_instance(UniformMatroid(6, 3), 3, seed=1))

        assert not any(isinstance(m, core.Restriction) for m in created)
        assert {type(m) for m, _, _ in solved} == {core.SlotMatroid, GraphicMatroid, UniformMatroid}
        for _, before, after in solved:
            assert after == before

    def test_exchange_solve_builds_no_arm_or_problem(self, monkeypatch):
        # The slot lists go to the solve as they are: nothing re-validates
        # the color classes that build_color_classes made.
        built = []
        for cls in (union.Arm, union.PartitionProblem):
            def spy(self, *args, init=cls.__init__):
                built.append(type(self))
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", spy)
        instance = seeded_instance(GraphicMatroid(6, K6_EDGES), 3, seed=1)
        assert cyclic_exchange(instance).shifted
        assert built == []

    def test_graphic_matroid_state_is_fixed_after_full_rank(self):
        k6 = GraphicMatroid(6, K6_EDGES)
        k6.full_rank()
        sizes = attribute_sizes(k6)
        for seed in (1, 2):
            cyclic_exchange(seeded_instance(k6, 3, seed))
        assert attribute_sizes(k6) == sizes

    def test_check_subset_calls_do_not_grow_with_queries(self, monkeypatch):
        # a query is one takes or circuit evaluation of a part the lift prepares
        counts = {"check": 0, "query": 0}
        check, prepare = core.Matroid.check_subset, core.SlotMatroid._prepare

        def counting_check(self, elements):
            counts["check"] += 1
            return check(self, elements)

        def counting(method):
            def query(x):
                counts["query"] += 1
                return method(x)
            return query

        def counting_prepare(self):
            part = prepare(self)
            part.takes, part.circuit = counting(part.takes), counting(part.circuit)
            return part

        monkeypatch.setattr(core.Matroid, "check_subset", counting_check)
        monkeypatch.setattr(core.SlotMatroid, "_prepare", counting_prepare)
        observed = []
        for seed in (1, 4):  # 25 and 20 queries
            inst = seeded_instance(GraphicMatroid(6, K6_EDGES), 3, seed)
            counts.update(check=0, query=0)
            cyclic_exchange(inst)
            observed.append((counts["check"], counts["query"]))

        (check1, query1), (check2, query2) = observed
        assert query1 != query2
        assert check1 == check2 < min(query1, query2)

    @pytest.mark.parametrize("make, k, seed, part, pins", [
        # A 4 x 12 matrix over GF(3) of rank 4: one-byte fields.
        (lambda: LinearMatroid(3, 4, GF3_COLUMNS), 4, 0, core._SlotPart,
         {"takes": 34, "circuit": 13, "reduce": 61, "greedy": 0}),
        # The lift of K_6 prepares forest parts over its slots.
        (lambda: GraphicMatroid(6, K6_EDGES), 3, 9, core._ForestPart,
         {"takes": 29, "circuit": 10, "rehung": 32, "greedy": 0}),
    ], ids=["gf3", "k6"])
    def test_work_per_solve_is_pinned(self, make, k, seed, part, pins, monkeypatch):
        # The exact work of one solve, instance check included, on a fresh
        # matroid: takes and circuit calls on the parts of the lift, echelon
        # reductions, forest vertices re-hung by links and cuts, and rank
        # scans.  Bases of ``rows`` (or vertices - 1) elements are checked
        # without a scan.  CHANGES.md records the earlier pins and what
        # moved each one.  A forest part that mis-sizes its trees after a
        # cut re-hangs more vertices here.
        instance = seeded_instance(make(), k, seed)
        counts = dict.fromkeys(pins, 0)

        def counting(cls, name, key, weigh=lambda result: 1):
            method = getattr(cls, name)

            def spy(self, *args):
                result = method(self, *args)
                if key in counts:
                    counts[key] += weigh(result)
                return result
            monkeypatch.setattr(cls, name, spy)

        counting(part, "takes", "takes")
        counting(part, "circuit", "circuit")
        counting(core._Echelon, "reduce", "reduce")
        counting(core._ForestPart, "_spread", "rehung", weigh=lambda count: count)
        for cls in (core.Matroid, LinearMatroid, GraphicMatroid):
            counting(cls, "greedy_independent", "greedy")
        cyclic_exchange(ExchangeInstance(make(), instance.bases, instance.seed))
        assert counts == pins

    def test_graphic_lift_prepares_no_slot_part(self, monkeypatch):
        # The lift of K_6 is itself graphic: each arm's part is a forest
        # over the slots, with no slot part around an inner forest part.
        # Each forest part is of the lift itself, which reads a table of
        # slot ends: the solve builds no second graphic matroid.
        made, graphs = [], []
        init, graphic_init = core.PreparedPart.__init__, GraphicMatroid.__init__

        def recording(self, matroid):
            made.append((type(self), matroid))
            init(self, matroid)

        def counting(self, *args):
            graphs.append(args)
            graphic_init(self, *args)

        inst = seeded_instance(GraphicMatroid(6, K6_EDGES), 3, seed=1)
        monkeypatch.setattr(core.PreparedPart, "__init__", recording)
        monkeypatch.setattr(GraphicMatroid, "__init__", counting)
        cyclic_exchange(inst)
        slots = sum(map(len, inst.bases))
        assert [cls for cls, _ in made] == [core._ForestPart] * inst.k
        assert all(type(m) is core.SlotMatroid and m.ground_size == slots for _, m in made)
        assert graphs == []

    def test_uniform_search_asks_no_closed_arm_for_a_circuit(self, monkeypatch):
        # A slot part of U(2r, r) that is full answers the circuit of an
        # uncovered element with its whole part.  Once a search has read
        # that, the part's elements are all labelled, so the search asks it
        # only takes() until the search ends.  Before, this solve made 83
        # takes and 41 circuit calls; before circuit() was asked only of an
        # arm that takes() refused, 98 and 26.
        augment, search, closed = union._augment, [0], set()
        counts = {"takes": 0, "circuit": 0}
        takes, circuit = core._SlotPart.takes, core._SlotPart.circuit

        def counting_augment(*args):
            search[0] += 1
            return augment(*args)

        def counting_takes(self, x):
            counts["takes"] += 1
            return takes(self, x)

        def counting_circuit(self, x):
            assert (search[0], id(self)) not in closed, "a closed arm was asked for a circuit"
            counts["circuit"] += 1
            found = circuit(self, x)
            if len(found) == len(self.part):
                closed.add((search[0], id(self)))
            return found

        monkeypatch.setattr(union, "_augment", counting_augment)
        monkeypatch.setattr(core._SlotPart, "takes", counting_takes)
        monkeypatch.setattr(core._SlotPart, "circuit", counting_circuit)
        cyclic_exchange(seeded_instance(UniformMatroid(30, 15), 4, seed=0))
        assert counts == {"takes": 116, "circuit": 22}

    def test_parts_are_prepared_once_per_arm(self, monkeypatch):
        # Full preparations of the inner linear parts: one per arm, even
        # though augmentations take elements from arms.  Growing or shrinking
        # either layer of a part by preparing it again breaks that.
        rng = random.Random(3)
        matroid = LinearMatroid(2, 8, [[rng.randrange(2) for _ in range(8)] for _ in range(24)])
        inst = seeded_instance(matroid, 5, seed=3)
        counts = {"prepared": 0, "losses": 0}
        prepare, augment = core._EchelonPart.__init__, union._augment

        def counting_prepare(self, matroid):
            counts["prepared"] += 1
            prepare(self, matroid)

        def counting_augment(arms_of, prepared, *rest):
            before = [frozenset(p.part) for p in prepared]
            reached = augment(arms_of, prepared, *rest)
            counts["losses"] += sum(not p.part >= old for p, old in zip(prepared, before))
            return reached

        monkeypatch.setattr(core._EchelonPart, "__init__", counting_prepare)
        monkeypatch.setattr(union, "_augment", counting_augment)

        def solve():
            counts.update(prepared=0, losses=0)
            cyclic_exchange(inst)
            return counts["prepared"]

        assert solve() == inst.k
        assert counts["losses"] > 0

        def prepare_again(layer, grow):
            # A move that prepares the part again, empty, and adds the
            # elements of its new set.
            add = layer.add

            def move(self, x):
                part = grow(self.part, {x})
                self.__init__(self.matroid)
                for e in sorted(part):
                    add(self, e)
            return move

        for layer in (core._EchelonPart, core._SlotPart):
            for method, grow in (("add", set.union), ("remove", set.difference)):
                with monkeypatch.context() as patch:
                    patch.setattr(layer, method, prepare_again(layer, grow))
                    assert solve() > inst.k, (layer, method)

    def test_bases_are_checked_once_per_solve(self, monkeypatch):
        # k checks in ExchangeInstance and k on the shifted sets; the lift
        # trusts the validated instance
        calls = []
        is_basis = core.Matroid.is_basis

        def counting_is_basis(self, elements):
            calls.append(self)
            return is_basis(self, elements)

        monkeypatch.setattr(core.Matroid, "is_basis", counting_is_basis)
        k6 = GraphicMatroid(6, K6_EDGES)
        cyclic_exchange(seeded_instance(k6, 3, seed=1))
        assert calls == [k6] * 6

    def test_each_shifted_set_is_tested_once(self, monkeypatch):
        # k independence tests validate the bases and k test the shifted
        # sets; the read-back checks the slot partition without the lift
        rng = random.Random(3)
        matroid = LinearMatroid(2, 8, [[rng.randrange(2) for _ in range(8)] for _ in range(24)])
        inst = seeded_instance(matroid, 5, seed=3)
        calls = []
        for cls in (core.SlotMatroid, LinearMatroid):
            def counting_indep(self, s, indep=cls._indep):
                calls.append(type(self))
                return indep(self, s)
            monkeypatch.setattr(cls, "_indep", counting_indep)
        cyclic_exchange(ExchangeInstance(matroid, inst.bases, inst.seed))
        assert calls == [LinearMatroid] * (2 * inst.k)

    def test_every_augmentation_keeps_parts_independent(self, monkeypatch):
        augmented = check_every_augmentation(monkeypatch)
        inst = seeded_instance(GraphicMatroid(6, K6_EDGES), 3, seed=1)
        cyclic_exchange(inst)
        assert len(augmented) == sum(len(b) for b in inst.bases)
