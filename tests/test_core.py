"""Matroid classes, rank, bases, restriction, and the parallel-copy lift."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrex import core
from matrex import (
    AXIOM_CHECK_CAP,
    BasisMatroid,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    SizeLimitError,
    SlotMatroid,
    UniformMatroid,
    ValidationError,
    check_base_axiom,
    disjoint_copies,
)

from helpers import (
    FANO_COLUMNS,
    K4_EDGES,
    augmentation_holds,
    base_axiom_by_sets,
    base_axiom_by_triple_loop,
    fixture_matroids,
    gf2_independent,
    hereditary_holds,
    indep_table,
    mask_to_set,
    rank_table,
    submodular_holds,
)


class TestRank:
    def test_uniform_rank_capped(self):
        assert UniformMatroid(4, 2).rank({0, 1, 2}) == 2

    def test_triangle_rank(self):
        triangle = GraphicMatroid(3, [[0, 1], [1, 2], [0, 2]])
        assert triangle.rank({0, 1, 2}) == 2

    def test_linear_rank(self):
        m = LinearMatroid(2, 2, [[1, 0], [0, 1], [1, 1]])
        assert m.rank({0, 1, 2}) == 2

    def test_rank_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            UniformMatroid(4, 2).rank({0, 4})

    def test_empty_rank(self):
        for m in fixture_matroids():
            assert m.rank(frozenset()) == 0


class TestIsBasis:
    def test_uniform_pair(self):
        assert UniformMatroid(4, 2).is_basis({0, 1})

    def test_k4_triangle_is_not_a_basis(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        assert not k4.is_basis({0, 3, 1})

    def test_k4_path_is_a_basis(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        assert k4.is_basis({0, 1, 2})

    @pytest.mark.parametrize("matroid", [
        # rank below rows: a zero row, and a repeated one
        LinearMatroid(3, 3, [[1, 2, 0], [2, 1, 0], [0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        LinearMatroid(2, 4, [[1, 1, 0, 1], [0, 0, 1, 0], [1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 0, 1]]),
        LinearMatroid(5, 2, [[0, 0], [0, 0]]),
        LinearMatroid(3, 2, [[1, 2], [0, 1], [2, 2]]),  # full rank
        # several components, isolated vertices and self-loops
        GraphicMatroid(8, [[0, 1], [1, 2], [0, 2], [4, 5], [5, 5], [4, 5], [7, 7]]),
        GraphicMatroid(6, [[1, 1], [3, 3]]),
        GraphicMatroid(3, []),
        GraphicMatroid(4, K4_EDGES),
    ], ids=repr)
    def test_rank_cap_shortcut_matches_full_rank(self, matroid):
        # A set as large as the class's rank cap is tested by independence
        # alone; every set gets the answer of the full-rank comparison.
        rank = matroid.full_rank()
        for size in range(matroid.ground_size + 1):
            for s in map(frozenset, itertools.combinations(range(matroid.ground_size), size)):
                assert matroid.is_basis(s) == (len(s) == rank and matroid._indep(s)), s


class TestEnumerateBases:
    def test_uniform_all_pairs(self):
        bases = UniformMatroid(4, 2).enumerate_bases()
        assert bases == [frozenset(c) for c in itertools.combinations(range(4), 2)]

    def test_fano_has_28_bases(self):
        fano = LinearMatroid(2, 3, FANO_COLUMNS)
        bases = fano.enumerate_bases()
        assert len(bases) == 28
        # cross-check every triple against the combination-sum oracle
        for triple in itertools.combinations(range(7), 3):
            expected = gf2_independent([FANO_COLUMNS[i] for i in triple])
            assert (frozenset(triple) in set(bases)) == expected

    def test_single_basis_family(self):
        assert BasisMatroid(2, [[0]]).enumerate_bases() == [frozenset({0})]

    def test_cap_refusal(self):
        with pytest.raises(SizeLimitError):
            UniformMatroid(25, 2).enumerate_bases()

    def test_lexicographic_order(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        bases = [tuple(sorted(b)) for b in k4.enumerate_bases()]
        assert bases == sorted(bases)


class TestBaseAxiom:
    def test_uniform_family_passes(self):
        family = list(itertools.combinations(range(4), 2))
        ok, violation = check_base_axiom(4, family)
        assert ok and violation is None

    def test_split_family_fails_with_first_violation(self):
        ok, violation = check_base_axiom(4, [[0, 1], [2, 3]])
        assert not ok
        assert violation.first == frozenset({0, 1})
        assert violation.second == frozenset({2, 3})
        assert violation.element == 0

    def test_single_basis_trivially_passes(self):
        ok, violation = check_base_axiom(3, [[0, 1]])
        assert ok and violation is None

    def test_empty_family_rejected(self):
        with pytest.raises(ValidationError):
            check_base_axiom(3, [])

    def test_unequal_sizes_fail(self):
        ok, violation = check_base_axiom(3, [[0, 1], [2]])
        assert not ok and violation.element is None
        assert type(violation) is core.AxiomViolation
        assert str(violation) == "B1=[0, 1] and B2=[2] differ in size"

    @pytest.mark.parametrize("n, family, message", [
        ("x", [[0]], "ground size must be an integer, got 'x'"),
        (-1, [[]], "ground size must be >= 0, got -1"),
        (None, [[], []], "ground size must be an integer, got None"),
        # the sets are checked before the ground size, with the messages they had
        (-1, [[0]], "element 0 out of range for ground set of size -1"),
        ("x", [], "basis family must be nonempty"),
        ("x", [5], "expected a set of element ids, got 5"),
        (-1, 5, "bases must be a sequence of element sets, got 5"),
    ])
    def test_ground_size_is_checked(self, n, family, message):
        with pytest.raises(ValidationError) as info:
            check_base_axiom(n, family)
        assert str(info.value) == message

    def test_basis_matroid_validates_on_construction(self):
        with pytest.raises(ValidationError, match="exchange axiom"):
            BasisMatroid(4, [[0, 1], [2, 3]])
        # explicit skip admits the bad family
        BasisMatroid(4, [[0, 1], [2, 3]], validate=False)

    def test_family_size_is_gated(self):
        # the bases of U(1, n) are its n singletons
        ok, _ = check_base_axiom(AXIOM_CHECK_CAP, [[e] for e in range(AXIOM_CHECK_CAP)])
        assert ok
        n = AXIOM_CHECK_CAP + 1
        with pytest.raises(SizeLimitError, match="axiom check cap"):
            check_base_axiom(n, [[e] for e in range(n)])
        with pytest.raises(SizeLimitError):
            BasisMatroid(n, [[e] for e in range(n)])
        # the cap is checked before the sizes
        with pytest.raises(SizeLimitError):
            check_base_axiom(n, [[e] for e in range(n - 1)] + [[0, 1]])
        assert BasisMatroid(n, [[e] for e in range(n)], validate=False).full_rank() == 1

    def test_uniform_rank_is_known_at_construction(self):
        assert UniformMatroid(10**9, 7).full_rank() == 7


class TestRestrict:
    def test_uniform_restriction_is_free(self):
        r = core.Restriction(UniformMatroid(4, 2), {1, 3})
        assert r.ground_size == 2
        assert r.elements == (1, 3)
        assert all(r.is_independent(s) for s in ({0}, {1}, {0, 1}, set()))

    def test_k4_spanning_tree_restriction(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        assert core.Restriction(k4, {0, 1, 2}).full_rank() == 3

    def test_empty_restriction(self):
        r = core.Restriction(GraphicMatroid(4, K4_EDGES), frozenset())
        assert r.ground_size == 0
        assert r.full_rank() == 0


class TestDisjointCopies:
    def test_lift_of_overlapping_bases(self):
        m = UniformMatroid(3, 2)
        lift = disjoint_copies(m, [{0, 1}, {0, 2}])
        assert lift.ground_size == 4
        assert lift.slots == ((0, 0), (0, 1), (1, 0), (1, 2))
        # two copies of inner element 0 form a circuit
        assert not lift.is_independent({lift.slots.index((0, 0)), lift.slots.index((1, 0))})

    def test_lifted_copies_are_bases(self):
        m = UniformMatroid(3, 2)
        lift = disjoint_copies(m, [{0, 1}, {0, 2}])
        for tag in (0, 1):
            assert lift.is_basis({j for j, (t, _) in enumerate(lift.slots) if t == tag})

    def test_disjoint_bases_mirror_inner_independence(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        lift = disjoint_copies(k4, [{0, 1, 2}, {3, 4, 5}])
        for size in range(4):
            for combo in itertools.combinations(range(6), size):
                slots = frozenset(combo)
                projection = {lift.slots[j][1] for j in slots}
                assert lift.is_independent(slots) == k4.is_independent(projection)

    def test_slot_blocks_need_not_be_bases(self):
        # Block 0 is dependent in U(1, 3) and block 1 is empty; each block
        # lists its elements in ascending order, tagged by its index.
        lift = SlotMatroid(UniformMatroid(3, 1), [{2, 0}, set(), [1]])
        assert lift.slots == ((0, 0), (0, 2), (2, 1))
        assert not lift.is_independent({0, 1})
        assert lift.full_rank() == 1

    def test_non_basis_input_names_index(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        with pytest.raises(ValidationError, match=r"bases\[1\]"):
            disjoint_copies(k4, [{0, 1, 2}, {0, 1, 3}])

    def test_slot_rank_equals_projected_rank(self):
        k4 = GraphicMatroid(4, K4_EDGES)
        for bases in ([{0, 1, 2}, {3, 4, 5}], [{0, 1, 2}, {0, 1, 2}, {1, 2, 5}]):
            lift = disjoint_copies(k4, bases)
            union = frozenset().union(*bases)
            assert lift.full_rank() == k4.rank(union)


class TestValidation:
    # The fast C-level passes fall back to a per-item check that names the
    # first bad item, in input order for ids and edges.
    @pytest.mark.parametrize("elements, message", [
        ([1, "a", 9], "expected an integer, got 'a'"),
        (iter([1, 2, "b"]), "expected an integer, got 'b'"),
        ((x for x in [4, 3, 7]), "element 7 out of range for ground set of size 5"),
        ([0, -1], "element -1 out of range for ground set of size 5"),
        ([1.5], "expected an integer, got 1.5"),
    ])
    def test_check_subset_names_the_first_bad_id(self, elements, message):
        with pytest.raises(ValidationError) as info:
            UniformMatroid(5, 2).check_subset(elements)
        assert str(info.value) == message

    def test_check_subset_keeps_every_item_of_an_iterator(self):
        assert UniformMatroid(5, 2).check_subset(x for x in (True, 4, 2, 4)) == {1, 2, 4}

    @pytest.mark.parametrize("edges, message", [
        ([[0, 1], [0, 1, 2]], "edge 1 must be a vertex pair, got [0, 1, 2]"),
        ([[0, 1], [0, 3], ["a", 1]], "edge 1 endpoint 3 out of range for 3 vertices"),
        ([[0, 1], ["x", 5]], "expected an integer, got 'x'"),
        ([[0, 1], [0]], "edge 1 must be a vertex pair, got [0]"),
        ([iter([0, 1]), [2, -1]], "edge 1 endpoint -1 out of range for 3 vertices"),
        (["ab"], "expected an integer, got 'a'"),
        ([[0, 1], 5], "edge 1 must be a vertex pair, got 5"),
    ])
    def test_graphic_edges_name_the_first_bad_edge(self, edges, message):
        with pytest.raises(ValidationError) as info:
            GraphicMatroid(3, edges)
        assert str(info.value) == message

    @pytest.mark.parametrize("blocks, message", [
        ([{0, 1}, 5], "expected a set of element ids, got 5"),
        ([{0}, [1, "a"]], "expected an integer, got 'a'"),
        ([{0, 1}, {3}, ["x"]], "element 3 out of range for ground set of size 3"),
        ([[0, -1]], "element -1 out of range for ground set of size 3"),
        ([{2}, iter([0, 5])], "element 5 out of range for ground set of size 3"),
        ([(), [1.5]], "expected an integer, got 1.5"),
    ])
    def test_blocks_name_the_first_bad_block(self, blocks, message):
        with pytest.raises(ValidationError) as info:
            SlotMatroid(UniformMatroid(3, 2), blocks)
        assert str(info.value) == message

    @pytest.mark.parametrize("call", [
        lambda: UniformMatroid(3, 1).is_independent(5),
        lambda: GraphicMatroid(3, [(0, 1)]).rank(None),
        lambda: BasisMatroid(3, [1]),
        lambda: check_base_axiom(3, [1]),
    ], ids=["is_independent", "rank", "BasisMatroid", "check_base_axiom"])
    def test_a_non_iterable_set_is_a_validation_error(self, call):
        with pytest.raises(ValidationError, match="expected a set of element ids, got"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: LinearMatroid(2, 1, [5]), "column 0 must be a sequence of integers, got 5"),
        (lambda: LinearMatroid(2, 1, 5), "columns must be a sequence of integer vectors, got 5"),
        (lambda: GraphicMatroid(3, 5), "edges must be a sequence of vertex pairs, got 5"),
        (lambda: SlotMatroid(UniformMatroid(3, 1), 5),
         "blocks must be a sequence of element sets, got 5"),
        (lambda: disjoint_copies(UniformMatroid(3, 1), 5),
         "bases must be a sequence of element sets, got 5"),
        (lambda: BasisMatroid(3, 5), "bases must be a sequence of element sets, got 5"),
        (lambda: check_base_axiom(3, 5), "bases must be a sequence of element sets, got 5"),
        (lambda: SlotMatroid(5, [(0, 0)]), "the inner matroid must be a Matroid, got 5"),
        (lambda: disjoint_copies(None, [{0}]), "matroid must be a Matroid, got None"),
        (lambda: UniformMatroid(3, None), "rank bound must be an integer, got None"),
        (lambda: UniformMatroid(None, 1), "ground size must be an integer, got None"),
        (lambda: UniformMatroid(3, 1.5), "rank bound must be an integer, got 1.5"),
        (lambda: GraphicMatroid(None, []), "vertex count must be an integer, got None"),
        (lambda: BasisMatroid(None, [[0]]), "ground size must be an integer, got None"),
        (lambda: LinearMatroid(None, 1, []), "field characteristic must be an integer, got None"),
        (lambda: LinearMatroid(2, 1.0, [[1]]), "ambient dimension must be an integer, got 1.0"),
        # rejected before as well, with the same messages
        (lambda: UniformMatroid(-1, 0), "ground size must be >= 0, got -1"),
        (lambda: UniformMatroid(3, 4), "rank bound must satisfy 0 <= r <= n, got r=4, n=3"),
        (lambda: GraphicMatroid(-1, []), "vertex count must be >= 0, got -1"),
        (lambda: LinearMatroid(4, 1, []), "field characteristic must be a prime below 2**16, got 4"),
        (lambda: LinearMatroid(4, None, 5), "field characteristic must be a prime below 2**16, got 4"),
        (lambda: GraphicMatroid(-1, 5), "vertex count must be >= 0, got -1"),
        (lambda: LinearMatroid(2, 1, [[None]]), "expected an integer, got None"),
        # unchecked, a long column makes the first query overflow a field,
        # and a short one reads as if it were padded with zeros
        (lambda: LinearMatroid(3, 2, [[1, 0], [0, 1, 2]]), "column 1 has 3 entries, expected 2"),
        (lambda: LinearMatroid(3, 2, [[1, 0], [0]]), "column 1 has 1 entries, expected 2"),
        (lambda: BasisMatroid(3, [5]), "expected a set of element ids, got 5"),
        (lambda: SlotMatroid(5, 7), "blocks must be a sequence of element sets, got 7"),
    ], ids=lambda v: "" if callable(v) else v)
    def test_constructors_name_a_bad_argument(self, call, message):
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message

    def test_slots_become_int_pairs(self):
        lift = SlotMatroid(UniformMatroid(3, 2), ((True, 2), iter([1, False])))
        assert lift.slots == ((0, 1), (0, 2), (1, 0), (1, 1))
        assert all(type(v) is int for slot in lift.slots for v in slot)

    def test_graphic_edges_become_int_pairs(self):
        matroid = GraphicMatroid(3, ((True, 2), [0, 1]))
        assert matroid.edges == ((1, 2), (0, 1))
        assert all(type(v) is int for edge in matroid.edges for v in edge)


class TestMatroidAxioms:
    """Exhaustive verification of the defining properties, n <= 10."""

    @pytest.mark.parametrize("matroid", fixture_matroids(), ids=repr)
    def test_empty_set_independent(self, matroid):
        assert matroid.is_independent(frozenset())

    @pytest.mark.parametrize("matroid", fixture_matroids(), ids=repr)
    def test_hereditary(self, matroid):
        assert hereditary_holds(indep_table(matroid), matroid.ground_size)

    @pytest.mark.parametrize("matroid", fixture_matroids(), ids=repr)
    def test_augmentation(self, matroid):
        assert augmentation_holds(indep_table(matroid), matroid.ground_size)

    @pytest.mark.parametrize("matroid", fixture_matroids(), ids=repr)
    def test_rank_submodular_and_greedy_agrees_with_dp(self, matroid):
        n = matroid.ground_size
        table = rank_table(indep_table(matroid), n)
        assert submodular_holds(table, n)
        for mask in range(1 << n):
            s = mask_to_set(mask)
            assert matroid.rank(s) == table[mask]
            assert table[mask] <= len(s)

    @pytest.mark.parametrize("matroid", fixture_matroids(), ids=repr)
    def test_rank_monotone(self, matroid):
        n = matroid.ground_size
        table = rank_table(indep_table(matroid), n)
        for mask in range(1 << n):
            for b in range(n):
                if mask >> b & 1:
                    assert table[mask & ~(1 << b)] <= table[mask]

    @pytest.mark.parametrize(
        "matroid", [m for m in fixture_matroids() if 0 < m.ground_size <= 10], ids=repr
    )
    def test_enumerated_bases_round_trip(self, matroid):
        bases = matroid.enumerate_bases()
        if not bases or not bases[0]:
            pytest.skip("rank zero: basis family is the empty set only")
        rebuilt = BasisMatroid(matroid.ground_size, bases)
        assert rebuilt.enumerate_bases() == bases

    @pytest.mark.parametrize(
        "matroid", [m for m in fixture_matroids() if 0 < m.ground_size <= 8], ids=repr
    )
    def test_enumerated_bases_satisfy_exchange_axiom(self, matroid):
        bases = matroid.enumerate_bases()
        ok, violation = check_base_axiom(matroid.ground_size, bases)
        assert ok, violation


@st.composite
def small_linear_matroids(draw):
    prime = draw(st.sampled_from((2, 3, 5)))
    rows = draw(st.integers(1, 3))
    n = draw(st.integers(0, 6))
    cols = draw(
        st.lists(
            st.lists(st.integers(0, prime - 1), min_size=rows, max_size=rows),
            min_size=n, max_size=n,
        )
    )
    return LinearMatroid(prime, rows, cols)


@settings(max_examples=150, deadline=None)
@given(small_linear_matroids(), st.sampled_from(("valid", "dropped", "corrupted")),
       st.randoms(use_true_random=False))
def test_axiom_check_matches_triple_loop(matroid, change, rng):
    # valid families, and families with one basis dropped or with one
    # element of a basis swapped for one outside it; scan order shuffled
    n = matroid.ground_size
    family = [sorted(b) for b in matroid.enumerate_bases()]
    rng.shuffle(family)
    i = rng.randrange(len(family))
    outside = sorted(set(range(n)) - set(family[i]))
    if change == "dropped" and len(family) > 1:
        family.pop(i)
    elif change == "corrupted" and family[i] and outside:
        family[i] = sorted(set(family[i]) - {rng.choice(family[i])} | {rng.choice(outside)})
    assert check_base_axiom(n, family) == base_axiom_by_triple_loop(family)


@settings(max_examples=60, deadline=None)
@given(small_linear_matroids())
def test_linear_rank_matches_dp_oracle(matroid):
    n = matroid.ground_size
    table = rank_table(indep_table(matroid), n)
    for mask in range(1 << n):
        assert matroid.rank(mask_to_set(mask)) == table[mask]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))
def test_graphic_independence_matches_dfs_oracle(edges):
    from helpers import is_forest

    m = GraphicMatroid(5, edges)
    for mask in range(1 << m.ground_size):
        ids = mask_to_set(mask)
        assert m.is_independent(ids) == is_forest(sorted(ids), m.edges, 5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), min_size=30, max_size=60),
       st.lists(st.frozensets(st.integers(0, 29), max_size=5), min_size=1, max_size=10))
@example(edges=[(i, i + 1) for i in range(30)], sets=[frozenset({0}), frozenset({0, 1})])
def test_graphic_small_sets_match_dfs_oracle(edges, sets):
    # Sets of a few edges in a graph of many touched vertices: below a
    # sixteenth of them, a query's union-find is a dict over the set's ends.
    from helpers import is_forest

    m = GraphicMatroid(100, edges)
    for ids in sets:
        assert m.is_independent(ids) == is_forest(sorted(ids), m.edges, 100)
        assert m.rank(ids) == max(len(s) for r in range(len(ids) + 1)
                                  for s in itertools.combinations(sorted(ids), r)
                                  if is_forest(s, m.edges, 100))


def test_graphic_small_set_queries_cost_the_set():
    # A query of one or two edges of a path of 10**5 edges builds no
    # union-find over the path's vertices, which would take megabytes.
    n = 10**5
    m = GraphicMatroid(n + 1, [(i, i + 1) for i in range(n)])
    tracemalloc.start()
    try:
        assert m.is_independent({0})
        assert m.rank({0, n - 1}) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


@st.composite
def families(draw):
    """A basis family on n <= 8 elements, in scan order: the bases of a
    GF(2) or GF(3) column matroid, or random sets of one size, then perhaps
    perturbed by dropping a set, replacing one by a random set of the same
    size, resizing one or repeating one.  Returns (n, family)."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        prime = draw(st.sampled_from((2, 3)))
        rows = draw(st.integers(1, 4))
        column = st.lists(st.integers(0, prime - 1), min_size=rows, max_size=rows)
        family = LinearMatroid(prime, rows, draw(st.lists(column, min_size=n, max_size=n)))\
            .enumerate_bases()
    else:
        size = draw(st.integers(0, n))
        family = draw(st.lists(st.frozensets(st.integers(0, n - 1), min_size=size, max_size=size),
                               min_size=1, max_size=12))
    family = draw(st.permutations(family))
    i = draw(st.integers(0, len(family) - 1))
    change = draw(st.sampled_from(("valid", "dropped", "replaced", "resized", "repeated")))
    if change == "dropped" and len(family) > 1:
        family.pop(i)
    elif change == "replaced":
        family[i] = draw(st.frozensets(st.integers(0, n - 1), min_size=len(family[i]),
                                       max_size=len(family[i])))
    elif change == "resized":
        family[i] = family[i] ^ {draw(st.integers(0, n - 1))}
    elif change == "repeated":
        family.insert(draw(st.integers(0, len(family))), family[i])
    return n, [sorted(b) for b in family]


@settings(max_examples=400, deadline=None)
@given(families())
def test_mask_axiom_check_matches_set_reference(case):
    # the same verdict and first violation, and construction fails with it
    n, family = case
    expected = base_axiom_by_sets(n, family)
    assert check_base_axiom(n, family) == expected
    sizes = {len(b) for b in family}
    if len(sizes) > 1:
        with pytest.raises(ValidationError, match="same cardinality"):
            BasisMatroid(n, family)
    elif expected[1] is not None:
        with pytest.raises(ValidationError) as info:
            BasisMatroid(n, family)
        assert str(info.value) == f"exchange axiom violated: {expected[1]}"
    else:
        BasisMatroid(n, family)


@settings(max_examples=100, deadline=None)
@given(families())
def test_mask_axiom_check_takes_sparse_huge_ids(case):
    # ids spread up to 10**9 keep their order, so the first violation too;
    # masks over raw ids would not fit in memory
    n, family = case
    spread = [[10**8 * e + 7 for e in b] for b in family]
    assert check_base_axiom(10**9, spread) == base_axiom_by_sets(10**9, spread)


@st.composite
def common_part_families(draw):
    """A basis family with a common part, in scan order: the bases of a free
    part plus U(1, 2) and U(2, 3) summands, as in tests/test_cli.py's 7 MiB
    family, or random sets of one size that share a common part, each
    holding more or fewer other elements than the family has sets.  Then
    one basis is dropped, replaced by a random set of its size or repeated.
    Returns (n, family)."""
    common = draw(st.integers(0, 12))
    if draw(st.booleans()):
        blocks, start = [], common
        for r, m in draw(st.lists(st.sampled_from(((1, 2), (2, 3))), min_size=1, max_size=4)):
            blocks.append([frozenset(c) for c in itertools.combinations(range(start, start + m), r)])
            start += m
        n = start
        family = [frozenset(range(common)).union(*picks) for picks in itertools.product(*blocks)]
    else:
        n = common + draw(st.integers(1, 8))
        size = draw(st.integers(0, n - common))
        others = st.frozensets(st.integers(common, n - 1), min_size=size, max_size=size)
        family = [s | frozenset(range(common))
                  for s in draw(st.lists(others, min_size=1, max_size=16))]
    family = draw(st.permutations(family))
    i = draw(st.integers(0, len(family) - 1))
    change = draw(st.sampled_from(("dropped", "replaced", "repeated")))
    if change == "dropped" and len(family) > 1:
        family.pop(i)
    elif change == "replaced":
        family[i] = draw(st.frozensets(st.integers(0, n - 1), min_size=len(family[i]),
                                       max_size=len(family[i])))
    elif change == "repeated":
        family.insert(draw(st.integers(0, len(family))), family[i])
    return n, [sorted(b) for b in family]


@settings(max_examples=300, deadline=None)
@given(common_part_families())
# Two of b1's e1 fail the same first b2: the smaller e1 is named.
@example((6, [[0, 3, 4], [0, 2, 3], [1, 2, 5], [0, 2, 4], [0, 3, 5], [1, 3, 5], [1, 3, 4],
              [1, 2, 4]]))
# The e1 that fails the earliest b2 is named, though a smaller e1 fails a later one.
@example((5, [[0, 2, 3], [0, 1, 3], [1, 2, 3], [0, 1, 4], [0, 2, 4]]))
def test_axiom_check_matches_set_reference_with_common_parts(case):
    n, family = case
    assert check_base_axiom(n, family) == base_axiom_by_sets(n, family)


def test_axiom_check_memory_is_bounded():
    # Each basis holds about 3,000 elements that are not in every basis,
    # more than the family has other members, so the first basis fails and
    # no index of one-element deletions is built: it would take about
    # 0.7 GiB.
    rng = random.Random(0)
    family = [frozenset(rng.sample(range(6000), 3000)) for _ in range(256)]
    tracemalloc.start()
    try:
        ok, violation = check_base_axiom(6000, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ok and violation.first == family[0]
    assert peak < 8 * 2**20


@settings(max_examples=200, deadline=None)
@given(families())
def test_basis_queries_match_the_family(case):
    # enumeration against the generic scan, and independence and basis
    # tests of every subset against the family as sets; invalid families too
    n, family = case
    if len({len(b) for b in family}) > 1:
        return
    matroid = BasisMatroid(n, family, validate=False)
    assert matroid.enumerate_bases() == Matroid.enumerate_bases(matroid)
    bases = {frozenset(b) for b in family}
    for mask in range(1 << n):
        s = mask_to_set(mask)
        assert matroid.is_independent(s) == any(s <= b for b in bases), s
        assert matroid.is_basis(s) == (s in bases), s
