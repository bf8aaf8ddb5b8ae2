"""Fundamental circuits: every class's prepared part against the generic
oracle loop and a brute-force minimal-circuit search, grown and shrunk parts
against fresh ones, and the circuit-based partition solver against the
one-query-per-arc reference solver."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrex import (
    Arm,
    BasisMatroid,
    DeficiencyCertificate,
    GraphicMatroid,
    InstanceGenSpec,
    InternalVerificationError,
    LinearMatroid,
    Matroid,
    PartitionProblem,
    SlotMatroid,
    UniformMatroid,
    core,
    cyclic_exchange,
    disjoint_copies,
    exchange,
    matroid_partition,
    random_instance,
    union,
)

from helpers import (
    FANO_COLUMNS,
    K4_EDGES,
    check_every_augmentation,
    exchange_shaped_problem,
    fixture_matroids,
    random_problem,
    reference_partition,
    union_find_forest,
)


def brute_circuit(matroid, s, x):
    """None if s + x is independent, else the smallest c in s with c + x
    dependent (the circuit through x is the unique minimal one)."""
    if matroid.is_independent(s | {x}):
        return None
    for size in range(len(s) + 1):
        for c in itertools.combinations(sorted(s), size):
            if not matroid.is_independent(set(c) | {x}):
                return frozenset(c)
    raise AssertionError("s + x is dependent, so some subset of s closes a circuit")


def random_basis(matroid, rng):
    """Greedy completion over a shuffled ground set."""
    order = list(range(matroid.ground_size))
    rng.shuffle(order)
    picked = frozenset()
    for e in order:
        if matroid.is_independent(picked | {e}):
            picked |= {e}
    return picked


def random_independent(matroid, rng):
    """A random subset of a random basis: every independent set can come up."""
    basis = sorted(random_basis(matroid, rng))
    return frozenset(rng.sample(basis, rng.randint(0, len(basis))))


def assert_circuits_match(matroid, s):
    own, generic = matroid._prepare(s), core.PreparedPart(matroid, s)
    for x in sorted(matroid.ground_set() - s):
        expected = brute_circuit(matroid, s, x)
        assert generic.circuit(x) == expected, (matroid, s, x)
        assert own.circuit(x) == expected, (matroid, s, x)


def assert_grows_like_fresh(matroid, rng):
    """Grow one prepared part by random elements that have no circuit; after
    every step it answers every x outside the part as a fresh one does."""
    part = random_independent(matroid, rng)
    prepared = matroid._prepare(part)
    while True:
        fresh = matroid._prepare(part)
        outside = sorted(matroid.ground_set() - part)
        for x in outside:
            assert prepared.circuit(x) == fresh.circuit(x), (matroid, part, x)
        free = [x for x in outside if fresh.circuit(x) is None]
        if not free:
            return
        x = rng.choice(free)
        prepared.add(x)
        part |= {x}
        assert prepared.part == part


def assert_changes_like_fresh(matroid, rng, prepare=None):
    """Add and remove random elements of one prepared part, asking for the
    circuit of each element before adding it, as the solver does; after
    every step the part answers every x outside it as a fresh one made by
    ``prepare`` (by default the matroid's own) does."""
    prepare = prepare or matroid._prepare
    part = random_independent(matroid, rng)
    prepared = matroid._prepare(part)
    for _ in range(2 * matroid.ground_size + 2):
        fresh = prepare(part)
        outside = sorted(matroid.ground_set() - part)
        for x in outside:
            assert prepared.circuit(x) == fresh.circuit(x), (matroid, part, x)
        free = [x for x in outside if fresh.circuit(x) is None]
        if part and (not free or rng.random() < 0.5):
            y = rng.choice(sorted(part))
            prepared.remove(y)
            part -= {y}
        elif free:
            x = rng.choice(free)
            assert prepared.circuit(x) is None
            prepared.add(x)
            part |= {x}
        else:  # an empty part and only loops outside it
            return
        assert prepared.part == part


# --- per-class circuit properties ------------------------------------------


@st.composite
def linear_matroids(draw, n, primes=(2, 3, 5, 65521)):
    # 65521 packs entries into the widest fields
    prime = draw(st.sampled_from(primes))
    rows = draw(st.integers(1, 3))
    # a small pool of columns makes zero and repeated columns common
    column = st.lists(st.integers(0, prime - 1), min_size=rows, max_size=rows)
    pool = draw(st.lists(column, min_size=1, max_size=4))
    return LinearMatroid(prime, rows, draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@st.composite
def matroids_on(draw, n):
    """A uniform, graphic, linear or bases-type matroid on n elements."""
    kind = draw(st.sampled_from(("uniform", "graphic", "linear", "bases")))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.sampled_from((0, n, n // 2))))
    if kind == "graphic":  # self-loops and parallel edges included
        vertex = st.integers(0, draw(st.integers(0, 4)))
        return GraphicMatroid(5, draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=n)))
    linear = draw(linear_matroids(n))
    if kind == "linear":
        return linear
    return BasisMatroid(n, linear.enumerate_bases(), validate=False)


def matroids(max_n=7):
    return st.integers(0, max_n).flatmap(matroids_on)


@settings(max_examples=300, deadline=None)
@given(matroids(), st.randoms(use_true_random=False))
def test_circuits_match_the_oracle(matroid, rng):
    assert_circuits_match(matroid, random_independent(matroid, rng))


@settings(max_examples=150, deadline=None)
@given(matroids(max_n=5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_slot_circuits_match_the_oracle(inner, k, rng):
    # repeated bases give covered elements several parallel copies
    bases = [random_basis(inner, rng)]
    bases += [rng.choice((bases[0], random_basis(inner, rng))) for _ in range(k)]
    lift = disjoint_copies(inner, bases)
    assert_circuits_match(lift, random_independent(lift, rng))


@settings(max_examples=200, deadline=None)
@given(matroids(), st.randoms(use_true_random=False))
def test_grown_parts_match_fresh_ones(matroid, rng):
    assert_grows_like_fresh(matroid, rng)


@settings(max_examples=150, deadline=None)
@given(matroids(max_n=5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_grown_slot_parts_match_fresh_ones(inner, k, rng):
    bases = [random_basis(inner, rng)]
    bases += [rng.choice((bases[0], random_basis(inner, rng))) for _ in range(k)]
    assert_grows_like_fresh(disjoint_copies(inner, bases), rng)


@settings(max_examples=200, deadline=None)
@given(matroids(), st.randoms(use_true_random=False))
def test_changed_parts_match_fresh_ones(matroid, rng):
    assert_changes_like_fresh(matroid, rng)


@settings(max_examples=150, deadline=None)
@given(matroids(max_n=5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_changed_slot_parts_match_fresh_ones(inner, k, rng):
    bases = [random_basis(inner, rng)]
    bases += [rng.choice((bases[0], random_basis(inner, rng))) for _ in range(k)]
    assert_changes_like_fresh(disjoint_copies(inner, bases), rng)


@pytest.mark.parametrize(
    "matroid",
    [
        UniformMatroid(0, 0), UniformMatroid(5, 0), UniformMatroid(5, 5), UniformMatroid(6, 3),
        # zero and repeated columns over GF(2), GF(3) and GF(5)
        LinearMatroid(2, 2, [[0, 0], [1, 0], [1, 0], [0, 1], [1, 1]]),
        LinearMatroid(3, 2, [[1, 2], [0, 0], [2, 1], [1, 2], [0, 1]]),
        LinearMatroid(5, 3, [[1, 2, 3], [2, 4, 1], [0, 0, 0], [0, 1, 4], [1, 0, 0], [1, 0, 0]]),
        LinearMatroid(3, 0, [[], []]),
        # a self-loop and parallel edges
        GraphicMatroid(4, [[0, 1], [1, 2], [2, 2], [0, 1], [0, 2], [1, 0], [3, 2]]),
        GraphicMatroid(4, K4_EDGES),
        BasisMatroid(4, [[0, 1], [0, 2], [1, 2]]),
        # a loop (4) and a coloop (3); rank 0 with loops only
        BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]),
        BasisMatroid(3, [[]]),
        disjoint_copies(GraphicMatroid(4, K4_EDGES), [{0, 1, 2}, {0, 1, 2}, {3, 4, 5}]),
        disjoint_copies(UniformMatroid(4, 2), [{0, 1}, {0, 1}]),
    ] + fixture_matroids(),
    ids=repr,
)
def test_circuits_of_every_independent_set(matroid):
    n = matroid.ground_size
    for size in range(n + 1):
        for s in itertools.combinations(range(n), size):
            if matroid.is_independent(s):
                assert_circuits_match(matroid, frozenset(s))


BASIS_CORPUS = [
    BasisMatroid(7, LinearMatroid(2, 3, FANO_COLUMNS).enumerate_bases()),
    BasisMatroid(6, GraphicMatroid(4, K4_EDGES).enumerate_bases()),
    BasisMatroid(6, UniformMatroid(6, 3).enumerate_bases()),
    BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    BasisMatroid(6, [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5],
                     [1, 3, 4], [1, 3, 5]]),  # three parallel pairs
    BasisMatroid(3, [[]]),
    BasisMatroid(7, [[1, 6], [3, 6], [1, 3]]),  # loops between the other elements
]


@pytest.mark.parametrize("matroid", BASIS_CORPUS, ids=repr)
def test_basis_parts_change_like_generic_ones(matroid):
    # Seeded add and remove sequences against the generic oracle part.
    for seed in range(20):
        assert_changes_like_fresh(matroid, random.Random(seed),
                                  lambda part: core.PreparedPart(matroid, part))


# (matroid, an independent part, an x that would make it dependent, a y outside it)
MISUSES = [
    (UniformMatroid(4, 2), {0, 1}, 2, 3),
    (GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)]), {0, 1}, 2, 2),  # K_3
    (GraphicMatroid(3, [(0, 1), (2, 2)]), {0}, 1, 1),  # a self-loop
    (LinearMatroid(3, 2, [[1, 0], [0, 1], [1, 2]]), {0, 1}, 2, 2),
    (LinearMatroid(2, 2, [[1, 0], [0, 0]]), set(), 1, 0),  # a zero column
    (LinearMatroid(2, 2, [[1, 0], [0, 1], [1, 1]]), {0, 1}, 2, 2),  # a nonzero dependent column
    (BasisMatroid(4, [[0, 1], [0, 2], [1, 2]]), {0, 1}, 2, 3),
    (BasisMatroid(4, [[0, 1], [0, 2], [1, 2]]), {0}, 3, 1),  # a loop
    (disjoint_copies(UniformMatroid(3, 2), [{0, 1}, {0, 1}]), {0}, 2, 1),  # parallel copies
]


@pytest.mark.parametrize("matroid, part, x, y", MISUSES, ids=lambda v: repr(v)[:40])
def test_prepared_parts_refuse_misuse(matroid, part, x, y):
    # An add that makes the part dependent and a remove of a non-member both
    # raise, name the class and the element, and leave the part as it was.
    prepared = matroid._prepare(frozenset(part))
    name = type(matroid).__name__
    with pytest.raises(InternalVerificationError, match=f"^{name} part: adding {x} makes"):
        prepared.add(x)
    with pytest.raises(InternalVerificationError, match=f"^{name} part: {y} is not in the part"):
        prepared.remove(y)
    assert prepared.part == part
    fresh = matroid._prepare(frozenset(part))
    for e in sorted(matroid.ground_set() - part):
        assert prepared.circuit(e) == fresh.circuit(e)


def test_slot_part_refuses_an_inner_dependent_add():
    # The inner part refuses, naming the inner element the slot copies.
    lift = disjoint_copies(GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)]), [{0, 1}, {1, 2}])
    prepared = lift._prepare(frozenset({0, 1}))  # slots copying edges 0 and 1
    with pytest.raises(InternalVerificationError, match="^GraphicMatroid part: adding 2 makes"):
        prepared.add(3)  # slot 3 copies edge 2
    assert prepared.part == {0, 1}


# --- parts that change in place ----------------------------------------------


def assert_circuits_are_snapshots(matroid, rng, prepare=None):
    """Add and remove random elements of one prepared part.  Its ``part`` is
    its own set, and every circuit is a frozenset that no later move
    changes."""
    prepared = (prepare or matroid._prepare)(random_independent(matroid, rng))
    assert type(prepared.part) is set
    taken = []
    for _ in range(2 * matroid.ground_size + 2):
        circuits = {x: prepared.circuit(x) for x in sorted(matroid.ground_set() - prepared.part)}
        for circuit in circuits.values():
            if circuit is not None:
                assert type(circuit) is frozenset and circuit is not prepared.part
                taken.append((circuit, set(circuit)))
        free = [x for x, circuit in circuits.items() if circuit is None]
        if prepared.part and (not free or rng.random() < 0.5):
            prepared.remove(rng.choice(sorted(prepared.part)))
        elif free:
            prepared.add(rng.choice(free))
        else:  # an empty part and only loops outside it
            break
        assert all(circuit == copy for circuit, copy in taken)


@settings(max_examples=150, deadline=None)
@given(matroids(), st.randoms(use_true_random=False))
def test_circuits_survive_later_moves(matroid, rng):
    assert_circuits_are_snapshots(matroid, rng)
    assert_circuits_are_snapshots(matroid, rng, lambda part: core.PreparedPart(matroid, part))


@settings(max_examples=100, deadline=None)
@given(matroids(max_n=5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_slot_circuits_survive_later_moves(inner, k, rng):
    bases = [random_basis(inner, rng)]
    bases += [rng.choice((bases[0], random_basis(inner, rng))) for _ in range(k)]
    assert_circuits_are_snapshots(disjoint_copies(inner, bases), rng)


def assert_whole_circuits_stay_fresh(matroid, part, rng):
    """Swap elements out of and into a full prepared part.  Until a move,
    every whole-part circuit is one shared frozenset.  After each remove and
    each add, ``whole()`` is the part, every circuit is a freshly prepared
    part's, and the whole-part
    circuit is a new frozenset that holds the added element and misses the
    removed one."""
    prepared = matroid._prepare(frozenset(part))
    ground = matroid.ground_set()

    def circuits():
        assert prepared.whole() == prepared.part  # so a later add must let it go
        fresh = matroid._prepare(frozenset(prepared.part))
        found = {x: prepared.circuit(x) for x in sorted(ground - prepared.part)}
        assert found == {x: fresh.circuit(x) for x in found}
        return found

    def wholes():
        found = [c for c in circuits().values() if c is not None and c == prepared.part]
        assert found and all(c is found[0] for c in found)
        return found[0]

    before = wholes()
    for _ in range(12):
        removed = rng.choice(sorted(prepared.part))
        prepared.remove(removed)
        free = [x for x, c in circuits().items() if c is None and x != removed]
        added = rng.choice(free)
        prepared.add(added)
        after = wholes()
        assert after is not before and added in after and removed not in after
        before = after


@pytest.mark.parametrize("seed", range(5))
def test_uniform_whole_circuits_stay_fresh(seed):
    assert_whole_circuits_stay_fresh(UniformMatroid(8, 4), {0, 1, 2, 3}, random.Random(seed))


@pytest.mark.parametrize("seed", range(5))
def test_slot_whole_circuits_stay_fresh(seed):
    # Slots 0-2 copy basis 0; a slot whose element they miss closes the
    # whole part, and a copy of one they hold closes a parallel pair.
    lift = disjoint_copies(UniformMatroid(6, 3), [{0, 1, 2}, {3, 4, 5}, {0, 2, 4}])
    assert_whole_circuits_stay_fresh(lift, {0, 1, 2}, random.Random(seed))


def test_partitions_hold_frozensets():
    problem = PartitionProblem(range(4), [Arm({0, 1, 2}, UniformMatroid(4, 2)),
                                          Arm({1, 2, 3}, UniformMatroid(4, 2))])
    outcome = matroid_partition(problem)
    assert outcome.parts == (frozenset({0, 1}), frozenset({2, 3}))
    assert all(type(part) is frozenset for part in outcome.parts)
    spec = InstanceGenSpec(matroid_class="graphic", k=3, seed=1, vertices=6, n=12)
    result = cyclic_exchange(random_instance(spec))
    assert all(type(part) is frozenset for part in result.partition)


def cycle(n):
    """The cycle C_n: edge i joins vertices i and i + 1 mod n."""
    return GraphicMatroid(n, [(i, (i + 1) % n) for i in range(n)])


def assert_lift_remaps_inner_circuits(lift):
    """For every independent slot part of ``lift`` and every slot x outside
    it, the circuit is the parallel copy of x's element if the part holds
    one, and otherwise the inner circuit mapped slot by slot."""
    for size in range(lift.ground_size + 1):
        for part in map(frozenset, itertools.combinations(range(lift.ground_size), size)):
            if not lift.is_independent(part):
                continue
            prepared = lift._prepare(part)
            slot_of = {lift.slots[j][1]: j for j in part}
            inner = lift.inner._prepare(frozenset(slot_of))
            for x in sorted(lift.ground_set() - part):
                e = lift.slots[x][1]
                found = frozenset({e}) if e in slot_of else inner.circuit(e)
                expected = None if found is None else frozenset(slot_of[y] for y in found)
                assert prepared.circuit(x) == expected, (lift, part, x)


@pytest.mark.parametrize("lift", [
    disjoint_copies(UniformMatroid(5, 2), [{0, 1}, {2, 3}, {1, 4}]),
    disjoint_copies(UniformMatroid(3, 0), [set(), set()]),
    # the part holding one whole path of C_5 or C_6 closes the whole forest
    disjoint_copies(cycle(5), [{0, 1, 2, 3}, {1, 2, 3, 4}]),
    disjoint_copies(cycle(6), [{0, 1, 2, 3, 4}, {5, 0, 1, 2, 3}]),
    disjoint_copies(LinearMatroid(2, 3, FANO_COLUMNS), [{0, 1, 3}, {2, 4, 6}]),
    disjoint_copies(LinearMatroid(3, 2, [[1, 0], [0, 1], [1, 1], [1, 2]]), [{0, 1}, {2, 3}]),
    disjoint_copies(BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]), [{0, 1, 3}, {1, 2, 3}]),
    # slots copying a loop (the self-loop edge 2; element 4, in no basis)
    SlotMatroid(GraphicMatroid(3, [(0, 1), (1, 2), (2, 2)]), [(0, 0), (0, 2), (1, 1), (1, 2)]),
    SlotMatroid(BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]), [(0, 4), (0, 0), (1, 4)]),
], ids=repr)
def test_lifted_circuits_remap_inner_ones(lift):
    assert_lift_remaps_inner_circuits(lift)


def test_whole_part_circuit_lifts_the_whole_part():
    # A Hamiltonian path of C_6 as the part: the other edge closes all of it.
    lift = disjoint_copies(cycle(6), [{0, 1, 2, 3, 4}, {1, 2, 3, 4, 5}])
    prepared = lift._prepare(frozenset(range(5)))  # the first block: edges 0..4
    assert prepared.circuit(9) == frozenset(range(5))  # slot 9 copies edge 5
    prepared.remove(2)
    assert prepared.circuit(9) is None
    prepared.add(6)  # slot 6 copies edge 2 again
    assert prepared.circuit(9) == frozenset({0, 1, 3, 4, 6})
    prepared.remove(0)
    prepared.add(9)
    assert prepared.circuit(0) == frozenset({1, 3, 4, 6, 9})
    assert prepared.circuit(5) == frozenset({1})  # slot 5 copies edge 1, as slot 1 does


# --- one-pass greedy scans ----------------------------------------------------


def independent_by_combinations(prime, columns):
    """No nontrivial GF(prime) combination of the columns is zero."""
    rows = len(columns[0]) if columns else 0
    for coeffs in itertools.product(range(prime), repeat=len(columns)):
        if any(coeffs) and not any(
            sum(c * col[r] for c, col in zip(coeffs, columns)) % prime for r in range(rows)
        ):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(matroids(), st.frozensets(st.integers(0, 6)))
def test_greedy_scan_matches_generic(matroid, elements):
    # graphic and linear grow one forest / one echelon form instead
    elements = frozenset(e for e in elements if e < matroid.ground_size)
    assert matroid.greedy_independent(elements) == Matroid.greedy_independent(matroid, elements)


def complete_graph(vertices):
    return [[u, v] for u in range(vertices) for v in range(u + 1, vertices)]


@pytest.mark.parametrize(
    "matroid",
    [GraphicMatroid(v, complete_graph(v)) for v in range(9)] + [
        GraphicMatroid(7, K4_EDGES),  # three isolated vertices
        GraphicMatroid(6, complete_graph(4) + [[1, 1], [0, 1], [4, 4]]),
        GraphicMatroid(1, [[0, 0], [0, 0]]),  # self-loops only
        GraphicMatroid(3, [[2, 2], [0, 0], [1, 1]]),
    ],
    ids=repr,
)
def test_graphic_greedy_scan_stops_once_spanning(matroid, monkeypatch):
    # The same witness as the generic scan.  The scan examines every edge
    # up to the one that makes the forest span (vertex_count - 1 edges), and
    # none after it.
    examined = []
    joins = GraphicMatroid._joins

    def counting_joins(self, ids):
        for joined in joins(self, ids):
            examined.append(joined)
            yield joined

    monkeypatch.setattr(GraphicMatroid, "_joins", counting_joins)
    rng = random.Random(matroid.ground_size)
    ground = matroid.ground_set()
    subsets = [ground] + [frozenset(e for e in ground if rng.random() < 0.6) for _ in range(20)]
    for elements in subsets:
        examined.clear()
        witness = matroid.greedy_independent(elements)
        ordered = sorted(elements)
        if len(witness) < matroid.vertex_count - 1:
            assert len(examined) == len(ordered), elements
        else:  # the forest spans at its last edge
            assert len(examined) == (ordered.index(max(witness)) + 1 if witness else 0), elements
        assert witness == Matroid.greedy_independent(matroid, elements), elements


@st.composite
def sparse_graphs(draw, max_edges=7):
    """Multigraphs on a few vertex ids anywhere below 10**9, with self-loops,
    parallel edges and isolated vertices (ids no edge touches, and up to
    three more above the largest id)."""
    ids = draw(st.lists(st.integers(0, 10**9 - 1), min_size=1, max_size=6, unique=True))
    vertex = st.sampled_from(ids)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    return GraphicMatroid(max(ids) + 1 + draw(st.integers(0, 3)), edges)


@settings(max_examples=300, deadline=None)
@given(sparse_graphs(), st.randoms(use_true_random=False))
def test_graphic_paths_match_reference_union_find(matroid, rng):
    # Every subset against a union-find on the raw vertex ids; prepared
    # forest parts against fresh ones and against the generic oracle part.
    ground = sorted(matroid.ground_set())
    for size in range(len(ground) + 1):
        for subset in map(frozenset, itertools.combinations(ground, size)):
            forest = union_find_forest(matroid.edges, subset)
            assert matroid.is_independent(subset) == (forest == subset), subset
            assert matroid.rank(subset) == len(forest), subset
            assert matroid.greedy_independent(subset) == forest, subset
    assert_changes_like_fresh(matroid, rng)
    assert_changes_like_fresh(matroid, rng, lambda part: core.PreparedPart(matroid, part))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: linear_matroids(n, primes=(2, 3, 5))),
       st.frozensets(st.integers(0, 5)))
def test_linear_independence_matches_combinations(matroid, elements):
    # small primes only: the check tries every combination of the columns
    elements = frozenset(e for e in elements if e < matroid.ground_size)
    expected = independent_by_combinations(
        matroid.prime, [matroid.columns[e] for e in sorted(elements)])
    assert matroid.is_independent(elements) == expected


# --- circuit-based solver vs the one-query-per-arc reference ----------------


@pytest.mark.parametrize("seed", range(120))
def test_solver_matches_reference_on_random_problems(seed):
    problem = random_problem(seed)
    assert matroid_partition(problem) == reference_partition(problem)


def test_solver_matches_reference_on_exchange_shaped_problems(monkeypatch):
    # Each element in at most 2 of up to 6 arms, as in the exchange.  Both
    # outcomes must come up, certificates with more than one reached node
    # (so the witness compares the whole search) and paths that swap.
    augment, lengths = union._augment, []

    def measuring(arms_of, prepared, owner, source):
        before = dict(owner)
        reached = augment(arms_of, prepared, owner, source)
        if reached is None:
            lengths.append(sum(before.get(x) != arm for x, arm in owner.items()) - 1)
        return reached

    monkeypatch.setattr(union, "_augment", measuring)
    witnesses = []
    for seed in range(1000):
        problem = exchange_shaped_problem(seed)
        outcome = matroid_partition(problem)
        assert outcome == reference_partition(problem), seed
        if isinstance(outcome, DeficiencyCertificate):
            witnesses.append(outcome.size)
    assert 200 < len(witnesses) < 800  # 663
    assert sum(size > 2 for size in witnesses) > 200  # 432
    assert sum(length > 0 for length in lengths) > 200  # 387
    assert max(lengths) > 2


def test_direct_and_searched_insertions_match_reference(monkeypatch):
    # Exchange lifts of U(2r, r): every part fills up, and then insertions
    # search long paths.  Each insertion is one _augment call, whether an
    # arm takes the source directly or a search finds a path.
    augmented = check_every_augmentation(monkeypatch)
    checking, lengths = union._augment, []

    def measuring(arms_of, prepared, owner, source):
        before = dict(owner)
        reached = checking(arms_of, prepared, owner, source)
        if reached is None:
            lengths.append(sum(before.get(x) != arm for x, arm in owner.items()) - 1)
        return reached

    monkeypatch.setattr(union, "_augment", measuring)
    for r in range(5, 9):
        for k in range(3, 7):
            for seed in range(5):
                spec = InstanceGenSpec(matroid_class="uniform", n=2 * r, rank=r, k=k, seed=seed)
                classes = exchange.build_color_classes(random_instance(spec))
                lifted = classes.lifted
                problem = PartitionProblem(
                    lifted.ground_set(), [Arm(c, lifted) for c in classes.classes])
                augmented.clear()
                outcome = matroid_partition(problem)
                assert outcome == reference_partition(problem), (r, k, seed)
                assert augmented == sorted(problem.universe), (r, k, seed)
    direct = lengths.count(0)
    assert len(lengths) == sum(k * r for r in range(5, 9) for k in range(3, 7)) * 5
    assert direct > len(lengths) // 2 and len(lengths) - direct > 40  # 2,278 and 62
    assert max(lengths) > 4  # 8


@st.composite
def problems(draw):
    n = draw(st.integers(1, 7))
    arms = [Arm(draw(st.frozensets(st.integers(0, n - 1))), draw(matroids_on(n)))
            for _ in range(draw(st.integers(1, 3)))]
    return PartitionProblem(frozenset(range(n)), arms)


@settings(max_examples=300, deadline=None)
@given(problems())
def test_solver_matches_reference_on_generated_problems(problem):
    assert matroid_partition(problem) == reference_partition(problem)


EXCHANGE_SPECS = [
    dict(matroid_class="uniform", n=9, rank=4),
    dict(matroid_class="graphic", vertices=6, n=12),
    dict(matroid_class="linear", prime=2, rows=4, n=10),
    dict(matroid_class="linear", prime=3, rows=4, n=10),
    dict(matroid_class="bases", n=8, rank=3),
]


@pytest.mark.parametrize("spec", EXCHANGE_SPECS, ids=lambda s: s["matroid_class"])
def test_solver_matches_reference_on_exchange_instances(spec, monkeypatch):
    solved = []

    def both(problem):
        outcome = matroid_partition(problem)
        assert outcome == reference_partition(problem)
        solved.append(outcome)
        return outcome

    monkeypatch.setattr(exchange, "matroid_partition", both)
    for k in (2, 3, 4):
        for seed in range(6):
            cyclic_exchange(random_instance(InstanceGenSpec(k=k, seed=seed, **spec)))
    assert len(solved) == 18
