"""Fundamental circuits: every class's prepared part against the generic
oracle loop and a brute-force minimal-circuit search, grown and shrunk parts
against fresh ones, and the circuit-based partition solver against the
one-query-per-arc reference solver."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from matrex import (
    Arm,
    BasisMatroid,
    DeficiencyCertificate,
    ExchangeInstance,
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
    OracleOnly,
    check_every_augmentation,
    circuit_or_none,
    exchange_shaped_problem,
    fixture_matroids,
    grown,
    indexed,
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
    own, generic = grown(matroid._prepare(), s), grown(core.PreparedPart(matroid), s)
    for x in sorted(matroid.ground_set() - s):
        expected = brute_circuit(matroid, s, x)
        assert circuit_or_none(generic, x) == expected, (matroid, s, x)
        assert circuit_or_none(own, x) == expected, (matroid, s, x)


def assert_grows_like_fresh(matroid, rng):
    """Grow one prepared part by random elements that it takes; after every
    step it answers every x outside the part as a fresh one does."""
    part = random_independent(matroid, rng)
    prepared = grown(matroid._prepare(), part)
    while True:
        fresh = grown(matroid._prepare(), part)
        outside = sorted(matroid.ground_set() - part)
        for x in outside:
            assert circuit_or_none(prepared, x) == circuit_or_none(fresh, x), (matroid, part, x)
        free = [x for x in outside if fresh.takes(x)]
        if not free:
            return
        x = rng.choice(free)
        prepared.add(x)
        part |= {x}
        assert prepared.part == part


def assert_changes_like_fresh(matroid, rng, prepare=None):
    """Add and remove random elements of one prepared part, asking whether
    it takes each element before adding it, as the solver does.  After every
    step the part answers every x outside it as a fresh one, an empty part
    made by ``prepare`` (by default the matroid's own) and grown to the same
    set, does: ``takes`` as the fresh ``takes``, and for a refused x
    ``circuit`` as the fresh ``circuit``."""
    prepare = prepare or matroid._prepare
    part = random_independent(matroid, rng)
    prepared = grown(matroid._prepare(), part)
    for _ in range(2 * matroid.ground_size + 2):
        fresh = grown(prepare(), part)
        outside = sorted(matroid.ground_set() - part)
        for x in outside:
            takes = prepared.takes(x)
            assert takes == fresh.takes(x), (matroid, part, x)
            if not takes:
                assert prepared.circuit(x) == fresh.circuit(x), (matroid, part, x)
        free = [x for x in outside if fresh.takes(x)]
        if part and (not free or rng.random() < 0.5):
            y = rng.choice(sorted(part))
            prepared.remove(y)
            part -= {y}
        elif free:
            x = rng.choice(free)
            assert prepared.takes(x)
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


@st.composite
def multigraphs(draw, max_n=7):
    """A graphic matroid of up to ``max_n`` edges on five vertices, with
    self-loops and parallel edges; its touched vertices need not be dense."""
    low = draw(st.integers(0, 2))
    vertex = st.integers(low, draw(st.integers(low, 4)))
    return GraphicMatroid(5, draw(st.lists(st.tuples(vertex, vertex), max_size=max_n)))


@settings(max_examples=150, deadline=None)
@given(multigraphs(), st.integers(1, 3), st.randoms(use_true_random=False))
def test_graphic_lift_parts_change_like_slot_parts(inner, k, rng):
    # The lift of a graphic matroid prepares forest parts over its slots.
    # Each answers takes and circuit, and changes under add and remove, as
    # the slot part of the same lift does; repeated bases and parallel
    # edges give an edge several parallel copies.
    bases = [random_basis(inner, rng)]
    bases += [rng.choice((bases[0], random_basis(inner, rng))) for _ in range(k)]
    lift = disjoint_copies(inner, bases)
    assert type(lift._prepare()) is core._ForestPart
    assert_changes_like_fresh(lift, rng, lambda: core._SlotPart(lift))


@pytest.mark.parametrize(
    "matroid",
    [
        UniformMatroid(0, 0), UniformMatroid(5, 0), UniformMatroid(5, 5), UniformMatroid(6, 3),
        # zero and repeated columns over GF(2), GF(3) and GF(5)
        LinearMatroid(2, 2, [[0, 0], [1, 0], [1, 0], [0, 1], [1, 1]]),
        LinearMatroid(3, 2, [[1, 2], [0, 0], [2, 1], [1, 2], [0, 1]]),
        LinearMatroid(5, 3, [[1, 2, 3], [2, 4, 1], [0, 0, 0], [0, 1, 4], [1, 0, 0], [1, 0, 0]]),
        LinearMatroid(3, 0, [[], []]),
        # fields wider than a byte
        LinearMatroid(257, 2, [[1, 256], [0, 0], [256, 1], [3, 5], [1, 256]]),
        # a self-loop and parallel edges
        GraphicMatroid(4, [[0, 1], [1, 2], [2, 2], [0, 1], [0, 2], [1, 0], [3, 2]]),
        GraphicMatroid(4, K4_EDGES),
        BasisMatroid(4, [[0, 1], [0, 2], [1, 2]]),
        # a loop (4) and a coloop (3); rank 0 with loops only
        BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]),
        BasisMatroid(3, [[]]),
        disjoint_copies(GraphicMatroid(4, K4_EDGES), [{0, 1, 2}, {0, 1, 2}, {3, 4, 5}]),
        disjoint_copies(UniformMatroid(4, 2), [{0, 1}, {0, 1}]),
        disjoint_copies(LinearMatroid(3, 2, [[1, 2], [0, 1], [2, 1], [1, 2]]), [{0, 1}, {0, 1}, {1, 2}]),
        SlotMatroid(BasisMatroid(4, [[0, 1], [0, 2], [1, 2]]), [{0, 3}, {0, 1}, {3}]),
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
                                  lambda: core.PreparedPart(matroid))


class CountedScans(dict):
    """A basis family that counts the scans made of it."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_basis_part_scans_the_family_once_per_element():
    # The takes, circuit and add of one x share one scan of the family,
    # until the part's next move; a loop needs none.  A remove forgets the
    # scan: kept, it would still refuse 2.
    matroid = BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]])  # 4 is a loop
    part = grown(matroid._prepare(), {0})
    matroid._masks = CountedScans(matroid._masks)
    assert part.takes(1)
    part.add(1)
    assert matroid._masks.scans == 1
    assert part.takes(3)
    assert not part.takes(4) and part.circuit(4) == set()
    assert not part.takes(2) and part.circuit(2) == {0, 1}
    assert matroid._masks.scans == 3
    part.remove(1)
    assert part.takes(2)
    assert matroid._masks.scans == 4


def with_slots(matroid):
    """``matroid`` and its lift over two copies of its first basis and one
    more basis: parallel slot copies of every element of the first."""
    bases = matroid.enumerate_bases()
    return [matroid, disjoint_copies(matroid, [bases[0], bases[0], bases[-1]])]


TAKES_CORPUS = [lift for matroid in [
    OracleOnly(GraphicMatroid(4, K4_EDGES)),  # the default oracle part
    UniformMatroid(6, 3),
    GraphicMatroid(4, [[0, 1], [1, 2], [2, 2], [0, 1], [0, 2], [1, 0], [3, 2]]),
    LinearMatroid(2, 3, FANO_COLUMNS + [[0, 0, 0], [1, 1, 0]]),
    LinearMatroid(3, 3, [[1, 2, 0], [0, 0, 0], [2, 1, 0], [0, 1, 1], [1, 0, 2], [1, 1, 1]]),
    LinearMatroid(257, 3, [[1, 0, 256], [0, 0, 0], [2, 5, 7], [0, 1, 0], [256, 0, 1], [1, 1, 1]]),
    BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]),  # a loop (4) and a coloop (3)
] for lift in with_slots(matroid)]


@pytest.mark.parametrize("matroid", TAKES_CORPUS, ids=repr)
def test_takes_matches_circuits_after_changes(matroid):
    # Seeded add and remove sequences: after each move, takes(x) is a fresh
    # part's takes(x), and for a refused x circuit(x) is the fresh part's
    # circuit(x), with the matroid's own part and the default oracle part
    # as the fresh one alike.
    for seed in range(10):
        assert_changes_like_fresh(matroid, random.Random(seed))
        assert_changes_like_fresh(matroid, random.Random(seed),
                                  lambda: core.PreparedPart(matroid))


# (matroid, an independent part, an x that it must refuse, a y outside it): x
# would make the part dependent, or is a member of it
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
    # the default oracle part
    (OracleOnly(UniformMatroid(4, 2)), {0, 1}, 2, 3),
    (OracleOnly(GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])), {0, 1}, 2, 2),
    (OracleOnly(BasisMatroid(4, [[0, 1], [0, 2], [1, 2]])), {0}, 3, 1),  # a loop
    # a member, in a part with room for more
    (UniformMatroid(4, 2), {0}, 0, 1),
    (GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)]), {0}, 0, 1),
    (LinearMatroid(3, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]), {0}, 0, 1),
    (LinearMatroid(2, 2, [[1, 0], [0, 1]]), {0}, 0, 1),
    (BasisMatroid(4, [[0, 1], [0, 2], [1, 2]]), {0}, 0, 1),
    (disjoint_copies(UniformMatroid(3, 2), [{0, 1}, {0, 1}]), {0}, 0, 1),
    (OracleOnly(UniformMatroid(4, 2)), {0}, 0, 1),
]


@pytest.mark.parametrize("matroid, part, x, y", MISUSES, ids=lambda v: repr(v)[:40])
def test_prepared_parts_refuse_misuse(matroid, part, x, y):
    # An add of a member or of an element that makes the part dependent, and
    # a remove of a non-member, raise, name the class and the element, and
    # leave the part as it was.  A linear part that took a member would keep
    # two rows with its tag, and break a later add.
    prepared = grown(matroid._prepare(), part)
    name = type(matroid).__name__
    with pytest.raises(InternalVerificationError, match=f"^{name} part: adding {x} makes"):
        prepared.add(x)
    with pytest.raises(InternalVerificationError, match=f"^{name} part: {y} is not in the part"):
        prepared.remove(y)
    assert prepared.part == part
    fresh = grown(matroid._prepare(), part)
    for e in sorted(matroid.ground_set() - part):
        assert circuit_or_none(prepared, e) == circuit_or_none(fresh, e)


def test_slot_part_refuses_an_inner_dependent_add():
    # The inner part refuses, naming the inner element the slot copies.
    lift = disjoint_copies(LinearMatroid(2, 2, [[1, 0], [0, 1], [1, 1]]), [{0, 1}, {1, 2}])
    prepared = grown(lift._prepare(), {0, 1})  # slots copying columns 0 and 1
    assert type(prepared) is core._SlotPart
    with pytest.raises(InternalVerificationError, match="^LinearMatroid part: adding 2 makes"):
        prepared.add(3)  # slot 3 copies column 2
    assert prepared.part == {0, 1}
    # A graphic lift's forest part is of the lift itself, and names the slot.
    lift = disjoint_copies(GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)]), [{0, 1}, {1, 2}])
    prepared = grown(lift._prepare(), {0, 1})  # slots copying edges 0 and 1
    assert type(prepared) is core._ForestPart
    with pytest.raises(InternalVerificationError, match="^SlotMatroid part: adding 3 makes"):
        prepared.add(3)  # slot 3 copies edge 2
    assert prepared.part == {0, 1}


# --- parts that change in place ----------------------------------------------


class PartContract(RuleBasedStateMachine):
    """One prepared part of ``matroid`` under its four calls in any order:
    ``takes(x)`` and ``add(x)`` of an x outside the part, ``add(x)`` of a
    member, ``circuit(x)`` of an x that ``takes`` refused since the last
    move, and ``remove(y)`` of any y.  The part starts empty and takes its
    first elements through ``add``, in the order drawn.  Each answer is
    that of a part freshly grown to the current set, by the class and by
    the oracle alike.  An add of a member, and an add or remove that the
    fresh part refuses, must raise and leave the part as it was, so it ends
    no answer: every circuit given since the last move still holds, also
    one that is the live part itself."""

    matroid: Matroid

    @initialize(data=st.data())
    def prepare(self, data):
        # Any independent set, grown in any order: an ordered choice of
        # elements, each added when the set stays independent.
        n = self.matroid.ground_size
        self.part, self.prepared = set(), self.matroid._prepare()
        for e in data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n)):
            if self.matroid._indep(frozenset(self.part | {e})):
                self.prepared.add(e)
                self.part.add(e)
        self.refused = set()  # refused by takes since the last move
        self.circuits = []  # (circuit, its value when given) since the last move

    def fresh(self):
        return grown(self.matroid._prepare(), self.part), \
            grown(core.PreparedPart(self.matroid), self.part)

    def outside(self):
        return sorted(self.matroid.ground_set() - self.part)

    def moved(self):
        self.refused.clear()
        self.circuits.clear()

    @precondition(lambda self: self.outside())
    @rule(data=st.data())
    def takes(self, data):
        x = data.draw(st.sampled_from(self.outside()))
        answer = self.prepared.takes(x)
        assert all(answer == fresh.takes(x) for fresh in self.fresh())
        if not answer:
            self.refused.add(x)

    @precondition(lambda self: self.refused)
    @rule(data=st.data())
    def circuit(self, data):
        x = data.draw(st.sampled_from(sorted(self.refused)))
        answer = self.prepared.circuit(x)
        assert all(answer == circuit_or_none(fresh, x) for fresh in self.fresh())
        self.circuits.append((answer, frozenset(answer)))

    @precondition(lambda self: self.outside())
    @rule(data=st.data())
    def add(self, data):
        x = data.draw(st.sampled_from(self.outside()))
        if self.fresh()[1].takes(x):
            self.prepared.add(x)
            self.part.add(x)
            self.moved()
        else:
            with pytest.raises(InternalVerificationError):
                self.prepared.add(x)

    @precondition(lambda self: self.part)
    @rule(data=st.data())
    def add_member(self, data):
        x = data.draw(st.sampled_from(sorted(self.part)))
        with pytest.raises(InternalVerificationError):
            self.prepared.add(x)
        assert self.prepared.part == self.part

    @rule(data=st.data())
    def remove(self, data):
        y = data.draw(st.integers(0, self.matroid.ground_size - 1))
        if y in self.part:
            self.prepared.remove(y)
            self.part.remove(y)
            self.moved()
        else:
            with pytest.raises(InternalVerificationError):
                self.prepared.remove(y)

    @invariant()
    def answers_hold(self):
        assert self.prepared.part == self.part
        assert all(answer == value for answer, value in self.circuits)


# The part classes the contract covers: uniform, forest, GF(2), GF(3), a
# prime with two-byte fields, bases-type, the default oracle part, and the
# slot lift of each.
CONTRACT_CORPUS = [lift for matroid in [
    UniformMatroid(6, 3),
    GraphicMatroid(4, [[0, 1], [1, 2], [2, 2], [0, 1], [0, 2], [1, 0], [3, 2]]),
    LinearMatroid(2, 3, FANO_COLUMNS + [[0, 0, 0], [1, 1, 0]]),
    LinearMatroid(3, 3, [[1, 2, 0], [0, 0, 0], [2, 1, 0], [0, 1, 1], [1, 0, 2], [1, 1, 1]]),
    LinearMatroid(131, 3, [[1, 0, 130], [0, 0, 0], [2, 5, 7], [0, 1, 0], [130, 0, 1], [1, 1, 1],
                           [4, 10, 14]]),
    BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]),  # a loop (4) and a coloop (3)
    OracleOnly(GraphicMatroid(4, K4_EDGES)),
] for lift in with_slots(matroid)]


@pytest.mark.parametrize("matroid", CONTRACT_CORPUS, ids=repr)
def test_part_contract(matroid):
    machine = type("PartContractOn", (PartContract,), {"matroid": matroid})
    run_state_machine_as_test(
        machine, settings=settings(max_examples=60, stateful_step_count=30, deadline=None))


def assert_circuits_hold_until_a_move(matroid, rng, prepare=None):
    """Add and remove random elements of one prepared part.  Its ``part`` is
    its own set, and before every move the answers it gave since the last
    move (None for an x it takes, else the circuit), compared once all of
    them are asked, are a freshly prepared part's."""
    prepared = grown((prepare or matroid._prepare)(), random_independent(matroid, rng))
    assert type(prepared.part) is set
    for _ in range(2 * matroid.ground_size + 2):
        circuits = {x: circuit_or_none(prepared, x)
                    for x in sorted(matroid.ground_set() - prepared.part)}
        fresh = grown(matroid._prepare(), prepared.part)
        assert circuits == {x: circuit_or_none(fresh, x) for x in circuits}
        free = [x for x, circuit in circuits.items() if circuit is None]
        if prepared.part and (not free or rng.random() < 0.5):
            prepared.remove(rng.choice(sorted(prepared.part)))
        elif free:
            prepared.add(rng.choice(free))
        else:  # an empty part and only loops outside it
            break


@settings(max_examples=150, deadline=None)
@given(matroids(), st.randoms(use_true_random=False))
def test_circuits_hold_until_the_next_move(matroid, rng):
    assert_circuits_hold_until_a_move(matroid, rng)
    assert_circuits_hold_until_a_move(matroid, rng, lambda: core.PreparedPart(matroid))


@settings(max_examples=100, deadline=None)
@given(matroids(max_n=5), st.integers(1, 3), st.randoms(use_true_random=False))
def test_slot_circuits_hold_until_the_next_move(inner, k, rng):
    bases = [random_basis(inner, rng)]
    bases += [rng.choice((bases[0], random_basis(inner, rng))) for _ in range(k)]
    assert_circuits_hold_until_a_move(disjoint_copies(inner, bases), rng)


def assert_whole_circuits_stay_fresh(matroid, part, rng):
    """Swap elements out of and into a full prepared part.  Before the first
    move and after each remove and each add, every circuit is a freshly
    prepared part's, and after each add some element closes the whole
    part."""
    prepared = grown(matroid._prepare(), part)
    ground = matroid.ground_set()

    def circuits():
        fresh = grown(matroid._prepare(), prepared.part)
        found = {x: circuit_or_none(prepared, x) for x in sorted(ground - prepared.part)}
        assert found == {x: circuit_or_none(fresh, x) for x in found}
        return found

    def closes_the_whole_part():
        assert any(c == prepared.part for c in circuits().values())

    closes_the_whole_part()
    for _ in range(12):
        removed = rng.choice(sorted(prepared.part))
        prepared.remove(removed)
        free = [x for x, c in circuits().items() if c is None and x != removed]
        prepared.add(rng.choice(free))
        closes_the_whole_part()


@pytest.mark.parametrize("seed", range(5))
def test_uniform_whole_circuits_stay_fresh(seed):
    assert_whole_circuits_stay_fresh(UniformMatroid(8, 4), {0, 1, 2, 3}, random.Random(seed))


@pytest.mark.parametrize("seed", range(5))
def test_slot_whole_circuits_stay_fresh(seed):
    # Slots 0-2 copy basis 0; a slot whose element they miss closes the
    # whole part, and a copy of one they hold closes a parallel pair.
    lift = disjoint_copies(UniformMatroid(6, 3), [{0, 1, 2}, {3, 4, 5}, {0, 2, 4}])
    assert_whole_circuits_stay_fresh(lift, {0, 1, 2}, random.Random(seed))


def test_whole_part_circuits_are_the_live_part():
    # A full uniform part, and a slot part whose inner circuit is all of its
    # inner part, answer with ``part`` itself: no copy of the part is made.
    # A forest part answers with its tree path, a new set, even then.
    uniform = grown(UniformMatroid(4, 2)._prepare(), {0, 1})
    assert uniform.circuit(2) is uniform.part
    lift = disjoint_copies(UniformMatroid(4, 2), [{0, 1}, {2, 3}])
    slots = grown(lift._prepare(), {0, 1})  # the slots copying elements 0 and 1
    assert slots.circuit(2) is slots.part  # slot 2 copies element 2


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
            prepared = grown(lift._prepare(), part)
            slot_of = {lift.slots[j][1]: j for j in part}
            inner = grown(lift.inner._prepare(), slot_of)
            for x in sorted(lift.ground_set() - part):
                e = lift.slots[x][1]
                found = frozenset({e}) if e in slot_of else circuit_or_none(inner, e)
                expected = None if found is None else frozenset(slot_of[y] for y in found)
                assert circuit_or_none(prepared, x) == expected, (lift, part, x)


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
    SlotMatroid(GraphicMatroid(3, [(0, 1), (1, 2), (2, 2)]), [{0, 2}, {1, 2}]),
    SlotMatroid(BasisMatroid(5, [[0, 1, 3], [0, 2, 3], [1, 2, 3]]), [{0, 4}, {4}]),
], ids=repr)
def test_lifted_circuits_remap_inner_ones(lift):
    assert_lift_remaps_inner_circuits(lift)


def test_whole_part_circuit_lifts_the_whole_part():
    # A Hamiltonian path of C_6 as the part: the other edge closes all of it.
    lift = disjoint_copies(cycle(6), [{0, 1, 2, 3, 4}, {1, 2, 3, 4, 5}])
    prepared = grown(lift._prepare(), range(5))  # the first block: edges 0..4
    assert prepared.circuit(9) == frozenset(range(5))  # slot 9 copies edge 5
    prepared.remove(2)
    assert prepared.takes(9)
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
    # up to the one that makes the forest span the touched vertices
    # (``_rank_cap`` edges), and none after it, isolated vertex ids or not.
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
        if len(witness) < matroid._rank_cap:
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
    assert_changes_like_fresh(matroid, rng, lambda: core.PreparedPart(matroid))


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
        before = dict(indexed(owner))
        reached = augment(arms_of, prepared, owner, source)
        if reached is None:
            lengths.append(sum(before.get(x) != arm for x, arm in indexed(owner)) - 1)
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


def closing_problem(seed):
    """3 or 4 arms, each element allowed in 2 or 3 of them, so a source's
    circuits may come from closed and open arms at once: uniform arms,
    whose circuits are their whole parts once full, and K_4 and K_6 arms,
    whose parts' tree paths can be the whole part."""
    rng = random.Random(seed)
    k, n = rng.randint(3, 4), rng.randint(6, 16)
    lists = [rng.sample(range(k), rng.randint(2, 3)) for _ in range(n)]
    arms = []
    for i in range(k):
        vertices = rng.choice((0, 4, 6))
        if vertices:
            edges = list(itertools.combinations(range(vertices), 2))
            matroid = GraphicMatroid(vertices, [rng.choice(edges) for _ in range(n)])
        else:
            matroid = UniformMatroid(n, rng.randint(1, 4))
        arms.append(Arm({x for x, listed in enumerate(lists) if i in listed}, matroid))
    return PartitionProblem(frozenset(range(n)), arms)


def test_solver_matches_reference_where_searches_close_arms(monkeypatch):
    # Once a search has read a circuit that is an arm's whole part, it asks
    # that arm only takes(): True is a sink arc, False adds no label.  The
    # partitions and the certificates' reached sets must not change.
    augment, search, whole, closed_takes = union._augment, [0], set(), []

    def counting(*args):
        search[0] += 1
        return augment(*args)

    def spying(cls):
        circuit, takes = cls.circuit, cls.takes

        def spy_circuit(self, x):
            found = circuit(self, x)
            if len(found) == len(self.part):
                whole.add((search[0], id(self)))
            return found

        def spy_takes(self, x):
            answer = takes(self, x)
            if (search[0], id(self)) in whole:
                closed_takes.append(answer)
            return answer
        monkeypatch.setattr(cls, "circuit", spy_circuit)
        monkeypatch.setattr(cls, "takes", spy_takes)

    monkeypatch.setattr(union, "_augment", counting)
    spying(core._UniformPart)
    spying(core._ForestPart)
    certificates = 0
    for seed in range(400):
        problem = closing_problem(seed)
        outcome = matroid_partition(problem)
        assert outcome == reference_partition(problem), seed
        certificates += isinstance(outcome, DeficiencyCertificate)
    assert 100 < certificates < 250  # 159
    assert closed_takes.count(True) > 30 and closed_takes.count(False) > 1000  # 47 and 1,324


def test_direct_and_searched_insertions_match_reference(monkeypatch):
    # Exchange lifts of U(2r, r): every part fills up, and then insertions
    # search long paths.  Each insertion is one _augment call, whether an
    # arm takes the source directly or a search finds a path.
    augmented = check_every_augmentation(monkeypatch)
    checking, lengths = union._augment, []

    def measuring(arms_of, prepared, owner, source):
        before = dict(indexed(owner))
        reached = checking(arms_of, prepared, owner, source)
        if reached is None:
            lengths.append(sum(before.get(x) != arm for x, arm in indexed(owner)) - 1)
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
    # The exchange's solve, on the lift and the slot lists, against the
    # public solve and the reference on the same problem built from them.
    solved, solve = [], exchange._partition

    def both(matroids, arms_of):
        lists = dict(indexed(arms_of))
        problem = PartitionProblem(lists, [
            Arm({x for x, listed in lists.items() if i in listed}, matroid)
            for i, matroid in enumerate(matroids)])
        outcome = matroid_partition(problem)
        assert outcome == reference_partition(problem)
        parts = solve(matroids, arms_of)
        assert parts == outcome.parts
        solved.append(outcome)
        return parts

    monkeypatch.setattr(exchange, "_partition", both)
    for k in (2, 3, 4):
        for seed in range(6):
            cyclic_exchange(random_instance(InstanceGenSpec(k=k, seed=seed, **spec)))
    assert len(solved) == 18


def wide_uniform_instance(seed, n=120, rank=60, k=6):
    """U(rank, n) with k random bases and a random seed subset of the
    first, as in the uniform-wide benchmark workload: lifts of k * rank
    slots, beyond the enumeration caps of ``random_instance``."""
    rng = random.Random(seed)
    bases = tuple(frozenset(rng.sample(range(n), rank)) for _ in range(k))
    seed_set = frozenset(e for e in sorted(bases[0]) if rng.getrandbits(1))
    return ExchangeInstance(UniformMatroid(n, rank), bases, seed_set)


@pytest.mark.parametrize("instances", [
    *([random_instance(InstanceGenSpec(k=k, seed=seed, **spec))
       for k in (2, 3, 4) for seed in range(6)] for spec in EXCHANGE_SPECS),
    [wide_uniform_instance(seed=1)],
], ids=[spec["matroid_class"] for spec in EXCHANGE_SPECS] + ["uniform-120-k6"])
def test_slot_lists_solve_as_a_dict_does(instances, monkeypatch):
    # The exchange hands the solve its slot lists as a tuple indexed by
    # slot, so owner is a list; matroid_partition hands it a dict, so owner
    # is a dict.  Both must give the same parts and apply the same path at
    # every insertion, and the parts must be the reference's.  Some of
    # those insertions must move more than one node, applying a path.
    augment, owners, kinds, paths = union._augment, [], set(), 0

    def recording(arms_of, prepared, owner, source):
        reached = augment(arms_of, prepared, owner, source)
        kinds.add((type(arms_of), type(owner)))
        owners.append(dict(indexed(owner)))
        return reached

    monkeypatch.setattr(union, "_augment", recording)
    for instance in instances:
        classes = exchange.build_color_classes(instance)
        lifts = [classes.lifted] * instance.k
        runs = []
        for arms_of, kind in ((classes.lists, (tuple, list)),
                              (dict(enumerate(classes.lists)), (dict, dict))):
            owners.clear()
            kinds.clear()
            parts = union._partition(lifts, arms_of)
            assert kinds == {kind}
            assert len(owners) == len(classes.lists)
            runs.append((parts, list(owners)))
        assert runs[0] == runs[1], instance
        paths += sum(sum(before[x] != after[x] for x in after) > 1
                     for before, after in zip(owners, owners[1:]))
        problem = PartitionProblem(
            classes.lifted.ground_set(), [Arm(c, classes.lifted) for c in classes.classes])
        assert runs[0][0] == reference_partition(problem).parts, instance
    assert paths > 0


PART_CLASSES = [core.PreparedPart, core._UniformPart, core._ForestPart, core._EchelonPart,
                core._BasisPart, core._SlotPart]


def test_solves_ask_circuits_only_of_refused_elements(monkeypatch):
    # Every circuit(x) in exchange and partition solves follows a takes(x)
    # that refused x on the same part, with no move of that part in between,
    # for every part class, the default oracle part included.
    refused, circuits = {}, collections.Counter()  # part -> refused since its last move

    def spying(cls, takes, circuit, add, remove):

        def spy_takes(self, x):
            answer = takes(self, x)
            if not answer:
                refused.setdefault(self, set()).add(x)
            return answer

        def spy_circuit(self, x):
            assert x in refused.get(self, ()), f"{cls.__name__} was asked the circuit of {x}"
            circuits[cls] += 1
            return circuit(self, x)

        def moving(method):
            def spy(self, x):
                method(self, x)
                refused.pop(self, None)
            return spy

        monkeypatch.setattr(cls, "takes", spy_takes)
        monkeypatch.setattr(cls, "circuit", spy_circuit)
        monkeypatch.setattr(cls, "add", moving(add))
        monkeypatch.setattr(cls, "remove", moving(remove))

    # Read every method, inherited ones included, before any is patched.
    methods = {cls: [getattr(cls, name) for name in ("takes", "circuit", "add", "remove")]
               for cls in PART_CLASSES}
    for cls, found in methods.items():
        spying(cls, *found)
    for spec in EXCHANGE_SPECS:
        for seed in range(3):
            cyclic_exchange(random_instance(InstanceGenSpec(k=3, seed=seed, **spec)))
    k4 = GraphicMatroid(4, K4_EDGES)
    cyclic_exchange(ExchangeInstance(OracleOnly(k4), [{0, 1, 2}, {3, 4, 5}, {1, 3, 5}], {0, 1}))
    for seed in range(60):
        problem = random_problem(seed)
        oracle = PartitionProblem(problem.universe,
                                  [Arm(arm.allowed, OracleOnly(arm.matroid)) for arm in problem.arms])
        assert matroid_partition(problem) == matroid_partition(oracle) == \
            reference_partition(problem), seed
    assert set(circuits) == set(PART_CLASSES), circuits
