"""Packed GF(p) elimination against a list-based one, for every packing.

``LinearMatroid`` packs each vector into one int.  Over GF(2) an entry is
one bit and a row step one XOR; any other prime gets a field per entry, 1,
2, 4 or 8 bytes wide depending on the prime and the number of rows.  The
primes below reach every width as rows run from 0 to 40, and entries lean
towards 0, 1 and p - 1, the values that make reductions sum the largest
terms.  Over GF(2) rows run to 100, so that a vector and its tag block span
several 30-bit digits of a Python int.  Rank, the greedy witness,
fundamental circuits and changed parts are compared with ``gf_rank`` in
``helpers``, which reduces lists entry by entry, and the one-bit echelon
with the field echelon run at p = 2.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrex import LinearMatroid, ValidationError, core

from helpers import circuit_or_none, gf_circuit, gf_greedy, gf_rank, grown

PRIMES = (2, 3, 5, 251, 257, 65521)


@st.composite
def packed_matroids(draw):
    prime = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 100 if prime == 2 else 40))
    n = draw(st.integers(0, 12))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        return rng.choice((0, 1, prime - 1)) if rng.random() < 0.5 else rng.randrange(prime)

    return LinearMatroid(prime, rows, [[entry() for _ in range(rows)] for _ in range(n)])


def reference_independent(matroid, rng):
    """The greedy witness of a random subset, found by the list-based scan."""
    chosen = [e for e in range(matroid.ground_size) if rng.random() < 0.7]
    return gf_greedy(matroid.prime, matroid.columns, chosen)


def assert_circuits_match(matroid, prepared, part):
    for x in sorted(matroid.ground_set() - part):
        assert circuit_or_none(prepared, x) == gf_circuit(matroid.prime, matroid.columns, part, x), \
            (matroid, part, x)


def test_the_drawn_primes_reach_every_width():
    widths = {core._Fields(p, rows).bits for p in PRIMES for rows in range(41)}
    assert widths == {8, 16, 32, 64}
    assert core._Fields(65521, core.MAX_ROWS - 1).bits == 64


def test_columns_too_long_for_64_bit_fields_are_refused():
    with pytest.raises(ValidationError):
        LinearMatroid(2, core.MAX_ROWS, [])


@settings(max_examples=100, deadline=None)
@given(packed_matroids(), st.frozensets(st.integers(0, 11)))
def test_rank_and_greedy_witness_match_lists(matroid, elements):
    elements = frozenset(e for e in elements if e < matroid.ground_size)
    assert matroid.full_rank() == gf_rank(matroid.prime, matroid.columns)
    witness = gf_greedy(matroid.prime, matroid.columns, elements)
    assert matroid.greedy_independent(elements) == witness
    assert matroid.is_independent(elements) == (witness == elements)


@settings(max_examples=100, deadline=None)
@given(packed_matroids(), st.randoms(use_true_random=False))
def test_circuits_match_lists(matroid, rng):
    part = reference_independent(matroid, rng)
    assert_circuits_match(matroid, grown(matroid._prepare(), part), part)


@settings(max_examples=50, deadline=None)
@given(packed_matroids(), st.randoms(use_true_random=False))
def test_grown_parts_match_lists(matroid, rng):
    part = reference_independent(matroid, rng)
    prepared = grown(matroid._prepare(), part)
    while True:
        assert_circuits_match(matroid, prepared, part)
        free = [x for x in sorted(matroid.ground_set() - part)
                if gf_circuit(matroid.prime, matroid.columns, part, x) is None]
        if not free:
            return
        x = rng.choice(free)
        prepared.add(x)
        part |= {x}


@settings(max_examples=50, deadline=None)
@given(packed_matroids(), st.randoms(use_true_random=False))
def test_changed_parts_match_lists(matroid, rng):
    # removals drop a row and leave a tag slot vacant for the next add
    part = reference_independent(matroid, rng)
    prepared = grown(matroid._prepare(), part)
    for _ in range(matroid.ground_size + 2):
        assert_circuits_match(matroid, prepared, part)
        free = [x for x in sorted(matroid.ground_set() - part)
                if gf_circuit(matroid.prime, matroid.columns, part, x) is None]
        if part and (not free or rng.random() < 0.5):
            y = rng.choice(sorted(part))
            prepared.remove(y)
            part -= {y}
        elif free:
            x = rng.choice(free)
            prepared.add(x)
            part |= {x}
        else:
            return


def chain(prime, rows):
    """Columns -e_1, e_1 - e_2, ..., e_(r-1) - e_r and the all-ones column:
    reducing the last against the others adds (p - 1)**2 to one tag entry
    once per row, the largest sum the field width allows for."""
    columns = [[prime - 1] + [0] * (rows - 1)]
    for i in range(1, rows):
        columns.append([1 if j == i - 1 else prime - 1 if j == i else 0 for j in range(rows)])
    return LinearMatroid(prime, rows, columns + [[1] * rows])


@pytest.mark.parametrize("prime", PRIMES)
def test_largest_sums_stay_in_their_fields(prime):
    for rows in range(1, 41):
        matroid = chain(prime, rows)
        part = frozenset(range(rows))
        assert_circuits_match(matroid, grown(matroid._prepare(), part), part)
        assert matroid.full_rank() == rows
        assert not matroid.is_independent(range(rows + 1))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 100), st.integers(0, 2**32))
def test_bit_echelon_keeps_the_rows_of_the_field_echelon(rows, seed):
    # The same adds and drops on both echelons, with the tag block of a
    # prepared part above the first ``rows`` entries: they answer alike and
    # hold the same rows, entry by entry, mod 2.
    rng = random.Random(seed)
    fields, bits = core._Fields(2, rows), core._Bits()
    general, one_bit = fields.echelon(rows, 2 * rows), bits.echelon(rows, 2 * rows)

    def mod2(vec):  # the entries of a vector of the field echelon, mod 2
        return [a % 2 for a in fields.unpack(vec, 2 * rows)]

    def bits_of(vec):  # the entries of a vector of the one-bit echelon
        return [int(b) for b in reversed(format(vec, f"0{2 * rows}b"))] if rows else []

    def same_rows():
        assert len(general.rows) == len(one_bit.rows)
        for (shift, row), (pivot, bit_row) in zip(general.rows, one_bit.rows):
            assert pivot == 1 << shift // fields.bits
            assert mod2(row) == bits_of(bit_row)

    for _ in range(rows + 8):
        if general.rows and rng.random() < 0.3:
            tag = rng.randrange(rows)
            if any(row >> rows + tag & 1 for _, row in one_bit.rows):
                general.drop((rows + tag) * fields.bits)
                one_bit.drop(rows + tag)
                same_rows()
        else:
            vec = bits_of(rng.getrandbits(2 * rows))
            packed = fields.pack(vec), bits.pack(tuple(vec))
            reduced = general.reduce(packed[0]), one_bit.reduce(packed[1])
            assert mod2(reduced[0]) == bits_of(reduced[1])
            col = general.pivot(reduced[0])
            assert one_bit.pivot(reduced[1]) == col
            if col is not None:
                general.keep(reduced[0], col)
                one_bit.keep(reduced[1], col)
            else:
                assert general.add(packed[0]) is one_bit.add(packed[1]) is False
    same_rows()


def test_gf2_bases_of_the_bench_shape_match_lists():
    # A random 30 x 90 matrix over GF(2), the shape of the linear benchmark.
    rng = random.Random(15)
    columns = [[rng.randrange(2) for _ in range(30)] for _ in range(90)]
    matroid = LinearMatroid(2, 30, columns)
    assert matroid.full_rank() == gf_rank(2, columns)
    found = set()
    for _ in range(300):
        s = rng.sample(range(90), 30)
        found.add(matroid.is_basis(s))
        assert matroid.is_basis(s) == (gf_rank(2, [columns[e] for e in s]) == 30), s
    assert found == {True, False}


def scan_pivot(echelon, vec):
    """The first column below ``width`` where ``vec`` is nonzero mod p, by the
    scan over the unpacked entries that fields wider than a byte use."""
    fields, width = echelon.fields, echelon.width
    entries = fields.unpack(vec & (1 << width * fields.bits) - 1, width)
    return next((c for c, a in enumerate(entries) if a % fields.prime), None)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.integers(0, 6), st.integers(0, 2**32))
def test_one_byte_pivot_matches_the_scan(prime, rows, seed):
    # Random adds and drops on an echelon with a tag block above the first
    # ``rows`` entries, as a prepared part keeps one: the pivot read through
    # the byte table is the scan's on every reduced vector, and that vector
    # is 0 mod p at every pivot, so no pivot is picked twice.
    rng = random.Random(seed)
    fields = core._Fields(prime, rows)
    assert fields.size == 1
    echelon = fields.echelon(rows, 2 * rows)
    for _ in range(3 * rows + 8):
        tags = [t for t in range(rows) if any(
            row >> (rows + t) * fields.bits & fields.mask for _, row in echelon.rows)]
        if tags and rng.random() < 0.3:
            echelon.drop((rows + rng.choice(tags)) * fields.bits)
            continue
        entries = [rng.choice((0, 0, 1, prime - 1, rng.randrange(prime))) for _ in range(rows)]
        tag = [0] * rows
        if rows:
            tag[rng.randrange(rows)] = 1
        vec = echelon.reduce(fields.pack(entries + tag))
        col = echelon.pivot(vec)
        assert col == scan_pivot(echelon, vec)
        assert not any((vec >> shift & fields.mask) % prime for shift, _ in echelon.rows)
        if col is not None:
            echelon.keep(vec, col)
