"""Packed GF(p) elimination against a list-based one, for every field width.

``LinearMatroid`` packs each vector into one int with a field per entry,
1, 2, 4 or 8 bytes wide depending on the prime and the number of rows.  The
primes below reach every width as rows run from 0 to 40, and entries lean
towards 0, 1 and p - 1, the values that make reductions sum the largest
terms.  Rank, the greedy witness, fundamental circuits and changed parts are
compared with ``gf_rank`` in ``helpers``, which reduces lists entry by entry.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrex import LinearMatroid, ValidationError, core

from helpers import gf_circuit, gf_greedy, gf_rank

PRIMES = (2, 3, 5, 251, 257, 65521)


@st.composite
def packed_matroids(draw):
    prime = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 40))
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
        assert prepared.circuit(x) == gf_circuit(matroid.prime, matroid.columns, part, x), \
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
    assert_circuits_match(matroid, matroid._prepare(part), part)


@settings(max_examples=50, deadline=None)
@given(packed_matroids(), st.randoms(use_true_random=False))
def test_grown_parts_match_lists(matroid, rng):
    part = reference_independent(matroid, rng)
    prepared = matroid._prepare(part)
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
    prepared = matroid._prepare(part)
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
        assert_circuits_match(matroid, matroid._prepare(part), part)
        assert matroid.full_rank() == rows
        assert not matroid.is_independent(range(rows + 1))
