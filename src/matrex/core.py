"""Matroid abstractions and concrete matroid classes.

All matroids live on a dense ground set {0, ..., n-1} and are immutable
after construction; the structural access is the independence query, plus
fundamental circuits of a prepared independent part, which every class can
answer through that query and the structured classes answer directly and
keep up to date as the part grows.  Rank, basis tests, enumeration and
the parallel-copy lift are built on top.  A parallel copy of an edge is a
parallel edge, so the forest parts of a graphic matroid's lift read a
table of each slot's two ends, with no second matroid; the other lifts
answer through their inner matroid's part.  A solve restricts a matroid
only through the partition's arms, which query it in its own ids.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from abc import ABC, abstractmethod
from array import array
from collections.abc import Set as AbstractSet
from dataclasses import dataclass

from .errors import InternalVerificationError, SizeLimitError, ValidationError

#: Default ground-size gate for operations that enumerate all r-subsets.
ENUMERATION_CAP = 20

#: Largest basis family whose exchange-axiom check runs.  The check makes
#: at most O(|family|^2) dict operations on masks of the elements outside
#: the common part, plus one per element of each difference b1 - b2 that
#: it walks for a failing first basis.
AXIOM_CHECK_CAP = 256

ElementSet = frozenset[int]


def canon(s) -> list[int]:
    """Canonical emission order for an element set: ascending ids."""
    return sorted(s)


def _as_int(value, name: str | None = None) -> int:
    """``value`` as an int, or raise; the message names ``name`` if given."""
    try:
        return operator.index(value)
    except TypeError:
        expected = f"{name} must be an integer" if name else "expected an integer"
        raise ValidationError(f"{expected}, got {value!r}") from None


def _listed(values, expected: str) -> list:
    """The items of ``values``, or raise "``expected``, got ..." when it is
    not iterable."""
    try:
        items = iter(values)
    except TypeError:
        raise ValidationError(f"{expected}, got {values!r}") from None
    return list(items)


def _count(value, name: str) -> int:
    """``value`` as an int >= 0, or raise; the message names ``name``."""
    value = _as_int(value, name)
    if value < 0:
        raise ValidationError(f"{name} must be >= 0, got {value}")
    return value


def _check_matroid(value, name: str) -> None:
    """Raise "``name`` must be a Matroid, got ..." unless ``value`` is one."""
    if not isinstance(value, Matroid):
        raise ValidationError(f"{name} must be a Matroid, got {value!r}")


def _check_bases(matroid: Matroid, bases) -> None:
    """Raise unless every set of ``bases``, already validated as element
    sets, is a basis of ``matroid``."""
    for idx, b in enumerate(bases):
        if not matroid._basis(b):
            raise ValidationError(f"bases[{idx}] is not a basis of the matroid")


def _element_set(elements, n: int) -> ElementSet:
    """``elements`` as a frozenset of ids in range(n), or raise.  A frozenset
    of ints, as ``io.element_array`` makes, is kept as it is."""
    try:
        if iter(elements) is elements:  # a one-shot iterator: keep its items
            elements = tuple(elements)
    except TypeError:  # not iterable
        raise ValidationError(f"expected a set of element ids, got {elements!r}") from None
    try:
        ints = set(map(type, elements)) <= {int}
        s = frozenset(elements if ints else map(operator.index, elements))
    except TypeError:
        s = frozenset(map(_as_int, elements))  # raises for the first non-integer
    if s and (min(s) < 0 or max(s) >= n):
        for e in s:
            if not 0 <= e < n:
                raise ValidationError(f"element {e} out of range for ground set of size {n}")
    return s


def _mask(s, weight: dict[int, int]) -> int | None:
    """The bitmask of ``s``, the OR of its elements' weights, or None when
    some element of ``s`` has no weight.  The weights are distinct powers of
    two, so a sum would do, but an OR of long ints runs faster: it carries
    nothing."""
    try:
        return functools.reduce(operator.or_, map(weight.__getitem__, s), 0)
    except KeyError:
        return None


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # binary digits -> bytes 0 and 1


def _elements(mask: int, elements: tuple[int, ...]) -> ElementSet:
    """The elements whose bits are set in ``mask``, read in one pass over
    its binary digits, lowest first."""
    digits = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return frozenset(itertools.compress(elements, digits))


def _as_ints(values: list, name: str | None = None) -> list[int]:
    """``_as_int`` of each value, in one C-level pass when all are integers."""
    try:
        return list(map(operator.index, values))
    except TypeError:
        return [_as_int(v, name) for v in values]  # raises for the first non-integer


class Matroid(ABC):
    """A matroid on ground set {0, ..., n-1} given by an independence oracle.

    Subclasses implement ``_indep``, the one oracle method, on trusted
    frozensets: the public methods validate ids once, internal code calls
    ``_indep`` and the basis test ``_basis`` on sets it has checked or
    built from checked ones.  Nothing is memoised here; the partition
    solver keeps one prepared part per arm, and only a linear or bases-type
    part remembers an answer, one at a time, until its next move.

    ``_prepare()`` returns an empty ``PreparedPart``, which ``add`` grows:
    its ``takes(x)`` tells whether ``part + x`` is independent, its
    ``circuit(x)``, asked only for an ``x`` that ``takes`` refused, gives
    the fundamental circuit of ``part + x``, its ``add(x)`` grows the part
    by an ``x`` that it takes, and its ``remove(y)`` drops an element ``y``
    of the part; both answers hold until the part's next move.  The
    default part asks ``_indep`` once per element of the part for a
    circuit; classes with structure (uniform, graphic, linear, basis
    families, the slot lift) return parts that answer each ``x`` directly
    and change in place.  A subclass author may return a ``PreparedPart``
    subclass that overrides ``__init__`` (calling the base one) to set up
    its empty state, and ``circuit``; it overrides ``add`` and ``remove``
    too when it keeps state beyond ``part``, and may inherit ``takes``.
    An override of ``remove`` calls the base one, which refuses a
    non-member.

    ``_rank_cap``, when not None, is a bound on the size of any independent
    set that the class knows without a query (rows for a linear matroid,
    touched vertices minus one for a graphic one).  A set of that size is a
    basis exactly when it is independent, whatever the true rank, so
    ``_basis`` tests such a set without computing ``full_rank``.
    """

    _rank_cap: int | None = None

    def __init__(self, ground_size: int):
        self._n = _count(ground_size, "ground size")
        self._full_rank: int | None = None

    @property
    def ground_size(self) -> int:
        return self._n

    def ground_set(self) -> ElementSet:
        return frozenset(range(self._n))

    def check_subset(self, elements) -> ElementSet:
        """Normalise ``elements`` to a frozenset of valid ids, or raise."""
        return _element_set(elements, self._n)

    def is_independent(self, elements) -> bool:
        return self._indep(self.check_subset(elements))

    @abstractmethod
    def _indep(self, s: ElementSet) -> bool:
        """Independence of a validated subset of the ground set."""

    def _prepare(self) -> "PreparedPart":
        """An empty part, which ``add`` grows, and its fundamental circuits."""
        return PreparedPart(self)

    def greedy_independent(self, elements) -> ElementSet:
        """Maximum independent subset of ``elements``.

        Scans ids in ascending order and keeps every element that preserves
        independence; the cardinality is order-invariant, and the fixed scan
        order makes the witness set deterministic.
        """
        s = self.check_subset(elements)
        picked: set[int] = set()
        for e in sorted(s):
            picked.add(e)
            if not self._indep(frozenset(picked)):
                picked.discard(e)
        return frozenset(picked)

    def rank(self, elements) -> int:
        return len(self.greedy_independent(elements))

    def full_rank(self) -> int:
        """Rank of the whole ground set (the common size of all bases)."""
        if self._full_rank is None:
            self._full_rank = self.rank(range(self._n))
        return self._full_rank

    def is_basis(self, elements) -> bool:
        return self._basis(self.check_subset(elements))

    def _basis(self, s: ElementSet) -> bool:
        """Whether a validated subset of the ground set is a basis."""
        return (len(s) == self._rank_cap or len(s) == self.full_rank()) and self._indep(s)

    def enumerate_bases(self, cap: int = ENUMERATION_CAP) -> list[ElementSet]:
        """All bases in lexicographic order; refuses ground sets above ``cap``."""
        if self._n > cap:
            raise SizeLimitError(
                f"ground size {self._n} exceeds enumeration cap {cap}"
            )
        r = self.full_rank()
        return [
            frozenset(combo)
            for combo in itertools.combinations(range(self._n), r)
            if self._indep(frozenset(combo))
        ]


class PreparedPart:
    """The fundamental circuits of an independent set ``part`` of ``matroid``,
    kept while the part changes.

    ``matroid`` is the matroid that prepared the part, whose elements the
    part holds: the forest parts of a graphic lift are of the lift itself,
    and read its table of slot ends.  A part starts empty and grows only
    through ``add``.  ``part`` is a set that the part owns and changes in
    place: callers read it, but never keep or mutate it.  Each method
    answers one question.
    ``takes(x)``, for ``x`` outside the part, says whether ``part + x`` is
    independent.  ``circuit(x)`` is asked only after ``takes(x)`` refused
    ``x``, with no move in between, and gives the elements of the part on
    the unique circuit of ``part + x`` (empty when ``x`` is a loop).  Both
    answers hold until the part's next move, ``add`` or ``remove``, and no
    longer: a circuit that is the whole part may be ``part`` itself, as the
    uniform and slot parts answer, so a caller reads a circuit before it
    moves the part.  ``add(x)`` grows the part by an ``x`` that
    it takes, and ``remove(y)`` drops ``y`` from the part.

    This base class answers through the oracle, on a frozenset of the part
    (once ``part + x`` is dependent, ``part - y + x`` is independent
    exactly when y lies on its circuit), so its ``circuit`` asks no query
    that ``takes`` asked.  Every part changes its state in place, and
    refuses, with an InternalVerificationError, an ``add`` of a member or
    of an element that would make the part dependent, and a ``remove`` of
    a non-member.  The base ``remove`` holds the one non-member check, and
    every subclass ``remove`` calls it by name, ``PreparedPart.remove(self,
    y)``, which costs less than ``super()``.  The base ``add`` refuses for
    the price of one ``takes``: an oracle query here, one scan for a
    bases-type part, whose ``add`` calls it; the other subclasses refuse
    through their own state, mostly for one comparison.
    """

    def __init__(self, matroid: Matroid):
        self.matroid = matroid
        self.part: set[int] = set()

    def takes(self, x: int) -> bool:
        """Whether ``part + x`` is independent."""
        return self.matroid._indep(frozenset(self.part | {x}))

    def circuit(self, x: int) -> AbstractSet[int]:
        """The circuit of ``part + x``, for an ``x`` that ``takes`` refused."""
        m, s = self.matroid, frozenset(self.part)
        return frozenset(y for y in s if m._indep((s - {y}) | {x}))

    def add(self, x: int) -> None:
        if x in self.part or not self.takes(x):
            raise self._dependent(x)
        self.part.add(x)

    def remove(self, y: int) -> None:
        if y not in self.part:
            name = type(self.matroid).__name__
            raise InternalVerificationError(f"{name} part: {y} is not in the part")
        self.part.remove(y)

    def _dependent(self, x: int) -> InternalVerificationError:
        name = type(self.matroid).__name__
        return InternalVerificationError(f"{name} part: adding {x} makes it dependent")


class _UniformPart(PreparedPart):
    def takes(self, x: int) -> bool:
        return len(self.part) < self.matroid.rank_bound

    def circuit(self, x: int) -> AbstractSet[int]:
        return self.part

    def add(self, x: int) -> None:
        if x in self.part or len(self.part) >= self.matroid.rank_bound:
            raise self._dependent(x)
        self.part.add(x)


class UniformMatroid(Matroid):
    """U(r, n): a set is independent iff it has at most r elements."""

    def __init__(self, n: int, r: int):
        super().__init__(n)
        r = _as_int(r, "rank bound")
        if not 0 <= r <= n:
            raise ValidationError(f"rank bound must satisfy 0 <= r <= n, got r={r}, n={n}")
        self.rank_bound = r
        self._full_rank = r

    def _indep(self, s: ElementSet) -> bool:
        return len(s) <= self.rank_bound

    def _prepare(self) -> PreparedPart:
        return _UniformPart(self)

    def __repr__(self) -> str:
        return f"UniformMatroid(n={self._n}, r={self.rank_bound})"


class _ForestPart(PreparedPart):
    """A graphic part as a rooted spanning forest of its edges.

    The circuit of part + x is the tree path between x's endpoints, found
    by climbing to their meeting point, as a new frozenset even when it is
    the whole part.  Adding x links two trees by
    re-hanging the smaller one below x; removing y cuts the subtree below y
    off as a tree rooted at its top.  ``ends`` gives each element's two
    dense vertex ids, of ``order`` in all: a graphic matroid's own edges,
    or the slots of its lift, each a parallel copy of an edge.
    The state is five lists indexed by those ids: ``up`` (parent and edge,
    None at a root), ``depth``, ``root``, ``size`` (read at roots) and
    ``adjacent``, so it takes space for the touched vertices only.
    """

    def __init__(self, matroid: Matroid, ends, order: int):
        super().__init__(matroid)
        self.ends = ends
        self.up: list[tuple[int, int] | None] = [None] * order
        self.depth = [0] * order
        self.root = list(range(order))
        self.size = [1] * order
        self.adjacent: list[list[tuple[int, int]]] = [[] for _ in range(order)]

    def takes(self, x: int) -> bool:
        u, v = self.ends[x]
        return self.root[u] != self.root[v]  # False for a self-loop: u == v

    def circuit(self, x: int) -> AbstractSet[int]:
        u, v = self.ends[x]
        up, depth, path = self.up, self.depth, []  # a self-loop climbs nowhere
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, i = up[u]
            path.append(i)
        return frozenset(path)

    def add(self, x: int) -> None:
        u, v = self.ends[x]
        root, size = self.root, self.size
        if root[u] == root[v]:  # a self-loop, or both ends in one tree
            raise self._dependent(x)
        if size[root[u]] > size[root[v]]:
            u, v = v, u
        top = root[v]
        size[top] += size[root[u]]
        # Hang u below v, then walk u's old tree outwards from u.
        self.up[u], self.depth[u], root[u] = (v, x), self.depth[v] + 1, top
        self._spread(u, v)
        self.adjacent[u].append((v, x))
        self.adjacent[v].append((u, x))
        self.part.add(x)

    def remove(self, y: int) -> None:
        PreparedPart.remove(self, y)
        u, v = self.ends[y]
        if self.up[u] != (v, y):
            u, v = v, u
        # u hangs below v by y: cut it off and root its subtree at u.
        self.adjacent[u].remove((v, y))
        self.adjacent[v].remove((u, y))
        self.up[u], self.depth[u], self.root[u] = None, 0, u
        self.size[u] = self._spread(u, None)
        self.size[self.root[v]] -= self.size[u]

    def _spread(self, u: int, came_from: int | None) -> int:
        """Hang every vertex reached from u, away from ``came_from``, below
        u, in u's tree; returns the number of vertices reached, u included."""
        up, depth, root, adjacent = self.up, self.depth, self.root, self.adjacent
        top, count = root[u], 1
        stack = [(u, came_from)]
        while stack:
            a, prev = stack.pop()
            for b, j in adjacent[a]:
                if b != prev:
                    up[b], depth[b], root[b] = (a, j), depth[a] + 1, top
                    stack.append((b, a))
                    count += 1
        return count


def _flat_pairs(items: list, bound: int) -> list[int]:
    """``items``, edges given as pairs of ints in range(bound), flattened
    into one list.  One C-level pass does the common case; only when
    something is wrong does ``_check_edge`` run on each item in turn, and
    it raises for the first bad one."""
    try:
        ok = set(map(len, items)) <= {2}
        flat = list(map(operator.index, itertools.chain.from_iterable(items))) if ok else []
    except TypeError:  # an item without a length, or a non-integer entry
        ok = False
    if ok and (not flat or (min(flat) >= 0 and max(flat) < bound)):
        return flat
    pairs = [_check_edge(idx, item, bound) for idx, item in enumerate(items)]
    return list(itertools.chain.from_iterable(pairs))


def _check_edge(idx: int, e, vertex_count: int) -> tuple[int, int]:
    """Edge ``idx``, ``e``, as a pair of vertex ids, or raise."""
    try:
        pair = tuple(map(_as_int, e))
    except TypeError:  # not iterable
        pair = ()
    if len(pair) != 2:
        raise ValidationError(f"edge {idx} must be a vertex pair, got {e!r}")
    for v in pair:
        if not 0 <= v < vertex_count:
            raise ValidationError(
                f"edge {idx} endpoint {v} out of range for {vertex_count} vertices"
            )
    return pair


class GraphicMatroid(Matroid):
    """Cycle matroid of a multigraph: element i is edge i, independent = acyclic.

    Parallel edges and self-loops are permitted in the edge list; any set
    containing a self-loop is dependent.  Internally the m vertices that
    edges touch have dense ids 0..m-1, in ascending order, and the forest
    parts keep lists over those ids: their size is m, never
    ``vertex_count``.  A query's union-find is a list over them too, or a
    dict over its own endpoints for a set of far fewer edges, so a small
    set costs its size.  ``vertex_count`` and ``edges`` keep the ids as
    given.
    """

    def __init__(self, vertex_count: int, edges):
        vertex_count = _count(vertex_count, "vertex count")
        edges = _listed(edges, "edges must be a sequence of vertex pairs")
        ends = _flat_pairs(edges, vertex_count)
        super().__init__(len(ends) // 2)
        self.vertex_count = vertex_count
        self.edges = tuple(zip(ends[::2], ends[1::2]))
        # When the touched vertices are 0..m-1 already, they are the dense ids.
        touched = set(ends)
        self._order = len(touched)
        self._rank_cap = max(self._order - 1, 0)  # a forest on m vertices has at most m - 1 edges
        self._ends = self.edges  # edge -> dense endpoints
        if touched and max(touched) >= len(touched):
            index = dict(zip(sorted(touched), itertools.count()))
            dense = list(map(index.__getitem__, ends))
            self._ends = tuple(zip(dense[::2], dense[1::2]))

    def _joins(self, ids):
        """For each edge of ``ids`` in turn, whether it joins two trees of the
        forest grown so far (it is then added); False means it closes a cycle."""
        # Union-find with path halving over the dense vertex ids: a list over
        # all of them, or a dict over the set's own endpoints when the set
        # has fewer than a sixteenth as many edges as the graph has vertices,
        # so a small set costs its size.  A dict entry costs more than a list
        # slot, so a larger set keeps the list; tools/joins_crossover.py
        # times both on either side of the sixteenth.
        ends = self._ends
        if 16 * len(ids) < self._order:
            parent = {u: u for i in ids for u in ends[i]}
        else:
            parent = list(range(self._order))
        for i in ids:
            u, v = ends[i]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            parent[u] = v
            yield u != v  # False for self-loops: both endpoints share a root

    def _indep(self, s: ElementSet) -> bool:
        return all(self._joins(s))

    def greedy_independent(self, elements) -> ElementSet:
        # The ascending scan of the base class, growing one forest.  It stops
        # once the forest spans the touched vertices: no later edge can join
        # two of its trees.
        ordered = sorted(self.check_subset(elements))
        joined = (i for i, joins in zip(ordered, self._joins(ordered)) if joins)
        return frozenset(itertools.islice(joined, self._rank_cap))

    def _prepare(self) -> PreparedPart:
        return _ForestPart(self, self._ends, self._order)

    def __repr__(self) -> str:
        return f"GraphicMatroid(vertices={self.vertex_count}, edges={list(self.edges)})"


MAX_PRIME = 2**16

#: Columns are shorter than this, so every entry met in a reduction fits in
#: 64 bits (see ``_Fields``).
MAX_ROWS = 2**32


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(p**0.5) + 1):
        if p % d == 0:
            return False
    return True


# Array typecodes by item size in bytes, narrowest first.
_FIELD_CODES = sorted({array(code).itemsize: code for code in "BHILQ"}.items())
_SWAP = sys.byteorder == "big"  # arrays are native-endian, packed ints little-endian


class _Fields:
    """The packing of GF(p) vectors of a matrix with ``rows`` rows into ints.

    Entry i of a vector sits in bits [i*bits, (i+1)*bits) of one int.  A
    field holds ``prime + rows * (prime - 1)**2``: an entry below p, plus
    one term of at most (p-1)**2 for each of the at most ``rows`` echelon
    rows it is reduced against.  So a reduction never carries one field into
    the next, and takes entries mod p only where it reads them.  Fields are
    1, 2, 4 or 8 bytes wide, so that ``unpack`` and ``pack`` convert a whole
    vector at C speed.
    """

    def __init__(self, prime: int, rows: int):
        top = prime + rows * (prime - 1) ** 2
        self.size, self.code = next(item for item in _FIELD_CODES if top < 256 ** item[0])
        self.prime = prime
        self.bits = 8 * self.size
        self.mask = (1 << self.bits) - 1
        self.tables: dict[int, bytes] = {}  # factor -> byte table of ``scale``
        if self.size == 1:  # byte table of ``_Echelon.pivot``
            self.residues = bytes(b % prime for b in range(256))

    def pack(self, entries) -> int:
        items = array(self.code, entries)
        if _SWAP:
            items.byteswap()
        return int.from_bytes(items, "little")

    def unpack(self, vec: int, length: int) -> array:
        """The entries of ``vec``, which has none past the first ``length``."""
        items = array(self.code, vec.to_bytes(length * self.size, "little"))
        if _SWAP:
            items.byteswap()
        return items

    def scale(self, vec: int, length: int, factor: int) -> int:
        """``vec`` with each of its ``length`` entries times ``factor``, mod p.
        One-byte fields go through a byte table, wider ones through a list."""
        p = self.prime
        if self.size > 1:
            return self.pack([a * factor % p for a in self.unpack(vec, length)])
        table = self.tables.get(factor)
        if table is None:
            table = self.tables[factor] = bytes(b * factor % p for b in range(256))
        return int.from_bytes(vec.to_bytes(length, "little").translate(table), "little")

    def echelon(self, width: int, length: int) -> "_Echelon":
        return _Echelon(self, width, length)

    def support(self, vec: int, elements: list) -> ElementSet:
        """The ``elements[j]`` at whose entry j ``vec`` is nonzero mod p."""
        entries = self.unpack(vec, len(elements))
        return frozenset(e for e, c in zip(elements, entries) if c % self.prime)


class _Bits:
    """The packing of GF(2) vectors into ints, one bit per entry: entry i is
    bit i.  Over GF(2) a row step is one XOR, which carries nothing into the
    next entry, so no field needs room above an entry, nothing is scaled and
    nothing is taken mod 2.  It has the ``bits``, ``pack``, ``echelon`` and
    ``support`` of ``_Fields``."""

    bits = 1
    _DIGITS = bytes.maketrans(b"\0\1", b"01")  # entries 0 and 1 -> binary digits

    def pack(self, entries: tuple[int, ...]) -> int:
        # int(..., 2) reads the last entry first; the leading 0 makes an
        # empty vector 0.
        return int(b"0" + bytes(entries[::-1]).translate(self._DIGITS), 2)

    def echelon(self, width: int, length: int) -> "_BitEchelon":
        return _BitEchelon(width)

    def support(self, vec: int, elements: list) -> ElementSet:
        """The ``elements[j]`` at whose bit j ``vec`` is set."""
        return _elements(vec, elements)


class _Echelon:
    """Rows in echelon form over GF(p), grown one vector at a time and
    shrunk one row at a time.

    Vectors are ints packed by ``fields``, ``length`` entries long.  Each row
    is reduced mod p, scaled to 1 at its pivot and is zero at the pivots of
    the rows before it, so one pass over the rows reduces a vector, one
    shift, mask and multiply-add per row.  Pivots are chosen among the
    first ``width`` entries; entries past ``width`` ride along and record
    how each row was combined from its inputs.  The echelon is full when
    it holds ``width`` rows, one pivot per column.
    """

    def __init__(self, fields: _Fields, width: int, length: int):
        self.fields = fields
        self.width = width
        self.length = length
        self.rows: list[tuple[int, int]] = []  # (pivot shift, row)

    def reduce(self, vec: int) -> int:
        """``vec`` plus the combination of rows that clears every pivot mod
        p.  Its entries are not reduced mod p."""
        p, mask = self.fields.prime, self.fields.mask
        for shift, row in self.rows:
            f = (vec >> shift & mask) % p
            if f:
                vec += (p - f) * row
        return vec

    def pivot(self, vec: int) -> int | None:
        """The first unpivoted column where the reduced ``vec`` is nonzero
        mod p, or None when it is in the span of the rows.

        A reduced vector is 0 mod p at every pivoted column, so this is its
        first nonzero column mod p of all the first ``width``.  One-byte
        fields find that column through a byte table, as ``scale`` does:
        the first ``width`` bytes as residues, less their leading zeros.
        Wider fields scan the first ``width`` entries, unpacked."""
        fields, width = self.fields, self.width
        low = vec & (1 << fields.bits * width) - 1
        if fields.size == 1:
            rest = low.to_bytes(width, "little").translate(fields.residues).lstrip(b"\0")
            return width - len(rest) if rest else None
        p = fields.prime
        return next((c for c, a in enumerate(fields.unpack(low, width)) if a % p), None)

    def add(self, vec: int) -> bool:
        """Reduce ``vec`` and keep it as a row; False if it was in the span."""
        if len(self.rows) == self.width:
            return False
        vec = self.reduce(vec)
        col = self.pivot(vec)
        if col is None:
            return False
        self.keep(vec, col)
        return True

    def keep(self, vec: int, col: int) -> None:
        """Keep a reduced ``vec`` whose ``pivot`` is ``col`` as a row."""
        fields = self.fields
        shift = col * fields.bits
        inv = pow(vec >> shift & fields.mask, -1, fields.prime)
        self.rows.append((shift, fields.scale(vec, self.length, inv)))

    def drop(self, at: int) -> None:
        """Drop the last row whose field at bit ``at`` is nonzero, first
        using it to clear that field in the rows before it; the rows after
        it are zero there already.  Every kept row keeps its pivot, since
        the dropped row is zero at the pivots of the rows before it, and the
        dropped row's pivot column is unpivoted again."""
        fields = self.fields
        p, mask = fields.prime, fields.mask
        rows = self.rows
        r = next(r for r in reversed(range(len(rows))) if rows[r][1] >> at & mask)
        _, last = rows.pop(r)
        inv = pow(last >> at & mask, -1, p)
        for i in range(r):
            f = rows[i][1] >> at & mask
            if f:
                cleared = rows[i][1] + (p - f) * inv % p * last
                rows[i] = (rows[i][0], fields.scale(cleared, self.length, 1))


class _BitEchelon:
    """``_Echelon`` over GF(2), on vectors packed one bit per entry.

    A row step is one test and one XOR: ``if vec & pivot_bit: vec ^= row``.
    A reduced vector is 0 at every pivot, so its pivot is its lowest bit
    below ``width``, the column ``_Echelon.pivot`` picks, and both echelons
    hold the same rows.
    """

    def __init__(self, width: int):
        self.rows: list[tuple[int, int]] = []  # (pivot bit, row)
        self.width = width
        self.columns = (1 << width) - 1  # the bits below ``width``

    def reduce(self, vec: int) -> int:
        for bit, row in self.rows:
            if vec & bit:
                vec ^= row
        return vec

    def pivot(self, vec: int) -> int | None:
        low = vec & self.columns
        return (low & -low).bit_length() - 1 if low else None

    def add(self, vec: int) -> bool:
        # ``pivot`` and ``keep`` inline: this is every independence test.
        if len(self.rows) == self.width:
            return False
        vec = self.reduce(vec)
        low = vec & self.columns
        if not low:
            return False
        self.rows.append((low & -low, vec))
        return True

    def keep(self, vec: int, col: int) -> None:
        self.rows.append((1 << col, vec))

    def drop(self, at: int) -> None:
        bit, rows = 1 << at, self.rows
        r = next(r for r in reversed(range(len(rows))) if rows[r][1] & bit)
        _, last = rows.pop(r)
        for i in range(r):
            if rows[i][1] & bit:
                rows[i] = (rows[i][0], rows[i][1] ^ last)


class _EchelonPart(PreparedPart):
    # Each element of the part carries a unit tag e_j, in a tag block as wide
    # as the columns are long (an independent part has at most that many
    # elements) and packed above the column entries.  When x reduces to zero
    # in its column part, its tags are minus its coordinates in the part, and
    # the nonzero ones mark the circuit.  Removing y drops the row that holds
    # y's tag last and leaves y's slot in ``order`` vacant for the next add.

    def __init__(self, matroid: LinearMatroid):
        super().__init__(matroid)
        d = matroid.rows
        self.echelon = matroid._fields.echelon(d, 2 * d)
        self.tag_shift = d * matroid._fields.bits
        self.order: list[int | None] = []  # the element tagged e_j, None if vacant
        self.vacant: list[int] = []
        self._last = None

    def takes(self, x: int) -> bool:
        # A part of ``rows`` elements spans the space: no reduction needed.
        return len(self.part) < self.matroid.rows and self._reduce(x)[1] is not None

    def circuit(self, x: int) -> AbstractSet[int]:
        vec = self._reduce(x)[0]
        return self.matroid._fields.support(vec >> self.tag_shift, self.order)

    def _reduce(self, x: int) -> tuple[int, int | None]:
        """x's column reduced by the rows, and its pivot.  The last one is
        kept in ``_last`` as (x, reduced, pivot) until the part's next move,
        so that the ``takes``, ``circuit`` and ``add`` of one x reduce it
        once."""
        if self._last is not None and self._last[0] == x:
            return self._last[1:]
        vec = self.echelon.reduce(self.matroid._packed[x])
        col = self.echelon.pivot(vec)
        self._last = (x, vec, col)
        return vec, col

    def add(self, x: int) -> None:
        # No row carries tag j yet, so x tagged e_j reduces to x reduced
        # untagged, plus e_j: reuse the reduction that takes(x) or
        # circuit(x) just made.  A member's column is in the span.
        vec, col = self._reduce(x)
        if col is None:  # x is in the span of the part
            raise self._dependent(x)
        if self.vacant:
            j = self.vacant.pop()
            self.order[j] = x
        else:
            j = len(self.order)
            self.order.append(x)
        self.echelon.keep(vec + (1 << self.tag_shift + j * self.matroid._fields.bits), col)
        self.part.add(x)
        self._last = None

    def remove(self, y: int) -> None:
        PreparedPart.remove(self, y)
        self._last = None
        j = self.order.index(y)
        self.echelon.drop(self.tag_shift + j * self.matroid._fields.bits)
        self.order[j] = None
        self.vacant.append(j)


_BYTES = bytes(range(256))


def _columns(columns: list, prime: int, rows: int) -> tuple[tuple[int, ...], ...]:
    """``columns`` as tuples of entries mod ``prime``, or raise naming the
    first column that is not ``rows`` integers.  One C-level pass does the
    common case, entries already in range(prime) and below 256: ``bytes``
    takes them as integers and refuses any other, and ``translate`` deletes
    those below ``prime``.  Otherwise the loop checks and reduces each
    column in turn."""
    try:
        if set(map(len, columns)) <= {rows}:
            data = bytes(itertools.chain.from_iterable(columns))
            if len(data) == rows * len(columns) and not data.translate(None, _BYTES[:prime]):
                return tuple(zip(*[iter(data)] * rows)) if rows else ((),) * len(columns)
    except (TypeError, ValueError):  # no length, a non-integer, or out of range
        pass
    cols = []
    for idx, col in enumerate(columns):
        col = _listed(col, f"column {idx} must be a sequence of integers")
        vec = tuple([x % prime for x in _as_ints(col)])
        if len(vec) != rows:
            raise ValidationError(f"column {idx} has {len(vec)} entries, expected {rows}")
        cols.append(vec)
    return tuple(cols)


class LinearMatroid(Matroid):
    """Column matroid of a matrix over GF(p): element i is column i.

    All arithmetic is exact modulo a prime p < 2**16, on columns of fewer
    than 2**32 entries.  Each column is packed once into an int and
    ``columns`` keeps the entries.  Over GF(2) an entry is one bit
    (``_Bits``) and a row step is one XOR; any other prime gets fields wide
    enough for the sums of a reduction (``_Fields``).  The prime alone
    picks the packing, and with it the echelon.  Independence, the greedy
    scan and fundamental circuits all grow one echelon form of packed rows
    column by column, so none of them repeats an elimination.
    """

    def __init__(self, prime: int, rows: int, columns):
        prime = _as_int(prime, "field characteristic")
        if not (_is_prime(prime) and prime < MAX_PRIME):
            raise ValidationError(f"field characteristic must be a prime below 2**16, got {prime}")
        rows = _as_int(rows, "ambient dimension")
        if not 0 <= rows < MAX_ROWS:
            raise ValidationError(f"ambient dimension must be >= 0 and below 2**32, got {rows}")
        cols = _columns(_listed(columns, "columns must be a sequence of integer vectors"),
                        prime, rows)
        super().__init__(len(cols))
        self.prime = prime
        self.rows = rows
        self._rank_cap = rows
        self.columns = cols
        # The one place the elimination is chosen: one bit per entry over
        # GF(2), fields wide enough for the sums of any other prime.
        self._fields = _Bits() if prime == 2 else _Fields(prime, rows)
        self._packed = tuple(map(self._fields.pack, cols))

    def _indep(self, s: ElementSet) -> bool:
        if len(s) > self.rows:
            return False
        echelon = self._fields.echelon(self.rows, self.rows)
        return all(map(echelon.add, map(self._packed.__getitem__, s)))

    def greedy_independent(self, elements) -> ElementSet:
        # The ascending scan of the base class, in one incremental elimination.
        echelon = self._fields.echelon(self.rows, self.rows)
        return frozenset(e for e in sorted(self.check_subset(elements))
                         if echelon.add(self._packed[e]))

    def _prepare(self) -> PreparedPart:
        return _EchelonPart(self)

    def __repr__(self) -> str:
        return f"LinearMatroid(p={self.prime}, rows={self.rows}, n={self._n})"


@dataclass(frozen=True)
class AxiomViolation:
    """Witness of a base-exchange failure: element ``element`` of ``first``
    cannot be replaced by anything from ``second``.  ``element`` is None when
    the family already fails the equal-cardinality requirement."""

    first: ElementSet
    second: ElementSet
    element: int | None

    def __str__(self) -> str:
        if self.element is None:
            return f"B1={canon(self.first)} and B2={canon(self.second)} differ in size"
        return f"B1={canon(self.first)}, B2={canon(self.second)}, e1={self.element}"


def check_base_axiom(n: int, family) -> tuple[bool, AxiomViolation | None]:
    """Test whether ``family`` is the basis family of a matroid on n elements.

    Checks equal cardinalities and the exchange property; returns the first
    violation (scanning the family in the given order, candidate elements in
    ascending order) if any exists.  Families of more than AXIOM_CHECK_CAP
    sets raise SizeLimitError.
    """
    masks, _, elements = _basis_family(n, family)
    size = masks[0].bit_count()
    odd = next((b for b in masks if b.bit_count() != size), None)
    if odd is None or len(masks) > AXIOM_CHECK_CAP:  # the cap raises before the sizes
        violation = _axiom_violation(masks, elements)
    else:
        violation = AxiomViolation(_elements(masks[0], elements), _elements(odd, elements), None)
    return violation is None, violation


def _basis_family(n, family):
    """The bitmasks of ``family``, a nonempty sequence of element sets on
    ``n`` elements, in its order, with the weight of each element and the
    elements in bit order; or raise.  Bit i stands for ``elements[i]``, the
    elements of the family's union in descending order, so a mask costs the
    size of that union, however large the ids, and the smallest element is
    the top bit: masks of one size descend as their sets ascend in
    lexicographic order.  The sets are checked before ``n``: a negative n
    shows first as an element out of range, and a non-integer one once the
    range check meets it."""
    family = _listed(family, "bases must be a sequence of element sets")
    try:
        sets = [_element_set(b, n) for b in family]
    except TypeError:  # the range check met a non-integer n
        sets = [_element_set(b, _count(n, "ground size")) for b in family]
    if not sets:
        raise ValidationError("basis family must be nonempty")
    _count(n, "ground size")
    elements = tuple(sorted(set().union(*sets), reverse=True))
    weight = {e: 1 << i for i, e in enumerate(elements)}
    return [_mask(b, weight) for b in sets], weight, elements


def _axiom_violation(masks: list[int], elements: tuple[int, ...]) -> AxiomViolation | None:
    """The first violation of ``check_base_axiom`` by a nonempty family of
    bitmasks of one size, in its scan order, or None.  Bit i stands for
    ``elements[i]``, and ``elements`` descends, so the top bit is the
    smallest element."""
    if len(masks) > AXIOM_CHECK_CAP:
        raise SizeLimitError(f"{len(masks)} bases exceed the axiom check cap {AXIOM_CHECK_CAP}")
    # Neither e1 nor e2 can lie in every basis, so only the other bits, the
    # free ones, take part, and every basis holds as many of them.
    common = functools.reduce(operator.and_, masks)
    free = [b ^ common for b in masks]
    b1 = free[0]
    # swaps[e1]: the mask of every e2 with b1 - e1 + e2 in the family, for
    # the first basis b1, keyed by the bit of e1.  All sets have one size,
    # so such a member differs from b1 in e1 and e2 only.
    swaps: dict[int, int] = {}
    outside = ~b1
    for b in free:
        added = b & outside
        if added and not added & (added - 1):
            removed = b1 & ~b
            swaps[removed] = swaps.get(removed, 0) | added
    if len(swaps) < b1.bit_count():
        # Some e1 of b1 has no e2 at all, so b1 fails against some b2.
        found = _first_failure(b1, swaps, free)
    else:
        # b1 has a distinct neighbour b1 - e1 + e2 for each of its free
        # bits, so they number fewer than the members of the family, and
        # the bases have at most |F|(|F| - 1) one-element deletions.
        found = _indexed_violation(free)
    if found is None:
        return None
    first, second, top = found
    return AxiomViolation(_elements(masks[first], elements), _elements(masks[second], elements),
                          elements[top])


def _first_failure(b1: int, swaps: dict[int, int], free: list[int]) -> tuple[int, int, int] | None:
    """The positions of b1 and the first b2 and the bit of the first e1
    that fail the first basis b1 of ``_axiom_violation``, from its swaps,
    or None when b1 passes."""
    for j, b2 in enumerate(free):
        rest = b1 & ~b2
        while rest:  # the e1 of b1 - b2, top bit (smallest element) first
            top = rest.bit_length() - 1
            if not swaps.get(1 << top, 0) & b2:
                return 0, j, top
            rest ^= 1 << top
    return None


def _indexed_violation(free: list[int]) -> tuple[int, int, int] | None:
    """The positions of b1 and b2 and the bit of e1 of the first violation
    by the free bits of a family (see ``_axiom_violation``), or None."""
    # holders[w]: the positions of the bases that hold bit w, as a bitset.
    holders: dict[int, int] = {}
    for i, b in enumerate(free):
        while b:
            w = b & -b
            holders[w] = holders.get(w, 0) | 1 << i
            b ^= w
    # covered[b ^ w], over each bit w of each basis b: the positions of the
    # bases that hold some bit w deleted to reach that key.  So
    # covered[b1 ^ e1] holds every b2 that holds e1 or an e2 with
    # b1 - e1 + e2 in the family, and every other b2 fails (b1, e1).
    covered: dict[int, int] = {}
    for b in free:
        rest = b
        while rest:
            w = rest & -rest
            covered[b ^ w] = covered.get(b ^ w, 0) | holders[w]
            rest ^= w
    everyone = (1 << len(free)) - 1
    # The keys are the b1 ^ e1 of every pair (b1, e1), so when each of them
    # covers every b2, the family passes: the common case, in one C loop.
    if min(covered.values(), default=everyone) == everyone:
        return None
    for i, b1 in enumerate(free):
        rest, first = b1, 0
        while rest:  # e1 top bit (smallest element) first
            e1 = 1 << (rest.bit_length() - 1)
            failing = everyone & ~covered[b1 ^ e1]
            if failing:
                low = failing & -failing  # the first b2 that e1 fails
                if not first or low < first:  # a tie keeps the smaller e1
                    first, top = low, e1.bit_length() - 1
            rest ^= e1
        if first:
            return i, first.bit_length() - 1, top
    return None


class _BasisPart(PreparedPart):
    # The part is a bitmask.  part + x is independent when some basis covers
    # it; otherwise y is on its circuit when some basis covers part - y + x,
    # that is when part + x misses that basis in y alone.  An element in no
    # basis is a loop, and has no weight.  One scan of the family answers
    # the takes, circuit and add of one x: its answer, None when the part
    # takes x, is kept in ``_last`` as (x, answer) until the part's next move.

    def __init__(self, matroid: BasisMatroid):
        super().__init__(matroid)
        self.mask = 0
        self._last = None

    def takes(self, x: int) -> bool:
        return self._answer(x) is None

    def circuit(self, x: int) -> AbstractSet[int]:
        return self._answer(x)

    def _answer(self, x: int) -> AbstractSet[int] | None:
        if self._last is None or self._last[0] != x:
            self._last = (x, self._scan(x))
        return self._last[1]

    def _scan(self, x: int) -> AbstractSet[int] | None:
        w = self.matroid._weight.get(x)
        if w is None:  # a loop
            return frozenset()
        grown, closing = self.mask | w, 0
        for b in self.matroid._masks:
            missing = grown & ~b
            if not missing:
                return None
            if not missing & (missing - 1):
                closing |= missing
        # A basis missing x alone covers the part, and closes no circuit.
        return _elements(closing & ~w, self.matroid._elements)

    def add(self, x: int) -> None:
        super().add(x)
        self.mask |= self.matroid._weight[x]
        self._last = None

    def remove(self, y: int) -> None:
        PreparedPart.remove(self, y)
        self._last = None
        self.mask ^= self.matroid._weight[y]


class BasisMatroid(Matroid):
    """Matroid given explicitly by its basis family.

    The family is kept once, as bitmasks: ``_masks`` is a dict whose keys
    are the masks of the distinct bases, in the lexicographic order of the
    bases, so that one structure serves the ordered scans of independence,
    circuits and enumeration and the membership test of ``_basis``.  Bit
    i stands for ``_elements[i]``, the elements of the union of the bases in
    descending order (see ``_basis_family``); the other elements are loops.
    ``bases`` builds the family's element sets from the masks.  The exchange
    axiom is validated at construction (up to AXIOM_CHECK_CAP bases);
    ``validate=False`` skips it for large, already-trusted families.
    """

    def __init__(self, n: int, bases, validate: bool = True):
        super().__init__(n)
        masks, self._weight, self._elements = _basis_family(self._n, bases)
        if len(set(map(int.bit_count, masks))) > 1:
            raise ValidationError("all bases must have the same cardinality")
        if validate:
            violation = _axiom_violation(masks, self._elements)
            if violation is not None:
                raise ValidationError(f"exchange axiom violated: {violation}")
        self._masks = dict.fromkeys(sorted(masks, reverse=True))
        self._full_rank = masks[0].bit_count()

    @property
    def bases(self) -> tuple[ElementSet, ...]:
        """The distinct bases, in lexicographic order."""
        return tuple(_elements(m, self._elements) for m in self._masks)

    def _indep(self, s: ElementSet) -> bool:
        m = _mask(s, self._weight)
        return m is not None and any(not m & ~b for b in self._masks)

    def _prepare(self) -> PreparedPart:
        return _BasisPart(self)

    # ``bench/tracing.py`` wraps ``is_basis`` through this class's own dict
    # until ROADMAP item 2b stops it wrapping the query stack.
    is_basis = Matroid.is_basis

    def _basis(self, s: ElementSet) -> bool:
        return _mask(s, self._weight) in self._masks

    def enumerate_bases(self, cap: int = ENUMERATION_CAP) -> list[ElementSet]:
        # The generic scan's result: ``bases`` is in its order.  Above the
        # cap, the generic method raises.
        if self._n > cap:
            return super().enumerate_bases(cap)
        return list(self.bases)

    def __repr__(self) -> str:
        return f"BasisMatroid(n={self._n}, bases={len(self._masks)})"


class Restriction(Matroid):
    """A matroid restricted to a subset, re-indexed densely: local element j
    is ``self.elements[j]`` of the inner matroid, in ascending order.

    No solve builds one.  It stays only because ``bench/tracing.py`` binds
    its name, and ``test_arm_matches_restriction`` checks ``Arm`` against it.
    """

    def __init__(self, inner: Matroid, kept):
        self.elements = tuple(sorted(inner.check_subset(kept)))
        super().__init__(len(self.elements))
        self.inner = inner

    def _indep(self, s: ElementSet) -> bool:
        return self.inner._indep(frozenset(self.elements[j] for j in s))

    def __repr__(self) -> str:
        return f"Restriction({self.inner!r}, elements={list(self.elements)})"


class _SlotPart(PreparedPart):
    # The part of a lift whose inner matroid is not graphic: an inner part
    # of the covered elements, keyed through ``slots``.  Another copy of a
    # covered element closes a parallel pair; any other slot closes the
    # lift of its element's inner circuit.

    def __init__(self, matroid: SlotMatroid):
        super().__init__(matroid)
        self.cover: dict[int, int] = {}  # covered inner element -> its slot in the part
        self.inner = matroid.inner._prepare()

    def takes(self, x: int) -> bool:
        e = self.matroid.slots[x][1]
        return e not in self.cover and self.inner.takes(e)

    def circuit(self, x: int) -> AbstractSet[int]:
        e = self.matroid.slots[x][1]
        if e in self.cover:
            return frozenset((self.cover[e],))
        found = self.inner.circuit(e)  # the inner part refused e
        if len(found) == len(self.cover):
            # A circuit lies in the part, so this one is all of it: its
            # lift is the whole slot part.
            return self.part
        return frozenset(map(self.cover.__getitem__, found))

    def add(self, x: int) -> None:
        e = self.matroid.slots[x][1]
        if e in self.cover:  # another copy of e is in the part
            raise self._dependent(x)
        self.inner.add(e)
        self.part.add(x)
        self.cover[e] = x

    def remove(self, y: int) -> None:
        PreparedPart.remove(self, y)
        e = self.matroid.slots[y][1]
        del self.cover[e]
        self.inner.remove(e)


class SlotMatroid(Matroid):
    """Parallel-copy lift of a matroid along blocks of its elements.

    Block i gets one slot per element of ``blocks[i]``, in ascending order,
    and ``slots`` lists the (tag, element) pair of every slot: slot j copies
    inner element ``slots[j][1]`` of block ``slots[j][0]``.  A block may be
    any element set of the inner matroid, dependent or empty.  This
    constructor checks each block by ``inner.check_subset``; ``_lifted``
    builds the same lift on blocks that are already checked, and checks
    none.  Two copies of the same inner element form a circuit, so a slot
    set is independent iff its inner elements are pairwise distinct and
    their projection is independent.

    That projection is the oracle, ``_indep``.  A parallel copy of an edge
    is a parallel edge, so the lift of a graphic matroid keeps one table,
    built here once: slot j's ends are the dense ends of edge
    ``slots[j][1]``.  Its parts are forest parts of the lift itself, over
    the slots, that read this table on the inner vertices, with no second
    matroid.  Any other lift prepares a ``_SlotPart``.
    """

    def __init__(self, inner: Matroid, blocks):
        blocks = _listed(blocks, "blocks must be a sequence of element sets")
        _check_matroid(inner, "the inner matroid")
        self._lift(inner, map(inner.check_subset, blocks))

    def _lift(self, inner: Matroid, blocks) -> None:
        self.inner = inner
        self.slots = tuple((i, e) for i, b in enumerate(blocks) for e in sorted(b))
        super().__init__(len(self.slots))
        graphic = isinstance(inner, GraphicMatroid)
        self._ends = tuple(inner._ends[e] for _, e in self.slots) if graphic else None

    def _indep(self, s: ElementSet) -> bool:
        proj = frozenset(self.slots[j][1] for j in s)
        return len(proj) == len(s) and self.inner._indep(proj)

    def _prepare(self) -> PreparedPart:
        if self._ends is not None:
            return _ForestPart(self, self._ends, self.inner._order)
        return _SlotPart(self)

    def __repr__(self) -> str:
        return f"SlotMatroid({self.inner!r}, slots={len(self.slots)})"


def _lifted(inner: Matroid, blocks) -> SlotMatroid:
    """``SlotMatroid(inner, blocks)`` on ``blocks`` that are already checked
    element sets of ``inner``, which it does not check again."""
    lift = SlotMatroid.__new__(SlotMatroid)
    lift._lift(inner, blocks)
    return lift


def disjoint_copies(matroid: Matroid, bases) -> SlotMatroid:
    """Lift ``matroid`` so the given bases become pairwise disjoint.

    The lift is ``SlotMatroid(matroid, bases)`` after a check that every
    set is a basis, built on the sets that check read, with no second
    check: each basis is one block of slots, so overlapping or even
    repeated input bases turn into disjoint slot blocks, each still a basis
    of the lift.
    """
    bases = _listed(bases, "bases must be a sequence of element sets")
    _check_matroid(matroid, "matroid")
    normalized = [matroid.check_subset(b) for b in bases]
    _check_bases(matroid, normalized)
    return _lifted(matroid, normalized)
