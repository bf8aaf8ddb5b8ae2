"""Matroid abstractions and concrete matroid classes.

All matroids live on a dense ground set {0, ..., n-1} and are immutable
after construction; the structural access is the independence query, plus
fundamental circuits of a prepared independent part, which every class can
answer through that query and the structured classes answer directly and
keep up to date as the part grows.  Rank, basis tests, enumeration and
the parallel-copy lift are built on top.  A solve restricts a matroid only
through the partition's arms, which query it in its own ids.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import sys
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass

from .errors import InternalVerificationError, SizeLimitError, ValidationError

#: Default ground-size gate for operations that enumerate all r-subsets.
ENUMERATION_CAP = 20

#: Largest basis family whose exchange-axiom check runs.  The check makes
#: O(|family|^2) operations on n-bit masks, plus one per element of each
#: difference b1 - b2.
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


def _check_matroid(value, name: str) -> None:
    """Raise "``name`` must be a Matroid, got ..." unless ``value`` is one."""
    if not isinstance(value, Matroid):
        raise ValidationError(f"{name} must be a Matroid, got {value!r}")


def _check_bases(matroid: Matroid, bases) -> None:
    """Raise unless every set of ``bases``, already validated as element
    sets, is a basis of ``matroid``."""
    for idx, b in enumerate(bases):
        if not matroid.is_basis(b):
            raise ValidationError(f"bases[{idx}] is not a basis of the matroid")


def _element_set(elements, n: int) -> ElementSet:
    """``elements`` as a frozenset of ids in range(n), or raise."""
    try:
        if iter(elements) is elements:  # a one-shot iterator: keep its items
            elements = tuple(elements)
    except TypeError:  # not iterable
        raise ValidationError(f"expected a set of element ids, got {elements!r}") from None
    try:
        s = frozenset(map(operator.index, elements))
    except TypeError:
        s = frozenset(map(_as_int, elements))  # raises for the first non-integer
    if s and (min(s) < 0 or max(s) >= n):
        for e in s:
            if not 0 <= e < n:
                raise ValidationError(f"element {e} out of range for ground set of size {n}")
    return s


def _dense(sets) -> tuple[dict[int, int], tuple[int, ...]]:
    """Bit positions for the elements of ``sets``: bit i stands for the i-th
    smallest of them, so a mask costs the size of their union, however
    large the ids.  Returns the position of each element and the elements
    in bit order."""
    elements = tuple(sorted(set().union(*sets)))
    return {e: i for i, e in enumerate(elements)}, elements


def _mask(s, bit: dict[int, int]) -> int | None:
    """The bitmask of ``s`` under the positions ``bit``, or None when some
    element of ``s`` has no position."""
    mask = 0
    for e in s:
        i = bit.get(e)
        if i is None:
            return None
        mask |= 1 << i
    return mask


def _elements(mask: int, elements: tuple[int, ...]) -> ElementSet:
    """The elements whose bits are set in ``mask``."""
    out = []
    while mask:
        low = mask & -mask
        out.append(elements[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


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
    ``_indep``.  Nothing is memoised here; the partition solver keeps one
    prepared part per arm, and a part keeps its whole as one frozenset
    only until its next move.

    ``_prepare(s)``, for an independent ``s``, returns a ``PreparedPart``:
    its ``circuit(x)`` gives the fundamental circuit of ``s + x``, its
    ``add(x)`` grows the part by an ``x`` that has none, and its
    ``remove(y)`` drops an element ``y`` of the part.  The default part
    asks ``_indep`` once per element of ``s`` and prepares again on ``add``
    and ``remove``; classes with structure (uniform, graphic, linear, basis
    families, the slot lift) return parts that answer each ``x`` directly
    and change in place.  A subclass author may return a ``PreparedPart``
    subclass that overrides ``__init__`` (calling the base one) and
    ``circuit`` only, and inherit ``add`` and ``remove``.
    """

    def __init__(self, ground_size: int):
        ground_size = _as_int(ground_size, "ground size")
        if ground_size < 0:
            raise ValidationError(f"ground size must be >= 0, got {ground_size}")
        self._n = ground_size
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

    def _prepare(self, s: ElementSet) -> "PreparedPart":
        """The fundamental circuits of the independent set ``s``."""
        return PreparedPart(self, s)

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
        s = self.check_subset(elements)
        return len(s) == self.full_rank() and self._indep(s)

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

    ``part`` is a set that the part owns and changes in place: callers read
    it, but never keep or mutate it.  ``circuit(x)``, for ``x`` outside the
    part, is None when ``part + x`` is independent, otherwise a frozenset
    of the elements of the part on the unique circuit of ``part + x`` (empty
    when ``x`` is a loop), which no later move changes.  A circuit that is
    the whole part may be ``whole()``: one frozenset, built on first use
    and shared until the part's next move, as the uniform and slot parts
    answer.  ``add(x)`` grows the part by an ``x`` whose circuit is None;
    circuits found before stay valid, since the unique circuit of
    ``part + x`` is still the unique one of any larger independent part
    plus ``x``.  ``remove(y)`` drops ``y`` from the part; circuits found
    before stay valid exactly when they miss ``y``.

    This base class answers through the oracle, on frozensets (once
    ``part + x`` is dependent, ``part - y + x`` is independent exactly when
    y lies on its circuit), and ``add`` and ``remove`` prepare again by
    re-running ``__init__`` on a frozenset of the changed part; subclasses
    change their state in place, ``part`` through ``_put`` and ``_drop``,
    which also let go of the shared whole.  They also refuse, with an
    InternalVerificationError, an ``add`` that would make the part
    dependent and a ``remove`` of a non-member, mostly for the price of one
    comparison on each move.
    """

    def __init__(self, matroid: Matroid, part: ElementSet):
        self.matroid = matroid
        self.part = set(part)
        self._whole: ElementSet | None = None

    def whole(self) -> ElementSet:
        """The part as a frozenset, shared until the part's next move."""
        if self._whole is None:
            self._whole = frozenset(self.part)
        return self._whole

    def circuit(self, x: int) -> ElementSet | None:
        m, s = self.matroid, self.whole()
        if m._indep(s | {x}):
            return None
        return frozenset(y for y in s if m._indep((s - {y}) | {x}))

    def add(self, x: int) -> None:
        self.__init__(self.matroid, frozenset(self.part | {x}))

    def remove(self, y: int) -> None:
        self.__init__(self.matroid, frozenset(self.part - {y}))

    def _dependent(self, x: int) -> InternalVerificationError:
        name = type(self.matroid).__name__
        return InternalVerificationError(f"{name} part: adding {x} makes it dependent")

    def _put(self, x: int) -> None:
        """Put ``x`` into ``part``."""
        self.part.add(x)
        self._whole = None

    def _drop(self, y: int) -> None:
        """Take ``y`` out of ``part``, or refuse a non-member."""
        if y not in self.part:
            name = type(self.matroid).__name__
            raise InternalVerificationError(f"{name} part: {y} is not in the part")
        self.part.remove(y)
        self._whole = None


class _UniformPart(PreparedPart):
    def circuit(self, x: int) -> ElementSet | None:
        return self.whole() if len(self.part) >= self.matroid.rank_bound else None

    def add(self, x: int) -> None:
        if len(self.part) >= self.matroid.rank_bound:
            raise self._dependent(x)
        self._put(x)

    def remove(self, y: int) -> None:
        self._drop(y)


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

    def _prepare(self, s: ElementSet) -> PreparedPart:
        return _UniformPart(self, s)

    def __repr__(self) -> str:
        return f"UniformMatroid(n={self._n}, r={self.rank_bound})"


class _ForestPart(PreparedPart):
    """A graphic part as a rooted spanning forest of its edges.

    The circuit of part + x is the tree path between x's endpoints, found
    by climbing to their meeting point.  Adding x links two trees by
    re-hanging the smaller one below x; removing y cuts the subtree below y
    off as a tree rooted at its top.  The state is five lists indexed by
    the matroid's dense vertex ids: ``up`` (parent and edge, None at a
    root), ``depth``, ``root``, ``size`` (read at roots) and ``adjacent``,
    so it takes space for the touched vertices only.
    """

    def __init__(self, matroid: GraphicMatroid, part: ElementSet):
        super().__init__(matroid, part)
        order = matroid._order
        self.up: list[tuple[int, int] | None] = [None] * order
        self.depth = [0] * order
        self.root = list(range(order))
        self.size = [1] * order
        self.adjacent: list[list[tuple[int, int]]] = [[] for _ in range(order)]
        for i in part:
            self._link(i)

    def circuit(self, x: int) -> ElementSet | None:
        u, v = self.matroid._ends[x]
        if u == v:
            return frozenset()
        if self.root[u] != self.root[v]:
            return None
        up, depth, path = self.up, self.depth, []
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, i = up[u]
            path.append(i)
        return frozenset(path)

    def add(self, x: int) -> None:
        self._link(x)
        self._put(x)

    def remove(self, y: int) -> None:
        self._drop(y)
        u, v = self.matroid._ends[y]
        if self.up[u] != (v, y):
            u, v = v, u
        # u hangs below v by y: cut it off and root its subtree at u.
        self.adjacent[u].remove((v, y))
        self.adjacent[v].remove((u, y))
        self.up[u], self.depth[u], self.root[u] = None, 0, u
        self.size[u] = self._spread(u, None)
        self.size[self.root[v]] -= self.size[u]

    def _link(self, i: int) -> None:
        u, v = self.matroid._ends[i]
        root, size = self.root, self.size
        if root[u] == root[v]:  # a self-loop, or both ends in one tree
            raise self._dependent(i)
        if size[root[u]] > size[root[v]]:
            u, v = v, u
        top = root[v]
        size[top] += size[root[u]]
        # Hang u below v, then walk u's old tree outwards from u.
        self.up[u], self.depth[u], root[u] = (v, i), self.depth[v] + 1, top
        self._spread(u, v)
        self.adjacent[u].append((v, i))
        self.adjacent[v].append((u, i))

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


def _flat_pairs(items: list, ranged: slice, bound: int, check) -> list[int]:
    """``items``, pairs of ints whose flattened ``ranged`` entries lie in
    range(bound), flattened into one list.  One C-level pass does the common
    case; only when something is wrong does ``check(idx, item, bound)`` run
    on each item in turn, and it raises for the first bad one."""
    try:
        ok = set(map(len, items)) <= {2}
        flat = list(map(operator.index, itertools.chain.from_iterable(items))) if ok else []
    except TypeError:  # an item without a length, or a non-integer entry
        ok = False
    tested = flat[ranged] if ok else []
    if ok and (not tested or (min(tested) >= 0 and max(tested) < bound)):
        return flat
    pairs = [check(idx, item, bound) for idx, item in enumerate(items)]
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
    edges touch have dense ids 0..m-1, in ascending order, and the
    union-find and the forest parts keep lists over those ids: their size
    is m, never ``vertex_count``.  ``vertex_count`` and ``edges`` keep the
    ids as given.
    """

    def __init__(self, vertex_count: int, edges):
        vertex_count = _as_int(vertex_count, "vertex count")
        if vertex_count < 0:
            raise ValidationError(f"vertex count must be >= 0, got {vertex_count}")
        edges = _listed(edges, "edges must be a sequence of vertex pairs")
        ends = _flat_pairs(edges, slice(None), vertex_count, _check_edge)
        super().__init__(len(ends) // 2)
        self.vertex_count = vertex_count
        self.edges = tuple(zip(ends[::2], ends[1::2]))
        # When the touched vertices are 0..m-1 already, they are the dense ids.
        touched = set(ends)
        self._order = len(touched)
        self._ends = self.edges  # edge -> dense endpoints
        if touched and max(touched) >= len(touched):
            index = dict(zip(sorted(touched), itertools.count()))
            dense = list(map(index.__getitem__, ends))
            self._ends = tuple(zip(dense[::2], dense[1::2]))

    def _joins(self, ids):
        """For each edge of ``ids`` in turn, whether it joins two trees of the
        forest grown so far (it is then added); False means it closes a cycle."""
        # Union-find with path halving over the dense vertex ids.
        parent, ends = list(range(self._order)), self._ends
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
        # once the forest spans: no later edge can join two of its trees.
        ordered = sorted(self.check_subset(elements))
        joined = (i for i, joins in zip(ordered, self._joins(ordered)) if joins)
        return frozenset(itertools.islice(joined, max(self.vertex_count - 1, 0)))

    def _prepare(self, s: ElementSet) -> PreparedPart:
        return _ForestPart(self, s)

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
    how each row was combined from its inputs.  ``unpivoted`` keeps the
    columns below ``width`` with no pivot, ascending: a reduced vector is
    zero there or in all of the first ``width`` entries, mod p.
    """

    def __init__(self, fields: _Fields, width: int, length: int):
        self.fields = fields
        self.length = length
        self.rows: list[tuple[int, int]] = []  # (pivot shift, row)
        self.unpivoted = list(range(width))

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
        mod p, or None when it is in the span of the rows."""
        p, bits, mask = self.fields.prime, self.fields.bits, self.fields.mask
        return next((c for c in self.unpivoted if (vec >> c * bits & mask) % p), None)

    def add(self, vec: int) -> bool:
        """Reduce ``vec`` and keep it as a row; False if it was in the span."""
        if not self.unpivoted:
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
        self.unpivoted.remove(col)

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
        shift, last = rows.pop(r)
        inv = pow(last >> at & mask, -1, p)
        for i in range(r):
            f = rows[i][1] >> at & mask
            if f:
                cleared = rows[i][1] + (p - f) * inv % p * last
                rows[i] = (rows[i][0], fields.scale(cleared, self.length, 1))
        bisect.insort(self.unpivoted, shift // fields.bits)


class _BitEchelon:
    """``_Echelon`` over GF(2), on vectors packed one bit per entry.

    A row step is one test and one XOR: ``if vec & pivot_bit: vec ^= row``.
    ``open`` holds the bits of the columns below ``width`` with no pivot, and
    the pivot of a reduced vector is its lowest bit in ``open``, the column
    ``_Echelon.pivot`` picks, so both echelons hold the same rows.
    """

    def __init__(self, width: int):
        self.rows: list[tuple[int, int]] = []  # (pivot bit, row)
        self.open = (1 << width) - 1

    def reduce(self, vec: int) -> int:
        for bit, row in self.rows:
            if vec & bit:
                vec ^= row
        return vec

    def pivot(self, vec: int) -> int | None:
        low = vec & self.open
        return (low & -low).bit_length() - 1 if low else None

    def add(self, vec: int) -> bool:
        # ``pivot`` and ``keep`` inline: this is every independence test.
        if not self.open:
            return False
        vec = self.reduce(vec)
        low = vec & self.open
        if not low:
            return False
        low &= -low
        self.rows.append((low, vec))
        self.open ^= low
        return True

    def keep(self, vec: int, col: int) -> None:
        bit = 1 << col
        self.rows.append((bit, vec))
        self.open ^= bit

    def drop(self, at: int) -> None:
        bit, rows = 1 << at, self.rows
        r = next(r for r in reversed(range(len(rows))) if rows[r][1] & bit)
        pivot, last = rows.pop(r)
        for i in range(r):
            if rows[i][1] & bit:
                rows[i] = (rows[i][0], rows[i][1] ^ last)
        self.open |= pivot


class _EchelonPart(PreparedPart):
    # Each element of the part carries a unit tag e_j, in a tag block as wide
    # as the columns are long (an independent part has at most that many
    # elements) and packed above the column entries.  When x reduces to zero
    # in its column part, its tags are minus its coordinates in the part, and
    # the nonzero ones mark the circuit.  Removing y drops the row that holds
    # y's tag last and leaves y's slot in ``order`` vacant for the next add.

    def __init__(self, matroid: LinearMatroid, part: ElementSet):
        super().__init__(matroid, part)
        d = matroid.rows
        self.echelon = matroid._fields.echelon(d, 2 * d)
        self.tag_shift = d * matroid._fields.bits
        self.order: list[int | None] = []  # the element tagged e_j, None if vacant
        self.vacant: list[int] = []
        self.free: tuple[int, int, int] | None = None  # last x with no circuit: reduced, pivot
        for e in part:
            self._append(e)

    def circuit(self, x: int) -> ElementSet | None:
        vec = self.echelon.reduce(self.matroid._packed[x])
        col = self.echelon.pivot(vec)
        if col is not None:
            self.free = (x, vec, col)
            return None
        return self.matroid._fields.support(vec >> self.tag_shift, self.order)

    def add(self, x: int) -> None:
        self._append(x)
        self._put(x)

    def remove(self, y: int) -> None:
        self._drop(y)
        j = self.order.index(y)
        self.echelon.drop(self.tag_shift + j * self.matroid._fields.bits)
        self.order[j] = None
        self.vacant.append(j)
        self.free = None

    def _append(self, e: int) -> None:
        # No row carries tag j yet, so e tagged e_j reduces to e reduced
        # untagged, plus e_j: reuse the reduction circuit(e) just made.
        if self.free is not None and self.free[0] == e:
            _, vec, col = self.free
        else:
            vec = self.echelon.reduce(self.matroid._packed[e])
            col = self.echelon.pivot(vec)
            if col is None:  # e is in the span of the part
                raise self._dependent(e)
        if self.vacant:
            j = self.vacant.pop()
            self.order[j] = e
        else:
            j = len(self.order)
            self.order.append(e)
        self.echelon.keep(vec + (1 << self.tag_shift + j * self.matroid._fields.bits), col)
        self.free = None


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

    def _prepare(self, s: ElementSet) -> PreparedPart:
        return _EchelonPart(self, s)

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
    sets = [_element_set(b, n) for b in _listed(family, "bases must be a sequence of element sets")]
    if not sets:
        raise ValidationError("basis family must be nonempty")
    bit, elements = _dense(sets)
    violation = _axiom_violation([_mask(b, bit) for b in sets], elements)
    return violation is None, violation


def _axiom_violation(masks: list[int], elements: tuple[int, ...]) -> AxiomViolation | None:
    """The first violation of ``check_base_axiom`` by a nonempty family of
    bitmasks, in its scan order, or None.  Bit i stands for ``elements[i]``,
    and ``elements`` ascends, so the lowest bit is the smallest element."""
    if len(masks) > AXIOM_CHECK_CAP:
        raise SizeLimitError(f"{len(masks)} bases exceed the axiom check cap {AXIOM_CHECK_CAP}")
    size = masks[0].bit_count()
    for b in masks[1:]:
        if b.bit_count() != size:
            return AxiomViolation(_elements(masks[0], elements), _elements(b, elements), None)

    for b1 in masks:
        # swaps[e1]: the mask of every e2 with b1 - e1 + e2 in the family,
        # keyed by the bit of e1.  All sets have one size, so such a member
        # differs from b1 in e1 and e2 only.
        swaps: dict[int, int] = {}
        outside = ~b1
        for b in masks:
            added = b & outside
            if added and not added & (added - 1):
                removed = b1 & ~b
                swaps[removed] = swaps.get(removed, 0) | added
        for b2 in masks:
            rest = b1 & ~b2
            while rest:  # the e1 of b1 - b2, lowest first
                e1 = rest & -rest
                if not swaps.get(e1, 0) & b2:
                    return AxiomViolation(_elements(b1, elements), _elements(b2, elements),
                                          elements[e1.bit_length() - 1])
                rest ^= e1
    return None


class _BasisPart(PreparedPart):
    # The part is a bitmask.  part + x is independent when some basis covers
    # it; otherwise y is on its circuit when some basis covers part - y + x,
    # that is when part + x misses that basis in y alone.  An element in no
    # basis is a loop, and has no bit.

    def __init__(self, matroid: BasisMatroid, part: ElementSet):
        super().__init__(matroid, part)
        self.mask = _mask(part, matroid._bit)

    def circuit(self, x: int) -> ElementSet | None:
        i = self.matroid._bit.get(x)
        if i is None:
            return frozenset()
        grown = self.mask | 1 << i
        closing = 0
        for b in self.matroid._masks:
            missing = grown & ~b
            if not missing:
                return None
            if not missing & (missing - 1):
                closing |= missing
        # A basis missing x alone covers the part, and closes no circuit.
        return _elements(closing & ~(1 << i), self.matroid._elements)

    def add(self, x: int) -> None:
        i = self.matroid._bit.get(x)
        if i is None:  # a loop
            raise self._dependent(x)
        grown = self.mask | 1 << i
        if all(grown & ~b for b in self.matroid._masks):
            raise self._dependent(x)
        self.mask = grown
        self._put(x)

    def remove(self, y: int) -> None:
        self._drop(y)
        self.mask ^= 1 << self.matroid._bit[y]


class BasisMatroid(Matroid):
    """Matroid given explicitly by its basis family.

    ``bases`` holds the family in lexicographic order, and each basis is
    also kept as a bitmask, which independence, circuits and the axiom
    check work on.  Bit i stands for the i-th smallest element of the union
    of the bases; the other elements are loops.  The exchange axiom is
    validated at construction (up to AXIOM_CHECK_CAP bases);
    ``validate=False`` skips it for large, already-trusted families.
    """

    def __init__(self, n: int, bases, validate: bool = True):
        super().__init__(n)
        bases = _listed(bases, "bases must be a sequence of element sets")
        family = [self.check_subset(b) for b in bases]
        if not family:
            raise ValidationError("basis family must be nonempty")
        size = len(family[0])
        if any(len(b) != size for b in family):
            raise ValidationError("all bases must have the same cardinality")
        self._bit, self._elements = _dense(family)
        masks = {b: _mask(b, self._bit) for b in family}
        if validate:
            violation = _axiom_violation([masks[b] for b in family], self._elements)
            if violation is not None:
                raise ValidationError(f"exchange axiom violated: {violation}")
        self.bases = tuple(sorted(masks, key=canon))
        self._masks = tuple(masks[b] for b in self.bases)
        self._family = frozenset(self._masks)
        self._full_rank = size

    def _indep(self, s: ElementSet) -> bool:
        m = _mask(s, self._bit)
        return m is not None and any(not m & ~b for b in self._masks)

    def _prepare(self, s: ElementSet) -> PreparedPart:
        return _BasisPart(self, s)

    def is_basis(self, elements) -> bool:
        return _mask(self.check_subset(elements), self._bit) in self._family

    def enumerate_bases(self, cap: int = ENUMERATION_CAP) -> list[ElementSet]:
        # The generic scan's result: ``bases`` is in its order.  Above the
        # cap, the generic method raises.
        if self._n > cap:
            return super().enumerate_bases(cap)
        return list(self.bases)

    def __repr__(self) -> str:
        return f"BasisMatroid(n={self._n}, bases={len(self.bases)})"


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
    # Another copy of a covered element closes a parallel pair; any other
    # slot closes the lift of its element's inner circuit.

    def __init__(self, matroid: SlotMatroid, part: ElementSet):
        super().__init__(matroid, part)
        self.cover = {matroid.slots[j][1]: j for j in part}
        self.inner = matroid.inner._prepare(frozenset(self.cover))

    def circuit(self, x: int) -> ElementSet | None:
        e = self.matroid.slots[x][1]
        if e in self.cover:
            return frozenset((self.cover[e],))
        found = self.inner.circuit(e)
        if found is None:
            return None
        if len(found) == len(self.cover):
            # A circuit lies in the part, so this one is all of it: its
            # lift is the whole slot part.
            return self.whole()
        return frozenset(map(self.cover.__getitem__, found))

    def add(self, x: int) -> None:
        e = self.matroid.slots[x][1]
        if e in self.cover:  # another copy of e is in the part
            raise self._dependent(x)
        self.inner.add(e)
        self._put(x)
        self.cover[e] = x

    def remove(self, y: int) -> None:
        self._drop(y)
        e = self.matroid.slots[y][1]
        del self.cover[e]
        self.inner.remove(e)


def _check_slot(j: int, item, ground_size: int) -> tuple[int, int]:
    """Slot ``j``, ``item``, as a (tag, element) pair of ints, or raise."""
    try:
        tag, elem = item
    except (TypeError, ValueError):
        raise ValidationError(f"slot {j} must be a (tag, element) pair, got {item!r}") from None
    tag, elem = _as_int(tag), _as_int(elem)
    if not 0 <= elem < ground_size:
        raise ValidationError(f"slot {j} copies element {elem}, out of range")
    return tag, elem


class SlotMatroid(Matroid):
    """Parallel-copy lift of a matroid.

    Slot j is a copy of inner element ``slots[j][1]``, tagged with the index
    ``slots[j][0]`` of the basis it was copied from.  Two copies of the same
    inner element form a circuit, so a slot set is independent iff its inner
    elements are pairwise distinct and their projection is independent.
    """

    def __init__(self, inner: Matroid, slots):
        slots = _listed(slots, "slots must be a sequence of (tag, element) pairs")
        _check_matroid(inner, "the inner matroid")
        flat = _flat_pairs(slots, slice(1, None, 2), inner.ground_size, _check_slot)
        super().__init__(len(flat) // 2)
        self.inner = inner
        self.slots = tuple(zip(flat[::2], flat[1::2]))

    def _indep(self, s: ElementSet) -> bool:
        proj: set[int] = set()
        for j in s:
            e = self.slots[j][1]
            if e in proj:
                return False
            proj.add(e)
        return self.inner._indep(frozenset(proj))

    def _prepare(self, s: ElementSet) -> PreparedPart:
        return _SlotPart(self, s)

    def __repr__(self) -> str:
        return f"SlotMatroid({self.inner!r}, slots={len(self.slots)})"


def disjoint_copies(matroid: Matroid, bases) -> SlotMatroid:
    """Lift ``matroid`` so the given bases become pairwise disjoint.

    Every basis gets its own block of slots (tagged 0..k-1, elements in
    ascending order within a block), so overlapping or even repeated input
    bases turn into disjoint slot blocks, each still a basis of the lift.
    """
    bases = _listed(bases, "bases must be a sequence of element sets")
    _check_matroid(matroid, "matroid")
    normalized = [matroid.check_subset(b) for b in bases]
    _check_bases(matroid, normalized)
    return _lift(matroid, normalized)


def _lift(matroid: Matroid, bases) -> SlotMatroid:
    """The lift of ``disjoint_copies``, for bases already validated."""
    return SlotMatroid(matroid, [(i, e) for i, b in enumerate(bases) for e in sorted(b)])
