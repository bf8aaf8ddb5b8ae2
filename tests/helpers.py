"""Independent test oracles and fixture builders.

Everything here recomputes matroid facts by plain enumeration (bitmask
tables, dynamic programming, exhaustive assignment search) so that the
library's greedy/augmenting-path code paths are checked against a second,
dumber route.
"""

import collections
import itertools
import operator
import random
from collections.abc import Mapping

from matrex import (
    AXIOM_CHECK_CAP,
    Arm,
    AxiomViolation,
    BasisMatroid,
    DeficiencyCertificate,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    Partition,
    PartitionProblem,
    SizeLimitError,
    UniformMatroid,
    ValidationError,
    disjoint_copies,
    exchange,
    union,
)

K4_EDGES = [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3], [0, 3]]
FANO_COLUMNS = [c for c in itertools.product((0, 1), repeat=3) if any(c)]


def mask_to_set(mask):
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def indep_table(matroid):
    """Independence of every subset of the ground set, indexed by bitmask."""
    n = matroid.ground_size
    return [matroid.is_independent(mask_to_set(m)) for m in range(1 << n)]


def rank_table(indep, n):
    """Rank of every subset, by DP over the independence table (no greedy)."""
    rank = [0] * (1 << n)
    for mask in range(1, 1 << n):
        if indep[mask]:
            rank[mask] = bin(mask).count("1")
        else:
            rank[mask] = max(
                rank[mask & ~(1 << b)] for b in range(n) if mask >> b & 1
            )
    return rank


def hereditary_holds(indep, n):
    for mask in range(1 << n):
        if indep[mask]:
            for b in range(n):
                if mask >> b & 1 and not indep[mask & ~(1 << b)]:
                    return False
    return True


def augmentation_holds(indep, n):
    independent = [m for m in range(1 << n) if indep[m]]
    by_size = {}
    for m in independent:
        by_size.setdefault(bin(m).count("1"), []).append(m)
    for small_size, small_masks in by_size.items():
        for big_size, big_masks in by_size.items():
            if big_size <= small_size:
                continue
            for a in small_masks:
                for b in big_masks:
                    extra = b & ~a
                    if not any(
                        indep[a | (1 << e)] for e in range(n) if extra >> e & 1
                    ):
                        return False
    return True


def submodular_holds(rank, n):
    full = 1 << n
    for a in range(full):
        for b in range(a, full):
            if rank[a | b] + rank[a & b] > rank[a] + rank[b]:
                return False
    return True


def gf2_independent(columns):
    """Column independence over GF(2) by trying every nonzero combination."""
    cols = [tuple(c) for c in columns]
    if not cols:
        return True
    d = len(cols[0])
    for coeffs in itertools.product((0, 1), repeat=len(cols)):
        if not any(coeffs):
            continue
        combo = [sum(c * col[i] for c, col in zip(coeffs, cols)) % 2 for i in range(d)]
        if not any(combo):
            return False
    return True


def gf_rank(prime, vectors):
    """Rank over GF(prime) by Gaussian elimination on lists, entry by entry."""
    rows = [[a % prime for a in vec] for vec in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, prime)
        top = rows[rank] = [a * inv % prime for a in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % prime for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def gf_greedy(prime, columns, elements):
    """The ascending greedy scan, one rank computation per element."""
    picked = []
    for e in sorted(elements):
        if gf_rank(prime, [columns[i] for i in picked + [e]]) == len(picked) + 1:
            picked.append(e)
    return frozenset(picked)


def gf_circuit(prime, columns, part, x):
    """None if the independent ``part`` + x is independent, otherwise the y of
    the part that x can replace: those with part - y + x independent."""
    def rank(s):
        return gf_rank(prime, [columns[i] for i in s])

    if rank(part | {x}) > len(part):
        return None
    return frozenset(y for y in part if rank((part - {y}) | {x}) == len(part))


def base_axiom_by_sets(n, family):
    """``check_base_axiom`` on frozensets, as it was before it worked on
    bitmasks: the same validation, scan order and first violation."""
    members = []
    for b in family:
        s = frozenset(map(operator.index, b))
        for e in s:
            if not 0 <= e < n:
                raise ValidationError(f"element {e} out of range for ground set of size {n}")
        members.append(s)
    if not members:
        raise ValidationError("basis family must be nonempty")
    if len(members) > AXIOM_CHECK_CAP:
        raise SizeLimitError(f"{len(members)} bases exceed the axiom check cap {AXIOM_CHECK_CAP}")

    for b in members[1:]:
        if len(b) != len(members[0]):
            return False, AxiomViolation(members[0], b, None)

    for b1 in members:
        # swaps[e1]: every e2 with b1 - e1 + e2 in the family.  All sets have
        # one size, so such a member differs from b1 in e1 and e2 only.
        swaps = {e1: set() for e1 in b1}
        for b in members:
            added = b - b1
            if len(added) == 1:
                (e1,) = b1 - b
                swaps[e1] |= added
        for b2 in members:
            for e1 in sorted(b1 - b2):
                if swaps[e1].isdisjoint(b2):
                    return False, AxiomViolation(b1, b2, e1)
    return True, None


def base_axiom_by_triple_loop(family):
    """``check_base_axiom`` on a valid nonempty family, as it scanned before
    it indexed the swaps: for each (b1, b2, e1), one family lookup per e2."""
    members = [frozenset(b) for b in family]
    for b in members[1:]:
        if len(b) != len(members[0]):
            return False, AxiomViolation(members[0], b, None)
    present = set(members)
    for b1 in members:
        for b2 in members:
            for e1 in sorted(b1 - b2):
                base = b1 - {e1}
                if not any(base | {e2} in present for e2 in sorted(b2 - b1)):
                    return False, AxiomViolation(b1, b2, e1)
    return True, None


def flat_shift_tuples(is_basis, bases, seed, offsets):
    """Every (A_2, ..., A_k) whose sets (B_i - A_i) | A_{(i-o) mod k} are all
    bases for every o in ``offsets``, by testing all sets of every tuple of
    the full product, in lexicographic order."""
    k, m = len(bases), len(seed)
    pools = [itertools.combinations(sorted(b), m) for b in bases[1:]]
    solutions = []
    for combo in itertools.product(*pools):
        parts = (seed,) + tuple(frozenset(c) for c in combo)
        if all(is_basis((bases[i] - parts[i]) | parts[(i - o) % k])
               for o in offsets for i in range(k)):
            solutions.append(parts[1:])
    return solutions


def is_forest(edge_ids, edges, vertex_count):
    """Acyclicity by DFS component counting (no union-find)."""
    chosen = [edges[i] for i in edge_ids]
    if any(u == v for u, v in chosen):
        return False
    adj = {v: [] for v in range(vertex_count)}
    for u, v in chosen:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    components = 0
    for start in range(vertex_count):
        if start in seen:
            continue
        components += 1
        stack = [start]
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            stack.extend(adj[v])
    return len(chosen) == vertex_count - components


def union_find_forest(edges, ids):
    """The edges of ``ids``, in ascending order, that join two trees of the
    forest grown so far, by a union-find keyed by the raw vertex ids."""
    parent = {}

    def find(v):
        while parent.get(v, v) != v:
            v = parent[v]
        return v

    picked = []
    for i in sorted(ids):
        ru, rv = find(edges[i][0]), find(edges[i][1])
        if ru != rv:
            parent[ru] = rv
            picked.append(i)
    return frozenset(picked)


def partition_exists_exhaustive(problem):
    """Literal k^n assignment search for a full partition."""
    elems = sorted(problem.universe)
    k = problem.k
    for assignment in itertools.product(range(k), repeat=len(elems)):
        parts = [set() for _ in range(k)]
        for e, j in zip(elems, assignment):
            parts[j].add(e)
        if all(
            frozenset(p) <= arm.allowed and arm.is_independent(p)
            for p, arm in zip(parts, problem.arms)
        ):
            return True
    return False


class OracleOnly(Matroid):
    """``inner`` seen through its independence oracle alone, so a solve on it
    runs the default ``PreparedPart``: its ``circuit``, ``add`` and ``remove``."""

    def __init__(self, inner):
        super().__init__(inner.ground_size)
        self.inner = inner

    def _indep(self, s):
        return self.inner._indep(s)

    def __repr__(self):
        return f"OracleOnly({self.inner!r})"


def fixture_matroids(max_n=10):
    """One representative per implemented matroid class, all with n <= max_n."""
    k4 = GraphicMatroid(4, K4_EDGES)
    fixtures = [
        UniformMatroid(0, 0),
        UniformMatroid(4, 2),
        UniformMatroid(6, 3),
        UniformMatroid(5, 5),
        UniformMatroid(7, 1),
        k4,
        # triangle with a parallel edge and a self-loop
        GraphicMatroid(3, [[0, 1], [1, 2], [0, 2], [0, 1], [2, 2]]),
        GraphicMatroid(5, [[u, v] for u in range(5) for v in range(u + 1, 5)]),
        LinearMatroid(2, 3, FANO_COLUMNS),
        LinearMatroid(3, 2, [[1, 0], [0, 1], [1, 1], [1, 2], [0, 0]]),
        LinearMatroid(5, 3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 3], [4, 4, 1]]),
        BasisMatroid(4, [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]),
        BasisMatroid(2, [[0]]),
        BasisMatroid(4, [[0, 1], [1, 2], [0, 2]]),
        GraphicMatroid(4, [K4_EDGES[i] for i in (0, 1, 2, 4)]),
        disjoint_copies(k4, [{0, 1, 2}, {3, 4, 5}]),
    ]
    return [m for m in fixtures if m.ground_size <= max_n]


def random_problem(seed, max_n=8, max_k=3):
    """A deterministic random partition problem over the fixture classes."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_k)
    arms = []
    for _ in range(k):
        kind = rng.choice(("uniform", "graphic", "linear", "bases"))
        if kind == "uniform":
            matroid = UniformMatroid(n, rng.randint(0, n))
        elif kind == "graphic":
            vertices = rng.randint(2, 5)
            edges = [sorted(rng.sample(range(vertices), 2)) for _ in range(n)]
            matroid = GraphicMatroid(vertices, edges)
        elif kind == "linear":
            prime = rng.choice((2, 3))
            rows = rng.randint(1, 4)
            cols = [[rng.randrange(prime) for _ in range(rows)] for _ in range(n)]
            matroid = LinearMatroid(prime, rows, cols)
        else:
            rank = rng.randint(1, max(1, n // 2))
            cols = [[rng.getrandbits(1) for _ in range(rank)] for _ in range(n)]
            lin = LinearMatroid(2, rank, cols)
            bases = lin.enumerate_bases()
            if not bases or not bases[0]:
                matroid = UniformMatroid(n, 1)
            else:
                matroid = BasisMatroid(n, bases, validate=False)
        size = rng.randint(0, n)
        allowed = frozenset(rng.sample(range(n), size))
        arms.append(Arm(allowed, matroid))
    return PartitionProblem(frozenset(range(n)), arms)


def exchange_shaped_problem(seed, max_n=16, max_k=6):
    """A deterministic random problem with the shape of the exchange's: up to
    ``max_k`` uniform or graphic arms, each element allowed in at most 2 of
    them (a cyclic pair {j, j+1 mod k}, or a random one or two arms and
    rarely none).  Ranks are drawn so that both outcomes are common."""
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    k = rng.randint(1, max_k)
    cyclic = rng.random() < 0.5
    lists = []
    for _ in range(n):
        j = rng.randrange(k)
        if cyclic:
            lists.append({j, (j + 1) % k})
        else:
            size = 0 if rng.random() < 0.02 else min(k, rng.choice((1, 2, 2)))
            lists.append(set(rng.sample(range(k), size)))
    arms = []
    for i in range(k):
        allowed = frozenset(x for x, listed in enumerate(lists) if i in listed)
        if rng.random() < 0.5:
            matroid = UniformMatroid(n, rng.randint(len(allowed) // 3, (len(allowed) + 1) // 2))
        else:
            vertices = rng.randint(2, 6)
            matroid = GraphicMatroid(vertices, [rng.sample(range(vertices), 2) for _ in range(n)])
        arms.append(Arm(allowed, matroid))
    return PartitionProblem(frozenset(range(n)), arms)


def circuit_or_none(prepared, x):
    """A prepared part's answer for x, asked in the one order its contract
    allows: None when it takes x, otherwise the circuit of part + x."""
    return None if prepared.takes(x) else prepared.circuit(x)


def grown(prepared, part):
    """``prepared``, an empty prepared part, grown by an ``add`` of each
    element of the independent set ``part``, in ascending order."""
    for x in sorted(part):
        prepared.add(x)
    return prepared


def reference_partition(problem):
    """The augmenting-path solver with one independence query per arc, as
    ``matroid_partition`` was before it read arcs off fundamental circuits.

    Same insertion order and tie-breaks (first-discovered node, ascending arm
    for sink arcs, ascending element id for swap arcs), every arc asked
    through the validated ``Arm.is_independent``, nothing cached.  Returns
    the same Partition or DeficiencyCertificate the library should.
    """
    arms = problem.arms
    parts = [set() for _ in arms]
    owner = {}

    def arc(i, x, y):  # can x join part i, in place of y (y None: directly)?
        arm = arms[i]
        return x in arm.allowed and x not in parts[i] and arm.is_independent((parts[i] - {y}) | {x})

    for source in sorted(problem.universe):
        parent = {source: None}
        queue = collections.deque([source])
        sink = None
        while queue and sink is None:
            x = queue.popleft()
            sink = next((i for i in range(len(arms)) if arc(i, x, None)), None)
            if sink is None:
                for y in sorted(owner):
                    if y not in parent and arc(owner[y], x, y):
                        parent[y] = x
                        queue.append(y)
        if sink is None:
            witness = frozenset(parent)
            terms = tuple(arm.rank(witness & arm.allowed) for arm in arms)
            return DeficiencyCertificate(witness, sum(terms), len(witness), terms)
        while x is not None:
            old = owner.get(x)
            if old is not None:
                parts[old].discard(x)
            parts[sink].add(x)
            owner[x] = sink
            x, sink = parent[x], old
    return Partition(tuple(frozenset(p) for p in parts))


def indexed(container):
    """The ``(element, value)`` pairs of a solve's ``arms_of`` or ``owner``:
    a mapping's items, or a sequence's values with their indices."""
    return container.items() if isinstance(container, Mapping) else enumerate(container)


def check_every_augmentation(monkeypatch):
    """Re-check the solver state after every augmentation: each element's arm
    list is the one the solve was handed, ascending and unchanged.  After
    every successful one, also: each arm keeps the same prepared part, and
    it holds the elements that ``owner`` assigns to the arm; the parts are
    disjoint and each independent in its matroid through the validated
    public query; and each prepared part answers every x in allowed - part
    as a freshly prepared one does: ``takes(x)`` as the fresh part's, and
    for a refused x the same circuit.  An arm allows the elements
    whose list names it.  The matroids and lists are the arguments of the
    ``union._partition`` call made last, which must be the solve under way:
    each part is of its arm's matroid.
    Returns the list of inserted sources."""
    augment, partition = union._augment, union._partition
    solves, augmented = [], []

    def recording(matroids, arms_of):
        solves.append((matroids, arms_of, {x: list(listed) for x, listed in indexed(arms_of)}))
        return partition(matroids, arms_of)

    def checking(arms_of, prepared, owner, source):
        matroids, given, lists = solves[-1]
        assert arms_of is given and len(prepared) == len(matroids) and all(
            kept.matroid is matroid for kept, matroid in zip(prepared, matroids)), \
            "the solve must be of the partition call made last"
        before = list(prepared)
        reached = augment(arms_of, prepared, owner, source)
        assert {x: list(listed) for x, listed in indexed(arms_of)} == lists and all(
            listed == sorted(set(listed)) for listed in lists.values()), \
            "arms_of must list x's arms in ascending order"
        if reached is None:
            parts = [kept.part for kept in prepared]
            assert sum(map(len, parts)) == len(set().union(*parts)), "parts must stay disjoint"
            for i, (matroid, kept, old) in enumerate(zip(matroids, prepared, before)):
                assert kept is old, "an arm must keep its prepared part"
                part = kept.part
                assert part == {x for x, home in indexed(owner) if home == i}, \
                    "a prepared part must hold the arm's part"
                assert matroid.is_independent(part), "parts must stay independent"
                fresh = grown(matroid._prepare(), part)
                allowed = {x for x, listed in lists.items() if i in listed}
                for x in sorted(allowed - part):
                    takes = kept.takes(x)
                    assert takes == fresh.takes(x), \
                        "a kept prepared part must take x exactly when a fresh one does"
                    assert takes or kept.circuit(x) == fresh.circuit(x), \
                        "a kept prepared part must answer as a fresh one"
            augmented.append(source)
        return reached

    monkeypatch.setattr(union, "_partition", recording)
    monkeypatch.setattr(exchange, "_partition", recording)
    monkeypatch.setattr(union, "_augment", checking)
    return augmented
