"""Matroid partition by incremental augmenting paths.

Partitions a universe into sets D_i, each independent in its own matroid
M_i (queried only inside an allowed subset C_i of the universe), or returns a
deficiency certificate: a witness set whose total rank across the arms is
smaller than its cardinality, which proves no full partition exists.

The exchange arcs are read off fundamental circuits: one circuit per
expanded node and arm instead of one independence query per candidate swap,
as in Cunningham, "Improved bounds for matroid partition and intersection
algorithms" (1986).  Each arm's only state is one prepared part
(``Matroid._prepare``): it starts empty, holds the arm's set D_i for the
whole solve, answers its circuits, and takes every swap in place, as in
the incremental form of Knuth, "Matroid partitioning" (1973).  A part's
answers hold only until its next move, so the search reads each circuit
before it applies a path.  Parts do not move during a search, so an arm
whose whole part a search has labelled is asked only whether it takes a
node.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

from .core import ElementSet, Matroid, _as_ints, _check_matroid, _listed
from .errors import InternalVerificationError, ValidationError


class Arm:
    """One target of the partition: an allowed set and a matroid on the universe.

    The matroid is queried in universe ids, and only on subsets of
    ``allowed``; its elements outside ``allowed`` are never touched.
    """

    def __init__(self, allowed, matroid: Matroid):
        _check_matroid(matroid, "an arm's matroid")
        self.allowed = matroid.check_subset(allowed)
        self.matroid = matroid

    def is_independent(self, subset) -> bool:
        """Independence of a set of universe ids (must lie inside allowed)."""
        return self.matroid.is_independent(self._inside(subset))

    def rank(self, subset) -> int:
        return self.matroid.rank(self._inside(subset))

    def _inside(self, subset) -> ElementSet:
        s = frozenset(_as_ints(_listed(subset, "expected a set of element ids")))
        for e in s - self.allowed:
            raise ValidationError(f"element {e} is outside the arm's allowed set")
        return s


class PartitionProblem:
    """A universe plus k arms (C_i, M_i) to partition it into."""

    def __init__(self, universe, arms):
        self.universe = frozenset(_as_ints(
            _listed(universe, "universe must be a set of element ids"), "universe element"))
        self.arms = _listed(arms, "arms must be a sequence of Arm objects")
        if not self.arms:
            raise ValidationError("a partition problem needs at least one arm")
        for i, arm in enumerate(self.arms):
            if not isinstance(arm, Arm):
                raise ValidationError(f"arm {i} must be an Arm, got {arm!r}")
            if not arm.allowed <= self.universe:
                raise ValidationError(f"arm {i} allows elements outside the universe")

    @property
    def k(self) -> int:
        return len(self.arms)


@dataclass(frozen=True)
class Partition:
    """Disjoint parts D_1..D_k covering the universe, D_i independent in arm i."""

    parts: tuple[ElementSet, ...]


@dataclass(frozen=True)
class DeficiencyCertificate:
    """A set whose summed arm ranks fall short of its size.

    ``terms[i]`` is the rank of ``witness`` intersected with arm i's allowed
    set; their sum being below ``size`` certifies that no partition exists.
    """

    witness: ElementSet
    rank_sum: int
    size: int
    terms: tuple[int, ...]


def verify_partition(problem: PartitionProblem, partition: Partition) -> bool:
    """Check all partition invariants: arity, disjointness, allowed sets,
    independence, and coverage of the universe."""
    parts = partition.parts
    if len(parts) != problem.k:
        return False
    seen: set[int] = set()
    for part, arm in zip(parts, problem.arms):
        if part & seen:
            return False
        seen |= part
        if not part <= arm.allowed:
            return False
        if not arm.is_independent(part):
            return False
    return seen == problem.universe


def matroid_partition(problem: PartitionProblem) -> Partition | DeficiencyCertificate:
    """Partition the universe into arm-independent sets, or certify failure.

    The solve is ``_partition``, with the elements in ascending id order
    and each one's arms listed once.  A partition it returns is then
    re-checked by ``verify_partition`` (arity, disjointness, allowed sets,
    independence and coverage), and a failed check raises
    ``InternalVerificationError``.  A set that a failed search reached is
    re-verified as a deficiency certificate by direct rank queries.
    """
    arms = problem.arms
    arms_of = {x: [i for i, arm in enumerate(arms) if x in arm.allowed]
               for x in sorted(problem.universe)}
    result = _partition([arm.matroid for arm in arms], arms_of)
    if isinstance(result, set):
        return _certificate(arms, result)
    partition = Partition(result)
    if not verify_partition(problem, partition):
        raise InternalVerificationError("the computed partition failed re-verification")
    return partition


def _partition(matroids, arms_of) -> tuple[ElementSet, ...] | set[int]:
    """The solve of ``matroid_partition`` and of ``cyclic_exchange``, on
    trusted input: it validates nothing and checks nothing it returns.

    ``matroids[i]`` is arm i's matroid, and ``arms_of[x]`` lists, in
    ascending order, the indices of the arms that may take element x.
    ``arms_of`` is either a mapping, whose keys in insertion order are the
    elements (any ids: ``matroid_partition``), or a sequence indexed by the
    elements 0..N-1, inserted in that order (the slots of
    ``cyclic_exchange``).  ``owner``, each element's arm or None, is made to
    match: a dict over the mapping's keys, or a list indexed like the
    sequence, so a universe of large ids costs only its size.  Returns one
    frozenset per matroid, or the set of universe nodes that a failed
    search reached, a deficiency witness.  An element that one of its arms
    takes as it is goes straight in, with no search; that is most
    insertions.  Any other runs a breadth-first search over the exchange
    digraph: an arc x -> sink_i means x can be added to D_i directly, and
    an arc x -> y (y in D_i, x outside D_i) means x can take y's place.
    Applying the swaps along a shortest path keeps every D_i independent.
    Each arm's only state is its prepared part, made once, empty: it holds
    D_i, answers the circuits, and takes every move along a path in place.
    """
    prepared = [matroid._prepare() for matroid in matroids]
    if isinstance(arms_of, Mapping):
        owner, elements = dict.fromkeys(arms_of), arms_of
    else:
        owner, elements = [None] * len(arms_of), range(len(arms_of))
    for element in elements:
        reached = _augment(arms_of, prepared, owner, element)
        if reached is not None:
            return reached
    return tuple(frozenset(p.part) for p in prepared)


def _augment(arms_of, prepared, owner, source) -> set[int] | None:
    """Insert ``source``, directly when one of its arms takes it, otherwise
    via a shortest augmenting path.

    Returns None on success, or the set of reachable universe nodes when no
    sink can be reached.  ``arms_of[x]`` lists, in ascending order, the arms
    that allow x, and ``owner[x]`` is the arm that holds x, or None; both
    are indexed by element, as dicts or as lists.  The source's arms are
    asked first, before any search state exists, and only whether they take
    it (``PreparedPart.takes``), which builds no circuit: the lowest one
    that does gets it, which is the path a search would apply at its first
    expansion.  Otherwise the search expands the source first, like any
    other node.  Each expanded node x asks the prepared part of each of its
    arms except its owner whether it takes x: True is a sink arc, x joining
    D_i.  An arm that refuses x is asked for the circuit of D_i + x, whose
    elements are exactly the y that x can replace.  The source, the one
    node with no owner, is not asked ``takes`` again: its arms have just
    refused it.  So one expansion costs its own arms and circuits, whatever
    the number of arms or of nodes reached.  Parts do not move during a
    search, so once a circuit of arm i is its whole part, every element of
    that part gets labelled and arm i is closed: a later expansion asks it
    only ``takes``, since a refusal adds no label.  That changes no label,
    path or reached set.

    Labels go in chunks.  The set ``labelled`` holds every node reached so
    far, the source first.  An expansion of x makes one chunk, the targets
    of its circuits not yet labelled, in ascending order; it adds the chunk
    to ``labelled`` and appends ``(x, chunk)`` to the queue, both at C
    speed.  A copy of the circuits is made before any move, as a circuit
    may be the live part itself.  ``parent[y] = x`` is written only when y
    is taken off the queue to be expanded, and only ``_apply_path`` reads
    it, walking back over expanded nodes.  Chunks leave the queue in the
    order they were made, so nodes are expanded in first-discovered order,
    and a failed search, whose queue has drained, returns ``labelled``.
    Ties are broken deterministically: nodes are scanned in
    first-discovered order, sink arcs in ascending arm index, swap-arc
    targets in ascending element id.
    """
    for i in arms_of[source]:
        if prepared[i].takes(source):
            owner[source] = i
            prepared[i].add(source)
            return None

    parent: dict[int, int | None] = {}
    labelled: set[int] = {source}
    queue: deque[tuple[int | None, list[int]]] = deque([(None, [source])])
    closed: set[int] = set()
    while queue:
        p, chunk = queue.popleft()
        for x in chunk:
            parent[x] = p
            home = owner[x]
            found = []
            for i in arms_of[x]:
                if i == home:
                    continue
                # The source, the one node with no owner, was asked above.
                if home is not None and prepared[i].takes(x):
                    _apply_path(prepared, owner, parent, x, i)
                    return None
                if i in closed:  # all of its part is labelled: no label is new
                    continue
                circuit = prepared[i].circuit(x)
                if len(circuit) == len(prepared[i].part):
                    closed.add(i)
                found.append(circuit)
            if found:
                targets = found[0].union(*found[1:]) if len(found) > 1 else found[0]
                new = sorted(targets - labelled)
                labelled.update(new)
                queue.append((x, new))
    return labelled


def _apply_path(prepared, owner, parent, last, sink_arm) -> None:
    """Apply the swaps along the path ending with ``last`` -> sink_arm, a path
    of at least one swap (a direct insertion never gets here), in one walk
    back from ``last``: each node leaves its owner's part, if it has one,
    and joins the arm that its successor left, or the sink arm.

    After each step the parts hold the result of applying the path's suffix
    from that node, and a suffix of a shortest augmenting path is itself
    one, so every part stays independent at every step; a part's ``add``
    refuses any move that would break that.  The first move into the sink
    arm is ``last``, right after the sink part's own ``takes(last)``, so
    that part may reuse the query's work."""
    x, arm = last, sink_arm
    while x is not None:
        old = owner[x]
        if old is not None:
            prepared[old].remove(x)
        prepared[arm].add(x)
        owner[x] = arm
        x, arm = parent[x], old


def _certificate(arms, reached: set[int]) -> DeficiencyCertificate:
    witness = frozenset(reached)
    terms = tuple(arm.rank(witness & arm.allowed) for arm in arms)
    rank_sum = sum(terms)
    if rank_sum >= len(witness):
        raise InternalVerificationError(
            f"deficiency witness failed re-verification: "
            f"rank sum {rank_sum} >= size {len(witness)}"
        )
    return DeficiencyCertificate(witness, rank_sum, len(witness), terms)
