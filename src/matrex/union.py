"""Matroid partition by incremental augmenting paths.

Partitions a universe into sets D_i, each independent in its own matroid
M_i (queried only inside an allowed subset C_i of the universe), or returns a
deficiency certificate: a witness set whose total rank across the arms is
smaller than its cardinality, which proves no full partition exists.

The exchange arcs are read off fundamental circuits: one circuit per
expanded node and arm instead of one independence query per candidate swap,
as in Cunningham, "Improved bounds for matroid partition and intersection
algorithms" (1986).  Each arm's only state is one prepared part
(``Matroid._prepare``): it holds the arm's set D_i for the whole solve,
answers its circuits, and takes every swap in place, as in the incremental
form of Knuth, "Matroid partitioning" (1973).
"""

from __future__ import annotations

from collections import deque
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
        s = frozenset(_listed(subset, "expected a set of element ids"))
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

    Elements are inserted in ascending id order.  An element that one of
    its arms takes as it is goes straight in, with no search; that is most
    insertions.  Any other runs a breadth-first search over the exchange
    digraph: an arc x -> sink_i means x can be added to D_i directly, and an
    arc x -> y (y in D_i, x outside D_i) means x can take y's place.
    Applying the swaps along a shortest path keeps every D_i independent.
    If no sink is reachable, the set of reachable universe nodes is a
    deficiency witness; it is re-verified by direct rank queries before
    being returned.  The arms that allow each element are listed once per
    solve.  Each arm's only state is its prepared part, made once from the
    empty set: it holds D_i, answers the circuits, and takes every move
    along a path in place.
    """
    arms = problem.arms
    prepared = [arm.matroid._prepare(frozenset()) for arm in arms]
    owner: dict[int, int] = {}
    arms_of: dict[int, list[int]] = {x: [] for x in problem.universe}
    for i, arm in enumerate(arms):
        for x in arm.allowed:
            arms_of[x].append(i)

    for element in sorted(problem.universe):
        reached = _augment(arms_of, prepared, owner, element)
        if reached is not None:
            return _certificate(arms, reached)

    result = Partition(tuple(frozenset(p.part) for p in prepared))
    if not verify_partition(problem, result):
        raise InternalVerificationError("the computed partition failed re-verification")
    return result


def _augment(arms_of, prepared, owner, source) -> set[int] | None:
    """Insert ``source``, directly when one of its arms takes it, otherwise
    via a shortest augmenting path.

    Returns None on success, or the set of reachable universe nodes when no
    sink can be reached.  ``arms_of[x]`` lists, in ascending order, the arms
    that allow x.  The source's arms are asked first, before any search
    state exists: the lowest one whose part takes it (its circuit is None)
    gets it, which is the path a search would apply at its first expansion.
    Otherwise the search starts from the circuits already found.  Each
    expanded node x asks the prepared part of each of its arms except its
    owner for the circuit of D_i + x: there is none when x can join D_i (a
    sink arc), and otherwise its elements are exactly the y that x can
    replace.  So one expansion costs its own arms and circuits, whatever the
    number of arms or of nodes reached.  Ties are broken deterministically:
    nodes are scanned in first-discovered order, sink arcs in ascending arm
    index, swap-arc targets in ascending element id.
    """
    found = []
    for i in arms_of[source]:
        circuit = prepared[i].circuit(source)
        if circuit is None:
            owner[source] = i
            prepared[i].add(source)
            return None
        found.append(circuit)

    parent: dict[int, int | None] = {source: None}
    queue: deque[int] = deque()
    x = source
    while True:
        if found:
            # difference() with a dict probes it once per target; the
            # ``-`` operator with ``parent.keys()`` would walk all of it.
            targets = found[0].union(*found[1:]) if len(found) > 1 else found[0]
            for y in sorted(targets.difference(parent)):
                parent[y] = x
                queue.append(y)
        if not queue:
            return set(parent)
        x = queue.popleft()
        home = owner.get(x)
        found = []
        for i in arms_of[x]:
            if i == home:
                continue
            circuit = prepared[i].circuit(x)
            if circuit is None:
                _apply_path(prepared, owner, parent, x, i)
                return None
            found.append(circuit)


def _apply_path(prepared, owner, parent, last, sink_arm) -> None:
    """Apply the swaps along the path ending with ``last`` -> sink_arm, a path
    of at least one swap (a direct insertion never gets here): walking
    back, each node moves into the arm its successor leaves.  All removals
    go first, so every part stays independent at every step.  The first
    addition is ``last`` to the sink arm, whose circuit query was the last
    one made, so a sink part that lost nothing may reuse that query's work."""
    moves = []
    x, arm = last, sink_arm
    while x is not None:
        old = owner.get(x)
        moves.append((x, old, arm))
        owner[x] = arm
        x, arm = parent[x], old
    for x, old, _ in moves:
        if old is not None:
            prepared[old].remove(x)
    for x, _, new in moves:
        prepared[new].add(x)


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
