"""Cyclic base exchange.

Given bases B_1..B_k and a subset A_1 of B_1, computes A_2..A_k so that
every cyclically shifted set (B_i \\ A_i) u A_{i-1} is again a basis.  The
construction lifts the bases to disjoint parallel copies, assigns each slot
a small list of allowed part indices (the "color classes"), and solves the
induced matroid partition problem; the exchange sets are read directly off
the partition.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (ElementSet, Matroid, SlotMatroid, _as_int, _check_bases, _check_matroid,
                   _listed, canon)
from .errors import InternalVerificationError, ValidationError
from .union import _partition


@dataclass(frozen=True)
class ExchangeInstance:
    """A matroid, an ordered tuple of its bases, and a seed subset of the first.

    Bases may overlap or repeat.  ``seed`` is the subset that will be shifted
    out of ``bases[0]``; it may be empty or all of ``bases[0]``.
    """

    matroid: Matroid
    bases: tuple[ElementSet, ...]
    seed: ElementSet

    def __post_init__(self):
        raw = _listed(self.bases, "bases must be a sequence of element sets")
        _check_matroid(self.matroid, "matroid")
        bases = tuple(self.matroid.check_subset(b) for b in raw)
        seed = self.matroid.check_subset(self.seed)
        object.__setattr__(self, "bases", bases)
        object.__setattr__(self, "seed", seed)
        if not bases:
            raise ValidationError("an exchange instance needs at least one basis")
        _check_bases(self.matroid, bases)
        if not seed <= bases[0]:
            raise ValidationError("the seed subset must lie inside the first basis")

    @property
    def k(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class ColorClasses:
    """Slot-level structure of the exchange: per-slot lists and their classes.

    ``lists[s]`` holds, ascending, the part indices slot s may join: the
    arm lists that ``cyclic_exchange`` hands the partition solve as they
    are.  Class j collects the slots whose list contains j.  Part indices
    are 0-based: part 0 receives the shifted copy of basis 0, part j the
    shifted copy of basis j.
    """

    lifted: SlotMatroid
    classes: tuple[ElementSet, ...]
    lists: tuple[tuple[int, ...], ...]


def build_color_classes(instance: ExchangeInstance) -> ColorClasses:
    """Lift the instance and assign each slot its list of allowed parts.

    Slots of B_1 \\ A_1 may only stay in part 1's shifted set; slots of A_1
    may only move to part 2; slots of B_i may stay in part i or move to part
    i+1, cyclically (0-based: lists {j, j+1 mod k}, with basis 0 split by the
    seed).
    """
    if instance.k < 2:
        raise ValidationError("color classes are defined for k >= 2")
    k = instance.k
    lifted = SlotMatroid(instance.matroid, instance.bases)

    moved, kept = (1,), (0,)
    pairs = [tuple(sorted({tag, (tag + 1) % k})) for tag in range(k)]
    lists: list[tuple[int, ...]] = []
    members: list[list[int]] = [[] for _ in range(k)]
    for s, (tag, element) in enumerate(lifted.slots):
        allowed = (moved if element in instance.seed else kept) if tag == 0 else pairs[tag]
        lists.append(allowed)
        for j in allowed:
            members[j].append(s)
    return ColorClasses(lifted, tuple(map(frozenset, members)), tuple(lists))


@dataclass(frozen=True)
class RankInequalityCheck:
    """Outcome of the rank-sum diagnostic for one slot set."""

    holds: bool
    size: int
    terms: tuple[int, ...]

    @property
    def rank_sum(self) -> int:
        return sum(self.terms)


def check_rank_inequality(classes: ColorClasses, slot_set) -> RankInequalityCheck:
    """Check sum_j rank_j(A n C_j) >= |A| for a slot set A.

    This always holds for well-formed instances (it is exactly the feasibility
    condition of the induced partition problem); the operation exists as a
    diagnostic and test hook, returning the per-class rank ledger.
    """
    a = classes.lifted.check_subset(slot_set)
    terms = tuple(classes.lifted.rank(a & cls) for cls in classes.classes)
    return RankInequalityCheck(sum(terms) >= len(a), len(a), terms)


@dataclass(frozen=True)
class ExchangeResult:
    """The exchange sets, the shifted bases they produce, and the underlying
    slot partition.  ``shifted[i]`` is (bases[i] \\ parts[i]) u parts[i-1]
    with cyclic indices, and always a verified basis."""

    parts: tuple[ElementSet, ...]
    shifted: tuple[ElementSet, ...]
    partition: tuple[ElementSet, ...]


def cyclic_exchange(instance: ExchangeInstance) -> ExchangeResult:
    """Compute exchange sets A_2..A_k for the instance's seed A_1.

    For k = 1 the cycle is degenerate: A_1 shifts onto itself and the single
    shifted set is B_1 itself.  For k >= 2 the pipeline lifts to disjoint
    copies, builds the color classes, partitions the slots, and reads off
    A_i as the elements whose B_i slots left part i (for part i+1).

    The solve is ``union._partition``, handed the lift once per part and
    the slot lists of ``build_color_classes`` as they are: no arm or
    partition problem re-validates what the library built.  It leaves its
    partition unchecked; this read-back checks it instead, and raises
    ``InternalVerificationError`` on the first check that fails: there are
    k parts, A_1 is the seed, each part projects onto its shifted set, each
    A_i has the seed's size, each shifted set is a basis (``is_basis``),
    each part lies in its color class, and no slot is in two parts.
    Together these imply all that ``verify_partition`` checks, so each
    shifted set's independence is tested once.
    """
    matroid, bases, seed = instance.matroid, instance.bases, instance.seed
    k = instance.k

    if k == 1:
        slots = frozenset(range(len(bases[0])))
        return ExchangeResult(parts=(seed,), shifted=(bases[0],), partition=(slots,))

    classes = build_color_classes(instance)
    lifted = classes.lifted
    outcome = _partition([lifted] * k, classes.lists)
    if isinstance(outcome, set):
        raise InternalVerificationError(
            f"the induced partition problem is always feasible, but a deficiency "
            f"certificate of size {len(outcome)} was returned; this is a bug"
        )
    if len(outcome) != k:
        raise InternalVerificationError(
            f"the partition has {len(outcome)} parts, expected {k}"
        )
    # One pass over the parts: a slot (tag, e) outside part tag has moved on,
    # so e belongs to A_tag; every slot adds e to its part's projection.
    slots = lifted.slots
    exchanged: list[set[int]] = [set() for _ in range(k)]
    projections: list[set[int]] = []
    for i, part in enumerate(outcome):
        projection = set()
        for slot in part:
            tag, e = slots[slot]
            projection.add(e)
            if tag != i:
                exchanged[tag].add(e)
        projections.append(projection)

    parts = [frozenset(a) for a in exchanged]
    if parts[0] != seed:
        raise InternalVerificationError(
            "part 1 does not meet basis 0 exactly in the seed slots"
        )

    shifted = []
    for i in range(k):
        s = (bases[i] - parts[i]) | parts[i - 1]
        if projections[i] != s:
            raise InternalVerificationError(
                f"partition part {i} does not project onto shifted set {i}"
            )
        if len(parts[i]) != len(seed):
            raise InternalVerificationError(
                f"exchange set {i} has size {len(parts[i])}, expected {len(seed)}"
            )
        if not matroid.is_basis(s):
            raise InternalVerificationError(
                f"shifted set {i} ({canon(s)}) is not a basis"
            )
        shifted.append(s)

    # The slot partition itself, which the solve leaves unchecked.  Each
    # part projects onto a basis, so it holds at least rank slots, and the
    # lift has k * rank slots in all.  So parts that lie in their classes
    # and share no slot hold exactly rank slots each, no two copies of one
    # element, and cover every slot: they are independent in the lift and
    # partition it.
    seen: set[int] = set()
    for i, part in enumerate(outcome):
        if not part <= classes.classes[i]:
            raise InternalVerificationError(
                f"partition part {i} holds slot {min(part - classes.classes[i])} "
                f"outside its color class"
            )
        if not seen.isdisjoint(part):
            raise InternalVerificationError(
                f"slot {min(seen & part)} is in two partition parts"
            )
        seen |= part

    return ExchangeResult(tuple(parts), tuple(shifted), outcome)


def multiple_symmetric_exchange(matroid: Matroid, basis1, basis2, subset1) -> ElementSet:
    """Find A_2 with (B_1 \\ A_1) u A_2 and (B_2 \\ A_2) u A_1 both bases.

    This is the two-basis case of the cyclic exchange.
    """
    return cyclic_exchange(ExchangeInstance(matroid, (basis1, basis2), subset1)).parts[1]


def symmetric_exchange_single(matroid: Matroid, basis1, basis2, element1: int) -> int:
    """Find e_2 with (B_1 \\ e_1) u e_2 and (B_2 \\ e_2) u e_1 both bases.

    An element shared by both bases swaps with itself, once both sets are
    checked to be bases; otherwise this is the singleton case of the
    multiple symmetric exchange, whose instance checks them.
    """
    _check_matroid(matroid, "matroid")
    b1 = matroid.check_subset(basis1)
    b2 = matroid.check_subset(basis2)
    element1 = _as_int(element1, "element")
    if element1 not in b1:
        raise ValidationError(f"element {element1} is not in the first basis")
    if element1 in b2:
        _check_bases(matroid, (b1, b2))
        return element1
    (e2,) = multiple_symmetric_exchange(matroid, b1, b2, {element1})
    return e2
