"""Brute-force oracles, randomized instance generation, and the search for
an instance where cyclic shifting by two is impossible.

Everything here is meant to check the constructive pipeline from the
outside: the oracles enumerate instead of constructing, and the generators
are fully deterministic under their seeds.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import random
import time
from dataclasses import asdict, dataclass

from .core import (
    BasisMatroid,
    ElementSet,
    GraphicMatroid,
    LinearMatroid,
    Matroid,
    UniformMatroid,
    _as_int,
    _count,
    _elements,
    canon,
)
from .errors import (FormatError, GenerationError, InternalVerificationError, SizeLimitError,
                     ValidationError)
from .exchange import ExchangeInstance
from .io import _int_field, element_array, matroid_from_json, matroid_to_json

#: Default gate on the total size of the bases for exponential enumeration.
BRUTE_FORCE_CAP = 16

#: Default candidate budget for the shift-by-two search.
DEFAULT_SEARCH_BUDGET = 1_000_000

#: Largest k the shift-by-two search takes.  Its check plan costs about
#: 320 bytes per level and is built before the budget is first read.
MAX_SEARCH_K = 2**12


def brute_force_cyclic_exchange(instance: ExchangeInstance, cap: int = BRUTE_FORCE_CAP):
    """All tuples (A_2, ..., A_k) whose cyclic shift makes every set a basis.

    A pruned depth-first search over every A_i of size |A_1| inside B_i: a
    partial tuple is dropped as soon as one of its decided shifted sets
    (B_i \\ A_i) u A_{i-1} is not a basis.  It returns the same list, in the
    same lexicographic order of the chosen subsets, as enumerating every
    tuple and testing all k sets would.  The walk runs on element sets, and
    passes each set it tests to the matroid's ``is_basis``.
    """
    if instance.k < 2:
        raise ValidationError("brute force enumeration needs k >= 2")
    total = sum(len(b) for b in instance.bases)
    if total > cap:
        raise SizeLimitError(f"total basis size {total} exceeds brute force cap {cap}")
    size = len(instance.seed)
    pools = [list(map(frozenset, itertools.combinations(sorted(b), size))) for b in instance.bases]
    return list(_shift_tuples(instance.matroid.is_basis, _check_plan(instance.k, (1,)),
                              instance.bases, pools, instance.seed))


def _subsets(mask: int, size: int) -> list[int]:
    """The ``size``-subsets of ``mask`` as masks, in the lexicographic order
    of their bits."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return [sum(combo) for combo in itertools.combinations(bits, size)]


def _check_plan(k: int, offsets) -> list[list[tuple[int, int]]]:
    """For each level l of the walk, the pairs (i, j) whose set
    (B_i \\ A_i) u A_j, j = (i - o) mod k for an o in ``offsets``, is tested
    once A_l is chosen: the level that decides the later of its two parts.

    Level 0 is never tested: its sets have i = j = 0, and (B_0 \\ A_0) u A_0
    is B_0, a basis by input.
    """
    checks: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for o in offsets:
        for i in range(k):
            j = (i - o) % k
            checks[max(i, j)].append((i, j))
    return checks


def _shift_tuples(is_basis, plan, bases, pools, seed):
    """Yield, in the order of the pools, every (A_2, ..., A_k) for which
    every set (B_i \\ A_i) u A_j of the check ``plan`` is a basis.
    ``bases`` holds B_1..B_k and ``seed`` A_1; the part at 0-based level
    l >= 1 is taken from ``pools[l]`` in its order (``pools[0]`` is not
    read), and ``is_basis`` takes a set of the same kind.  The sets are
    either all element sets or all bitmasks: every A_i lies inside B_i, so
    the set ``(bases[i] - parts[i]) | parts[j]`` is right for both, ``-``
    on masks being ``& ~``.

    A depth-first search over A_2..A_k, one iterator per decided level on an
    explicit stack, so k is not bounded by recursion.
    """
    k = len(bases)
    parts = [seed] * k
    stack = [iter(pools[1])]
    while stack:
        level = len(stack)
        part = next(stack[-1], None)
        if part is None:
            stack.pop()
            continue
        parts[level] = part
        for i, j in plan[level]:
            if not is_basis((bases[i] - parts[i]) | parts[j]):
                break
        else:
            if level + 1 < k:
                stack.append(iter(pools[level + 1]))
            else:
                yield tuple(parts[1:])


def _shifts_trivially(bases, seed: int) -> bool:
    """Whether the candidate with basis masks ``bases`` and A_1 mask ``seed``
    shifts by every offset without a walk: when A_1 lies in every basis
    (an empty A_1 too), A_i = A_1 for every i makes each shifted set B_i;
    when A_1 = B_1, A_i = B_i makes each shifted set some B_j."""
    return not seed & ~functools.reduce(operator.and_, bases) or seed == bases[0]


@dataclass(frozen=True)
class InstanceGenSpec:
    """Parameters for drawing a random exchange instance.

    ``matroid_class`` selects the recipe: "uniform" (n, rank), "graphic"
    (vertices, n edges), "linear" (prime, rows, n columns of full ambient
    rank), or "bases" (basis family of a random full-rank GF(2) matroid with
    the given n and rank).
    """

    matroid_class: str
    k: int
    seed: int
    n: int | None = None
    rank: int | None = None
    vertices: int | None = None
    prime: int | None = None
    rows: int | None = None

    def __post_init__(self):
        needed = {
            "uniform": ("n", "rank"),
            "graphic": ("vertices", "n"),
            "linear": ("prime", "rows", "n"),
            "bases": ("n", "rank"),
        }
        if self.matroid_class not in needed:
            raise ValidationError(f"unknown matroid class {self.matroid_class!r}")
        for name in needed[self.matroid_class]:
            if getattr(self, name) is None:
                raise ValidationError(
                    f"class {self.matroid_class!r} requires parameter {name!r}"
                )
        for name in ("k", "seed", "n", "rank", "vertices", "prime", "rows"):
            if name in ("k", "seed") or getattr(self, name) is not None:
                _as_int(getattr(self, name), name)
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")
        if self.n is not None and not 0 <= self.n <= 20:
            raise ValidationError("n must stay within the enumeration caps (0..20)")
        if self.vertices is not None and not 0 <= self.vertices <= 16:
            raise ValidationError("vertex count must be in 0..16")
        if self.rows is not None and not 0 <= self.rows <= 12:
            raise ValidationError("ambient dimension must be in 0..12")


_GENERATION_RETRIES = 64


def _draw_matroid(spec: InstanceGenSpec, rng: random.Random) -> Matroid | None:
    """One attempt at the spec's matroid; None when it came out degenerate."""
    cls = spec.matroid_class
    if cls == "uniform":
        m: Matroid = UniformMatroid(spec.n, spec.rank)
    elif cls == "graphic":
        if spec.vertices < 2:
            return None
        edges = [sorted(rng.sample(range(spec.vertices), 2)) for _ in range(spec.n)]
        m = GraphicMatroid(spec.vertices, edges)
    elif cls == "linear":
        cols = [[rng.randrange(spec.prime) for _ in range(spec.rows)] for _ in range(spec.n)]
        m = LinearMatroid(spec.prime, spec.rows, cols)
        if m.full_rank() != spec.rows:
            return None
    else:  # bases: the basis family of a random full-rank GF(2) matroid
        cols = [[rng.getrandbits(1) for _ in range(spec.rank)] for _ in range(spec.n)]
        lin = LinearMatroid(2, spec.rank, cols)
        if lin.full_rank() != spec.rank:
            return None
        m = BasisMatroid(spec.n, lin.enumerate_bases(), validate=False)
    return m if m.full_rank() >= 1 else None


def random_instance(spec: InstanceGenSpec) -> ExchangeInstance:
    """Draw a deterministic random instance: a matroid from the spec's class,
    k bases by randomized greedy completion, and a uniform random seed subset
    of the first basis."""
    rng = random.Random(spec.seed)
    matroid = None
    for _ in range(_GENERATION_RETRIES):
        matroid = _draw_matroid(spec, rng)
        if matroid is not None:
            break
    if matroid is None:
        raise GenerationError(f"could not draw a usable matroid for {spec}")

    bases = []
    for _ in range(spec.k):
        order = list(range(matroid.ground_size))
        rng.shuffle(order)
        picked: set[int] = set()
        for e in order:
            if matroid.is_independent(picked | {e}):
                picked.add(e)
        bases.append(frozenset(picked))

    a1 = frozenset(e for e in sorted(bases[0]) if rng.getrandbits(1))
    return ExchangeInstance(matroid, tuple(bases), a1)


# --- shift-by-two optimality search ---------------------------------------


@dataclass(frozen=True)
class Shift2Witness:
    """An instance whose exchange sets can never shift by one AND by two.

    ``description`` is the JSON-format matroid description, so a witness can
    be replayed from its serialized form.  ``tuples_checked`` is the size of
    the exhausted (A_2, ..., A_k) space.
    """

    matroid: Matroid
    description: dict
    bases: tuple[ElementSet, ...]
    seed: ElementSet
    tuples_checked: int

    @property
    def k(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class ExhaustionReport:
    """Outcome of a witness search that ran out of candidates or time.

    The candidate order is fixed and seeded, so the counts identify exactly
    which prefix of the search space was covered.
    """

    k: int
    seed: int
    budget: int | None
    time_limit: float | None
    candidates_checked: int
    matroids_examined: int
    phase_counts: dict[str, int]
    interpretation: str = (
        "searched for one seed subset A_1 with no jointly valid shift-by-one "
        "and shift-by-two tuple (the existential reading); the universal "
        "reading over every A_1 would only be harder to satisfy"
    )


def _shift_sets(bases, parts, offset: int):
    """The k sets (B_i \\ A_i) u A_{i-offset}, cyclic indices."""
    k = len(bases)
    return [(bases[i] - parts[i]) | parts[(i - offset) % k] for i in range(k)]


def verify_witness(witness: Shift2Witness) -> bool:
    """Re-check every witness invariant from scratch by flat enumeration.

    True iff the matroid has rank 3 with k >= 3 valid bases and a valid seed
    subset, some tuple satisfies all shift-by-one sets, and no tuple
    satisfies shift-by-one and shift-by-two simultaneously.
    """
    m = witness.matroid
    k = witness.k
    try:
        bases = tuple(m.check_subset(b) for b in witness.bases)
        seed = m.check_subset(witness.seed)
    except ValidationError:
        return False
    if k < 3 or m.full_rank() != 3:
        return False
    if not all(m.is_basis(b) for b in bases):
        return False
    if not seed <= bases[0]:
        return False

    size = len(seed)
    pools = [itertools.combinations(sorted(b), size) for b in bases[1:]]
    shift1_seen = False
    for combo in itertools.product(*pools):
        parts = (seed,) + tuple(frozenset(c) for c in combo)
        if all(m.is_basis(s) for s in _shift_sets(bases, parts, 1)):
            shift1_seen = True
            if all(m.is_basis(s) for s in _shift_sets(bases, parts, 2)):
                return False
    return shift1_seen


def witness_to_json(witness: Shift2Witness) -> dict:
    """Serialize a witness alongside the matroid file format."""
    return {
        "k": witness.k,
        "matroid": witness.description,
        "bases": [canon(b) for b in witness.bases],
        "a1": canon(witness.seed),
        "tuples_checked": witness.tuples_checked,
    }


def witness_from_json(obj) -> Shift2Witness:
    """Rebuild a witness from its serialized form (for replay/re-verification)."""
    required = {"k", "matroid", "bases", "a1", "tuples_checked"}
    if not isinstance(obj, dict) or obj.keys() != required:
        raise FormatError(f"witness must be an object with fields {sorted(required)}")
    matroid = matroid_from_json(obj["matroid"])
    if not isinstance(obj["bases"], list):
        raise FormatError("witness.bases must be an array of element arrays")
    bases = tuple(element_array(b, "witness.bases[i]") for b in obj["bases"])
    if _int_field(obj, "k", "witness") != len(bases):
        raise FormatError("witness.k does not match the number of bases")
    a1 = element_array(obj["a1"], "witness.a1")
    tuples_checked = _int_field(obj, "tuples_checked", "witness")
    if tuples_checked < 0:
        raise FormatError(f"witness.tuples_checked must be >= 0, got {tuples_checked}")
    return Shift2Witness(matroid, obj["matroid"], bases, a1, tuples_checked)


def exhaustion_to_json(report: ExhaustionReport) -> dict:
    return asdict(report)


def _search_catalog():
    """Rank-3 matroids scanned first, in fixed order, each built only when
    the scan reaches it."""
    k4_edges = [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3], [0, 3]]
    gf2_nonzero = [c for c in itertools.product((0, 1), repeat=3) if any(c)]
    yield GraphicMatroid(4, k4_edges)
    yield LinearMatroid(2, 3, gf2_nonzero)
    yield LinearMatroid(3, 3, gf2_nonzero)
    yield GraphicMatroid(4, k4_edges + [[0, 1]])
    yield UniformMatroid(5, 3)
    k5 = GraphicMatroid(5, [[u, v] for u in range(5) for v in range(u + 1, 5)])
    yield BasisMatroid(
        10,
        [s for s in itertools.combinations(range(10), 3) if k5.is_independent(s)],
        validate=False,
    )


def _search_matroids(seed: int):
    """The (phase, matroid) pairs the search scans, in order: the catalog,
    then an endless seeded stream of rank-3 random linear matroids."""
    for matroid in _search_catalog():
        yield "catalog", matroid
    rng = random.Random(seed)
    while True:
        prime = rng.choice((2, 3, 5))
        n = rng.randrange(4, 13)
        draw = random.Random(rng.getrandbits(48))
        columns = [[draw.randrange(prime) for _ in range(3)] for _ in range(n)]
        matroid = LinearMatroid(prime, 3, columns)
        if matroid.full_rank() == 3:
            yield "random_linear", matroid


def search_shift2_counterexample(
    k: int,
    budget: int | None = DEFAULT_SEARCH_BUDGET,
    time_limit: float | None = None,
    seed: int = 0,
) -> Shift2Witness | ExhaustionReport:
    """Look for a rank-3 instance whose exchange cannot also shift by two.

    Scans a fixed catalog of rank-3 matroids first, then randomized linear
    matroids of ambient dimension 3 over GF(2), GF(3) and GF(5); for every
    (bases tuple, A_1) candidate it exhaustively tests whether some tuple
    satisfies both shift patterns.  Returns the first witness, re-verified
    from scratch, or an exhaustion report with exact counts.  A candidate
    that ``_shifts_trivially`` is counted but not walked.  A witness that
    fails re-verification raises InternalVerificationError: by the paper's
    theorem a shift-by-one tuple always exists, and the walk has ruled out
    a joint one, so such a failure is a bug.  The candidate
    order is fixed given the seed, so a candidate-bounded run is fully
    reproducible; a wall-clock limit may cut an exhaustion run at a
    machine-dependent point.  A negative budget, and a time limit that is
    negative or NaN, raise ValidationError; a k above ``MAX_SEARCH_K``
    raises SizeLimitError.
    """
    if _as_int(k, "k") < 3:
        raise ValidationError(f"the shift-by-two question needs k >= 3, got {k}")
    if k > MAX_SEARCH_K:
        raise SizeLimitError(f"the shift-by-two search takes k <= {MAX_SEARCH_K}, got {k}")
    budget = None if budget is None else _count(budget, "budget")
    if time_limit is not None and not isinstance(time_limit, numbers.Real):
        raise ValidationError(f"time_limit must be a real number or None, got {time_limit!r}")
    if time_limit is not None and not time_limit >= 0:  # NaN compares False
        raise ValidationError(f"time_limit must be >= 0, got {time_limit!r}")
    _as_int(seed, "seed")

    deadline = None if time_limit is None else time.monotonic() + time_limit
    checked = matroids_examined = 0
    phase_counts = {"catalog": 0, "random_linear": 0}
    plan = _check_plan(k, (1, 2))

    def spent() -> bool:
        if budget is not None and checked >= budget:
            return True
        return deadline is not None and time.monotonic() >= deadline

    for phase, matroid in _search_matroids(seed):
        if spent():
            break
        matroids_examined += 1
        masks = [sum(1 << e for e in b) for b in matroid.enumerate_bases()]
        sizes = range(matroid.full_rank() + 1)
        pools_of = {b: [_subsets(b, size) for size in sizes] for b in masks}
        is_basis = frozenset(masks).__contains__
        candidates = (
            (bases, pools, a1)
            for bases in itertools.product(masks, repeat=k)
            for pools in ([pools_of[b][size] for b in bases] for size in sizes)
            for a1 in pools[0]
        )
        for bases, pools, a1 in candidates:
            if spent():
                break
            checked += 1
            phase_counts[phase] += 1
            if (_shifts_trivially(bases, a1)
                    or next(_shift_tuples(is_basis, plan, bases, pools, a1), None) is not None):
                continue
            ids = tuple(range(matroid.ground_size))
            witness = Shift2Witness(
                matroid, matroid_to_json(matroid), tuple(_elements(b, ids) for b in bases),
                _elements(a1, ids), math.prod(len(p) for p in pools[1:]),
            )
            if not verify_witness(witness):
                raise InternalVerificationError("the witness failed re-verification; this is a bug")
            return witness

    return ExhaustionReport(
        k=k,
        seed=seed,
        budget=budget,
        time_limit=time_limit,
        candidates_checked=checked,
        matroids_examined=matroids_examined,
        phase_counts=phase_counts,
    )
