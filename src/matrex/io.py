"""JSON file formats.

One matroid per file, selected by its "type" field; element sets are always
ascending integer arrays, and unknown fields are rejected so that typos fail
loudly.  ``dumps`` is deterministic (sorted keys, fixed separators), which is
what makes byte-identical CLI output possible.

A file's size does not bound the work it asks for, so the parsers refuse
linear matrices above ``MAX_MATRIX_ENTRIES`` entries, bases files above
``MAX_LIFTED_SLOTS`` slots and problem files whose universe is larger than
``MAX_UNIVERSE`` with a SizeLimitError.  The matroid classes
themselves have no such caps.
"""

from __future__ import annotations

import json
import operator

from .core import BasisMatroid, GraphicMatroid, LinearMatroid, Matroid, UniformMatroid, canon
from .errors import FormatError, SizeLimitError
from .union import Arm, PartitionProblem

#: Largest linear matroid a file may describe, in matrix entries (rows times
#: columns).  Elimination time grows with the cube of the matrix side: the
#: rank of a 1000x1000 matrix over GF(65521) takes about 5 s under CPython
#: 3.11 on one core of a 2-core Xeon virtual machine.
MAX_MATRIX_ENTRIES = 2**20

#: Largest bases file, in lifted slots (the summed sizes of its bases, k*r for
#: k bases of rank r): each slot is one element of the exchange's partition.
MAX_LIFTED_SLOTS = 2**12

#: Largest universe of a partition problem file, checked before the universe
#: is built.  A two-arm U(n/2, n) problem of this size solves in about 0.7 s
#: under CPython 3.11 on one core of a 2-core Xeon virtual machine, and one
#: four times larger in about 12 s.
MAX_UNIVERSE = 2**14


def dumps(obj) -> str:
    """Deterministic JSON emission: sorted keys, compact, newline-terminated."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str | bytes):
    """Parse JSON text, or bytes in UTF-8/16/32; any failure is a FormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # deep nesting, oversized integers
        raise FormatError(f"unreadable JSON: {exc}") from None


def _require_keys(obj: dict, required: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise FormatError(f"{what} is missing field(s) {sorted(missing)}")
    unknown = obj.keys() - required
    if unknown:
        raise FormatError(f"{what} has unknown field(s) {sorted(unknown)}")


def _int_field(obj: dict, key: str, what: str) -> int:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{what}.{key} must be an integer, got {value!r}")
    return value


def element_array(values, what: str) -> frozenset[int]:
    """Parse an ascending integer array into an element set."""
    if not isinstance(values, list):
        raise FormatError(f"{what} must be an array, got {type(values).__name__}")
    # The common case at C speed: ints only (no bools), strictly ascending.
    if set(map(type, values)) <= {int} and all(map(operator.lt, values, values[1:])):
        return frozenset(values)
    out = []  # name the first bad item
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise FormatError(f"{what} must contain only integers, got {v!r}")
        if out and v <= out[-1]:
            raise FormatError(f"{what} must be strictly ascending")
        out.append(v)
    return frozenset(out)


_MATROID_FIELDS = {
    "uniform": {"type", "n", "rank"},
    "graphic": {"type", "vertices", "edges"},
    "linear": {"type", "prime", "rows", "columns"},
    "bases": {"type", "n", "bases"},
}


def matroid_from_json(obj) -> Matroid:
    """Build a matroid from its JSON description."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise FormatError("matroid description must be an object with a 'type' field")
    kind = obj["type"]
    if not isinstance(kind, str) or kind not in _MATROID_FIELDS:
        raise FormatError(f"unknown matroid type {kind!r}")
    _require_keys(obj, _MATROID_FIELDS[kind], f"{kind} matroid")

    if kind == "uniform":
        return UniformMatroid(_int_field(obj, "n", kind), _int_field(obj, "rank", kind))
    if kind == "graphic":
        vertices = _int_field(obj, "vertices", kind)
        edges = obj["edges"]
        if not isinstance(edges, list) or not all(
            isinstance(e, list) and len(e) == 2 for e in edges
        ):
            raise FormatError("graphic.edges must be an array of vertex pairs")
        return GraphicMatroid(vertices, edges)
    if kind == "linear":
        prime = _int_field(obj, "prime", kind)
        rows = _int_field(obj, "rows", kind)
        columns = obj["columns"]
        if not isinstance(columns, list) or not all(isinstance(c, list) for c in columns):
            raise FormatError("linear.columns must be an array of integer vectors")
        if rows * len(columns) > MAX_MATRIX_ENTRIES:
            raise SizeLimitError(
                f"a {rows}x{len(columns)} matrix exceeds the cap of {MAX_MATRIX_ENTRIES} entries"
            )
        return LinearMatroid(prime, rows, columns)
    n = _int_field(obj, "n", kind)
    bases = obj["bases"]
    if not isinstance(bases, list):
        raise FormatError("bases.bases must be an array of element arrays")
    family = [element_array(b, "bases.bases[i]") for b in bases]
    return BasisMatroid(n, family)


def matroid_to_json(matroid: Matroid) -> dict:
    """Serialize a matroid into the file format (inverse of matroid_from_json)."""
    if isinstance(matroid, UniformMatroid):
        return {"type": "uniform", "n": matroid.ground_size, "rank": matroid.rank_bound}
    if isinstance(matroid, GraphicMatroid):
        return {
            "type": "graphic",
            "vertices": matroid.vertex_count,
            "edges": [list(e) for e in matroid.edges],
        }
    if isinstance(matroid, LinearMatroid):
        return {
            "type": "linear",
            "prime": matroid.prime,
            "rows": matroid.rows,
            "columns": [list(c) for c in matroid.columns],
        }
    if isinstance(matroid, BasisMatroid):
        return {
            "type": "bases",
            "n": matroid.ground_size,
            "bases": [canon(b) for b in matroid.bases],
        }
    raise FormatError(f"matroids of type {type(matroid).__name__} have no file format")


def bases_from_json(obj) -> tuple[list[frozenset[int]], frozenset[int] | None]:
    """Parse a bases file: {"bases": [[...], ...]} with an optional "a1"."""
    if not isinstance(obj, dict) or "bases" not in obj:
        raise FormatError("bases file must be an object with a 'bases' field")
    allowed = {"bases", "a1"}
    unknown = obj.keys() - allowed
    if unknown:
        raise FormatError(f"bases file has unknown field(s) {sorted(unknown)}")
    raw = obj["bases"]
    if not isinstance(raw, list) or not raw:
        raise FormatError("'bases' must be a nonempty array of element arrays")
    bases = [element_array(b, "bases[i]") for b in raw]
    slots = sum(map(len, bases))
    if slots > MAX_LIFTED_SLOTS:
        raise SizeLimitError(f"{slots} lifted slots exceed the cap of {MAX_LIFTED_SLOTS}")
    a1 = element_array(obj["a1"], "a1") if "a1" in obj else None
    return bases, a1


def problem_from_json(obj) -> PartitionProblem:
    """Parse a partition problem: a universe size and (matroid, allowed) arms.

    Each arm's matroid is described on the full universe and queried in
    universe ids inside its allowed set.
    """
    _require_keys(obj, {"universe", "arms"}, "problem file")
    n = _int_field(obj, "universe", "problem")
    if n < 0:
        raise FormatError("problem.universe must be >= 0")
    if n > MAX_UNIVERSE:
        raise SizeLimitError(f"a universe of {n} elements exceeds the cap of {MAX_UNIVERSE}")
    arms_raw = obj["arms"]
    if not isinstance(arms_raw, list) or not arms_raw:
        raise FormatError("problem.arms must be a nonempty array")
    universe = frozenset(range(n))
    arms = []
    for i, arm_obj in enumerate(arms_raw):
        _require_keys(arm_obj, {"matroid", "allowed"}, f"arms[{i}]")
        matroid = matroid_from_json(arm_obj["matroid"])
        if matroid.ground_size != n:
            raise FormatError(
                f"arms[{i}].matroid has {matroid.ground_size} elements, "
                f"but the universe has {n}"
            )
        allowed = element_array(arm_obj["allowed"], f"arms[{i}].allowed")
        arms.append(Arm(allowed, matroid))
    return PartitionProblem(universe, arms)
