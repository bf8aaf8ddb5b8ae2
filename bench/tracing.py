"""Span tracer that wraps matrex's public functions from the outside.

``Tracer.install()`` replaces the public functions and methods listed in
``_targets`` with recording wrappers, in every matrex module that binds them,
and ``uninstall()`` puts the originals back.  Each call records one span:
name, start, end, parent span and solve id.  ``Matroid.is_independent`` is
attributed by ``type(self)``, so the Arm -> Restriction -> SlotMatroid ->
base matroid levels each get their own span name.  Spans stay in compact
in-memory arrays; per-layer metrics and self times (duration minus the time
covered by child spans) are derived from them after the run.

BFS expansions, augmentations and path lengths happen inside the private
``union._augment`` and are not visible here.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
from array import array
from collections import Counter, defaultdict

from matrex import cli, core, exchange, io, union, verify

MODULES = (core, union, exchange, verify, io, cli)

_BASE_TYPES = (core.UniformMatroid, core.GraphicMatroid, core.LinearMatroid, core.BasisMatroid)

# name of the span for each level of the independence-query stack
_QUERY_LEVEL = {core.Restriction: "core.restriction", core.SlotMatroid: "core.slot"}
_QUERY_LEVEL.update((t, "core.base") for t in _BASE_TYPES)

CLI_EXIT_CODES = range(6)


def _targets():
    """(owner, attribute, span name) for every traced public callable."""
    return [
        (core.Matroid, "check_subset", "core.check_subset"),
        (core.Matroid, "rank", "core.rank"),
        (core.Matroid, "is_basis", "core.is_basis"),
        (core.BasisMatroid, "is_basis", "core.is_basis"),
        (core.Matroid, "enumerate_bases", "core.enumerate_bases"),
        (core, "check_base_axiom", "core.check_base_axiom"),
        (union.Arm, "is_independent", "union.arm"),
        (union, "matroid_partition", "union.matroid_partition"),
        (union, "verify_partition", "union.verify_partition"),
        (exchange.ExchangeInstance, "__post_init__", "exchange.instance"),
        (exchange, "build_color_classes", "exchange.build_color_classes"),
        (exchange, "cyclic_exchange", "exchange.cyclic_exchange"),
        (verify, "brute_force_cyclic_exchange", "verify.brute_force"),
        (verify, "search_shift2_counterexample", "verify.search"),
        (verify, "verify_witness", "verify.verify_witness"),
        (io, "loads", "io.parse"),
        (io, "matroid_from_json", "io.parse"),
        (io, "bases_from_json", "io.parse"),
        (io, "problem_from_json", "io.parse"),
        (io, "dumps", "io.dumps"),
        (cli, "main", "cli.main"),
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.solve = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.solve_id = -1
        self.counters: Counter = Counter()
        self._distinct: dict[int, set[int]] = defaultdict(set)
        self._saved: list[tuple] = []

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_of, after=None):
        """A wrapper recording one span per call; ``name_of(args)`` gives the
        span name id, ``after(args, result)`` updates counters."""
        stack, clock = self._stack, time.perf_counter_ns
        name_id, parent, solve, start, end = (
            self.name_id, self.parent, self.solve, self.start, self.end)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(name_of(args))
            parent.append(stack[-1] if stack else -1)
            solve.append(self.solve_id)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _query_wrapper(self, fn):
        """Wrap ``Matroid.is_independent``.  Base-matroid queries also record
        the hash of the queried set per matroid object (ints hash stably), for
        the memo hit ratio; that hashing falls inside the base span."""
        ids = {t: self._nid(level) for t, level in _QUERY_LEVEL.items()}
        distinct = self._distinct

        def is_independent(matroid, elements):
            if type(matroid) in _BASE_TYPES:
                if not isinstance(elements, (frozenset, set, tuple, list)):
                    elements = list(elements)
                distinct[id(matroid)].add(hash(frozenset(elements)))
            return fn(matroid, elements)

        return self._wrap(functools.wraps(fn)(is_independent), lambda args: ids[type(args[0])])

    def _after(self, name: str):
        c = self.counters
        if name == "union.matroid_partition":
            return lambda a, r: c.update(
                {"union.certificates": isinstance(r, union.DeficiencyCertificate)})
        if name == "verify.brute_force":
            return lambda a, r: c.update({"verify.brute_force.solutions": len(r)})
        if name == "verify.search":
            return lambda a, r: c.update({"verify.search.candidates": getattr(
                r, "candidates_checked", 0)})
        if name == "cli.main":
            return lambda a, r: c.update({f"cli.exit.{r}": 1})
        if name == "io.dumps":
            return lambda a, r: c.update({"io.bytes_out": len(r)})
        if name == "io.parse":
            def bytes_in(a, r):
                if isinstance(a[0], str):  # io.loads; the other parsers take decoded JSON
                    c["io.bytes_in"] += len(a[0])
            return bytes_in
        return None

    def install(self) -> None:
        patches = [(core.Matroid, "is_independent",
                    self._query_wrapper(core.Matroid.is_independent))]
        for owner, attr, name in _targets():
            original = vars(owner)[attr]
            nid = self._nid(name)
            wrapped = self._wrap(original, lambda args, nid=nid: nid, self._after(name))
            patches.append((owner, attr, wrapped))
            if isinstance(owner, type):
                continue
            # rebind the function wherever a matrex module imported it by name
            for module in (sys.modules["matrex"],) + MODULES:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        patches.append((module, key, wrapped))
        for owner, attr, wrapped in patches:
            self._saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def begin_solve(self, solve_id: int) -> None:
        self.solve_id = solve_id

    def end_solve(self) -> None:
        """Fold the per-matroid distinct-set counts of the finished solve
        (its matroid objects are dropped after it, so ids may be reused)."""
        self.counters["core.base.distinct"] += sum(map(len, self._distinct.values()))
        self._distinct.clear()
        self.solve_id = -1

    def write(self, path) -> None:
        """Write all spans as gzipped CSV: index, solve, name, parent, start, end."""
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            out = csv.writer(fh)
            out.writerow(["span", "solve", "name", "parent", "start_ns", "end_ns"])
            names = self.names
            for i in range(len(self.start)):
                out.writerow([i, self.solve[i], names[self.name_id[i]], self.parent[i],
                              self.start[i], self.end[i]])

    # --- derived metrics ----------------------------------------------------

    def durations(self) -> tuple[list[int], list[int]]:
        """(duration, self time) in ns for every span."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        self_ns = dur[:]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_ns[p] -= dur[i]
        return dur, self_ns

    def layer_totals(self, spans=None):
        """Per span name: calls, self ns, and inclusive ns over outermost spans
        (a span nested inside one of the same name is not counted twice)."""
        dur, self_ns = self.durations()
        name_id, parent, names = self.name_id, self.parent, self.names
        calls: Counter = Counter()
        selft: Counter = Counter()
        incl: Counter = Counter()
        for i in (range(len(dur)) if spans is None else spans):
            nid = name_id[i]
            calls[names[nid]] += 1
            selft[names[nid]] += self_ns[i]
            p = parent[i]
            while p >= 0 and name_id[p] != nid:
                p = parent[p]
            if p < 0:
                incl[names[nid]] += dur[i]
        return calls, selft, incl

    def final_is_basis_calls(self) -> int:
        """is_basis spans whose parent span is cyclic_exchange (the re-check)."""
        ids = self._ids
        target, parent_name = ids.get("core.is_basis"), ids.get("exchange.cyclic_exchange")
        return sum(1 for i, p in enumerate(self.parent)
                   if p >= 0 and self.name_id[i] == target and self.name_id[p] == parent_name)

    def per_layer(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json, summed over all solves."""
        calls, selft, incl = self.layer_totals()
        ms = lambda ns: ns / 1e6  # noqa: E731
        c = self.counters
        base_calls = calls["core.base"]
        out = {
            "core.base.queries": base_calls,
            "core.base.self_ms": ms(selft["core.base"]),
            "core.base.memo_hit_ratio":
                1 - c["core.base.distinct"] / base_calls if base_calls else 0.0,
            "core.slot.queries": calls["core.slot"],
            "core.slot.self_ms": ms(selft["core.slot"]),
            "core.restriction.queries": calls["core.restriction"],
            "core.restriction.self_ms": ms(selft["core.restriction"]),
            "core.check_subset.calls": calls["core.check_subset"],
            "core.check_subset.ms": ms(incl["core.check_subset"]),
            "core.rank.calls": calls["core.rank"],
            "core.is_basis.calls": calls["core.is_basis"],
            "core.enumerate_bases.ms": ms(incl["core.enumerate_bases"]),
            "core.check_base_axiom.ms": ms(incl["core.check_base_axiom"]),
            "union.arm.queries": calls["union.arm"],
            "union.arm.self_ms": ms(selft["union.arm"]),
            "union.matroid_partition.self_ms": ms(selft["union.matroid_partition"]),
            "union.verify_partition.ms": ms(incl["union.verify_partition"]),
            "union.certificates": c["union.certificates"],
            "exchange.instance.ms": ms(incl["exchange.instance"]),
            "exchange.build_color_classes.ms": ms(incl["exchange.build_color_classes"]),
            "exchange.cyclic_exchange.self_ms": ms(selft["exchange.cyclic_exchange"]),
            "exchange.final_is_basis.calls": self.final_is_basis_calls(),
            "verify.brute_force.ms": ms(incl["verify.brute_force"]),
            "verify.brute_force.solutions": c["verify.brute_force.solutions"],
            "verify.search.ms": ms(incl["verify.search"]),
            "verify.search.candidates": c["verify.search.candidates"],
            "verify.verify_witness.ms": ms(incl["verify.verify_witness"]),
            "io.parse.ms": ms(incl["io.parse"]),
            "io.dumps.ms": ms(incl["io.dumps"]),
            "io.bytes_in": c["io.bytes_in"],
            "io.bytes_out": c["io.bytes_out"],
            "cli.main.self_ms": ms(selft["cli.main"]),
        }
        for code in CLI_EXIT_CODES:
            out[f"cli.exit.{code}"] = c[f"cli.exit.{code}"]
        return out


def count_metrics(metrics: dict) -> dict:
    """The count metrics, which must repeat exactly between traced passes."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".queries", ".calls", ".solutions", ".candidates", ".certificates",
                           ".memo_hit_ratio", ".bytes_in", ".bytes_out"))
            or k.startswith("cli.exit.")}
