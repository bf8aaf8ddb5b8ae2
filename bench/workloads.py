"""The four benchmark workloads: fixed instance ladders, timed solves, checks.

Every workload is a list of items (library solves or CLI jobs) generated
from fixed instance seeds, so each run measures the same work and every
output can be compared with the digest recorded in ``expected.json``.
Solve cost varies by about +-35% between instance seeds of one case, so a
ladder drawn from the run seed would make the run-to-run spread exceed any
useful regression bound; the run seed instead fixes the order in which the
closed loop issues the items.

The package is called only through its public modules, and always through
module attributes (``exchange.cyclic_exchange``, ``cli.main``), so that the
tracer in ``tracing.py`` can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

from matrex import cli, core, exchange, io, verify

MATROID_CLASSES = {
    "graphic": core.GraphicMatroid,
    "linear": core.LinearMatroid,
    "uniform": core.UniformMatroid,
}


@dataclass(frozen=True)
class Solve:
    """One library solve: a matroid description, its bases and A_1."""

    case: str
    kind: str
    args: tuple
    bases: tuple[frozenset[int], ...]
    a1: frozenset[int]


@dataclass(frozen=True)
class Job:
    """One CLI job: argv for ``matrex.cli.main`` and its expected exit code."""

    case: str
    argv: tuple[str, ...]
    expect_code: int
    check: tuple  # (kind, data) for the semantic output check


@dataclass(frozen=True)
class Outcome:
    seconds: float
    digest: str
    error: str | None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# --- library workloads ------------------------------------------------------


def _draw_bases(matroid, rank: int, k: int, rng: random.Random):
    """k bases by randomized greedy completion through the matroid's oracle."""
    bases = []
    for _ in range(k):
        order = list(range(matroid.ground_size))
        rng.shuffle(order)
        picked: set[int] = set()
        for e in order:
            if matroid.is_independent(picked | {e}):
                picked.add(e)
                if len(picked) == rank:
                    break
        if len(picked) != rank:
            raise RuntimeError(f"greedy completion stopped at {len(picked)} < {rank}")
        bases.append(frozenset(picked))
    return tuple(bases)


def _random_a1(basis, rng: random.Random) -> frozenset[int]:
    return frozenset(e for e in sorted(basis) if rng.getrandbits(1))


def _graphic_case(vertices: int, k: int, full_seed: bool):
    edges = tuple((u, v) for u in range(vertices) for v in range(u + 1, vertices))

    def make(case: str, rng: random.Random) -> Solve:
        args = (vertices, edges)
        bases = _draw_bases(core.GraphicMatroid(*args), vertices - 1, k, rng)
        a1 = bases[0] if full_seed else _random_a1(bases[0], rng)
        return Solve(case, "graphic", args, bases, a1)

    return make


def _linear_case(prime: int, rows: int, columns: int, k: int):
    def make(case: str, rng: random.Random) -> Solve:
        while True:
            cols = tuple(
                tuple(rng.randrange(prime) for _ in range(rows)) for _ in range(columns)
            )
            if _gf_rank(prime, cols) == rows:
                break
        args = (prime, rows, cols)
        bases = _draw_bases(core.LinearMatroid(*args), rows, k, rng)
        return Solve(case, "linear", args, bases, _random_a1(bases[0], rng))

    return make


def _uniform_case(n: int, k: int):
    def make(case: str, rng: random.Random) -> Solve:
        r = n // 2
        bases = tuple(frozenset(rng.sample(range(n), r)) for _ in range(k))
        return Solve(case, "uniform", (n, r), bases, _random_a1(bases[0], rng))

    return make


def _gf_rank(prime: int, vectors) -> int:
    """Rank of a list of vectors over GF(prime), independent of matrex."""
    mat = [list(v) for v in vectors]
    rank = 0
    width = len(mat[0]) if mat else 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] % prime), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], prime - 2, prime)
        prow = [(x * inv) % prime for x in mat[rank]]
        mat[rank] = prow
        for i in range(len(mat)):
            if i != rank and mat[i][col] % prime:
                f = mat[i][col]
                mat[i] = [(x - f * y) % prime for x, y in zip(mat[i], prow)]
        rank += 1
    return rank


def _is_basis(item: Solve, s: frozenset[int]) -> bool:
    """Independent basis test for the three library matroid classes."""
    if item.kind == "uniform":
        return len(s) == item.args[1]
    if item.kind == "graphic":
        vertices, edges = item.args
        if len(s) != vertices - 1:
            return False
        parent = list(range(vertices))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in s:
            ru, rv = find(edges[e][0]), find(edges[e][1])
            if ru == rv:
                return False
            parent[ru] = rv
        return True
    prime, rows, cols = item.args
    return len(s) == rows and _gf_rank(prime, [cols[e] for e in s]) == rows


def _check_exchange(item: Solve, result) -> str | None:
    k = len(item.bases)
    if len(result.parts) != k or len(result.shifted) != k:
        return "wrong number of parts"
    if result.parts[0] != item.a1:
        return "A_1 changed"
    for i in range(k):
        if len(result.parts[i]) != len(item.a1) or not result.parts[i] <= item.bases[i]:
            return f"exchange set {i} is not a |A_1|-subset of B_{i}"
        expected = (item.bases[i] - result.parts[i]) | result.parts[i - 1]
        if result.shifted[i] != expected:
            return f"shifted set {i} is not (B_i - A_i) + A_(i-1)"
        if not _is_basis(item, expected):
            return f"shifted set {i} is not a basis"
    return None


def run_solve(item: Solve) -> Outcome:
    """Time one library solve: build the matroid cold, validate, exchange."""
    t0 = time.perf_counter()
    matroid = MATROID_CLASSES[item.kind](*item.args)
    instance = exchange.ExchangeInstance(matroid, item.bases, item.a1)
    result = exchange.cyclic_exchange(instance)
    seconds = time.perf_counter() - t0
    payload = {"A": [sorted(p) for p in result.parts],
               "shifted": [sorted(s) for s in result.shifted]}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return Outcome(seconds, digest(text.encode()), _check_exchange(item, result))


class LibraryWorkload:
    """cyclic_exchange on a fixed ladder of cases, each under two instance seeds."""

    INSTANCE_SEEDS = (1, 2)

    def __init__(self, name: str, cases: dict):
        self.name = name
        self.cases = cases

    def setup(self, workdir: Path) -> list[Solve]:
        items = []
        for case, make in self.cases.items():
            for s in self.INSTANCE_SEEDS:
                label = f"{case}#{s}"
                items.append(make(label, random.Random(f"{self.name}/{label}")))
        return items

    run = staticmethod(run_solve)


# --- cli-batch ----------------------------------------------------------------

# Brute-force --verify instances: total basis size 12..16, under the default cap.
_VERIFY_SPECS = (
    dict(matroid_class="uniform", k=4, n=8, rank=3),
    dict(matroid_class="graphic", k=4, vertices=5, n=9),
    dict(matroid_class="linear", k=4, prime=3, rows=3, n=8),
    dict(matroid_class="bases", k=4, n=8, rank=3),
)
_SEARCH_BUDGET_FOUND = 1000  # the catalog witness appears within 164 candidates
_SEARCH_BUDGET_EXHAUSTED = 100


def _random_tree(vertices: int, rng: random.Random) -> list[list[int]]:
    order = list(range(vertices))
    rng.shuffle(order)
    return [sorted((order[t], order[rng.randrange(t)])) for t in range(1, vertices)]


def _partition_problem(rng: random.Random, feasible: bool, vertices=7, k=3):
    """k arms over one multigraph. Feasible problems are k edge-disjoint
    spanning trees, each allowed in its own arm (plus random extras);
    infeasible ones add edges beyond the total rank k*(vertices-1)."""
    labelled = [(i, e) for i in range(k) for e in _random_tree(vertices, rng)]
    if not feasible:
        for _ in range(rng.randint(1, 3)):
            labelled.append((None, sorted(rng.sample(range(vertices), 2))))
    rng.shuffle(labelled)
    edges = [e for _, e in labelled]
    graph = {"type": "graphic", "vertices": vertices, "edges": edges}
    arms = []
    for i in range(k):
        allowed = [j for j, (owner, _) in enumerate(labelled)
                   if owner == i or owner is None or rng.random() < 0.4]
        arms.append({"matroid": graph, "allowed": allowed})
    return {"universe": len(edges), "arms": arms}


def _bases_file(seed: int, n=8, rank=3) -> dict:
    spec = verify.InstanceGenSpec("bases", k=1, seed=seed, n=n, rank=rank)
    return io.matroid_to_json(verify.random_instance(spec).matroid)


def _cli_plan():
    """The fixed job list: (case, files {name: json}, argv with file names, code, check)."""
    plan = []
    for i in range(60):
        spec = verify.InstanceGenSpec(seed=1000 + i, **_VERIFY_SPECS[i % len(_VERIFY_SPECS)])
        inst = verify.random_instance(spec)
        files = {"m": io.matroid_to_json(inst.matroid),
                 "b": {"bases": [sorted(b) for b in inst.bases], "a1": sorted(inst.seed)}}
        plan.append((f"cyclic-exchange/{i:02d}", files,
                     ["cyclic-exchange", "m", "b", "--verify"], 0, ("oracle", None)))
    for i in range(60):
        feasible = i % 3 != 2
        problem = _partition_problem(random.Random(f"partition/{i}"), feasible)
        plan.append((f"partition/{i:02d}", {"p": problem}, ["partition", "p"],
                     0 if feasible else 4, ("partition", problem["universe"])))
    for i in range(40):
        plan.append((f"check/{i:02d}", {"m": _bases_file(2000 + i)}, ["check", "m"], 0,
                     ("check", None)))
    for i in range(40):
        family = _bases_file(3000 + i)
        plan.append((f"enumerate-bases/{i:02d}", {"m": family}, ["enumerate-bases", "m"], 0,
                     ("enumerate", family["bases"])))
    for i in range(20):
        k = 3 + i % 2
        budget = _SEARCH_BUDGET_FOUND if i % 4 < 2 else _SEARCH_BUDGET_EXHAUSTED
        argv = ["search-shift2", "--k", str(k), "--budget", str(budget), "--seed", str(i)]
        plan.append((f"search-shift2/{i:02d}", {}, argv,
                     0 if budget == _SEARCH_BUDGET_FOUND else 5, ("search", None)))
    return plan


def _check_cli(job: Job, code: int, out: str) -> str | None:
    if code != job.expect_code:
        return f"exit code {code}, expected {job.expect_code}"
    kind, data = job.check
    if kind == "check":
        return None if out.startswith("rank ") else "check printed no rank line"
    payload = json.loads(out)
    if kind == "oracle" and payload["oracle"]["member"] is not True:
        return "cyclic-exchange result is not a brute-force solution"
    if kind == "partition":
        if code == 0:
            parts = [frozenset(p) for p in payload["parts"]]
            covered = frozenset().union(*parts)
            if sum(map(len, parts)) != len(covered) or covered != frozenset(range(data)):
                return "partition parts are not a disjoint cover of the universe"
        elif not payload["rank_sum"] < payload["size"]:
            return "deficiency certificate does not fall short"
    if kind == "enumerate" and payload["bases"] != data:
        return "enumerated bases differ from the family in the file"
    if kind == "search" and payload["found"] != (code == 0):
        return "search outcome does not match its exit code"
    return None


def run_job(job: Job) -> Outcome:
    """Time one in-process CLI call; stdout and stderr are captured."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(list(job.argv))
        seconds = time.perf_counter() - t0
    text = out.getvalue()
    return Outcome(seconds, digest(f"{code}\n{text}".encode()), _check_cli(job, code, text))


class CliBatch:
    """A few hundred small jobs through ``matrex.cli.main`` on files written in set-up."""

    def setup(self, workdir: Path) -> list[Job]:
        jobs = []
        for case, files, argv, code, check in _cli_plan():
            stem = case.replace("/", "-")
            paths = {}
            for key, obj in files.items():
                path = workdir / f"{stem}.{key}.json"
                path.write_text(io.dumps(obj))
                paths[key] = str(path)
            jobs.append(Job(case, tuple(paths.get(a, a) for a in argv), code, check))
        return jobs

    run = staticmethod(run_job)


WORKLOADS = {
    "graphic-ladder": LibraryWorkload("graphic-ladder", {
        "K40-k3": _graphic_case(40, 3, False),
        "K40-k4": _graphic_case(40, 4, False),
        "K40-k6": _graphic_case(40, 6, False),
        "K40-k4-full": _graphic_case(40, 4, True),
        "K64-k4": _graphic_case(64, 4, False),
    }),
    "linear-gf": LibraryWorkload("linear-gf", {
        f"GF{p}-30x90-k{k}": _linear_case(p, 30, 90, k) for p in (2, 3) for k in (4, 6)
    }),
    "uniform-wide": LibraryWorkload("uniform-wide", {
        "U100of200-k3": _uniform_case(200, 3),
        "U80of160-k4": _uniform_case(160, 4),
        "U60of120-k6": _uniform_case(120, 6),
    }),
    "cli-batch": CliBatch(),
}
