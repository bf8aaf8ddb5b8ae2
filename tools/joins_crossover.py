"""Time the two union-finds of ``GraphicMatroid._joins`` against each other.

A graphic query runs its union-find over a list of all the graph's touched
vertices, or over a dict of the query set's own endpoints; ``_joins`` takes
the dict when ``16 * len(ids) < order``.  This script times both on random
graphs of a few orders, for sets of order/2 down to order/64 edges (and
sets of 1 to 4 edges), and prints microseconds per query and the ratio, so
the crossover can be measured again on another host.  The two set-ups
below are those of ``_joins`` and share its loop; each answer is checked
against the matroid's own.  Standard library only.

Usage: python tools/joins_crossover.py [ORDER ...]   (default: 40 64 1000 10000)
"""

from __future__ import annotations

import random
import sys
import timeit
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from matrex import GraphicMatroid  # noqa: E402


def with_list(ids, ends, order):
    parent = list(range(order))
    return [_join(parent, *ends[i]) for i in ids]


def with_dict(ids, ends, order):
    parent = {u: u for i in ids for u in ends[i]}
    return [_join(parent, *ends[i]) for i in ids]


def _join(parent, u, v):
    # The loop body of _joins; both variants pay the same call per edge.
    while parent[u] != u:
        parent[u] = u = parent[parent[u]]
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    parent[u] = v
    return u != v


def main(argv: list[str]) -> int:
    rng = random.Random(1)
    print(f"{'order':>6} {'edges':>6}  {'list µs':>9} {'dict µs':>9}  dict/list")
    for order in map(int, argv or ["40", "64", "1000", "10000"]):
        ends = [tuple(rng.sample(range(order), 2)) for _ in range(2 * order)]
        m = GraphicMatroid(order, ends)
        sizes = sorted({*range(1, 5), *(max(1, order // f) for f in (2, 4, 8, 16, 32, 64))},
                       reverse=True)
        for size in sizes:
            ids = sorted(rng.sample(range(len(ends)), size))
            if not all(with_list(ids, ends, order)) == all(with_dict(ids, ends, order)) \
                    == m.is_independent(ids):
                raise SystemExit(f"the union-finds disagree with _joins on {ids}")
            number = max(1, 20000 // order)
            t_list, t_dict = (min(timeit.repeat(lambda: f(ids, ends, order), number=number,
                                                repeat=5)) / number * 1e6
                              for f in (with_list, with_dict))
            side = "dict" if 16 * size < order else "list"
            print(f"{order:6} {size:6}  {t_list:9.2f} {t_dict:9.2f}  {t_dict / t_list:9.2f}"
                  f"  (_joins: {side})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
