"""Partitioning a ground set into independent sets, one per matroid.

The solver inserts elements one at a time, searching the exchange digraph
for a shortest augmenting path; when no path exists it returns a witness
set whose summed ranks fall short of its size, which proves infeasibility.

Run with:  python3 demos/02_matroid_partition.py
"""

from matrex import (
    Arm,
    DeficiencyCertificate,
    GraphicMatroid,
    PartitionProblem,
    UniformMatroid,
    canon,
    matroid_partition,
    verify_partition,
)

# K_4 has 6 edges and spanning trees of size 3, so its edge set might split
# into two disjoint spanning trees.  It does:
k4 = GraphicMatroid(4, [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3], [0, 3]])
edges = k4.ground_set()
problem = PartitionProblem(edges, [Arm(edges, k4), Arm(edges, k4)])
result = matroid_partition(problem)
print("K_4 edges split into two spanning trees:")
for i, part in enumerate(result.parts):
    print(f"  tree {i + 1}: edges {canon(part)}")
print("verified:", verify_partition(problem, result))

# Now an infeasible problem: three elements, two arms that each accept at
# most one element.  The certificate is a set A with r_1(A) + r_2(A) < |A|.
small = UniformMatroid(3, 1)
problem = PartitionProblem(small.ground_set(), [Arm(small.ground_set(), small)] * 2)
outcome = matroid_partition(problem)
assert isinstance(outcome, DeficiencyCertificate)
print("\nthree elements cannot fit into two rank-1 arms:")
print(f"  witness {canon(outcome.witness)}: rank sum {outcome.rank_sum}"
      f" < size {outcome.size}  (per-arm ranks: {list(outcome.terms)})")

# An arm may also allow only part of the universe.
problem = PartitionProblem(edges, [Arm({0, 1, 2, 3}, k4), Arm({2, 3, 4, 5}, k4)])
outcome = matroid_partition(problem)
print("\nrestricted arms on K_4:",
      [canon(p) for p in outcome.parts] if not isinstance(outcome, DeficiencyCertificate)
      else f"infeasible, witness {canon(outcome.witness)}")
