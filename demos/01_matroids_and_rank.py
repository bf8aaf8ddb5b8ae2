"""Tour of the matroid classes: independence queries, rank, bases.

Run with:  python3 demos/01_matroids_and_rank.py
"""

from matrex import (
    Arm,
    BasisMatroid,
    GraphicMatroid,
    LinearMatroid,
    UniformMatroid,
    canon,
    check_base_axiom,
)

# A uniform matroid U(2, 4): any set of at most 2 elements is independent.
uniform = UniformMatroid(4, 2)
print("U(2,4) rank of {0,1,2}:", uniform.rank({0, 1, 2}))
print("U(2,4) bases:", [canon(b) for b in uniform.enumerate_bases()])

# The cycle matroid of K_4.  Element i is edge i; a set is independent when
# the edges form a forest, so the bases are the 16 spanning trees.
k4 = GraphicMatroid(4, [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3], [0, 3]])
print("\nK_4 rank:", k4.full_rank())
print("K_4 number of spanning trees:", len(k4.enumerate_bases()))
print("edges {0,1,3} form a triangle -> independent?", k4.is_independent({0, 1, 3}))

# A linear matroid over GF(2): the seven nonzero vectors of GF(2)^3.
columns = [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]]
seven_point = LinearMatroid(2, 3, columns)
print("\n7-point GF(2) matroid: rank", seven_point.full_rank(),
      "with", len(seven_point.enumerate_bases()), "bases (out of 35 triples)")

# Restricting to a subset is an Arm: the same matroid, queried in its own
# ids, only inside the allowed set.  Column 4 + column 6 = column 1.
arm = Arm({1, 2, 4, 6}, seven_point)
print("restriction to {1,2,4,6}: rank", arm.rank({1, 2, 4, 6}),
      "- {1,4,6} independent?", arm.is_independent({1, 4, 6}))

# A matroid can also be given by its basis family; the exchange axiom is
# validated at construction.  Here is the validation catching a non-matroid.
ok, violation = check_base_axiom(4, [[0, 1], [2, 3]])
print("\nis [[0,1],[2,3]] a basis family?", ok, "-", violation)

# And a family that passes.
triangle_family = BasisMatroid(3, [[0, 1], [1, 2], [0, 2]])
print("triangle family accepted, rank:", triangle_family.full_rank())
