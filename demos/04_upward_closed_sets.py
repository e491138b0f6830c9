"""Walkthrough: the antichain algebra behind every level-set computation.

Upward closed subsets of N^d are stored as their minimal generators,
a finite antichain.  Union, intersection, equality and membership reduce
to antichain manipulation, and the maximal points outside such a set
(taken in the INF-extended space) are built by adding the generators one
at a time.
"""

from commrep import INF, UpSet

u = UpSet.from_points(2, [(10, 20), (30, 20), (30, 5)])
print("generators after minimization:", u.gens)

print("\nmembership (INF coordinates absorb):")
for x in [(29, INF), (9, INF), (10, 20), (31, 6)]:
    print(f"  {x} in U: {u.member(x)}")

a = UpSet.from_points(2, [(2, 0)])
b = UpSet.from_points(2, [(0, 3)])
print("\nrectangle corner: gens of (2,0)-up intersected with (0,3)-up:", (a & b).gens)
print("union gens:", (a | b).gens)

# The complement of an upward closed set is downward closed; its maximal
# elements certify non-membership.  Each coordinate is INF or some
# generator coordinate minus one: adding a generator g splits every maximum
# p above g into the points p with one coordinate i lowered to g_i - 1.
print("\nmaximal points outside U:", sorted(u.complement_maxima(), key=str))

print("maximal points outside the empty set:", UpSet.from_points(2, []).complement_maxima())
print("maximal points outside everything:", UpSet.from_points(2, [(0, 0)]).complement_maxima())

# Shifting: the set of x with x + a inside U.
print("\nshift by (0, 18):", u.shift((0, 18)).gens)
print("shift by (30, 20):", u.shift((30, 20)).gens)

# Distributivity makes these sets a sublattice of the powerset.
c = UpSet.from_points(2, [(1, 1)])
lhs = c & (a | b)
rhs = (c & a) | (c & b)
print("\ndistributivity sample:", lhs == rhs)
