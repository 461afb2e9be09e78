"""The group layer: quasi-invertible elements under the circle operation,
transvections, the Steinberg relations, and the elementary subgroup of a
small matrix ring enumerated outright.

Run as: python3 demos/group_tour.py
"""

from rootring.errors import NotQuasiInvertible
from rootring.glgroup import (elementary_subgroup, perfectness_and_center,
                              quasi_inverse, transvection, verify_steinberg)
from rootring.rings import FinRing, mat_ring


def section(title):
    print()
    print(title)
    print("-" * len(title))


R = mat_ring(3, FinRing.zmod(2))

section("the circle group")
print("x o y = xy + x + y is a group law on the quasi-invertible elements")
print("of a nonunital ring; in the unitalization it is multiplication")
print("carried through x <-> 1 + x.")
x = R.embed(0, 1, (1,))
print("a strictly upper triangular element is quasi-invertible:")
print("  x  =", x)
print("  x' =", quasi_inverse(R, x), "(here x' = -x since x^2 = 0)")
e = R.embed(0, 0, (1,))
try:
    quasi_inverse(R, e)
except NotQuasiInvertible as bad:
    print("a diagonal idempotent is not: 1 + e is singular mod 2")
    print("  witness:", bad.witness)

section("Steinberg relations on transvections")
t01 = transvection(R, 0, 1, (1,))
t12 = transvection(R, 1, 2, (1,))
t02 = transvection(R, 0, 2, (1,))
comm = t01.commutator(t12)
print("[t_01(1), t_12(1)] = t_02(1*1):", comm == t02)
t21 = transvection(R, 2, 1, (1,))
print("roots that share no index in the composing position commute:")
print("  [t_01(1), t_21(1)] = 1:", t01.commutator(t21).is_identity())
t10 = transvection(R, 1, 0, (1,))
w = t01.commutator(t10)
print("opposite roots are the one pair the relations leave free; here the")
print("commutator is not even supported on a single root:")
print("  [t_01(1), t_10(1)] =", w.value)
rep = verify_steinberg(R, identity_triples="generators")
print("full check on generators: %d instances, ok: %s" %
      (rep.checked, rep.ok))

section("the elementary subgroup, enumerated")
small = mat_ring(2, FinRing.zmod(2))
E2 = elementary_subgroup(small)
print("E(mat_2_z2) has %d elements; GL_2(F_2) = S_3 has 6" % len(E2))
E3 = elementary_subgroup(R)
print("E(mat_3_z2) has %d elements; GL_3(F_2) is simple of order 168"
      % len(E3))

section("perfectness and center")
cp = perfectness_and_center(R)
print("every generator is a commutator of generators: %s" % cp.perfect)
print("upper unitriangular units 1 + x, one per strictly upper x: %d"
      % cp.upper_size)
print("central ones, the nonzero x in the kernel of x -> (xa - ax) over the")
print("transvection letters a: %d; conjugation tells the units apart: %s" %
      (len(cp.central_violations), cp.action_injective))
print("all checks: %s" % cp.ok)
