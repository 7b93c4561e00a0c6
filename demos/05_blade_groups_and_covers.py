"""Signed blade groups, their center quotients, and reflection covers.

The basis blades of Cl(p,q) with signs +/-1 form a finite group of order
2^(n+1).  Its quotient by the center is elementary abelian, which pins the
group up to a short list.  On top of that sit the covering groups of the
reflection symmetries: the PT cover, with its three signs (a,b,c) of W, E
and C, for any signature, and seven-letter covers in the quaternionic case.
"""

from cliffork.core_algebra import MultiVector, SignatureSpec, blade_mask
from cliffork.coverings import (
    cpt_structure,
    pin_membership,
    pt_structure,
    spin_membership,
)
from cliffork.finite_groups import (
    identify_small_group,
    vee_factor_check,
    vee_group,
)

sig = SignatureSpec(0, 2)
table = vee_group(sig)
print(f"blade group of {sig}: order {table.order}, {identify_small_group(table)}")

check = vee_factor_check(sig)
print(f"center quotient elementary abelian: {check.passed}")

for p, q in [(2, 0), (1, 1), (0, 2), (3, 0)]:
    t = vee_group(SignatureSpec(p, q))
    print(f"  Cl({p},{q}) blade group = {identify_small_group(t)}")

# Pin membership: unit vectors are in, their normalized products stay in
sig = SignatureSpec(1, 3)
e1 = MultiVector.from_mask(sig, blade_mask([1]))
e2 = MultiVector.from_mask(sig, blade_mask([2]))
print(f"\ne1 in Pin(1,3): {pin_membership(e1)}, in Spin: {spin_membership(e1)}")
print(f"e1*e2 in Pin: {pin_membership(e1 * e2)}, in Spin: {spin_membership(e1 * e2)}")
x = e1 + MultiVector.scalar(sig, 1)  # not unit norm
print(f"1 + e1 in Pin: {pin_membership(x)}")

# PT covering structure, signs (a,b,c) of W, E, C (any signature)
rep = pt_structure(2, 0)
print(f"\nPT cover (a,b,c) of Cl(2,0): {rep.cover_group}")
print(f"  signature {rep.signature}, Cliffordian: {rep.cliffordian}")

# seven-letter covering structure (quaternionic signatures only)
rep = cpt_structure(1, 3)
print(f"\nseven-letter cover of Cl(1,3): {rep.cover_group}")
print(f"  automorphism group {rep.automorphism_group}")
print(f"  admissible signatures: {[''.join('+-'[s < 0] for s in a) for a in rep.admissible]}")
print(f"  Cliffordian: {rep.cliffordian}")

# complex algebras cover too, with a smaller admissible set
rep = pt_structure(4)
print(f"\nPT cover (a,b,c) of C(4): {rep.cover_group} (Cliffordian: {rep.cliffordian})")
