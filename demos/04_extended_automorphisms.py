"""The seven discrete-symmetry matrices W, E, C, Pi, K, S, F.

For an even-dimensional representation the unit matrices split into four
species (real/imaginary x symmetric/skew).  Products over these species give
seven distinguished matrices; together with their negatives and +/-I they
form a signed group of order 16.  The report below computes everything for
the bundled Dirac basis: squares, commutations, and the group name, all
read from the sign cocycle the report keeps, the signs of the pairwise
products of the eight matrices.
"""

from cliffork.ext_automorphisms import (
    MATRIX_NAMES,
    ext_group_report,
    predicted_K_square,
    predicted_S_square,
    universal_comm_sign,
)
from cliffork.spinor_repr import load_spinbasis

basis = load_spinbasis("gamma")
report = ext_group_report(basis)
order, group = report.matrix_group
squares = dict(zip(MATRIX_NAMES, report.signature))

print(f"extended automorphisms of {report.sig} ({basis.name} basis)\n")
for name in MATRIX_NAMES:
    m = report.matrices[name]
    units = " ".join(f"gamma_{i - 1}" for i in m.factors) or "(identity)"
    print(f"  {name:<3} = {units:<28} square {squares[name]:+d}  [{m.form}]")

signature = ", ".join(f"{s:+d}" for s in report.signature)
print(f"\nsquare signature  ({signature})")
print(f"group             {report.group_name} = {group}")
print(
    f"order structure   {report.order_structure} "
    f"({'Abelian' if report.abelian else 'non-Abelian'})"
)

# the census predicts each square without touching the matrices
census = report.census
assert predicted_K_square(census, report.matrices["K"].form) == squares["K"]
assert predicted_S_square(census, report.matrices["S"].form) == squares["S"]
print("\ncensus-predicted K and S squares match the direct matrix squares")

# (anti)commutation follows from factor counts alone
profile = report.commutation
for pair in [("W", "E"), ("K", "S"), ("S", "F")]:
    got = profile[pair]
    x, y = (sum(1 << i for i in report.matrices[n].factors) for n in pair)
    predicted = universal_comm_sign(x, y)
    word = "commute" if got > 0 else "anticommute"
    assert got == predicted
    print(f"  {pair[0]} and {pair[1]} {word} (factor-count rule agrees)")

print()
for note in [f"signed group of order {order} = {group}"] + report.notes:
    print(f"note: {note}")
