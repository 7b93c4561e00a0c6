"""Exact spinor representations: signed Pauli words for the generators.

build_spinbasis constructs, for any signature it supports, a set of matrices
over the Gaussian rationals that square to the metric and pairwise
anticommute.  Each unit it builds is a signed Pauli word i^c Z^z X^x: one
nonzero entry per row and column, every entry +-1 or +-i.  The bundled
'gamma' basis is the familiar 4x4 set for Cl(1,3); we load it, validate it,
census its units, and round-trip it through a file.
"""

import os
import tempfile

from cliffork.spinor_repr import (
    SignatureSpec,
    build_spinbasis,
    load_spinbasis,
    save_spinbasis,
)

basis = load_spinbasis("gamma")
print(f"{basis.name}: represents {basis.sig} on dimension {basis.dim}")

for k in range(4):
    m = basis.unit(k + 1)  # unit(i) is 1-based
    rows = [" ".join(str(x).rjust(2) for x in row) for row in m.rows]
    print(f"\ngamma_{k}:")
    for r in rows:
        print("   " + r)

basis.validate()  # anticommutation + metric squares, raises on failure
print("\nvalidate(): anticommutation and metric squares hold")

census = basis.unit_census()
print(
    f"unit census: {census.v} real symmetric, {census.u} real skew, "
    f"{census.l} imaginary symmetric, {census.m} imaginary skew"
)

# products multiply in the order given: gamma_0 gamma_1 gamma_3
g013 = basis.product_of([1, 2, 4])
print(f"\ngamma_0 gamma_1 gamma_3 squared gives {g013 * g013}")

with tempfile.TemporaryDirectory() as folder:
    path = os.path.join(folder, "gamma.json")
    save_spinbasis(basis, path)
    again = load_spinbasis(path)
assert all(again.unit(i + 1) == basis.unit(i + 1) for i in range(4))
print("round-tripped through a JSON basis file")

# representations of other signatures come from the same constructor
for p, q in [(3, 0), (0, 4), (2, 2)]:
    b = build_spinbasis(SignatureSpec(p, q))
    print(f"Cl({p},{q}) -> dimension {b.dim}, words (d, c, x, z) {[m.word for m in b.mats]}")
