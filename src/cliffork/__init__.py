"""cliffork: exact workbench for Clifford algebra representation theory.

Modules:
    core_algebra       multivector arithmetic over Gaussian rationals
    classification     ring/type periodic tables and matrix census
    spinor_repr        exact spinor bases (signed Pauli words) for all types
    ext_automorphisms  the W,E,C,Pi,K,S,F matrices and their sign ledger
    finite_groups      signed blade groups, naming by F2 quadratic form
    coverings          PT and CPT covering reports and their cover groups
    quotient           semi-simple split, eps homomorphism, symmetry transfer
    verify             the validation suites behind `cliffork verify`
    cli                command line front end
"""

from .core_algebra import (
    GaussianScalar,
    MultiVector,
    SignatureSpec,
    blade_mask,
    blade_name,
    blade_product,
    center_basis,
    volume_element,
    volume_square,
    volume_square_sign,
)

__all__ = [
    "GaussianScalar",
    "MultiVector",
    "SignatureSpec",
    "blade_mask",
    "blade_name",
    "blade_product",
    "center_basis",
    "volume_element",
    "volume_square",
    "volume_square_sign",
]

__version__ = "0.1.0"
