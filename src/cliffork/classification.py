"""Mod-8 classification of Cl(p,q): rings, matrix dimensions, group labels.

All four period-8 tables (division rings, finite blade groups, irreducible
representation cells in plain and epsilon form) are generated from closed
formulas keyed on (p - q) mod 8. The printed corner of the group table at
(0,0) is reproduced verbatim by the table builder even though the honest
group there is Z2; `salingaros_group_label` reports the honest value.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from .core_algebra import SignatureSpec

# ring of the simple factor(s) per type index (p - q) mod 8
_RING_BY_TYPE = {
    0: "R",
    1: "2R",
    2: "R",
    3: "C",
    4: "H",
    5: "2H",
    6: "H",
    7: "C",
}

# representation-cell prefix per type (letter, superscript)
_CELL_PREFIX = {
    0: "R^0",
    1: "2R^0",
    2: "R^2",
    3: "C^3",
    4: "H^4",
    5: "2H^4",
    6: "H^6",
    7: "C^7",
}


def type_index(sig_or_p, q=None) -> int:
    return SignatureSpec.of(sig_or_p, q).type_index()


def is_simple(sig_or_p, q=None) -> bool:
    """False exactly for the semi-simple types 1 and 5 (two simple factors)."""
    return type_index(sig_or_p, q) not in (1, 5)


def ring_label(sig_or_p, q=None) -> str:
    return _RING_BY_TYPE[type_index(sig_or_p, q)]


def odd_reduction(p: int, q: int) -> Tuple[Tuple[int, int], Tuple[Tuple[int, int], ...]]:
    """How an odd-dimensional Cl(p,q) reduces one dimension down.

    Returns (sub, factors).  sub is the subalgebra on the first p+q-1
    generators: (p, q-1), or (p-1, 0) when q = 0.  factors are the ideal
    factors, Cl(p,q-1) when q >= 1 and Cl(q,p-1) when p >= 1.
    """
    if (p + q) % 2 == 0:
        raise ValueError(f"Cl({p},{q}) is even-dimensional: no odd reduction")
    factors = []
    if q >= 1:
        factors.append((p, q - 1))
    if p >= 1:
        factors.append((q, p - 1))
    return ((p, q - 1) if q >= 1 else (p - 1, 0)), tuple(factors)


def matrix_dimension(sig_or_p, q=None) -> int:
    """Size d of the irreducible matrix algebra K(d) (per simple factor)."""
    sig = SignatureSpec.of(sig_or_p, q)
    n, t = sig.n, sig.type_index()
    if t in (0, 2):
        return 1 << (n // 2)
    if t in (3, 7):
        return 1 << ((n - 1) // 2)
    if t == 1:
        return 1 << ((n - 1) // 2)
    if t in (4, 6):
        return 1 << ((n - 2) // 2)
    return 1 << ((n - 3) // 2)  # type 5


def periodic_table_cell(sig_or_p, q=None) -> str:
    """Table-1 cell text, e.g. 'R', '2R(8)', 'H(16)'."""
    sig = SignatureSpec.of(sig_or_p, q)
    ring = ring_label(sig)
    d = matrix_dimension(sig)
    return ring if d == 1 else f"{ring}({d})"


def check_complex_dimension(n: int) -> None:
    """TypeError unless n is an int (a bool or 4.5 is not), ValueError when
    it is negative."""
    if type(n) is not int:
        raise TypeError(f"complex dimension must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"complex dimension {n} is negative")


def complex_ring_label(n: int) -> str:
    check_complex_dimension(n)
    return "C" if n % 2 == 0 else "2C"


def complex_matrix_dimension(n: int) -> int:
    check_complex_dimension(n)
    return 1 << (n // 2)


def salingaros_cell(sig_or_p, q=None) -> str:
    """Printed finite-group table cell: N_k, Omega_k or S_k."""
    sig = SignatureSpec.of(sig_or_p, q)
    n, t = sig.n, sig.type_index()
    if t in (0, 2):
        return "N_1" if n == 0 else f"N_{n - 1}"  # printed corner at (0,0)
    if t in (4, 6):
        return f"N_{n}"
    if t == 1:
        return f"Omega_{max(n - 2, 0)}"
    if t == 5:
        return f"Omega_{n - 1}"
    return f"S_{(n - 1) // 2}"


def salingaros_group_label(sig_or_p, q=None) -> str:
    """Honest group label; differs from the printed table only at (0,0)."""
    sig = SignatureSpec.of(sig_or_p, q)
    if sig.n == 0:
        return "Z2"
    return salingaros_cell(sig)


def representation_cell(sig_or_p, q=None, epsilon: bool = False) -> str:
    """Irreducible-representation cell: letter^type_subscript.

    The subscript is half the Table-1 matrix dimension. With epsilon=True the
    double-factor prefix '2' is rendered as 'e' (the idempotent-split form).
    """
    sig = SignatureSpec.of(sig_or_p, q)
    prefix = _CELL_PREFIX[sig.type_index()]
    if epsilon and prefix.startswith("2"):
        prefix = "e" + prefix[1:]
    return f"{prefix}_{matrix_dimension(sig) // 2}"


_TABLE_BUILDERS = {
    "rings": periodic_table_cell,
    "salingaros": salingaros_cell,
    "representations": representation_cell,
    "representations-eps": lambda p, q: representation_cell(p, q, epsilon=True),
}

TABLE_KINDS = tuple(_TABLE_BUILDERS)


def build_table(kind: str, max_index: int = 7) -> List[List[str]]:
    """Grid of cells, rows q = 0..max_index, columns p = 0..max_index."""
    if kind not in _TABLE_BUILDERS:
        raise ValueError(f"unknown table kind {kind!r}; choose from {TABLE_KINDS}")
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    cell = _TABLE_BUILDERS[kind]
    return [[cell(p, q) for p in range(max_index + 1)] for q in range(max_index + 1)]


def classification_summary(sig_or_p, q=None) -> Dict[str, Union[str, int, bool]]:
    sig = SignatureSpec.of(sig_or_p, q)
    return {
        "p": sig.p,
        "q": sig.q,
        "n": sig.n,
        "type": sig.type_index(),
        "ring": ring_label(sig),
        "simple": is_simple(sig),
        "matrix_dimension": matrix_dimension(sig),
        "algebra_cell": periodic_table_cell(sig),
        "group_cell": salingaros_cell(sig),
        "group_label": salingaros_group_label(sig),
        "representation_cell": representation_cell(sig),
        "representation_cell_eps": representation_cell(sig, epsilon=True),
    }
