"""Exact multivector arithmetic for real and complex Clifford algebras.

Everything runs on Gaussian rationals, so all comparisons downstream are
exact equalities.  Each component of a Gaussian scalar is a Python int when
it is integral and a fractions.Fraction (denominator > 1) otherwise; every
value the suites compute is a Gaussian integer or a dyadic rational, so
their sums and products stay in int arithmetic.  Blades are encoded as
bitmasks over the generators e1..en; generator i squares to +1 for i <= p
and to -1 for i > p.

A MultiVector with exactly one nonzero term (every blade, and every product
of blades) is held in one-term form: the blade mask and the coefficient as
two rationals in the canonical form above, never both zero, with no dict and
no GaussianScalar.  Every route that builds a value of one term stores it in
this form, and every other value, zero included, holds a dict of nonzero
GaussianScalars by mask; so the form follows from the value, and == and hash
need no normalising step.  A product of two one-term values takes its sign
from blade_product and multiplies the coefficients as plain numbers.

The blade sign rule lives in this module only: blade_product and blade_row
read it from one row mask per left blade, which each SignatureSpec keeps
from the first product with that blade on the left.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple, Union

Rational = Union[int, Fraction]


# ---------------------------------------------------------------------------
# scalars


def _canonical_rational(x) -> Rational:
    """x as an exact rational in canonical form: an int when x is integral,
    else a Fraction with denominator > 1.  Accepts ints, Fractions and
    numeric strings such as '3/2'; raises ValueError for malformed text
    (a zero denominator included) and TypeError for anything else."""
    if isinstance(x, str):
        x = _fraction(x, x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


def _fraction(part: str, text: str) -> Fraction:
    """Fraction(part), where part is a piece of the scalar text `text`; a
    zero denominator is malformed text like any other, so ValueError."""
    try:
        return Fraction(part)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in scalar text {text!r}") from None


class GaussianScalar:
    """Exact complex rational re + im*i.

    The form is canonical: `re` and `im` are ints when integral and
    Fractions (denominator > 1) otherwise, chosen from the value whichever
    path built it.  Arithmetic on integral scalars therefore stays in int
    arithmetic; only division and parsing can produce a Fraction.  An int
    compares and hashes equal to the Fraction of the same value, so == and
    hash are exact.

    GaussianScalar(re, im) validates and normalises its arguments; results
    of arithmetic are built by `_gaussian`, which only normalises.  The
    record is immutable: those two write its slots through the descriptors.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        _set_re(self, _canonical_rational(re))
        _set_im(self, _canonical_rational(im))

    def __eq__(self, other) -> bool:
        if type(other) is not GaussianScalar:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GaussianScalar, (self.re, self.im)

    @staticmethod
    def of(x) -> "GaussianScalar":
        """x itself if it is a GaussianScalar, else the real scalar x
        (an int, a Fraction or a numeric string); raises TypeError."""
        z = _operand(x)
        return GaussianScalar(x) if z is None else z

    def __add__(self, other) -> "GaussianScalar":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _gaussian(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussianScalar":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _gaussian(self.re - o.re, self.im - o.im)

    def __rsub__(self, other) -> "GaussianScalar":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _gaussian(o.re - self.re, o.im - self.im)

    def __neg__(self) -> "GaussianScalar":
        return _gaussian(-self.re, -self.im)

    def __mul__(self, other) -> "GaussianScalar":
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        return _gaussian(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianScalar":
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise ZeroDivisionError("inverse of zero Gaussian scalar")
        # Fraction(x, d), never x / d, which would be a float for ints
        return _gaussian(Fraction(self.re, d), Fraction(-self.im, d))

    def __truediv__(self, other) -> "GaussianScalar":
        o = _operand(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def conjugate(self) -> "GaussianScalar":
        return _gaussian(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def is_real(self) -> bool:
        return self.im == 0

    def __str__(self) -> str:
        return format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianScalar({format_gaussian(self)!r})"


_set_re = GaussianScalar.re.__set__
_set_im = GaussianScalar.im.__set__
_new = object.__new__


def _gaussian(re: Rational, im: Rational) -> GaussianScalar:
    """The scalar re + im*i from exact arithmetic results, without the type
    checks of GaussianScalar(re, im): an int stays as it is, and a Fraction
    that landed on an integer becomes an int."""
    if type(re) is not int and re.denominator == 1:
        re = re.numerator
    if type(im) is not int and im.denominator == 1:
        im = im.numerator
    z = _new(GaussianScalar)
    _set_re(z, re)
    _set_im(z, im)
    return z


def _operand(x) -> Optional[GaussianScalar]:
    """x as a GaussianScalar when it is one or a rational, else None (so the
    caller returns NotImplemented and the other operand gets its turn)."""
    if type(x) is GaussianScalar:
        return x
    if isinstance(x, (int, Fraction)):
        return _gaussian(x, 0)
    return None


_GS_ZERO = GaussianScalar()
_GS_ONE = GaussianScalar(1)
_GS_I = GaussianScalar(0, 1)

GaussianScalar.ZERO = _GS_ZERO
GaussianScalar.ONE = _GS_ONE
GaussianScalar.I = _GS_I


def format_gaussian(z: GaussianScalar) -> str:
    """Canonical text form, e.g. '0', '3/2', '-i', '1/2+3i', '1/2-3/4i'."""
    if not z:
        return "0"
    if z.im == 0:
        return str(z.re)
    if z.im == 1:
        imtxt = "i"
    elif z.im == -1:
        imtxt = "-i"
    else:
        imtxt = f"{z.im}i"
    if z.re == 0:
        return imtxt
    sign = "+" if z.im > 0 else ""
    return f"{z.re}{sign}{imtxt}"


def parse_gaussian(text: str) -> GaussianScalar:
    """Inverse of format_gaussian. Accepts '2', '-1/3', 'i', '2-i', '1/2+3/4i';
    raises ValueError for any other text, '1/0' and '2+1/0i' included."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty scalar text")
    if s == "i":
        return _GS_I
    if s == "-i":
        return -_GS_I
    if s.endswith("i"):
        body = s[:-1]
        # split off a real part if one precedes the imaginary term
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "+-/":
                re_part, im_part = body[:k], body[k:]
                if im_part in ("+", "-"):
                    im_part += "1"
                return GaussianScalar(_fraction(re_part, text), _fraction(im_part, text))
        if body in ("", "+"):
            body = "1"
        elif body == "-":
            body = "-1"
        return GaussianScalar(0, _fraction(body, text))
    return GaussianScalar(_fraction(s, text))


# ---------------------------------------------------------------------------
# signatures


class SignatureSpec:
    """Metric signature (p, q): p generators square to +1, q to -1.

    field is "R" for the real algebra Cl(p,q) and "C" when the same blade
    arithmetic is read inside the complexified algebra (the complex algebra
    of dimension n marked with real form (p,q); the unmarked complex algebra
    is (n, 0, "C")).  An immutable record, equal and hashed by value.

    `_rows` is the instance's memo of blade row masks (see blade_product);
    equality, hash, repr, copy and pickle ignore it.
    """

    __slots__ = ("p", "q", "field", "_rows")

    def __init__(self, p: int, q: int, field: str = "R"):
        for name, count in (("p", p), ("q", q)):
            if type(count) is not int:  # neither a bool nor a float such as 2.0
                raise TypeError(f"signature count {name} must be an int, got {count!r}")
        if p < 0 or q < 0:
            raise ValueError(f"signature ({p},{q}) has a negative count")
        if field not in ("R", "C"):
            raise ValueError(f"field must be 'R' or 'C', got {field!r}")
        _set_p(self, p)
        _set_q(self, q)
        _set_field(self, field)
        _set_rows(self, {})

    def __eq__(self, other) -> bool:
        if type(other) is not SignatureSpec:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.field == other.field

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.field))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return SignatureSpec, (self.p, self.q, self.field)

    def __repr__(self) -> str:
        return f"SignatureSpec(p={self.p!r}, q={self.q!r}, field={self.field!r})"

    @staticmethod
    def of(sig_or_p, q=None) -> "SignatureSpec":
        """A SignatureSpec as given, or the real signature of counts p and q."""
        if isinstance(sig_or_p, SignatureSpec):
            if q is not None:
                raise TypeError("pass either a SignatureSpec or two counts, not both")
            return sig_or_p
        if q is None:
            raise TypeError("pass a SignatureSpec or both p and q")
        return SignatureSpec(sig_or_p, q)

    @property
    def n(self) -> int:
        return self.p + self.q

    def metric(self, i: int) -> int:
        """Square of generator e_i, 1-based; TypeError or ValueError for no such i."""
        if type(i) is not int:  # neither a bool nor a float such as 2.0
            raise TypeError(f"generator index {i!r} is not an int")
        if not 1 <= i <= self.n:
            raise ValueError(f"generator index {i} outside 1..{self.n}")
        return 1 if i <= self.p else -1

    def type_index(self) -> int:
        return (self.p - self.q) % 8

    def __str__(self) -> str:
        base = f"Cl({self.p},{self.q})"
        return base if self.field == "R" else f"C({self.n}|{self.p},{self.q})"


_set_p = SignatureSpec.p.__set__
_set_q = SignatureSpec.q.__set__
_set_field = SignatureSpec.field.__set__
_set_rows = SignatureSpec._rows.__set__


# ---------------------------------------------------------------------------
# blades


def _mask_error(sig: SignatureSpec, mask) -> Exception:
    """The error for a mask that is no blade of sig."""
    if type(mask) is not int:
        return TypeError(f"blade mask {mask!r} is not an int")
    return ValueError(f"blade mask {mask} is not a blade of {sig}")


def _row_mask(sig: SignatureSpec, a: int) -> int:
    """The row mask r_a of left blade a (see blade_product), computed and
    stored in sig's memo; raises for an a that is no blade of sig."""
    if type(a) is not int or not 0 <= a < 1 << sig.n:
        raise _mask_error(sig, a)
    r = a >> sig.p << sig.p
    s = a >> 1
    while s:
        r ^= s
        s >>= 1
    sig._rows[a] = r
    return r


def blade_product(sig: SignatureSpec, a: int, b: int) -> Tuple[int, int]:
    """Geometric product of basis blades (bitmasks). Returns (mask, sign).

    The sign is the parity of the swaps that sort the concatenated index
    lists (pairs i in a, j in b with i > j) plus one per shared generator
    that squares to -1, i.e. per common bit at position p or above (Dorst,
    Fontijne & Mann, Geometric Algebra for Computer Science, ch. 19).  Both
    counts are parities of bits of b, so e_a e_b = (-1)^|r_a & b| e_(a^b)
    with the row mask r_a = (a>>1 ^ a>>2 ^ ...) ^ (a with its low p bits
    cleared).  Each SignatureSpec keeps r_a in a memo from the first product
    with a on the left, so a product is one dict read and one popcount.

    TypeError for a mask that is not an int, ValueError for one that is no
    blade of sig: a is checked when its row is computed, b through a ^ b,
    which has a bit at or above n exactly when b is negative or too wide.
    """
    r = sig._rows.get(a)
    if r is None or type(a) is not int:  # True would find the row of 1
        r = _row_mask(sig, a)
    if type(b) is not int:
        raise _mask_error(sig, b)
    m = a ^ b
    if m >> sig.p >> sig.q:
        raise _mask_error(sig, b)
    return m, -1 if (r & b).bit_count() & 1 else 1


def blade_row(sig: SignatureSpec, a: int) -> List[Tuple[int, int]]:
    """blade_product(sig, a, b) for b = 0 .. 2^n - 1, from one row mask."""
    r = _row_mask(sig, a)
    return [(a ^ b, -1 if (r & b).bit_count() & 1 else 1) for b in range(1 << sig.n)]


def blade_indices(mask: int) -> Tuple[int, ...]:
    """The 1-based generator indices of a blade mask, ascending; TypeError
    for a mask that is not an int, ValueError for a negative one."""
    if type(mask) is not int:
        raise TypeError(f"blade mask {mask!r} is not an int")
    if mask < 0:
        raise ValueError(f"blade mask {mask} is negative")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def blade_mask(indices: Iterable[int]) -> int:
    mask = 0
    for i in indices:
        if type(i) is not int:
            raise TypeError(f"generator index {i!r} is not an int")
        if i < 1:
            raise ValueError("generator indices are 1-based")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated generator index {i}")
        mask |= bit
    return mask


def blade_name(mask: int) -> str:
    idx = blade_indices(mask)
    if not idx:
        return "1"
    if idx[-1] <= 9:
        return "e" + "".join(str(i) for i in idx)
    return "e{" + ",".join(str(i) for i in idx) + "}"


# per-blade signs of the three linear (anti)automorphisms
def involution_sign(grade: int) -> int:
    return -1 if grade & 1 else 1


def reversion_sign(grade: int) -> int:
    return -1 if (grade * (grade - 1) // 2) & 1 else 1


def conjugation_sign(grade: int) -> int:
    return -1 if (grade * (grade + 1) // 2) & 1 else 1


# ---------------------------------------------------------------------------
# multivectors


class MultiVector:
    """Element of Cl(p,q) (or its complexification) with exact coefficients.

    MultiVector(sig, coeffs) checks every mask and coefficient and drops
    zeros; results of the ring operations and involutions, which already
    hold nonzero coefficients on valid masks, are built by `_multivector`
    and `_term` without that pass.

    In one-term form (see the module docstring) `_c` is None, `_m` is the
    mask and `_re`, `_im` the coefficient; otherwise `_c` is the dict.
    """

    __slots__ = ("sig", "_c", "_m", "_re", "_im")

    def __init__(self, sig: SignatureSpec, coeffs: Optional[Dict[int, GaussianScalar]] = None):
        clean: Dict[int, GaussianScalar] = {}
        if coeffs:
            limit = 1 << sig.n
            for mask, c in coeffs.items():
                if type(mask) is not int:
                    raise TypeError(f"blade mask {mask!r} is not an int")
                if not 0 <= mask < limit:
                    raise ValueError(f"blade mask {mask} outside algebra of dimension {sig.n}")
                c = GaussianScalar.of(c)
                if c:
                    clean[mask] = c
        _fill(self, sig, clean)

    # construction helpers

    @classmethod
    def scalar(cls, sig: SignatureSpec, value) -> "MultiVector":
        return cls(sig, {0: GaussianScalar.of(value)})

    @classmethod
    def unit(cls, sig: SignatureSpec, i: int) -> "MultiVector":
        sig.metric(i)  # bounds check
        return cls(sig, {1 << (i - 1): _GS_ONE})

    @classmethod
    def from_mask(cls, sig: SignatureSpec, mask: int, coeff=1) -> "MultiVector":
        return cls(sig, {mask: GaussianScalar.of(coeff)})

    # inspection

    def _terms(self) -> Dict[int, GaussianScalar]:
        if self._c is None:
            z = _new(GaussianScalar)  # as stored: the one-term form is already canonical
            _set_re(z, self._re)
            _set_im(z, self._im)
            return {self._m: z}
        return self._c

    def coeff(self, mask: int) -> GaussianScalar:
        return self._terms().get(mask, _GS_ZERO)

    def items(self):
        return self._terms().items()

    def is_zero(self) -> bool:
        return self._c is not None and not self._c

    def is_scalar(self) -> bool:
        return self._m == 0 if self._c is None else not self._c

    def scalar_part(self) -> GaussianScalar:
        return self.coeff(0)

    # ring operations

    def _check_sig(self, other: "MultiVector"):
        if self.sig is not other.sig and self.sig != other.sig:
            raise ValueError(f"signature mismatch: {self.sig} vs {other.sig}")

    def __add__(self, other) -> "MultiVector":
        if not isinstance(other, MultiVector):
            other = MultiVector.scalar(self.sig, other)
        self._check_sig(other)
        if self._c is None and other._c is None and self._m == other._m:
            z = _gaussian(self._re + other._re, self._im + other._im)
            return _term(self.sig, self._m, z.re, z.im) if z else _multivector(self.sig, {})
        out = dict(self._terms())
        for m, c in other._terms().items():
            s = out.get(m)
            if s is None:
                out[m] = c
                continue
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
        return _multivector(self.sig, out)

    __radd__ = __add__

    def __sub__(self, other) -> "MultiVector":
        if not isinstance(other, MultiVector):
            other = MultiVector.scalar(self.sig, other)
        return self + (-other)

    def __rsub__(self, other) -> "MultiVector":
        return (-self) + other

    def __neg__(self) -> "MultiVector":
        if self._c is None:
            return _term(self.sig, self._m, -self._re, -self._im)
        return _multivector(self.sig, {m: -c for m, c in self._c.items()})

    def _scaled(self, c: GaussianScalar) -> "MultiVector":
        """self * c for a scalar c (the two commute)."""
        if not c:
            return _multivector(self.sig, {})
        if self._c is None:
            a, b, x, y = self._re, self._im, c.re, c.im
            z = _gaussian(a * x - b * y, a * y + b * x)
            return _term(self.sig, self._m, z.re, z.im)
        return _multivector(self.sig, {m: v * c for m, v in self._c.items()})

    def __mul__(self, other) -> "MultiVector":
        if not isinstance(other, MultiVector):
            return self._scaled(GaussianScalar.of(other))
        sig = self.sig
        if sig is not other.sig:
            self._check_sig(other)
        if self._c is None and other._c is None:
            mask, sgn = blade_product(sig, self._m, other._m)
            a, b, c, d = self._re, self._im, other._re, other._im
            if sgn < 0:
                a, b = -a, -b
            # nonzero: a product of nonzero scalars
            if not b and not d:  # both real: no cross terms
                re, im = a * c, 0
            else:
                re, im = a * c - b * d, a * d + b * c
                if type(im) is not int and im.denominator == 1:
                    im = im.numerator
            if type(re) is not int and re.denominator == 1:
                re = re.numerator
            return _term(sig, mask, re, im)
        acc: Dict[int, GaussianScalar] = {}
        for ma, ca in self._terms().items():
            for mb, cb in other._terms().items():
                mask, sgn = blade_product(sig, ma, mb)
                term = ca * cb
                if sgn < 0:
                    term = -term
                s = acc.get(mask)
                if s is None:
                    acc[mask] = term  # a product of nonzero scalars is nonzero
                    continue
                s = s + term
                if s:
                    acc[mask] = s
                else:
                    del acc[mask]
        return _multivector(sig, acc)

    def __rmul__(self, other) -> "MultiVector":
        # only scalars end up here
        return self._scaled(GaussianScalar.of(other))

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiVector):
            if isinstance(other, (int, Fraction, GaussianScalar)):
                return self == MultiVector.scalar(self.sig, other)
            return NotImplemented
        if self.sig is not other.sig and self.sig != other.sig:
            return False
        if self._c is None:
            return (other._c is None and self._m == other._m
                    and self._re == other._re and self._im == other._im)
        return self._c == other._c

    def __hash__(self):
        return hash((self.sig, frozenset(self.items())))

    # the four involutive coefficient/blade maps

    def _signed(self, sign) -> "MultiVector":
        """self with each blade's coefficient times sign(grade of the blade)."""
        if self._c is None:
            m = self._m
            if sign(m.bit_count()) > 0:
                return _term(self.sig, m, self._re, self._im)
            return _term(self.sig, m, -self._re, -self._im)
        return _multivector(
            self.sig, {m: (c if sign(m.bit_count()) > 0 else -c) for m, c in self._c.items()}
        )

    def grade_involution(self) -> "MultiVector":
        return self._signed(involution_sign)

    def reversion(self) -> "MultiVector":
        return self._signed(reversion_sign)

    def clifford_conjugation(self) -> "MultiVector":
        return self._signed(conjugation_sign)

    def pseudo_conjugation(self) -> "MultiVector":
        """Antilinear automorphism: conjugate coefficients, flip the sign of
        every generator that squares to -1."""
        p = self.sig.p
        if self._c is None:
            m = self._m
            if (m >> p).bit_count() & 1:
                return _term(self.sig, m, -self._re, self._im)
            return _term(self.sig, m, self._re, -self._im)
        out = {}
        for m, c in self._c.items():
            if (m >> p).bit_count() & 1:
                out[m] = _gaussian(-c.re, c.im)  # -conjugate(c)
            else:
                out[m] = c.conjugate()
        return _multivector(self.sig, out)

    def complex_conjugation(self) -> "MultiVector":
        """Coefficient-wise conjugation, blades untouched."""
        if self._c is None:
            return _term(self.sig, self._m, self._re, -self._im)
        return _multivector(self.sig, {m: c.conjugate() for m, c in self._c.items()})

    def involution_by_omega(self) -> "MultiVector":
        """omega * x * omega^(-1). Agrees with grade_involution; only inner
        for even n, so odd n is rejected."""
        if self.sig.n % 2:
            raise ValueError(
                f"involution by the volume element needs even n, got n={self.sig.n}"
            )
        omega = volume_element(self.sig)
        s = volume_square_sign(self.sig.p, self.sig.q)
        inv = omega * s  # omega^(-1) = omega / omega^2
        return omega * self * inv

    def __str__(self) -> str:
        terms = self._terms()
        if not terms:
            return "0"
        parts = []
        for m in sorted(terms, key=lambda m: (m.bit_count(), blade_indices(m))):
            c = terms[m]
            ctext = format_gaussian(c)
            if m == 0:
                parts.append(ctext)
            elif ctext == "1":
                parts.append(blade_name(m))
            elif ctext == "-1":
                parts.append("-" + blade_name(m))
            else:
                if ("+" in ctext[1:]) or ("-" in ctext[1:]):
                    ctext = "(" + ctext + ")"
                parts.append(f"{ctext}*{blade_name(m)}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"<{self.sig} | {self}>"


def _fill(x: MultiVector, sig: SignatureSpec, coeffs: Dict[int, GaussianScalar]) -> None:
    """Store coeffs (nonzero GaussianScalars on valid masks) in x, in
    one-term form when there is exactly one."""
    x.sig = sig
    if len(coeffs) == 1:
        ((x._m, c),) = coeffs.items()
        x._c = None
        x._re = c.re
        x._im = c.im
    else:
        x._c = coeffs


def _multivector(sig: SignatureSpec, coeffs: Dict[int, GaussianScalar]) -> MultiVector:
    """A MultiVector over coeffs as given: nonzero GaussianScalars on masks
    inside the algebra, which the caller guarantees."""
    x = _new(MultiVector)
    _fill(x, sig, coeffs)
    return x


def _term(sig: SignatureSpec, mask: int, re: Rational, im: Rational) -> MultiVector:
    """The one-term MultiVector (re + im*i) * e_mask; the caller guarantees a
    valid mask and canonical re, im that are not both zero."""
    x = _new(MultiVector)
    x.sig = sig
    x._c = None
    x._m = mask
    x._re = re
    x._im = im
    return x


# ---------------------------------------------------------------------------
# volume element and center


def volume_element(sig: SignatureSpec) -> MultiVector:
    return MultiVector.from_mask(sig, (1 << sig.n) - 1)


def volume_square_sign(p: int, q: int) -> int:
    """Sign of omega^2 in Cl(p,q): +1 iff p-q = 0,1 (mod 4)."""
    return 1 if (p - q) % 4 in (0, 1) else -1


def volume_square(sig: SignatureSpec) -> GaussianScalar:
    omega = volume_element(sig)
    sq = omega * omega
    if not sq.is_scalar():
        raise AssertionError("volume element squared to a non-scalar")
    return sq.scalar_part()


def center_basis(sig: SignatureSpec) -> List[MultiVector]:
    """Basis of the center: {1} for even n, {1, omega} for odd n."""
    out = [MultiVector.scalar(sig, 1)]
    if sig.n % 2 == 1:
        out.append(volume_element(sig))
    return out
