"""Exact coefficient fields carrying a primitive r-th root of unity.

Two interchangeable backends behind one interface:

* ``CyclotomicField(r)``: the field Q(zeta_r), realized as Q[X] modulo the
  r-th cyclotomic polynomial Phi_r.  A scalar is a tuple of integer
  numerators in the power basis 1, X, ..., X^(phi(r)-1) over one positive
  common denominator, kept in lowest terms (the layout of FLINT/Antic's
  ``nf_elem``), and the root of unity is the class of X.  Phi_r is monic
  with integer coefficients, so a product is an integer convolution reduced
  by integer rows, over the product of the denominators.  Reduction is
  modulo Phi_r, not X^r - 1, so the quotient is a genuine field and row
  reduction can divide freely.
* ``PrimeField(p, r)``: residues mod a prime p < 2^40 with p = 1 (mod r).
  The root of unity is g^((p-1)/r) where g is the smallest primitive root
  mod p, a deterministic choice.

The scalar classes share one base, ``_Scalar``, and the fields another,
``_Field``.  A backend supplies only its own zero test, +, -, *, negation,
inverse, == and hash (and its field's constructors and ``render``); the
base holds the rest: coercion of ints, Fractions and same-field scalars
(two fields are the same when their ``spec``, a ``FieldSpec``, is),
reflected subtraction, division, powers by repeated squaring, repr,
``parse`` and ``zeta_pow``.  Scalars of different fields or backends are
unequal under ==, and +, - and * on them raise TypeError.

All arithmetic is exact: arbitrary-precision integers and Fractions only.
``CycScalar.coeffs`` gives a scalar's coordinates as Fractions.

>>> F = CyclotomicField(4)
>>> (F.zeta * F.zeta) == -F.one
True
>>> PrimeField(13, 3).zeta.value
3
"""

from __future__ import annotations

import functools
import math
import operator
import re
from collections import namedtuple
from fractions import Fraction

__all__ = [
    "FieldSpec",
    "make_field",
    "CyclotomicField",
    "PrimeField",
    "CycScalar",
    "FpScalar",
    "cyclotomic_polynomial",
    "is_prime",
    "smallest_primitive_root",
]


# ---------------------------------------------------------------------------
# integer polynomial helpers; coefficient lists are lowest-degree first

def _int_polydiv(num, den):
    # den must be monic and divide num exactly
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + deg_d]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[:deg_d]):
        raise ArithmeticError("inexact polynomial division")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(r: int) -> tuple[int, ...]:
    """Coefficients of Phi_r, lowest degree first, monic.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    poly = [-1] + [0] * (r - 1) + [1]
    for d in range(1, r):
        if r % d == 0:
            poly = _int_polydiv(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for anything this package meets."""
    if m < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_factors(m: int) -> list[int]:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    facs = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in facs):
            return g
    raise ArithmeticError(f"no primitive root mod {p}")


# ---------------------------------------------------------------------------
# scalar parsing: signed sums of  c | c*z^k | z^k,  c an integer or num/den

_COEFF_TERM = re.compile(r"(\d+(?:/\d+)?)(?:\*?z(?:\^(\d+))?)?\Z")
_ZETA_TERM = re.compile(r"z(?:\^(\d+))?\Z")


def _parse_terms(text: str) -> list[tuple[Fraction, int]]:
    s = "".join(text.split())
    if not s:
        raise ValueError("empty scalar string")
    out = []
    i = 0
    while i < len(s):
        sign = 1
        while i < len(s) and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        piece = s[i:j]
        i = j
        if not piece:
            raise ValueError(f"bad scalar syntax in {text!r}")
        m = _COEFF_TERM.match(piece)
        if m:
            try:
                coeff = Fraction(m.group(1))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
            exp = int(m.group(2)) if m.group(2) else (1 if "z" in piece else 0)
        else:
            m = _ZETA_TERM.match(piece)
            if not m:
                raise ValueError(f"bad scalar term {piece!r}")
            coeff = Fraction(1)
            exp = int(m.group(1)) if m.group(1) else 1
        out.append((sign * coeff, exp))
    return out


# ---------------------------------------------------------------------------
# the shared interface

# declarative handle: which backend, which r, and p for the prime one
FieldSpec = namedtuple("FieldSpec", "kind r p", defaults=(None,))


class _Scalar:
    """What both scalar classes share, written over each backend's own +, -,
    *, inverse and ``field``.  Each subclass binds the reflected operators
    in its own class body, so a per-class method table lists all six."""

    __slots__ = ()

    def _lift(self, other):
        """other as a scalar of this field; None for a non-scalar operand."""
        if isinstance(other, self.__class__):
            if other.field is self.field or other.field.spec == self.field.spec:
                return other
            raise TypeError("scalars from different fields")
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return None

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out, base = self.field.one, self
        while k:   # square and multiply
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __repr__(self):
        return self.field.render(self)


class _Field:
    """What both fields share: the text format and the powers of zeta.  A
    field has ``spec``, ``r``, ``zero``, ``one``, ``zeta``, ``from_int`` and
    ``from_fraction``."""

    _zeta_pows = None

    def zeta_pow(self, k: int):
        zp = self._zeta_pows
        if zp is None:
            zp = [self.one]
            for _ in range(self.r - 1):
                zp.append(zp[-1] * self.zeta)
            self._zeta_pows = zp
        return zp[k % self.r]

    def parse(self, text: str):
        out = self.zero
        for coeff, exp in _parse_terms(text):
            out = out + self.from_fraction(coeff) * self.zeta_pow(exp)
        return out


# ---------------------------------------------------------------------------
# cyclotomic backend

def _canonical(field, num: tuple, den: int) -> "CycScalar":
    """num / den over field in lowest terms; den must be positive."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    return CycScalar(field, num, den)


class CycScalar(_Scalar):
    """Element of Q(zeta_r): integer numerators over one common denominator.

    The value is sum_k num[k] zeta^k / den in the power basis.  The form is
    canonical: den > 0 and gcd(den, *num) == 1, so zero is the all-zero num
    over den == 1, and two scalars are equal iff their (num, den) are.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "CyclotomicField", num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The rational coordinates num[k] / den, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        den, db = self.den, o.den
        if den == db:
            num = tuple(map(operator.add, self.num, o.num))
        else:
            num = tuple([x * db + y * den for x, y in zip(self.num, o.num)])
            den *= db
        return _canonical(self.field, num, den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        den, db = self.den, o.den
        if den == db:
            num = tuple(map(operator.sub, self.num, o.num))
        else:
            num = tuple([x * db - y * den for x, y in zip(self.num, o.num)])
            den *= db
        return _canonical(self.field, num, den)

    __rsub__ = _Scalar.__rsub__

    def __neg__(self):
        return CycScalar(self.field, tuple(map(operator.neg, self.num)), self.den)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field._mul(self, o)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        c, rest = self.num[0], self.num[1:]
        if not any(rest):
            # a rational value c / den: its inverse is den / c
            return CycScalar(self.field, (self.den if c > 0 else -self.den,) + rest, abs(c))
        return self.field._inv(self)

    def __eq__(self, other):
        # a scalar of another field or backend is unequal, through
        # NotImplemented, where +, - and * raise TypeError
        try:
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.field.r, self.num, self.den))


class CyclotomicField(_Field):
    characteristic = 0

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r
        self.spec = FieldSpec("CyclotomicRational", r)
        phi = cyclotomic_polynomial(r)
        self.degree = d = len(phi) - 1
        # integer rows for X^d .. X^(2d-2) modulo Phi_r, which is monic
        rows = []
        if d > 1:
            cur = [-c for c in phi[:d]]
            rows.append(tuple(cur))
            for _ in range(d - 2):
                top = cur[-1]
                cur = [0] + cur[:-1]
                if top:
                    cur = [a + top * b for a, b in zip(cur, rows[0])]
                rows.append(tuple(cur))
        self._red = tuple(rows)
        self._mul = {1: self._mul_one_slot, 2: self._mul_two_slots}.get(d, self._mul_conv)
        self.zero = CycScalar(self, (0,) * d)
        self.one = self.from_int(1)
        if d == 1:
            # Phi linear: X is congruent to -phi[0]
            self.zeta = self.from_int(-phi[0])
        else:
            self.zeta = CycScalar(self, (0, 1) + (0,) * (d - 2))

    # -- construction ------------------------------------------------------
    def from_fraction(self, f) -> CycScalar:
        f = Fraction(f)
        return CycScalar(self, (f.numerator,) + (0,) * (self.degree - 1), f.denominator)

    def from_int(self, k: int) -> CycScalar:
        return CycScalar(self, (k,) + (0,) * (self.degree - 1))

    # -- arithmetic core ---------------------------------------------------
    # one product kernel per field, picked by degree: Q (r = 1, 2) has one
    # slot, Q(zeta_r) for r = 3, 4, 6 two, and the rest take the general
    # convolution; each reduces with the integer rows of _red

    def _mul_one_slot(self, a: CycScalar, b: CycScalar) -> CycScalar:
        c, den = a.num[0] * b.num[0], a.den * b.den
        if den != 1:
            g = math.gcd(c, den)
            if g != 1:
                c //= g
                den //= g
        return CycScalar(self, (c,), den)

    def _mul_two_slots(self, a: CycScalar, b: CycScalar) -> CycScalar:
        a0, a1 = a.num
        b0, b1 = b.num
        top = a1 * b1
        r0, r1 = self._red[0]
        c0, c1 = a0 * b0 + top * r0, a0 * b1 + a1 * b0 + top * r1
        den = a.den * b.den
        if den != 1:
            g = math.gcd(c0, c1, den)
            if g != 1:
                c0 //= g
                c1 //= g
                den //= g
        return CycScalar(self, (c0, c1), den)

    def _mul_conv(self, a: CycScalar, b: CycScalar) -> CycScalar:
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, ai in enumerate(a.num):
            if ai:
                for j, bj in enumerate(b.num):
                    conv[i + j] += ai * bj
        out = conv[:d]
        for row, ck in zip(self._red, conv[d:]):
            if ck:
                for m, rc in enumerate(row):
                    out[m] += ck * rc
        return _canonical(self, tuple(out), a.den * b.den)

    def _inv(self, a: CycScalar) -> CycScalar:
        """a^-1 = (product of the other Galois conjugates of a) / N(a).

        sigma_k sends zeta to zeta^k for k prime to r, and the norm N(a), the
        product of all conjugates, is a nonzero rational for a != 0, so
        everything stays in integer numerators.
        """
        zp = [self.zeta_pow(j).num for j in range(self.r)]
        rest = self.one
        for k in range(2, self.r):
            if math.gcd(k, self.r) == 1:
                conj = [0] * self.degree
                for j, c in enumerate(a.num):
                    if c:
                        for m, z in enumerate(zp[j * k % self.r]):
                            conj[m] += c * z
                rest = self._mul(rest, _canonical(self, tuple(conj), a.den))
        norm = self._mul(a, rest)
        return self._mul(rest, norm.inverse())

    # -- text format ---------------------------------------------------
    def render(self, s: CycScalar) -> str:
        pieces = []
        for k, c in enumerate(s.coeffs):
            if not c:
                continue
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = f"z^{k}"
            else:
                body = f"{mag}*z^{k}"
            pieces.append((neg, body))
        if not pieces:
            return "0"
        first_neg, first = pieces[0]
        text = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __repr__(self):
        return f"CyclotomicField({self.r})"


# ---------------------------------------------------------------------------
# prime field backend

class _Memo(dict):
    """A dict that builds a missing entry with ``build(key)`` and keeps it,
    up to ``cap`` entries; past that, a new entry is built and not kept, so
    the dict never outgrows ``cap`` however many keys a process meets."""

    __slots__ = ("build", "cap")

    def __init__(self, build, cap: int):
        super().__init__()
        self.build = build
        self.cap = cap

    def __missing__(self, key):
        got = self.build(key)
        if len(self) < self.cap:
            self[key] = got
        return got


class FpScalar(_Scalar):
    """Residue in F_p.

    A field keeps one interned scalar per residue it has met, up to
    ``PrimeField.MEMO_CAP`` of them (``PrimeField._at``), and every result is
    looked up there, so an operation between two scalars of the same field
    object is one integer operation and one dict lookup.  Any other operand
    goes through ``_lift``.
    """

    __slots__ = ("field", "value")

    def __init__(self, field: "PrimeField", value: int):
        self.field = field
        self.value = value

    def is_zero(self) -> bool:
        return self.value == 0

    def __add__(self, other):
        f = self.field
        if other.__class__ is not FpScalar or other.field is not f:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return f._at[(self.value + other.value) % f.p]

    __radd__ = __add__

    def __sub__(self, other):
        f = self.field
        if other.__class__ is not FpScalar or other.field is not f:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return f._at[(self.value - other.value) % f.p]

    __rsub__ = _Scalar.__rsub__

    def __neg__(self):
        f = self.field
        return f._at[-self.value % f.p]

    def __mul__(self, other):
        f = self.field
        if other.__class__ is not FpScalar or other.field is not f:
            other = self._lift(other)
            if other is None:
                return NotImplemented
        return f._at[self.value * other.value % f.p]

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("scalar inverse of zero")
        return self.field._inv[self.value]

    def __eq__(self, other):
        try:   # as CycScalar.__eq__
            o = self._lift(other)
        except TypeError:
            return NotImplemented
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash(("fp", self.field.p, self.value))


class PrimeField(_Field):
    MEMO_CAP = 1 << 12

    def __init__(self, p: int, r: int):
        # the primitive root comes from trial division of p - 1, about
        # sqrt(p) steps, so p is capped before any other work
        if p >= 1 << 40:
            raise ValueError(f"p = {p} is too large (need p < 2^40)")
        if r < 1:
            raise ValueError("r must be >= 1")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if (p - 1) % r != 0:
            raise ValueError(f"p = {p} is not congruent to 1 mod r = {r}")
        self.p = p
        self.r = r
        self.spec = FieldSpec("PrimeField", r, p)
        self.characteristic = p
        g = smallest_primitive_root(p)
        z = pow(g, (p - 1) // r, p)
        # the construction forces exact multiplicative order r
        assert pow(z, r, p) == 1
        assert all(pow(z, r // f, p) != 1 for f in _prime_factors(r))
        # residue -> its one scalar, and value -> inverse scalar, each filled
        # on first use and holding at most MEMO_CAP entries: every residue
        # of a small p is kept, and a large p keeps only the first residues
        # it meets (the verdicts over fp:1000003 meet fewer than 200)
        self._at = _Memo(functools.partial(FpScalar, self), self.MEMO_CAP)
        self._inv = _Memo(self._inverse, self.MEMO_CAP)
        self.zero = self._at[0]
        self.one = self._at[1]
        self.zeta = self._at[z]

    def _inverse(self, v: int) -> FpScalar:
        return self._at[pow(v, self.p - 2, self.p)]

    def from_int(self, k: int) -> FpScalar:
        return self._at[k % self.p]

    def from_fraction(self, f) -> FpScalar:
        f = Fraction(f)
        if f.denominator % self.p == 0:
            raise ValueError(f"denominator divisible by p = {self.p}")
        den_inv = pow(f.denominator % self.p, self.p - 2, self.p)
        return self._at[f.numerator * den_inv % self.p]

    def render(self, s: FpScalar) -> str:
        return str(s.value)

    def __repr__(self):
        return f"PrimeField({self.p}, r={self.r})"


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def make_field(spec: FieldSpec):
    if spec.kind == "CyclotomicRational":
        if spec.p is not None:
            raise ValueError("CyclotomicRational takes no p")
        return CyclotomicField(spec.r)
    if spec.kind == "PrimeField":
        if spec.p is None:
            raise ValueError("PrimeField requires p")
        return PrimeField(spec.p, spec.r)
    raise ValueError(f"unknown field kind {spec.kind!r}")


if __name__ == "__main__":
    import doctest

    doctest.testmod()
