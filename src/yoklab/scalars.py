"""Exact coefficient fields carrying a primitive r-th root of unity.

Two interchangeable backends:

* ``CyclotomicField(r)``: the field Q(zeta_r), realized as Q[X] modulo the
  r-th cyclotomic polynomial Phi_r.  A scalar is a vector of rationals in the
  power basis 1, X, ..., X^(phi(r)-1), and the root of unity is the class of
  X.  Reduction is modulo Phi_r, not X^r - 1, so the quotient is a genuine
  field and row reduction can divide freely.
* ``PrimeField(p, r)``: residues mod a prime p with p = 1 (mod r).  The root
  of unity is g^((p-1)/r) where g is the smallest primitive root mod p, a
  deterministic choice.

All arithmetic is exact: arbitrary-precision integers and Fractions only.

>>> F = CyclotomicField(4)
>>> (F.zeta * F.zeta) == -F.one
True
>>> PrimeField(13, 3).zeta.value
3
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
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
# cyclotomic backend

class CycScalar:
    """Element of Q(zeta_r): rational coordinates in the power basis."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "CyclotomicField", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _lift(self, other):
        if isinstance(other, CycScalar):
            if other.field is self.field or other.field.r == self.field.r:
                return other
            raise TypeError("scalars from different fields")
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(Fraction(other))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return CycScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return CycScalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field._mul(self, o)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        return self.field._inv(self)

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
        out = self.field.one
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("cyc", self.field.r, self.coeffs))

    def __repr__(self):
        return self.field.render(self)


class CyclotomicField:
    kind = "CyclotomicRational"
    characteristic = 0

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r
        phi = cyclotomic_polynomial(r)
        self.degree = d = len(phi) - 1
        self._phi = phi
        # reduction rows for X^d .. X^(2d-2) modulo Phi_r
        rows = []
        if d > 1:
            cur = [Fraction(-c) for c in phi[:d]]
            rows.append(tuple(cur))
            for _ in range(d - 2):
                top = cur[-1]
                cur = [Fraction(0)] + cur[:-1]
                if top:
                    cur = [a + top * b for a, b in zip(cur, rows[0])]
                rows.append(tuple(cur))
        self._red = tuple(rows)
        self.zero = CycScalar(self, (Fraction(0),) * d)
        one = [Fraction(0)] * d
        one[0] = Fraction(1)
        self.one = CycScalar(self, tuple(one))
        if d == 1:
            # Phi linear: X is congruent to -phi[0]
            self.zeta = self.from_fraction(Fraction(-phi[0]))
        else:
            z = [Fraction(0)] * d
            z[1] = Fraction(1)
            self.zeta = CycScalar(self, tuple(z))
        self._zeta_pows = None

    # -- construction ------------------------------------------------------
    def from_fraction(self, f) -> CycScalar:
        f = Fraction(f)
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = f
        return CycScalar(self, tuple(coeffs))

    def from_int(self, k: int) -> CycScalar:
        return self.from_fraction(Fraction(k))

    def zeta_pow(self, k: int) -> CycScalar:
        if self._zeta_pows is None:
            zp = [self.one]
            for _ in range(self.r - 1):
                zp.append(self._mul(zp[-1], self.zeta))
            self._zeta_pows = zp
        return self._zeta_pows[k % self.r]

    # -- arithmetic core ---------------------------------------------------
    def _mul(self, a: CycScalar, b: CycScalar) -> CycScalar:
        d = self.degree
        if d == 1:
            return CycScalar(self, (a.coeffs[0] * b.coeffs[0],))
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                row = self._red[k - d]
                out = [o + ck * rc for o, rc in zip(out, row)]
        return CycScalar(self, tuple(out))

    def _inv(self, a: CycScalar) -> CycScalar:
        d = self.degree
        if d == 1:
            return CycScalar(self, (1 / a.coeffs[0],))
        # extended euclid of a against Phi_r in Q[X]
        def strip(p):
            while len(p) > 1 and p[-1] == 0:
                p = p[:-1]
            return p

        def polydivmod(num, den):
            num = list(num)
            q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
            for k in range(len(num) - len(den), -1, -1):
                c = num[k + len(den) - 1] / den[-1]
                q[k] = c
                if c:
                    for j, dj in enumerate(den):
                        num[k + j] -= c * dj
            return q, strip(num[: len(den) - 1] or [Fraction(0)])

        r0 = [Fraction(c) for c in self._phi]
        r1 = strip(list(a.coeffs))
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, rem = polydivmod(r0, r1)
            r0, r1 = r1, rem
            # t_new = t0 - q*t1
            prod = [Fraction(0)] * (len(q) + len(t1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, tj in enumerate(t1):
                        prod[i + j] += qi * tj
            width = max(len(t0), len(prod))
            t_new = [(t0[i] if i < len(t0) else 0) - (prod[i] if i < len(prod) else 0)
                     for i in range(width)]
            t0, t1 = t1, strip(t_new)
        c = r1[0]
        if c == 0:
            raise ZeroDivisionError("scalar inverse of zero")
        inv = [ti / c for ti in t1]
        inv = (inv + [Fraction(0)] * d)[:d]
        return CycScalar(self, tuple(inv))

    # -- text format ---------------------------------------------------
    def parse(self, text: str) -> CycScalar:
        out = self.zero
        for coeff, exp in _parse_terms(text):
            out = out + self.from_fraction(coeff) * self.zeta_pow(exp)
        return out

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

class FpScalar:
    """Residue in F_p."""

    __slots__ = ("field", "value")

    def __init__(self, field: "PrimeField", value: int):
        self.field = field
        self.value = value

    def is_zero(self) -> bool:
        return self.value == 0

    def _lift(self, other):
        if isinstance(other, FpScalar):
            if other.field is self.field or (other.field.p == self.field.p
                                             and other.field.r == self.field.r):
                return other
            raise TypeError("scalars from different fields")
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpScalar(self.field, (self.value + o.value) % self.field.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpScalar(self.field, (self.value - o.value) % self.field.p)

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FpScalar(self.field, -self.value % self.field.p)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FpScalar(self.field, self.value * o.value % self.field.p)

    __rmul__ = __mul__

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("scalar inverse of zero")
        return FpScalar(self.field, pow(self.value, self.field.p - 2, self.field.p))

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
        return FpScalar(self.field, pow(self.value, k, self.field.p))

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.value == o.value

    def __hash__(self):
        return hash(("fp", self.field.p, self.value))

    def __repr__(self):
        return str(self.value)


class PrimeField:
    kind = "PrimeField"

    def __init__(self, p: int, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if (p - 1) % r != 0:
            raise ValueError(f"p = {p} is not congruent to 1 mod r = {r}")
        self.p = p
        self.r = r
        self.characteristic = p
        g = smallest_primitive_root(p)
        z = pow(g, (p - 1) // r, p)
        # the construction forces exact multiplicative order r
        assert pow(z, r, p) == 1
        assert all(pow(z, r // f, p) != 1 for f in _prime_factors(r))
        self.zero = FpScalar(self, 0)
        self.one = FpScalar(self, 1)
        self.zeta = FpScalar(self, z)
        self._zeta_pows = None

    def from_int(self, k: int) -> FpScalar:
        return FpScalar(self, k % self.p)

    def from_fraction(self, f) -> FpScalar:
        f = Fraction(f)
        if f.denominator % self.p == 0:
            raise ValueError(f"denominator divisible by p = {self.p}")
        den_inv = pow(f.denominator % self.p, self.p - 2, self.p)
        return FpScalar(self, f.numerator * den_inv % self.p)

    def zeta_pow(self, k: int) -> FpScalar:
        if self._zeta_pows is None:
            self._zeta_pows = [FpScalar(self, pow(self.zeta.value, j, self.p))
                               for j in range(self.r)]
        return self._zeta_pows[k % self.r]

    def parse(self, text: str) -> FpScalar:
        out = self.zero
        for coeff, exp in _parse_terms(text):
            out = out + self.from_fraction(coeff) * self.zeta_pow(exp)
        return out

    def render(self, s: FpScalar) -> str:
        return str(s.value)

    def __repr__(self):
        return f"PrimeField({self.p}, r={self.r})"


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """Declarative handle: which backend, which r, and p for the prime one."""

    kind: str
    r: int
    p: int | None = None


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
