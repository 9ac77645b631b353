import doctest
import math
import pickle
import random
from fractions import Fraction

import pytest

from yoklab import scalars
from yoklab.scalars import (
    CyclotomicField,
    FieldSpec,
    PrimeField,
    cyclotomic_polynomial,
    is_prime,
    make_field,
    smallest_primitive_root,
)

import _helpers as H


def test_doctests():
    failed, _ = doctest.testmod(scalars)
    assert failed == 0


def test_cyclotomic_polynomials_frozen():
    # lowest-degree coefficient first
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_product_identity():
    # prod over d | r of Phi_d = x^r - 1, checked by exact polynomial product
    for r in range(1, 13):
        prod = [1]
        for d in range(1, r + 1):
            if r % d:
                continue
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expect = [-1] + [0] * (r - 1) + [1]
        assert prod == expect


def test_is_prime_against_sieve():
    limit = 500
    sieve = [True] * (limit + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, limit + 1):
        if sieve[i]:
            for j in range(i * i, limit + 1, i):
                sieve[j] = False
    for m in range(limit + 1):
        assert is_prime(m) == sieve[m], m
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)


def test_smallest_primitive_root_is_primitive():
    for p in (2, 3, 5, 13, 17, 97):
        g = smallest_primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1
        # smallest: no smaller candidate generates the full group
        for cand in range(1, g):
            seen = set()
            x = 1
            for _ in range(p - 1):
                x = x * cand % p
                seen.add(x)
            assert len(seen) < p - 1


def test_cyclotomic_basics():
    f = CyclotomicField(4)
    assert f.degree == 2
    z = f.zeta
    assert z * z == -f.one
    assert z ** 4 == f.one
    assert (z ** 3) * z == f.one
    f6 = CyclotomicField(6)
    # zeta_6 satisfies z^2 = z - 1
    assert f6.zeta * f6.zeta == f6.zeta - f6.one


def test_parse_render_frozen():
    f = CyclotomicField(5)
    s = f.parse("1/2*z^2 - 1")
    assert s.coeffs == (Fraction(-1), Fraction(0), Fraction(1, 2), Fraction(0))
    assert f.parse(f.render(s)) == s
    assert f.render(f.zero) == "0"
    assert f.render(f.one) == "1"
    assert f.parse("z^5") == f.one
    with pytest.raises(ValueError):
        f.parse("1/0")
    with pytest.raises(ValueError):
        f.parse("bogus + z")


def test_parse_render_roundtrip_random():
    rng = random.Random(11)
    for r in (1, 2, 3, 4, 6):
        f = CyclotomicField(r)
        for _ in range(25):
            coeffs = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(f.degree))
            s = f.zero
            for k, c in enumerate(coeffs):
                s = s + f.from_fraction(c) * f.zeta_pow(k)
            assert f.parse(f.render(s)) == s


def test_division_exact():
    rng = random.Random(12)
    for r in (2, 3, 4):
        f = CyclotomicField(r)
        for _ in range(40):
            a = f.from_int(rng.randint(-20, 20)) + f.zeta_pow(rng.randrange(r))
            b = f.from_int(rng.randint(1, 20)) + f.zeta_pow(rng.randrange(r))
            if b.is_zero():
                continue
            assert (a / b) * b == a
            assert b * b.inverse() == f.one
    with pytest.raises(ZeroDivisionError):
        CyclotomicField(3).one.inverse() / CyclotomicField(3).zero


def test_prime_field_basics():
    f = PrimeField(13, 3)
    assert f.zeta.value == 3
    assert f.zeta ** 3 == f.one
    assert f.zeta != f.one
    assert f.from_fraction(Fraction(1, 2)).value == 7
    assert f.parse("-1") == -f.one
    assert f.parse(f.render(f.zeta_pow(2))) == f.zeta_pow(2)
    # zeta order is exactly r for each supported r at p = 13
    for r in (1, 2, 3, 4):
        g = PrimeField(13, r)
        powers = {int((g.zeta ** k).value) for k in range(1, r)}
        assert int((g.zeta ** r).value) == 1
        assert 1 not in powers


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(9, 2)      # not prime
    with pytest.raises(ValueError):
        PrimeField(7, 4)      # 7 - 1 not divisible by 4
    PrimeField(7, 3)          # fine: 7 = 1 mod 3


def test_prime_field_rejects_p_past_two_to_the_40():
    # the primitive-root search costs about sqrt(p), so a large p is
    # refused before any of it: a 31-digit prime, the first prime past 2^40
    for p in (1000000000000000000000000000057, 1099511627791):
        assert is_prime(p)
        with pytest.raises(ValueError, match=r"2\^40"):
            PrimeField(p, 2)
    with pytest.raises(ValueError, match=r"2\^40"):
        PrimeField(1 << 40, 2)
    assert PrimeField(1099511627689, 4).p == 1099511627689   # the last one below


def test_field_spec_fields():
    assert FieldSpec._fields == ("kind", "r", "p")
    assert FieldSpec("CyclotomicRational", 3).p is None
    assert FieldSpec("PrimeField", 3, 13) == FieldSpec(kind="PrimeField", r=3, p=13)
    assert FieldSpec("CyclotomicRational", 3) == FieldSpec(r=3, kind="CyclotomicRational")
    assert hash(FieldSpec("PrimeField", 3, 13)) == hash(FieldSpec(p=13, r=3, kind="PrimeField"))
    assert PrimeField(13, 3).spec == FieldSpec("PrimeField", 3, 13)
    assert CyclotomicField(3).spec == FieldSpec("CyclotomicRational", 3)


def test_cross_field_mixing_rejected():
    a = CyclotomicField(2).one
    b = PrimeField(13, 2).one
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b


def test_make_field_cached():
    s1 = make_field(FieldSpec("CyclotomicRational", 3))
    s2 = make_field(FieldSpec("CyclotomicRational", 3))
    assert s1 is s2
    s3 = make_field(FieldSpec("PrimeField", 3, 13))
    assert s3.characteristic == 13
    assert s1.characteristic == 0
    with pytest.raises(ValueError):
        make_field(FieldSpec("PrimeField", 3))


def test_scalar_hashable_and_usable_in_sets():
    f = H.field(H.CYC, 4)
    assert len({f.one, f.from_int(1), f.zeta}) == 2


def _canonical(x) -> bool:
    """Integer numerators over a positive denominator in lowest terms."""
    return (len(x.num) == x.field.degree and all(type(c) is int for c in x.num)
            and type(x.den) is int and x.den > 0 and math.gcd(x.den, *x.num) == 1)


def _operand(rng, f, o):
    """One value built the same way in the field f and in its oracle o."""
    shape = rng.choice(("zero", "unit", "zeta", "mixed", "large"))
    if shape == "zero":
        return f.zero, o.zero
    if shape in ("unit", "zeta"):
        k, sign = rng.randrange(f.r), rng.choice((-1, 1))
        if shape == "unit":
            k = 0
        return f.from_int(sign) * f.zeta_pow(k), o.from_int(sign) * o.zeta_pow(k)
    if shape == "mixed":
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(f.degree)]
    else:
        coeffs = [Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 12))
                  for _ in range(f.degree)]
    x, y = f.zero, o.zero
    for k, c in enumerate(coeffs):
        x = x + f.from_fraction(c) * f.zeta_pow(k)
        y = y + o.from_fraction(c) * o.zeta_pow(k)
    return x, y


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 8])
def test_field_axioms_against_fraction_oracle(r):
    # the integer-numerator scalars against the Fraction-tuple oracle on
    # seeded operands: every result has the oracle's coordinates, is
    # canonical, renders to the oracle's text and parses back to itself
    rng = random.Random(f"cyc-oracle-{r}")
    f, o = CyclotomicField(r), H.FractionCyclotomicField(r)

    def agree(x, y):
        assert _canonical(x), (x.num, x.den)
        assert x.coeffs == y.coeffs
        text = f.render(x)
        assert text == o.render(y)
        assert f.parse(text) == x
        assert hash(f.parse(text)) == hash(x)

    for _ in range(60):
        (a, a_), (b, b_) = _operand(rng, f, o), _operand(rng, f, o)
        agree(a, a_)
        for x, y in ((a + b, a_ + b_), (a - b, a_ - b_), (a * b, a_ * b_), (-a, -a_),
                     (a ** 3, a_ ** 3), (a + 2, a_ + 2), (3 - a, 3 - a_),
                     (a * Fraction(-5, 7), a_ * Fraction(-5, 7))):
            agree(x, y)
        if not b.is_zero():
            for x, y in ((b.inverse(), b_.inverse()), (a / b, a_ / b_),
                         (b ** -2, b_ ** -2), (1 / b, 1 / b_)):
                agree(x, y)
        assert (a == b) == (a_ == b_)
        assert (a - b).is_zero() == (a == b)
        if a == b:
            assert hash(a) == hash(b)


@pytest.mark.parametrize("p", [7, 13])
def test_prime_field_results_are_interned(p):
    # every result is the field's one scalar for its residue
    f = PrimeField(p, 3)
    at = f._at
    for a in range(p):
        x = f.from_int(a)
        assert x is at[a]
        assert -x is at[-a % p]
        assert x ** 3 is at[pow(a, 3, p)]
        assert f.parse(str(a)) is at[a]
        if a:
            assert x.inverse() is at[pow(a, p - 2, p)]
            assert x.inverse() is x.inverse()
        for b in range(p):
            y = f.from_int(b)
            assert x + y is at[(a + b) % p]
            assert x - y is at[(a - b) % p]
            assert x * y is at[a * b % p]
    assert f.zero is at[0] and f.one is at[1] and f.zeta is at[f.zeta.value]
    assert f.zeta_pow(2) is at[f.zeta.value ** 2 % p]
    assert f.from_fraction(Fraction(1, 2)) is at[(p + 1) // 2]


def test_prime_field_operands_from_another_build_combine():
    f, g = PrimeField(13, 3), PrimeField(13, 3)
    x, y = f.from_int(5), g.from_int(9)
    assert x + y == f.one and x - y == f.from_int(9)
    assert x * y == f.from_int(6) and y * x == g.from_int(6)
    assert (x + y).field is f and (y + x).field is g
    assert x == g.from_int(5) and hash(x) == hash(g.from_int(5))
    assert x + 8 is f.zero and 8 - x is f.from_int(3) and 2 * x is f.from_int(10)
    assert x * Fraction(1, 5) is f.one
    # a pickled field is a separate build too
    z = pickle.loads(pickle.dumps(x))
    assert z.field is not f and z + x == f.from_int(10) and z.inverse() == x.inverse()


def test_prime_fields_of_another_p_do_not_mix():
    x, y = PrimeField(13, 3).one, PrimeField(7, 3).one
    for op in ("__add__", "__sub__", "__mul__", "__truediv__"):
        with pytest.raises(TypeError):
            getattr(x, op)(y)
    # == answers False instead, through NotImplemented
    assert x.__eq__(y) is NotImplemented


@pytest.mark.parametrize("x,y", [
    (PrimeField(13, 3).one, PrimeField(7, 3).one),
    (CyclotomicField(2).one, PrimeField(13, 2).one),
    (CyclotomicField(2).one, CyclotomicField(3).one),
], ids=["fp13-fp7", "cyc-fp", "cyc2-cyc3"])
def test_equality_across_fields_answers_false(x, y):
    for a, b in ((x, y), (y, x)):
        assert (a == b) is False
        assert (a != b) is True
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        with pytest.raises(TypeError):
            a * b


@pytest.mark.parametrize("f", [CyclotomicField(3), PrimeField(13, 3), CyclotomicField(4)],
                         ids=["cyc3", "fp13", "cyc4"])
def test_power_matches_repeated_products(f):
    for x in (f.zeta, f.zeta + 2, f.from_fraction(Fraction(-2, 3)), f.one, f.zero):
        prod = f.one
        for k in range(41):
            assert x ** k == prod, (x, k)
            if not x.is_zero():
                assert x ** -k == prod.inverse(), (x, -k)
            prod = prod * x


@pytest.mark.parametrize("f", [CyclotomicField(3), PrimeField(13, 3)], ids=["cyc3", "fp13"])
def test_huge_power_is_square_and_multiply(monkeypatch, f):
    # k = 10**6 has 20 bits, so square and multiply forms at most 40
    # products per power, where a plain loop forms k of them
    cls, calls = type(f.one), []
    mul = cls.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(cls, "__mul__", counted)
    k = 10 ** 6
    assert f.zeta ** k == f.zeta_pow(k)
    assert f.zeta ** -k == f.zeta_pow(-k)
    assert len(calls) <= 2 * 2 * k.bit_length()


def test_prime_field_inverse_of_zero_raises():
    f = PrimeField(13, 3)
    with pytest.raises(ZeroDivisionError):
        f.zero.inverse()
    with pytest.raises(ZeroDivisionError):
        f.one / f.zero
    with pytest.raises(ZeroDivisionError):
        f.zero ** -1


def test_large_prime_field_builds_only_residues_met():
    p = 1000003
    f = PrimeField(p, 3)
    rng = random.Random(5)
    met = {0, 1, f.zeta.value}
    x = f.one
    for _ in range(300):
        k = rng.randrange(1, p)
        y = f.from_int(k)
        x = x * y + y
        met |= {k, x.value, (x - y).value}
        if not x.is_zero():
            met.add(x.inverse().value)
    assert set(f._at) <= met
    assert len(f._at) <= 1300 and len(f._inv) <= 300


def test_prime_field_tables_stop_at_the_cap(monkeypatch):
    # past MEMO_CAP entries a result is built and not kept, so the tables
    # stay bounded however many residues a large p meets
    monkeypatch.setattr(PrimeField, "MEMO_CAP", 40)
    p = 1000003
    f = PrimeField(p, 3)
    rng = random.Random(7)
    x, v = f.one, 1
    for _ in range(300):
        k = rng.randrange(1, p)
        y = f.from_int(k)
        x, v = x * y + y, (v * k + k) % p
        assert x.value == v and (x - y).value == (v - k) % p
        if v:
            assert (x.inverse() * x) is f.one
    assert len(f._at) == 40 and len(f._inv) <= 40
    k = next(k for k in range(2, p) if k not in f._at)
    y = f.from_int(k)
    assert y.value == k and y == f.from_int(k) and y is not f.from_int(k)
    assert len(f._at) == 40
