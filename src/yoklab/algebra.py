"""The sparse-algebra protocol shared by the Y, AKS and nil engines.

An engine subclasses ``SparseAlgebra`` and supplies

* ``bases``: its basis tags, each mapped to the name of the key vector in
  element JSON.  The first tag is the default basis.  A vector named "a"
  holds torus exponents in 0..r-1, any other name colors in 1..r;
* ``mul_basis``: the tag that ``mul_terms`` works in;
* ``mul_terms(x, y)``: the product of two term dicts in ``mul_basis``;
* its generator maps, ``lmul_gen_maps`` and ``rmul_gen_maps``;
* ``convert(terms, basis)``, only when it has two bases (Y's T <-> E).

Everything else is shared: the element class, the construction preamble,
the unit, random elements and the element JSON codec.  Keys are pairs
(vector, permutation) and stored coefficients are never zero.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import symgroup as sg
from .exactla import _acc
from .scalars import FieldSpec, make_field

__all__ = ["SparseAlgebra", "SparseElement", "element_json_terms"]


def element_json_terms(obj, r: int, n: int, vec_names: dict) -> tuple[str, list]:
    """Validate an element's JSON form; return (basis, [(vector, w, coeff)]).

    vec_names maps each accepted basis tag to the name of its vector field.
    Every malformed piece raises ValueError: a non-object element or term,
    a vector that is not n integers, a w that is not a permutation, a
    non-string coeff.
    """
    if not isinstance(obj, dict):
        raise ValueError("an element must be a JSON object")
    basis = obj.get("basis")
    if not isinstance(basis, str) or basis not in vec_names:
        raise ValueError(f"unknown basis tag {basis!r}")
    if obj.get("r", r) != r or obj.get("n", n) != n:
        raise ValueError("element parameters do not match this algebra")
    items = obj.get("terms")
    if not isinstance(items, list):
        raise ValueError("'terms' must be a list")
    out = []
    for item in items:
        if not isinstance(item, dict):
            raise ValueError("each term must be a JSON object")
        vec = _json_vector(item, vec_names[basis], n)
        w = _json_vector(item, "w", n)
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation: {w}")
        coeff = item.get("coeff")
        if not isinstance(coeff, str):
            raise ValueError("'coeff' must be a string")
        out.append((vec, w, coeff))
    return basis, out


def _json_vector(item: dict, name: str, n: int) -> tuple:
    vec = item.get(name)
    # bool is an int subclass, but JSON true/false is no vector entry
    if not (isinstance(vec, list) and len(vec) == n
            and all(type(x) is int for x in vec)):
        raise ValueError(f"{name!r} must be a list of {n} integers")
    return tuple(vec)


class SparseAlgebra:
    """One (r, n, field) instance of an engine: the shared preamble and the
    parts of the protocol that do not depend on the multiplication rule."""

    bases: dict = {}
    mul_basis = ""

    def __init__(self, r: int, n: int, field=None):
        if r < 1 or n < 1:
            raise ValueError("need r >= 1 and n >= 1")
        if field is None:
            field = make_field(FieldSpec("CyclotomicRational", r))
        if field.r != r:
            raise ValueError(f"field carries r = {field.r}, algebra wants r = {r}")
        self.r = r
        self.n = n
        self.field = field
        self.perms = sg.all_permutations(n)
        self.ident = sg.identity(n)
        self.w0 = sg.longest_element(n)
        self._len = {w: sg.length(w) for w in self.perms}
        self._inv = {w: sg.inverse(w) for w in self.perms}
        self._rword = {w: sg.reduced_word(w) for w in self.perms}
        self.colors = [tuple(c) for c in itertools.product(range(1, r + 1), repeat=n)]
        self.exponents = [tuple(a) for a in itertools.product(range(r), repeat=n)]

    def _set_q(self, q) -> None:
        """The deformation scalar q (default 0) and q - 1."""
        if q is None:
            q = self.field.zero
        elif isinstance(q, (int, Fraction)):
            q = self.field.from_fraction(Fraction(q))
        self.q = q
        self.qm1 = q - self.field.one

    @property
    def dimension(self) -> int:
        return self.r ** self.n * math.factorial(self.n)

    def _basis(self, basis) -> str:
        """basis checked against this engine's tags; None is the default."""
        if basis is None:
            return next(iter(self.bases))
        if basis not in self.bases:
            raise ValueError(f"unknown basis {basis!r} for {self!r}")
        return basis

    # -- elements ------------------------------------------------------------

    def element(self, terms: dict, basis=None) -> "SparseElement":
        return SparseElement(self, self._basis(basis),
                             {k: v for k, v in terms.items() if not v.is_zero()})

    def zero(self, basis=None) -> "SparseElement":
        return SparseElement(self, self._basis(basis), {})

    def one(self, basis=None) -> "SparseElement":
        """t^0 g_1 in an exponent basis, sum_chi E_chi g_1 in a color basis."""
        basis = self._basis(basis)
        vecs = [(0,) * self.n] if self.bases[basis] == "a" else self.colors
        return SparseElement(self, basis, {(v, self.ident): self.field.one for v in vecs})

    def random_element(self, rng, nterms: int = 4, basis=None) -> "SparseElement":
        """Up to nterms random monomials of mul_basis, written in basis
        (mul_basis by default)."""
        vecs = self.exponents if self.bases[self.mul_basis] == "a" else self.colors
        keys = [(v, w) for v in vecs for w in self.perms]
        terms: dict = {}
        while not terms:
            for _ in range(nterms):
                key = keys[rng.randrange(len(keys))]
                c = rng.randint(-4, 4)
                if c == 0:
                    continue
                _acc(terms, key,
                     self.field.from_int(c) * self.field.zeta_pow(rng.randrange(self.r)))
        return SparseElement(self, self.mul_basis, terms).in_basis(basis or self.mul_basis)

    def all_generator_maps(self):
        return self.lmul_gen_maps() + self.rmul_gen_maps()

    # -- element JSON ----------------------------------------------------------

    def element_to_json(self, x: "SparseElement") -> dict:
        vec_name = self.bases[x.basis]
        render = self.field.render
        items = [{vec_name: list(vec), "w": list(w), "coeff": render(c)}
                 for (vec, w), c in sorted(x.terms.items())]
        return {"basis": x.basis, "r": self.r, "n": self.n, "terms": items}

    def element_from_json(self, obj: dict) -> "SparseElement":
        basis, items = element_json_terms(obj, self.r, self.n, self.bases)
        exponents = self.bases[basis] == "a"
        terms: dict = {}
        for vec, w, coeff in items:
            if exponents:
                vec = tuple(x % self.r for x in vec)
            elif not all(1 <= x <= self.r for x in vec):
                raise ValueError(f"color entries must lie in 1..{self.r}")
            _acc(terms, (vec, w), self.field.parse(coeff))
        return SparseElement(self, basis, terms)


class SparseElement:
    """Element of a fixed engine instance, tagged with the basis its terms
    are written in.  Products run in the engine's mul_basis and come back
    in the left factor's basis; sums come back in the left summand's."""

    __slots__ = ("alg", "basis", "terms")

    def __init__(self, alg: SparseAlgebra, basis: str, terms: dict):
        self.alg = alg
        self.basis = basis
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def in_basis(self, basis: str) -> "SparseElement":
        if basis == self.basis:
            return self
        return SparseElement(self.alg, self.alg._basis(basis),
                             self.alg.convert(self.terms, basis))

    def as_E(self) -> "SparseElement":
        return self.in_basis("E")

    def as_T(self) -> "SparseElement":
        return self.in_basis("T")

    def coeff(self, key, basis: str | None = None):
        src = self if basis is None else self.in_basis(basis)
        return src.terms.get(key, self.alg.field.zero)

    def _check_mate(self, other):
        if other.alg is not self.alg:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        self._check_mate(other)
        out = dict(self.terms)
        for k, v in other.in_basis(self.basis).terms.items():
            _acc(out, k, v)
        return SparseElement(self.alg, self.basis, out)

    def __sub__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SparseElement(self.alg, self.basis, {k: -v for k, v in self.terms.items()})

    def _scaled(self, other):
        """self times the scalar other, or NotImplemented for a non-scalar."""
        if isinstance(other, (int, Fraction)):
            other = self.alg.field.from_fraction(Fraction(other))
        elif not (hasattr(other, "is_zero") and hasattr(other, "field")):
            return NotImplemented
        if other.is_zero():
            return SparseElement(self.alg, self.basis, {})
        return SparseElement(self.alg, self.basis, {k: other * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, SparseElement):
            return self._scaled(other)
        self._check_mate(other)
        alg, mb = self.alg, self.alg.mul_basis
        prod = alg.mul_terms(self.in_basis(mb).terms, other.in_basis(mb).terms)
        return SparseElement(alg, mb, prod).in_basis(self.basis)

    __rmul__ = _scaled

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        out = self.alg.one(self.basis)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, SparseElement):
            return NotImplemented
        if other.alg is not self.alg:
            return False
        mb = self.alg.mul_basis
        return self.in_basis(mb).terms == other.in_basis(mb).terms

    __hash__ = None  # defining __eq__ without hash keeps these unhashable

    def __repr__(self):
        if not self.terms:
            return "0"
        render = self.alg.field.render
        bits = [f"({render(c)})*{self.basis}[{vec}, {w}]"
                for (vec, w), c in sorted(self.terms.items())[:8]]
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return " + ".join(bits) + more
