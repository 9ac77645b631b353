"""The sparse-algebra protocol shared by the Y, AKS and nil engines.

An engine subclasses ``SparseAlgebra`` and supplies

* ``bases``: its basis tags, each mapped to the name of the key vector in
  element JSON.  The first tag is the default basis.  A vector named "a"
  holds torus exponents in 0..r-1, any other name colors in 1..r;
* ``mul_basis``: the tag that ``mul_terms`` works in;
* ``mul_terms(x, y)``: the product of two term dicts in ``mul_basis``;
* its generator maps, ``lmul_gen_maps`` and ``rmul_gen_maps``;
* ``convert(terms, basis)``, only when it has two bases (the exponent basis
  of Y or nil <-> E).

Everything else is shared: the element class, the construction preamble
with its permutation tables, the unit, random elements, the element JSON
codec, and the relation families and report of ``verify_presentation``.
Keys are pairs (vector, permutation) and stored coefficients are never
zero.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import symgroup as sg
from .exactla import _acc
from .scalars import FieldSpec, make_field

__all__ = ["SparseAlgebra", "SparseElement", "element_json_terms", "index_maps",
           "relation_report", "torus_relations", "generator_torus_relations",
           "braid_relations", "far_relations", "idempotent_relations", "color_orbits",
           "equality_pattern", "color_patterns", "sum_block_dims"]


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
    # an absent r or n is this algebra's; as in _json_vector, 2.0 or true
    # is no integer
    if any(type(v) is not int or v != want
           for v, want in ((obj.get("r", r), r), (obj.get("n", n), n))):
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


def index_maps(fn, indices) -> list:
    """The maps t -> fn(t, i), one per i in indices, in that order."""
    return [lambda t, i=i: fn(t, i) for i in indices]


def relation_report(presentation, rels) -> dict:
    """A verify_presentation result: whether each named residual in rels,
    a list of (name, element) pairs, is zero, and whether all of them are."""
    report = [{"name": name, "zero": residual.is_zero()} for name, residual in rels]
    return {"presentation": presentation, "relations": report,
            "all_zero": all(item["zero"] for item in report)}


# -- relation families shared by the presentations -------------------------
# Each takes 1-indexed generator lists (entry 0 unused) and, where the names
# carry it, the generator's name (g, T, h; E, L for idempotents keyed by
# color); it returns (name, residual) pairs in the order they are reported.
# The unit and zero they need are built in the basis of the operands, so
# operands given in mul_basis keep every residual there.

def torus_relations(t: list) -> list:
    """t_j^r = 1 and t_j t_k = t_k t_j."""
    alg = t[1].alg
    one = alg.one(t[1].basis)
    rels = [(f"t{j}^{alg.r} = 1", t[j] ** alg.r - one) for j in range(1, len(t))]
    rels += [(f"t{j} t{k} = t{k} t{j}", t[j] * t[k] - t[k] * t[j])
             for j in range(1, len(t)) for k in range(j + 1, len(t))]
    return rels


def generator_torus_relations(g: list, t: list, name: str) -> list:
    """g_i t_j = t_{s_i(j)} g_i."""
    rels = []
    for i in range(1, len(g)):
        for j in range(1, len(t)):
            sj = i + 1 if j == i else i if j == i + 1 else j
            rels.append((f"{name}{i} t{j} = t{sj} {name}{i}", g[i] * t[j] - t[sj] * g[i]))
    return rels


def braid_relations(g: list, name: str) -> list:
    """g_i g_{i+1} g_i = g_{i+1} g_i g_{i+1}."""
    return [(f"{name}{i} {name}{i+1} {name}{i} braid",
             g[i] * g[i + 1] * g[i] - g[i + 1] * g[i] * g[i + 1])
            for i in range(1, len(g) - 1)]


def far_relations(g: list, name: str) -> list:
    """g_i g_k = g_k g_i for |i - k| >= 2."""
    return [(f"{name}{i} {name}{k} = {name}{k} {name}{i}", g[i] * g[k] - g[k] * g[i])
            for i in range(1, len(g)) for k in range(i + 2, len(g))]


def idempotent_relations(idems: dict, name: str, index: str) -> list:
    """The idempotents idems, keyed by color vector, sum to 1 and are
    pairwise orthogonal; index names the color in the sum relation."""
    first = next(iter(idems.values()))
    zero = first.alg.zero(first.basis)
    rels = [(f"sum_{index} {name}_{index} = 1",
             sum(idems.values(), zero) - first.alg.one(first.basis))]
    rels += [(f"{name}{c} {name}{c2} orthogonal", x * y - x if c == c2 else x * y)
             for c, x in idems.items() for c2, y in idems.items()]
    return rels


# -- color blocks -----------------------------------------------------------

def color_orbits(colors) -> list[list]:
    """The S_n-orbits of the color vectors in colors, each in the order of
    colors, listed by their first member."""
    orbits: dict = {}
    for c in colors:
        orbits.setdefault(tuple(sorted(c)), []).append(c)
    return list(orbits.values())


def equality_pattern(c: tuple) -> tuple:
    """The equality pattern of the color c, written as its first-occurrence
    relabeling, itself a color: (2, 3, 2) -> (1, 2, 1)."""
    seen: dict = {}
    return tuple(seen.setdefault(x, len(seen) + 1) for x in c)


def color_patterns(colors) -> dict:
    """{p: the colors of equality pattern p, in the order of colors}, the
    patterns in the order of their first colors."""
    out: dict = {}
    for c in colors:
        out.setdefault(equality_pattern(c), []).append(c)
    return out


def sum_block_dims(blocks) -> list[int]:
    """Power dimensions of a direct sum of ideals, given (multiplicity,
    dims) for each summand; a summand's dims end at its first 0."""
    length = max(len(dims) for _, dims in blocks)
    return [sum(m * dims[k] for m, dims in blocks if k < len(dims))
            for k in range(length)]


class SparseAlgebra:
    """One (r, n, field) instance of an engine: the shared preamble and the
    parts of the protocol that do not depend on the multiplication rule.

    The preamble tabulates S_n once: length, inverse and reduced word of
    each permutation, and per (i, side) the step by s_i with whether it
    raises the length (_rstep, _lstep).  The generator maps of every engine
    read these tables instead of recomputing w s_i or s_i w per term."""

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
        # _rstep[i][w] = (w s_i, length goes up), _lstep[i][w] = (s_i w, length
        # goes up), for 1 <= i < n; entry 0 is unused
        self._rstep = [None] + [{w: (sg.right_mult_s(w, i), w[i - 1] < w[i])
                                 for w in self.perms} for i in range(1, n)]
        self._lstep = [None] + [{w: (sg.left_mult_s(i, w), self._inv[w][i - 1] < self._inv[w][i])
                                 for w in self.perms} for i in range(1, n)]
        self.colors = [tuple(c) for c in itertools.product(range(1, r + 1), repeat=n)]
        self.exponents = [tuple(a) for a in itertools.product(range(r), repeat=n)]

    def _set_q(self, q) -> None:
        """Fix q (default 0) and q - 1 for the life of the algebra, stored as
        _q and _qm1 with zero as None, so the generator maps skip a zero term.
        q and qm1 have no setter: no cached product outlives its pair."""
        if isinstance(q, (int, Fraction)):
            q = self.field.from_fraction(Fraction(q))
        self._q, self._qm1 = (None if v.is_zero() else v for v in (q, q - self.field.one))

    @property
    def q(self):
        return self.field.zero if self._q is None else self._q

    @property
    def qm1(self):
        return self.field.zero if self._qm1 is None else self._qm1

    @staticmethod
    def dimension_of(r: int, n: int) -> int:
        """r^n n!, the dimension of every engine at (r, n)."""
        return r ** n * math.factorial(n)

    @property
    def dimension(self) -> int:
        return self.dimension_of(self.r, self.n)

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

    def random_element(self, rng, basis=None) -> "SparseElement":
        """Up to four random monomials of mul_basis, written in basis
        (mul_basis by default)."""
        vecs = self.exponents if self.bases[self.mul_basis] == "a" else self.colors
        perms = self.perms
        terms: dict = {}
        while not terms:
            for _ in range(4):
                # key k of [(v, w) for v in vecs for w in perms], unlisted
                v, w = divmod(rng.randrange(len(vecs) * len(perms)), len(perms))
                c = rng.randint(-4, 4)
                if c == 0:
                    continue
                _acc(terms, (vecs[v], perms[w]),
                     self.field.from_int(c) * self.field.zeta_pow(rng.randrange(self.r)))
        return SparseElement(self, self.mul_basis, terms).in_basis(basis or self.mul_basis)

    def all_generator_maps(self):
        return self.lmul_gen_maps() + self.rmul_gen_maps()

    def central_color_blocks(self) -> list[list]:
        """The S_n-orbits O of color vectors, after an exact check that each
        e_O = sum_{c in O} (c, 1) in a color-keyed mul_basis commutes with
        every generator; raises ArithmeticError on the first that does not.
        Each central e_O splits the algebra and its ideals off block by block.
        """
        one = self.field.one
        pairs = list(zip(self.lmul_gen_maps(), self.rmul_gen_maps()))
        orbits = color_orbits(self.colors)
        for orbit in orbits:
            e = {(c, self.ident): one for c in orbit}
            if any(lm(e) != rm(e) for lm, rm in pairs):
                raise ArithmeticError(f"the color block of {orbit[0]} is not central")
        return orbits

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
    in the left factor's basis; sums come back in the left summand's.

    Elements are never changed after construction, so each one keeps the
    form in_basis last converted it to: an operand that enters many
    products is transformed once."""

    __slots__ = ("alg", "basis", "terms", "_other")

    def __init__(self, alg: SparseAlgebra, basis: str, terms: dict):
        self.alg = alg
        self.basis = basis
        self.terms = terms
        self._other = None

    def is_zero(self) -> bool:
        return not self.terms

    def in_basis(self, basis: str) -> "SparseElement":
        if basis == self.basis:
            return self
        other = self._other
        if other is None or other.basis != basis:
            other = SparseElement(self.alg, self.alg._basis(basis),
                                  self.alg.convert(self.terms, basis))
            self._other = other
        return other

    def as_E(self) -> "SparseElement":
        return self.in_basis("E")

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
