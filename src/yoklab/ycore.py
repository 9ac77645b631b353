"""The Yokonuma-Hecke algebra Y_{r,n}(q) with exact arithmetic.

Generators: a torus part t_1..t_n (each of order r, pairwise commuting) and
braid-like generators g_1..g_{n-1} obeying

    g_i t_j = t_{s_i(j)} g_i,   braid and far commutation,
    g_i^2  = q + (q - 1) e_i g_i,   e_i = (1/r) sum_s t_i^s t_{i+1}^{-s}.

Two bases are maintained:

* T basis: monomials t^a g_w, exponent vector a in {0..r-1}^n, w in S_n.
* E basis: E_chi g_w, where chi runs over color vectors in {1..r}^n and
  E_chi is the primitive torus idempotent with t_k E_chi = zeta^{chi_k} E_chi.

The multiplication engine works in the E basis, where right and left
multiplication by a generator touches at most two terms:

    (chi, w) g_i = (chi, w s_i)                                  if length goes up
                 = q (chi, w s_i) + (q-1)[chi_{w(i)} = chi_{w(i+1)}] (chi, w)  else
    g_i (chi, w) = (s_i chi, s_i w)                              if length goes up
                 = q (s_i chi, s_i w) + (q-1)[chi_i = chi_{i+1}] (chi, w)      else

and two basis monomials interact only when the color parts are compatible:
E_{chi'} g_{w'} E_chi g_w vanishes unless chi' = w'(chi).  At q = 0 every
structure constant lies in {0, 1, -1}.

Elements are sparse dicts keyed by (vector, permutation); zero coefficients
are never stored.

The torus transform between the bases factors over the tensor slots, since
t^a = prod_k t_k^(a_k) and t_k^x = sum_c zeta^(x c) E^(k)_c.  It therefore
runs as n passes, each a size-r discrete Fourier transform in one slot of
the sparse dict.  Within one call, each scalar's r zeta-multiples are
computed once and shared by every term carrying that scalar (or any
zeta-multiple of it).  A one-term operand costs about r multiplies, and a
full block of r^n terms costs n r^(n+1) dict updates instead of r^(2n).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import symgroup as sg
from .scalars import FieldSpec, make_field

__all__ = ["YAlgebra", "YElement", "torus_to_E", "torus_to_T"]


def _acc(out: dict, key, val) -> None:
    cur = out.get(key)
    nv = val if cur is None else cur + val
    if nv.is_zero():
        out.pop(key, None)
    else:
        out[key] = nv


def _slot_transform(field, r: int, n: int, terms: dict, targets, sign: int) -> dict:
    """n size-r DFTs on a sparse dict, one pass per tensor slot.

    Pass k replaces the entry x (0..r) in slot k of every key by each y in
    targets, weighted by zeta^(sign x y).  The memo maps a scalar c to its
    zeta-multiples [c, c zeta, ..., c zeta^(r-1)]; it lives for one call and
    is filled for a whole orbit c zeta^j at once, so no product is formed
    twice.  Coefficients that cancel after a pass are dropped right away.
    """
    zetas = [field.zeta_pow(j) for j in range(r)]
    weights = [[(sign * x * y) % r for y in targets] for x in range(r + 1)]
    memo: dict = {}
    cur = terms
    for k in range(n):
        out: dict = {}
        for (v, w), c in cur.items():
            mults = memo.get(c)
            if mults is None:
                mults = [c] + [c * z for z in zetas[1:]]
                # c zeta^j has the same multiples, rotated by j
                for j in range(r):
                    memo.setdefault(mults[j], mults[j:] + mults[:j])
            head, tail = v[:k], v[k + 1:]
            for y, e in zip(targets, weights[v[k]]):
                _acc(out, (head + (y,) + tail, w), mults[e])
        cur = out
    return cur


def torus_to_E(field, r: int, colors, terms: dict) -> dict:
    """Exponent-keyed dict -> color-keyed dict: t^a = sum_chi zeta^(a.chi) E_chi.

    Runs slot by slot, t_k^(a_k) = sum_c zeta^(a_k c) E^(k)_c, through the
    memoized kernel _slot_transform: a one-term input costs about r scalar
    multiplies, a full block of r^n terms n r^(n+1) dict updates.
    """
    n = len(colors[0]) if colors else 0
    return _slot_transform(field, r, n, terms, range(1, r + 1), 1)


def torus_to_T(field, r: int, exponents, terms: dict) -> dict:
    """Color-keyed dict -> exponent-keyed dict (inverse torus transform).

    E_chi = (1/r^n) sum_a zeta^(-a.chi) t^a, run slot by slot through the
    same kernel with the conjugate weights; the factor 1/r^n is applied once
    per output term at the end.
    """
    n = len(exponents[0]) if exponents else 0
    out = _slot_transform(field, r, n, terms, range(r), -1)
    inv_rn = field.one / field.from_int(r ** n)
    return {k: c * inv_rn for k, c in out.items()}


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


class YAlgebra:
    """Container for one (r, n, field, q) instance plus its caches."""

    def __init__(self, r: int, n: int, field=None, q=None):
        if r < 1 or n < 1:
            raise ValueError("need r >= 1 and n >= 1")
        if field is None:
            field = make_field(FieldSpec("CyclotomicRational", r))
        if field.r != r:
            raise ValueError(f"field carries r = {field.r}, algebra wants r = {r}")
        self.r = r
        self.n = n
        self.field = field
        if q is None:
            q = field.zero
        elif isinstance(q, (int, Fraction)):
            q = field.from_fraction(Fraction(q))
        self.q = q
        self.qm1 = q - field.one

        self.perms = sg.all_permutations(n)
        self.ident = sg.identity(n)
        self.w0 = sg.longest_element(n)
        self._len = {w: sg.length(w) for w in self.perms}
        self._inv = {w: sg.inverse(w) for w in self.perms}
        self._rword = {w: sg.reduced_word(w) for w in self.perms}
        self.colors = [tuple(c) for c in itertools.product(range(1, r + 1), repeat=n)]
        self.exponents = [tuple(a) for a in itertools.product(range(r), repeat=n)]
        self._act_cache: dict = {}
        self._mono_cache: dict = {}
        self._zeta = field.zeta_pow

    @property
    def dimension(self) -> int:
        out = self.r ** self.n
        for k in range(2, self.n + 1):
            out *= k
        return out

    def act(self, w, c):
        key = (w, c)
        got = self._act_cache.get(key)
        if got is None:
            got = sg.act_on_colors(w, c)
            self._act_cache[key] = got
        return got

    # -- element constructors ------------------------------------------

    def element(self, terms: dict, basis: str) -> "YElement":
        return YElement(self, basis, {k: v for k, v in terms.items() if not v.is_zero()})

    def zero(self, basis: str = "T") -> "YElement":
        return YElement(self, basis, {})

    def one(self, basis: str = "T") -> "YElement":
        if basis == "T":
            return YElement(self, "T", {((0,) * self.n, self.ident): self.field.one})
        return YElement(self, "E", {(c, self.ident): self.field.one for c in self.colors})

    def gen_t(self, j: int) -> "YElement":
        if not 1 <= j <= self.n:
            raise ValueError(f"t index {j} out of range")
        a = tuple(1 if k == j - 1 else 0 for k in range(self.n))
        return YElement(self, "T", {(tuple(x % self.r for x in a), self.ident): self.field.one})

    def gen_g(self, i: int) -> "YElement":
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"g index {i} out of range")
        w = sg.right_mult_s(self.ident, i)
        return YElement(self, "T", {((0,) * self.n, w): self.field.one})

    def t_monomial(self, a) -> "YElement":
        a = tuple(x % self.r for x in a)
        if len(a) != self.n:
            raise ValueError("exponent vector has wrong length")
        return YElement(self, "T", {(a, self.ident): self.field.one})

    def g_w(self, w) -> "YElement":
        # prefixes of a reduced word stay reduced, so every step is length-up
        cur = self.ident
        for i in self._rword[tuple(w)]:
            cur = sg.right_mult_s(cur, i)
        assert cur == tuple(w)
        return YElement(self, "T", {((0,) * self.n, cur): self.field.one})

    def e_idem(self, i: int) -> "YElement":
        """e_i = (1/r) sum_s t_i^s t_{i+1}^{-s} in the T basis."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"e index {i} out of range")
        inv_r = self.field.one / self.field.from_int(self.r)
        terms: dict = {}
        for s in range(self.r):
            a = [0] * self.n
            a[i - 1] = s
            a[i] = (-s) % self.r
            _acc(terms, (tuple(a), self.ident), inv_r)
        return YElement(self, "T", terms)

    def E_idem(self, chi) -> "YElement":
        chi = tuple(chi)
        if chi not in set(self.colors):
            raise ValueError(f"not a color vector: {chi}")
        return YElement(self, "E", {(chi, self.ident): self.field.one})

    def standard_basis_element(self, chi, w) -> "YElement":
        return YElement(self, "E", {(tuple(chi), tuple(w)): self.field.one})

    # -- basis conversion ------------------------------------------------

    def to_E(self, tt: dict) -> dict:
        return torus_to_E(self.field, self.r, self.colors, tt)

    def to_T(self, et: dict) -> dict:
        return torus_to_T(self.field, self.r, self.exponents, et)

    # -- multiplication engine (E basis) ---------------------------------

    def _rmul_g(self, terms: dict, i: int) -> dict:
        out: dict = {}
        for (chi, w), a in terms.items():
            wsi = sg.right_mult_s(w, i)
            if w[i - 1] < w[i]:
                _acc(out, (chi, wsi), a)
            else:
                _acc(out, (chi, wsi), a * self.q)
                if chi[w[i - 1] - 1] == chi[w[i] - 1]:
                    _acc(out, (chi, w), a * self.qm1)
        return out

    def _lmul_g(self, terms: dict, i: int) -> dict:
        out: dict = {}
        for (chi, w), a in terms.items():
            winv = self._inv[w]
            siw = sg.left_mult_s(i, w)
            schi = list(chi)
            schi[i - 1], schi[i] = schi[i], schi[i - 1]
            schi = tuple(schi)
            if winv[i - 1] < winv[i]:
                _acc(out, (schi, siw), a)
            else:
                _acc(out, (schi, siw), a * self.q)
                if chi[i - 1] == chi[i]:
                    _acc(out, (chi, w), a * self.qm1)
        return out

    def _rmul_t(self, terms: dict, j: int) -> dict:
        return {(chi, w): a * self._zeta(chi[w[j - 1] - 1])
                for (chi, w), a in terms.items()}

    def _lmul_t(self, terms: dict, j: int) -> dict:
        return {(chi, w): a * self._zeta(chi[j - 1])
                for (chi, w), a in terms.items()}

    def _mono_mul(self, kx, ky) -> dict:
        """Product of two E-basis monomials, cached.

        Only called on compatible pairs; the color part of every output term
        equals kx's color automatically.
        """
        got = self._mono_cache.get((kx, ky))
        if got is None:
            word = self._rword[kx[1]]
            got = {ky: self.field.one}
            for i in reversed(word):
                got = self._lmul_g(got, i)
            self._mono_cache[(kx, ky)] = got
        return got

    def mul_terms(self, x: dict, y: dict) -> dict:
        """Product of two E-basis dicts."""
        buckets: dict = {}
        for (chi, w), b in y.items():
            buckets.setdefault(chi, []).append((w, b))
        out: dict = {}
        for (chip, wp), a in x.items():
            req = self.act(self._inv[wp], chip)
            bucket = buckets.get(req)
            if bucket is None:
                continue
            for (w, b) in bucket:
                ab = a * b
                for k, c in self._mono_mul((chip, wp), (req, w)).items():
                    _acc(out, k, ab * c)
        return out

    def lmul_gen_maps(self):
        maps = [(lambda t, i=i: self._lmul_g(t, i)) for i in range(1, self.n)]
        maps += [(lambda t, j=j: self._lmul_t(t, j)) for j in range(1, self.n + 1)]
        return maps

    def rmul_gen_maps(self):
        maps = [(lambda t, i=i: self._rmul_g(t, i)) for i in range(1, self.n)]
        maps += [(lambda t, j=j: self._rmul_t(t, j)) for j in range(1, self.n + 1)]
        return maps

    def all_generator_maps(self):
        return self.lmul_gen_maps() + self.rmul_gen_maps()

    # -- the flip automorphism -------------------------------------------

    def phi(self, x: "YElement") -> "YElement":
        """Algebra automorphism with phi(g_i) = g_{n-i}, phi(t_j) = t_{n+1-j}.

        On a T monomial this is (a, w) -> (reversed a, w0 w w0): the torus
        part transforms letterwise, and conjugating by w0 realizes the
        diagram flip i -> n-i on reduced words without creating lower terms.
        Since t_j E_chi = zeta^{chi_j} E_chi, phi sends E_chi to
        E_{reversed chi}, so the same key map serves the E basis and no
        basis change is needed.
        """
        w0 = self.w0
        out = {(tuple(reversed(vec)), sg.compose(w0, sg.compose(w, w0))): coeff
               for (vec, w), coeff in x.terms.items()}
        return YElement(self, x.basis, out)

    # -- presentation checks ----------------------------------------------

    def verify_presentation(self, which: int) -> dict:
        if which == 1:
            rels = self._presentation_tg()
        elif which == 2:
            rels = self._presentation_idem()
        else:
            raise ValueError(f"unknown presentation {which!r} for this algebra")
        report = [{"name": name, "zero": residual.is_zero()} for name, residual in rels]
        return {
            "presentation": which,
            "relations": report,
            "all_zero": all(item["zero"] for item in report),
        }

    def _presentation_tg(self):
        n, one = self.n, self.one()
        t = [None] + [self.gen_t(j) for j in range(1, n + 1)]
        g = [None] + [self.gen_g(i) for i in range(1, n)]
        rels = []
        for j in range(1, n + 1):
            rels.append((f"t{j}^{self.r} = 1", t[j] ** self.r - one))
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                rels.append((f"t{j} t{k} = t{k} t{j}", t[j] * t[k] - t[k] * t[j]))
        for i in range(1, n):
            for j in range(1, n + 1):
                sj = i + 1 if j == i else i if j == i + 1 else j
                rels.append((f"g{i} t{j} = t{sj} g{i}", g[i] * t[j] - t[sj] * g[i]))
        for i in range(1, n):
            for k in range(i + 2, n):
                rels.append((f"g{i} g{k} = g{k} g{i}", g[i] * g[k] - g[k] * g[i]))
        for i in range(1, n - 1):
            rels.append((f"g{i} g{i+1} g{i} braid", g[i] * g[i + 1] * g[i] - g[i + 1] * g[i] * g[i + 1]))
        for i in range(1, n):
            quad = g[i] * g[i] - (one * self.q + (self.e_idem(i) * g[i]) * self.qm1)
            rels.append((f"g{i}^2 = q + (q-1) e{i} g{i}", quad))
        return rels

    def _presentation_idem(self):
        # E_chi built from the torus averaging product, so these relations
        # genuinely exercise the T<->E transform, not just the E engine
        n, one = self.n, self.one()
        inv_r = self.field.one / self.field.from_int(self.r)
        idems = {}
        for chi in self.colors:
            prod = one
            for i in range(1, n + 1):
                factor: dict = {}
                for s in range(self.r):
                    a = [0] * n
                    a[i - 1] = s
                    _acc(factor, (tuple(a), self.ident),
                         inv_r * self._zeta((-chi[i - 1] * s) % self.r))
                prod = prod * YElement(self, "T", factor)
            idems[chi] = prod
        g = [None] + [self.gen_g(i) for i in range(1, n)]
        t = [None] + [self.gen_t(j) for j in range(1, n + 1)]
        rels = []
        total = self.zero()
        for chi in self.colors:
            total = total + idems[chi]
        rels.append(("sum_chi E_chi = 1", total - one))
        for chi in self.colors:
            for chi2 in self.colors:
                expect = idems[chi] if chi == chi2 else self.zero()
                rels.append((f"E{chi} E{chi2} orthogonal", idems[chi] * idems[chi2] - expect))
        for j in range(1, n + 1):
            for chi in self.colors:
                rels.append((f"t{j} E{chi} = zeta^{chi[j-1]} E{chi}",
                             t[j] * idems[chi] - idems[chi] * self._zeta(chi[j - 1])))
        for i in range(1, n):
            for chi in self.colors:
                schi = list(chi)
                schi[i - 1], schi[i] = schi[i], schi[i - 1]
                rels.append((f"g{i} E{chi} = E{tuple(schi)} g{i}",
                             g[i] * idems[chi] - idems[tuple(schi)] * g[i]))
        for i in range(1, n):
            esum = self.zero()
            for chi in self.colors:
                if chi[i - 1] == chi[i]:
                    esum = esum + idems[chi]
            rels.append((f"e{i} = sum of diagonal E", self.e_idem(i) - esum))
            quad = g[i] * g[i] - (one * self.q + (esum * g[i]) * self.qm1)
            rels.append((f"g{i}^2 via E form", quad))
        for i in range(1, n - 1):
            rels.append((f"g{i} g{i+1} g{i} braid", g[i] * g[i + 1] * g[i] - g[i + 1] * g[i] * g[i + 1]))
        for i in range(1, n):
            for k in range(i + 2, n):
                rels.append((f"g{i} g{k} = g{k} g{i}", g[i] * g[k] - g[k] * g[i]))
        return rels

    # -- misc ------------------------------------------------------------

    def random_element(self, rng, nterms: int = 4, basis: str = "E") -> "YElement":
        keys = [(c, w) for c in self.colors for w in self.perms]
        terms: dict = {}
        while not terms:
            for _ in range(nterms):
                key = keys[rng.randrange(len(keys))]
                c = rng.randint(-4, 4)
                if c == 0:
                    continue
                _acc(terms, key, self.field.from_int(c) * self._zeta(rng.randrange(self.r)))
        el = YElement(self, "E", terms)
        return el if basis == "E" else el.as_T()

    def element_to_json(self, x: "YElement") -> dict:
        vec_name = "chi" if x.basis == "E" else "a"
        items = []
        for key in sorted(x.terms.keys()):
            vec, w = key
            items.append({vec_name: list(vec), "w": list(w),
                          "coeff": self.field.render(x.terms[key])})
        return {"basis": x.basis, "r": self.r, "n": self.n, "terms": items}

    def element_from_json(self, obj: dict) -> "YElement":
        basis, items = element_json_terms(obj, self.r, self.n, {"E": "chi", "T": "a"})
        terms: dict = {}
        for vec, w, coeff in items:
            if basis == "E" and not all(1 <= x <= self.r for x in vec):
                raise ValueError(f"color entries must lie in 1..{self.r}")
            if basis == "T":
                vec = tuple(x % self.r for x in vec)
            _acc(terms, (vec, w), self.field.parse(coeff))
        return YElement(self, basis, terms)

    def __repr__(self):
        return f"YAlgebra(r={self.r}, n={self.n}, q={self.field.render(self.q)}, {self.field!r})"


class YElement:
    """Sparse element of a fixed YAlgebra, tagged with its current basis."""

    __slots__ = ("alg", "basis", "terms")

    def __init__(self, alg: YAlgebra, basis: str, terms: dict):
        self.alg = alg
        self.basis = basis
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def as_E(self) -> "YElement":
        if self.basis == "E":
            return self
        return YElement(self.alg, "E", self.alg.to_E(self.terms))

    def as_T(self) -> "YElement":
        if self.basis == "T":
            return self
        return YElement(self.alg, "T", self.alg.to_T(self.terms))

    def in_basis(self, basis: str) -> "YElement":
        return self.as_E() if basis == "E" else self.as_T()

    def coeff(self, key, basis: str | None = None):
        src = self if basis is None else self.in_basis(basis)
        return src.terms.get(key, self.alg.field.zero)

    def _check_mate(self, other):
        if other.alg is not self.alg:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, YElement):
            return NotImplemented
        self._check_mate(other)
        out = dict(self.terms)
        for k, v in other.in_basis(self.basis).terms.items():
            _acc(out, k, v)
        return YElement(self.alg, self.basis, out)

    def __sub__(self, other):
        if not isinstance(other, YElement):
            return NotImplemented
        self._check_mate(other)
        out = dict(self.terms)
        for k, v in other.in_basis(self.basis).terms.items():
            _acc(out, k, -v)
        return YElement(self.alg, self.basis, out)

    def __neg__(self):
        return YElement(self.alg, self.basis, {k: -v for k, v in self.terms.items()})

    def _scale(self, c):
        if c.is_zero():
            return YElement(self.alg, self.basis, {})
        return YElement(self.alg, self.basis, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, YElement):
            self._check_mate(other)
            prod = self.alg.mul_terms(self.as_E().terms, other.as_E().terms)
            out = YElement(self.alg, "E", prod)
            return out if self.basis == "E" else out.as_T()
        if isinstance(other, (int, Fraction)):
            return self._scale(self.alg.field.from_fraction(Fraction(other)))
        if hasattr(other, "is_zero") and hasattr(other, "field"):
            return self._scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(self.alg.field.from_fraction(Fraction(other)))
        if hasattr(other, "is_zero") and hasattr(other, "field"):
            return self._scale(other)
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        out = self.alg.one(self.basis)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, YElement):
            return NotImplemented
        if other.alg is not self.alg:
            return False
        a, b = self.as_E().terms, other.as_E().terms
        return a.keys() == b.keys() and all(a[k] == b[k] for k in a)

    __hash__ = None  # defining __eq__ without hash keeps these unhashable

    def __repr__(self):
        if not self.terms:
            return "0"
        render = self.alg.field.render
        bits = []
        for key in sorted(self.terms.keys())[:8]:
            vec, w = key
            tag = "E" if self.basis == "E" else "t^"
            bits.append(f"({render(self.terms[key])})*{tag}{vec}g{w}")
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return " + ".join(bits) + more
