"""The nil Yokonuma-Hecke algebra: torus times a nilCoxeter-style part.

Generators t_1..t_n (order r, commuting) and T_1..T_{n-1} with

    T_i t_j = t_{s_i(j)} T_i,   braid and far commutation,   T_i^2 = 0.

Normal-form basis: t^a T_w.  Products are monomial or zero:

    (t^a T_u)(t^b T_v) = t^(a + u.b) T_{uv}   if length(uv) = length(u) + length(v)
                       = 0                    otherwise.

The span of all t^a T_w with w != identity is the radical; its k-th power is
spanned by the keys with length(w) >= k, so the nilpotency index is
length(w0) + 1.  The r^n one-dimensional simples send t_i to zeta^{c_i} and
every T_i to 0, and each color chi yields a one-dimensional two-sided ideal
on E_chi T_{w0}.

The trace functional lam picks out the coefficient of t^0 T_{w0}; the flip
psi(T_i) = T_{n-i}, psi(t_j) = t_{n+1-j} plays the same role the automorphism
phi plays upstairs, with lam(x y) = lam(psi(y) x).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import exactla, symgroup as sg
from .scalars import FieldSpec, make_field
from .ycore import element_json_terms, torus_to_E, torus_to_T

__all__ = ["NilAlgebra", "NilElement"]


def _acc(out: dict, key, val) -> None:
    cur = out.get(key)
    nv = val if cur is None else cur + val
    if nv.is_zero():
        out.pop(key, None)
    else:
        out[key] = nv


class NilAlgebra:
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

    @property
    def dimension(self) -> int:
        out = self.r ** self.n
        for k in range(2, self.n + 1):
            out *= k
        return out

    def element(self, terms: dict) -> "NilElement":
        return NilElement(self, {k: v for k, v in terms.items() if not v.is_zero()})

    def zero(self) -> "NilElement":
        return NilElement(self, {})

    def one(self) -> "NilElement":
        return NilElement(self, {((0,) * self.n, self.ident): self.field.one})

    def gen_t(self, j: int) -> "NilElement":
        if not 1 <= j <= self.n:
            raise ValueError(f"t index {j} out of range")
        a = tuple(1 % self.r if k == j - 1 else 0 for k in range(self.n))
        return NilElement(self, {(a, self.ident): self.field.one})

    def gen_T(self, i: int) -> "NilElement":
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"T index {i} out of range")
        w = sg.right_mult_s(self.ident, i)
        return NilElement(self, {((0,) * self.n, w): self.field.one})

    def t_monomial(self, a) -> "NilElement":
        a = tuple(x % self.r for x in a)
        return NilElement(self, {(a, self.ident): self.field.one})

    def T_w(self, w) -> "NilElement":
        return NilElement(self, {((0,) * self.n, tuple(w)): self.field.one})

    def E_idem(self, chi) -> "NilElement":
        """Primitive torus idempotent expanded in the normal-form basis."""
        chi = tuple(chi)
        et = {(chi, self.ident): self.field.one}
        return NilElement(self, torus_to_T(self.field, self.r, self.exponents, et))

    # -- engine: products are monomial or zero ---------------------------

    def mul_terms(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for (a, u), cx in x.items():
            lu = self._len[u]
            for (b, v), cy in y.items():
                uv = sg.compose(u, v)
                if self._len[uv] != lu + self._len[v]:
                    continue
                ub = sg.act_on_colors(u, b)
                key = (tuple((p + s) % self.r for p, s in zip(a, ub)), uv)
                _acc(out, key, cx * cy)
        return out

    def lmul_gen_maps(self):
        maps = []
        for i in range(1, self.n):
            maps.append(lambda t, i=i: self._lmul_T(t, i))
        for j in range(1, self.n + 1):
            maps.append(lambda t, j=j: self._lmul_t(t, j))
        return maps

    def rmul_gen_maps(self):
        maps = []
        for i in range(1, self.n):
            maps.append(lambda t, i=i: self._rmul_T(t, i))
        for j in range(1, self.n + 1):
            maps.append(lambda t, j=j: self._rmul_t(t, j))
        return maps

    def all_generator_maps(self):
        return self.lmul_gen_maps() + self.rmul_gen_maps()

    def _lmul_T(self, terms: dict, i: int) -> dict:
        out: dict = {}
        for (a, w), c in terms.items():
            winv = self._inv[w]
            if winv[i - 1] < winv[i]:
                sa = list(a)
                sa[i - 1], sa[i] = sa[i], sa[i - 1]
                _acc(out, (tuple(sa), sg.left_mult_s(i, w)), c)
        return out

    def _rmul_T(self, terms: dict, i: int) -> dict:
        out: dict = {}
        for (a, w), c in terms.items():
            if w[i - 1] < w[i]:
                _acc(out, (a, sg.right_mult_s(w, i)), c)
        return out

    def _lmul_t(self, terms: dict, j: int) -> dict:
        out: dict = {}
        for (a, w), c in terms.items():
            na = list(a)
            na[j - 1] = (na[j - 1] + 1) % self.r
            _acc(out, (tuple(na), w), c)
        return out

    def _rmul_t(self, terms: dict, j: int) -> dict:
        out: dict = {}
        for (a, w), c in terms.items():
            na = list(a)
            na[w[j - 1] - 1] = (na[w[j - 1] - 1] + 1) % self.r
            _acc(out, (tuple(na), w), c)
        return out

    # -- structure ---------------------------------------------------------

    def verify_presentation(self) -> dict:
        n, one, zero = self.n, self.one(), self.zero()
        t = [None] + [self.gen_t(j) for j in range(1, n + 1)]
        T = [None] + [self.gen_T(i) for i in range(1, n)]
        rels = []
        for j in range(1, n + 1):
            rels.append((f"t{j}^{self.r} = 1", t[j] ** self.r - one))
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                rels.append((f"t{j} t{k} = t{k} t{j}", t[j] * t[k] - t[k] * t[j]))
        for i in range(1, n):
            for j in range(1, n + 1):
                sj = i + 1 if j == i else i if j == i + 1 else j
                rels.append((f"T{i} t{j} = t{sj} T{i}", T[i] * t[j] - t[sj] * T[i]))
        for i in range(1, n):
            rels.append((f"T{i}^2 = 0", T[i] * T[i] - zero))
        for i in range(1, n - 1):
            rels.append((f"T{i} T{i+1} T{i} braid",
                         T[i] * T[i + 1] * T[i] - T[i + 1] * T[i] * T[i + 1]))
        for i in range(1, n):
            for k in range(i + 2, n):
                rels.append((f"T{i} T{k} = T{k} T{i}", T[i] * T[k] - T[k] * T[i]))
        report = [{"name": name, "zero": residual.is_zero()} for name, residual in rels]
        return {"presentation": "nil", "relations": report,
                "all_zero": all(item["zero"] for item in report)}

    def radical(self) -> exactla.Subspace:
        sub = exactla.Subspace(self.field)
        one = self.field.one
        for a in self.exponents:
            for w in self.perms:
                if w != self.ident:
                    sub.insert({(a, w): one})
        return sub

    def radical_power_dims(self) -> list[int]:
        return exactla.ideal_power_dims(self.field, self.mul_terms, self.radical())

    def one_dim_reps(self):
        """t_i -> zeta^{c_i}, T_i -> 0; brute force confirms these are all.

        A scalar image x of T_i satisfies x^2 = 0, hence x = 0 in a field, so
        only the torus characters survive and there are exactly r^n of them.
        """
        field = self.field
        out = []
        for c in itertools.product(range(self.r), repeat=self.n):
            out.append((tuple(field.zeta_pow(k) for k in c),
                        tuple(field.zero for _ in range(self.n - 1))))
        return out

    def minimal_ideal_check(self, chi) -> dict:
        """E_chi T_{w0} spans a two-sided ideal of dimension one."""
        chi = tuple(chi)
        v = (self.E_idem(chi) * self.T_w(self.w0)).terms
        closure = exactla.closure_under(self.field, self.all_generator_maps(), [v])
        eigen_ok = True
        for j in range(1, self.n + 1):
            lhs = self._lmul_t(v, j)
            rhs = {k: self.field.zeta_pow(chi[j - 1]) * c for k, c in v.items()}
            if lhs != rhs:
                eigen_ok = False
        kill_ok = all(not self._lmul_T(v, i) for i in range(1, self.n))
        return {"chi": chi, "dim": closure.dim(),
                "eigen_ok": eigen_ok, "annihilated_ok": kill_ok,
                "ok": closure.dim() == 1 and eigen_ok and kill_ok}

    # -- trace and flip ----------------------------------------------------

    def lam(self, x: "NilElement"):
        return x.terms.get(((0,) * self.n, self.w0), self.field.zero)

    def lam_witness(self, key) -> "NilElement":
        a, w = key
        u = sg.compose(self.w0, sg.inverse(w))
        return self.T_w(u) * self.t_monomial(tuple((-x) % self.r for x in a))

    def gram_matrix(self):
        keys = sorted((a, w) for a in self.exponents for w in self.perms)
        one = self.field.one
        rows = []
        for k1 in keys:
            x = {k1: one}
            row = []
            for k2 in keys:
                prod = self.mul_terms(x, {k2: one})
                row.append(prod.get(((0,) * self.n, self.w0), self.field.zero))
            rows.append(row)
        return keys, rows

    def frobenius_check(self, permuted_identity: bool = False, gram=None) -> dict:
        keys, rows = gram if gram is not None else self.gram_matrix()
        ok = True
        one = self.field.one
        for key in keys:
            j = self.lam_witness(key)
            h = NilElement(self, {key: one})
            if not (self.lam(j * h) == one):
                ok = False
                break
        out = {"dimension": len(keys),
               "gram_invertible": exactla.invertible(self.field, rows),
               "witness_ok": ok}
        if permuted_identity:
            # Gram entries line up with lam(psi(b_y) b_x), not with lam(b_y b_x)
            elems = [NilElement(self, {k: one}) for k in keys]
            pok = True
            for ix, x in enumerate(elems):
                for iy, y in enumerate(elems):
                    if not (rows[ix][iy] == self.lam(self.psi(y) * x)):
                        pok = False
                        break
                if not pok:
                    break
            out["permuted_identity_ok"] = pok
        return out

    def psi(self, x: "NilElement") -> "NilElement":
        out: dict = {}
        for (a, w), coeff in x.terms.items():
            fw = sg.compose(self.w0, sg.compose(w, self.w0))
            _acc(out, (tuple(reversed(a)), fw), coeff)
        return NilElement(self, out)

    def psi_checks(self, samples: int = 50, seed: int = 2) -> dict:
        n = self.n
        gens_ok = all(self.psi(self.gen_T(i)) == self.gen_T(n - i) for i in range(1, n))
        gens_ok = gens_ok and all(self.psi(self.gen_t(j)) == self.gen_t(n + 1 - j)
                                  for j in range(1, n + 1))
        rng = random.Random(seed)
        mult_ok = invol_ok = True
        for _ in range(samples):
            x = self.random_element(rng)
            y = self.random_element(rng)
            if not (self.psi(x * y) == self.psi(x) * self.psi(y)):
                mult_ok = False
                break
            if not (self.psi(self.psi(x)) == x):
                invol_ok = False
                break
        return {"generators_ok": gens_ok, "multiplicative_ok": mult_ok,
                "involution_ok": invol_ok,
                "ok": gens_ok and mult_ok and invol_ok}

    def nakayama_check(self, exhaustive: bool = False, samples: int = 200,
                       seed: int = 3) -> dict:
        pairs = 0
        if exhaustive:
            keys = [(a, w) for a in self.exponents for w in self.perms]
            one = self.field.one
            for k1 in keys:
                x = NilElement(self, {k1: one})
                for k2 in keys:
                    y = NilElement(self, {k2: one})
                    if not (self.lam(x * y) == self.lam(self.psi(y) * x)):
                        return {"mode": "exhaustive", "pairs": pairs, "ok": False}
                    pairs += 1
            return {"mode": "exhaustive", "pairs": pairs, "ok": True}
        rng = random.Random(seed)
        for _ in range(samples):
            x = self.random_element(rng)
            y = self.random_element(rng)
            if not (self.lam(x * y) == self.lam(self.psi(y) * x)):
                return {"mode": "sampled", "pairs": pairs, "ok": False}
            pairs += 1
        return {"mode": "sampled", "pairs": pairs, "ok": True}

    # -- cells -------------------------------------------------------------

    def beta(self, chi, w):
        """Coefficient of the (chi, w) key in the square of E_chi T_w."""
        chi, w = tuple(chi), tuple(w)
        v = (self.E_idem(chi) * self.T_w(w)).terms
        sq = self.mul_terms(v, v)
        et = torus_to_E(self.field, self.r, self.colors, sq)
        return et.get((chi, w), self.field.zero)

    def nonzero_cells(self) -> list:
        out = []
        for chi in self.colors:
            for w in self.perms:
                if not self.beta(chi, w).is_zero():
                    out.append((chi, w))
        return sorted(out)

    def random_element(self, rng, nterms: int = 4) -> "NilElement":
        terms: dict = {}
        while not terms:
            for _ in range(nterms):
                a = self.exponents[rng.randrange(len(self.exponents))]
                w = self.perms[rng.randrange(len(self.perms))]
                c = rng.randint(-4, 4)
                if c == 0:
                    continue
                _acc(terms, (a, w),
                     self.field.from_int(c) * self.field.zeta_pow(rng.randrange(self.r)))
        return NilElement(self, terms)

    def element_to_json(self, x: "NilElement") -> dict:
        items = []
        for key in sorted(x.terms.keys()):
            a, w = key
            items.append({"a": list(a), "w": list(w),
                          "coeff": self.field.render(x.terms[key])})
        return {"basis": "NIL", "r": self.r, "n": self.n, "terms": items}

    def element_from_json(self, obj: dict) -> "NilElement":
        _, items = element_json_terms(obj, self.r, self.n, {"NIL": "a"})
        terms: dict = {}
        for a, w, coeff in items:
            _acc(terms, (tuple(x % self.r for x in a), w), self.field.parse(coeff))
        return NilElement(self, terms)

    def __repr__(self):
        return f"NilAlgebra(r={self.r}, n={self.n}, {self.field!r})"


class NilElement:
    __slots__ = ("alg", "terms")

    def __init__(self, alg: NilAlgebra, terms: dict):
        self.alg = alg
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def _check_mate(self, other):
        if other.alg is not self.alg:
            raise ValueError("elements live in different algebras")

    def __add__(self, other):
        if not isinstance(other, NilElement):
            return NotImplemented
        self._check_mate(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            _acc(out, k, v)
        return NilElement(self.alg, out)

    def __sub__(self, other):
        if not isinstance(other, NilElement):
            return NotImplemented
        self._check_mate(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            _acc(out, k, -v)
        return NilElement(self.alg, out)

    def __neg__(self):
        return NilElement(self.alg, {k: -v for k, v in self.terms.items()})

    def _scale(self, c):
        if c.is_zero():
            return NilElement(self.alg, {})
        return NilElement(self.alg, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NilElement):
            self._check_mate(other)
            return NilElement(self.alg, self.alg.mul_terms(self.terms, other.terms))
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
        out = self.alg.one()
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, NilElement):
            return NotImplemented
        return other.alg is self.alg and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        render = self.alg.field.render
        bits = [f"({render(v)})*t^{a}T{w}" for (a, w), v in sorted(self.terms.items())[:8]]
        more = "" if len(self.terms) <= 8 else f" ... ({len(self.terms)} terms)"
        return " + ".join(bits) + more
