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

from . import symgroup as sg
from .algebra import SparseAlgebra, SparseElement
from .exactla import _acc

__all__ = ["YAlgebra", "torus_to_E", "torus_to_T"]


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


class YAlgebra(SparseAlgebra):
    """Container for one (r, n, field, q) instance plus its caches."""

    bases = {"T": "a", "E": "chi"}
    mul_basis = "E"
    # the shared codec, bound on this class as well so that per-class method
    # tables (such as perfbench's per-layer spans) list Y's JSON I/O here
    element_to_json = SparseAlgebra.element_to_json
    element_from_json = SparseAlgebra.element_from_json

    def __init__(self, r: int, n: int, field=None, q=None):
        super().__init__(r, n, field)
        self._set_q(q)
        self._act_cache: dict = {}
        self._mono_cache: dict = {}
        self._zeta = self.field.zeta_pow

    def act(self, w, c):
        key = (w, c)
        got = self._act_cache.get(key)
        if got is None:
            got = sg.act_on_colors(w, c)
            self._act_cache[key] = got
        return got

    # -- element constructors ------------------------------------------
    # gen_t and t_monomial build default-basis elements keyed by torus
    # exponents; the nil engine's default basis is keyed the same way and
    # shares them, as it shares phi

    def gen_t(self, j: int) -> SparseElement:
        if not 1 <= j <= self.n:
            raise ValueError(f"t index {j} out of range")
        a = tuple(1 % self.r if k == j - 1 else 0 for k in range(self.n))
        return self.element({(a, self.ident): self.field.one})

    def gen_g(self, i: int) -> SparseElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"g index {i} out of range")
        w = sg.right_mult_s(self.ident, i)
        return SparseElement(self, "T", {((0,) * self.n, w): self.field.one})

    def t_monomial(self, a) -> SparseElement:
        a = tuple(x % self.r for x in a)
        if len(a) != self.n:
            raise ValueError("exponent vector has wrong length")
        return self.element({(a, self.ident): self.field.one})

    def g_w(self, w) -> SparseElement:
        # prefixes of a reduced word stay reduced, so every step is length-up
        cur = self.ident
        for i in self._rword[tuple(w)]:
            cur = sg.right_mult_s(cur, i)
        assert cur == tuple(w)
        return SparseElement(self, "T", {((0,) * self.n, cur): self.field.one})

    def e_idem(self, i: int) -> SparseElement:
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
        return SparseElement(self, "T", terms)

    def E_idem(self, chi) -> SparseElement:
        chi = tuple(chi)
        if chi not in set(self.colors):
            raise ValueError(f"not a color vector: {chi}")
        return SparseElement(self, "E", {(chi, self.ident): self.field.one})

    # -- basis conversion ------------------------------------------------

    def convert(self, terms: dict, basis: str) -> dict:
        """terms, written in the other basis, rewritten in basis."""
        return self.to_E(terms) if basis == "E" else self.to_T(terms)

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

    # -- the flip automorphism -------------------------------------------

    def phi(self, x: SparseElement) -> SparseElement:
        """Algebra automorphism with phi(g_i) = g_{n-i}, phi(t_j) = t_{n+1-j}.

        On a T monomial this is (a, w) -> (reversed a, w0 w w0): the torus
        part transforms letterwise, and conjugating by w0 realizes the
        diagram flip i -> n-i on reduced words without creating lower terms.
        Since t_j E_chi = zeta^{chi_j} E_chi, phi sends E_chi to
        E_{reversed chi}, so the same key map serves the E basis and no
        basis change is needed.  It is also the nil algebra's flip, with
        T_i in place of g_i.
        """
        w0 = self.w0
        out = {(tuple(reversed(vec)), sg.compose(w0, sg.compose(w, w0))): coeff
               for (vec, w), coeff in x.terms.items()}
        return SparseElement(self, x.basis, out)

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
                prod = prod * SparseElement(self, "T", factor)
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

    def __repr__(self):
        return f"YAlgebra(r={self.r}, n={self.n}, q={self.field.render(self.q)}, {self.field!r})"
