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

Each map reads w s_i or s_i w, and whether the length goes up, from the
permutation tables _rstep and _lstep that SparseAlgebra builds once per
algebra, one per side and i; t_j reads zeta^(c mod r) from a list indexed
by the color c.
Two basis monomials interact only when the color parts are compatible:
E_{chi'} g_{w'} E_chi g_w vanishes unless chi' = w'(chi).  At q = 0 every
structure constant lies in {0, 1, -1}.

The g_i maps form few sums.  A step moves each key, with its coefficient
on an up step and times q on a down step (dropped at q = 0), and a down
step also keeps the key times q - 1 when the color test passes.  Moving is
one-to-one, so moved keys never meet, and a down step moves its key to a
shorter one, never to a kept key.  Two images meet only when an up step
lands on a kept key, so the kept keys are merged last, the only sums
formed.  At q = 0 a one-term row therefore has, on either side, only its
up-step image besides multiples of itself, and span_images, the right
closure of modrep's ideals, yields only those.

At q = 0 the right step has a second layout, _rmul_g_group, on the terms
of one permutation held as (w, {chi: a}).  The up-step test, and the
positions that the color test compares, read only w, so a group moves
whole, and a down step, with no q term, keeps the colors of the group
that pass the color test, negated.  Every key of E_chi g_u g_v therefore
sits on one permutation, the Demazure product of u and v, and
structure.gram_blocks carries each product as one group, or as None once
it vanishes.  A color is read only in the color test chi[w(i)] =
chi[w(i+1)], so the product depends on chi only through which of its
entries are equal, and not at all on the nil algebra, where q - 1 = 0;
gram_blocks carries one color per such class.

Elements are sparse dicts keyed by (vector, permutation); zero coefficients
are never stored.

The torus transform between the bases factors over the tensor slots, since
t^a = prod_k t_k^(a_k) and t_k^x = sum_c zeta^(x c) E^(k)_c.  It therefore
runs as n passes, each a size-r discrete Fourier transform in one slot of
the sparse dict.  Within one call, each scalar's r zeta-multiples are
computed once and shared by every term carrying that scalar (or any
zeta-multiple of it).  Each pass sums the terms that differ only in its
slot within one group, so a one-term operand costs about r multiplies, and
a full block of r^n terms costs n r^(n+1) scalar additions but only n r^n
dict updates, instead of r^(2n) of each.

Presentations 1 and 2 build each operand (a generator, a closed-form E_chi
(1/r^n) sum_a zeta^(-a.chi) t^a, an e_i) in the T basis and take it to E
once; every product and residual then stays in E and is tested for zero
there, so no relation runs the transform back to T.  Presentation 2 puts
the native E_idem(chi) on the right of t_j E_chi = zeta^(chi_j) E_chi, which
ties the transformed closed forms to the E-basis labels.
"""

from __future__ import annotations

from functools import cached_property

from . import symgroup as sg
from .algebra import (SparseAlgebra, SparseElement, braid_relations, far_relations,
                      generator_torus_relations, idempotent_relations, index_maps,
                      relation_report, torus_relations)
from .exactla import _acc

__all__ = ["YAlgebra", "torus_to_E", "torus_to_T"]


def _swap(chi: tuple, i: int) -> tuple:
    """s_i chi: the color vector chi with its entries i and i + 1 swapped."""
    return chi[:i - 1] + (chi[i], chi[i - 1]) + chi[i + 1:]


def _slot_transform(field, r: int, n: int, terms: dict, targets, sign: int) -> dict:
    """n size-r DFTs on a sparse dict, one pass per tensor slot.

    Pass k groups the keys by everything but their entry x (0..r) in slot
    k, and replaces each group by one term per y in targets, the sum of its
    coefficients weighted by zeta^(sign x y); a sum that cancels is
    dropped.  The memo maps a scalar c to its zeta-multiples [c, c zeta,
    ..., c zeta^(r-1)]; it lives for one call and is filled for a whole
    orbit c zeta^j at once, so no product is formed twice.
    """
    zetas = [field.zeta_pow(j) for j in range(r)]
    weights = [[(sign * x * y) % r for x in range(r + 1)] for y in targets]
    slots = [(y,) for y in targets]
    memo: dict = {}
    cur = terms
    for k in range(n):
        groups: dict = {}
        for (v, w), c in cur.items():
            mults = memo.get(c)
            if mults is None:
                mults = [c] + [c * z for z in zetas[1:]]
                # c zeta^j has the same multiples, rotated by j
                for j in range(r):
                    memo.setdefault(mults[j], mults[j:] + mults[:j])
            groups.setdefault((v[:k], v[k + 1:], w), []).append((v[k], mults))
        out: dict = {}
        for (head, tail, w), group in groups.items():
            for y, row in zip(slots, weights):
                total = None
                for x, m in group:
                    total = m[row[x]] if total is None else total + m[row[x]]
                if not total.is_zero():
                    out[(head + y + tail, w)] = total
        cur = out
    return cur


def torus_to_E(field, r: int, colors, terms: dict) -> dict:
    """Exponent-keyed dict -> color-keyed dict: t^a = sum_chi zeta^(a.chi) E_chi.

    Runs slot by slot, t_k^(a_k) = sum_c zeta^(a_k c) E^(k)_c, through the
    memoized kernel _slot_transform: a one-term input costs about r scalar
    multiplies, a full block of r^n terms n r^(n+1) scalar additions.
    """
    n = len(colors[0]) if colors else 0
    return _slot_transform(field, r, n, terms, range(1, r + 1), 1)


def torus_to_T(field, r: int, exponents, terms: dict, inv_rn) -> dict:
    """Color-keyed dict -> exponent-keyed dict (inverse torus transform).

    E_chi = (1/r^n) sum_a zeta^(-a.chi) t^a, run slot by slot through the
    same kernel with the conjugate weights; the factor inv_rn = 1/r^n, which
    the algebra stores, is applied once per output term at the end.
    """
    n = len(exponents[0]) if exponents else 0
    out = _slot_transform(field, r, n, terms, range(r), -1)
    return {k: c * inv_rn for k, c in out.items()}


class YAlgebra(SparseAlgebra):
    """Container for one (r, n, field, q) instance plus its caches."""

    bases = {"T": "a", "E": "chi"}
    mul_basis = "E"
    # the shared codec, bound on this class as well so that per-class method
    # tables (such as perfbench's per-layer spans) list Y's JSON I/O here
    element_to_json = SparseAlgebra.element_to_json
    element_from_json = SparseAlgebra.element_from_json

    def __init__(self, r: int, n: int, field=None, q=0):
        super().__init__(r, n, field)
        self._mono_cache: dict = {}
        self._set_q(q)
        self._act_cache: dict = {}
        # the unit of the trace on E-basis keys (structure.tau_terms) and
        # the scale of the inverse torus transform (torus_to_T)
        self.inv_rn = self.field.one / self.field.from_int(r ** n)
        self._zeta = self.field.zeta_pow
        self._zetas = [self._zeta(k) for k in range(r)]
        # zeta^(c mod r) at index c, for a color c in 1..r
        self._color_zetas = [self._zetas[c % r] for c in range(r + 1)]

    def act(self, w, c):
        key = (w, c)
        got = self._act_cache.get(key)
        if got is None:
            # (w.c)[i] = c[w^-1(i)], with w^-1 read from the table
            winv = self._inv[w]
            got = tuple(c[k - 1] for k in winv)
            self._act_cache[key] = got
        return got

    # -- element constructors ------------------------------------------
    # each builds a default-basis element keyed by torus exponents; the nil
    # engine's default basis is keyed the same way and inherits them

    def gen_t(self, j: int) -> SparseElement:
        if not 1 <= j <= self.n:
            raise ValueError(f"t index {j} out of range")
        a = tuple(1 % self.r if k == j - 1 else 0 for k in range(self.n))
        return self.element({(a, self.ident): self.field.one})

    def gen_g(self, i: int) -> SparseElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"g index {i} out of range")
        w = sg.right_mult_s(self.ident, i)
        return self.element({((0,) * self.n, w): self.field.one})

    def g_w(self, w) -> SparseElement:
        # prefixes of a reduced word stay reduced, so every step is length-up
        cur = self.ident
        for i in self._rword[tuple(w)]:
            cur = sg.right_mult_s(cur, i)
        assert cur == tuple(w)
        return self.element({((0,) * self.n, cur): self.field.one})

    def e_idem(self, i: int) -> SparseElement:
        """e_i = (1/r) sum_s t_i^s t_{i+1}^{-s} in the default basis."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"e index {i} out of range")
        inv_r = self.field.one / self.field.from_int(self.r)
        terms: dict = {}
        for s in range(self.r):
            a = [0] * self.n
            a[i - 1] = s
            a[i] = (-s) % self.r
            _acc(terms, (tuple(a), self.ident), inv_r)
        return self.element(terms)

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
        return torus_to_T(self.field, self.r, self.exponents, et, self.inv_rn)

    # -- multiplication engine (E basis) ---------------------------------

    def _rmul_g(self, terms: dict, i: int) -> dict:
        # only an up step can land on a kept key (see the module
        # docstring), so moved keys are set and kept keys merged last
        q, qm1 = self._q, self._qm1
        step = self._rstep[i]
        out: dict = {}
        kept = []
        for key, a in terms.items():
            chi, w = key
            wsi, up = step[w]
            if up:
                out[(chi, wsi)] = a
            else:
                if q is not None:
                    out[(chi, wsi)] = a * q
                if qm1 is not None and chi[w[i - 1] - 1] == chi[w[i] - 1]:
                    kept.append((key, a))
        for key, a in kept:
            _acc(out, key, a * qm1)
        return out

    def _rmul_g_group(self, group, i: int):
        """_rmul_g at q = 0 on the terms of one permutation, held as the
        group (w, {chi: coeff}), or None once they vanish.  An up step moves
        the group whole, its color dict shared; a down step keeps the colors
        that pass the color test, each times q - 1 = -1, and none on the
        nil algebra, where q - 1 = 0."""
        w, colors = group
        wsi, up = self._rstep[i][w]
        if up:
            return wsi, colors
        if self._qm1 is None:
            return None
        x, y = w[i - 1] - 1, w[i] - 1
        kept = {chi: -a for chi, a in colors.items() if chi[x] == chi[y]}
        return (w, kept) if kept else None

    def _lmul_g(self, terms: dict, i: int) -> dict:
        # as in _rmul_g, with the colors swapped by the move
        q, qm1 = self._q, self._qm1
        step = self._lstep[i]
        out: dict = {}
        kept = []
        for key, a in terms.items():
            chi, w = key
            siw, up = step[w]
            if up:
                out[(_swap(chi, i), siw)] = a
            else:
                if q is not None:
                    out[(_swap(chi, i), siw)] = a * q
                if qm1 is not None and chi[i - 1] == chi[i]:
                    kept.append((key, a))
        for key, a in kept:
            _acc(out, key, a * qm1)
        return out

    def span_images(self):
        """The images function of exactla.tagged_closure for one untagged
        span under the right g_i maps.

        At q = 0 the image of a one-term row {(chi, w): a} under g_i is its
        key moved up, with coefficient a, or a multiple of the row or 0,
        which adds nothing to a span that holds the row.  So a one-term row
        yields only its up-step images and calls no map; longer rows, and
        every row when q != 0, go through the maps."""
        maps = index_maps(self._rmul_g, range(1, self.n))
        keyed = self._q is None
        steps = self._rstep[1:]

        def images(rows):
            for v in rows:
                if not (keyed and len(v) == 1):
                    for f in maps:
                        yield f(v)
                    continue
                ((chi, w), a), = v.items()
                for step in steps:
                    wsi, up = step[w]
                    if up:
                        yield {(chi, wsi): a}

        return lambda new: [(None, images(new[None]))]

    def _rmul_t(self, terms: dict, j: int) -> dict:
        zc = self._color_zetas
        out = {}
        for key, a in terms.items():
            chi, w = key
            out[key] = a * zc[chi[w[j - 1] - 1]]
        return out

    def _lmul_t(self, terms: dict, j: int) -> dict:
        zc, k = self._color_zetas, j - 1
        out = {}
        for key, a in terms.items():
            out[key] = a * zc[key[0][k]]
        return out

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
        return (index_maps(self._lmul_g, range(1, self.n))
                + index_maps(self._lmul_t, range(1, self.n + 1)))

    def rmul_gen_maps(self):
        return (index_maps(self._rmul_g, range(1, self.n))
                + index_maps(self._rmul_t, range(1, self.n + 1)))

    # -- the flip automorphism -------------------------------------------

    @cached_property
    def _flip(self) -> dict:
        """The flip table w -> w0 w w0, built on the first call of phi, so
        an algebra that never flips pays nothing for it."""
        return {w: sg.compose(self.w0, sg.compose(w, self.w0)) for w in self.perms}

    def phi(self, x: SparseElement) -> SparseElement:
        """Algebra automorphism with phi(g_i) = g_{n-i}, phi(t_j) = t_{n+1-j}.

        On a T monomial this is (a, w) -> (reversed a, w0 w w0): the torus
        part transforms letterwise, and conjugating by w0 realizes the
        diagram flip i -> n-i on reduced words without creating lower terms.
        Since t_j E_chi = zeta^{chi_j} E_chi, phi sends E_chi to
        E_{reversed chi}, so the same key map serves the E basis and no
        basis change is needed.  w0 w w0 is read from the flip table
        _flip, n! entries built once per algebra, so a term costs one
        lookup and no composition.  It is also the nil algebra's flip, with
        T_i in place of g_i.
        """
        flip = self._flip
        out = {(vec[::-1], flip[w]): coeff for (vec, w), coeff in x.terms.items()}
        return SparseElement(self, x.basis, out)

    # -- presentation checks ----------------------------------------------

    def verify_presentation(self, which: int) -> dict:
        if which == 1:
            rels = self._presentation_tg()
        elif which == 2:
            rels = self._presentation_idem()
        else:
            raise ValueError(f"unknown presentation {which!r} for this algebra")
        return relation_report(which, rels)

    def _presentation_tg(self):
        # each generator is built in T and crosses to E once; every product
        # and residual below stays in E
        n, one = self.n, self.one("E")
        t = [None] + [self.gen_t(j).as_E() for j in range(1, n + 1)]
        g = [None] + [self.gen_g(i).as_E() for i in range(1, n)]
        rels = torus_relations(t) + generator_torus_relations(g, t, "g")
        rels += far_relations(g, "g") + braid_relations(g, "g")
        for i in range(1, n):
            quad = g[i] * g[i] - (one * self.q + (self.e_idem(i).as_E() * g[i]) * self.qm1)
            rels.append((f"g{i}^2 = q + (q-1) e{i} g{i}", quad))
        return rels

    def _presentation_idem(self):
        # E_chi from its closed form (1/r^n) sum_a zeta^(-a.chi) t^a in the T
        # basis; each operand crosses T -> E once and every residual is
        # decided in E.  The native E_idem(chi) on the right of t_j E_chi =
        # zeta^(chi_j) E_chi ties the transformed closed forms to the basis
        # labels, so a transform that permutes the colors (t -> t^-1, an
        # automorphism of every other relation here) leaves a residual.
        n, r, one = self.n, self.r, self.one("E")
        scaled = [self.inv_rn * z for z in self._zetas]
        idems = {chi: SparseElement(self, "T", {
            (a, self.ident): scaled[-sum(x * c for x, c in zip(a, chi)) % r]
            for a in self.exponents}).as_E() for chi in self.colors}
        g = [None] + [self.gen_g(i).as_E() for i in range(1, n)]
        t = [None] + [self.gen_t(j).as_E() for j in range(1, n + 1)]
        rels = idempotent_relations(idems, "E", "chi")
        for j in range(1, n + 1):
            for chi in self.colors:
                rels.append((f"t{j} E{chi} = zeta^{chi[j-1]} E{chi}",
                             t[j] * idems[chi] - self.E_idem(chi) * self._zeta(chi[j - 1])))
        for i in range(1, n):
            for chi in self.colors:
                schi = sg.right_mult_s(chi, i)
                rels.append((f"g{i} E{chi} = E{schi} g{i}",
                             g[i] * idems[chi] - idems[schi] * g[i]))
        for i in range(1, n):
            esum = sum((idems[chi] for chi in self.colors if chi[i - 1] == chi[i]),
                       self.zero("E"))
            rels.append((f"e{i} = sum of diagonal E", self.e_idem(i).as_E() - esum))
            quad = g[i] * g[i] - (one * self.q + (esum * g[i]) * self.qm1)
            rels.append((f"g{i}^2 via E form", quad))
        return rels + braid_relations(g, "g") + far_relations(g, "g")

    def __repr__(self):
        return f"YAlgebra(r={self.r}, n={self.n}, q={self.field.render(self.q)}, {self.field!r})"
