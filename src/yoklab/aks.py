"""The Ariki-Koike-Shoji presentation of the modified cyclotomic Hecke algebra.

Generators: orthogonal idempotents L_c indexed by color vectors c in {1..r}^n
(summing to 1) and h_1..h_{n-1} with

    h_i^2 = q + (q - 1) h_i,
    braid and far commutation,
    h_i L_c = L_{s_i c} h_i - (q - 1) D_i(c),

where the straightening term D_i(c) is -L_c, 0, or L_{s_i c} according to
whether c_i < c_{i+1}, c_i = c_{i+1}, or c_i > c_{i+1}.

Basis: L_c h_w, stored as sparse dicts keyed by (c, w).  Left multiplication
by a single h_i is a two-or-three term rewrite; products fold a reduced word
of the left factor through the right factor.  Right multiplication by h_i is
the Hecke rule on w alone, and by L_d the straightening of h_w L_d, cached
per (w, d).  Both h_i maps read w s_i or s_i w from the permutation tables
of SparseAlgebra, and skip a term whose coefficient q or q - 1 is zero.

The commutator ideal J is closed and powered one right ideal L_c J at a
time.  Each row has left color c and is tagged with its right color d:
L_e acts on it by 1 or 0, and x h_i splits, by the relation at s_i d,
into its pieces at s_i d and d with no straightening.  L_c A is the
closure of the unit L_c under these right images alone.  One function,
_piece_step, gives the pieces of the products of a row with the commutator
seeds as words in the right maps, and a power step applies it to every
row: from L_c A it gives L_c J, and from L_c J^k the next power, so no
seed product is formed.  As in Y's commutator_words, it keeps the braid
words of constant-color triples alone, and the closure that follows
supplies the others.  The colors of the orbits of one ordered-composition
class share their powers once _check_relabeling has matched the pieces of
the right h_i, the only map the closure calls, under the monotone
relabeling of the colors.
"""

from __future__ import annotations

import itertools
from collections import Counter

from . import symgroup as sg
from .algebra import (SparseAlgebra, SparseElement, braid_relations, color_orbits,
                      far_relations, idempotent_relations, index_maps, relation_report,
                      sum_block_dims)
from .exactla import _acc, tagged_closure, tagged_power_dims, vec_addmul

__all__ = ["AKSAlgebra"]


def _monotone_relabeling(source, target) -> dict:
    """The increasing bijection from the colors of source onto those of
    target, two color vectors with the same multiplicities in color order."""
    return dict(zip(sorted(set(source)), sorted(set(target))))


def _straightening(c, i, L, zero):
    """D_i(c) = -L_c, 0 or L_{s_i c} as c_i <, = or > c_{i+1}; L(d) is the
    value of L_d and zero the value 0.  _lmul_h inlines the same rule."""
    if c[i - 1] < c[i]:
        return -L(c)
    if c[i - 1] > c[i]:
        return L(sg.right_mult_s(c, i))
    return zero


class AKSAlgebra(SparseAlgebra):
    bases = {"AKS": "c"}
    mul_basis = "AKS"

    def __init__(self, r: int, n: int, field=None, q=0):
        super().__init__(r, n, field)
        self._hL_cache: dict = {}
        self._set_q(q)

    def gen_L(self, c) -> SparseElement:
        c = tuple(c)
        if not (len(c) == self.n and all(1 <= x <= self.r for x in c)):
            raise ValueError(f"not a color vector: {c}")
        return SparseElement(self, "AKS", {(c, self.ident): self.field.one})

    def gen_h(self, i: int) -> SparseElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"h index {i} out of range")
        return SparseElement(self, "AKS", self._lmul_h(self.one().terms, i))

    # -- engine ----------------------------------------------------------

    def _lmul_h(self, terms: dict, i: int) -> dict:
        q, qm1 = self._q, self._qm1
        step = self._lstep[i]
        out: dict = {}
        for (c, w), a in terms.items():
            sc = list(c)
            sc[i - 1], sc[i] = sc[i], sc[i - 1]
            sc = tuple(sc)
            siw, up = step[w]
            if up:
                _acc(out, (sc, siw), a)
            else:
                if q is not None:
                    _acc(out, (sc, siw), a * q)
                if qm1 is not None:
                    _acc(out, (sc, w), a * qm1)
            # straightening term from pushing h_i past L_c
            if qm1 is None:
                continue
            if c[i - 1] < c[i]:
                _acc(out, (c, w), a * qm1)
            elif c[i - 1] > c[i]:
                _acc(out, (sc, w), -(a * qm1))
        return out

    def _lmul_L(self, terms: dict, c) -> dict:
        return {k: v for k, v in terms.items() if k[0] == c}

    def _rmul_h(self, terms: dict, i: int) -> dict:
        # (L_c h_w) h_i is the Hecke rule on w alone; colors stay put
        q, qm1 = self._q, self._qm1
        step = self._rstep[i]
        out: dict = {}
        for (c, w), a in terms.items():
            wsi, up = step[w]
            if up:
                _acc(out, (c, wsi), a)
            else:
                if q is not None:
                    _acc(out, (c, wsi), a * q)
                if qm1 is not None:
                    _acc(out, (c, w), a * qm1)
        return out

    def _rmul_L(self, terms: dict, d) -> dict:
        # (L_c h_w) L_d = L_c (h_w L_d): the part of color c of the cached
        # straightening expansion of h_w L_d
        out: dict = {}
        for (c, w), a in terms.items():
            for k, v in self._straightened(w, d).get(c, ()):
                _acc(out, k, a * v)
        return out

    def _straightened(self, w, d) -> dict:
        """h_w L_d in the basis, grouped by color: {c: [((c, u), coeff)]}."""
        got = self._hL_cache.get((w, d))
        if got is None:
            z = {(d, self.ident): self.field.one}
            for i in reversed(self._rword[w]):
                z = self._lmul_h(z, i)
            got = {}
            for k, v in z.items():
                got.setdefault(k[0], []).append((k, v))
            self._hL_cache[(w, d)] = got
        return got

    def mul_terms(self, x: dict, y: dict) -> dict:
        out: dict = {}
        folds: dict = {}
        for (c, u), a in x.items():
            z = folds.get(u)
            if z is None:
                z = y
                for i in reversed(self._rword[u]):
                    z = self._lmul_h(z, i)
                folds[u] = z
            for k, v in z.items():
                if k[0] == c:
                    _acc(out, k, a * v)
        return out

    def lmul_gen_maps(self):
        return self._block_maps(self.colors)[0]

    def rmul_gen_maps(self):
        return self._block_maps(self.colors)[1]

    # -- presentation ------------------------------------------------------

    def verify_presentation(self) -> dict:
        one, zero = self.one(), self.zero()
        h = [None] + [self.gen_h(i) for i in range(1, self.n)]
        L = {c: self.gen_L(c) for c in self.colors}
        rels = idempotent_relations(L, "L", "c")
        for i in range(1, self.n):
            for c in self.colors:
                straight = _straightening(c, i, L.__getitem__, zero)
                rhs = L[sg.right_mult_s(c, i)] * h[i] - straight * self.qm1
                rels.append((f"h{i} L{c} straightening", h[i] * L[c] - rhs))
        for i in range(1, self.n):
            rels.append((f"h{i}^2 = q + (q-1) h{i}",
                         h[i] * h[i] - (one * self.q + h[i] * self.qm1)))
        rels += braid_relations(h, "h") + far_relations(h, "h")
        return relation_report(4, rels)

    # -- structural invariants for cross-checks ----------------------------

    def one_dim_reps(self):
        """All one-dimensional representations at q = 0, by brute force.

        A scalar image of L_c is an orthogonal system of idempotents summing
        to 1, so exactly one color gets value 1.  A scalar x = image(h_i)
        satisfies x^2 = -x, so x is 0 or -1.  That bounds the search space;
        every candidate is then checked against the full relation list.
        """
        if not self.q.is_zero():
            raise ValueError("the q = 0 engine only")
        field = self.field
        vals = (field.zero, -field.one)
        found = []
        for c_star in self.colors:
            for xs in itertools.product(vals, repeat=self.n - 1):
                if self._scalar_rep_ok(c_star, xs):
                    found.append((c_star, xs))
        return found

    def _scalar_rep_ok(self, c_star, xs) -> bool:
        field = self.field
        one, zero = field.one, field.zero

        def lval(c):
            return one if c == c_star else zero

        for i in range(1, self.n):
            x = xs[i - 1]
            if not (x * x - (self.q + self.qm1 * x)).is_zero():
                return False
            # every term of the straightening residual at c has L value zero
            # unless c or s_i c is c_star, and the residual at s_i c_star is
            # minus the one at c_star
            d = _straightening(c_star, i, lval, zero)
            if not (x - lval(sg.right_mult_s(c_star, i)) * x + self.qm1 * d).is_zero():
                return False
        # braid and far commutation are automatic for commuting scalars
        return True

    def commutator_seeds(self) -> list[dict]:
        h = [None] + [self.gen_h(i) for i in range(1, self.n)]
        seeds = []
        for i in range(1, self.n):
            for k in range(i + 1, self.n):
                seeds.append((h[i] * h[k] - h[k] * h[i]).terms)
        for i in range(1, self.n):
            for c in self.colors:
                lc = self.gen_L(c)
                seeds.append((h[i] * lc - lc * h[i]).terms)
        return [s for s in seeds if s]

    def _block_maps(self, orbit) -> tuple[list, list]:
        """Left and right multiplications by the generators of the block
        L_O with O = orbit: the h_i and the L_c with c in O, in that order
        (every other L_c kills the block)."""
        gens = range(1, self.n)
        return (index_maps(self._lmul_h, gens) + index_maps(self._lmul_L, orbit),
                index_maps(self._rmul_h, gens) + index_maps(self._rmul_L, orbit))

    def _h_pieces(self, d, x: dict, i: int) -> list:
        """The pieces (e, x h_i L_e) of x h_i with e = s_i d or d, for x
        with x = x L_d, with no straightening.

        L_d h_i = h_i L_(s_i d) + (q - 1) D_i(s_i d) by the relation at
        s_i d, and D_i(s_i d) is L_d, 0 or -L_(s_i d) as d_i <, = or >
        d_(i+1).  As x L_(s_i d) = 0 unless s_i d = d, x h_i is its piece
        at s_i d alone, except when d_i < d_(i+1): then its piece at d is
        (q - 1) x and the rest is its piece at s_i d."""
        xh = self._rmul_h(x, i)
        pieces = [(sg.right_mult_s(d, i), xh)]
        qm1 = self._qm1
        if d[i - 1] < d[i] and qm1 is not None:
            low = {}
            for k, v in x.items():
                low[k] = u = v * qm1
                _acc(xh, k, -u)
            pieces.append((d, low))
        return [piece for piece in pieces if piece[1]]

    def _right_images(self, new: dict):
        """(e, [x h_i L_e]) for each row x of new, {d: rows of right color
        d}, and each h_i: the pieces of x h_i by _h_pieces, lazily."""
        for d, xs in new.items():
            for x in xs:
                for i in range(1, self.n):
                    for e, y in self._h_pieces(d, x, i):
                        yield e, (y,)

    def _piece_step(self, d, a: dict) -> list:
        """The pieces (e, [a s L_e]) of a . s over enough commutator seeds
        s, for a row a of a piece of right color d, as words in the right
        maps, that their closure under _right_images, over the rows of a
        right ideal L_c J^k (J^0 = A), holds every such product.

        a = a L_d.  So a [h_i, h_(i+1)] = (a h_i) h_(i+1) - (a h_(i+1)) h_i,
        a [h_i, L_e] = (a h_i) L_e for e != d, and a [h_i, L_d] =
        (a h_i) L_d - a h_i is minus the sum of those, so it adds nothing to
        the span.  Far h_i commute, and L_e kills a and a h_i for e outside
        the orbit of d.

        The braid word a [h_i, h_(i+1)] is emitted only when d_i = d_(i+1)
        = d_(i+2); then s_i and s_(i+1) fix d, and it is one piece at d.
        Let N be the closure of the kept words.  For a piece m of tag d'
        with d'_j != d'_(j+1), (m h_j) L_(s_j d') is a kept word and the
        rest of m h_j is (q - 1)[d'_j < d'_(j+1)] m (_h_pieces), so modulo
        N, h_j acts on m as a scalar.  In a non-constant triple one of h_i
        and h_(i+1), say h, so acts on a, by l, and also on a h' for the
        other one, h': by the same rule when h' keeps the tag d, that is
        when its pair is equal, and else because h' then acts on a as a
        scalar too.  N is stable under the right h_j, so (a h) h' = l a h'
        = (a h') h modulo N, and the commutator lies in N.  Every piece m lies
        in the span of the rows of its tag, as L_c J^k is a right ideal, and
        the word is linear in m.  The pieces of each a h_i are formed once,
        and _h_pieces splits each product by h_i of a piece."""
        minus_one = -self.field.one
        by_h = [None] + [self._h_pieces(d, a, i) for i in range(1, self.n)]
        out = []
        for i in range(1, self.n - 1):
            if d[i - 1] == d[i] == d[i + 1]:
                # s_i and s_(i+1) fix d: by_h holds a h_i and a h_(i+1) at d
                word = self._rmul_h(dict(by_h[i]).get(d, {}), i + 1)
                vec_addmul(word, minus_one, self._rmul_h(dict(by_h[i + 1]).get(d, {}), i))
                if word:
                    out.append((d, [word]))
        for i in range(1, self.n):
            out += [(e, [y]) for e, y in by_h[i] if e != d]
        return out

    def _power_step(self, subs: dict) -> list:
        """The _piece_step groups of every row of subs, {d: span of its rows
        of right color d}, read in place."""
        return [g for d, sub in subs.items() for a in sub.rows.values()
                for g in self._piece_step(d, a)]

    def _color_ideal(self, c) -> dict:
        """The right ideal L_c J of the commutator ideal J, as {d: span of
        its rows of right color d}.

        L_c A is the closure of the unit L_c, tagged c, under _right_images:
        A is generated by the h_i and the L_e, and L_e acts on a row of tag
        d by 1 or 0.  Every key of a row has left color c, and its tag is
        its right color.  L_c J = (L_c A) J is one power step from L_c A."""
        unit = [(c, [{(c, self.ident): self.field.one}])]
        left = tagged_closure(self.field, self._right_images, unit)
        return tagged_closure(self.field, self._right_images, self._power_step(left))

    def _color_power_dims(self, c) -> list[int]:
        """Power dimensions of L_c J.  A power step takes each row of
        L_c J^k to its _piece_step, and the closure of those under
        _right_images is L_c J^(k+1)."""
        return tagged_power_dims(self.field, self._color_ideal(c), self._power_step,
                                 self._right_images)

    def _check_relabeling(self, source, target) -> None:
        """Exact check that (c, w) -> (sigma c, w), with sigma the monotone
        relabeling of the colors of the orbit source onto those of the orbit
        target, carries the right ideals L_c J^k, c in source, onto the
        L_(sigma c) J^k: it carries source onto target, and for every key
        (d, w) with d in source and each h_i it carries the pieces
        _h_pieces(d, {(d, w): 1}, i), tags included, onto those of the
        image key at sigma d.  Raises ArithmeticError on the first failure,
        naming the key and the map.

        _h_pieces is the one map that _color_power_dims calls: _right_images
        splits by it, and _piece_step reads each a h_i from it and applies
        _rmul_h, the sum of its pieces.  It carries the left color of a key
        along and reads only w and the tag, so the keys (d, w) stand for
        those of every left color.  Beside it, the closure tests tags for
        equality, which sigma keeps, and orders keys, which sigma keeps as
        it is monotone.  So the check proves that sigma carries the
        computation for c onto that for sigma c."""
        sigma = _monotone_relabeling(source[0], target[0])
        moved = {c: tuple(sigma[x] for x in c) for c in source}
        if set(moved.values()) != set(target):
            raise ArithmeticError(f"the relabeling {sigma} does not carry the orbit "
                                  f"of {source[0]} onto that of {target[0]}")

        def relabel(v):
            return {(moved[c], w): a for (c, w), a in v.items()}

        one = self.field.one
        for key in itertools.product(source, self.perms):
            d = key[0]
            x = {key: one}
            for i in range(1, self.n):
                if [(moved[e], relabel(y)) for e, y in self._h_pieces(d, x, i)] != \
                        self._h_pieces(moved[d], relabel(x), i):
                    raise ArithmeticError(
                        f"the relabeling {sigma} is not an isomorphism of the blocks "
                        f"of {source[0]} and {target[0]}: h_{i} (right) on {key}")

    def commutator_power_dims(self) -> list[int]:
        """Power dimensions of the commutator ideal J, one right ideal L_c J
        per color c of one orbit per ordered-composition class.

        The L_c are orthogonal idempotents that sum to 1, as
        verify_presentation checks, so each J^k is the direct sum of the
        right ideals L_c J^k, and no block of colors needs to be central.
        D_i(c) depends only on whether c_i is <, = or > c_{i+1}, so a
        relabeling of the colors that is monotone on those of an orbit O
        carries the L_c J^k with c in O, the block of O, onto the block of
        the image orbit.  Orbits whose colors have the same multiplicities
        in color order (the same composition of n) thus have blocks of the
        same powers.  Each color of the first orbit of a class is closed and
        powered, and counted once per orbit of its class once
        _check_relabeling has confirmed each relabeling.  Nothing is
        carried over from the Y engine.
        """
        classes: dict = {}
        for orbit in color_orbits(self.colors):
            counts = Counter(orbit[0])
            classes.setdefault(tuple(counts[x] for x in sorted(counts)), []).append(orbit)
        blocks = []
        for orbits in classes.values():
            for orbit in orbits[1:]:
                self._check_relabeling(orbits[0], orbit)
            blocks += [(len(orbits), self._color_power_dims(c)) for c in orbits[0]]
        return sum_block_dims(blocks)

    def __repr__(self):
        return f"AKSAlgebra(r={self.r}, n={self.n}, q={self.field.render(self.q)})"
