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
of the left factor through the right factor.
"""

from __future__ import annotations

import itertools

from . import symgroup as sg
from .algebra import SparseAlgebra, SparseElement
from .exactla import _acc

__all__ = ["AKSAlgebra"]


class AKSAlgebra(SparseAlgebra):
    bases = {"AKS": "c"}
    mul_basis = "AKS"

    def __init__(self, r: int, n: int, field=None, q=None):
        super().__init__(r, n, field)
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

    def basis_monomial(self, c, w) -> SparseElement:
        return SparseElement(self, "AKS", {(tuple(c), tuple(w)): self.field.one})

    # -- engine ----------------------------------------------------------

    def _lmul_h(self, terms: dict, i: int) -> dict:
        out: dict = {}
        for (c, w), a in terms.items():
            sc = list(c)
            sc[i - 1], sc[i] = sc[i], sc[i - 1]
            sc = tuple(sc)
            winv = self._inv[w]
            siw = sg.left_mult_s(i, w)
            if winv[i - 1] < winv[i]:
                _acc(out, (sc, siw), a)
            else:
                _acc(out, (sc, siw), a * self.q)
                _acc(out, (sc, w), a * self.qm1)
            # straightening term from pushing h_i past L_c
            if c[i - 1] < c[i]:
                _acc(out, (c, w), a * self.qm1)
            elif c[i - 1] > c[i]:
                _acc(out, (sc, w), -(a * self.qm1))
        return out

    def _lmul_L(self, terms: dict, c) -> dict:
        return {k: v for k, v in terms.items() if k[0] == c}

    def _rmul_L(self, terms: dict, c) -> dict:
        # not diagonal on monomials: h_w L_c picks up straightening terms,
        # so route through the generic product against the singleton L_c
        return self.mul_terms(terms, {(c, self.ident): self.field.one})

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
        maps = [(lambda t, i=i: self._lmul_h(t, i)) for i in range(1, self.n)]
        maps += [(lambda t, c=c: self._lmul_L(t, c)) for c in self.colors]
        return maps

    def rmul_gen_maps(self):
        maps = [(lambda t, ht=self._h_terms(i): self.mul_terms(t, ht))
                for i in range(1, self.n)]
        maps += [(lambda t, c=c: self._rmul_L(t, c)) for c in self.colors]
        return maps

    def _h_terms(self, i: int) -> dict:
        return self._lmul_h({(c, self.ident): self.field.one for c in self.colors}, i)

    # -- presentation ------------------------------------------------------

    def verify_presentation(self) -> dict:
        one, zero = self.one(), self.zero()
        h = [None] + [self.gen_h(i) for i in range(1, self.n)]
        rels = []
        total = zero
        for c in self.colors:
            total = total + self.gen_L(c)
        rels.append(("sum_c L_c = 1", total - one))
        for c in self.colors:
            for c2 in self.colors:
                expect = self.gen_L(c) if c == c2 else zero
                rels.append((f"L{c} L{c2} orthogonal", self.gen_L(c) * self.gen_L(c2) - expect))
        for i in range(1, self.n):
            for c in self.colors:
                sc = list(c)
                sc[i - 1], sc[i] = sc[i], sc[i - 1]
                sc = tuple(sc)
                if c[i - 1] < c[i]:
                    straight = -self.gen_L(c)
                elif c[i - 1] == c[i]:
                    straight = zero
                else:
                    straight = self.gen_L(sc)
                rhs = self.gen_L(sc) * h[i] - straight * self.qm1
                rels.append((f"h{i} L{c} straightening", h[i] * self.gen_L(c) - rhs))
        for i in range(1, self.n):
            rels.append((f"h{i}^2 = q + (q-1) h{i}",
                         h[i] * h[i] - (one * self.q + h[i] * self.qm1)))
        for i in range(1, self.n - 1):
            rels.append((f"h{i} h{i+1} h{i} braid",
                         h[i] * h[i + 1] * h[i] - h[i + 1] * h[i] * h[i + 1]))
        for i in range(1, self.n):
            for k in range(i + 2, self.n):
                rels.append((f"h{i} h{k} = h{k} h{i}", h[i] * h[k] - h[k] * h[i]))
        report = [{"name": name, "zero": residual.is_zero()} for name, residual in rels]
        return {"presentation": 4, "relations": report,
                "all_zero": all(item["zero"] for item in report)}

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
            for c in self.colors:
                sc = list(c)
                sc[i - 1], sc[i] = sc[i], sc[i - 1]
                sc = tuple(sc)
                if c[i - 1] < c[i]:
                    d = -lval(c)
                elif c[i - 1] == c[i]:
                    d = zero
                else:
                    d = lval(sc)
                if not (x * lval(c) - lval(sc) * x + self.qm1 * d).is_zero():
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

    def __repr__(self):
        return f"AKSAlgebra(r={self.r}, n={self.n}, q={self.field.render(self.q)})"
