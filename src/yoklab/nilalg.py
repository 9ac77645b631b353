"""The nil Yokonuma-Hecke algebra: torus times a nilCoxeter-style part.

Generators t_1..t_n (order r, commuting) and T_1..T_{n-1} with

    T_i t_j = t_{s_i(j)} T_i,   braid and far commutation,   T_i^2 = 0.

This is the Yokonuma-Hecke presentation with its quadratic relation
g_i^2 = q + (q - 1) e_i g_i taken at the pair (q, q - 1) = (0, 0), so
NilAlgebra is the Y engine with both coefficients fixed to zero.  From
YAlgebra it inherits the E-basis product, the generator maps, the torus
transforms, the constructors (gen_T and T_w are gen_g and g_w) and the
flip phi(T_i) = T_{n-i}, phi(t_j) = t_{n+1-j}.  Its default basis is NIL,
the normal form t^a T_w, keyed like Y's t^a g_w; in it products are
monomial or zero,

    (t^a T_u)(t^b T_v) = t^(a + u.b) T_{uv}   if length(uv) = length(u) + length(v)
                       = 0                    otherwise.

The radical is the two-sided ideal generated by T_1..T_{n-1}, the span of
all t^a T_w with w != identity.  It and its powers are computed by modrep,
one right ideal E_p J per equality pattern (radical_blocks), from one function,
radical_words, which takes a row a to the words a T_i: a power step
applies it to every row, and E_p J is seeded by its values on the rows
E_p T_w, the monomials E_p T_w T_i.  The tests hold them against the closed
form: J^k is spanned by the keys with length(w) >= k, so the nilpotency
index is length(w0) + 1.  The one-dimensional simples come from modrep's
sweep over scalar systems, Y's relation check run at the pair (0, 0): a
scalar image x of T_i has x^2 = 0, so only the r^n torus characters t_i ->
zeta^{c_i}, T_i -> 0 survive.  Each color chi yields a one-dimensional
two-sided ideal on E_chi T_{w0}.  The trace, Gram, Frobenius, Nakayama,
flip and cell checks in structure serve both engines.
"""

from __future__ import annotations

from . import exactla, modrep
from .algebra import (braid_relations, far_relations, generator_torus_relations,
                      relation_report, torus_relations)
from .ycore import YAlgebra

__all__ = ["NilAlgebra"]


class NilAlgebra(YAlgebra):
    bases = {"NIL": "a", "E": "chi"}
    mul_basis = "E"
    gen_T = YAlgebra.gen_g
    T_w = YAlgebra.g_w

    def __init__(self, r: int, n: int, field=None):
        super().__init__(r, n, field)
        self._qm1 = None

    def verify_presentation(self) -> dict:
        # each generator crosses from NIL to E once; residuals stay in E
        n = self.n
        t = [None] + [self.gen_t(j).as_E() for j in range(1, n + 1)]
        T = [None] + [self.gen_T(i).as_E() for i in range(1, n)]
        rels = torus_relations(t) + generator_torus_relations(T, t, "T")
        rels += [(f"T{i}^2 = 0", T[i] * T[i]) for i in range(1, n)]
        rels += braid_relations(T, "T") + far_relations(T, "T")
        return relation_report("nil", rels)

    def radical_words(self, row: dict, c: tuple) -> list[dict]:
        """row . E_c T_i = row T_i for each i, for a row of right color c:
        the products of row with the generators E_c T_i of the radical that
        it meets, as right maps.  On row = E_c they are those generators."""
        return [self._rmul_g(row, i) for i in range(1, self.n)]

    def radical_blocks(self) -> list:
        """The right ideals E_p J of the radical J, by modrep.pattern_ideals."""
        return modrep.pattern_ideals(self, self.radical_words)

    def radical(self) -> exactla.Subspace:
        return modrep.block_ideal(self, self.radical_blocks())

    def radical_power_dims(self) -> list[int]:
        return modrep.block_power_dims(self, self.radical_blocks(), self.radical_words)

    def __repr__(self):
        return f"NilAlgebra(r={self.r}, n={self.n}, {self.field!r})"
