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

The trace form and the flip are the ones upstairs: structure.tau reads off
the coefficient of t^0 T_{w0}, and phi(T_i) = T_{n-i}, phi(t_j) = t_{n+1-j}
is the same key map as YAlgebra.phi, with tau(x y) = tau(phi(y) x).  The
Gram, Frobenius, Nakayama and flip checks in structure serve both engines.
"""

from __future__ import annotations

import itertools

from . import exactla, symgroup as sg
from .algebra import SparseAlgebra, SparseElement
from .exactla import _acc
from .ycore import YAlgebra, torus_to_E, torus_to_T

__all__ = ["NilAlgebra"]


class NilAlgebra(SparseAlgebra):
    bases = {"NIL": "a"}
    mul_basis = "NIL"
    # t^a T_w is keyed like Y's t^a g_w, so the torus constructors and the
    # flip are Y's own methods
    gen_t = YAlgebra.gen_t
    t_monomial = YAlgebra.t_monomial
    phi = YAlgebra.phi

    def gen_T(self, i: int) -> SparseElement:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"T index {i} out of range")
        w = sg.right_mult_s(self.ident, i)
        return SparseElement(self, "NIL", {((0,) * self.n, w): self.field.one})

    def T_w(self, w) -> SparseElement:
        return SparseElement(self, "NIL", {((0,) * self.n, tuple(w)): self.field.one})

    def E_idem(self, chi) -> SparseElement:
        """Primitive torus idempotent expanded in the normal-form basis."""
        chi = tuple(chi)
        et = {(chi, self.ident): self.field.one}
        return SparseElement(self, "NIL", torus_to_T(self.field, self.r, self.exponents, et))

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

    def __repr__(self):
        return f"NilAlgebra(r={self.r}, n={self.n}, {self.field!r})"
