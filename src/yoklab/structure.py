"""Frobenius form, flip automorphism checks, and cell structure at q = 0.

The symmetrizing functional tau picks out the coefficient of the single
basis monomial t^0 g_{w0} (w0 the longest permutation); on an E-basis
expansion that is (1/r^n) times the sum of the coefficients sitting on
(chi, w0) keys.  Nondegeneracy comes with a constructive witness: against
h = t^a g_w the element j = g_{w0 w^{-1}} t^{-a} pairs to exactly 1,
because the permutation parts multiply length-additively straight to w0.

The trace, Gram, Frobenius, Nakayama, flip and cell checks serve the Y
algebra and the nil algebra, the Y engine with T_i in place of g_i.  They
read tau off products in the E basis.  The Gram matrix is built from torus
transforms of monomial products, G[(a, u)][(b, v)] = tau(t^(a + u.b) g_u
g_v) (see gram_matrix), and the exhaustive Nakayama check reads it.

Cells: basis monomials (chi, w) are ranked by (length(w), w, chi).  At q = 0
multiplication by any generator sends a basis monomial to monomials of the
same or higher rank, and the square of E_chi g_w touches the (chi, w)
coefficient itself in a single scalar beta.  The keys with nonzero beta are
predicted by the simple-module labels: (c, longest element of the Young
subgroup of the flattened run compositions).
"""

from __future__ import annotations

import random

from . import exactla, symgroup as sg
from .algebra import SparseAlgebra, SparseElement
from .modrep import enumerate_labels, require_q0
from .ycore import YAlgebra, torus_to_T

__all__ = [
    "tau",
    "tau_terms",
    "gram_matrix",
    "frobenius_witness",
    "frobenius_check",
    "nakayama_check",
    "phi_checks",
    "beta",
    "cell_rank",
    "triangularity_check",
    "nonzero_cells",
    "predicted_cells",
    "classification_match",
    "proof_identities",
    "gram_to_json",
]


def tau_terms(alg: SparseAlgebra, terms: dict, basis: str):
    field = alg.field
    if basis != "E":
        return terms.get(((0,) * alg.n, alg.w0), field.zero)
    acc = field.zero
    for (chi, w), v in terms.items():
        if w == alg.w0:
            acc = acc + v
    return acc / field.from_int(alg.r ** alg.n)


def tau(alg: SparseAlgebra, x: SparseElement):
    return tau_terms(alg, x.terms, x.basis)


def t_basis_keys(alg: SparseAlgebra) -> list:
    return sorted((a, w) for a in alg.exponents for w in alg.perms)


def gram_matrix(alg: YAlgebra):
    """Gram matrix of tau(b_i b_j) over the sorted T-basis monomials.

    For b_i = t^a g_u and b_j = t^b g_v the product is t^(a + u.b) g_u g_v,
    so G[(a, u)][(b, v)] = F_{u,v}(a + u.b) with F_{u,v}(c) = tau(t^c g_u
    g_v).  As t^c = sum_chi zeta^(c.chi) E_chi and E_chi g_u g_v = E_chi g_u
    E_{u^-1 chi} g_v, F_{u,v}(c) = (1/r^n) sum_chi zeta^(c.chi) f_{u,v}(chi)
    where f_{u,v}(chi) is the (chi, w0) coefficient of that monomial
    product: F_{u,v}(-c) is the inverse torus transform of f_{u,v}.  That is
    n!^2 r^n monomial products, each a shorter one times a g_i and kept out
    of the product cache, against (r^n n!)^2 products of r^n-term forms for
    the pairwise build."""
    keys = t_basis_keys(alg)
    r, w0, exponents = alg.r, alg.w0, alg.exponents
    zero, one = alg.field.zero, alg.field.one
    index = {a: k for k, a in enumerate(exponents)}
    neg_sum = [[index[tuple((-x - y) % r for x, y in zip(a, b))] for b in exponents]
               for a in exponents]
    moved = {u: [index[sg.act_on_colors(u, b)] for b in exponents] for u in alg.perms}
    by_length = sorted(alg.perms, key=alg._len.__getitem__)
    F = {}
    for u in alg.perms:
        f = {v: {} for v in alg.perms}
        for chi in alg.colors:
            prods = {alg.ident: {(chi, u): one}}
            for v in by_length[1:]:
                i = alg._rword[v][-1]
                prods[v] = alg._rmul_g(prods[sg.right_mult_s(v, i)], i)
            for v, p in prods.items():
                if (chi, w0) in p:
                    f[v][chi, w0] = p[chi, w0]
        for v in alg.perms:
            tt = torus_to_T(alg.field, r, exponents, f[v])
            F[u, v] = [tt.get((a, w0), zero) for a in exponents]
    rows = []
    for a, u in keys:
        sums, mu = neg_sum[index[a]], moved[u]
        rows.append([F[u, v][sums[mu[index[b]]]] for b, v in keys])
    return keys, rows


def frobenius_witness(alg: SparseAlgebra, key) -> SparseElement:
    """Element j = g_u t^{-a}, u = w0 w^-1, with tau(j * t^a g_w) = 1 for
    the T-basis key (a, w).  As g_u t^b = t^(u.b) g_u, j is the single
    basis monomial t^(u.(-a)) g_u."""
    a, w = key
    u = sg.compose(alg.w0, sg.inverse(w))
    return alg.element({(sg.act_on_colors(u, tuple((-x) % alg.r for x in a)), u):
                        alg.field.one})


def frobenius_check(alg: YAlgebra, permuted_identity: bool = False,
                    gram=None) -> dict:
    """Gram invertibility plus witnesses; gram is (keys, rows) from
    gram_matrix(alg) when the caller already built it."""
    keys, rows = gram if gram is not None else gram_matrix(alg)
    result = {
        "dimension": len(keys),
        "gram_invertible": exactla.invertible(alg.field, rows),
    }
    # each witness is a basis monomial, so tau(j b_k) is a Gram entry
    pos = {k: i for i, k in enumerate(keys)}
    result["witness_ok"] = all(
        rows[pos[next(iter(frobenius_witness(alg, k).terms))]][i] == alg.field.one
        for i, k in enumerate(keys))
    if permuted_identity:
        # the Gram matrix is not symmetric; the honest symmetry statement is
        # G[x][y] = tau(phi(b_y) b_x), checked entry by entry
        result["permuted_identity_ok"] = _flip_pairs(alg, keys, rows)[1]
    return result


def _flip_pairs(alg: SparseAlgebra, keys, rows) -> tuple[int, bool]:
    """Whether G[x][y] = G[phi(y)][x], that is tau(b_x b_y) = tau(phi(b_y)
    b_x), for every pair of basis keys, x then y; phi sends each basis key
    to a basis key.  Returns the pairs that passed and the verdict."""
    pos = {k: i for i, k in enumerate(keys)}
    one = alg.field.one
    flip = [pos[next(iter(alg.phi(alg.element({k: one})).terms))] for k in keys]
    pairs = 0
    for ix, row in enumerate(rows):
        for iy, entry in enumerate(row):
            if not (entry == rows[flip[iy]][ix]):
                return pairs, False
            pairs += 1
    return pairs, True


def nakayama_check(alg: YAlgebra, exhaustive: bool = False, samples: int = 200,
                   seed: int = 0) -> dict:
    """tau(x y) = tau(phi(y) x), exhaustively on basis pairs or sampled.

    On basis pairs this reads both sides off the Gram matrix."""
    if exhaustive:
        pairs, ok = _flip_pairs(alg, *gram_matrix(alg))
        return {"mode": "exhaustive", "pairs": pairs, "ok": ok}
    pairs = 0
    rng = random.Random(seed)
    for _ in range(samples):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        if not (tau(alg, x * y) == tau(alg, alg.phi(y) * x)):
            return {"mode": "sampled", "pairs": pairs, "ok": False}
        pairs += 1
    return {"mode": "sampled", "pairs": pairs, "ok": True}


def phi_checks(alg: YAlgebra, samples: int = 50, seed: int = 1) -> dict:
    """phi sends generators where it should, preserves products, squares to id."""
    n, g = alg.n, alg.gen_g   # T_i on the nil algebra
    gens_ok = all(alg.phi(g(i)) == g(n - i) for i in range(1, n))
    gens_ok = gens_ok and all(alg.phi(alg.gen_t(j)) == alg.gen_t(n + 1 - j)
                              for j in range(1, n + 1))
    rng = random.Random(seed)
    mult_ok = True
    invol_ok = all(alg.phi(alg.phi(g(i))) == g(i) for i in range(1, n))
    for _ in range(samples):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        if not (alg.phi(x * y) == alg.phi(x) * alg.phi(y)):
            mult_ok = False
            break
        if not (alg.phi(alg.phi(x)) == x):
            invol_ok = False
            break
    return {"generators_ok": gens_ok, "multiplicative_ok": mult_ok,
            "involution_ok": invol_ok,
            "ok": gens_ok and mult_ok and invol_ok}


# -- cells ----------------------------------------------------------------

def beta(alg: YAlgebra, chi, w):
    """Coefficient of (chi, w) inside the square of E_chi g_w."""
    require_q0(alg)
    key = (tuple(chi), tuple(w))
    b = {key: alg.field.one}
    return alg.mul_terms(b, b).get(key, alg.field.zero)


def cell_rank(alg: YAlgebra, key):
    chi, w = key
    return (alg._len[w], w, chi)


def triangularity_check(alg: YAlgebra) -> dict:
    """Every generator, acting on either side of a basis monomial, only
    produces monomials of the same or higher cell rank.

    Returns {"ok": bool, "witness": None or the offending (key, image key)}.
    """
    require_q0(alg)
    one = alg.field.one
    maps = alg.all_generator_maps()
    for c in alg.colors:
        for w in alg.perms:
            key = (c, w)
            rank = cell_rank(alg, key)
            for f in maps:
                for k2 in f({key: one}):
                    if cell_rank(alg, k2) < rank:
                        return {"ok": False, "witness": (key, k2)}
    return {"ok": True, "witness": None}


def nonzero_cells(alg: YAlgebra) -> list:
    require_q0(alg)
    out = []
    for c in alg.colors:
        for w in alg.perms:
            if not beta(alg, c, w).is_zero():
                out.append((c, w))
    return sorted(out)


def predicted_cells(alg: YAlgebra) -> list:
    """Keys (c, longest Young element of the flattened run compositions)."""
    out = set()
    for lab in enumerate_labels(alg.r, alg.n):
        flat = tuple(x for comp in lab.parts for x in comp)
        out.add((lab.c, sg.young_longest(flat)))
    return sorted(out)


def classification_match(alg: YAlgebra) -> dict:
    observed = nonzero_cells(alg)
    predicted = predicted_cells(alg)
    obs, pred = set(observed), set(predicted)
    values_ok = True
    minus_one = -alg.field.one
    for (c, w) in predicted:
        expect = alg.field.one if alg._len[w] % 2 == 0 else minus_one
        if not (beta(alg, c, w) == expect):
            values_ok = False
            break
    return {
        "match": obs == pred,
        "missing": sorted(pred - obs),
        "extra": sorted(obs - pred),
        "count": len(observed),
        "beta_signs_ok": values_ok,
    }


def proof_identities(alg: YAlgebra) -> list[dict]:
    """Nilpotency identities that drive the radical bound at q = 0."""
    require_q0(alg)
    n = alg.n
    out = []
    for i in range(1, n - 1):
        comm = alg.gen_g(i) * alg.gen_g(i + 1) - alg.gen_g(i + 1) * alg.gen_g(i)
        out.append({"name": f"[g{i}, g{i+1}]^3 = 0", "zero": (comm ** 3).is_zero()})
    for i in range(1, n):
        comm = alg.gen_g(i) * alg.gen_t(i) - alg.gen_t(i) * alg.gen_g(i)
        out.append({"name": f"[g{i}, t{i}]^2 = 0", "zero": (comm ** 2).is_zero()})
        comm = alg.gen_g(i) * alg.gen_t(i + 1) - alg.gen_t(i + 1) * alg.gen_g(i)
        out.append({"name": f"[g{i}, t{i+1}]^2 = 0", "zero": (comm ** 2).is_zero()})
    return out


def gram_to_json(alg: SparseAlgebra, keys, rows) -> dict:
    render = alg.field.render
    return {
        "r": alg.r,
        "n": alg.n,
        "basis": [{"a": list(a), "w": list(w)} for a, w in keys],
        "entries": [[render(v) for v in row] for row in rows],
    }
