"""Frobenius form, flip automorphism checks, and cell structure at q = 0.

The symmetrizing functional tau picks out the coefficient of the single
basis monomial t^0 g_{w0} (w0 the longest permutation); on an E-basis
expansion that is (1/r^n) times the sum of the coefficients sitting on
(chi, w0) keys.  Nondegeneracy comes with a constructive witness: against
h = t^a g_w the element j = g_{w0 w^{-1}} t^{-a} pairs to exactly 1,
because the permutation parts multiply length-additively straight to w0.

The trace, Gram, Frobenius, Nakayama and flip checks take any engine whose
default basis is keyed by torus exponents: the Y algebra, and the nil
algebra with T_i in place of g_i.  They multiply the default-basis keys in
the engine's multiplication basis and read tau off the product there.

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
from .ycore import YAlgebra

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


def _mul_forms(alg: SparseAlgebra, keys) -> dict:
    """Each default-basis key as a term dict in the multiplication basis."""
    one = alg.field.one
    return {k: alg.element({k: one}).in_basis(alg.mul_basis).terms for k in keys}


def _flipped(alg: SparseAlgebra, forms: dict) -> dict:
    """phi of each form, in the same basis."""
    return {k: alg.phi(SparseElement(alg, alg.mul_basis, f)).terms for k, f in forms.items()}


def gram_matrix(alg: SparseAlgebra):
    """Gram matrix of tau(b_i b_j) over the sorted T-basis monomials."""
    keys = t_basis_keys(alg)
    forms = list(_mul_forms(alg, keys).values())
    mb = alg.mul_basis
    rows = []
    for x in forms:
        rows.append([tau_terms(alg, alg.mul_terms(x, y), mb) for y in forms])
    return keys, rows


def frobenius_witness(alg: SparseAlgebra, key, forms=None) -> SparseElement:
    """Element j = g_{w0 w^-1} t^{-a} with tau(j * t^a g_w) = 1 for the
    T-basis key (a, w), in the multiplication basis.  forms maps T-basis
    keys to their multiplication-basis dicts when the caller has them."""
    a, w = key
    g = ((0,) * alg.n, sg.compose(alg.w0, sg.inverse(w)))
    t = (tuple((-x) % alg.r for x in a), alg.ident)
    if forms is None:
        forms = _mul_forms(alg, (g, t))
    return SparseElement(alg, alg.mul_basis, alg.mul_terms(forms[g], forms[t]))


def frobenius_check(alg: SparseAlgebra, permuted_identity: bool = False,
                    gram=None) -> dict:
    """Gram invertibility plus witnesses; gram is (keys, rows) from
    gram_matrix(alg) when the caller already built it."""
    keys, rows = gram if gram is not None else gram_matrix(alg)
    result = {
        "dimension": len(keys),
        "gram_invertible": exactla.invertible(alg.field, rows),
    }
    mb, one = alg.mul_basis, alg.field.one
    forms = _mul_forms(alg, keys)
    result["witness_ok"] = all(
        tau_terms(alg, alg.mul_terms(frobenius_witness(alg, k, forms).terms, forms[k]), mb)
        == one for k in keys)
    if permuted_identity:
        # the Gram matrix is not symmetric; the honest symmetry statement is
        # G[x][y] = tau(phi(b_y) b_x), checked entry by entry
        flipped = list(_flipped(alg, forms).values())
        result["permuted_identity_ok"] = all(
            row[iy] == tau_terms(alg, alg.mul_terms(flipped[iy], x), mb)
            for row, x in zip(rows, forms.values()) for iy in range(len(keys)))
    return result


def nakayama_check(alg: SparseAlgebra, exhaustive: bool = False, samples: int = 200,
                   seed: int = 0) -> dict:
    """tau(x y) = tau(phi(y) x), exhaustively on basis pairs or sampled."""
    pairs = 0
    if exhaustive:
        keys = t_basis_keys(alg)
        forms = _mul_forms(alg, keys)
        flipped = _flipped(alg, forms)
        mb = alg.mul_basis
        for k1 in keys:
            x = forms[k1]
            for k2 in keys:
                if not (tau_terms(alg, alg.mul_terms(x, forms[k2]), mb)
                        == tau_terms(alg, alg.mul_terms(flipped[k2], x), mb)):
                    return {"mode": "exhaustive", "pairs": pairs, "ok": False}
                pairs += 1
        return {"mode": "exhaustive", "pairs": pairs, "ok": True}
    rng = random.Random(seed)
    for _ in range(samples):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        if not (tau(alg, x * y) == tau(alg, alg.phi(y) * x)):
            return {"mode": "sampled", "pairs": pairs, "ok": False}
        pairs += 1
    return {"mode": "sampled", "pairs": pairs, "ok": True}


def phi_checks(alg: SparseAlgebra, samples: int = 50, seed: int = 1) -> dict:
    """phi sends generators where it should, preserves products, squares to id."""
    n, one = alg.n, alg.field.one

    def g(i):   # g_i, or T_i on the nil algebra
        return alg.element({((0,) * n, sg.right_mult_s(alg.ident, i)): one})

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
