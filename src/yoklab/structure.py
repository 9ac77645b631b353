"""Frobenius form, flip automorphism checks, and cell structure at q = 0.

The symmetrizing functional tau picks out the coefficient of the single
basis monomial t^0 g_{w0} (w0 the longest permutation); on an E-basis
expansion that is (1/r^n) times the sum of the coefficients sitting on
(chi, w0) keys, the sum multiplied once by the 1/r^n that the algebra
stores (inv_rn), so no call forms or inverts r^n.  Nondegeneracy comes
with a constructive witness: against h = t^a g_w the element j = g_{w0
w^{-1}} t^{-a} pairs to exactly 1, because the permutation parts multiply
length-additively straight to w0.

The trace, Gram, Frobenius, Nakayama, flip and cell checks serve the Y
algebra at q = 0 and the nil algebra, the Y engine with T_i in place of
g_i; for Y at any other q, gram_blocks and every check built on it, as
well as the cell checks, raise ValueError.  They read tau off products in
the E basis.  Everything about the Gram form comes from the (chi, w0)
coefficients f_{u,v}(chi) of E_chi g_u g_v, the n! x n! blocks of the
E-basis Gram, one per color c with rows {v: f_{u,v}(u.c)}.  At q = 0 the
product E_chi g_u g_v lies on one permutation, the Demazure product of u
and v, so gram_blocks walks it as one group (w, {chi: coeff}) through the
q = 0 right step of ycore, _rmul_g_group.  That step reads a color only in
its down-step test chi[w(i)] = chi[w(i+1)], so the block of c depends only
on which entries of c are equal, and not on c at all on the nil algebra,
where every down step vanishes: its color class (color_class), the
equality pattern of c written as its first-occurrence relabeling, or the
single class () on the nil algebra.  gram_blocks builds one block per
class, in one pass per permutation that carries one color per class, and
every reader finds a color's block through its class.  frobenius_check
decides invertibility class by class and reads each witness entry off the
class blocks, each weighted by its number of colors.  The exhaustive
Nakayama check compares tau(x y) with tau(phi(y) x) on E-basis pairs,
where tau(E_a g_u E_b g_v) = [a = u.b] f_{u,v}(a) / r^n, once per equality
pattern of b.  The T-basis Gram matrix, G[(a, u)][(b, v)] = tau(t^(a +
u.b) g_u g_v), is a torus transform of the same values (gram_entries); it
is built whole only for gram --export, and read entry by entry only to
count the pairs before a Nakayama failure.

Cells: basis monomials (chi, w) are ranked by (length(w), w, chi).  At q = 0
multiplication by any generator sends a basis monomial to monomials of the
same or higher rank.  triangularity_check applies the generator maps at
the keys of one color per equality pattern, which is exact for maps that
commute with relabeling the colors, as Y's do, and reruns the loop over
every color only to name a failure.  The square of E_chi g_w touches the
(chi, w) coefficient itself in a single scalar beta, which vanishes unless
w.chi = chi, so beta is formed only at those keys.  The keys with nonzero
beta are predicted by the simple-module labels: (c, longest element of the
Young subgroup of the flattened run compositions).
"""

from __future__ import annotations

import operator
import random

from . import exactla, symgroup as sg
from .algebra import SparseAlgebra, SparseElement, color_patterns, equality_pattern
from .exactla import _acc
from .modrep import enumerate_labels, require_q0
from .ycore import YAlgebra, torus_to_T

__all__ = [
    "tau",
    "tau_terms",
    "color_class",
    "color_classes",
    "gram_blocks",
    "gram_entries",
    "gram_matrix",
    "singular_block",
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
    """tau of a term dict written in basis: the (0, w0) coefficient in an
    exponent basis (T or NIL), and in E the sum of the (chi, w0)
    coefficients times the algebra's stored 1/r^n, alg.inv_rn."""
    field = alg.field
    if basis != "E":
        return terms.get(((0,) * alg.n, alg.w0), field.zero)
    acc, w0 = field.zero, alg.w0
    for (chi, w), v in terms.items():
        if w == w0:
            acc = acc + v
    return acc * alg.inv_rn


def tau(alg: SparseAlgebra, x: SparseElement):
    return tau_terms(alg, x.terms, x.basis)


def t_basis_keys(alg: SparseAlgebra) -> list:
    return sorted((a, w) for a in alg.exponents for w in alg.perms)


def color_class(alg: YAlgebra, c: tuple) -> tuple:
    """class(c), the key of the Gram block of the color c in gram_blocks:
    its equality pattern, or the single class () when q - 1 = 0, as on the
    nil algebra, where every down step of the q = 0 walk vanishes and so
    no color is read."""
    return () if alg._qm1 is None else equality_pattern(c)


def color_classes(alg: YAlgebra) -> dict:
    """{p: the colors of class p, in alg.colors order}; the classes come in
    the order of their first colors."""
    return {(): alg.colors} if alg._qm1 is None else color_patterns(alg.colors)


def gram_blocks(alg: YAlgebra) -> dict:
    """blocks[p][u] = {v: f_{u,v}(u.p)} for each color class p, with
    f_{u,v}(chi) the (chi, w0) coefficient of E_chi g_u . g_v at q = 0;
    ValueError for Y at any other q.

    tau(E_chi' g_u E_c g_v) vanishes unless chi' = u.c, so the E-basis Gram
    is, after a permutation, block-diagonal with one n! x n! block per
    color c, whose row u is {v: f_{u,v}(u.c)} (up to the unit 1/r^n).  The
    block of c is the block of its class, blocks[color_class(alg, c)], and
    each class representative p stands for all its colors.  Right
    multiplication by g_i keeps the left color, so one pass per u takes the
    sum of E_{u.p} g_u over the representatives, the one group (u, {u.p:
    1}) of YAlgebra._rmul_g_group, through the g_v: each product is a
    shorter one times one step, on the Demazure product of u and v, or None
    once it vanishes, which is then carried without a step.  Row values
    are read from the products on w0.  u.p, whose entry k is p[u^-1(k)], is
    formed here rather than by alg.act, whose cache would keep n! more
    entries per class; the class () stands for itself, as no step reads
    its color.  Every row is present; zero values are not stored."""
    require_q0(alg)
    w0, one, step, inv = alg.w0, alg.field.one, alg._rmul_g_group, alg._inv
    # (v, v', i) with v = v' s_i for each v past the identity, shortest first
    order = []
    for v in sorted(alg.perms, key=alg._len.__getitem__)[1:]:
        i = alg._rword[v][-1]
        order.append((v, alg._rstep[i][v][0], i))
    blocks = {p: {} for p in color_classes(alg)}
    for u in alg.perms:
        start = {(tuple(p[k - 1] for k in inv[u]) if p else p): p for p in blocks}
        prods = {alg.ident: (u, dict.fromkeys(start, one))}
        for v, shorter, i in order:
            prev = prods[shorter]
            prods[v] = prev and step(prev, i)
        rows = {chi: {} for chi in start}
        for v, prod in prods.items():
            if prod and prod[0] == w0:
                for chi, c in prod[1].items():
                    rows[chi][v] = c
        for chi, row in rows.items():
            blocks[start[chi]][u] = row
    return blocks


def gram_entries(alg: YAlgebra):
    """The T-basis Gram entry rule: entry(x, y) = tau(b_x b_y) for T-basis
    keys x and y.

    For b_x = t^a g_u and b_y = t^b g_v the product is t^(a + u.b) g_u g_v,
    so G[(a, u)][(b, v)] = F_{u,v}(a + u.b) with F_{u,v}(c) = tau(t^c g_u
    g_v).  As t^c = sum_chi zeta^(c.chi) E_chi, F_{u,v}(c) = (1/r^n)
    sum_chi zeta^(c.chi) f_{u,v}(chi), with f_{u,v}(u.c) read off the
    block of the class of c in gram_blocks: F_{u,v}(-c) is the inverse
    torus transform of f_{u,v}, one transform per pair (u, v)."""
    r, w0, exponents = alg.r, alg.w0, alg.exponents
    zero = alg.field.zero
    index = {a: k for k, a in enumerate(exponents)}
    neg_sum = [[index[tuple((-x - y) % r for x, y in zip(a, b))] for b in exponents]
               for a in exponents]
    moved = {u: [index[sg.act_on_colors(u, b)] for b in exponents] for u in alg.perms}
    f = {(u, v): {} for u in alg.perms for v in alg.perms}
    blocks = gram_blocks(alg)
    for p, members in color_classes(alg).items():
        for u, row in blocks[p].items():
            for c in members:
                chi = alg.act(u, c)
                for v, val in row.items():
                    f[u, v][chi, w0] = val
    F = {}
    for uv, terms in f.items():
        tt = torus_to_T(alg.field, r, exponents, terms, alg.inv_rn)
        F[uv] = [tt.get((a, w0), zero) for a in exponents]

    def entry(x, y):
        (a, u), (b, v) = x, y
        return F[u, v][neg_sum[index[a]][moved[u][index[b]]]]
    return entry


def gram_matrix(alg: YAlgebra):
    """Gram matrix of tau(b_i b_j) over the sorted T-basis monomials, for
    gram --export: (r^n n!)^2 entries read through gram_entries."""
    keys = t_basis_keys(alg)
    entry = gram_entries(alg)
    return keys, [[entry(x, y) for y in keys] for x in keys]


def singular_block(alg: YAlgebra, blocks: dict):
    """The first color, in alg.colors order, whose E-basis Gram block is
    singular, or None.  Each class block of gram_blocks is eliminated
    once, the classes in the order of their first colors: its n! sparse
    rows, keyed by v, are inserted into one Subspace, and the block is
    singular when one of them adds nothing."""
    for p, members in color_classes(alg).items():
        sub = exactla.Subspace(alg.field)
        if any(sub.insert(row) is None for row in blocks[p].values()):
            return members[0]
    return None


def frobenius_witness(alg: SparseAlgebra, key) -> SparseElement:
    """Element j = g_u t^{-a}, u = w0 w^-1, with tau(j * t^a g_w) = 1 for
    the T-basis key (a, w).  As g_u t^b = t^(u.b) g_u, j is the single
    basis monomial t^(u.(-a)) g_u."""
    a, w = key
    u = sg.compose(alg.w0, sg.inverse(w))
    return alg.element({(sg.act_on_colors(u, tuple((-x) % alg.r for x in a)), u):
                        alg.field.one})


def frobenius_check(alg: YAlgebra, blocks: dict | None = None) -> dict:
    """Gram invertibility plus witnesses, read off blocks, the gram_blocks
    of alg (built here unless given).

    The T-basis Gram is A G^E B with A and B the torus transforms, which are
    invertible because r is a unit in the field, so it is invertible iff
    every n! x n! block of the E-basis Gram is (singular_block), and the
    colors of one class share a block.  The witness j of the key (a, v) is
    the basis monomial (u.(-a), u), u = w0 v^-1, so tau(j b_k) is the Gram
    entry F_{u,v}(0) = (1/r^n) sum_chi f_{u,v}(chi), the same for every a:
    the sum of the (u, v) entries of the class blocks, each times its
    number of colors.  The T-basis Gram itself is not built."""
    field = alg.field
    if blocks is None:
        blocks = gram_blocks(alg)
    zero, rn = field.zero, field.from_int(alg.r ** alg.n)
    weights = {p: field.from_int(len(members)) for p, members in color_classes(alg).items()}
    partner = {v: sg.compose(alg.w0, alg._inv[v]) for v in alg.perms}
    return {
        "dimension": alg.dimension,
        "gram_invertible": singular_block(alg, blocks) is None,
        "witness_ok": all(
            sum((blocks[p][u].get(v, zero) * weight for p, weight in weights.items()), zero)
            == rn for v, u in partner.items()),
    }


def _flip_holds(alg: YAlgebra, blocks: dict) -> bool:
    """tau(x y) = tau(phi(y) x) on every pair of E-basis keys, from
    gram_blocks: tau(E_a g_u . E_b g_v) = [a = u.b] f_{u,v}(a) / r^n.

    For each key y = (b, v), with phi(y) read off alg.phi, both sides are
    sparse maps x -> value, r^n cancelled.  The left holds f_{u,v}(u.b) at
    the keys (u.b, u), column v of the block of b.  The right sums lam
    f_{v',u}(b') at (a, u), a = v'^-1.b', over the terms lam (b', v') of
    phi(y): row v' of the block of a.  Each block is found through its
    color class.  Neither side stores a zero.

    The check runs once per equality pattern b (equality_pattern), even
    when every color shares one block, since the key test a = u.b depends
    on the pattern of b.  Its premise is that phi commutes with relabeling
    the color values, as (v, w) -> (reversed v, w0 w w0) does: a bijection
    s of the values keeps every class and so every block, and sends both
    sides for b to those for s(b) key by key, so they agree for every
    color of b's pattern when they agree for b."""
    one, act, inv = alg.field.one, alg.act, alg._inv
    classes = {c: color_class(alg, c) for c in alg.colors}
    for b in color_patterns(alg.colors):
        columns = {v: {} for v in alg.perms}
        for u, row in blocks[classes[b]].items():
            x = (act(u, b), u)
            for v, c in row.items():
                columns[v][x] = c
        for v, lhs in columns.items():
            rhs = {}
            for (b2, v2), lam in alg.phi(SparseElement(alg, "E", {(b, v): one})).terms.items():
                a = act(inv[v2], b2)
                for u, c in blocks[classes[a]][v2].items():
                    _acc(rhs, (a, u), lam * c)
            if lhs != rhs:
                return False
    return True


def _flip_pairs_passed(alg: YAlgebra) -> int:
    """Pairs of T-basis keys, x then y in sorted order, with G[x][y] =
    G[phi(y)][x] before the first that fails, each entry read through
    gram_entries; G[phi(y)][x] sums lam G[y'][x] over the terms lam y' of
    phi(b_y)."""
    keys = t_basis_keys(alg)
    entry = gram_entries(alg)
    zero, one = alg.field.zero, alg.field.one
    flips = [list(alg.phi(alg.element({y: one})).terms.items()) for y in keys]
    pairs = 0
    for x in keys:
        for y, flip in zip(keys, flips):
            if not (entry(x, y) == sum((lam * entry(y2, x) for y2, lam in flip), zero)):
                return pairs
            pairs += 1
    return pairs


def nakayama_check(alg: YAlgebra, exhaustive: bool = False, samples: int = 200,
                   seed: int = 0) -> dict:
    """tau(x y) = tau(phi(y) x), exhaustively on basis pairs or sampled.

    The exhaustive check decides it on E-basis pairs (_flip_holds), about
    2 k n!^2 comparisons for k equality patterns of the colors; both sides
    are bilinear and the torus transform is invertible, so that is the
    statement on T-basis pairs.  A pass counts all (r^n n!)^2 pairs, a
    failure the T-basis pairs, in sorted order, that passed before the
    first failing one (_flip_pairs_passed)."""
    if exhaustive:
        if _flip_holds(alg, gram_blocks(alg)):
            return {"mode": "exhaustive", "pairs": alg.dimension ** 2, "ok": True}
        return {"mode": "exhaustive", "pairs": _flip_pairs_passed(alg), "ok": False}
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
    """Coefficient of (chi, w) inside the square of E_chi g_w.

    E_chi g_w E_chi = E_chi E_{w.chi} g_w vanishes unless w.chi = chi, the
    test mul_terms applies through its buckets; only then is the monomial
    square formed."""
    require_q0(alg)
    chi, w = key = (tuple(chi), tuple(w))
    if alg.act(alg._inv[w], chi) != chi:
        return alg.field.zero
    return alg._mono_mul(key, key).get(key, alg.field.zero)


def cell_rank(alg: YAlgebra, key):
    chi, w = key
    return (alg._len[w], w, chi)


def _first_lowering(alg: YAlgebra, colors, tie):
    """The first key (c, w), colors outer and permutations inner, that a
    map of all_generator_maps sends to an image (c2, w2) with w2 of lower
    cell rank, or with w2 = w and tie(c2, c).  Each key's one-term dict is
    built once and every map is applied to it.  cell_rank orders by
    (length, w) first, so each permutation's position in that order is read
    from a table built once, and colors are compared only when the
    permutations tie.  Returns (key, image key), or None."""
    one = alg.field.one
    maps = alg.all_generator_maps()
    order = sorted(alg.perms, key=lambda w: (alg._len[w], w))
    pos = {w: k for k, w in enumerate(order)}
    for c in colors:
        for w in alg.perms:
            key = (c, w)
            x = {key: one}
            rank = pos[w]
            for f in maps:
                for c2, w2 in f(x):
                    r2 = pos[w2]
                    if r2 < rank or (r2 == rank and tie(c2, c)):
                        return key, (c2, w2)
    return None


def triangularity_check(alg: YAlgebra) -> dict:
    """Every generator, acting on either side of a basis monomial, only
    produces monomials of the same or higher cell rank.

    The maps of all_generator_maps read a color only by an equality test
    of two entries, a swap of two entries and a nonzero factor zeta^c, so
    they commute with every relabeling sigma of the color values: the image
    keys of (sigma c, w) are sigma applied to the image keys of (c, w).
    Every color c is sigma p for its equality pattern p, the keys of
    color_patterns, so the maps are first applied at the patterns alone.
    Lex order on colors does not commute with sigma, so there an image
    (c2, w2) of (p, w) is flagged when w2 has lower rank, or w2 = w and
    c2 != p: an offending image (c2, w2) of (sigma p, w) is sigma of the
    image (sigma^-1 c2, w2) of (p, w), and c2 < sigma p gives sigma^-1 c2
    != p.  If no pattern is flagged the check passes.  Otherwise the same
    loop over every color, with the tie c2 < c, decides and returns the
    first offending key in the order colors outer, permutations inner.
    Returns {"ok": bool, "witness": None or the first offending (key,
    image key)}.
    """
    require_q0(alg)
    witness = _first_lowering(alg, color_patterns(alg.colors), operator.ne)
    if witness is not None:
        witness = _first_lowering(alg, alg.colors, operator.lt)
    return {"ok": witness is None, "witness": witness}


def _nonzero_betas(alg: YAlgebra) -> dict:
    """beta at every key (c, w) where it is nonzero.  beta vanishes unless
    w.c = c, so only the fixed colors of each w are visited."""
    require_q0(alg)
    out = {}
    for w in alg.perms:
        for c in sg.fixed_colors(w, alg.r):
            b = beta(alg, c, w)
            if not b.is_zero():
                out[c, w] = b
    return out


def nonzero_cells(alg: YAlgebra) -> list:
    return sorted(_nonzero_betas(alg))


def predicted_cells(alg: YAlgebra) -> list:
    """Keys (c, longest Young element of the flattened run compositions)."""
    out = set()
    for lab in enumerate_labels(alg.r, alg.n):
        flat = tuple(x for comp in lab.parts for x in comp)
        out.add((lab.c, sg.young_longest(flat)))
    return sorted(out)


def classification_match(alg: YAlgebra) -> dict:
    """The nonzero cells against the predicted ones, each predicted beta
    against (-1)^length; beta is computed once per key."""
    betas = _nonzero_betas(alg)
    predicted = predicted_cells(alg)
    obs, pred = set(betas), set(predicted)
    one = alg.field.one
    signs_ok = all(betas.get((c, w), alg.field.zero) == (-one if alg._len[w] % 2 else one)
                   for c, w in predicted)
    return {
        "match": obs == pred,
        "missing": sorted(pred - obs),
        "extra": sorted(obs - pred),
        "count": len(betas),
        "beta_signs_ok": signs_ok,
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
