"""Shared factories and cached analyses for the test suite.

The expensive structural computations (commutator ideal closures, power
dimensions, cell scans) are needed by several acceptance criteria and a few
unit tests; caching them per (r, n, field kind) keeps the suite fast without
weakening any check.
"""

from fractions import Fraction
from functools import lru_cache

from yoklab import AKSAlgebra, NilAlgebra, YAlgebra, make_field
from yoklab.scalars import FieldSpec, _parse_terms, cyclotomic_polynomial
from yoklab import modrep, structure, symgroup as sg
from yoklab.algebra import (SparseElement, braid_relations, far_relations,
                            idempotent_relations, relation_report, sum_block_dims)
from yoklab.aks import _straightening
from yoklab.exactla import Subspace, _acc, closure_under, ideal_power_dims, vec_addmul

FP13 = "fp13"
CYC = "cyc"


@lru_cache(maxsize=None)
def field(kind: str, r: int):
    if kind == CYC:
        return make_field(FieldSpec("CyclotomicRational", r))
    if kind == FP13:
        return make_field(FieldSpec("PrimeField", r, 13))
    raise ValueError(kind)


@lru_cache(maxsize=None)
def yalg(r: int, n: int, kind: str = CYC, q=0) -> YAlgebra:
    return YAlgebra(r, n, field=field(kind, r), q=q)


@lru_cache(maxsize=None)
def aksalg(r: int, n: int, kind: str = CYC, q=0) -> AKSAlgebra:
    return AKSAlgebra(r, n, field=field(kind, r), q=q)


@lru_cache(maxsize=None)
def nilalg(r: int, n: int, kind: str = CYC) -> NilAlgebra:
    return NilAlgebra(r, n, field=field(kind, r))


@lru_cache(maxsize=None)
def classification_analysis(r: int, n: int, kind: str = CYC) -> dict:
    """Everything criterion-3-shaped for one instance: counts, ideal, powers,
    certificate.  Brute force is skipped for (3,3) over the rationals only
    when unaffordable; here it is affordable everywhere required."""
    alg = yalg(r, n, kind)
    ideal = modrep.commutator_ideal(alg)
    dims = modrep.power_dims(alg, ideal)
    cert = modrep.semisimplicity_certificate(alg, ideal=ideal)
    return {
        "dimension": alg.dimension,
        "label_count": modrep.count_labels(r, n),
        "enumerated": len(modrep.enumerate_labels(r, n)),
        "bruteforce": len(modrep.enumerate_one_dim_bruteforce(alg)),
        "ideal_dim": ideal.dim(),
        "power_dims": dims,
        "nilpotent": dims[-1] == 0,
        "index": modrep.nilpotency_index(alg, ideal),
        "certified": cert["certified"],
        "certificate": cert,
    }


@lru_cache(maxsize=None)
def cells_analysis(r: int, n: int, kind: str = CYC) -> dict:
    alg = yalg(r, n, kind)
    tri = structure.triangularity_check(alg)
    match = structure.classification_match(alg)
    return {
        "triangular": tri["ok"],
        "witness": tri["witness"],
        "cells": tuple(structure.nonzero_cells(alg)),
        "count": match["count"],
        "match": match["match"],
        "beta_signs_ok": match["beta_signs_ok"],
    }


@lru_cache(maxsize=None)
def nil_analysis(r: int, n: int, kind: str = CYC) -> dict:
    alg = nilalg(r, n, kind)
    dims = alg.radical_power_dims()
    frob = structure.frobenius_check(alg)
    reps = modrep.enumerate_one_dim_bruteforce(alg)
    cells = structure.nonzero_cells(alg)
    minimal = all(nil_minimal_ideal_check(alg, chi)["ok"] for chi in alg.colors)
    return {
        "dimension": alg.dimension,
        "radical_dim": dims[0],
        "power_dims": dims,
        "index": 1 if dims[0] == 0 else len(dims),
        "simple_count": len(reps),
        "gram_invertible": frob["gram_invertible"],
        "witness_ok": frob["witness_ok"],
        "minimal_ideals_ok": minimal,
        "cells": tuple(cells),
        "cells_all_identity": all(w == alg.ident for (_, w) in cells),
    }


def nil_minimal_ideal_check(alg, chi) -> dict:
    """E_chi T_{w0} spans a two-sided ideal of the nil algebra alg of
    dimension one, on which t_j acts by zeta^{chi_j} and every T_i by 0."""
    chi = tuple(chi)
    v = (alg.E_idem(chi) * alg.T_w(alg.w0)).terms
    closure = closure_under(alg.field, alg.all_generator_maps(), [v])
    eigen_ok = all(alg._lmul_t(v, j) == {k: alg.field.zeta_pow(chi[j - 1]) * c
                                         for k, c in v.items()}
                   for j in range(1, alg.n + 1))
    kill_ok = all(not alg._lmul_g(v, i) for i in range(1, alg.n))
    return {"chi": chi, "dim": closure.dim(),
            "eigen_ok": eigen_ok, "annihilated_ok": kill_ok,
            "ok": closure.dim() == 1 and eigen_ok and kill_ok}


def y_full_seeds(alg) -> list:
    """[g_i, g_{i+1}], [g_i, t_i] and [g_i, t_{i+1}] in the E basis: the
    commutator seeds of the whole algebra, with no color blocks."""
    n = alg.n
    g = [None] + [alg.gen_g(i) for i in range(1, n)]
    t = [None] + [alg.gen_t(j) for j in range(1, n + 1)]
    seeds = [(g[i] * g[i + 1] - g[i + 1] * g[i]).as_E().terms for i in range(1, n - 1)]
    for i in range(1, n):
        seeds.append((g[i] * t[i] - t[i] * g[i]).as_E().terms)
        seeds.append((g[i] * t[i + 1] - t[i + 1] * g[i]).as_E().terms)
    return [s for s in seeds if s]


@lru_cache(maxsize=None)
def y_full_ideal(r: int, n: int, kind: str = CYC) -> Subspace:
    """The commutator ideal of Y as one closure under every generator map:
    an oracle for the blocked modrep.commutator_ideal."""
    alg = yalg(r, n, kind)
    return closure_under(alg.field, alg.all_generator_maps(), y_full_seeds(alg))


@lru_cache(maxsize=None)
def y_full_power_dims(r: int, n: int, kind: str = CYC) -> list:
    """Power dimensions of y_full_ideal by the seeded recurrence on the whole
    algebra: an oracle for the blocked modrep.power_dims."""
    alg = yalg(r, n, kind)
    return ideal_power_dims(alg.field, alg.mul_terms, y_full_ideal(r, n, kind),
                            seeds=y_full_seeds(alg), right_maps=alg.rmul_gen_maps())


@lru_cache(maxsize=None)
def aks_ideal_power_dims(r: int, n: int, kind: str = CYC) -> list:
    a = aksalg(r, n, kind)
    ideal = closure_under(a.field, a.all_generator_maps(), a.commutator_seeds())
    return ideal_power_dims(a.field, a.mul_terms, ideal,
                            seeds=a.commutator_seeds(),
                            right_maps=a.rmul_gen_maps())


def y_block_seeds(alg, orbit) -> list:
    """Generators of the block J e_O of Y's commutator ideal J, O = orbit,
    from their definition: the commutators [g_i, g_{i+1}] e_O and
    [g_i, E_chi] = E_{s_i chi} g_i - E_chi g_i for chi in O, each split into
    its (left color, right color) components, as a reduced basis of their
    span.  An oracle for the words of modrep.commutator_words on the units
    E_chi, which seed modrep.commutator_ideal."""
    one = alg.field.one
    e = {(chi, alg.ident): one for chi in orbit}
    seeds = []
    for i in range(1, alg.n - 1):
        s = alg._lmul_g(alg._lmul_g(e, i + 1), i)
        vec_addmul(s, -one, alg._lmul_g(alg._lmul_g(e, i), i + 1))
        seeds.append(s)
    for i in range(1, alg.n):
        for chi in orbit:
            x = {(chi, alg.ident): one}
            s = alg._lmul_g(x, i)
            vec_addmul(s, -one, alg._rmul_g(x, i))
            seeds.append(s)
    parts = []
    for s in seeds:
        split: dict = {}
        for (chi, w), c in s.items():
            split.setdefault((chi, alg.act(alg._inv[w], chi)), {})[(chi, w)] = c
        parts += split.values()
    return list(closure_under(alg.field, [], parts).rows.values())


def nil_block_seeds(alg, orbit) -> list:
    """E_chi T_i for chi in orbit and each i, the monomials that generate
    the block of the nil radical at the orbit: an oracle for
    NilAlgebra.radical_words on the units E_chi."""
    return [{(chi, sg.right_mult_s(alg.ident, i)): alg.field.one}
            for i in range(1, alg.n) for chi in orbit]


def aks_cut_seeds(a, orbit, seeds) -> list:
    """A reduced basis of the product seeds, commutator_seeds() of the AKS
    engine a, cut to the colors in orbit: the definitional generators of
    the block J L_O, O = orbit, of the commutator ideal J."""
    inside = set(orbit)
    cut = [{k: v for k, v in s.items() if k[0] in inside} for s in seeds]
    return list(closure_under(a.field, [], [s for s in cut if s]).rows.values())


def aks_orbit_block(a, orbit) -> tuple:
    """(cut seeds, right maps, ideal) of the block J L_O of the AKS
    commutator ideal J, O = orbit, from the definitional product seeds:
    aks_cut_seeds, the right generator maps of the block, and the closure
    of the cut seeds under its maps."""
    cut = aks_cut_seeds(a, orbit, a.commutator_seeds())
    left, right = a._block_maps(orbit)
    return cut, right, closure_under(a.field, left + right, cut)


@lru_cache(maxsize=None)
def aks_orbit_power_dims(r: int, n: int, kind: str = CYC) -> list:
    """AKS commutator power dimensions with every orbit block L_O powered
    on its own, by mul_terms products with the seeds cut to O: an oracle
    for the word step on one orbit per class."""
    a = aksalg(r, n, kind)
    blocks = []
    for orbit in a.central_color_blocks():
        cut, right, ideal = aks_orbit_block(a, orbit)
        blocks.append((1, ideal_power_dims(a.field, a.mul_terms, ideal, cut, right)))
    return sum_block_dims(blocks)


def dense_rank(field, rows) -> int:
    """Exact rank of a dense matrix (a list of scalar lists): an oracle for
    the sparse Subspace rank."""
    return len(dense_rref(field, rows))


def dense_rref(field, rows) -> list:
    """The nonzero rows of the reduced row echelon form of a dense matrix,
    a list of scalar lists, by Gauss-Jordan elimination: an oracle for the
    sparse Subspace rows, with the columns in key order."""
    mat = [list(r) for r in rows]
    if not mat:
        return []
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if not mat[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [inv * x for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and not mat[i][col].is_zero():
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return mat[:rank]


def aks_right_product(alg, x: dict, y: dict) -> dict:
    """x y in the AKS engine as the right action of each term L_d h_v of y
    on x, through _rmul_L and a reduced word of _rmul_h: the seed products
    the piece step of AKSAlgebra._piece_step replaces."""
    out: dict = {}
    for (d, v), b in y.items():
        z = alg._rmul_L(x, d)
        for i in alg._rword[v]:
            z = alg._rmul_h(z, i)
        vec_addmul(out, b, z)
    return out


def aks_pieces(alg, x: dict, orbit) -> list:
    """The nonzero Peirce pieces (d, L_c x L_d) of x over c, d in orbit, in
    that order, with x L_d by aks_right_product: an oracle for the tagged
    pieces of the AKS engine."""
    one = alg.field.one
    out = []
    for c in orbit:
        left = {k: v for k, v in x.items() if k[0] == c}
        if left:
            for d in orbit:
                y = aks_right_product(alg, left, {(d, alg.ident): one})
                if y:
                    out.append((d, y))
    return out


def pairwise_power_dims(field, product, sub) -> list:
    """Dimensions of J, J^2, ... down to 0, each power spanned by all
    products of a basis row of the last one with a basis row of J: an
    oracle for the seeded recurrence of exactla.ideal_power_dims."""
    dims = [sub.dim()]
    cur, base = sub, list(sub.rows.values())
    while dims[-1]:
        nxt = Subspace(field)
        for a in cur.rows.values():
            for b in base:
                nxt.insert(product(a, b))
        if nxt.dim() == dims[-1]:
            raise ArithmeticError("ideal is not nilpotent")
        dims.append(nxt.dim())
        cur = nxt
    return dims


def nil_monomial_mul_terms(alg, x: dict, y: dict) -> dict:
    """Product of two NIL-basis dicts by the monomial rule
    (t^a T_u)(t^b T_v) = t^(a + u.b) T_{uv} when the lengths add, else 0:
    an oracle for the nil algebra's E-basis engine."""
    out: dict = {}
    for (a, u), cx in x.items():
        for (b, v), cy in y.items():
            uv = sg.compose(u, v)
            if sg.length(uv) != sg.length(u) + sg.length(v):
                continue
            ub = sg.act_on_colors(u, b)
            _acc(out, (tuple((p + s) % alg.r for p, s in zip(a, ub)), uv), cx * cy)
    return out


def pairwise_gram(alg, basis=None, product=None):
    """tau(b_i b_j) over the sorted T-basis keys, with one product per pair
    of key forms written in basis (the multiplication basis by default)
    and multiplied by product (alg.mul_terms by default): an oracle for the
    transform-built structure.gram_matrix.  For the nil algebra, basis
    "NIL" and nil_monomial_mul_terms give its former one-term route."""
    keys = structure.t_basis_keys(alg)
    one = alg.field.one
    basis = basis or alg.mul_basis
    product = product or alg.mul_terms
    forms = [alg.element({k: one}).in_basis(basis).terms for k in keys]
    rows = [[structure.tau_terms(alg, product(x, y), basis) for y in forms]
            for x in forms]
    return keys, rows


def dense_frobenius(alg) -> dict:
    """structure.frobenius_check by the route it replaced: elimination of
    the whole T-basis Gram matrix, every row inserted into one Subspace,
    and each witness entry tau(j b_k) read off its rows.  An oracle for the
    n! x n! E-basis blocks."""
    keys, rows = structure.gram_matrix(alg)
    pos = {k: i for i, k in enumerate(keys)}
    witness_ok = all(
        rows[pos[next(iter(structure.frobenius_witness(alg, k).terms))]][i] == alg.field.one
        for i, k in enumerate(keys))
    sub = Subspace(alg.field)
    invertible = all(sub.insert({j: c for j, c in enumerate(row) if not c.is_zero()})
                     is not None for row in rows)
    return {"dimension": len(keys), "gram_invertible": invertible,
            "witness_ok": witness_ok}


def dense_nakayama(alg) -> dict:
    """structure.nakayama_check(exhaustive=True) by the route it replaced:
    the whole T-basis Gram matrix G, and G[x][y] = G[phi(y)][x], that is
    tau(b_x b_y) = tau(phi(b_y) b_x), on every pair of basis keys, x then
    y, with G[phi(y)][x] the sum of lam G[y'][x] over the terms lam b_y'
    of phi(b_y).  pairs counts the pairs that passed.  An oracle for the
    E-basis route."""
    keys, rows = structure.gram_matrix(alg)
    pos = {k: i for i, k in enumerate(keys)}
    zero, one = alg.field.zero, alg.field.one
    flips = [[(pos[k2], lam) for k2, lam in alg.phi(alg.element({k: one})).terms.items()]
             for k in keys]
    pairs = 0
    for ix, row in enumerate(rows):
        for iy, entry in enumerate(row):
            if not (entry == sum((lam * rows[iy2][ix] for iy2, lam in flips[iy]), zero)):
                return {"mode": "exhaustive", "pairs": pairs, "ok": False}
            pairs += 1
    return {"mode": "exhaustive", "pairs": pairs, "ok": True}


def phi_reference(alg, x):
    """The flip phi by its key map, formed per term with symgroup: (v, w)
    -> (reversed v, w0 w w0), in x's basis.  The reference for the flip
    table that YAlgebra.phi reads."""
    out = {}
    for (v, w), c in x.terms.items():
        out[(tuple(reversed(v)), sg.compose(alg.w0, sg.compose(w, alg.w0)))] = c
    return SparseElement(alg, x.basis, out)


def phi_reversal_only(alg):
    """A broken flip for alg: the key map (v, w) -> (reversed v, w), which
    leaves out the w0-conjugation of the permutation (at n = 2 that
    conjugation is the identity, so the map is phi there)."""
    def phi(x):
        return SparseElement(alg, x.basis, {(tuple(reversed(v)), w): c
                                            for (v, w), c in x.terms.items()})
    return phi


def phi_colors_kept(alg):
    """A broken flip for alg: the key map (v, w) -> (v, w0 w w0), which
    leaves out the reversal of v.  It agrees with phi on every constant
    color, so only a check that reaches a color with two distinct entries
    can see it (at r = 1 there is none, and the map is phi)."""
    def phi(x):
        return SparseElement(alg, x.basis, {(v, alg._flip[w]): c
                                            for (v, w), c in x.terms.items()})
    return phi


def presentation_2_in_T(alg) -> dict:
    """YAlgebra.verify_presentation(2) by the route it replaced: every
    operand stays in the T basis, so each product goes to E and back, and
    each residual is tested for zero in T.  An oracle for the route that
    decides the residuals in E."""
    n, r, one = alg.n, alg.r, alg.one("T")
    inv_rn = alg.field.one / alg.field.from_int(r ** n)
    idems = {chi: SparseElement(alg, "T", {
        (a, alg.ident): inv_rn * alg.field.zeta_pow(-sum(x * c for x, c in zip(a, chi)) % r)
        for a in alg.exponents}) for chi in alg.colors}
    g = [None] + [alg.gen_g(i) for i in range(1, n)]
    t = [None] + [alg.gen_t(j) for j in range(1, n + 1)]
    rels = idempotent_relations(idems, "E", "chi")
    for j in range(1, n + 1):
        for chi in alg.colors:
            rels.append((f"t{j} E{chi} = zeta^{chi[j-1]} E{chi}",
                         t[j] * idems[chi] - idems[chi] * alg.field.zeta_pow(chi[j - 1])))
    for i in range(1, n):
        for chi in alg.colors:
            schi = sg.right_mult_s(chi, i)
            rels.append((f"g{i} E{chi} = E{schi} g{i}",
                         g[i] * idems[chi] - idems[schi] * g[i]))
    for i in range(1, n):
        esum = sum((idems[chi] for chi in alg.colors if chi[i - 1] == chi[i]), alg.zero("T"))
        rels.append((f"e{i} = sum of diagonal E", alg.e_idem(i) - esum))
        quad = g[i] * g[i] - (one * alg.q + (esum * g[i]) * alg.qm1)
        rels.append((f"g{i}^2 via E form", quad))
    return relation_report(2, rels + braid_relations(g, "g") + far_relations(g, "g"))


def one_term_gram_tables(alg) -> dict:
    """f[u, v] = {chi: the (chi, w0) coefficient of E_chi g_u . g_v}, each
    product formed from the one-term dict {(chi, u): 1}, one right
    multiplication per (u, chi, v != 1), zero values left out: an oracle
    for the one pass per u of structure.gram_blocks."""
    w0, one = alg.w0, alg.field.one
    by_length = sorted(alg.perms, key=alg._len.__getitem__)
    f = {(u, v): {} for u in alg.perms for v in alg.perms}
    for u in alg.perms:
        for chi in alg.colors:
            prods = {alg.ident: {(chi, u): one}}
            for v in by_length[1:]:
                i = alg._rword[v][-1]
                prods[v] = alg._rmul_g(prods[alg._rstep[i][v][0]], i)
            for v, p in prods.items():
                c = p.get((chi, w0))
                if c is not None:
                    f[u, v][chi] = c
    return f


def all_color_gram_blocks(alg) -> dict:
    """blocks[c][u] = {v: f_{u,v}(u.c)} for every color c, the layout
    structure.gram_blocks had before it kept one block per color class:
    each pass per u carries all r^n colors, as the flat dict {(chi, u):
    1}, through the g_v by YAlgebra._rmul_g, one step per (u, v != 1).
    An oracle for the class blocks and their q = 0 walk, which must equal
    the block of each of their colors."""
    w0, one, step = alg.w0, alg.field.one, alg._rmul_g
    order = []
    for v in sorted(alg.perms, key=alg._len.__getitem__)[1:]:
        i = alg._rword[v][-1]
        order.append((v, alg._rstep[i][v][0], i))
    blocks = {c: {} for c in alg.colors}
    for u in alg.perms:
        prods = {alg.ident: {(chi, u): one for chi in alg.colors}}
        for v, shorter, i in order:
            prods[v] = step(prods[shorter], i)
        rows = {chi: {} for chi in alg.colors}
        for v, p in prods.items():
            for (chi, w), c in p.items():
                if w == w0:
                    rows[chi][v] = c
        for chi, row in rows.items():
            blocks[tuple(chi[k - 1] for k in u)][u] = row
    return blocks


def all_color_flip_holds(alg, blocks) -> bool:
    """structure._flip_holds on the all-color blocks of
    all_color_gram_blocks, run once per color b rather than once per
    equality pattern: an oracle for the per-pattern check."""
    one, act, inv = alg.field.one, alg.act, alg._inv
    for b, block in blocks.items():
        columns = {v: {} for v in alg.perms}
        for u, row in block.items():
            x = (act(u, b), u)
            for v, c in row.items():
                columns[v][x] = c
        for v, lhs in columns.items():
            rhs = {}
            for (b2, v2), lam in alg.phi(SparseElement(alg, "E", {(b, v): one})).terms.items():
                a = act(inv[v2], b2)
                for u, c in blocks[a][v2].items():
                    _acc(rhs, (a, u), lam * c)
            if lhs != rhs:
                return False
    return True


def gram_row(alg, blocks, u, chi) -> dict:
    """{v: f_{u,v}(chi)}, the row u of the block of the color c with u.c =
    chi, found through the class of c: where gram_blocks keeps the values
    f_{u,v}(chi) for this u and chi."""
    return blocks[structure.color_class(alg, alg.act(alg._inv[u], chi))][u]


def patch_gram_blocks(monkeypatch, edit):
    """Make structure.gram_blocks return its blocks after edit(alg, blocks)."""
    build = structure.gram_blocks

    def patched(alg):
        blocks = build(alg)
        edit(alg, blocks)
        return blocks

    monkeypatch.setattr(structure, "gram_blocks", patched)


def singular_block_mutant(monkeypatch, c):
    """Make the E-basis Gram block of the color c, and so of every color of
    its class, singular and leave every other class block as it is: the row
    of the identity repeats the row of w0 (for n = 1, where they coincide,
    the one row is emptied)."""
    def edit(alg, blocks):
        block = blocks[structure.color_class(alg, c)]
        block[alg.ident] = dict(block[alg.w0]) if alg.ident != alg.w0 else {}
    patch_gram_blocks(monkeypatch, edit)


def all_keys_nonzero_betas(alg) -> dict:
    """beta at every key (c, w) where it is nonzero, found by evaluating
    structure.beta at all r^n n! keys: an oracle for the fixed-color scan
    of structure._nonzero_betas."""
    out = {}
    for c in alg.colors:
        for w in alg.perms:
            b = structure.beta(alg, c, w)
            if not b.is_zero():
                out[c, w] = b
    return out


def cycle_count(w) -> int:
    """Number of cycles of the permutation w, singletons included."""
    seen, count = set(), 0
    for start in w:
        if start not in seen:
            count += 1
            k = start
            while k not in seen:
                seen.add(k)
                k = w[k - 1]
    return count


@lru_cache(maxsize=None)
def nil_full_radical(r: int, n: int, kind: str = CYC) -> Subspace:
    """The nil radical as one closure of T_1, ..., T_{n-1} under every
    generator map, in the E basis: an oracle for the blocked nil radical."""
    alg = nilalg(r, n, kind)
    return closure_under(alg.field, alg.all_generator_maps(),
                         [alg.gen_T(i).as_E().terms for i in range(1, n)])


class FractionCycScalar:
    """Element of Q(zeta_r) as a tuple of Fraction coordinates in the power
    basis: an oracle for the integer-numerator scalars.CycScalar."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: "FractionCyclotomicField", coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _lift(self, other):
        if isinstance(other, FractionCycScalar):
            if other.field is self.field or other.field.r == self.field.r:
                return other
            raise TypeError("scalars from different fields")
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(Fraction(other))
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionCycScalar(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return FractionCycScalar(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return FractionCycScalar(self.field, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.field._mul(self, o)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        return self.field._inv(self)

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = self.field.one
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash(("cyc", self.field.r, self.coeffs))

    def __repr__(self):
        return self.field.render(self)


class FractionCyclotomicField:
    """Q(zeta_r) over FractionCycScalar: an oracle for scalars.CyclotomicField."""

    def __init__(self, r: int):
        if r < 1:
            raise ValueError("r must be >= 1")
        self.r = r
        phi = cyclotomic_polynomial(r)
        self.degree = d = len(phi) - 1
        self._phi = phi
        # reduction rows for X^d .. X^(2d-2) modulo Phi_r
        rows = []
        if d > 1:
            cur = [Fraction(-c) for c in phi[:d]]
            rows.append(tuple(cur))
            for _ in range(d - 2):
                top = cur[-1]
                cur = [Fraction(0)] + cur[:-1]
                if top:
                    cur = [a + top * b for a, b in zip(cur, rows[0])]
                rows.append(tuple(cur))
        self._red = tuple(rows)
        self.zero = FractionCycScalar(self, (Fraction(0),) * d)
        one = [Fraction(0)] * d
        one[0] = Fraction(1)
        self.one = FractionCycScalar(self, tuple(one))
        if d == 1:
            # Phi linear: X is congruent to -phi[0]
            self.zeta = self.from_fraction(Fraction(-phi[0]))
        else:
            z = [Fraction(0)] * d
            z[1] = Fraction(1)
            self.zeta = FractionCycScalar(self, tuple(z))
        self._zeta_pows = None

    # -- construction ------------------------------------------------------
    def from_fraction(self, f) -> FractionCycScalar:
        f = Fraction(f)
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = f
        return FractionCycScalar(self, tuple(coeffs))

    def from_int(self, k: int) -> FractionCycScalar:
        return self.from_fraction(Fraction(k))

    def zeta_pow(self, k: int) -> FractionCycScalar:
        if self._zeta_pows is None:
            zp = [self.one]
            for _ in range(self.r - 1):
                zp.append(self._mul(zp[-1], self.zeta))
            self._zeta_pows = zp
        return self._zeta_pows[k % self.r]

    # -- arithmetic core ---------------------------------------------------
    def _mul(self, a: FractionCycScalar, b: FractionCycScalar) -> FractionCycScalar:
        d = self.degree
        if d == 1:
            return FractionCycScalar(self, (a.coeffs[0] * b.coeffs[0],))
        conv = [Fraction(0)] * (2 * d - 1)
        for i, ai in enumerate(a.coeffs):
            if ai:
                for j, bj in enumerate(b.coeffs):
                    if bj:
                        conv[i + j] += ai * bj
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            ck = conv[k]
            if ck:
                row = self._red[k - d]
                out = [o + ck * rc for o, rc in zip(out, row)]
        return FractionCycScalar(self, tuple(out))

    def _inv(self, a: FractionCycScalar) -> FractionCycScalar:
        d = self.degree
        if d == 1:
            return FractionCycScalar(self, (1 / a.coeffs[0],))
        # extended euclid of a against Phi_r in Q[X]
        def strip(p):
            while len(p) > 1 and p[-1] == 0:
                p = p[:-1]
            return p

        def polydivmod(num, den):
            num = list(num)
            q = [Fraction(0)] * max(1, len(num) - len(den) + 1)
            for k in range(len(num) - len(den), -1, -1):
                c = num[k + len(den) - 1] / den[-1]
                q[k] = c
                if c:
                    for j, dj in enumerate(den):
                        num[k + j] -= c * dj
            return q, strip(num[: len(den) - 1] or [Fraction(0)])

        r0 = [Fraction(c) for c in self._phi]
        r1 = strip(list(a.coeffs))
        t0, t1 = [Fraction(0)], [Fraction(1)]
        while len(r1) > 1:
            q, rem = polydivmod(r0, r1)
            r0, r1 = r1, rem
            # t_new = t0 - q*t1
            prod = [Fraction(0)] * (len(q) + len(t1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, tj in enumerate(t1):
                        prod[i + j] += qi * tj
            width = max(len(t0), len(prod))
            t_new = [(t0[i] if i < len(t0) else 0) - (prod[i] if i < len(prod) else 0)
                     for i in range(width)]
            t0, t1 = t1, strip(t_new)
        c = r1[0]
        if c == 0:
            raise ZeroDivisionError("scalar inverse of zero")
        inv = [ti / c for ti in t1]
        inv = (inv + [Fraction(0)] * d)[:d]
        return FractionCycScalar(self, tuple(inv))

    # -- text format ---------------------------------------------------
    def parse(self, text: str) -> FractionCycScalar:
        out = self.zero
        for coeff, exp in _parse_terms(text):
            out = out + self.from_fraction(coeff) * self.zeta_pow(exp)
        return out

    def render(self, s: FractionCycScalar) -> str:
        pieces = []
        for k, c in enumerate(s.coeffs):
            if not c:
                continue
            neg = c < 0
            mag = -c if neg else c
            if k == 0:
                body = str(mag)
            elif mag == 1:
                body = f"z^{k}"
            else:
                body = f"{mag}*z^{k}"
            pieces.append((neg, body))
        if not pieces:
            return "0"
        first_neg, first = pieces[0]
        text = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            text += (" - " if neg else " + ") + body
        return text

    def __repr__(self):
        return f"FractionCyclotomicField({self.r})"


def aks_scalar_rep_ok_all_colors(alg, c_star, xs) -> bool:
    """AKSAlgebra._scalar_rep_ok with the straightening residual checked at
    every color c, not only at c_star and s_i c_star."""
    one, zero = alg.field.one, alg.field.zero

    def lval(c):
        return one if c == c_star else zero

    for i in range(1, alg.n):
        x = xs[i - 1]
        if not (x * x - (alg.q + alg.qm1 * x)).is_zero():
            return False
        for c in alg.colors:
            d = _straightening(c, i, lval, zero)
            if not (x * lval(c) - lval(sg.right_mult_s(c, i)) * x + alg.qm1 * d).is_zero():
                return False
    return True


# -- generator maps computed per term through symgroup ----------------------
# The engine maps read w s_i and s_i w from the permutation tables built in
# SparseAlgebra.__init__; these recompute both, and the length change, per
# term through symgroup, and serve as oracles for the engine maps.

def y_rmul_g_oracle(alg, terms: dict, i: int) -> dict:
    q, qm1 = alg._q, alg._qm1
    out: dict = {}
    for (chi, w), a in terms.items():
        wsi = sg.right_mult_s(w, i)
        if w[i - 1] < w[i]:
            _acc(out, (chi, wsi), a)
        else:
            if q is not None:
                _acc(out, (chi, wsi), a * q)
            if qm1 is not None and chi[w[i - 1] - 1] == chi[w[i] - 1]:
                _acc(out, (chi, w), a * qm1)
    return out


def y_lmul_g_oracle(alg, terms: dict, i: int) -> dict:
    q, qm1 = alg._q, alg._qm1
    out: dict = {}
    for (chi, w), a in terms.items():
        winv = alg._inv[w]
        siw = sg.left_mult_s(i, w)
        schi = list(chi)
        schi[i - 1], schi[i] = schi[i], schi[i - 1]
        schi = tuple(schi)
        if winv[i - 1] < winv[i]:
            _acc(out, (schi, siw), a)
        else:
            if q is not None:
                _acc(out, (schi, siw), a * q)
            if qm1 is not None and chi[i - 1] == chi[i]:
                _acc(out, (chi, w), a * qm1)
    return out


def aks_lmul_h_oracle(alg, terms: dict, i: int) -> dict:
    out: dict = {}
    for (c, w), a in terms.items():
        sc = list(c)
        sc[i - 1], sc[i] = sc[i], sc[i - 1]
        sc = tuple(sc)
        winv = alg._inv[w]
        siw = sg.left_mult_s(i, w)
        if winv[i - 1] < winv[i]:
            _acc(out, (sc, siw), a)
        else:
            _acc(out, (sc, siw), a * alg.q)
            _acc(out, (sc, w), a * alg.qm1)
        if c[i - 1] < c[i]:
            _acc(out, (c, w), a * alg.qm1)
        elif c[i - 1] > c[i]:
            _acc(out, (sc, w), -(a * alg.qm1))
    return out


def aks_rmul_h_oracle(alg, terms: dict, i: int) -> dict:
    out: dict = {}
    for (c, w), a in terms.items():
        wsi = sg.right_mult_s(w, i)
        if w[i - 1] < w[i]:
            _acc(out, (c, wsi), a)
        else:
            _acc(out, (c, wsi), a * alg.q)
            _acc(out, (c, w), a * alg.qm1)
    return out


def generator_map_oracles(alg) -> list:
    """(engine method name, oracle) for the s_i maps of alg's engine."""
    if isinstance(alg, AKSAlgebra):
        return [("_lmul_h", aks_lmul_h_oracle), ("_rmul_h", aks_rmul_h_oracle)]
    return [("_lmul_g", y_lmul_g_oracle), ("_rmul_g", y_rmul_g_oracle)]


def y_q0_gmap_reference(alg, terms: dict, i: int, side: str) -> dict:
    """The q = 0 kernel of Y's g_i maps from the relation alone: g_i on the
    right ("r") or the left ("l") takes (chi, w) to its up-step key, (chi,
    w s_i) or (s_i chi, s_i w), with coefficient a when that raises the
    length, and otherwise to (q - 1) [color test] (chi, w).  Lengths are
    counted by symgroup, not read from the engine's step tables; q - 1 is
    read from alg, which may have been reassigned."""
    out: dict = {}
    for (chi, w), a in terms.items():
        if side == "r":
            key = (chi, sg.right_mult_s(w, i))
            test = chi[w[i - 1] - 1] == chi[w[i] - 1]
        else:
            key = (sg.right_mult_s(chi, i), sg.left_mult_s(i, w))
            test = chi[i - 1] == chi[i]
        if sg.length(key[1]) > sg.length(w):
            _acc(out, key, a)
        elif test:
            _acc(out, (chi, w), alg.qm1 * a)
    return out


def y_commutator_words_reference(alg, row: dict, c: tuple) -> list:
    """The full word list of row against the generators of Y's commutator
    ideal with left color c: R_i(row) for each i with c_i != c_{i+1}, then
    for each i <= n - 2 the braid difference R_{i+1}(R_i row) -
    R_i(R_{i+1} row) when c_i = c_{i+1} = c_{i+2}, or else both braid words
    on their own.  Each is row times one generator's component, so this is
    the reference that modrep.commutator_words, which drops the braid words
    of non-constant triples, is checked against."""
    one = alg.field.one
    images = [None] + [alg._rmul_g(row, i) for i in range(1, alg.n)]
    words = [images[i] for i in range(1, alg.n) if c[i - 1] != c[i]]
    for i in range(1, alg.n - 1):
        up = alg._rmul_g(images[i], i + 1)
        down = alg._rmul_g(images[i + 1], i)
        if c[i - 1] == c[i] == c[i + 1]:
            vec_addmul(up, -one, down)
            words.append(up)
        else:
            words += [up, down]
    return words
