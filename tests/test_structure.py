import json
import random
from fractions import Fraction

import pytest

from yoklab import NilAlgebra, SparseElement, YAlgebra, algebra, structure, symgroup as sg
from yoklab.exactla import _acc
from yoklab.modrep import count_labels
from yoklab.structure import (
    beta,
    cell_rank,
    classification_match,
    frobenius_check,
    frobenius_witness,
    gram_matrix,
    gram_to_json,
    nakayama_check,
    nonzero_cells,
    phi_checks,
    predicted_cells,
    proof_identities,
    tau,
    triangularity_check,
)

import _helpers as H


def test_tau_frozen_values():
    alg = H.yalg(2, 3)
    assert tau(alg, alg.g_w(alg.w0)) == alg.field.one
    assert tau(alg, alg.one()).is_zero()
    assert tau(alg, alg.gen_t(1) * alg.g_w(alg.w0)).is_zero()
    # the same expression in the E basis gives the same functional
    x = (alg.gen_t(1) * alg.g_w(alg.w0)).as_E()
    assert tau(alg, x).is_zero()


def test_tau_two_term_combination():
    # t_1 g_{w0} + 3 g_{s1}: the w0 term carries the trace at r = 1 where the
    # torus is trivial; for r >= 2 its torus exponent is nonzero
    alg1 = H.yalg(1, 3)
    s1 = sg.right_mult_s(alg1.ident, 1)
    x = alg1.gen_t(1) * alg1.g_w(alg1.w0) + alg1.g_w(s1) * 3
    assert tau(alg1, x) == alg1.field.one
    alg2 = H.yalg(2, 3)
    s1 = sg.right_mult_s(alg2.ident, 1)
    y = alg2.gen_t(1) * alg2.g_w(alg2.w0) + alg2.g_w(s1) * 3
    assert tau(alg2, y).is_zero()
    # and the bare longest monomial with coefficient 3 reads off a 3
    z = alg2.g_w(alg2.w0) * 3 + alg2.gen_t(1) * alg2.g_w(alg2.w0)
    assert tau(alg2, z) == alg2.field.from_int(3)


def test_gram_1_2_frozen():
    alg = H.yalg(1, 2)
    keys, rows = gram_matrix(alg)
    assert keys == [((0, 0), (1, 2)), ((0, 0), (2, 1))]
    f = alg.field
    assert rows == [[f.zero, f.one], [f.one, -f.one]]


def test_permutation_only_pairing_is_degenerate():
    # a pairing that only sees the permutation part (sum of all w0-row
    # T-coefficients, regardless of torus exponent) collapses for r >= 2:
    # (t_1 - t_2) g_{w0} pairs to zero with everything.  tau reads the single
    # monomial t^0 g_{w0} instead, and that Gram matrix has full rank.
    alg = H.yalg(2, 2)
    keys = structure.t_basis_keys(alg)
    e_forms = [alg.to_E({k: alg.field.one}) for k in keys]

    def perm_only(terms):
        acc = alg.field.zero
        for (a, w), v in alg.to_T(terms).items():
            if w == alg.w0:
                acc = acc + v
        return acc

    naive = [[perm_only(alg.mul_terms(x, y)) for y in e_forms] for x in e_forms]
    assert H.dense_rank(alg.field, naive) == 2
    _, rows = gram_matrix(alg)
    assert H.dense_rank(alg.field, rows) == 8
    # the explicit kernel element
    kernel = (alg.gen_t(1) - alg.gen_t(2)) * alg.g_w(alg.w0)
    basis = [alg.element({k: alg.field.one}, "T") for k in keys]
    assert all(perm_only((kernel * b).as_E().terms).is_zero() for b in basis)
    assert not all(tau(alg, kernel * b).is_zero() for b in basis)


def test_frobenius_with_witness_and_permuted_identity():
    for (r, n) in [(1, 3), (2, 2), (3, 2)]:
        alg = H.yalg(r, n)
        res = frobenius_check(alg)
        assert res["gram_invertible"], (r, n)
        assert res["witness_ok"], (r, n)
        assert nakayama_check(alg, exhaustive=True)["ok"], (r, n)


def test_witness_element_shape():
    alg = H.yalg(2, 2)
    key = ((1, 0), (2, 1))
    j = frobenius_witness(alg, key)
    h = alg.element({key: alg.field.one}, "T")
    assert tau(alg, j * h) == alg.field.one


def test_nakayama():
    assert nakayama_check(H.yalg(2, 2), exhaustive=True)["ok"]
    out = nakayama_check(H.yalg(3, 2), samples=100, seed=4)
    assert out == {"mode": "sampled", "pairs": 100, "ok": True}


def test_phi_checks():
    res = phi_checks(H.yalg(2, 3))
    assert res["ok"] and res["generators_ok"]


@pytest.mark.parametrize("engine", ["y", "nil"])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_tau_is_the_w0_sum_over_r_to_the_n(engine, r, kind):
    # E basis: (1/r^n) times the sum of the (chi, w0) coefficients, with
    # 1/r^n formed here; exponent basis: the (0, w0) coefficient
    n = 3
    alg = (H.yalg if engine == "y" else H.nilalg)(r, n, kind)
    f, w0 = alg.field, alg.w0
    inv = f.one / f.from_int(r ** n)
    rng = random.Random(7 * r + len(kind))
    for _ in range(15):
        terms = dict(alg.random_element(rng).terms)
        for chi in rng.sample(alg.colors, min(3, len(alg.colors))):
            _acc(terms, (chi, w0), f.from_int(rng.choice([-3, -1, 1, 2, 5])))
        x = SparseElement(alg, "E", terms)
        want = sum((c for (chi, w), c in terms.items() if w == w0), f.zero) * inv
        assert tau(alg, x) == want
        xt = x.in_basis(next(iter(alg.bases)))
        assert tau(alg, xt) == xt.terms.get(((0,) * n, w0), f.zero) == want


PHI_SIZES = [(r, n) for r in (1, 2, 3) for n in (1, 2, 3)] + [(2, 4)]


@pytest.mark.parametrize("engine", ["y", "nil"])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
@pytest.mark.parametrize("r,n", PHI_SIZES)
def test_phi_matches_the_reference_on_every_key(engine, r, n, kind):
    alg = (H.yalg if engine == "y" else H.nilalg)(r, n, kind)
    one = alg.field.one
    for basis, name in alg.bases.items():
        for v in alg.exponents if name == "a" else alg.colors:
            for w in alg.perms:
                x = SparseElement(alg, basis, {(v, w): one})
                got, want = alg.phi(x), H.phi_reference(alg, x)
                assert got.basis == want.basis == basis
                assert got.terms == want.terms


def _planted_flip(alg, plant):
    """A wrong flip table: the identity, or w -> w0 w (the second w0 left out)."""
    if plant == "identity":
        return {w: w for w in alg.perms}
    return {w: sg.compose(alg.w0, w) for w in alg.perms}


@pytest.mark.parametrize("plant", ["identity", "w0 w"])
@pytest.mark.parametrize("engine", [YAlgebra, NilAlgebra])
@pytest.mark.parametrize("r,n,kind", [(1, 3, H.FP13), (2, 3, H.CYC), (3, 3, H.FP13),
                                      (2, 4, H.FP13)])
def test_planted_flip_tables_fail_nakayama_and_phi_checks(monkeypatch, plant, engine,
                                                          r, n, kind):
    alg = engine(r, n, field=H.field(kind, r))
    monkeypatch.setattr(alg, "_flip", _planted_flip(alg, plant))
    got = nakayama_check(alg, exhaustive=True)
    assert not got["ok"]
    assert got == H.dense_nakayama(alg)
    assert not nakayama_check(alg, samples=50, seed=3)["ok"]
    assert not phi_checks(alg)["ok"]


def test_cell_rank_refines_length():
    alg = H.yalg(2, 2)
    keys = [(c, w) for c in alg.colors for w in alg.perms]
    for k1 in keys:
        for k2 in keys:
            if cell_rank(alg, k1) < cell_rank(alg, k2):
                assert alg._len[k1[1]] <= alg._len[k2[1]]


def test_triangularity():
    assert triangularity_check(H.yalg(2, 2)) == {"ok": True, "witness": None}
    assert triangularity_check(H.yalg(3, 2))["ok"]


def _rmul_g_lowering(rmul_g):
    """Y's right g_i map plus (chi, w s_i) on every length-down step, an
    image key of lower rank than its source."""
    def mutant(self, terms, i):
        out = dict(rmul_g(self, terms, i))
        for (chi, w), a in terms.items():
            if w[i - 1] > w[i]:
                _acc(out, (chi, sg.right_mult_s(w, i)), a)
        return out
    return mutant


def _lmul_t_lowering(lmul_t):
    """Y's left t_j map with entry j of each color lowered by one where it
    can be: the same w, a smaller color."""
    def mutant(self, terms, j):
        out: dict = {}
        for (chi, w), a in lmul_t(self, terms, j).items():
            if chi[j - 1] > 1:
                chi = chi[:j - 1] + (chi[j - 1] - 1,) + chi[j:]
            _acc(out, (chi, w), a)
        return out
    return mutant


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name,mutate,witness", [
    ("_rmul_g", _rmul_g_lowering, (((1, 1, 1), (1, 3, 2)), ((1, 1, 1), (1, 2, 3)))),
    ("_lmul_t", _lmul_t_lowering, (((1, 1, 2), (1, 2, 3)), ((1, 1, 1), (1, 2, 3)))),
])
def test_triangularity_catches_a_lowering_map(monkeypatch, r, name, mutate, witness):
    alg = YAlgebra(r, 3, field=H.field(H.FP13, r))
    assert triangularity_check(alg)["ok"]
    monkeypatch.setattr(YAlgebra, name, mutate(getattr(YAlgebra, name)))
    assert triangularity_check(alg) == {"ok": False, "witness": witness}


def test_cells_match_labels():
    for (r, n) in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        got = H.cells_analysis(r, n)
        assert got["match"], (r, n)
        assert got["count"] == count_labels(r, n)
        assert got["beta_signs_ok"], (r, n)


def test_beta_values():
    alg = H.yalg(2, 2)
    # constant color: both the identity cell (composition (1,1)) and the w0
    # cell (composition (2)) are live; mixed colors die away from the identity
    assert beta(alg, (1, 1), alg.ident) == alg.field.one
    assert beta(alg, (1, 1), alg.w0) == -alg.field.one
    assert beta(alg, (1, 2), alg.ident) == alg.field.one
    assert beta(alg, (1, 2), alg.w0).is_zero()
    # predicted cells carry sign (-1)^length
    for (c, w) in predicted_cells(alg):
        expect = alg.field.one if sg.length(w) % 2 == 0 else -alg.field.one
        assert beta(alg, c, w) == expect


def test_nonzero_cells_explicit_1_2():
    alg = H.yalg(1, 2)
    cells = nonzero_cells(alg)
    assert cells == [((1, 1), (1, 2)), ((1, 1), (2, 1))]


def test_proof_identities():
    for (r, n) in [(2, 3), (3, 2)]:
        assert all(item["zero"] for item in proof_identities(H.yalg(r, n)))


def test_proof_identities_need_q0():
    with pytest.raises(ValueError):
        proof_identities(H.yalg(2, 2, H.FP13, q=5))


def test_classification_match_reports_sets():
    got = classification_match(H.yalg(2, 2))
    assert got["missing"] == [] and got["extra"] == []


def test_classification_match_computes_beta_once_per_key(monkeypatch):
    alg = H.yalg(2, 3, H.FP13)
    calls = []
    real = structure.beta

    def counted(alg, chi, w):
        calls.append((chi, w))
        return real(alg, chi, w)

    monkeypatch.setattr(structure, "beta", counted)
    got = classification_match(alg)
    assert got["match"] and got["beta_signs_ok"] and got["count"] == 18
    # beta vanishes off the keys with w.c = c, so only those are visited
    fixed = {(c, w) for c in alg.colors for w in alg.perms if alg.act(w, c) == c}
    assert len(calls) == len(set(calls)) == len(fixed) == 24
    assert set(calls) == fixed


def test_classification_match_checks_each_predicted_sign(monkeypatch):
    alg = H.yalg(2, 3, H.FP13)
    real = structure.beta
    key = structure.predicted_cells(alg)[-1]
    monkeypatch.setattr(structure, "beta", lambda alg, chi, w: (
        -real(alg, chi, w) if (chi, w) == key else real(alg, chi, w)))
    got = classification_match(alg)
    assert got["match"] and not got["beta_signs_ok"]


def test_gram_json():
    alg = H.yalg(1, 2)
    keys, rows = gram_matrix(alg)
    blob = gram_to_json(alg, keys, rows)
    json.dumps(blob)
    assert blob["entries"] == [["0", "1"], ["1", "-1"]]


def test_tau_linear():
    alg = H.yalg(2, 2)
    rng = random.Random(31)
    x = alg.random_element(rng)
    y = alg.random_element(rng)
    half = alg.field.from_fraction(Fraction(1, 2))
    assert tau(alg, x + y) == tau(alg, x) + tau(alg, y)
    assert tau(alg, x * half) == tau(alg, x) * half


GRAM_SIZES = ([(r, 3, kind) for r in (1, 2, 3) for kind in (H.FP13, H.CYC)]
              + [(2, 4, H.FP13)])


@pytest.mark.parametrize("r,n,kind", GRAM_SIZES)
def test_gram_matches_pairwise_y(r, n, kind):
    alg = H.yalg(r, n, kind)
    assert gram_matrix(alg) == H.pairwise_gram(alg)


@pytest.mark.parametrize("r,n,kind", GRAM_SIZES)
def test_gram_matches_pairwise_nil(r, n, kind):
    alg = H.nilalg(r, n, kind)
    oracle = H.pairwise_gram(alg, "NIL", lambda x, y: H.nil_monomial_mul_terms(alg, x, y))
    assert gram_matrix(alg) == oracle


@pytest.mark.parametrize("engine", [YAlgebra, NilAlgebra])
def test_exhaustive_nakayama_catches_identity_flip(monkeypatch, engine):
    # tau is not symmetric, so with phi the identity the check must fail,
    # and at the first pair where the pairwise Gram says tau(xy) != tau(yx)
    alg = engine(2, 2, field=H.field(H.FP13, 2))
    assert nakayama_check(alg, exhaustive=True) == {"mode": "exhaustive", "pairs": 64,
                                                    "ok": True}
    _, rows = H.pairwise_gram(alg)
    first = next(ix * len(rows) + iy for ix in range(len(rows)) for iy in range(len(rows))
                 if not (rows[ix][iy] == rows[iy][ix]))
    monkeypatch.setattr(alg, "phi", lambda x: x)
    assert nakayama_check(alg, exhaustive=True) == {"mode": "exhaustive", "pairs": first,
                                                    "ok": False}


NAKAYAMA_SIZES = ([(r, n, kind) for r in (1, 2, 3) for n in (1, 2, 3)
                   for kind in (H.FP13, H.CYC)]
                  + [(2, 4, H.FP13), (2, 4, H.CYC)])


@pytest.mark.parametrize("engine", ["y", "nil"])
@pytest.mark.parametrize("r,n,kind", NAKAYAMA_SIZES)
def test_exhaustive_nakayama_matches_dense_oracle(monkeypatch, engine, r, n, kind):
    alg = (H.yalg if engine == "y" else H.nilalg)(r, n, kind)
    expect = {"mode": "exhaustive", "pairs": alg.dimension ** 2, "ok": True}
    assert nakayama_check(alg, exhaustive=True) == H.dense_nakayama(alg) == expect
    if n >= 3:
        # a flip without the w0-conjugation: both routes fail it, at the
        # same T-basis pair
        monkeypatch.setattr(alg, "phi", H.phi_reversal_only(alg))
        got = nakayama_check(alg, exhaustive=True)
        assert not got["ok"]
        assert got == H.dense_nakayama(alg)


@pytest.mark.parametrize("engine", [YAlgebra, NilAlgebra])
@pytest.mark.parametrize("r,first", [(2, 51), (3, 165)])
def test_exhaustive_nakayama_catches_a_broken_phi_key_map(monkeypatch, engine, r, first):
    alg = engine(r, 3, field=H.field(H.FP13, r))
    monkeypatch.setattr(alg, "phi", H.phi_reversal_only(alg))
    expect = {"mode": "exhaustive", "pairs": first, "ok": False}
    assert nakayama_check(alg, exhaustive=True) == expect == H.dense_nakayama(alg)


@pytest.mark.parametrize("r,n,first", [(1, 2, 1), (2, 3, 5), (3, 2, 1)])
def test_scaled_flip_fails_both_nakayama_routes_alike(monkeypatch, r, n, first):
    # 2 phi sends each key where phi does, with coefficient 2 in place of 1:
    # an oracle that reads only the key of phi(b_y) would pass it
    alg = YAlgebra(r, n, field=H.field(H.FP13, r))
    phi = alg.phi
    monkeypatch.setattr(alg, "phi", lambda x: phi(x) * 2)
    expect = {"mode": "exhaustive", "pairs": first, "ok": False}
    assert nakayama_check(alg, exhaustive=True) == expect == H.dense_nakayama(alg)


def test_passing_exhaustive_nakayama_builds_no_gram_matrix(monkeypatch):
    def refuse(alg):
        raise AssertionError("T-basis Gram entries read")

    monkeypatch.setattr(structure, "gram_matrix", refuse)
    monkeypatch.setattr(structure, "gram_entries", refuse)
    for alg in (H.yalg(2, 3, H.FP13), H.nilalg(3, 3, H.CYC), H.yalg(2, 4, H.CYC)):
        got = nakayama_check(alg, exhaustive=True)
        assert got == {"mode": "exhaustive", "pairs": alg.dimension ** 2, "ok": True}


@pytest.mark.parametrize("r,n", [(r, n) for r in (1, 2, 3) for n in (1, 2, 3)]
                         + [(2, 4), (4, 4)])
def test_nonzero_betas_match_the_all_keys_scan(monkeypatch, r, n):
    alg = H.yalg(r, n, H.FP13)
    expect = H.all_keys_nonzero_betas(alg)
    calls = []
    real = structure.beta

    def counted(alg, chi, w):
        calls.append((chi, w))
        return real(alg, chi, w)

    monkeypatch.setattr(structure, "beta", counted)
    assert structure._nonzero_betas(alg) == expect
    assert len(calls) == len(set(calls)) == sum(r ** H.cycle_count(w) for w in alg.perms)
    assert all(alg.act(w, c) == c for c, w in calls)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_beta_is_the_square_coefficient(r, kind):
    # two algebras, so that neither reads a product the other cached
    alg, other = (YAlgebra(r, 3, field=H.field(kind, r)) for _ in range(2))
    zero, one = alg.field.zero, alg.field.one
    for key in ((c, w) for c in alg.colors for w in alg.perms):
        square = other.mul_terms({key: one}, {key: one})
        assert beta(alg, *key) == square.get(key, zero), key


def test_witness_check_reads_the_gram(monkeypatch):
    alg = H.yalg(2, 3, H.FP13)
    keys = structure.t_basis_keys(alg)
    for k in keys:
        j = frobenius_witness(alg, k)
        assert len(j.terms) == 1
        assert tau(alg, j * alg.element({k: alg.field.one})) == alg.field.one
    assert frobenius_check(alg)["witness_ok"]
    # the witness entry of the keys (a, v) is F_{u,v}(0), u = w0 v^-1, the
    # sum of f_{u,v}(chi) over the colors chi; one wrong value f_{u,v}(chi),
    # at the first chi where it is nonzero, is a wrong witness entry, in
    # the Gram matrix as well
    v = keys[5][1]
    u = sg.compose(alg.w0, sg.inverse(v))

    def edit(alg, blocks):
        chi = next(chi for chi in alg.colors if v in H.gram_row(alg, blocks, u, chi))
        row = H.gram_row(alg, blocks, u, chi)
        row[v] = row[v] + alg.field.one

    H.patch_gram_blocks(monkeypatch, edit)
    assert not frobenius_check(alg)["witness_ok"]
    assert not H.dense_frobenius(alg)["witness_ok"]
    assert frobenius_check(alg)["gram_invertible"]


FROBENIUS_SIZES = ([(r, n, H.FP13) for r in (1, 2, 3) for n in (1, 2, 3)] + [(2, 4, H.FP13)]
                   + [(r, n, H.CYC) for r in (1, 2, 3) for n in (1, 2, 3)])


def _assert_gram_refused(alg):
    """Every Gram check of structure raises ValueError on alg, Y at some
    q != 0, since the walk of gram_blocks holds at q = 0 alone; the sampled
    Nakayama check, which multiplies elements, still runs."""
    for check in (structure.gram_blocks, frobenius_check, structure.gram_entries,
                  gram_matrix, lambda alg: nakayama_check(alg, exhaustive=True)):
        with pytest.raises(ValueError, match="q = 0"):
            check(alg)
    assert nakayama_check(alg, samples=5)["mode"] == "sampled"


def _gram_alg(engine, r, n, kind):
    """Y at q = 0 or nil.  For Y at q = 1 (where q - 1 = 0) and at q = 5,
    whose Gram values the q = 0 walk does not give, None after
    _assert_gram_refused, and the caller has nothing more to compare."""
    if engine == "nil":
        return H.nilalg(r, n, kind)
    alg = H.yalg(r, n, kind, q={"y": 0, "y-q1": 1, "y-q5": 5}[engine])
    if engine == "y":
        return alg
    _assert_gram_refused(alg)
    return None


@pytest.mark.parametrize("q", [1, 5])
@pytest.mark.parametrize("r,n", [(1, 2), (2, 3), (3, 2)])
def test_gram_checks_refuse_q_other_than_0(r, n, q):
    _assert_gram_refused(H.yalg(r, n, H.FP13, q=q))


@pytest.mark.parametrize("engine", ["y", "y-q5", "nil"])
@pytest.mark.parametrize("r,n,kind", FROBENIUS_SIZES)
def test_gram_blocks_match_dense_oracle(monkeypatch, engine, r, n, kind):
    alg = _gram_alg(engine, r, n, kind)
    if alg is None:
        return
    expect = {"dimension": alg.dimension, "gram_invertible": True, "witness_ok": True}
    assert frobenius_check(alg) == H.dense_frobenius(alg) == expect
    assert structure.singular_block(alg, structure.gram_blocks(alg)) is None
    # one singular class block: the blocks and the dense T-basis matrix,
    # built from the same tables, must both see it, and the blocks name the
    # first color of the class
    c = alg.colors[len(alg.colors) // 2]
    H.singular_block_mutant(monkeypatch, c)
    got = frobenius_check(alg)
    assert not got["gram_invertible"]
    assert got == H.dense_frobenius(alg)
    cls = structure.color_class(alg, c)
    first = next(d for d in alg.colors if structure.color_class(alg, d) == cls)
    assert structure.singular_block(alg, structure.gram_blocks(alg)) == first


@pytest.mark.parametrize("r,n", [(2, 3), (3, 2)])
def test_gram_blocks_match_dense_oracle_on_random_tables(monkeypatch, r, n):
    # the T-basis Gram is A G^E B for any tables, not only the algebra's:
    # on random class tables, some with a singular block, the block verdict
    # and dense elimination agree table by table
    alg = H.yalg(r, n, H.FP13)
    rng = random.Random(7)
    seen = set()
    for _ in range(30):
        values = {(u, v, p): alg.field.from_int(rng.randrange(13))
                  for u in alg.perms for v in alg.perms for p in structure.color_classes(alg)}

        def edit(alg, blocks, values=values):
            for (u, v, p), c in values.items():
                row = blocks[p][u]
                if c.is_zero():
                    row.pop(v, None)
                else:
                    row[v] = c

        monkeypatch.undo()
        H.patch_gram_blocks(monkeypatch, edit)
        got = frobenius_check(alg)
        assert got == H.dense_frobenius(alg)
        seen.add(got["gram_invertible"])
    assert seen == {True, False}


@pytest.mark.parametrize("engine", ["y", "y-q5", "nil"])
@pytest.mark.parametrize("r,n,kind", FROBENIUS_SIZES + [(2, 4, H.CYC)])
def test_gram_blocks_match_one_term_tables(engine, r, n, kind):
    # every value of the one grouped pass per u against the _rmul_g
    # products of the one-term dicts {(chi, u): 1}, color by color through
    # the class and row by row: each class block holds the values of every
    # one of its colors
    alg = _gram_alg(engine, r, n, kind)
    if alg is None:
        return
    f = H.one_term_gram_tables(alg)
    blocks = structure.gram_blocks(alg)
    assert list(blocks) == list(structure.color_classes(alg))
    for c in alg.colors:
        block = blocks[structure.color_class(alg, c)]
        assert list(block) == alg.perms
        for u, row in block.items():
            chi = alg.act(u, c)
            assert row == {v: f[u, v][chi] for v in alg.perms if chi in f[u, v]}
            assert not any(x.is_zero() for x in row.values())


@pytest.mark.parametrize("engine", [YAlgebra, NilAlgebra])
@pytest.mark.parametrize("r,n", [(1, 1), (2, 3), (3, 4)])
def test_gram_blocks_make_one_right_multiplication_per_step(monkeypatch, engine, r, n):
    alg = engine(r, n, field=H.field(H.FP13, r))
    # Y has one class per set partition of the n positions into at most r
    # parts; the nil algebra, with q - 1 = 0, has one
    classes = {(1, 1): 1, (2, 3): 4, (3, 4): 14}[r, n] if engine is YAlgebra else 1
    nf, one = len(alg.perms), alg.field.one
    # one step per (u, v != 1) whose shorter product has not vanished,
    # counted on the flat products of the class representatives
    order = []
    for v in sorted(alg.perms, key=alg._len.__getitem__)[1:]:
        i = alg._rword[v][-1]
        order.append((v, alg._rstep[i][v][0], i))
    expected = 0
    for u in alg.perms:
        prods = {alg.ident: {((alg.act(u, p) if p else p), u): one
                             for p in structure.color_classes(alg)}}
        for v, shorter, i in order:
            expected += bool(prods[shorter])
            prods[v] = alg._rmul_g(prods[shorter], i)
    calls = []
    real = alg._rmul_g_group

    def counted(group, i):
        calls.append(len(group[1]))
        return real(group, i)

    def refused(terms, i):
        raise AssertionError("gram_blocks called _rmul_g")

    monkeypatch.setattr(alg, "_rmul_g_group", counted)
    monkeypatch.setattr(alg, "_rmul_g", refused)
    structure.gram_blocks(alg)
    assert len(calls) == expected
    if engine is YAlgebra:
        # the constant class passes every color test, so no product
        # vanishes: one step per (u, v != 1), each pass starting from one
        # group of one color per class
        assert expected == nf * (nf - 1)
        if nf > 1:
            assert calls[::nf - 1] == [classes] * nf
    else:
        # a down step kills the one color, so some steps are skipped
        assert calls == [1] * expected
        assert expected < nf * (nf - 1) or nf == 1


def test_color_classes_are_the_equality_patterns():
    assert algebra.equality_pattern((2, 3, 2)) == (1, 2, 1)
    assert algebra.equality_pattern((3, 3, 1, 2)) == (1, 1, 2, 3)
    alg = H.yalg(3, 3, H.FP13)
    assert structure.color_classes(alg) == algebra.color_patterns(alg.colors)
    pairs = [(i, j) for i in range(3) for j in range(3)]
    for c in alg.colors:
        p = structure.color_class(alg, c)
        assert p in alg.colors and structure.color_class(alg, p) == p
        for d in alg.colors:
            same = all((c[i] == c[j]) == (d[i] == d[j]) for i, j in pairs)
            assert (structure.color_class(alg, d) == p) == same
    # where q - 1 = 0 no step reads a color: one class, ()
    for alg in (H.nilalg(3, 3, H.FP13), H.yalg(3, 3, H.FP13, q=1)):
        assert structure.color_classes(alg) == {(): alg.colors}


@pytest.mark.parametrize("r,n,count", [(2, 6, 32), (3, 5, 41), (4, 5, 51), (3, 6, 122),
                                       (5, 5, 52)])
def test_class_counts_of_the_frontier(r, n, count):
    alg = YAlgebra(r, n, field=H.field(H.CYC, r))
    classes = structure.color_classes(alg)
    assert len(classes) == count
    assert sum(map(len, classes.values())) == r ** n


CLASS_SIZES = ([(r, n, kind) for r in (1, 2, 3, 4) for n in (1, 2, 3, 4)
                for kind in (H.FP13, H.CYC)] + [(2, 5, H.FP13), (2, 5, H.CYC)])


@pytest.mark.parametrize("engine", ["y", "y-q1", "y-q5", "nil"])
@pytest.mark.parametrize("r,n,kind", CLASS_SIZES)
def test_class_blocks_equal_the_all_color_blocks(engine, r, n, kind):
    # the block of every color, through its class, against the pass that
    # carries all r^n colors
    alg = _gram_alg(engine, r, n, kind)
    if alg is None:
        return
    blocks = structure.gram_blocks(alg)
    oracle = H.all_color_gram_blocks(alg)
    assert list(blocks) == list(structure.color_classes(alg))
    for c in alg.colors:
        assert blocks[structure.color_class(alg, c)] == oracle[c], c


@pytest.mark.parametrize("engine", ["y", "y-q1", "y-q5", "nil"])
@pytest.mark.parametrize("r,n,kind", [(1, 3, H.FP13), (2, 3, H.CYC), (3, 3, H.FP13),
                                      (2, 4, H.FP13), (3, 4, H.CYC), (4, 4, H.FP13)])
def test_per_pattern_flip_matches_the_all_color_flip(monkeypatch, engine, r, n, kind):
    # the check once per equality pattern against the check once per color,
    # with the true flip and with three that fail: the identity, 2 phi, and
    # phi without the color reversal, which only a non-constant color shows
    # (where every color shares one block too)
    alg = _gram_alg(engine, r, n, kind)
    if alg is None:
        return
    blocks = structure.gram_blocks(alg)
    oracle = H.all_color_gram_blocks(alg)
    assert structure._flip_holds(alg, blocks) is H.all_color_flip_holds(alg, oracle) is True
    phi = alg.phi
    mutants = [lambda x: x, lambda x: phi(x) * 2] + ([H.phi_colors_kept(alg)] if r > 1 else [])
    for mutant in mutants:
        monkeypatch.setattr(alg, "phi", mutant)
        assert structure._flip_holds(alg, blocks) is False
        assert H.all_color_flip_holds(alg, oracle) is False
        monkeypatch.undo()
