import json
import random
from fractions import Fraction

import pytest

from yoklab import structure, symgroup as sg
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
        res = frobenius_check(H.yalg(r, n), permuted_identity=True)
        assert res["gram_invertible"], (r, n)
        assert res["witness_ok"], (r, n)
        assert res["permuted_identity_ok"], (r, n)


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
