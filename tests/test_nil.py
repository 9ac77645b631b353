import itertools
import json
import random

import pytest

from yoklab import NilAlgebra, YAlgebra, modrep, structure, symgroup as sg
from yoklab.exactla import _acc

import _helpers as H

RADICAL_POWERS = {
    (1, 3): [5, 3, 1, 0],
    (2, 2): [4, 0],
    (2, 3): [40, 24, 8, 0],
    (3, 2): [9, 0],
}


def test_presentation():
    assert H.nilalg(2, 2).verify_presentation()["all_zero"]
    assert H.nilalg(2, 3).verify_presentation()["all_zero"]
    assert H.nilalg(1, 3).verify_presentation()["all_zero"]


def test_monomial_product_rule():
    # t^a T_u . t^b T_v = t^(a + u(b)) T_(uv) when lengths add, else 0
    alg = H.nilalg(2, 2)
    one = alg.field.one
    for a in alg.exponents:
        for u in alg.perms:
            for b in alg.exponents:
                for v in alg.perms:
                    prod = (alg.element({(a, u): one}) * alg.element({(b, v): one})).terms
                    uv = sg.compose(u, v)
                    if sg.length(uv) == sg.length(u) + sg.length(v):
                        moved = sg.act_on_colors(u, b)
                        expect_a = tuple((x + y) % alg.r for x, y in zip(a, moved))
                        assert prod == {(expect_a, uv): one}
                    else:
                        assert prod == {}


def test_nilpotent_generators():
    alg = H.nilalg(3, 2)
    T1 = alg.gen_T(1)
    assert (T1 * T1).is_zero()
    assert not T1.is_zero()
    t1 = alg.gen_t(1)
    assert t1 ** 3 == alg.one()


def test_associativity_exhaustive_2_2():
    alg = H.nilalg(2, 2)
    one = alg.field.one
    keys = [(c, w) for c in alg.colors for w in alg.perms]
    for kx, ky, kz in itertools.product(keys, repeat=3):
        x, y, z = {kx: one}, {ky: one}, {kz: one}
        assert alg.mul_terms(alg.mul_terms(x, y), z) == \
            alg.mul_terms(x, alg.mul_terms(y, z))


def test_radical_power_dims_frozen():
    for (r, n), dims in RADICAL_POWERS.items():
        alg = H.nilalg(r, n)
        got = alg.radical_power_dims()
        assert got == dims, (r, n)
        rn = r ** n
        fact = 1
        for k in range(2, n + 1):
            fact *= k
        assert dims[0] == rn * (fact - 1)
        assert alg.dimension - dims[0] == rn
        assert len(dims) <= n * (n - 1) + 1 + 1  # index bound plus the zero entry


def test_radical_power_dims_closed_form():
    # the seeded recurrence against r^n #{w : length(w) >= k}
    sizes = [(r, n, kind) for r in range(1, 5) for n in range(1, 4)
             for kind in (H.CYC, H.FP13)]
    sizes += [(2, 4, H.CYC), (2, 4, H.FP13), (3, 4, H.FP13)]
    for r, n, kind in sizes:
        alg = H.nilalg(r, n, kind)
        lengths = [alg._len[w] for w in alg.perms]
        closed = [r ** n * sum(1 for ln in lengths if ln >= k)
                  for k in range(1, max(lengths) + 2)]
        assert alg.radical_power_dims() == closed, (r, n, kind)


def test_radical_is_span_of_nonidentity_words():
    for r, n, kind in [(2, 2, H.CYC), (1, 3, H.CYC), (2, 3, H.FP13), (3, 3, H.CYC)]:
        alg = H.nilalg(r, n, kind)
        rad = alg.radical()
        assert rad.dim() == alg.dimension - r ** n
        one = alg.field.one
        for a in alg.exponents:
            for w in alg.perms:
                inside = rad.contains(alg.element({(a, w): one}).as_E().terms)
                assert inside == (w != alg.ident), (r, n, a, w)


def test_one_dim_reps():
    alg = H.nilalg(2, 3)
    reps = modrep.enumerate_one_dim_bruteforce(alg)
    assert len(reps) == 8
    seen = set()
    for rep in reps:
        assert all(v.is_zero() for v in rep.g_values)
        assert all((t ** alg.r) == alg.field.one for t in rep.t_values)
        seen.add(rep.t_values)
    assert len(seen) == 8


def test_minimal_ideals():
    for (r, n) in [(2, 2), (1, 3)]:
        alg = H.nilalg(r, n)
        for chi in alg.colors:
            res = H.nil_minimal_ideal_check(alg, chi)
            assert res["ok"], (r, n, chi)
            assert res["dim"] == 1
            assert res["eigen_ok"] and res["annihilated_ok"]


def test_lam_frozen_and_witness():
    alg = H.nilalg(2, 2)
    assert structure.tau(alg, alg.T_w(alg.w0)) == alg.field.one
    assert structure.tau(alg, alg.one()).is_zero()
    assert structure.tau(alg, alg.gen_t(1) * alg.T_w(alg.w0)).is_zero()
    key = ((1, 1), (2, 1))
    j = structure.frobenius_witness(alg, key)
    h = alg.element({key: alg.field.one})
    assert structure.tau(alg, j * h) == alg.field.one


def test_gram_1_2_frozen():
    alg = H.nilalg(1, 2)
    keys, rows = structure.gram_matrix(alg)
    f = alg.field
    assert keys == [((0, 0), (1, 2)), ((0, 0), (2, 1))]
    assert rows == [[f.zero, f.one], [f.one, f.zero]]


def test_frobenius():
    for (r, n) in [(1, 3), (2, 2), (3, 2)]:
        alg = H.nilalg(r, n)
        res = structure.frobenius_check(alg)
        assert res["gram_invertible"] and res["witness_ok"]
        assert structure.nakayama_check(alg, exhaustive=True)["ok"]


def test_psi_and_nakayama():
    alg = H.nilalg(2, 2)
    assert structure.phi_checks(alg, seed=2)["ok"]
    assert structure.nakayama_check(alg, exhaustive=True)["ok"]
    out = structure.nakayama_check(H.nilalg(3, 2), samples=80, seed=6)
    assert out == {"mode": "sampled", "pairs": 80, "ok": True}


def test_psi_on_generators():
    alg = H.nilalg(2, 3)
    assert alg.phi(alg.gen_T(1)) == alg.gen_T(2)
    assert alg.phi(alg.gen_t(1)) == alg.gen_t(3)
    x = alg.gen_T(1) * alg.gen_t(2) + alg.T_w(alg.w0)
    assert alg.phi(alg.phi(x)) == x


def test_cells_all_at_identity():
    for (r, n) in [(2, 2), (3, 2), (2, 3)]:
        got = H.nil_analysis(r, n)
        assert got["cells_all_identity"], (r, n)
        assert len(got["cells"]) == r ** n
    alg = H.nilalg(2, 2)
    assert structure.beta(alg, (1, 2), alg.ident) == alg.field.one
    assert structure.beta(alg, (1, 2), alg.w0).is_zero()


def test_E_idempotents():
    alg = H.nilalg(2, 2)
    for chi in alg.colors:
        e = alg.E_idem(chi)
        assert e * e == e
        for j in (1, 2):
            assert alg.gen_t(j) * e == e * alg.field.zeta_pow(chi[j - 1])
        assert (alg.gen_T(1) * (e * alg.T_w(alg.w0))).is_zero()


def test_json_roundtrip():
    alg = H.nilalg(2, 2)
    rng = random.Random(13)
    x = alg.random_element(rng, basis="NIL")
    blob = alg.element_to_json(x)
    assert blob["basis"] == "NIL"
    y = alg.element_from_json(json.loads(json.dumps(blob)))
    assert y == x
    with pytest.raises(ValueError):
        alg.element_from_json({**blob, "r": 3})


def test_validation():
    with pytest.raises(ValueError):
        NilAlgebra(2, 2, field=H.field(H.CYC, 3))
    alg = H.nilalg(2, 2)
    with pytest.raises(ValueError):
        alg.gen_T(2)


# -- the E-basis engine at (q, q - 1) = (0, 0) against the monomial rule ---

def _random_nil(alg, rng):
    """Up to four random NIL-basis monomials with small coefficients."""
    terms: dict = {}
    while not terms:
        for _ in range(4):
            key = (rng.choice(alg.exponents), rng.choice(alg.perms))
            _acc(terms, key, alg.field.from_int(rng.randint(-4, 4))
                 * alg.field.zeta_pow(rng.randrange(alg.r)))
    return alg.element(terms, "NIL")


def test_engine_matches_monomial_rule_exhaustive_2_2():
    alg = H.nilalg(2, 2, H.FP13)
    one = alg.field.one
    keys = [(a, w) for a in alg.exponents for w in alg.perms]
    for kx, ky in itertools.product(keys, repeat=2):
        x, y = alg.element({kx: one}, "NIL"), alg.element({ky: one}, "NIL")
        assert (x * y).terms == H.nil_monomial_mul_terms(alg, x.terms, y.terms), (kx, ky)


@pytest.mark.parametrize("r,n,kind", [(2, 3, H.FP13), (2, 4, H.FP13), (4, 3, H.FP13),
                                      (3, 3, H.CYC)])
def test_engine_matches_monomial_rule_random(r, n, kind):
    alg = H.nilalg(r, n, kind)
    rng = random.Random(100 * r + n)
    for _ in range(300):
        x, y = _random_nil(alg, rng), _random_nil(alg, rng)
        prod = x * y
        assert prod.basis == "NIL"
        assert prod.terms == H.nil_monomial_mul_terms(alg, x.terms, y.terms)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_blocked_radical_rows_match_full_closure(r, n, kind):
    alg = H.nilalg(r, n, kind)
    full = H.nil_full_radical(r, n, kind)
    assert alg.radical().rows == full.rows
    assert alg.radical_power_dims() == \
        H.pairwise_power_dims(alg.field, alg.mul_terms, full)


def test_quadratic_pair_is_fixed_at_zero():
    alg = H.nilalg(2, 2)
    assert alg.q.is_zero() and alg.qm1.is_zero()
    assert isinstance(alg, YAlgebra)
