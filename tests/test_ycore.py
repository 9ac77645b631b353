import json
import random
from fractions import Fraction

import pytest

from yoklab import NilAlgebra, YAlgebra, modrep, symgroup as sg, ycore
from yoklab.ycore import torus_to_E, torus_to_T

import _helpers as H


def test_dimension():
    assert H.yalg(2, 3).dimension == 48
    assert H.yalg(1, 4).dimension == 24
    assert H.yalg(3, 2).dimension == 18
    assert len(H.yalg(2, 2).colors) == 4
    assert len(H.yalg(2, 2).exponents) == 4


def test_validation():
    with pytest.raises(ValueError):
        YAlgebra(0, 2)
    with pytest.raises(ValueError):
        YAlgebra(2, 2, field=H.field(H.CYC, 3))
    alg = H.yalg(2, 2)
    with pytest.raises(ValueError):
        alg.gen_t(3)
    with pytest.raises(ValueError):
        alg.gen_g(2)


def test_presentations_small():
    assert H.yalg(2, 2).verify_presentation(1)["all_zero"]
    assert H.yalg(2, 2).verify_presentation(2)["all_zero"]


def test_basis_conversion_roundtrip():
    for (r, n) in [(2, 2), (3, 2)]:
        alg = H.yalg(r, n)
        one = alg.field.one
        for a in alg.exponents:
            for w in alg.perms:
                x = alg.element({(a, w): one}, "T")
                assert x.as_E().in_basis("T").terms == x.terms
        for chi in alg.colors:
            for w in alg.perms:
                x = alg.element({(chi, w): one}, "E")
                assert x.in_basis("T").as_E().terms == x.terms
    alg = H.yalg(2, 3)
    rng = random.Random(5)
    for _ in range(20):
        x = alg.random_element(rng, basis="T")
        assert x.as_E().in_basis("T") == x


def test_torus_idempotent_frozen():
    # e_1 at r = 2 is (1 + t_1 t_2)/2
    alg = H.yalg(2, 2)
    e = alg.e_idem(1)
    half = alg.field.from_fraction(Fraction(1, 2))
    ident = alg.ident
    assert e.in_basis("T").terms == {((0, 0), ident): half, ((1, 1), ident): half}
    assert (e * e) == e


def test_E_idempotents():
    alg = H.yalg(2, 2)
    total = alg.zero("E")
    for chi in alg.colors:
        ec = alg.E_idem(chi)
        assert ec * ec == ec
        total = total + ec
        # eigenvalue property: t_j E_chi = zeta^{chi_j} E_chi
        for j in (1, 2):
            lhs = alg.gen_t(j) * ec
            assert lhs == ec * alg.field.zeta_pow(chi[j - 1])
    assert total == alg.one()


def test_g_w_length_additive():
    alg = H.yalg(2, 3)
    for u in alg.perms:
        for v in alg.perms:
            if sg.length(sg.compose(u, v)) == sg.length(u) + sg.length(v):
                assert alg.g_w(u) * alg.g_w(v) == alg.g_w(sg.compose(u, v))


def test_quadratic_specializations():
    # g^2 = q + (q-1) e g: at q = 0 this is -e g, over F13 at q = 5 it is 5 + 4 e g
    alg0 = H.yalg(2, 2)
    g, e = alg0.gen_g(1), alg0.e_idem(1)
    assert g * g == -(e * g) + alg0.zero("T")
    alg5 = H.yalg(2, 2, H.FP13, q=5)
    g, e = alg5.gen_g(1), alg5.e_idem(1)
    five = alg5.field.from_int(5)
    four = alg5.field.from_int(4)
    assert g * g == alg5.one() * five + (e * g) * four


def test_torus_wraparound():
    alg = H.yalg(3, 2)
    t1 = alg.gen_t(1)
    assert t1 ** 3 == alg.one()
    assert t1 ** 4 == t1
    assert t1 ** 2 == alg.element({((2, 0), alg.ident): alg.field.one})


def test_generator_maps_match_products():
    alg = H.yalg(2, 2)
    one = alg.field.one
    gens = [alg.gen_g(1)] + [alg.gen_t(j) for j in (1, 2)]
    lmaps = alg.lmul_gen_maps()
    rmaps = alg.rmul_gen_maps()
    assert len(lmaps) == len(rmaps) == len(gens)
    for chi in alg.colors:
        for w in alg.perms:
            x = alg.element({(chi, w): one}, "E")
            for gen, lm, rm in zip(gens, lmaps, rmaps):
                assert lm(x.terms) == (gen * x).as_E().terms
                assert rm(x.terms) == (x * gen).as_E().terms


def test_element_operations():
    alg = H.yalg(2, 2)
    x = alg.gen_g(1) + alg.gen_t(1) * 3
    y = alg.gen_t(2)
    assert x - x == alg.zero("T") + alg.zero("E")
    assert (x * Fraction(1, 2)) * 2 == x
    assert x ** 0 == alg.one()
    assert x ** 2 == x * x
    assert (x + y) * y == x * y + y * y
    assert x.in_basis("T").terms[((0, 0), sg.right_mult_s(alg.ident, 1))] == alg.field.one
    with pytest.raises(ValueError):
        x ** -1
    # cross-algebra mixing is rejected
    other = H.yalg(2, 3)
    with pytest.raises(ValueError):
        x + other.gen_t(1)


def test_phi_on_generators():
    alg = H.yalg(2, 3)
    assert alg.phi(alg.gen_g(1)) == alg.gen_g(2)
    assert alg.phi(alg.gen_t(1)) == alg.gen_t(3)
    assert alg.phi(alg.gen_t(2)) == alg.gen_t(2)
    x = alg.gen_g(1) * alg.gen_t(1) + alg.gen_g(2)
    assert alg.phi(alg.phi(x)) == x


def test_json_roundtrip():
    alg = H.yalg(2, 2)
    rng = random.Random(9)
    for basis in ("T", "E"):
        x = alg.random_element(rng, basis=basis)
        blob = json.dumps(alg.element_to_json(x))
        y = alg.element_from_json(json.loads(blob))
        assert y == x
        assert y.basis == basis


def test_json_validation():
    alg = H.yalg(2, 2)
    good = {"basis": "T", "r": 2, "n": 2,
            "terms": [{"a": [0, 0], "w": [2, 1], "coeff": "1"}]}
    alg.element_from_json(good)
    # torus exponents normalize mod r instead of erroring
    wrapped = {**good, "terms": [{"a": [0, 5], "w": [2, 1], "coeff": "1"}]}
    assert alg.element_from_json(wrapped).terms == \
        {((0, 1), (2, 1)): alg.field.one}
    for breakage in [
        {**good, "r": 3},
        {**good, "terms": [{"a": [0, 0], "w": [2, 2], "coeff": "1"}]},
        {**good, "terms": [{"a": [0, 0], "w": [2, 1], "coeff": "oops"}]},
        {**good, "basis": "Q"},
        {"basis": "E", "r": 2, "n": 2,
         "terms": [{"chi": [0, 1], "w": [1, 2], "coeff": "1"}]},
    ]:
        with pytest.raises(ValueError):
            alg.element_from_json(breakage)


def test_product_against_regular_representation():
    # independent oracle: multiply two random elements via explicit matrices
    # of left multiplication on the E-monomial basis
    alg = H.yalg(2, 2)
    rng = random.Random(21)
    keys = [(chi, w) for chi in alg.colors for w in alg.perms]
    index = {k: i for i, k in enumerate(keys)}
    zero, one = alg.field.zero, alg.field.one

    def lmat(x):
        cols = []
        for k in keys:
            img = alg.mul_terms(x.terms, {k: one})
            cols.append([img.get(k2, zero) for k2 in keys])
        return cols  # cols[j][i] = coeff of keys[i] in x * keys[j]

    for _ in range(10):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        mat = lmat(x)
        expect = {}
        for k, c in y.as_E().terms.items():
            col = mat[index[k]]
            for i, entry in enumerate(col):
                if not entry.is_zero():
                    cur = expect.get(keys[i], zero)
                    cur = cur + entry * c
                    if cur.is_zero():
                        expect.pop(keys[i], None)
                    else:
                        expect[keys[i]] = cur
        assert (x * y).as_E().terms == expect


# -- slot-wise torus transform against the dense double loop -----------------

def _dense_acc(out, key, val):
    nv = val if key not in out else out[key] + val
    if nv.is_zero():
        out.pop(key, None)
    else:
        out[key] = nv


def dense_to_E(field, r, colors, terms):
    out = {}
    for (a, w), coeff in terms.items():
        for chi in colors:
            dot = sum(x * y for x, y in zip(a, chi)) % r
            _dense_acc(out, (chi, w), coeff * field.zeta_pow(dot))
    return out


def dense_to_T(field, r, exponents, terms):
    n = len(exponents[0])
    inv_rn = field.one / field.from_int(r ** n)
    out = {}
    for (chi, w), coeff in terms.items():
        base = coeff * inv_rn
        for a in exponents:
            dot = sum(x * y for x, y in zip(chi, a)) % r
            _dense_acc(out, (a, w), base * field.zeta_pow((-dot) % r))
    return out


TRANSFORM_CASES = [(r, n, kind) for r in range(1, 5) for n in range(1, 5)
                   for kind in (H.CYC, H.FP13)]


def _random_terms(alg, rng, vectors, count):
    perms = alg.perms
    terms = {}
    for _ in range(count):
        key = (vectors[rng.randrange(len(vectors))], perms[rng.randrange(len(perms))])
        c = alg.field.from_int(rng.choice([-2, -1, 1, 3])) * alg.field.zeta_pow(rng.randrange(alg.r))
        _dense_acc(terms, key, c)
    return terms


@pytest.mark.parametrize("r,n,kind", TRANSFORM_CASES)
def test_slot_transform_matches_dense(r, n, kind):
    alg = H.yalg(r, n, kind)
    f = alg.field
    rng = random.Random(100 * r + 10 * n + len(kind))
    # sparse operands of 1-4 terms
    for count in (1, 2, 3, 4):
        tt = _random_terms(alg, rng, alg.exponents, count)
        assert torus_to_E(f, r, alg.colors, tt) == dense_to_E(f, r, alg.colors, tt)
        et = _random_terms(alg, rng, alg.colors, count)
        assert (torus_to_T(f, r, alg.exponents, et, alg.inv_rn)
                == dense_to_T(f, r, alg.exponents, et))
    # dense blocks: every vector under one permutation, repeating coefficients
    w = alg.perms[-1]
    coeffs = [f.from_int(c) for c in (1, -1, 2)]
    tt = {(a, w): coeffs[i % 3] for i, a in enumerate(alg.exponents)}
    assert torus_to_E(f, r, alg.colors, tt) == dense_to_E(f, r, alg.colors, tt)
    et = {(c, w): coeffs[i % 3] for i, c in enumerate(alg.colors)}
    assert (torus_to_T(f, r, alg.exponents, et, alg.inv_rn)
            == dense_to_T(f, r, alg.exponents, et))


@pytest.mark.parametrize("r,n", [(1, 1), (1, 3), (2, 1), (4, 1), (3, 2), (2, 4), (3, 3)])
def test_transform_round_trips(r, n):
    for kind in (H.CYC, H.FP13):
        alg = H.yalg(r, n, kind)
        rng = random.Random(7 * r + n)
        for count in (1, 3, 6):
            tt = _random_terms(alg, rng, alg.exponents, count)
            assert alg.to_T(alg.to_E(tt)) == tt
            et = _random_terms(alg, rng, alg.colors, count)
            assert alg.to_E(alg.to_T(et)) == et


def phi_via_T(alg, x):
    """The flip computed in the T basis, converting there and back."""
    out = {}
    for (a, w), c in x.in_basis("T").terms.items():
        out[(tuple(reversed(a)), sg.compose(alg.w0, sg.compose(w, alg.w0)))] = c
    res = alg.element(out, "T")
    return res if x.basis == "T" else res.as_E()


@pytest.mark.parametrize("r,n,kind", [(1, 3, H.CYC), (2, 3, H.CYC), (3, 3, H.FP13),
                                      (3, 2, H.CYC), (2, 4, H.FP13)])
def test_phi_key_map_matches_T_route(r, n, kind):
    alg = H.yalg(r, n, kind)
    rng = random.Random(31 * r + n)
    for _ in range(10):
        x = alg.random_element(rng)
        y = alg.random_element(rng)
        assert x.basis == "E"
        px = alg.phi(x)
        assert px.basis == "E" and px.terms == phi_via_T(alg, x).terms
        xt = x.in_basis("T")
        pxt = alg.phi(xt)
        assert pxt.basis == "T" and pxt.terms == phi_via_T(alg, xt).terms
        assert alg.phi(px).terms == x.terms
        assert alg.phi(x * y) == px * alg.phi(y)


def test_zero_quadratic_terms_are_skipped(monkeypatch):
    # at q = 0, and on the nil algebra where q - 1 = 0 as well, the
    # length-down steps of the generator maps form no zero term
    acc = ycore._acc
    zeros = []

    def watched(out, key, val):
        if val.is_zero():
            zeros.append(key)
        acc(out, key, val)

    monkeypatch.setattr(ycore, "_acc", watched)
    f = H.field(H.FP13, 3)
    nil = NilAlgebra(3, 3, field=f)
    assert nil.radical_power_dims() == H.nil_analysis(3, 3, H.FP13)["power_dims"]
    y = YAlgebra(3, 3, field=f)
    assert modrep.power_dims(y, modrep.commutator_ideal(y)) == \
        H.classification_analysis(3, 3, H.FP13)["power_dims"]
    assert zeros == []


KERNEL_SIZES = [(r, n) for r in (1, 2, 3) for n in (1, 2, 3)] + [(2, 4)]


def _kernel_cases(alg):
    """Every one-term key, and for each key and i the two-term dicts that
    hold it and the key one g_i step away on either side, which is where a
    moved key meets a kept one; the second coefficient is 1 (so the two
    cancel where they meet) or 2."""
    one, two = alg.field.one, alg.field.from_int(2)
    keys = [(chi, w) for chi in alg.colors for w in alg.perms]
    cases = [{k: one} for k in keys]
    for chi, w in keys:
        for i in range(1, alg.n):
            for other in ((chi, sg.right_mult_s(w, i)),
                          (sg.right_mult_s(chi, i), sg.left_mult_s(i, w))):
                if other != (chi, w):
                    cases += [{(chi, w): one, other: b} for b in (one, two)]
    return cases


def _kernel_mismatches(alg) -> list:
    """(side, i, terms) wherever _rmul_g or _lmul_g leaves the q = 0
    reference of _helpers on the kernel cases."""
    bad = []
    for terms in _kernel_cases(alg):
        for i in range(1, alg.n):
            for side, fn in (("r", alg._rmul_g), ("l", alg._lmul_g)):
                if fn(terms, i) != H.y_q0_gmap_reference(alg, terms, i, side):
                    bad.append((side, i, terms))
    return bad


@pytest.mark.parametrize("r,n", KERNEL_SIZES)
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
@pytest.mark.parametrize("engine", [YAlgebra, NilAlgebra])
def test_q0_kernel_matches_the_relation(engine, r, n, kind):
    alg = engine(r, n, field=H.field(kind, r))
    assert alg._q is None
    if n > 1 and engine is YAlgebra:
        # a moved key meets a kept one, on both sides, with and without
        # cancelling
        met = set()
        for terms in _kernel_cases(alg):
            for side in "rl":
                apart = sum(len(H.y_q0_gmap_reference(alg, {k: a}, 1, side))
                            for k, a in terms.items())
                got = len(H.y_q0_gmap_reference(alg, terms, 1, side))
                if got < apart:
                    met.add((side, apart - got))
        assert met == {(side, d) for side in "rl" for d in (1, 2)}
    assert _kernel_mismatches(alg) == []


def _group_cases(alg, rng):
    """Inputs of the q = 0 right step, as (group, i): for each w and i, the
    group on w holding every color with coefficient 1, and two on random
    color subsets with random coefficients."""
    f = alg.field
    cases = []
    for w in alg.perms:
        for i in range(1, alg.n):
            cases.append(((w, dict.fromkeys(alg.colors, f.one)), i))
            for _ in range(2):
                sub = {chi: f.from_int(rng.randrange(1, 13)) for chi in alg.colors
                       if rng.random() < 0.5}
                if sub:
                    cases.append(((w, sub), i))
    return cases


def _group_mismatches(alg) -> list:
    """(group, i) wherever the q = 0 step, flattened, leaves _rmul_g on the
    flattened group, returns an empty group rather than None, copies the
    colors of an up step, or changes its input."""
    def flat(group):
        return {} if group is None else {(chi, group[0]): a for chi, a in group[1].items()}

    bad = []
    for group, i in _group_cases(alg, random.Random(11)):
        before = dict(group[1])
        got = alg._rmul_g_group(group, i)
        up = alg._rstep[i][group[0]][1]
        if (flat(got) != alg._rmul_g(flat(group), i) or (got is not None and not got[1])
                or (up and got[1] is not group[1]) or group[1] != before):
            bad.append((group, i))
    return bad


@pytest.mark.parametrize("r,n", KERNEL_SIZES)
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
@pytest.mark.parametrize("engine", [YAlgebra, NilAlgebra])
def test_grouped_right_step_matches_rmul_g(engine, r, n, kind):
    # the q = 0 step on one group against the flat step: Y at (q, q - 1) =
    # (0, -1), where a down step negates the colors that pass the test,
    # and nil at (0, 0), where it kills the group
    alg = engine(r, n, field=H.field(kind, r))
    assert _group_mismatches(alg) == []
