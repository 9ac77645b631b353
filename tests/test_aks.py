import itertools
import json
import random

import pytest

from yoklab import AKSAlgebra, modrep

import _helpers as H


def test_presentation_small():
    assert H.aksalg(2, 2).verify_presentation()["all_zero"]
    assert H.aksalg(1, 3).verify_presentation()["all_zero"]


def test_dimension_and_unit():
    a = H.aksalg(2, 3)
    assert a.dimension == 48
    one = a.one()
    x = a.element({((1, 2, 1), (2, 1, 3)): a.field.one})
    assert one * x == x
    assert x * one == x


def test_idempotent_structure():
    a = H.aksalg(2, 2)
    for c in a.colors:
        lc = a.gen_L(c)
        assert lc * lc == lc
        for c2 in a.colors:
            if c2 != c:
                assert (lc * a.gen_L(c2)).is_zero()
    with pytest.raises(ValueError):
        a.gen_L((1, 5))


def test_quadratic_at_both_parameters():
    a0 = H.aksalg(2, 2)
    h = a0.gen_h(1)
    assert h * h == -h
    a5 = H.aksalg(2, 2, H.FP13, q=5)
    h = a5.gen_h(1)
    five = a5.field.from_int(5)
    four = a5.field.from_int(4)
    assert h * h == a5.one() * five + h * four


def test_straightening_cases():
    # h L_c falls into three shapes depending on the comparison at (i, i+1)
    a = H.aksalg(3, 2)
    h = a.gen_h(1)
    for c in a.colors:
        sc = (c[1], c[0])
        lhs = h * a.gen_L(c)
        if c[0] < c[1]:
            assert lhs == a.gen_L(sc) * h - a.gen_L(c)
        elif c[0] == c[1]:
            assert lhs == a.gen_L(c) * h
        else:
            assert lhs == a.gen_L(sc) * h + a.gen_L(sc)


def test_one_dim_counts_frozen():
    assert len(H.aksalg(1, 2).one_dim_reps()) == 2
    assert len(H.aksalg(2, 2).one_dim_reps()) == 6
    assert len(H.aksalg(1, 3).one_dim_reps()) == 4
    assert len(H.aksalg(3, 2).one_dim_reps()) == 12


def test_one_dim_forced_pattern():
    # strict ascent at i forces h_i -> -1, strict descent forces 0,
    # a tie leaves both choices open
    for (c_star, xs) in H.aksalg(2, 3).one_dim_reps():
        for i in range(1, 3):
            if c_star[i - 1] < c_star[i]:
                assert xs[i - 1] == -H.field(H.CYC, 2).one
            elif c_star[i - 1] > c_star[i]:
                assert xs[i - 1].is_zero()


def test_right_maps_are_right_multiplications():
    a = H.aksalg(2, 2)
    rng = random.Random(17)
    keys = [(c, w) for c in a.colors for w in a.perms]
    gens = [a.gen_h(1)] + [a.gen_L(c) for c in a.colors]
    rmaps = a.rmul_gen_maps()
    assert len(rmaps) == len(gens)
    for _ in range(10):
        key = rng.choice(keys)
        x = a.element({key: a.field.one})
        for gen, rm in zip(gens, rmaps):
            assert rm(x.terms) == (x * gen).terms


def test_associativity_spot():
    a = H.aksalg(2, 3)
    rng = random.Random(23)
    keys = [(c, w) for c in a.colors for w in a.perms]
    for _ in range(200):
        kx, ky, kz = (rng.choice(keys) for _ in range(3))
        x = {kx: a.field.one}
        y = {ky: a.field.one}
        z = {kz: a.field.one}
        assert a.mul_terms(a.mul_terms(x, y), z) == \
            a.mul_terms(x, a.mul_terms(y, z))


def test_commutator_seeds_live_in_ideal():
    a = H.aksalg(2, 2)
    seeds = a.commutator_seeds()
    assert seeds  # (2,2) has a nonzero commutator
    # each seed really is a commutator of generators, so squares to something
    # the closure can absorb; just check the generating count shape
    assert all(isinstance(s, dict) and s for s in seeds)


def test_ideal_powers_match_y():
    assert H.aks_ideal_power_dims(2, 2) == [2, 0]
    assert H.aks_ideal_power_dims(1, 3) == [2, 0]


def test_json_shape():
    a = H.aksalg(2, 2)
    x = a.gen_h(1) + a.gen_L((1, 2))
    blob = a.element_to_json(x)
    assert blob["basis"] == "AKS"
    json.dumps(blob)  # serializable
    assert all(set(item) == {"c", "w", "coeff"} for item in blob["terms"])


def test_q_is_field_checked():
    with pytest.raises(ValueError):
        AKSAlgebra(2, 2, field=H.field(H.CYC, 3))


@pytest.mark.parametrize("kind", [H.CYC, H.FP13])
@pytest.mark.parametrize("q", [0, 5])
def test_scalar_rep_check_matches_all_colors_oracle(kind, q):
    # the straightening residual is checked at c_star only (at s_i c_star
    # it is the negative of that one); the oracle checks it at every color
    for r, n in [(2, 3), (3, 3), (2, 4)]:
        alg = H.aksalg(r, n, kind, q)
        f = alg.field
        vals = (f.zero, -f.one, f.one, f.from_int(5))   # 5 and -1 solve x^2 = 5 + 4x
        kept = 0
        for c_star in alg.colors:
            for xs in itertools.product(vals, repeat=n - 1):
                want = H.aks_scalar_rep_ok_all_colors(alg, c_star, xs)
                assert alg._scalar_rep_ok(c_star, xs) == want, (r, n, c_star, xs)
                kept += want
        if q == 0:
            assert kept == len(alg.one_dim_reps()) == modrep.count_labels(r, n)
