"""The color-orbit blocks of the q = 0 ideals against the whole-algebra
routes, the color grading of the power steps, the AKS ordered-composition
classes, the centrality and relabeling guards, and the closed form at the
CLI frontier."""

import itertools
import json
import random
from collections import Counter

import pytest

from yoklab import YAlgebra, aks, algebra, cli, exactla, modrep
from yoklab.exactla import Subspace, closure_under

import _helpers as H

Y_ORACLE_SIZES = ([(r, n, H.FP13) for r in (1, 2, 3) for n in (1, 2, 3, 4)]
                  + [(r, n, H.CYC) for r in (1, 2, 3) for n in (1, 2, 3)])


@pytest.mark.parametrize("r,n,kind", Y_ORACLE_SIZES)
def test_blocked_power_dims_match_full_route(r, n, kind):
    alg = H.yalg(r, n, kind)
    ideal = modrep.commutator_ideal(alg)
    assert ideal.dim() == H.y_full_ideal(r, n, kind).dim()
    assert modrep.power_dims(alg, ideal) == H.y_full_power_dims(r, n, kind)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_assembled_ideal_rows_match_full_route(r, n, kind):
    # the reduced echelon basis with least-key pivots is unique, so the
    # blocks carried to every orbit give the whole route's rows exactly
    assert modrep.commutator_ideal(H.yalg(r, n, kind)).rows == \
        H.y_full_ideal(r, n, kind).rows


def _right_color(alg, row):
    chi, w = next(iter(row))
    return alg.act(alg._inv[w], chi)


def _left_color(seed):
    return next(iter(seed))[0]


def _block_power_calls(alg, ideal, seeds_of):
    """Run modrep.block_power_dims with exactla.ideal_power_dims spied on:
    for each call, its arguments, its result and every (row, seed) pair
    that it passed to its product."""
    real = exactla.ideal_power_dims
    calls = []

    def spy(field, product, sub, seeds, right_maps, **keys):
        call = {"sub": sub, "seeds": seeds, "right_maps": right_maps, "pairs": []}
        calls.append(call)

        def counted(row, seed):
            call["pairs"].append((row, seed))
            return product(row, seed)
        call["dims"] = real(field, counted, sub, seeds=seeds, right_maps=right_maps, **keys)
        return call["dims"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "ideal_power_dims", spy)
        modrep.block_power_dims(alg, ideal, seeds_of)
    return calls


def _all_pair_powers(alg, call):
    """Reduced bases of the powers eJ, eJ^2, ... that one spied call
    computes, each from the products of every row of the last one with
    every seed."""
    cur, powers = call["sub"], []
    while cur.dim():
        powers.append(cur)
        step = [alg.mul_terms(a, s) for a in cur.rows.values() for s in call["seeds"]]
        cur = closure_under(alg.field, call["right_maps"], [v for v in step if v])
    return powers


def _y_and_nil_blocks(r, n, kind):
    """For Y's commutator ideal and nil's radical: the engine, and the
    spied block calls of its power recurrence."""
    y, nil = H.yalg(r, n, kind), H.nilalg(r, n, kind)
    cases = [(y, modrep.commutator_ideal(y), lambda o: modrep.commutator_seeds(y, o)),
             (nil, nil.radical(), nil.radical_seeds)]
    return [(alg, _block_power_calls(alg, ideal, seeds_of))
            for alg, ideal, seeds_of in cases]


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_skipped_color_pairs_vanish(r, n, kind):
    # every row of every power of every block against every seed: a pair
    # whose inner colors differ has product zero, and such pairs occur
    for alg, calls in _y_and_nil_blocks(r, n, kind):
        skipped = met = 0
        for call in calls:
            for power in _all_pair_powers(alg, call):
                for row in power.rows.values():
                    for seed in call["seeds"]:
                        if _right_color(alg, row) == _left_color(seed):
                            met += 1
                        else:
                            assert alg.mul_terms(row, seed) == {}
                            skipped += 1
        assert skipped and met


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_one_product_per_meeting_pair(r, n, kind):
    # the recurrence forms each product of a row of J^k with a seed of the
    # same inner color once, and no other
    for alg, calls in _y_and_nil_blocks(r, n, kind):
        for call in calls:
            powers = _all_pair_powers(alg, call)
            assert call["dims"] == [p.dim() for p in powers] + [0]
            meeting = sum(_right_color(alg, row) == _left_color(seed)
                          for p in powers for row in p.rows.values()
                          for seed in call["seeds"])
            assert all(_right_color(alg, row) == _left_color(seed)
                       for row, seed in call["pairs"])
            assert len(call["pairs"]) == meeting


def test_right_closure_changes_y_powers(monkeypatch):
    # J^k . seeds is not always a right ideal: without the closure under
    # the right g_i, Y's J^2 at (2, 5) misses four dimensions
    alg = YAlgebra(2, 5, H.field(H.FP13, 2))
    ideal = modrep.commutator_ideal(alg)
    assert modrep.power_dims(alg, ideal)[:2] == [3678, 3210]
    real = exactla.ideal_power_dims
    monkeypatch.setattr(exactla, "ideal_power_dims",
                        lambda *args, **kw: real(*args, **{**kw, "right_maps": []}))
    assert modrep.power_dims(alg, ideal)[:2] == [3678, 3206]


@pytest.mark.parametrize("r,n,kind", [(r, n, kind) for r, n in [(2, 3), (3, 3), (2, 4)]
                                      for kind in (H.CYC, H.FP13)])
def test_aks_orbit_blocks_match_full_route(r, n, kind):
    assert H.aksalg(r, n, kind).commutator_power_dims() == \
        H.aks_ideal_power_dims(r, n, kind)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_aks_orbits_match_their_class(r, n, kind):
    # orbits whose colors have the same multiplicities in color order have
    # isomorphic blocks: each orbit's own powers are its class's
    a = H.aksalg(r, n, kind)
    seeds = a.commutator_seeds()
    classes: dict = {}
    for orbit in a.central_color_blocks():
        counts = Counter(orbit[0])
        classes.setdefault(tuple(counts[x] for x in sorted(counts)), []).append(orbit)
    if (r, n) == (3, 3):
        assert (len(a.central_color_blocks()), len(classes)) == (10, 4)
    for orbits in classes.values():
        first = a._orbit_power_dims(seeds, orbits[0])
        for orbit in orbits[1:]:
            a._check_relabeling(orbits[0], orbit)
            assert a._orbit_power_dims(seeds, orbit) == first


def test_relabeling_guard_raises(monkeypatch, capsys):
    # colors reversed: (1, 2) goes to (3, 1), and D_1 tells c_1 < c_2 from
    # c_1 > c_2, so the blocks of {1, 2} and {1, 3} are not matched by it
    def reversed_sigma(source, target):
        return dict(zip(sorted(set(source)), sorted(set(target), reverse=True)))

    monkeypatch.setattr(aks, "_monotone_relabeling", reversed_sigma)
    with pytest.raises(ArithmeticError, match="not an isomorphism"):
        H.aksalg(3, 2, H.FP13).commutator_power_dims()
    with pytest.raises(ArithmeticError, match="does not carry"):
        H.aksalg(3, 3, H.FP13).commutator_power_dims()
    code = cli.main(["aks-compare", "--r", "3", "--n", "2", "--field", "fp:13"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_aks_right_rules_match_mul_terms(kind):
    a = H.aksalg(2, 3, kind)
    rng = random.Random(29)
    rmaps = a.rmul_gen_maps()
    gens = ([a.gen_h(i).terms for i in range(1, a.n)]
            + [{(c, a.ident): a.field.one} for c in a.colors])
    assert len(rmaps) == len(gens)
    for _ in range(200):
        x = a.random_element(rng).terms
        for gen, rmul in zip(gens, rmaps):
            assert rmul(x) == a.mul_terms(x, gen)
        y = a.random_element(rng).terms
        assert a._right_product(x, y) == a.mul_terms(x, y)




def test_centrality_guard_raises(monkeypatch, capsys):
    real = algebra.color_orbits

    def broken(colors):
        orbits = real(colors)
        k = next(i for i, o in enumerate(orbits) if len(o) > 1)
        return orbits[:k] + [[c] for c in orbits[k]] + orbits[k + 1:]

    monkeypatch.setattr(algebra, "color_orbits", broken)
    with pytest.raises(ArithmeticError, match="not central"):
        modrep.commutator_ideal(H.yalg(2, 2, H.FP13))
    with pytest.raises(ArithmeticError, match="not central"):
        H.aksalg(2, 2, H.FP13).commutator_power_dims()
    code = cli.main(["radical", "--r", "2", "--n", "3", "--field", "fp:13"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_certificate_sees_a_missing_orbit_block():
    alg = H.yalg(2, 3, H.FP13)
    ideal = modrep.commutator_ideal(alg)
    assert modrep.semisimplicity_certificate(alg, ideal=ideal)["quotient_commutative"]
    drop = {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    cut = Subspace(alg.field)
    cut.rows = {p: row for p, row in ideal.rows.items() if p[0] not in drop}
    assert 0 < cut.dim() < ideal.dim()
    cert = modrep.semisimplicity_certificate(alg, ideal=cut)
    assert cert["quotient_commutative"] is False
    assert cert["certified"] is False


@pytest.mark.parametrize("r,n", [(r, n) for r in (1, 2, 3, 4) for n in (1, 2, 3, 4)])
def test_radical_closed_form_at_frontier(r, n, capsys):
    code = cli.main(["radical", "--r", str(r), "--n", str(n), "--field", "fp:13", "--json"])
    payload = json.loads(capsys.readouterr().out)
    closed = sum(2 ** (n - len(modrep.runs(c)))
                 for c in itertools.product(range(1, r + 1), repeat=n))
    assert code == 0
    assert payload["codim"] == closed
    assert payload["power_dims"][-1] == 0
    if (r, n) == (4, 4):
        assert payload["power_dims"] == [5644, 4404, 2700, 1212, 312, 24, 0]
