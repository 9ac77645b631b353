"""The color-orbit blocks of the q = 0 ideals against the whole-algebra
routes, the centrality guard, and the closed form at the CLI frontier."""

import itertools
import json
import random

import pytest

from yoklab import algebra, cli, modrep
from yoklab.exactla import Subspace

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


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_paired_product_matches_mul_terms(r, n, kind):
    # every row of the ideal against every seed of every orbit, for the
    # commutator ideal of Y and the nil radical
    y, nil = H.yalg(r, n, kind), H.nilalg(r, n, kind)
    cases = [(y, modrep.commutator_ideal(y), lambda o: modrep.commutator_seeds(y, o)),
             (nil, nil.radical(), nil.radical_seeds)]
    for alg, ideal, seeds_of in cases:
        product = modrep._paired_product(alg)
        pairs = skipped = 0
        for orbit in alg.central_color_blocks():
            for seed in seeds_of(orbit):
                for row in ideal.basis_rows():
                    got = product(row, seed)
                    assert got == alg.mul_terms(row, seed)
                    pairs += 1
                    skipped += not got
        assert pairs and skipped


@pytest.mark.parametrize("r,n,kind", [(2, 3, H.CYC), (3, 3, H.CYC), (2, 4, H.FP13)])
def test_aks_orbit_blocks_match_full_route(r, n, kind):
    assert H.aksalg(r, n, kind).commutator_power_dims() == \
        H.aks_ideal_power_dims(r, n, kind)


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
