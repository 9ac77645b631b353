import itertools
import json

import pytest

from yoklab import cli, modrep, symgroup as sg
from yoklab.exactla import closure_under
from yoklab.modrep import (
    SimpleLabel,
    check_one_dim,
    count_labels,
    enumerate_labels,
    enumerate_one_dim_bruteforce,
    label_from_json,
    label_to_json,
    rep_of_label,
    runs,
)

import _helpers as H

LABEL_COUNTS = {
    (1, 2): 2, (1, 3): 4, (1, 4): 8,
    (2, 2): 6, (2, 3): 18,
    (3, 2): 12, (3, 3): 48,
}

IDEAL_POWERS = {
    (1, 2): [0], (1, 3): [2, 0], (1, 4): [16, 6, 0],
    (2, 2): [2, 0], (2, 3): [30, 10, 0],
    (3, 2): [6, 0], (3, 3): [114, 48, 6, 0],
}


def test_runs():
    assert runs((1, 1, 2)) == [(0, 2), (2, 1)]
    assert runs((2,)) == [(0, 1)]
    assert runs((1, 2, 1)) == [(0, 1), (1, 1), (2, 1)]
    assert runs((3, 3, 3, 3)) == [(0, 4)]


def test_label_counts_closed_form_vs_enumeration():
    for (r, n), expect in LABEL_COUNTS.items():
        assert count_labels(r, n) == expect
        labels = enumerate_labels(r, n)
        assert len(labels) == expect
        assert len(set(labels)) == expect
        for lab in labels:
            assert isinstance(lab, SimpleLabel)
            blocks = [length for (_, length) in runs(lab.c)]
            assert len(lab.parts) == len(blocks)
            for comp, total in zip(lab.parts, blocks):
                assert sum(comp) == total


def test_hecke_case_is_power_of_two():
    for n in (2, 3, 4):
        assert count_labels(1, n) == 2 ** (n - 1)


def test_reps_satisfy_relations():
    for (r, n) in [(2, 3), (3, 2), (1, 4)]:
        alg = H.yalg(r, n)
        for lab in enumerate_labels(r, n):
            rep = rep_of_label(alg, lab)
            assert check_one_dim(alg, rep), lab


def test_rep_marks_descents():
    alg = H.yalg(2, 3)
    lab = SimpleLabel((1, 1, 2), ((1, 1), (1,)))
    rep = rep_of_label(alg, lab)
    # run (1,1) with composition (1,1) marks position 1; the singleton run
    # has no interior positions
    minus_one = -alg.field.one
    assert rep.g_values == (minus_one, alg.field.zero)
    assert rep.t_values == (alg.field.zeta_pow(1), alg.field.zeta_pow(1),
                            alg.field.zeta_pow(2))


def test_bruteforce_matches_labels():
    for (r, n) in [(1, 3), (2, 2), (3, 2)]:
        alg = H.yalg(r, n)
        brute = enumerate_one_dim_bruteforce(alg)
        assert len(brute) == count_labels(r, n)
        labeled = {(rep_of_label(alg, lab).t_values, rep_of_label(alg, lab).g_values)
                   for lab in enumerate_labels(r, n)}
        assert {(rep.t_values, rep.g_values) for rep in brute} == labeled


def _one_dim_holds(alg, rep) -> bool:
    """check_one_dim with every e_i value summed afresh: the uncached
    reference for the sweep."""
    f, r = alg.field, alg.r
    v, x = rep.t_values, rep.g_values
    if any(not (t ** r - f.one).is_zero() for t in v):
        return False
    for i in range(1, alg.n):
        xi, a, b = x[i - 1], v[i - 1], v[i]
        if not ((xi * a - b * xi).is_zero() and (xi * b - a * xi).is_zero()):
            return False
        e_val = f.zero
        for s in range(r):
            e_val = e_val + (a ** s) * (b ** s).inverse() / f.from_int(r)
        if not (xi * xi - (alg.q + alg.qm1 * e_val * xi)).is_zero():
            return False
    return all((a * b * a - b * a * b).is_zero() for a, b in zip(x, x[1:]))


def _sweep_candidates(alg):
    f = alg.field
    for c in itertools.product(range(alg.r), repeat=alg.n):
        for xs in itertools.product((f.zero, -f.one), repeat=alg.n - 1):
            yield modrep.OneDimRep(tuple(f.zeta_pow(k) for k in c), xs)


@pytest.mark.parametrize("r, n, kind", [(3, 3, H.CYC), (2, 3, H.FP13)])
def test_cached_e_values_keep_every_sweep_verdict(r, n, kind):
    alg = H.yalg(r, n, kind)
    verdicts = [(check_one_dim(alg, rep), _one_dim_holds(alg, rep))
                for rep in _sweep_candidates(alg)]
    assert all(got == want for got, want in verdicts)
    assert {got for got, _ in verdicts} == {True, False}


def test_e_value_cache_needs_both_t_values(monkeypatch, capsys):
    # e_i depends on t_i and t_(i+1): a cache keyed by t_i alone hands one
    # pair's value to another, and the sweep's count moves
    def count():
        assert cli.main(["simples", "--bruteforce", "--r", "3", "--n", "3", "--json"]) in (0, 1)
        return json.loads(capsys.readouterr().out)["bruteforce"]

    assert count() == 48
    e_value, by_t_i = modrep._e_value.__wrapped__, {}

    def keyed_by_t_i(field, a, b):
        if (field, a) not in by_t_i:
            by_t_i[(field, a)] = e_value(field, a, b)
        return by_t_i[(field, a)]

    monkeypatch.setattr(modrep, "_e_value", keyed_by_t_i)
    assert count() != 48


def test_commutator_ideal_power_dims_frozen():
    for (r, n), dims in IDEAL_POWERS.items():
        if (r, n) == (3, 3):
            continue  # covered by the acceptance gate; keep unit tests quick
        got = H.classification_analysis(r, n)
        assert got["power_dims"] == dims, (r, n)
        assert got["ideal_dim"] == dims[0]
        assert got["dimension"] - got["ideal_dim"] == count_labels(r, n)


def test_nonseed_generator_commutators_vanish():
    # the seed list leaves out [g_i, t_j] for j outside {i, i+1}, all torus
    # pairs, and far braid pairs; they are identically zero
    alg = H.yalg(2, 3)
    g = {i: alg.gen_g(i) for i in (1, 2)}
    t = {j: alg.gen_t(j) for j in (1, 2, 3)}
    for i, gi in g.items():
        for j, tj in t.items():
            if j not in (i, i + 1):
                assert (gi * tj - tj * gi).is_zero()
    for j, tj in t.items():
        for k, tk in t.items():
            assert (tj * tk - tk * tj).is_zero()
    alg4 = H.yalg(1, 4)
    g1, g3 = alg4.gen_g(1), alg4.gen_g(3)
    assert (g1 * g3 - g3 * g1).is_zero()


def test_certificate_details():
    cert = H.classification_analysis(2, 2)["certificate"]
    assert cert == {
        "dimension": 8,
        "ideal_dim": 2,
        "label_count": 6,
        "dimension_match": True,
        "quotient_commutative": True,
        "characters_invertible": True,
        "certified": True,
    }


def test_equal_character_rows_fail_the_certificate(monkeypatch):
    # every label of a color given the scalar rep of the first label of
    # that color: their character rows are equal, the character matrix is
    # singular, and the certificate must say so
    alg = H.yalg(2, 3, H.FP13)
    first = {lab.c: lab for lab in reversed(enumerate_labels(2, 3))}
    real = modrep.rep_of_label
    monkeypatch.setattr(modrep, "rep_of_label", lambda alg, lab: real(alg, first[lab.c]))
    cert = modrep.semisimplicity_certificate(alg)
    assert cert["dimension_match"] and cert["quotient_commutative"]
    assert cert["characters_invertible"] is False
    assert cert["certified"] is False


def test_q0_guard():
    alg = H.yalg(2, 2, H.FP13, q=5)
    with pytest.raises(ValueError):
        modrep.require_q0(alg)
    with pytest.raises(ValueError):
        modrep.enumerate_one_dim_bruteforce(alg)
    with pytest.raises(ValueError):
        modrep.semisimplicity_certificate(alg)
    # the commutator ideal itself makes sense for any q
    assert modrep.commutator_ideal(alg).dim() > 0


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
def test_commutator_ideal_at_q5_keeps_its_rows(r, n):
    # away from q = 0 every closure row goes through the g_i maps; the
    # blocked ideal is the closure of the commutators under every
    # generator map, row for row
    alg = H.yalg(r, n, H.FP13, q=5)
    assert alg._q is not None
    full = closure_under(alg.field, alg.all_generator_maps(), H.y_full_seeds(alg))
    assert modrep.commutator_ideal(alg).rows == full.rows


def test_label_json_roundtrip():
    for lab in enumerate_labels(2, 3):
        blob = label_to_json(lab)
        assert label_from_json(blob) == lab
        assert set(blob) == {"c", "J"}


def test_young_longest_prediction_consistency():
    # flattened label compositions land on the block structure of c
    for lab in enumerate_labels(2, 3):
        flat = tuple(x for comp in lab.parts for x in comp)
        w = sg.young_longest(flat)
        assert sg.length(w) == sum(b * (b - 1) // 2 for b in flat)
