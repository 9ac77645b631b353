"""The shared sparse-algebra protocol, run over every engine and basis.

Each case is an engine/basis pair (Y in the T and E bases, nil, AKS) over
Q(zeta_r) and over F_13.  The element arithmetic, the unit, the JSON codec
and the cross-algebra guard are one implementation for all of them.
"""

import json
import random

import pytest

from yoklab import (AKSAlgebra, NilAlgebra, SparseAlgebra, SparseElement, YAlgebra, structure,
                    symgroup as sg)
from yoklab.exactla import Subspace, _acc

import _helpers as H

CASES = [("Y", "T"), ("Y", "E"), ("nil", "NIL"), ("AKS", "AKS")]
FIELDS = [H.CYC, H.FP13]


def engine(name, r, n, kind, q=0):
    if name == "nil":
        return H.nilalg(r, n, kind)
    return {"Y": H.yalg, "AKS": H.aksalg}[name](r, n, kind, q)


@pytest.fixture(params=[(name, basis, kind) for name, basis in CASES for kind in FIELDS],
                ids=lambda p: "-".join(p))
def case(request):
    name, basis, kind = request.param
    return engine(name, 3, 2, kind), basis


def samples(alg, basis, seed, count=3):
    rng = random.Random(seed)
    return [alg.random_element(rng, basis=basis) for _ in range(count)]


def test_ring_axioms(case):
    alg, basis = case
    for seed in range(4):
        x, y, z = samples(alg, basis, seed)
        assert isinstance(x, SparseElement) and x.basis == basis
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert (x * y).basis == basis


def test_zero_one_and_scaling(case):
    alg, basis = case
    for x in samples(alg, basis, 7):
        assert x - x == alg.zero(basis)
        assert (x - x).is_zero()
        assert x ** 0 == alg.one(basis)
        assert x * alg.one(basis) == x == alg.one(basis) * x
        assert x ** 2 == x * x
        assert 2 * x == x + x == x * alg.field.from_int(2)
        assert -x == x * -1
        assert (x * 0).is_zero()


def test_json_round_trip(case):
    alg, basis = case
    for x in samples(alg, basis, 11):
        blob = alg.element_to_json(x)
        assert blob["basis"] == basis
        y = alg.element_from_json(json.loads(json.dumps(blob)))
        assert y.basis == basis and y.terms == x.terms


def test_mixing_algebras_raises():
    y = H.yalg(2, 2)
    others = [H.nilalg(2, 2), H.aksalg(2, 2), H.yalg(2, 3), H.yalg(2, 2, H.FP13)]
    x = y.gen_t(1)
    for other in others:
        z = other.one()
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(ValueError):
                op(x, z)
            with pytest.raises(ValueError):
                op(z, x)
        assert not (x == z)


def test_unknown_basis_is_rejected():
    with pytest.raises(ValueError):
        H.nilalg(2, 2).one().in_basis("T")
    with pytest.raises(ValueError):
        H.yalg(2, 2).zero("NIL")


# -- the permutation tables and the generator maps that read them -----------

@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_step_tables_match_symgroup(n):
    alg = SparseAlgebra(1, n)
    assert len(alg._rstep) == len(alg._lstep) == n
    for i in range(1, n):
        assert alg._rstep[i].keys() == alg._lstep[i].keys() == set(alg.perms)
        for w in alg.perms:
            wsi, siw = sg.right_mult_s(w, i), sg.left_mult_s(i, w)
            assert alg._rstep[i][w] == (wsi, sg.length(wsi) == sg.length(w) + 1)
            assert alg._lstep[i][w] == (siw, sg.length(siw) == sg.length(w) + 1)


@pytest.mark.parametrize("name,q", [("Y", 0), ("Y", 5), ("Y", 1), ("nil", 0), ("AKS", 0),
                                    ("AKS", 5), ("AKS", 1)])
@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("kind", FIELDS)
def test_step_maps_match_per_term_oracles(name, q, r, n, kind):
    alg = engine(name, r, n, kind, q)
    keys = [(c, w) for c in alg.colors for w in alg.perms]
    rng = random.Random(31 * r + n + q)
    inputs = [{k: alg.field.one} for k in keys]
    inputs += [alg.random_element(rng).terms for _ in range(20)]
    inputs.append({k: alg.field.from_int(rng.randint(1, 6)) for k in keys})
    for method, oracle in H.generator_map_oracles(alg):
        fast = getattr(alg, method)
        for i in range(1, n):
            for x in inputs:
                assert fast(x, i) == oracle(alg, x, i), (method, i, x)


@pytest.mark.parametrize("name,q,pair", [
    ("Y", 0, (None, -1)), ("Y", 1, (1, None)), ("Y", 5, (5, 4)), ("nil", 0, (None, None)),
    ("AKS", 0, (None, -1)), ("AKS", 1, (1, None)), ("AKS", 5, (5, 4))])
@pytest.mark.parametrize("kind", FIELDS)
def test_quadratic_pair_is_fixed_at_construction(name, q, pair, kind):
    # (q, q - 1) is stored once, a zero entry as None, and cannot be
    # reassigned, so no cached product can outlive it; each algebra is
    # fresh, so a broken guard cannot leak into the shared cached ones
    f = H.field(kind, 2)
    alg = (NilAlgebra(2, 3, field=f) if name == "nil"
           else {"Y": YAlgebra, "AKS": AKSAlgebra}[name](2, 3, field=f, q=q))
    want = tuple(None if v is None else f.from_int(v) for v in pair)
    assert (alg._q, alg._qm1) == want
    for attr in ("q", "qm1"):
        with pytest.raises(AttributeError):
            setattr(alg, attr, f.from_int(3))
    assert (alg._q, alg._qm1) == want
    assert (alg.q, alg.qm1) == tuple(f.zero if v is None else v for v in want)


def _draw_from_key_list(alg, rng, basis=None):
    """The reference draw for random_element: each key picked from the list
    of all keys."""
    vecs = alg.exponents if alg.bases[alg.mul_basis] == "a" else alg.colors
    keys = [(v, w) for v in vecs for w in alg.perms]
    terms = {}
    while not terms:
        for _ in range(4):
            key = keys[rng.randrange(len(keys))]
            c = rng.randint(-4, 4)
            if c == 0:
                continue
            _acc(terms, key, alg.field.from_int(c) * alg.field.zeta_pow(rng.randrange(alg.r)))
    return SparseElement(alg, alg.mul_basis, terms).in_basis(basis or alg.mul_basis)


@pytest.mark.parametrize("name,basis", CASES)
@pytest.mark.parametrize("r,n", [(1, 1), (3, 2), (2, 4)])
@pytest.mark.parametrize("kind", FIELDS)
def test_random_element_draws_as_from_the_key_list(name, basis, r, n, kind):
    alg = engine(name, r, n, kind)
    for seed in range(5):
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(10):
            x = alg.random_element(fast, basis=basis)
            y = _draw_from_key_list(alg, slow, basis=basis)
            assert (x.basis, list(x.terms.items())) == (y.basis, list(y.terms.items()))
        assert fast.getstate() == slow.getstate()


# -- the nil algebra against its former trace, flip and witness formulas --

def old_lam(alg, x):
    return x.terms.get(((0,) * alg.n, alg.w0), alg.field.zero)


def old_lam_witness(alg, key):
    a, w = key
    u = sg.compose(alg.w0, sg.inverse(w))
    return alg.T_w(u) * alg.element({(tuple((-x) % alg.r for x in a), alg.ident): alg.field.one})


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("kind", FIELDS)
def test_nil_trace_flip_witness_match_old_formulas(r, n, kind):
    alg = H.nilalg(r, n, kind)
    rng = random.Random(17 * r + n)
    for _ in range(20):
        x = alg.random_element(rng, basis="NIL")
        assert structure.tau(alg, x) == old_lam(alg, x)
        assert alg.phi(x) == H.phi_reference(alg, x)
    for key in structure.t_basis_keys(alg):
        j = structure.frobenius_witness(alg, key)
        assert j == old_lam_witness(alg, key)
        assert structure.tau(alg, j * alg.element({key: alg.field.one})) == alg.field.one


# -- sparse linear algebra ----------------------------------------------------

@pytest.mark.parametrize("kind", FIELDS)
def test_reduce_never_leaves_a_pivot(kind):
    f = H.field(kind, 1)
    rng = random.Random(5)
    keys = range(12)

    def vec():
        out = {k: f.from_int(rng.randint(-3, 3)) for k in keys if rng.random() < 0.4}
        return {k: c for k, c in out.items() if not c.is_zero()}

    for _ in range(10):
        sub = Subspace(f)
        rows = [vec() for _ in range(rng.randint(1, 9))]
        for row in rows:
            sub.insert(row)
        for _ in range(10):
            v = vec()
            red = sub.reduce(v)
            assert not red.keys() & sub.rows.keys()
            # v - red lies in the span of the inserted rows
            diff = dict(v)
            for k, c in red.items():
                diff[k] = diff.get(k, f.zero) - c
            dense = [[row.get(k, f.zero) for k in keys] for row in rows]
            rank = H.dense_rank(f, dense)
            assert H.dense_rank(f, dense + [[diff.get(k, f.zero) for k in keys]]) == rank
