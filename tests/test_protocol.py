"""The shared sparse-algebra protocol, run over every engine and basis.

Each case is an engine/basis pair (Y in the T and E bases, nil, AKS) over
Q(zeta_r) and over F_13.  The element arithmetic, the unit, the JSON codec
and the cross-algebra guard are one implementation for all of them.
"""

import json
import random

import pytest

from yoklab import SparseElement, structure, symgroup as sg
from yoklab.exactla import Subspace

import _helpers as H

CASES = [("Y", "T"), ("Y", "E"), ("nil", "NIL"), ("AKS", "AKS")]
FIELDS = [H.CYC, H.FP13]


def engine(name, r, n, kind):
    return {"Y": H.yalg, "nil": H.nilalg, "AKS": H.aksalg}[name](r, n, kind)


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
        H.nilalg(2, 2).one().as_E()
    with pytest.raises(ValueError):
        H.yalg(2, 2).zero("NIL")


# -- the nil algebra against its former trace, flip and witness formulas --

def old_lam(alg, x):
    return x.terms.get(((0,) * alg.n, alg.w0), alg.field.zero)


def old_psi(alg, x):
    out = {}
    for (a, w), c in x.terms.items():
        out[(tuple(reversed(a)), sg.compose(alg.w0, sg.compose(w, alg.w0)))] = c
    return alg.element(out)


def old_lam_witness(alg, key):
    a, w = key
    u = sg.compose(alg.w0, sg.inverse(w))
    return alg.T_w(u) * alg.t_monomial(tuple((-x) % alg.r for x in a))


@pytest.mark.parametrize("r,n", [(1, 3), (2, 3), (3, 2), (2, 4)])
@pytest.mark.parametrize("kind", FIELDS)
def test_nil_trace_flip_witness_match_old_formulas(r, n, kind):
    alg = H.nilalg(r, n, kind)
    rng = random.Random(17 * r + n)
    for _ in range(20):
        x = alg.random_element(rng)
        assert structure.tau(alg, x) == old_lam(alg, x)
        assert alg.phi(x) == old_psi(alg, x)
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
