import random

import pytest

from yoklab import exactla, modrep
from yoklab.exactla import Subspace, closure_under, ideal_power_dims, matrix_rank

import _helpers as H

F = H.field(H.CYC, 1)  # plain rationals


def v(**kw):
    return {k: F.from_int(c) for k, c in kw.items() if c}


def test_insert_and_contains():
    sub = Subspace(F)
    assert sub.insert(v(a=1, b=2)) is not None
    assert sub.insert(v(a=2, b=4)) is None          # dependent
    assert sub.dim() == 1
    assert sub.contains(v(a=-3, b=-6))
    assert not sub.contains(v(a=1, b=1))
    assert sub.insert(v(b=1)) is not None
    assert sub.dim() == 2
    assert sub.contains(v(a=5, b=-7))
    # rows are reduced: each pivot has coefficient 1 and is eliminated elsewhere
    for piv, row in sub.rows.items():
        assert row[piv] == F.one
        for other_piv, other in sub.rows.items():
            if other_piv != piv:
                assert piv not in other


def test_rank_against_dense_oracle():
    rng = random.Random(3)
    keys = list("abcdef")
    for _ in range(20):
        rows = []
        for _ in range(rng.randint(1, 8)):
            rows.append({k: F.from_int(rng.randint(-3, 3)) for k in keys
                         if rng.random() < 0.5})
            rows[-1] = {k: c for k, c in rows[-1].items() if not c.is_zero()}
        sub = Subspace(F)
        for row in rows:
            sub.insert(dict(row))
        dense = [[row.get(k, F.zero) for k in keys] for row in rows]
        assert sub.dim() == matrix_rank(F, dense)


def test_closure_under():
    # shift map on 4 positions: closure of a single basis vector is everything
    def shift(t):
        return {(k + 1) % 4: c for k, c in t.items()}

    sub = closure_under(F, [shift], [{0: F.one}])
    assert sub.dim() == 4

    # a map into a line keeps the closure small
    def collapse(t):
        s = F.zero
        for c in t.values():
            s = s + c
        return {0: s} if not s.is_zero() else {}

    sub = closure_under(F, [collapse], [{1: F.one}])
    assert sub.dim() == 2


def test_invertible():
    assert exactla.invertible(F, [[F.one, F.zero], [F.zero, F.one]])
    assert not exactla.invertible(F, [[F.one, F.one], [F.one, F.one]])
    assert exactla.invertible(F, [[F.zero, F.one], [F.one, -F.one]])


def test_quotient_coordinates():
    sub = Subspace(F)
    sub.insert({"a": F.one, "b": F.one})
    # a is the pivot, so b and c are the surviving coordinates; the residue
    # of a basis vector on the pivot spreads onto b with a sign
    coords = exactla.quotient_coordinates(sub, ["a", "b", "c"], {"a": F.one})
    assert coords == (-F.one, F.zero)
    assert exactla.quotient_coordinates(sub, ["a", "b", "c"], {"c": F.one}) \
        == (F.zero, F.one)


def test_power_dims_nonnilpotent_raises():
    # the span of the identity of a 1-dim algebra never dies
    sub = Subspace(F)
    sub.insert({0: F.one})

    def product(x, y):
        c = x.get(0, F.zero) * y.get(0, F.zero)
        return {} if c.is_zero() else {0: c}

    with pytest.raises(ArithmeticError):
        ideal_power_dims(F, product, sub)


def test_seeded_recurrence_matches_pairwise():
    # same power dims through the generic pairwise path and the seeded one
    alg = H.yalg(2, 3)
    ideal = modrep.commutator_ideal(alg)
    pairwise = ideal_power_dims(alg.field, alg.mul_terms, ideal)
    seeded = ideal_power_dims(alg.field, alg.mul_terms, ideal,
                              seeds=modrep.commutator_seeds(alg),
                              right_maps=alg.rmul_gen_maps())
    assert pairwise == seeded == [30, 10, 0]



def test_power_dims_dedup_survives_hash_collisions(monkeypatch):
    # the brute-force path skips repeated products; with every scalar hashing
    # alike, only exact comparison tells apart two products on the same keys
    from yoklab.scalars import CycScalar, FpScalar
    monkeypatch.setattr(CycScalar, "__hash__", lambda self: 0)
    monkeypatch.setattr(FpScalar, "__hash__", lambda self: 0)

    # J = span(e1..e4) with e1 e1 = e3 + e4 and e1 e2 = e3 + 2 e4, all else 0
    table = {(1, 1): {3: 1, 4: 1}, (1, 2): {3: 1, 4: 2}}

    def product(x, y):
        out: dict = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                for k, c in table.get((kx, ky), {}).items():
                    out[k] = out.get(k, F.zero) + cx * cy * F.from_int(c)
        return {k: c for k, c in out.items() if not c.is_zero()}

    sub = Subspace(F)
    for k in (1, 2, 3, 4):
        sub.insert({k: F.one})
    assert ideal_power_dims(F, product, sub) == [4, 2, 0]

    # nil radical powers against the closed form r^n #{w : length(w) >= k}
    for kind in (H.CYC, H.FP13):
        nil = H.nilalg(2, 3, kind)
        lengths = [nil._len[w] for w in nil.perms]
        closed = [nil.r ** nil.n * sum(1 for ln in lengths if ln >= k)
                  for k in range(1, max(lengths) + 2)]
        assert nil.radical_power_dims() == closed == [40, 24, 8, 0]
