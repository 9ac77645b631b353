import random

import pytest

from yoklab import exactla, modrep
from yoklab.exactla import Subspace, closure_under, ideal_power_dims

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
        assert sub.dim() == H.dense_rank(F, dense)


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


def test_tagged_closure_keeps_tags_apart():
    # an image goes to the tag its function gives: the shift alternates
    # tags a and b; the same vector under two tags lands in two spans
    def images(new):
        return [("b" if tag == "a" else "a", [{k + 1: c for k, c in t.items() if k < 4}
                                              for t in rows])
                for tag, rows in new.items()]

    def spans(seed):
        subs = exactla.tagged_closure(F, images, seed)
        return {tag: sorted(sub.rows) for tag, sub in subs.items()}

    assert spans([("a", [{0: F.one}]), ("b", [{}, {3: F.one}])]) == \
        {"a": [0, 2, 4], "b": [1, 3]}
    assert spans([("a", [{4: F.one}]), ("b", [{4: F.one}])]) == {"a": [4], "b": [4]}
    # an empty seed gives the zero span, under its tag and for closure_under
    assert spans([("a", [{}])]) == {"a": []}
    assert closure_under(F, [], []).dim() == 0


def test_power_dims_nonnilpotent_raises():
    # the span of the identity of a 1-dim algebra never dies
    sub = Subspace(F)
    sub.insert({0: F.one})

    def product(x, y):
        c = x.get(0, F.zero) * y.get(0, F.zero)
        return {} if c.is_zero() else {0: c}

    with pytest.raises(ArithmeticError):
        ideal_power_dims(F, product, sub, seeds=[{0: F.one}], right_maps=[])
    with pytest.raises(ArithmeticError):
        H.pairwise_power_dims(F, product, sub)


def test_seeded_recurrence_matches_pairwise():
    # the seeded recurrence against the pairwise products of the test oracle
    y = H.yalg(2, 3)
    y_blocks = modrep.commutator_blocks(y)
    assert H.pairwise_power_dims(y.field, y.mul_terms, modrep.block_ideal(y, y_blocks)) \
        == modrep.power_dims(y, y_blocks) == [30, 10, 0]

    nil = H.nilalg(2, 3)
    assert H.pairwise_power_dims(nil.field, nil.mul_terms, nil.radical()) \
        == nil.radical_power_dims() == [40, 24, 8, 0]

    a = H.aksalg(2, 2)
    a_ideal = closure_under(a.field, a.all_generator_maps(), a.commutator_seeds())
    assert H.pairwise_power_dims(a.field, a.mul_terms, a_ideal) \
        == H.aks_ideal_power_dims(2, 2) == [2, 0]

    # upper triangular 4x4 matrices, J generated by s = e12 + e23: J . s
    # spans only e13, and the right closure must add e14 = e13 e34 to J^2
    units = [(i, j) for i in range(1, 5) for j in range(i, 5)]

    def matmul(x, y):
        out: dict = {}
        for (i, j), cx in x.items():
            for (k, l), cy in y.items():
                if j == k:
                    exactla.vec_addmul(out, cx * cy, {(i, l): F.one})
        return out

    s = {(1, 2): F.one, (2, 3): F.one}
    rmaps = [lambda x, u=u: matmul(x, {u: F.one}) for u in units]
    lmaps = [lambda x, u=u: matmul({u: F.one}, x) for u in units]
    ideal = closure_under(F, lmaps + rmaps, [s])
    assert ideal_power_dims(F, matmul, ideal, seeds=[s], right_maps=rmaps) \
        == H.pairwise_power_dims(F, matmul, ideal) == [5, 2, 0]


def _index_of(rows):
    """The column index rebuilt from rows: each non-pivot key -> the pivots
    of the rows that hold it."""
    cols: dict = {}
    for piv, row in rows.items():
        for k in row:
            if k != piv:
                cols.setdefault(k, set()).add(piv)
    return cols


def _check_against_dense(sub, field, inserted, keys):
    assert {k: s for k, s in sub._cols.items() if s} == _index_of(sub.rows)
    dense = H.dense_rref(field, [[row.get(k, field.zero) for k in keys] for row in inserted])
    expect = {}
    for line in dense:
        row = {k: c for k, c in zip(keys, line) if not c.is_zero()}
        expect[min(row)] = row
    assert sub.rows == expect


@pytest.mark.parametrize("kind", [H.CYC, H.FP13])
def test_column_index_follows_every_insert(kind):
    # interleaved inserts and checks: after each insert the index equals one
    # rebuilt from rows, and rows equal the dense reduced row echelon form;
    # a Subspace built from those rows carries on the same
    f = H.field(kind, 1)
    rng = random.Random(41)
    keys = list(range(10))
    for trial in range(30):
        sub, inserted = Subspace(f), []
        for _ in range(rng.randint(1, 12)):
            vec = {k: f.from_int(rng.randint(-3, 3)) for k in keys if rng.random() < 0.35}
            vec = {k: c for k, c in vec.items() if not c.is_zero()}
            before = sub.dim()
            stored = sub.insert(vec)
            assert (stored is None) == (sub.dim() == before)
            inserted.append(vec)
            _check_against_dense(sub, f, inserted, keys)
            assert sub.contains(vec)
            if trial % 3 == 0:
                sub = Subspace(f, {p: dict(row) for p, row in sub.rows.items()})
                _check_against_dense(sub, f, inserted, keys)


@pytest.mark.parametrize("kind", [H.CYC, H.FP13])
def test_one_term_inserts_match_dense(kind):
    # a stream mostly of one-term vectors: a fresh key, a key that other rows
    # hold off their pivots, the pivot of a one-term row and the pivot of a
    # longer row must each come up, and after every insert the rows equal the
    # dense reduced row echelon form and the index equals a rebuilt one
    f = H.field(kind, 1)
    rng = random.Random(53)
    keys = list(range(8))
    seen = set()
    for _ in range(40):
        sub, inserted = Subspace(f), []
        for _ in range(rng.randint(2, 10)):
            if rng.random() < 0.75:
                k = rng.choice(keys)
                vec = {k: f.from_int(rng.choice([-2, -1, 1, 3]))}
                held = sub.rows.get(k)
                if held is None:
                    seen.add("held off pivot" if sub._cols.get(k) else "fresh")
                else:
                    seen.add("one-term pivot" if len(held) == 1 else "longer pivot")
            else:
                vec = {k: f.from_int(rng.randint(-3, 3)) for k in keys if rng.random() < 0.4}
                vec = {k: c for k, c in vec.items() if not c.is_zero()}
            before = sub.dim()
            stored = sub.insert(vec)
            assert (stored is None) == (sub.dim() == before)
            inserted.append(vec)
            _check_against_dense(sub, f, inserted, keys)
    assert seen == {"fresh", "held off pivot", "one-term pivot", "longer pivot"}
