"""The q = 0 ideals assembled from one right ideal per color pattern
against the whole-algebra routes, the seeds and power steps as
right-generator words, the AKS orbit blocks and ordered-composition
classes, the AKS centrality and relabeling guards, and the closed form at
the CLI frontier."""

import itertools
import json
import random
from collections import Counter

import pytest

from yoklab import YAlgebra, aks, algebra, cli, exactla, modrep, symgroup as sg
from yoklab.exactla import Subspace, _acc, closure_under

import _helpers as H

AKS_ORACLE_SIZES = [(r, n) for r in (1, 2, 3) for n in (1, 2, 3)] + [(2, 4), (3, 4)]
Y_ORACLE_SIZES = ([(r, n, H.FP13) for r in (1, 2, 3) for n in (1, 2, 3, 4)]
                  + [(r, n, H.CYC) for r in (1, 2, 3) for n in (1, 2, 3)])


@pytest.mark.parametrize("r,n,kind", Y_ORACLE_SIZES)
def test_blocked_power_dims_match_full_route(r, n, kind):
    alg = H.yalg(r, n, kind)
    ideal = modrep.commutator_ideal(alg)
    assert ideal.dim() == H.y_full_ideal(r, n, kind).dim()
    assert modrep.power_dims(alg, ideal) == H.y_full_power_dims(r, n, kind)


# ids as kind-r-n, the form of the ids of the tests below
Y_ORACLE_IDS = [f"{kind}-{r}-{n}" for r, n, kind in Y_ORACLE_SIZES]


@pytest.mark.parametrize("r,n,kind", Y_ORACLE_SIZES, ids=Y_ORACLE_IDS)
def test_assembled_ideal_rows_match_full_route(r, n, kind):
    # the reduced echelon basis with least-key pivots is unique, so the
    # right ideal of each pattern, carried to every color of it, gives the
    # whole route's rows exactly, for Y's commutator ideal and nil's radical
    assert modrep.commutator_ideal(H.yalg(r, n, kind)).rows == \
        H.y_full_ideal(r, n, kind).rows
    assert H.nilalg(r, n, kind).radical().rows == H.nil_full_radical(r, n, kind).rows


def _order_rmul_g(alg, terms, i):
    """YAlgebra._rmul_g with its color test read by order, chi[w(i)] <
    chi[w(i+1)], not by equality."""
    out: dict = {}
    for (chi, w), a in terms.items():
        wsi, up = alg._rstep[i][w]
        if up:
            _acc(out, (chi, wsi), a)
            continue
        if alg._q is not None:
            _acc(out, (chi, wsi), a * alg._q)
        if alg._qm1 is not None and chi[w[i - 1] - 1] < chi[w[i] - 1]:
            _acc(out, (chi, w), a * alg._qm1)
    return out


def _order_words(real):
    """commutator_words with its generator words R_i(row) kept only where
    c_i < c_{i+1}, not wherever c_i != c_{i+1}."""
    def words(alg, row, c):
        got = real(alg, row, c)
        gens = [i for i in range(1, alg.n) if c[i - 1] != c[i]]
        return [v for i, v in zip(gens, got) if c[i - 1] < c[i]] + got[len(gens):]
    return words


@pytest.mark.parametrize("mutant", ["rmul_g", "words"])
def test_order_reading_steps_break_the_pattern_rows(monkeypatch, mutant):
    # a step that reads colors by order, not equality, is caught by the
    # rows against the whole route.  The right step: the whole route also
    # closes under the left maps, which keep the equality test, and the
    # right ideals only under the mutant's right maps.  The words: a color's
    # words, and so its right ideal, now change under a bijection of the
    # color values, and the rows carried from the first color of a pattern
    # are not those of its other colors
    alg = H.yalg(2, 3, H.FP13)
    if mutant == "rmul_g":
        monkeypatch.setattr(YAlgebra, "_rmul_g", _order_rmul_g)
        full = closure_under(alg.field, alg.all_generator_maps(), H.y_full_seeds(alg))
    else:
        monkeypatch.setattr(modrep, "commutator_words", _order_words(modrep.commutator_words))
        full = H.y_full_ideal(2, 3, H.FP13)
    assert modrep.commutator_ideal(alg).rows != full.rows


def _right_color(alg, row):
    chi, w = next(iter(row))
    return alg.act(alg._inv[w], chi)


def _color_pairs(alg, vec):
    return {(chi, alg.act(alg._inv[w], chi)) for chi, w in vec}


def _y_word_seeds(alg, c):
    """The E-basis seeds that the words of y_commutator_words_reference
    stand for at right color c, in its order: E_c g_i for c_i != c_{i+1},
    then for each i the right-color components of E_c [g_i, g_{i+1}]."""
    one = alg.field.one

    def e_g(*word):
        w = alg.ident
        for i in word:
            w = sg.right_mult_s(w, i)
        return {(c, w): one}

    seeds = [e_g(i) for i in range(1, alg.n) if c[i - 1] != c[i]]
    for i in range(1, alg.n - 1):
        up, down = e_g(i, i + 1), e_g(i + 1, i)
        if c[i - 1] == c[i] == c[i + 1]:
            seeds.append({**up, **{k: -one for k in down}})
        else:
            seeds += [up, down]
    return seeds


def _nil_word_seeds(alg, c):
    """E_c T_i for each i, the seeds of NilAlgebra.radical_words."""
    return [{(c, sg.right_mult_s(alg.ident, i)): alg.field.one} for i in range(1, alg.n)]


def _word_cases(r, n, kind):
    """For Y's commutator ideal and nil's radical: the engine, the ideal
    (from the whole-algebra route, so that it does not rest on the words),
    the step words, the full reference word list (one word per seed), the
    seeds each reference word stands for, and the generators of each orbit
    block, split by color pair."""
    y, nil = H.yalg(r, n, kind), H.nilalg(r, n, kind)
    return [(y, H.y_full_ideal(r, n, kind), lambda row, c: modrep.commutator_words(y, row, c),
             lambda row, c: H.y_commutator_words_reference(y, row, c),
             _y_word_seeds, lambda o: H.y_block_seeds(y, o)),
            (nil, H.nil_full_radical(r, n, kind), nil.radical_words, nil.radical_words,
             _nil_word_seeds, lambda o: H.nil_block_seeds(nil, o))]


def _right_g_maps(alg):
    return algebra.index_maps(alg._rmul_g, range(1, alg.n))


def _oracle_powers(alg, ideal, seeds_of, depth=None):
    """For each left color chi: the orbit block's seeds and the reduced
    bases of E_chi J, E_chi J^2, ... (the first depth of them), each power
    from the products of every row of the last one with every seed, closed
    under the right generator maps."""
    for orbit in alg.central_color_blocks():
        seeds = seeds_of(orbit)
        for chi in orbit:
            cur = Subspace(alg.field, {p: row for p, row in ideal.rows.items() if p[0] == chi})
            powers = []
            while cur.dim() and len(powers) != depth:
                powers.append(cur)
                step = [alg.mul_terms(a, s) for a in cur.rows.values() for s in seeds]
                cur = closure_under(alg.field, alg.rmul_gen_maps(), [v for v in step if v])
            yield seeds, powers


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_step_words_are_seed_products(r, n, kind):
    # every reference word is the product of the row with the seed it
    # stands for, and the step words are some of them, each with one color
    # pair; over the rows of a power, the closure of the step words under
    # the right g_i is that of all the products, which is what the power
    # recurrence uses; the seeds a row of right color c stands against span
    # the block's generators whose left color is c
    for alg, ideal, words, reference, word_seeds, seeds_of in _word_cases(r, n, kind):
        checked = 0
        right = _right_g_maps(alg)
        for seeds, powers in _oracle_powers(alg, ideal, seeds_of, depth=2):
            for power in powers:
                steps, products = [], []
                for row in power.rows.values():
                    c = _right_color(alg, row)
                    full = reference(row, c)
                    assert full == [alg.mul_terms(row, s) for s in word_seeds(alg, c)]
                    got = words(row, c)
                    assert all(v in full for v in got)
                    assert all(len(_color_pairs(alg, v)) == 1 for v in got if v)
                    steps += got
                    products += full
                    checked += 1
                assert closure_under(alg.field, right, steps).rows == \
                    closure_under(alg.field, right, products).rows
        assert checked
        for orbit in alg.central_color_blocks():
            seeds = seeds_of(orbit)
            for c in orbit:
                meeting = [s for s in seeds if next(iter(s))[0] == c]
                span = closure_under(alg.field, [], meeting)
                assert closure_under(alg.field, [], word_seeds(alg, c)).rows == span.rows


@pytest.mark.parametrize("r,n", [(r, n) for r in (1, 2, 3, 4) for n in (1, 2, 3, 4)])
def test_dropped_braid_words_lie_in_the_closure(r, n):
    # the braid words of non-constant triples that commutator_words leaves
    # out: on the units they lie in the two-sided ideal, and on the rows of
    # J and J^2 in the closure of the step words under the right g_i
    alg = H.yalg(r, n, H.FP13)
    ideal = modrep.commutator_ideal(alg)
    one = alg.field.one
    dropped = 0
    for chi in alg.colors:
        unit = {(chi, alg.ident): one}
        full = H.y_commutator_words_reference(alg, unit, chi)
        dropped += len(full) - len(modrep.commutator_words(alg, unit, chi))
        assert all(ideal.contains(v) for v in full)
    right = _right_g_maps(alg)
    by_left: dict = {}
    for p, row in ideal.rows.items():
        by_left.setdefault(p[0], {})[p] = row
    for rows in by_left.values():
        cur = Subspace(alg.field, rows)
        for _ in range(2):
            steps, full = [], []
            for row in cur.rows.values():
                c = _right_color(alg, row)
                steps += modrep.commutator_words(alg, row, c)
                full += H.y_commutator_words_reference(alg, row, c)
            cur = closure_under(alg.field, right, steps)
            dropped += len(full) - len(steps)
            assert all(cur.contains(v) for v in full)
    # non-constant triples occur from r = 2, n = 3 on
    assert (dropped > 0) == (r > 1 and n > 2)


@pytest.mark.parametrize("r,n", [(r, n) for r in (1, 2, 3) for n in (1, 2, 3)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_keyed_images_span_the_map_images(r, n, kind):
    # at q = 0 a one-term row yields only its up-step keys; with the row,
    # they span what its images under the right g_i maps span
    y, nil = H.yalg(r, n, kind), H.nilalg(r, n, kind)
    checked = 0
    for alg, ideal in ((y, modrep.commutator_ideal(y)), (nil, nil.radical())):
        images = alg.span_images()
        maps = _right_g_maps(alg)
        for row in ideal.rows.values():
            if len(row) != 1:
                continue
            keyed = [v for _, vs in images({None: [row]}) for v in vs]
            assert all(len(v) == 1 for v in keyed)
            assert closure_under(alg.field, [], [row, *keyed]).rows == \
                closure_under(alg.field, [], [row, *(f(row) for f in maps)]).rows
            checked += 1
    assert checked or n == 1


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_skipped_color_pairs_vanish(r, n, kind):
    # every row of every power of every block against every seed: a pair
    # whose inner colors differ has product zero, and such pairs occur, so
    # the words of the seeds that start at the row's right color are all
    # its step vectors
    for alg, ideal, _, _, _, seeds_of in _word_cases(r, n, kind):
        skipped = met = 0
        for seeds, powers in _oracle_powers(alg, ideal, seeds_of):
            for power in powers:
                for row in power.rows.values():
                    for seed in seeds:
                        if _right_color(alg, row) == next(iter(seed))[0]:
                            met += 1
                        else:
                            assert alg.mul_terms(row, seed) == {}
                            skipped += 1
        assert skipped and met


def _radical_verdict(argv, capsys):
    code = cli.main(["radical", *argv, "--field", "fp:13", "--json"])
    return code, json.loads(capsys.readouterr().out)["power_dims"]


def _generator_word_count(alg, c):
    return sum(c[i - 1] != c[i] for i in range(1, alg.n))


def _seed_mismatches(r, n, kind):
    """(engine, color) of every right ideal E_c J of Y's commutator ideal
    or of the nil radical, and (engine, first color) of every AKS orbit
    block, that its seeds do not generate exactly.  For Y and nil the seeds
    are the step words on every E_c g_w, as block_ideal seeds them, closed
    under the right g_i, against the rows of left color c of the whole
    route (y_full_ideal, nil_full_radical); for AKS the piece steps of the
    units L_c of an orbit against the Peirce pieces of commutator_seeds()
    cut to it, as spans."""
    y, nil, a = H.yalg(r, n, kind), H.nilalg(r, n, kind), H.aksalg(r, n, kind)
    bad = []
    for name, alg, words, full in (
            ("y", y, lambda row, c: modrep.commutator_words(y, row, c), H.y_full_ideal(r, n, kind)),
            ("nil", nil, nil.radical_words, H.nil_full_radical(r, n, kind))):
        one, right = alg.field.one, _right_g_maps(alg)
        for c in alg.colors:
            seeds = [v for w in alg.perms for v in words({(c, w): one}, alg.act(alg._inv[w], c))]
            rows = {p: row for p, row in full.rows.items() if p[0] == c}
            if closure_under(alg.field, right, seeds).rows != rows:
                bad.append((name, c))
    aks_seeds = a.commutator_seeds()
    one = a.field.one
    for orbit in a.central_color_blocks():
        steps = [x for c in orbit for _, xs in a._piece_step(c, {(c, a.ident): one}) for x in xs]
        generators = [x for s in H.aks_cut_seeds(a, orbit, aks_seeds)
                      for _, x in H.aks_pieces(a, s, orbit)]
        if closure_under(a.field, [], steps).rows != closure_under(a.field, [], generators).rows:
            bad.append(("aks", orbit[0]))
    return bad


@pytest.mark.parametrize("r,n", [(r, n) for r in (1, 2, 3) for n in (1, 2, 3)] + [(2, 4)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_unit_words_span_the_block_generators(r, n, kind):
    assert _seed_mismatches(r, n, kind) == []


def test_unit_seeds_need_the_braid_words(monkeypatch):
    # a mutant that drops the braid words on the seed rows alone: on a
    # one-term row with coefficient 1, as every seed row E_p g_w is, it
    # keeps only the generator words, and the seeds of a color keep a braid
    # word only where it is constant on three places in a row
    real = modrep.commutator_words

    def mutant(alg, row, c):
        words = real(alg, row, c)
        if len(row) == 1 and next(iter(row.values())) == alg.field.one:
            return words[:_generator_word_count(alg, c)]
        return words

    monkeypatch.setattr(modrep, "commutator_words", mutant)
    assert ("y", (1, 1, 1)) in _seed_mismatches(1, 3, H.FP13)
    assert ("y", (2, 2, 2)) in _seed_mismatches(2, 3, H.FP13)


def test_braid_words_are_needed(monkeypatch, capsys):
    # at r = 1 every color vector is constant, so there is no E_x g_i word
    # and the braid commutators alone generate J; without them the seeds
    # and the steps both shrink, and the mutant is caught: exit 1 (the
    # codimension no longer matches the label count) or other power dims
    assert _radical_verdict(["--r", "1", "--n", "4"], capsys) == (0, [16, 6, 0])
    real = modrep.commutator_words
    monkeypatch.setattr(modrep, "commutator_words", lambda alg, row, c:
                        real(alg, row, c)[:_generator_word_count(alg, c)])
    code, dims = _radical_verdict(["--r", "1", "--n", "4"], capsys)
    assert code == 1 or dims != [16, 6, 0]


def test_generator_words_are_needed(monkeypatch, capsys):
    assert _radical_verdict(["--r", "3", "--n", "3"], capsys) == (0, [114, 48, 6, 0])
    real = modrep.commutator_words
    monkeypatch.setattr(modrep, "commutator_words", lambda alg, row, c:
                        real(alg, row, c)[_generator_word_count(alg, c):])
    code, dims = _radical_verdict(["--r", "3", "--n", "3"], capsys)
    assert code == 1 or dims != [114, 48, 6, 0]


def test_right_closure_changes_y_powers(monkeypatch):
    # J^k . seeds is not always a right ideal: without the closure under
    # the right g_i, Y's J^2 at (2, 5) misses four dimensions with every
    # braid word, and 210 with the step words, which leave the braid words
    # of non-constant triples to the closure
    alg = YAlgebra(2, 5, H.field(H.FP13, 2))
    ideal = modrep.commutator_ideal(alg)
    assert modrep.power_dims(alg, ideal)[:2] == [3678, 3210]
    real = exactla.tagged_power_dims
    monkeypatch.setattr(exactla, "tagged_power_dims",
                        lambda field, subs, step, images: real(field, subs, step, lambda new: []))
    assert modrep.power_dims(alg, ideal)[:2] == [3678, 3000]
    monkeypatch.setattr(modrep, "commutator_words", H.y_commutator_words_reference)
    assert modrep.power_dims(alg, ideal)[:2] == [3678, 3206]


@pytest.mark.parametrize("r,n,kind", [(r, n, kind) for r, n in [(2, 3), (3, 3), (2, 4)]
                                      for kind in (H.CYC, H.FP13)])
def test_aks_orbit_blocks_match_full_route(r, n, kind):
    assert H.aksalg(r, n, kind).commutator_power_dims() == \
        H.aks_ideal_power_dims(r, n, kind)


@pytest.mark.parametrize("r,n,kind", [(r, n, kind) for r, n in AKS_ORACLE_SIZES
                                      for kind in (H.CYC, H.FP13)])
def test_aks_word_powers_match_mul_terms_products(r, n, kind):
    # the word step on one orbit per class against the seed products, by
    # mul_terms, on every orbit
    assert H.aksalg(r, n, kind).commutator_power_dims() == \
        H.aks_orbit_power_dims(r, n, kind)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_aks_orbits_match_their_class(r, n, kind):
    # orbits whose colors have the same multiplicities in color order have
    # isomorphic blocks: each orbit's own powers are its class's; and each
    # orbit's tagged rows are Peirce pieces of its block from the cut seeds,
    # as many as its dimension
    a = H.aksalg(r, n, kind)
    classes: dict = {}
    for orbit in a.central_color_blocks():
        counts = Counter(orbit[0])
        classes.setdefault(tuple(counts[x] for x in sorted(counts)), []).append(orbit)
    if (r, n) == (3, 3):
        assert (len(a.central_color_blocks()), len(classes)) == (10, 4)
    for orbits in classes.values():
        first = a._orbit_power_dims(orbits[0])
        for orbit in orbits[1:]:
            a._check_relabeling(orbits[0], orbit)
            assert a._orbit_power_dims(orbit) == first
        for orbit in orbits:
            block = H.aks_orbit_block(a, orbit)[2]
            pieces = a._orbit_pieces(orbit)
            assert sum(sub.dim() for sub in pieces.values()) == block.dim() == first[0]
            for d, sub in pieces.items():
                for x in sub.rows.values():
                    assert block.contains(x)
                    assert H.aks_pieces(a, x, orbit) == [(d, x)]


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_aks_piece_dims_count_permutations(r, n, kind):
    # L_c A L_d is spanned by the L_c h_w L_d, and it has one dimension for
    # each w with w^-1.c = d, as E_c Y E_d has in the Y engine
    a = H.aksalg(r, n, kind)
    one = a.field.one
    pieces = 0
    for orbit in a.central_color_blocks():
        for c, d in itertools.product(orbit, repeat=2):
            span = closure_under(a.field, [], [a._rmul_L({(c, w): one}, d) for w in a.perms])
            assert span.dim() == sum(sg.act_on_colors(a._inv[w], c) == d for w in a.perms)
            pieces += 1
    assert pieces == {(2, 3): 20, (3, 3): 93, (2, 4): 70}[(r, n)]


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
        assert H.aks_right_product(a, x, y) == a.mul_terms(x, y)


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
@pytest.mark.parametrize("q", [0, 1, 5])
def test_h_pieces_match_rmul_L(r, n, kind, q):
    # x L_d for random x, then h_i: the pieces that the relation at s_i d
    # gives are every nonzero (x h_i) L_e by the straightening of _rmul_L,
    # at q = 0, at q = 1 (no straightening term) and at a generic q
    a = aks.AKSAlgebra(r, n, H.field(kind, r), q=q)
    rng = random.Random(31)
    one = a.field.one
    w0 = sg.longest_element(n)
    vecs = [{(c, w0): one} for c in a.colors] + [a.random_element(rng).terms for _ in range(40)]
    met = set()
    for y in vecs:
        for d in a.colors:
            x = a._rmul_L(y, d)
            for i in range(1, n):
                pieces = a._h_pieces(d, x, i)
                assert len({e for e, _ in pieces}) == len(pieces)
                assert dict(pieces) == {e: z for e in a.colors
                                        if (z := a._rmul_L(a._rmul_h(x, i), e))}
                met.add(len(pieces))
    assert met == ({0, 1, 2} if q != 1 else {0, 1})


def _tag_spans(a, groups) -> dict:
    """{tag: reduced rows of the span of its vectors} of (tag, vectors)
    groups."""
    vecs: dict = {}
    for tag, xs in groups:
        vecs.setdefault(tag, []).extend(xs)
    return {tag: closure_under(a.field, [], xs).rows for tag, xs in vecs.items()}


@pytest.mark.parametrize("r,n", [(2, 3), (3, 3), (2, 4)])
@pytest.mark.parametrize("kind", [H.FP13, H.CYC])
def test_aks_step_words_match_seed_products(r, n, kind):
    # on each orbit and at each power of the block from the cut seeds, the
    # piece step of each Peirce piece of a row spans, tag by tag, the
    # pieces of its products with the cut seeds, and the right pieces
    # close the steps to the next power
    a = H.aksalg(r, n, kind)
    for orbit in a.central_color_blocks():
        cut, right, cur = H.aks_orbit_block(a, orbit)
        while cur.dim():
            steps, by_seeds = [], []
            for row in cur.rows.values():
                for d, x in H.aks_pieces(a, row, orbit):
                    step = a._piece_step(d, x)
                    products = [(e, [y]) for s in cut
                                for e, y in H.aks_pieces(a, H.aks_right_product(a, x, s), orbit)]
                    assert _tag_spans(a, step) == _tag_spans(a, products)
                    steps += step
                by_seeds += [H.aks_right_product(a, row, s) for s in cut]
            nxt = closure_under(a.field, right, by_seeds)
            pieces = exactla.tagged_closure(a.field, a._right_images, steps)
            assert sum(sub.dim() for sub in pieces.values()) == nxt.dim()
            assert all(nxt.contains(x) for sub in pieces.values() for x in sub.rows.values())
            cur = nxt


def test_centrality_guard_raises(monkeypatch, capsys):
    # only the AKS engine splits off central orbit blocks, so only it and
    # aks-compare, which runs it after the Y ideal, meet the guard
    real = algebra.color_orbits

    def broken(colors):
        orbits = real(colors)
        k = next(i for i, o in enumerate(orbits) if len(o) > 1)
        return orbits[:k] + [[c] for c in orbits[k]] + orbits[k + 1:]

    monkeypatch.setattr(algebra, "color_orbits", broken)
    with pytest.raises(ArithmeticError, match="not central"):
        H.aksalg(2, 2, H.FP13).commutator_power_dims()
    code = cli.main(["aks-compare", "--r", "2", "--n", "3", "--field", "fp:13"])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_certificate_sees_a_missing_orbit_block():
    alg = H.yalg(2, 3, H.FP13)
    ideal = modrep.commutator_ideal(alg)
    assert modrep.semisimplicity_certificate(alg, ideal=ideal)["quotient_commutative"]
    drop = {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    cut = Subspace(alg.field, {p: row for p, row in ideal.rows.items() if p[0] not in drop})
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
