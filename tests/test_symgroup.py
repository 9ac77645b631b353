import doctest
import itertools

from yoklab import symgroup as sg


def test_doctests():
    failed, _ = doctest.testmod(sg)
    assert failed == 0


def test_compose_inverse_exhaustive():
    for n in (1, 2, 3, 4):
        e = sg.identity(n)
        for w in sg.all_permutations(n):
            assert sg.compose(w, sg.inverse(w)) == e
            assert sg.compose(sg.inverse(w), w) == e


def test_reduced_words_exhaustive():
    # the word really is reduced and really multiplies out to w
    for n in (2, 3, 4):
        for w in sg.all_permutations(n):
            word = sg.reduced_word(w)
            assert len(word) == sg.length(w)
            acc = sg.identity(n)
            for i in word:
                acc = sg.right_mult_s(acc, i)
            assert acc == w


def test_length_is_inversion_count():
    for w in sg.all_permutations(4):
        inv = sum(1 for i, j in itertools.combinations(range(4), 2)
                  if w[i] > w[j])
        assert sg.length(w) == inv


def test_longest_element():
    for n in (1, 2, 3, 4, 5):
        w0 = sg.longest_element(n)
        assert w0 == tuple(range(n, 0, -1))
        assert sg.length(w0) == n * (n - 1) // 2
        assert max(sg.length(w) for w in sg.all_permutations(min(n, 4))) \
            <= sg.length(w0)


def test_mult_s_agrees_with_compose():
    for n in (2, 3):
        for w in sg.all_permutations(n):
            for i in range(1, n):
                s = sg.right_mult_s(sg.identity(n), i)
                assert sg.right_mult_s(w, i) == sg.compose(w, s)
                assert sg.left_mult_s(i, w) == sg.compose(s, w)


def test_young_longest_frozen_and_bruteforce():
    assert sg.young_longest((2, 2)) == (2, 1, 4, 3)
    assert sg.young_longest((3,)) == (3, 2, 1)
    assert sg.young_longest((1, 1, 1)) == (1, 2, 3)
    # brute force: the unique longest permutation preserving the blocks
    for blocks in [(2, 1), (1, 2), (3, 1), (2, 2), (1, 3)]:
        n = sum(blocks)
        bounds = []
        start = 1
        for b in blocks:
            bounds.append((start, start + b - 1))
            start += b
        best, best_len = None, -1
        for w in sg.all_permutations(n):
            if all(lo <= w[k - 1] <= hi
                   for lo, hi in bounds for k in range(lo, hi + 1)):
                if sg.length(w) > best_len:
                    best, best_len = w, sg.length(w)
        assert sg.young_longest(blocks) == best


def test_act_on_colors():
    assert sg.act_on_colors((2, 3, 1), (5, 6, 7)) == (7, 5, 6)
    # left action: act(uv) = act(u) after act(v)
    for u in sg.all_permutations(3):
        for v in sg.all_permutations(3):
            c = (1, 2, 2)
            assert sg.act_on_colors(sg.compose(u, v), c) == \
                sg.act_on_colors(u, sg.act_on_colors(v, c))


def test_fixed_colors_are_the_colors_w_fixes():
    assert sg.fixed_colors((2, 1, 3), 2) == [(1, 1, 1), (1, 1, 2), (2, 2, 1), (2, 2, 2)]
    for n in (1, 2, 3, 4):
        for r in (1, 2, 3):
            colors = list(itertools.product(range(1, r + 1), repeat=n))
            for w in sg.all_permutations(n):
                assert sg.fixed_colors(w, r) == [c for c in colors
                                                 if sg.act_on_colors(w, c) == c]


def test_compositions():
    assert sg.compositions(3) == [(3,), (1, 2), (2, 1), (1, 1, 1)]
    for n in (1, 2, 3, 4, 5, 6):
        comps = sg.compositions(n)
        assert len(comps) == 2 ** (n - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n and all(p >= 1 for p in c) for c in comps)


def test_composition_descents():
    assert sg.composition_descents((1, 2)) == (1,)
    assert sg.composition_descents((3,)) == ()
    assert sg.composition_descents((1, 1, 1)) == (1, 2)
    # descent sets of compositions of n biject with subsets of [1, n-1]
    for n in (1, 2, 3, 4, 5):
        seen = {sg.composition_descents(c) for c in sg.compositions(n)}
        assert len(seen) == 2 ** (n - 1)
        assert all(all(1 <= d <= n - 1 for d in s) for s in seen)
