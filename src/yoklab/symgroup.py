"""Symmetric group combinatorics on one-line-notation tuples.

A permutation of {1..n} is a tuple ``w`` with ``w[i-1] = w(i)``.  Composition
is right-to-left: ``compose(u, v)`` is the map i -> u(v(i)).

>>> reduced_word((3, 2, 1))
(1, 2, 1)
>>> act_on_colors((2, 3, 1), (5, 6, 7))
(7, 5, 6)
"""

from __future__ import annotations

import itertools

Perm = tuple[int, ...]

__all__ = [
    "Perm",
    "identity",
    "compose",
    "inverse",
    "length",
    "reduced_word",
    "right_mult_s",
    "left_mult_s",
    "longest_element",
    "young_longest",
    "act_on_colors",
    "fixed_colors",
    "all_permutations",
    "compositions",
    "composition_descents",
]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def compose(u: Perm, v: Perm) -> Perm:
    # (u . v)(i) = u(v(i))
    return tuple(u[v[i] - 1] for i in range(len(u)))


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi - 1] = i + 1
    return tuple(out)


def length(w: Perm) -> int:
    """Coxeter length = number of inversions."""
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def right_mult_s(w: Perm, i: int) -> Perm:
    """w * s_i: swap the values in positions i, i+1 (1-based i)."""
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


def left_mult_s(i: int, w: Perm) -> Perm:
    """s_i * w: swap the letters i, i+1 wherever they occur."""
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


def reduced_word(w: Perm) -> tuple[int, ...]:
    """A fixed reduced word for w, peeling the smallest right descent.

    Deterministic, so cached engines agree on the normal form.

    >>> reduced_word((1, 2, 3))
    ()
    >>> reduced_word((2, 1, 3))
    (1,)
    """
    letters = []
    cur = w
    while True:
        for i in range(1, len(cur)):
            if cur[i - 1] > cur[i]:
                letters.append(i)
                cur = right_mult_s(cur, i)
                break
        else:
            break
    letters.reverse()
    return tuple(letters)


def longest_element(n: int) -> Perm:
    return tuple(range(n, 0, -1))


def young_longest(block_sizes: tuple[int, ...]) -> Perm:
    """Longest element of the Young subgroup with the given block sizes.

    Reverses each consecutive block of positions.

    >>> young_longest((2, 2))
    (2, 1, 4, 3)
    """
    out = []
    start = 1
    for b in block_sizes:
        out.extend(range(start + b - 1, start - 1, -1))
        start += b
    return tuple(out)


def act_on_colors(w: Perm, colors: tuple) -> tuple:
    """Place permutation on color vectors: (w.c)[i] = c[w^{-1}(i)]."""
    winv = inverse(w)
    return tuple(colors[winv[i] - 1] for i in range(len(w)))


def fixed_colors(w: Perm, r: int) -> list[tuple]:
    """The colors c in {1..r}^n with w.c = c, those constant on each cycle
    of w, in increasing order: r^(number of cycles) of them."""
    cycle = [None] * len(w)
    count = 0
    for start in range(len(w)):
        if cycle[start] is None:
            k = start
            while cycle[k] is None:
                cycle[k] = count
                k = w[k] - 1
            count += 1
    return [tuple(vals[k] for k in cycle)
            for vals in itertools.product(range(1, r + 1), repeat=count)]


def all_permutations(n: int):
    return [tuple(p) for p in itertools.permutations(range(1, n + 1))]


def compositions(n: int) -> list[tuple[int, ...]]:
    """All compositions of n (ordered tuples of positive parts).

    >>> compositions(3)
    [(3,), (1, 2), (2, 1), (1, 1, 1)]
    """
    out = []
    for mask in range(1 << (n - 1)):
        parts = []
        prev = 0
        for cut in range(1, n):
            if mask >> (cut - 1) & 1:
                parts.append(cut - prev)
                prev = cut
        parts.append(n - prev)
        out.append(tuple(parts))
    return out


def composition_descents(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Proper partial sums of a composition.

    >>> composition_descents((2, 1, 3))
    (2, 3)
    """
    out = []
    acc = 0
    for b in parts[:-1]:
        acc += b
        out.append(acc)
    return tuple(out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
