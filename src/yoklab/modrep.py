"""Simple modules of the q = 0 specialization.

Every simple module of Y_{r,n}(0) is one-dimensional.  A simple is labeled
by a color vector c in {1..r}^n together with one composition per maximal
constant run of c: the composition's proper partial sums mark, inside that
run, the braid generators that act by -1; all other braid generators act by
0, and t_i acts by zeta^{c_i}.

The label count is sum over c of 2^(n - runs(c)), and the package checks it
three independent ways: the label enumeration, a brute-force sweep over all
scalar systems, and the codimension of the commutator ideal.

The commutator ideal J and its powers are computed block by block.  For an
S_n-orbit O of color vectors, e_O = sum_{chi in O} E_chi is a central
idempotent (g_i sends E_chi to E_{s_i chi} inside O), so Y is the direct sum
of the blocks Y e_O, and J and each J^k split the same way.  In the E basis
the structure constants see only which colors of a key are equal, so a
bijection of the color alphabet is an isomorphism between blocks: every
orbit of one shape (the multiplicities of its colors, a partition of n into
at most r parts) has the same ideal, up to relabeling.  One block per shape
is closed and powered; its power dimensions count once per orbit of that
shape, and its rows, relabeled, give the blocks of J for the other orbits.
Before relying on the split, an exact check confirms that every e_O
commutes with every generator (SparseAlgebra.central_color_blocks) and
raises ArithmeticError if one does not.

The blocked closure (block_ideal) and the blocked powers (block_power_dims)
take one function words(a, c): the products of a row a of right color c
with the generators of the ideal that it meets, as words in the right
generator maps.  On the unit E_chi these words are the generators
themselves, so the closure is seeded by them, and a power step takes each
row to its words: an ideal's generators are written once, and both serve
any Y engine at q = 0.  The commutator ideal passes commutator_words; the
nil algebra, the Y engine with quadratic pair (0, 0), passes the words
a -> a T_i to get its radical.  No power step forms a product.
block_ideal and block_power_dims build each Subspace from rows that are
already reduced, through exactla.Subspace(field, rows), which indexes them;
nothing here writes the rows of a Subspace.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, namedtuple

from . import exactla, symgroup as sg
from .algebra import sum_block_dims
from .ycore import YAlgebra

__all__ = [
    "SimpleLabel",
    "OneDimRep",
    "runs",
    "enumerate_labels",
    "count_labels",
    "rep_of_label",
    "check_one_dim",
    "enumerate_one_dim_bruteforce",
    "block_ideal",
    "commutator_words",
    "block_power_dims",
    "commutator_ideal",
    "power_dims",
    "nilpotency_index",
    "semisimplicity_certificate",
    "label_to_json",
    "label_from_json",
]


def require_q0(alg: YAlgebra) -> None:
    if not alg.q.is_zero():
        raise ValueError("this structure theory is for the q = 0 specialization")


# parts holds one composition per maximal constant run of c
SimpleLabel = namedtuple("SimpleLabel", "c parts")
OneDimRep = namedtuple("OneDimRep", "t_values g_values")


def runs(c) -> list[tuple[int, int]]:
    """Maximal constant runs of c as (0-based offset, length) pairs.

    >>> runs((1, 1, 2))
    [(0, 2), (2, 1)]
    """
    out = []
    start = 0
    for i in range(1, len(c) + 1):
        if i == len(c) or c[i] != c[i - 1]:
            out.append((start, i - start))
            start = i
    return out


def enumerate_labels(r: int, n: int) -> list[SimpleLabel]:
    labels = []
    for c in itertools.product(range(1, r + 1), repeat=n):
        blocks = runs(c)
        choices = [sg.compositions(ln) for _, ln in blocks]
        for parts in itertools.product(*choices):
            labels.append(SimpleLabel(c=c, parts=tuple(parts)))
    return labels


def count_labels(r: int, n: int) -> int:
    total = 0
    for c in itertools.product(range(1, r + 1), repeat=n):
        total += 2 ** (n - len(runs(c)))
    return total


def rep_of_label(alg: YAlgebra, label: SimpleLabel) -> OneDimRep:
    require_q0(alg)
    field = alg.field
    t_values = tuple(field.zeta_pow(ci) for ci in label.c)
    minus_one = -field.one
    marked = set()
    for (offset, _), comp in zip(runs(label.c), label.parts):
        for d in sg.composition_descents(comp):
            marked.add(offset + d)
    g_values = tuple(minus_one if k in marked else field.zero
                     for k in range(1, alg.n))
    return OneDimRep(t_values=t_values, g_values=g_values)


@functools.lru_cache(maxsize=1024)
def _e_value(field, a, b):
    """(1/r) sum_s a^s b^(-s): the value of e_i = (1/r) sum_s t_i^s t_(i+1)^(-s)
    where t_i acts by a and t_(i+1) by b.  It depends on the pair alone, and
    a sweep meets only r^2 pairs, so each is computed once."""
    r = field.r
    inv_r = field.one / field.from_int(r)
    e_val = field.zero
    for s in range(r):
        e_val = e_val + inv_r * (a ** s) * (b ** s).inverse()
    return e_val


def check_one_dim(alg: YAlgebra, rep: OneDimRep) -> bool:
    """Exact relation check for a scalar system (any q)."""
    field, r, n = alg.field, alg.r, alg.n
    v, x = rep.t_values, rep.g_values
    one = field.one
    for i in range(n):
        if not (v[i] ** r - one).is_zero():
            return False
    for i in range(1, n):
        xi = x[i - 1]
        # g_i t_i = t_{i+1} g_i and g_i t_{i+1} = t_i g_i
        if not (xi * v[i - 1] - v[i] * xi).is_zero():
            return False
        if not (xi * v[i] - v[i - 1] * xi).is_zero():
            return False
        e_val = _e_value(field, v[i - 1], v[i])
        if not (xi * xi - (alg.q + alg.qm1 * e_val * xi)).is_zero():
            return False
    # braid words agree automatically for commuting scalars satisfying the
    # quadratic relation, but check anyway since it is cheap
    for i in range(1, n - 1):
        a, b = x[i - 1], x[i]
        if not (a * b * a - b * a * b).is_zero():
            return False
    return True


def enumerate_one_dim_bruteforce(alg: YAlgebra) -> list[OneDimRep]:
    """Sweep every scalar candidate and keep the ones satisfying all relations.

    t_i must go to an r-th root of unity (there are exactly r of them in
    both backends) and g_i to a root of X^2 + X, so the sweep over
    r^n * 2^(n-1) candidates is exhaustive.  On the nil algebra, the pair
    (q, q - 1) = (0, 0), g_i is T_i and X^2 leaves only the root 0.
    """
    require_q0(alg)
    field = alg.field
    gvals = (field.zero, -field.one)
    found = []
    for c in itertools.product(range(alg.r), repeat=alg.n):
        tv = tuple(field.zeta_pow(k) for k in c)
        for xs in itertools.product(gvals, repeat=alg.n - 1):
            rep = OneDimRep(t_values=tv, g_values=xs)
            if check_one_dim(alg, rep):
                found.append(rep)
    return found


def _shape(c) -> tuple:
    """Multiplicities of the colors of c, largest first: a partition of n
    into at most r parts, the same for every vector in the orbit of c."""
    return tuple(sorted(Counter(c).values(), reverse=True))


def _shape_groups(alg: YAlgebra) -> list[list]:
    """The central color blocks of alg grouped by shape, one list of orbits
    per shape; the first orbit of each group is the one computed."""
    groups: dict = {}
    for orbit in alg.central_color_blocks():
        groups.setdefault(_shape(orbit[0]), []).append(orbit)
    return list(groups.values())


def _relabel(rows: dict, source: list, target: list) -> dict:
    """Rows of the block of orbit source carried to the block of target.

    A bijection sigma of the color alphabet that matches colors of equal
    multiplicity carries source onto target, and (chi, w) -> (sigma chi, w)
    is then an isomorphism of the blocks.  It keeps the order of the keys
    (chi, w) of fixed chi, so a reduced echelon basis of rows that each have
    one left color is carried to the reduced echelon basis of the image.
    """
    def by_multiplicity(c):
        counts = Counter(c)
        return sorted(counts, key=lambda x: (-counts[x], x))

    sigma = dict(zip(by_multiplicity(source[0]), by_multiplicity(target[0])))
    image = {chi: tuple(sigma[x] for x in chi) for chi in source}
    return {(image[p[0]], p[1]): {(image[chi], w): c for (chi, w), c in row.items()}
            for p, row in rows.items()}


def _unit_seeds(alg: YAlgebra, words, orbit) -> list[dict]:
    """words(E_chi, chi) for each chi in orbit.  E_chi s = s for each
    generator s of the block whose left color is chi, so these are the
    block's generators."""
    one = alg.field.one
    return [v for chi in orbit for v in words({(chi, alg.ident): one}, chi)]


def block_ideal(alg: YAlgebra, words) -> exactla.Subspace:
    """Two-sided ideal J, in the E basis, whose generators are the step
    words of block_power_dims applied to the units: the block J e_O is
    generated by words(E_chi, chi) for chi in O, vectors with one (left
    color, right color) pair each, given alike for every orbit up to
    relabeling the colors.

    One closure per shape, under left and right multiplication by the g_i,
    carried to every orbit of that shape.  The g_i maps keep a vector at one
    color pair, so the closure is stable under the t_j and the E_chi
    projections too.  The blocks have disjoint supports, so the union of
    their reduced bases is the reduced basis of J."""
    rows: dict = {}
    images = alg.span_images(left=True)
    for orbits in _shape_groups(alg):
        seeds = _unit_seeds(alg, words, orbits[0])
        block = exactla.tagged_closure(alg.field, images, [(None, seeds)])[None]
        for orbit in orbits:
            rows.update(_relabel(block.rows, orbits[0], orbit))
    return exactla.Subspace(alg.field, rows)


def commutator_words(alg: YAlgebra, row: dict, c: tuple) -> list[dict]:
    """row . s for enough generators s of the commutator ideal J whose left
    color is c, the right color of row, as words in the right maps
    R_i: a -> a g_i, that their closure under the R_i, over the rows of a
    block, holds every such product.

    The commutators [g_i, g_{i+1}] and [g_i, E_chi] = E_{s_i chi} g_i -
    E_chi g_i generate J: the t_j are combinations of the E_chi and each
    E_chi a polynomial in the t_j, so these generate the same ideal as
    [g_i, t_j], and every other pair of generators commutes.  J is stable
    under x -> E_a x E_b, so the (left color, right color) components of
    these generate it too.  Those that start at c are E_c g_i, up to sign,
    for each i with c_i != c_{i+1}, and the right-color components of
    E_c [g_i, g_{i+1}].  As row = row E_c, the first give R_i(row) and the
    others the components of R_{i+1}(R_i row) - R_i(R_{i+1} row).

    The two braid words end at c with its entries i, i+1, i+2 rotated one
    way and the other.  When c_i = c_{i+1} = c_{i+2} they end at c itself,
    and only their difference is a product; it is emitted.  Otherwise each
    is a component on its own, but the closure that follows the words
    supplies both.  Say c_i != c_{i+1} (if not, c_{i+1} != c_{i+2}, and the
    same holds with i and i + 1 swapped).  Then R_{i+1}(R_i row) is R_{i+1}
    of the word R_i(row).  The vector a = R_{i+1}(row) lies in the block,
    as J^k is a right ideal, with entries c_i, c_{i+2} at i, i+1 of its
    right color: if they differ, R_i(a) is a combination of the words
    R_i of the block's rows; if not, c_{i+1} != c_{i+2}, and R_{i+1}(row)
    is itself a word.  So both braid words lie in the closure under the
    R_j of the words of the block's rows, which block_power_dims always
    runs.  On a unit E_c, a = E_c g_{i+1} = g_{i+1} E_{s_{i+1} c}, and the
    left maps of block_ideal's two-sided closure take its place.

    The words come in order: R_i(row) for each i with c_i != c_{i+1}, then
    the braid difference for each i <= n - 2 with c_i = c_{i+1} = c_{i+2}.
    Each R_i(row) is formed once, and only when it is used.
    """
    images: dict = {}

    def image(i):
        got = images.get(i)
        if got is None:
            got = images[i] = alg._rmul_g(row, i)
        return got

    words = [image(i) for i in range(1, alg.n) if c[i - 1] != c[i]]
    for i in range(1, alg.n - 1):
        if c[i - 1] == c[i] == c[i + 1]:
            braid = alg._rmul_g(image(i), i + 1)
            exactla.vec_addmul(braid, -alg.field.one, alg._rmul_g(image(i + 1), i))
            words.append(braid)
    return words


def block_power_dims(alg: YAlgebra, sub: exactla.Subspace, words) -> list[int]:
    """Power dimensions down to zero of a q = 0 ideal sub from block_ideal.

    Runs the recurrence J^(k+1) = closure(J^k . seeds) under right
    multiplication by the g_i on the block of sub for one orbit per shape,
    and counts each shape once per orbit.  The seeds and rows of a block
    each have one (left color, right color) pair, and so do their products
    and the images under the g_i, so the right t_j and E_chi maps add
    nothing to the closure.  Right multiplication keeps the left color, so
    each right ideal E_chi J^k of the block is computed on its own, in a
    Subspace that holds only its rows.

    No seed product is formed.  E_chi g_w = g_w E_{w^-1 chi}, so a row a
    whose right color is c meets only the seeds s whose left color is c,
    and a . s = a . E_c s is a short word in the right generator maps.
    words(a, c) returns those products for a row a of right color c, each
    with one color pair: commutator_words for Y, NilAlgebra.radical_words
    for the nil radical.  The color of a row is read off its first key, as
    every key of it carries the same pair."""
    def vecs(rows):
        for row in rows:
            chi, w = next(iter(row))
            yield from words(row, alg.act(alg._inv[w], chi))

    by_left: dict = {}
    for p, row in sub.rows.items():
        by_left.setdefault(p[0], {})[p] = row
    images = alg.span_images(left=False)
    blocks = []
    for orbits in _shape_groups(alg):
        for chi in orbits[0]:
            part = exactla.Subspace(alg.field, by_left.get(chi, {}))
            dims = exactla.tagged_power_dims(alg.field, {None: part},
                                             lambda subs: [(None, vecs(subs[None].rows.values()))],
                                             images)
            blocks.append((len(orbits), dims))
    return sum_block_dims(blocks)


def commutator_ideal(alg: YAlgebra) -> exactla.Subspace:
    """Two-sided ideal generated by commutators of generators, in the E basis."""
    return block_ideal(alg, lambda row, c: commutator_words(alg, row, c))


def power_dims(alg: YAlgebra, sub: exactla.Subspace) -> list[int]:
    """Power dimensions of the commutator ideal sub down to zero."""
    return block_power_dims(alg, sub, lambda row, c: commutator_words(alg, row, c))


def nilpotency_index(alg: YAlgebra, sub: exactla.Subspace) -> int:
    """Smallest k with J^k = 0 (k = 1 when J itself is zero)."""
    dims = power_dims(alg, sub)
    return 1 if dims[0] == 0 else len(dims)


def semisimplicity_certificate(alg: YAlgebra, ideal=None) -> dict:
    """Exact certificate that alg / J is split semisimple commutative with
    one simple per label.

    Three ingredients: the label count matches the codimension of J, every
    basis element commutes with every generator modulo J, and the character
    matrix of the labeled scalar reps against a basis of the quotient is
    invertible.
    """
    require_q0(alg)
    if ideal is None:
        ideal = commutator_ideal(alg)
    labels = enumerate_labels(alg.r, alg.n)
    field = alg.field
    keys = [(c, w) for c in alg.colors for w in alg.perms]
    dim_match = alg.dimension - ideal.dim() == len(labels)

    # A / J is commutative when every basis key commutes with every
    # generator g_i, t_j modulo the two-sided ideal J
    one, minus_one = field.one, -field.one
    pairs = list(zip(alg.lmul_gen_maps(), alg.rmul_gen_maps()))
    commutative = True
    for k in keys:
        x = {k: one}
        for lmul, rmul in pairs:
            comm = rmul(x)
            exactla.vec_addmul(comm, minus_one, lmul(x))
            if comm and not ideal.contains(comm):
                commutative = False
                break
        if not commutative:
            break

    # each label's character row, its nonzero values on the complement keys
    # of its own color, is inserted into one Subspace: the square character
    # matrix is invertible exactly when every row adds a dimension
    complement = [k for k in keys if k not in ideal.rows]
    chars_invertible = False
    if len(complement) == len(labels):
        def char_row(lab):
            g = rep_of_label(alg, lab).g_values
            row = {(chi, w): math.prod((g[i - 1] for i in alg._rword[w]), start=field.one)
                   for chi, w in complement if chi == lab.c}
            return {k: v for k, v in row.items() if not v.is_zero()}

        sub = exactla.Subspace(field)
        chars_invertible = all(sub.insert(char_row(lab)) is not None for lab in labels)

    return {
        "dimension": alg.dimension,
        "ideal_dim": ideal.dim(),
        "label_count": len(labels),
        "dimension_match": dim_match,
        "quotient_commutative": commutative,
        "characters_invertible": chars_invertible,
        "certified": dim_match and commutative and chars_invertible,
    }


def label_to_json(label: SimpleLabel) -> dict:
    return {"c": list(label.c), "J": [list(p) for p in label.parts]}


def label_from_json(obj: dict) -> SimpleLabel:
    return SimpleLabel(c=tuple(obj["c"]), parts=tuple(tuple(p) for p in obj["J"]))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
