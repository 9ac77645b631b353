"""Simple modules of the q = 0 specialization.

Every simple module of Y_{r,n}(0) is one-dimensional.  A simple is labeled
by a color vector c in {1..r}^n together with one composition per maximal
constant run of c: the composition's proper partial sums mark, inside that
run, the braid generators that act by -1; all other braid generators act by
0, and t_i acts by zeta^{c_i}.

The label count is sum over c of 2^(n - runs(c)), and the package checks it
three independent ways: the label enumeration, a brute-force sweep over all
scalar systems, and the codimension of the commutator ideal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import exactla, symgroup as sg
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


@dataclass(frozen=True)
class SimpleLabel:
    c: tuple
    parts: tuple  # one composition per maximal constant run of c


@dataclass(frozen=True)
class OneDimRep:
    t_values: tuple
    g_values: tuple


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


def check_one_dim(alg: YAlgebra, rep: OneDimRep) -> bool:
    """Exact relation check for a scalar system (any q)."""
    field, r, n = alg.field, alg.r, alg.n
    v, x = rep.t_values, rep.g_values
    one = field.one
    inv_r = one / field.from_int(r)
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
        e_val = field.zero
        for s in range(r):
            e_val = e_val + inv_r * (v[i - 1] ** s) * (v[i] ** s).inverse()
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
    r^n * 2^(n-1) candidates is exhaustive.
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


def commutator_seeds(alg: YAlgebra) -> list[dict]:
    """Commutators of generators that generate the whole commutator ideal.

    [g_i, g_{i+1}], [g_i, t_i], and [g_i, t_{i+1}] suffice; every other
    generator commutator is identically zero (torus pairs, far pairs,
    g_i against a far t_j).
    """
    n = alg.n
    g = [None] + [alg.gen_g(i) for i in range(1, n)]
    t = [None] + [alg.gen_t(j) for j in range(1, n + 1)]
    seeds = []
    for i in range(1, n - 1):
        seeds.append((g[i] * g[i + 1] - g[i + 1] * g[i]).as_E().terms)
    for i in range(1, n):
        seeds.append((g[i] * t[i] - t[i] * g[i]).as_E().terms)
        seeds.append((g[i] * t[i + 1] - t[i + 1] * g[i]).as_E().terms)
    return [s for s in seeds if s]


def commutator_ideal(alg: YAlgebra) -> exactla.Subspace:
    """Two-sided ideal generated by commutators of generators, in the E basis."""
    return exactla.closure_under(alg.field, alg.all_generator_maps(),
                                 commutator_seeds(alg))


def power_dims(alg: YAlgebra, sub: exactla.Subspace) -> list[int]:
    """Power dimensions of the commutator ideal sub down to zero.

    Uses the recurrence J^(k+1) = closure(J^k . seeds) under right
    multiplications, valid because sub is the two-sided ideal generated by
    the commutator seeds.
    """
    return exactla.ideal_power_dims(alg.field, alg.mul_terms, sub,
                                    seeds=commutator_seeds(alg),
                                    right_maps=alg.rmul_gen_maps())


def nilpotency_index(alg: YAlgebra, sub: exactla.Subspace) -> int:
    """Smallest k with J^k = 0 (k = 1 when J itself is zero)."""
    dims = power_dims(alg, sub)
    return 1 if dims[0] == 0 else len(dims)


def semisimplicity_certificate(alg: YAlgebra, ideal=None) -> dict:
    """Exact certificate that alg / J is split semisimple commutative with
    one simple per label.

    Three ingredients: the label count matches the codimension of J, every
    commutator of basis elements lies in J, and the character matrix of the
    labeled scalar reps against a basis of the quotient is invertible.
    """
    require_q0(alg)
    if ideal is None:
        ideal = commutator_ideal(alg)
    labels = enumerate_labels(alg.r, alg.n)
    field = alg.field
    keys = [(c, w) for c in alg.colors for w in alg.perms]
    dim_match = alg.dimension - ideal.dim() == len(labels)

    one_scal, minus_one = field.one, -field.one
    commutative = True
    for k1 in keys:
        x1 = {k1: one_scal}
        for k2 in keys:
            x2 = {k2: one_scal}
            ab = alg.mul_terms(x1, x2)
            exactla.vec_addmul(ab, minus_one, alg.mul_terms(x2, x1))
            if ab and not ideal.contains(ab):
                commutative = False
                break
        if not commutative:
            break

    complement = [k for k in sorted(keys) if k not in ideal.rows]
    chars_invertible = False
    if len(complement) == len(labels):
        reps = [rep_of_label(alg, lab) for lab in labels]
        mat = []
        for lab, rep in zip(labels, reps):
            row = []
            for (chi, w) in complement:
                if chi != lab.c:
                    row.append(field.zero)
                    continue
                val = field.one
                for i in alg._rword[w]:
                    val = val * rep.g_values[i - 1]
                    if val.is_zero():
                        break
                row.append(val)
            mat.append(row)
        chars_invertible = exactla.invertible(field, mat)

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
