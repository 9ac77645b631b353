"""Closed-form references, computed without importing yoklab.

* dimension of Y(r, n) and of the nil algebra: r^n n!
* simple-module labels: sum over color vectors c of 2^(n - runs(c)); this is
  also the codimension of the commutator ideal, the number of
  one-dimensional representations and the number of nonzero cells
* nil radical powers: dim J^k = r^n #{w in S_n : length(w) >= k}
* Gram size, trace-symmetry pair count, and every ok/all_zero flag true
"""

from __future__ import annotations

import itertools
import math


def permutations(n):
    return list(itertools.permutations(range(1, n + 1)))


def inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def dimension(r, n):
    return r ** n * math.factorial(n)


def runs(c):
    return 1 + sum(1 for a, b in zip(c, c[1:]) if a != b)


def label_count(r, n):
    return sum(2 ** (n - runs(c)) for c in itertools.product(range(r), repeat=n))


def nil_power_dims(r, n):
    """[dim J, dim J^2, ..., 0] for the nil radical J."""
    lengths = [inversions(w) for w in permutations(n)]
    dims = []
    k = 1
    while not dims or dims[-1]:
        dims.append(r ** n * sum(1 for ln in lengths if ln >= k))
        k += 1
    return dims


def expected_fields(command, nil, r, n):
    """Payload fields (dotted paths, list indices allowed) fixed by closed forms."""
    dim, labels = dimension(r, n), label_count(r, n)
    if command == "radical" and nil:
        return {"power_dims": nil_power_dims(r, n), "nil": True, "ok": True}
    if command == "radical":
        return {"ideal_dim": dim - labels, "codim": labels, "power_dims.0": dim - labels,
                "power_dims.-1": 0, "ok": True}
    if command == "aks-compare":
        return {"dimension.y": dim, "dimension.aks": dim, "dimension.ok": True,
                "one_dim.y": labels, "one_dim.aks": labels, "one_dim.ok": True,
                "ideal_powers.y.0": dim - labels, "ideal_powers.y.-1": 0,
                "ideal_powers.ok": True, "ok": True}
    if command == "gram":
        return {"dimension": dim, "gram_invertible": True, "witness_ok": True}
    if command == "verify":
        return {"all_zero": True, "failed": []}
    if command == "nakayama":
        return {"mode": "exhaustive", "pairs": dim * dim, "ok": True}
    if command == "cells":
        return {"triangular": True, "match": True, "beta_signs_ok": True,
                "count": labels, "missing": [], "extra": []}
    raise ValueError(f"no closed form for {command!r}")
