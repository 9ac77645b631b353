"""Shared factories and cached analyses for the test suite.

The expensive structural computations (commutator ideal closures, power
dimensions, cell scans) are needed by several acceptance criteria and a few
unit tests; caching them per (r, n, field kind) keeps the suite fast without
weakening any check.
"""

from functools import lru_cache

from yoklab import AKSAlgebra, NilAlgebra, YAlgebra, make_field
from yoklab.scalars import FieldSpec
from yoklab import modrep, structure
from yoklab.exactla import closure_under, ideal_power_dims

FP13 = "fp13"
CYC = "cyc"


@lru_cache(maxsize=None)
def field(kind: str, r: int):
    if kind == CYC:
        return make_field(FieldSpec("CyclotomicRational", r))
    if kind == FP13:
        return make_field(FieldSpec("PrimeField", r, 13))
    raise ValueError(kind)


@lru_cache(maxsize=None)
def yalg(r: int, n: int, kind: str = CYC, q=0) -> YAlgebra:
    return YAlgebra(r, n, field=field(kind, r), q=q)


@lru_cache(maxsize=None)
def aksalg(r: int, n: int, kind: str = CYC, q=0) -> AKSAlgebra:
    return AKSAlgebra(r, n, field=field(kind, r), q=q)


@lru_cache(maxsize=None)
def nilalg(r: int, n: int, kind: str = CYC) -> NilAlgebra:
    return NilAlgebra(r, n, field=field(kind, r))


@lru_cache(maxsize=None)
def classification_analysis(r: int, n: int, kind: str = CYC) -> dict:
    """Everything criterion-3-shaped for one instance: counts, ideal, powers,
    certificate.  Brute force is skipped for (3,3) over the rationals only
    when unaffordable; here it is affordable everywhere required."""
    alg = yalg(r, n, kind)
    ideal = modrep.commutator_ideal(alg)
    dims = modrep.power_dims(alg, ideal)
    cert = modrep.semisimplicity_certificate(alg, ideal=ideal)
    return {
        "dimension": alg.dimension,
        "label_count": modrep.count_labels(r, n),
        "enumerated": len(modrep.enumerate_labels(r, n)),
        "bruteforce": len(modrep.enumerate_one_dim_bruteforce(alg)),
        "ideal_dim": ideal.dim(),
        "power_dims": dims,
        "nilpotent": dims[-1] == 0,
        "index": modrep.nilpotency_index(alg, ideal),
        "certified": cert["certified"],
        "certificate": cert,
    }


@lru_cache(maxsize=None)
def cells_analysis(r: int, n: int, kind: str = CYC) -> dict:
    alg = yalg(r, n, kind)
    tri = structure.triangularity_check(alg)
    match = structure.classification_match(alg)
    return {
        "triangular": tri["ok"],
        "witness": tri["witness"],
        "cells": tuple(structure.nonzero_cells(alg)),
        "count": match["count"],
        "match": match["match"],
        "beta_signs_ok": match["beta_signs_ok"],
    }


@lru_cache(maxsize=None)
def nil_analysis(r: int, n: int, kind: str = CYC) -> dict:
    alg = nilalg(r, n, kind)
    dims = alg.radical_power_dims()
    frob = structure.frobenius_check(alg)
    reps = alg.one_dim_reps()
    cells = alg.nonzero_cells()
    minimal = all(alg.minimal_ideal_check(chi)["ok"] for chi in alg.colors)
    return {
        "dimension": alg.dimension,
        "radical_dim": dims[0],
        "power_dims": dims,
        "index": 1 if dims[0] == 0 else len(dims),
        "simple_count": len(reps),
        "gram_invertible": frob["gram_invertible"],
        "witness_ok": frob["witness_ok"],
        "minimal_ideals_ok": minimal,
        "cells": tuple(cells),
        "cells_all_identity": all(w == alg.ident for (_, w) in cells),
    }


@lru_cache(maxsize=None)
def aks_ideal_power_dims(r: int, n: int, kind: str = CYC) -> list:
    a = aksalg(r, n, kind)
    ideal = closure_under(a.field, a.all_generator_maps(), a.commutator_seeds())
    return ideal_power_dims(a.field, a.mul_terms, ideal,
                            seeds=a.commutator_seeds(),
                            right_maps=a.rmul_gen_maps())


def dense_rank(field, rows) -> int:
    """Exact rank of a dense matrix (a list of scalar lists) by Gauss-Jordan
    elimination: an oracle for the sparse Subspace rank."""
    mat = [list(r) for r in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if not mat[i][col].is_zero():
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = mat[rank][col].inverse()
        mat[rank] = [inv * x for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and not mat[i][col].is_zero():
                c = mat[i][col]
                mat[i] = [a - c * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank
