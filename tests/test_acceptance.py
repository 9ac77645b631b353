"""Structural acceptance gate.

One test per criterion, each printing a single summary line (ACCEPTANCE k:
PASS or FAIL) so the gate can be read off a plain pytest run.  Everything is
exact arithmetic: a criterion holds identically or its test fails.  The
expensive closures are shared with the unit tests through the cached
helpers, and the cache also guarantees that the field-robustness criterion
compares the very same analyses it re-runs over F_13.
"""

import math
import random
import time

from yoklab import modrep, structure

import _helpers as H

PRESENTATION_INSTANCES = [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
CLASSIFICATION_INSTANCES = [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3)]
CELL_INSTANCES = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]
FROBENIUS_INSTANCES = [(1, 2), (1, 3), (2, 2), (3, 2), (2, 3)]
NIL_INSTANCES = [(1, 3), (2, 2), (2, 3), (3, 2)]
AGREEMENT_INSTANCES = [(1, 3), (2, 2), (2, 3)]


def _verdict(capsys, k: int, failures: list) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {k}: {'PASS' if not failures else 'FAIL'}")


def _strip(terms: dict) -> dict:
    return {k: v for k, v in terms.items() if not v.is_zero()}


def _exhaustive_assoc(field, mul, keys):
    """First associator violation among all basis triples, or None."""
    one = field.one
    singles = [{k: one} for k in keys]
    pair = [[mul(x, y) for y in singles] for x in singles]
    for i, x in enumerate(singles):
        for j in range(len(singles)):
            for k, z in enumerate(singles):
                if _strip(mul(pair[i][j], z)) != _strip(mul(x, pair[j][k])):
                    return keys[i], keys[j], keys[k]
    return None


def _random_aks_element(alg, rng, nterms: int = 4):
    terms: dict = {}
    for _ in range(nterms):
        key = (rng.choice(alg.colors), rng.choice(alg.perms))
        val = alg.field.parse(str(rng.choice((-2, -1, 1, 2, 3))))
        terms[key] = terms.get(key, alg.field.zero) + val
    return alg.element(_strip(terms))


def _nil_scalar_rep_ok(alg, rep) -> bool:
    # the braid and length-zero relations are vacuous once every T value is
    # zero; what remains is t_j^r = 1 for each torus value
    if any(not v.is_zero() for v in rep.g_values):
        return False
    one = alg.field.one
    for v in rep.t_values:
        p = one
        for _ in range(alg.r):
            p = p * v
        if not (p == one):
            return False
    return True


def test_criterion_01_presentations(capsys):
    failures: list = []
    try:
        start = time.perf_counter()
        for r, n in PRESENTATION_INSTANCES:
            for kind, q in ((H.CYC, 0), (H.FP13, 5)):
                alg = H.yalg(r, n, kind, q)
                for which in (1, 2):
                    if not alg.verify_presentation(which)["all_zero"]:
                        failures.append(
                            f"presentation {which} residual at {(r, n, kind, q)}")
                if not H.aksalg(r, n, kind, q).verify_presentation()["all_zero"]:
                    failures.append(
                        f"presentation 4 residual at {(r, n, kind, q)}")
        elapsed = time.perf_counter() - start
        if elapsed >= 60:
            failures.append(f"sweep took {elapsed:.1f}s, budget 60s")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 1, failures)
    assert not failures, "; ".join(failures)


def test_criterion_02_associativity(capsys):
    failures: list = []
    try:
        y = H.yalg(2, 2)
        bad = _exhaustive_assoc(y.field, y.mul_terms,
                                [(c, w) for c in y.colors for w in y.perms])
        if bad:
            failures.append(f"ycore associator violation at {bad}")
        a = H.aksalg(2, 2)
        bad = _exhaustive_assoc(a.field, a.mul_terms,
                                [(c, w) for c in a.colors for w in a.perms])
        if bad:
            failures.append(f"aks associator violation at {bad}")
        m = H.nilalg(2, 2)
        bad = _exhaustive_assoc(m.field, m.mul_terms,
                                [(c, w) for c in m.colors for w in m.perms])
        if bad:
            failures.append(f"nil associator violation at {bad}")

        rng = random.Random(97)
        for r, n in ((2, 3), (3, 2)):
            y, a, m = H.yalg(r, n), H.aksalg(r, n), H.nilalg(r, n)
            for _ in range(500):
                x1, x2, x3 = (y.random_element(rng) for _ in range(3))
                if not ((x1 * x2) * x3 == x1 * (x2 * x3)):
                    failures.append(f"ycore random associator violation at {(r, n)}")
                    break
            for _ in range(500):
                x1, x2, x3 = (_random_aks_element(a, rng) for _ in range(3))
                if not ((x1 * x2) * x3 == x1 * (x2 * x3)):
                    failures.append(f"aks random associator violation at {(r, n)}")
                    break
            for _ in range(500):
                x1, x2, x3 = (m.random_element(rng) for _ in range(3))
                if not ((x1 * x2) * x3 == x1 * (x2 * x3)):
                    failures.append(f"nil random associator violation at {(r, n)}")
                    break
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 2, failures)
    assert not failures, "; ".join(failures)


def test_criterion_03_simple_module_classification(capsys):
    failures: list = []
    try:
        start = time.perf_counter()
        for r, n in CLASSIFICATION_INSTANCES:
            got = H.classification_analysis(r, n)
            checks = [
                ("closed-form count != enumerated labels",
                 got["label_count"] == got["enumerated"]),
                ("count != brute-forced scalar rep count",
                 got["label_count"] == got["bruteforce"]),
                ("count != codimension of the commutator ideal",
                 got["label_count"] == got["dimension"] - got["ideal_dim"]),
                ("commutator ideal not nilpotent", got["nilpotent"]),
                ("semisimple quotient not certified", got["certified"]),
            ]
            for msg, ok in checks:
                if not ok:
                    failures.append(f"{(r, n)}: {msg}")
        for n in (2, 3, 4):
            if H.classification_analysis(1, n)["label_count"] != 2 ** (n - 1):
                failures.append(f"(1,{n}): zero-Hecke checkpoint != 2^{n - 1}")
        if H.classification_analysis(2, 2)["label_count"] != 6:
            failures.append("(2,2): checkpoint != 6")
        elapsed = time.perf_counter() - start
        if elapsed >= 300:
            failures.append(f"sweep took {elapsed:.1f}s, budget 300s")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 3, failures)
    assert not failures, "; ".join(failures)


def test_criterion_04_nilpotency_identities(capsys):
    failures: list = []
    try:
        for r in (1, 2, 3):
            for n in (2, 3):
                for item in structure.proof_identities(H.yalg(r, n)):
                    if not item["zero"]:
                        failures.append(f"{(r, n)}: {item['name']} fails")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 4, failures)
    assert not failures, "; ".join(failures)


def test_criterion_05_frobenius_form(capsys):
    failures: list = []
    try:
        for r, n in FROBENIUS_INSTANCES:
            t0 = time.perf_counter()
            res = structure.frobenius_check(H.yalg(r, n))
            took = time.perf_counter() - t0
            if not res["gram_invertible"]:
                failures.append(f"{(r, n)}: Gram matrix of the trace is singular")
            if not res["witness_ok"]:
                failures.append(f"{(r, n)}: some basis element has no dual witness")
            if (r, n) == (2, 3) and took >= 180:
                failures.append(f"(2,3) pass took {took:.1f}s, budget 180s")
        for r, n in ((2, 2), (1, 3)):
            # the Gram read off the q = 0 walk is tau of the algebra's own
            # products, sign by sign: the walk of another quadratic pair,
            # as at (q, q - 1) = (0, 1), passes the checks above as well
            if structure.gram_matrix(H.yalg(r, n)) != H.pairwise_gram(H.yalg(r, n)):
                failures.append(f"{(r, n)}: a Gram entry is not tau of its product")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 5, failures)
    assert not failures, "; ".join(failures)


def test_criterion_06_trace_symmetry(capsys):
    failures: list = []
    try:
        for r, n in ((2, 2), (1, 3)):
            if not structure.nakayama_check(H.yalg(r, n), exhaustive=True)["ok"]:
                failures.append(f"{(r, n)}: twisted trace identity fails on a basis pair")
        for r, n in ((2, 3), (3, 2)):
            if not structure.nakayama_check(H.yalg(r, n), samples=200, seed=11)["ok"]:
                failures.append(f"{(r, n)}: twisted trace identity fails on a sample")
        for r, n in ((2, 2), (1, 3), (2, 3), (3, 2)):
            if not structure.phi_checks(H.yalg(r, n))["ok"]:
                failures.append(f"{(r, n)}: flip map is not a multiplicative involution")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 6, failures)
    assert not failures, "; ".join(failures)


def test_criterion_07_cell_structure(capsys):
    failures: list = []
    try:
        for r, n in CELL_INSTANCES:
            got = H.cells_analysis(r, n)
            if not got["triangular"]:
                failures.append(f"{(r, n)}: cell order violated at {got['witness']}")
            if not got["match"]:
                failures.append(f"{(r, n)}: nonzero-form cells differ from predicted set")
            if got["count"] != H.classification_analysis(r, n)["label_count"]:
                failures.append(f"{(r, n)}: cell count differs from simple count")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 7, failures)
    assert not failures, "; ".join(failures)


def test_criterion_08_nil_variant(capsys):
    failures: list = []
    try:
        for r, n in NIL_INSTANCES:
            got = H.nil_analysis(r, n)
            alg = H.nilalg(r, n)
            size = r ** n
            if got["radical_dim"] != size * (math.factorial(n) - 1):
                failures.append(f"{(r, n)}: radical dimension off")
            if got["index"] > n * (n - 1) + 1:
                failures.append(f"{(r, n)}: nilpotency index above bound")
            if got["simple_count"] != size:
                failures.append(f"{(r, n)}: expected {size} scalar reps")
            reps = modrep.enumerate_one_dim_bruteforce(alg)
            rendered = {tuple(alg.field.render(v) for v in rep.t_values) for rep in reps}
            if len(rendered) != size:
                failures.append(f"{(r, n)}: scalar reps not pairwise distinct")
            if not all(_nil_scalar_rep_ok(alg, rep) for rep in reps):
                failures.append(f"{(r, n)}: a scalar rep violates the relations")
            if not got["minimal_ideals_ok"]:
                failures.append(f"{(r, n)}: minimal ideal realization fails")
            if not got["gram_invertible"]:
                failures.append(f"{(r, n)}: trace Gram matrix is singular")
            if not got["witness_ok"]:
                failures.append(f"{(r, n)}: some basis element has no dual witness")
            nak = structure.nakayama_check(alg, exhaustive=(r, n) == (2, 2),
                                           samples=200, seed=3)
            if not nak["ok"]:
                failures.append(f"{(r, n)}: twisted trace identity fails")
            if len(got["cells"]) != size or not got["cells_all_identity"]:
                failures.append(f"{(r, n)}: nonzero cells differ from identity column")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 8, failures)
    assert not failures, "; ".join(failures)


def test_criterion_09_presentation_agreement(capsys):
    failures: list = []
    try:
        for r, n in AGREEMENT_INSTANCES:
            base = H.classification_analysis(r, n)
            aks = H.aksalg(r, n)
            if aks.dimension != base["dimension"]:
                failures.append(f"{(r, n)}: dimensions differ")
            if len(aks.one_dim_reps()) != base["label_count"]:
                failures.append(f"{(r, n)}: scalar rep counts differ")
            if H.aks_ideal_power_dims(r, n) != base["power_dims"]:
                failures.append(f"{(r, n)}: ideal power dimensions differ")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 9, failures)
    assert not failures, "; ".join(failures)


def test_criterion_10_field_robustness(capsys):
    failures: list = []
    try:
        for r, n in CLASSIFICATION_INSTANCES:
            if H.classification_analysis(r, n, H.CYC) != \
                    H.classification_analysis(r, n, H.FP13):
                failures.append(f"{(r, n)}: classification differs between fields")
        for r, n in CELL_INSTANCES:
            if H.cells_analysis(r, n, H.CYC) != H.cells_analysis(r, n, H.FP13):
                failures.append(f"{(r, n)}: cell analysis differs between fields")
        for r, n in NIL_INSTANCES:
            if H.nil_analysis(r, n, H.CYC) != H.nil_analysis(r, n, H.FP13):
                failures.append(f"{(r, n)}: nil analysis differs between fields")
    except Exception as exc:
        failures.append(f"crash: {exc!r}")
        raise
    finally:
        _verdict(capsys, 10, failures)
    assert not failures, "; ".join(failures)
