"""Command-line interface.

Every subcommand takes --r and --n, builds the requested algebra over an
exact field, runs a structural computation, and exits 0 when the verified
property holds, 1 when a mathematical check fails, and 2 on usage errors.
Output is deterministic; --json switches to machine-readable form.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import modrep, structure
from .aks import AKSAlgebra
from .nilalg import NilAlgebra
from .scalars import FieldSpec, make_field
from .ycore import YAlgebra

MAX_R = 4
MAX_N = 4
SCHEMA = "yoklab/1"


def _config_exit(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _field_for(args):
    spec = args.field
    if spec == "cyclotomic":
        return make_field(FieldSpec("CyclotomicRational", args.r))
    if spec.startswith("fp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            _config_exit(f"bad prime in --field {spec!r}")
        try:
            return make_field(FieldSpec("PrimeField", args.r, p))
        except ValueError as exc:
            _config_exit(str(exc))
    _config_exit(f"unknown --field {spec!r} (want 'cyclotomic' or 'fp:<p>')")


def _check_limits(parser, args):
    if args.r < 1 or args.n < 1:
        parser.error("need --r >= 1 and --n >= 1")
    if not args.allow_large and (args.r > MAX_R or args.n > MAX_N):
        parser.error(
            f"r <= {MAX_R} and n <= {MAX_N} unless --allow-large is given")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(args, human_lines, payload) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _q_for(args, field):
    """The --q scalar of verify and mult, parsed in field; 0 when not given."""
    try:
        return field.parse("0" if args.q is None else args.q)
    except ValueError as exc:
        _config_exit(str(exc))


def _reject_q(args) -> None:
    """The nil algebra has no q, so it takes no --q, not even --q 0."""
    if args.q is not None:
        _config_exit("the nil algebra has no q; drop --q")


def cmd_dim(args) -> int:
    alg = NilAlgebra(args.r, args.n) if args.nil else YAlgebra(args.r, args.n)
    _emit(args, [f"dimension = {alg.dimension}"],
          {"schema": SCHEMA, "r": args.r, "n": args.n, "dimension": alg.dimension})
    return 0


def cmd_verify(args) -> int:
    field = _field_for(args)
    if args.presentation == "nil":
        _reject_q(args)
        report = NilAlgebra(args.r, args.n, field).verify_presentation()
    elif args.presentation == "4":
        report = AKSAlgebra(args.r, args.n, field, _q_for(args, field)).verify_presentation()
    else:
        report = YAlgebra(args.r, args.n, field,
                          _q_for(args, field)).verify_presentation(int(args.presentation))
    lines = [f"presentation {report['presentation']}: "
             f"{'all relations hold' if report['all_zero'] else 'RESIDUAL FOUND'}"]
    for item in report["relations"]:
        if not item["zero"]:
            lines.append(f"  nonzero residual: {item['name']}")
    payload = {"schema": SCHEMA, "r": args.r, "n": args.n,
               "q": "0" if args.q is None else args.q,
               "presentation": report["presentation"],
               "all_zero": report["all_zero"],
               "failed": [it["name"] for it in report["relations"] if not it["zero"]]}
    _emit(args, lines, payload)
    return 0 if report["all_zero"] else 1


def cmd_mult(args) -> int:
    try:
        lhs_obj = json.loads(args.lhs)
        rhs_obj = json.loads(args.rhs)
    except json.JSONDecodeError as exc:
        print(f"error: bad element JSON: {exc}", file=sys.stderr)
        return 2
    if args.nil:
        _reject_q(args)
    try:
        field = _field_for(args)
        alg = (NilAlgebra(args.r, args.n, field) if args.nil
               else YAlgebra(args.r, args.n, field, _q_for(args, field)))
        prod = alg.element_from_json(lhs_obj) * alg.element_from_json(rhs_obj)
        out = alg.element_to_json(prod)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_simples(args) -> int:
    field = _field_for(args)
    if args.nil:
        alg = NilAlgebra(args.r, args.n, field)
        reps = alg.one_dim_reps()
        count = len(reps)
        expected = args.r ** args.n
        ok = count == expected
        lines = [f"one-dimensional simples: {count} (expected {expected})"]
        payload = {"schema": SCHEMA, "r": args.r, "n": args.n, "nil": True,
                   "count": count, "expected": expected, "ok": ok}
        _emit(args, lines, payload)
        return 0 if ok else 1

    alg = YAlgebra(args.r, args.n, field)
    labels = modrep.enumerate_labels(args.r, args.n)
    formula = modrep.count_labels(args.r, args.n)
    ok = len(labels) == formula
    lines = [f"simple-module labels: {len(labels)} (closed form {formula})"]
    payload = {"schema": SCHEMA, "r": args.r, "n": args.n,
               "count": len(labels), "formula": formula}
    if args.bruteforce:
        brute = modrep.enumerate_one_dim_bruteforce(alg)
        ok = ok and len(brute) == len(labels)
        lines.append(f"brute-force scalar systems: {len(brute)}")
        payload["bruteforce"] = len(brute)
    if args.list:
        payload["labels"] = [modrep.label_to_json(lab) for lab in labels]
        if not args.json:
            for lab in labels:
                lines.append(f"  {modrep.label_to_json(lab)}")
    payload["ok"] = ok
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_radical(args) -> int:
    alg = (NilAlgebra if args.nil else YAlgebra)(args.r, args.n, _field_for(args))
    if args.nil:
        ideal = alg.radical()
        dims = modrep.block_power_dims(alg, ideal, alg.radical_seeds)
        name, simples = "radical", args.r ** args.n
    else:
        ideal = modrep.commutator_ideal(alg)
        dims = modrep.power_dims(alg, ideal)
        name, simples = "commutator ideal", modrep.count_labels(args.r, args.n)
    codim = alg.dimension - ideal.dim()
    ok = codim == simples and dims[-1] == 0
    lines = [f"{name} dimension = {ideal.dim()} (codim {codim})",
             f"power dimensions: {dims}",
             f"nilpotency index = {1 if dims[0] == 0 else len(dims)}"]
    payload = {"schema": SCHEMA, "r": args.r, "n": args.n, "power_dims": dims, "ok": ok}
    payload.update({"nil": True} if args.nil else {"ideal_dim": ideal.dim(), "codim": codim})
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_gram(args) -> int:
    alg = (NilAlgebra if args.nil else YAlgebra)(args.r, args.n, _field_for(args))
    if args.export:
        try:
            with open(args.export, "w") as fh:
                export = {"schema": SCHEMA, **structure.gram_to_json(
                    alg, *structure.gram_matrix(alg))}
                if args.nil:
                    export["nil"] = True
                json.dump(export, fh, indent=2, sort_keys=True)
        except OSError as exc:
            _config_exit(f"cannot write --export {args.export!r}: {exc.strerror}")
    res = structure.frobenius_check(alg)
    ok = res["gram_invertible"] and res["witness_ok"]
    verdict = "invertible"
    if not res["gram_invertible"]:
        bad = structure.singular_block(alg, structure.gram_tables(alg))
        verdict = f"SINGULAR (block c = {bad})"
    lines = [f"gram matrix {res['dimension']}x{res['dimension']}: {verdict}",
             f"constructive witnesses: {'ok' if res['witness_ok'] else 'FAILED'}"]
    payload = {"schema": SCHEMA, "r": args.r, "n": args.n, **res}
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_nakayama(args) -> int:
    alg = (NilAlgebra if args.nil else YAlgebra)(args.r, args.n, _field_for(args))
    res = structure.nakayama_check(alg, exhaustive=args.exhaustive,
                                   samples=args.samples, seed=args.seed)
    lines = [f"trace symmetry ({res['mode']}, {res['pairs']} pairs): "
             f"{'ok' if res['ok'] else 'FAILED'}"]
    payload = {"schema": SCHEMA, "r": args.r, "n": args.n, **res}
    _emit(args, lines, payload)
    return 0 if res["ok"] else 1


def cmd_cells(args) -> int:
    field = _field_for(args)
    if args.nil:
        alg = NilAlgebra(args.r, args.n, field)
        cells = structure.nonzero_cells(alg)
        expected = args.r ** args.n
        ok = (len(cells) == expected
              and all(w == alg.ident for _, w in cells))
        lines = [f"nonzero cells: {len(cells)} (expected {expected}, "
                 f"all at the identity: {all(w == alg.ident for _, w in cells)})"]
        payload = {"schema": SCHEMA, "r": args.r, "n": args.n, "nil": True,
                   "count": len(cells), "ok": ok}
        _emit(args, lines, payload)
        return 0 if ok else 1

    alg = YAlgebra(args.r, args.n, field)
    tri = structure.triangularity_check(alg)
    match = structure.classification_match(alg)
    ok = tri["ok"] and match["match"] and match["beta_signs_ok"]
    lines = [f"triangularity: {'ok' if tri['ok'] else 'FAILED at ' + repr(tri['witness'])}",
             f"nonzero cells: {match['count']}",
             f"matches simple-module labels: {match['match']}",
             f"beta signs: {'ok' if match['beta_signs_ok'] else 'FAILED'}"]
    payload = {"schema": SCHEMA, "r": args.r, "n": args.n,
               "triangular": tri["ok"],
               "count": match["count"], "match": match["match"],
               "beta_signs_ok": match["beta_signs_ok"],
               "missing": [[list(c), list(w)] for c, w in match["missing"]],
               "extra": [[list(c), list(w)] for c, w in match["extra"]]}
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_aks_compare(args) -> int:
    field = _field_for(args)
    y = YAlgebra(args.r, args.n, field)
    a = AKSAlgebra(args.r, args.n, field)

    dim_ok = y.dimension == a.dimension
    y_count = len(modrep.enumerate_one_dim_bruteforce(y))
    a_count = len(a.one_dim_reps())
    count_ok = y_count == a_count

    y_ideal = modrep.commutator_ideal(y)
    y_dims = modrep.power_dims(y, y_ideal)
    a_dims = a.commutator_power_dims()
    dims_ok = y_dims == a_dims

    ok = dim_ok and count_ok and dims_ok
    lines = [f"dimension: {y.dimension} vs {a.dimension} "
             f"({'ok' if dim_ok else 'MISMATCH'})",
             f"one-dimensional reps: {y_count} vs {a_count} "
             f"({'ok' if count_ok else 'MISMATCH'})",
             f"commutator ideal powers: {y_dims} vs {a_dims} "
             f"({'ok' if dims_ok else 'MISMATCH'})"]
    payload = {"schema": SCHEMA, "r": args.r, "n": args.n,
               "dimension": {"y": y.dimension, "aks": a.dimension, "ok": dim_ok},
               "one_dim": {"y": y_count, "aks": a_count, "ok": count_ok},
               "ideal_powers": {"y": y_dims, "aks": a_dims, "ok": dims_ok},
               "ok": ok}
    _emit(args, lines, payload)
    return 0 if ok else 1


def cmd_report(args) -> int:
    field = _field_for(args)
    y = YAlgebra(args.r, args.n, field)
    nil = NilAlgebra(args.r, args.n, field)
    aks = AKSAlgebra(args.r, args.n, field)

    p1 = y.verify_presentation(1)["all_zero"]
    p2 = y.verify_presentation(2)["all_zero"]
    p4 = aks.verify_presentation()["all_zero"]
    pn = nil.verify_presentation()["all_zero"]

    ideal = modrep.commutator_ideal(y)
    cert = modrep.semisimplicity_certificate(y, ideal=ideal)
    dims = modrep.power_dims(y, ideal)
    frob = structure.frobenius_check(y)
    naka = structure.nakayama_check(y, samples=50, seed=args.seed)
    match = structure.classification_match(y)
    tri = structure.triangularity_check(y)
    nil_frob = structure.frobenius_check(nil)
    nil_dims = nil.radical_power_dims()

    report = {
        "schema": SCHEMA,
        "r": args.r,
        "n": args.n,
        "field": args.field,
        "dimension": y.dimension,
        "presentations": {"1": p1, "2": p2, "4": p4, "nil": pn},
        "classification": {
            "label_count": cert["label_count"],
            "ideal_dim": cert["ideal_dim"],
            "power_dims": dims,
            "certified": cert["certified"],
        },
        "frobenius": frob,
        "nakayama": {"mode": naka["mode"], "pairs": naka["pairs"], "ok": naka["ok"]},
        "cells": {"triangular": tri["ok"], "count": match["count"],
                  "match": match["match"], "beta_signs_ok": match["beta_signs_ok"]},
        "nil": {"radical_power_dims": nil_dims,
                "simple_count": len(nil.one_dim_reps()),
                **nil_frob},
    }
    all_ok = all([p1, p2, p4, pn, cert["certified"], frob["gram_invertible"],
                  frob["witness_ok"], naka["ok"], tri["ok"], match["match"],
                  match["beta_signs_ok"], nil_frob["gram_invertible"],
                  nil_frob["witness_ok"], nil_dims[-1] == 0])
    report["all_ok"] = all_ok
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yoklab",
        description="Exact structural computations in Yokonuma-Hecke algebras "
                    "at q = 0, their idempotent presentation, and the nil variant.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--r", type=int, required=True, help="torus order")
        p.add_argument("--n", type=int, required=True, help="number of strands")
        p.add_argument("--field", default="cyclotomic",
                       help="'cyclotomic' (default) or 'fp:<p>' with p prime, p = 1 mod r")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--allow-large", action="store_true",
                       help=f"lift the r <= {MAX_R}, n <= {MAX_N} guard")

    p = sub.add_parser("dim", help="dimension of the algebra")
    common(p)
    p.add_argument("--nil", action="store_true")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("verify", help="check a defining presentation relation by relation")
    common(p)
    p.add_argument("--q", help="deformation scalar (default 0)")
    p.add_argument("--presentation", choices=["1", "2", "4", "nil"], default="1")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mult", help="multiply two elements given as JSON")
    common(p)
    p.add_argument("--q", help="deformation scalar (default 0)")
    p.add_argument("--lhs", required=True, help="left factor, element JSON")
    p.add_argument("--rhs", required=True, help="right factor, element JSON")
    p.add_argument("--nil", action="store_true")
    p.set_defaults(fn=cmd_mult)

    p = sub.add_parser("simples", help="classify one-dimensional simple modules (q = 0)")
    common(p)
    p.add_argument("--list", action="store_true", help="print every label")
    p.add_argument("--bruteforce", action="store_true",
                   help="cross-check against the exhaustive scalar sweep")
    p.add_argument("--nil", action="store_true")
    p.set_defaults(fn=cmd_simples)

    p = sub.add_parser("radical", help="commutator ideal (or nil radical) and its powers")
    common(p)
    p.add_argument("--nil", action="store_true")
    p.set_defaults(fn=cmd_radical)

    p = sub.add_parser("gram", help="Gram matrix of the trace form plus witnesses")
    common(p)
    p.add_argument("--export", help="write the matrix to this JSON file")
    p.add_argument("--nil", action="store_true")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("nakayama", help="trace symmetry against the flip automorphism")
    common(p)
    p.add_argument("--exhaustive", action="store_true", help="all basis pairs")
    p.add_argument("--samples", type=_positive_int, default=200,
                   help="random pairs to test (at least 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nil", action="store_true")
    p.set_defaults(fn=cmd_nakayama)

    p = sub.add_parser("cells", help="triangularity and the nonzero-cell classification")
    common(p)
    p.add_argument("--nil", action="store_true")
    p.set_defaults(fn=cmd_cells)

    p = sub.add_parser("aks-compare",
                       help="structural agreement between the two presentations")
    common(p)
    p.set_defaults(fn=cmd_aks_compare)

    p = sub.add_parser("report", help="full structural report as JSON")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_limits(parser, args)
    try:
        return args.fn(args)
    except SystemExit:
        raise
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
