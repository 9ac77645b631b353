"""Command-line interface.

Every subcommand takes --r and --n, builds the requested algebra over an
exact field, runs a structural computation, and exits 0 when the verified
property holds, 1 when a mathematical check fails, and 2 on usage errors.
Output is deterministic; --json switches to machine-readable form.

main validates the size guard and --field once for every subcommand.  A
verdict subcommand returns (ok, text lines, payload fields) to _emit, which
adds the schema, r and n; mult and report print their own output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import modrep, structure
from .aks import AKSAlgebra
from .algebra import SparseAlgebra
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


def _emit(args, ok: bool, lines, fields) -> int:
    """Print a verdict as text lines or as JSON under schema, r and n; the
    exit code is 0 when ok holds and 1 when it does not."""
    if args.json:
        payload = {"schema": SCHEMA, "r": args.r, "n": args.n, **fields}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return 0 if ok else 1


def _q_for(args, field):
    """The --q scalar of verify and mult, parsed in field; 0 when not given."""
    q = getattr(args, "q", None)
    try:
        return field.parse("0" if q is None else q)
    except ValueError as exc:
        _config_exit(str(exc))


def _reject_q(args) -> None:
    """The nil algebra has no q, so it takes no --q, not even --q 0."""
    if getattr(args, "q", None) is not None:
        _config_exit("the nil algebra has no q; drop --q")


def _algebra(args, field):
    """NilAlgebra under --nil, else YAlgebra at --q (0 for commands without it)."""
    if args.nil:
        _reject_q(args)
        return NilAlgebra(args.r, args.n, field)
    return YAlgebra(args.r, args.n, field, _q_for(args, field))


def _mark(ok: bool) -> str:
    return "ok" if ok else "FAILED"


# -- verdicts, each shared by its subcommand and report ---------------------

def _nil_simples_verdict(alg):
    """The nil algebra's one-dimensional simples: (count == r^n, count)."""
    count = len(modrep.enumerate_one_dim_bruteforce(alg))
    return count == alg.r ** alg.n, count


def _radical_verdict(alg):
    """(ok, ideal, power dims, codim) of the nil radical or Y's commutator
    ideal: ok when the codimension counts the simples and the powers reach 0."""
    if isinstance(alg, NilAlgebra):
        ideal = alg.radical()
        dims = modrep.block_power_dims(alg, ideal, alg.radical_words)
        simples = alg.r ** alg.n
    else:
        ideal = modrep.commutator_ideal(alg)
        dims = modrep.power_dims(alg, ideal)
        simples = modrep.count_labels(alg.r, alg.n)
    codim = alg.dimension - ideal.dim()
    return codim == simples and dims[-1] == 0, ideal, dims, codim


def _gram_verdict(alg, blocks=None):
    """(ok, frobenius_check): ok when the Gram is invertible and the witnesses hold."""
    res = structure.frobenius_check(alg, blocks)
    return res["gram_invertible"] and res["witness_ok"], res


def _cells_verdict(alg):
    """(ok, triangularity_check, classification_match) of Y."""
    tri = structure.triangularity_check(alg)
    match = structure.classification_match(alg)
    return tri["ok"] and match["match"] and match["beta_signs_ok"], tri, match


def cmd_dim(args, field):
    # Y and nil share the dimension r^n n!, so no algebra is built
    dim = SparseAlgebra.dimension_of(args.r, args.n)
    return True, [f"dimension = {dim}"], {"dimension": dim}


def cmd_verify(args, field):
    if args.presentation == "nil":
        _reject_q(args)
        report = NilAlgebra(args.r, args.n, field).verify_presentation()
    elif args.presentation == "4":
        report = AKSAlgebra(args.r, args.n, field, _q_for(args, field)).verify_presentation()
    else:
        report = YAlgebra(args.r, args.n, field,
                          _q_for(args, field)).verify_presentation(int(args.presentation))
    failed = [it["name"] for it in report["relations"] if not it["zero"]]
    lines = [f"presentation {report['presentation']}: "
             f"{'all relations hold' if report['all_zero'] else 'RESIDUAL FOUND'}"]
    lines += [f"  nonzero residual: {name}" for name in failed]
    return report["all_zero"], lines, {
        "q": "0" if args.q is None else args.q, "presentation": report["presentation"],
        "all_zero": report["all_zero"], "failed": failed}


def cmd_mult(args, field) -> int:
    try:
        lhs_obj = json.loads(args.lhs)
        rhs_obj = json.loads(args.rhs)
    except json.JSONDecodeError as exc:
        print(f"error: bad element JSON: {exc}", file=sys.stderr)
        return 2
    try:
        alg = _algebra(args, field)
        prod = alg.element_from_json(lhs_obj) * alg.element_from_json(rhs_obj)
        out = alg.element_to_json(prod)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_simples(args, field):
    alg = _algebra(args, field)
    if args.nil:
        for flag in ("list", "bruteforce"):
            if getattr(args, flag):
                _config_exit(f"simples --nil takes no --{flag}")
        ok, count = _nil_simples_verdict(alg)
        return ok, [f"one-dimensional simples: {count} (expected {alg.r ** alg.n})"], {
            "nil": True, "count": count, "expected": alg.r ** alg.n, "ok": ok}

    labels = modrep.enumerate_labels(args.r, args.n)
    formula = modrep.count_labels(args.r, args.n)
    ok = len(labels) == formula
    lines = [f"simple-module labels: {len(labels)} (closed form {formula})"]
    fields = {"count": len(labels), "formula": formula}
    if args.bruteforce:
        brute = modrep.enumerate_one_dim_bruteforce(alg)
        ok = ok and len(brute) == len(labels)
        lines.append(f"brute-force scalar systems: {len(brute)}")
        fields["bruteforce"] = len(brute)
    if args.list:
        fields["labels"] = [modrep.label_to_json(lab) for lab in labels]
        lines += [f"  {lab}" for lab in fields["labels"]]
    fields["ok"] = ok
    return ok, lines, fields


def cmd_radical(args, field):
    ok, ideal, dims, codim = _radical_verdict(_algebra(args, field))
    name = "radical" if args.nil else "commutator ideal"
    lines = [f"{name} dimension = {ideal.dim()} (codim {codim})",
             f"power dimensions: {dims}",
             f"nilpotency index = {1 if dims[0] == 0 else len(dims)}"]
    return ok, lines, {"power_dims": dims, "ok": ok,
                       **({"nil": True} if args.nil else
                          {"ideal_dim": ideal.dim(), "codim": codim})}


def cmd_gram(args, field):
    alg = _algebra(args, field)
    if args.export is not None:
        try:
            with open(args.export, "w") as fh:
                export = {"schema": SCHEMA, **structure.gram_to_json(
                    alg, *structure.gram_matrix(alg))}
                if args.nil:
                    export["nil"] = True
                json.dump(export, fh, indent=2, sort_keys=True)
        except OSError as exc:
            _config_exit(f"cannot write --export {args.export!r}: {exc.strerror}")
    blocks = structure.gram_blocks(alg)
    ok, res = _gram_verdict(alg, blocks)
    verdict = "invertible"
    if not res["gram_invertible"]:
        verdict = f"SINGULAR (block c = {structure.singular_block(alg, blocks)})"
    lines = [f"gram matrix {res['dimension']}x{res['dimension']}: {verdict}",
             f"constructive witnesses: {_mark(res['witness_ok'])}"]
    return ok, lines, res


def cmd_nakayama(args, field):
    res = structure.nakayama_check(_algebra(args, field), exhaustive=args.exhaustive,
                                   samples=args.samples, seed=args.seed)
    return res["ok"], [f"trace symmetry ({res['mode']}, {res['pairs']} pairs): "
                       f"{_mark(res['ok'])}"], res


def cmd_cells(args, field):
    alg = _algebra(args, field)
    if args.nil:
        cells = structure.nonzero_cells(alg)
        expected = args.r ** args.n
        at_identity = all(w == alg.ident for _, w in cells)
        ok = len(cells) == expected and at_identity
        return ok, [f"nonzero cells: {len(cells)} (expected {expected}, "
                    f"all at the identity: {at_identity})"], {
            "nil": True, "count": len(cells), "ok": ok}

    ok, tri, match = _cells_verdict(alg)
    lines = [f"triangularity: {'ok' if tri['ok'] else 'FAILED at ' + repr(tri['witness'])}",
             f"nonzero cells: {match['count']}",
             f"matches simple-module labels: {match['match']}",
             f"beta signs: {_mark(match['beta_signs_ok'])}"]
    return ok, lines, {
        "triangular": tri["ok"], "count": match["count"], "match": match["match"],
        "beta_signs_ok": match["beta_signs_ok"],
        "missing": [[list(c), list(w)] for c, w in match["missing"]],
        "extra": [[list(c), list(w)] for c, w in match["extra"]]}


def cmd_aks_compare(args, field):
    y = YAlgebra(args.r, args.n, field)
    a = AKSAlgebra(args.r, args.n, field)
    rows = [  # payload key, text title, Y value, AKS value
        ("dimension", "dimension", y.dimension, a.dimension),
        ("one_dim", "one-dimensional reps",
         len(modrep.enumerate_one_dim_bruteforce(y)), len(a.one_dim_reps())),
        ("ideal_powers", "commutator ideal powers",
         modrep.power_dims(y, modrep.commutator_ideal(y)), a.commutator_power_dims()),
    ]
    ok = all(yv == av for _, _, yv, av in rows)
    lines = [f"{title}: {yv} vs {av} ({'ok' if yv == av else 'MISMATCH'})"
             for _, title, yv, av in rows]
    return ok, lines, {"ok": ok, **{key: {"y": yv, "aks": av, "ok": yv == av}
                                    for key, _, yv, av in rows}}


def cmd_report(args, field) -> int:
    y = YAlgebra(args.r, args.n, field)
    nil = NilAlgebra(args.r, args.n, field)
    aks = AKSAlgebra(args.r, args.n, field)

    p1 = y.verify_presentation(1)["all_zero"]
    p2 = y.verify_presentation(2)["all_zero"]
    p4 = aks.verify_presentation()["all_zero"]
    pn = nil.verify_presentation()["all_zero"]

    rad_ok, ideal, dims, _ = _radical_verdict(y)
    cert = modrep.semisimplicity_certificate(y, ideal=ideal)
    frob_ok, frob = _gram_verdict(y)
    naka = structure.nakayama_check(y, samples=50, seed=args.seed)
    cells_ok, tri, match = _cells_verdict(y)
    nil_frob_ok, nil_frob = _gram_verdict(nil)
    nil_rad_ok, _, nil_dims, _ = _radical_verdict(nil)
    nil_simples_ok, nil_simples = _nil_simples_verdict(nil)

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
        "nakayama": naka,
        "cells": {"triangular": tri["ok"], "count": match["count"],
                  "match": match["match"], "beta_signs_ok": match["beta_signs_ok"]},
        "nil": {"radical_power_dims": nil_dims,
                "simple_count": nil_simples,
                **nil_frob},
    }
    all_ok = all([p1, p2, p4, pn, rad_ok, cert["certified"], frob_ok, naka["ok"], cells_ok,
                  nil_frob_ok, nil_rad_ok, nil_simples_ok])
    report["all_ok"] = all_ok
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if all_ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argument parser, built on the first call and then reused."""
    parser = argparse.ArgumentParser(
        prog="yoklab",
        description="Exact structural computations in Yokonuma-Hecke algebras "
                    "at q = 0, their idempotent presentation, and the nil variant.")
    sub = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, fn, text in [
            ("dim", cmd_dim, "dimension of the algebra"),
            ("verify", cmd_verify, "check a defining presentation relation by relation"),
            ("mult", cmd_mult, "multiply two elements given as JSON"),
            ("simples", cmd_simples, "classify one-dimensional simple modules (q = 0)"),
            ("radical", cmd_radical, "commutator ideal (or nil radical) and its powers"),
            ("gram", cmd_gram, "Gram matrix of the trace form plus witnesses"),
            ("nakayama", cmd_nakayama, "trace symmetry against the flip automorphism"),
            ("cells", cmd_cells, "triangularity and the nonzero-cell classification"),
            ("aks-compare", cmd_aks_compare,
             "structural agreement between the two presentations"),
            ("report", cmd_report, "full structural report as JSON")]:
        p = subs[name] = sub.add_parser(name, help=text)
        p.set_defaults(fn=fn)
        p.add_argument("--r", type=int, required=True, help="torus order")
        p.add_argument("--n", type=int, required=True, help="number of strands")
        p.add_argument("--field", default="cyclotomic",
                       help="'cyclotomic' (default) or 'fp:<p>' with p prime, p = 1 mod r")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--allow-large", action="store_true",
                       help=f"lift the r <= {MAX_R}, n <= {MAX_N} guard")

    for name in ("verify", "mult"):
        subs[name].add_argument("--q", help="deformation scalar (default 0)")
    subs["verify"].add_argument("--presentation", choices=["1", "2", "4", "nil"], default="1")
    subs["mult"].add_argument("--lhs", required=True, help="left factor, element JSON")
    subs["mult"].add_argument("--rhs", required=True, help="right factor, element JSON")
    subs["simples"].add_argument("--list", action="store_true", help="print every label")
    subs["simples"].add_argument("--bruteforce", action="store_true",
                                 help="cross-check against the exhaustive scalar sweep")
    subs["gram"].add_argument("--export", help="write the matrix to this JSON file")
    subs["nakayama"].add_argument("--exhaustive", action="store_true", help="all basis pairs")
    subs["nakayama"].add_argument("--samples", type=_positive_int, default=200,
                                  help="random pairs to test (at least 1)")
    for name in ("nakayama", "report"):
        subs[name].add_argument("--seed", type=int, default=0)
    # last, so that --nil closes each usage line
    for name in ("dim", "mult", "simples", "radical", "gram", "nakayama", "cells"):
        subs[name].add_argument("--nil", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_limits(parser, args)
    field = _field_for(args)
    try:
        result = args.fn(args, field)
        code = result if isinstance(result, int) else _emit(args, *result)
        # flush here, so that a closed pipe is seen inside this try
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (as in `| head`): send what is left to devnull
        # so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
