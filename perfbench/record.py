"""Pin the benchmark's reference answers into ``reference.json``.

    python3 perfbench/record.py

Run from the root of a source checkout.  Every answer is recorded only after
it passes the closed forms in ``oracle.py`` and a second route:

* Y power dimensions (``radical``, ``aks-compare``) against the
  Ariki-Koike-Shoji engine on the same field, and against the other field
  (Q(zeta_r) against F_13);
* the other pinned verdicts against the same verdict over the other field;
* each ``mult`` product over Q(zeta_r) against the product of the reduced
  operands over F_13, the reduction sending zeta_r to the F_13 root of unity.

Any disagreement stops the recording with exit code 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import yoklab  # noqa: E402
from yoklab import cli  # noqa: E402
from yoklab.exactla import closure_under, ideal_power_dims  # noqa: E402
from yoklab.scalars import FieldSpec, make_field  # noqa: E402

import workloads  # noqa: E402

# verdicts whose pinned payload is also recomputed over the other field
CROSS_FIELD = {"radical-3-4-fp13", "radical-4-3-cyc", "radical-nil-2-4-cyc",
               "aks-compare-3-3-cyc", "cells-4-4-fp13"}


def fail(message):
    print(f"record: {message}", file=sys.stderr)
    raise SystemExit(1)


def field_of(argv, r):
    if "--field" not in argv:
        return make_field(FieldSpec("CyclotomicRational", r))
    return make_field(FieldSpec("PrimeField", r, int(argv[argv.index("--field") + 1][3:])))


def other_field_argv(argv):
    if "--field" in argv:
        i = argv.index("--field")
        return argv[:i] + argv[i + 2:]
    return argv + ["--field", "fp:13"]


def aks_power_dims(r, n, field):
    alg = yoklab.AKSAlgebra(r, n, field)
    ideal = closure_under(field, alg.all_generator_maps(), alg.commutator_seeds())
    return ideal_power_dims(field, alg.mul_terms, ideal, seeds=alg.commutator_seeds(),
                            right_maps=alg.rmul_gen_maps())


def record_verdict(key, argv):
    full = argv + ["--json"]
    rc, text = workloads.call_cli(cli, full)
    if rc != 0:
        fail(f"{key}: exit code {rc}")
    payload = json.loads(text)
    ref = {"argv": argv, "payload": payload}
    problems = workloads.check_verdict(key, full, rc, text, ref)
    if problems:
        fail("; ".join(problems))
    r, n = workloads.size_of(argv)
    if argv[0] == "radical" and "--nil" not in argv:
        field = field_of(argv, r)
        if aks_power_dims(r, n, field) != payload["power_dims"]:
            fail(f"{key}: AKS power dimensions disagree")
    if key in CROSS_FIELD:
        rc2, text2 = workloads.call_cli(cli, other_field_argv(argv) + ["--json"])
        if rc2 != 0 or json.loads(text2) != payload:
            fail(f"{key}: the other field gives a different payload")
    print(f"  {key}: ok", flush=True)
    return ref


def reduce_mod13(alg, terms, fp):
    """Image in F_13 of each coefficient, through the text form a + b*z^k."""
    out = {}
    for key, c in terms.items():
        v = fp.parse(alg.field.render(c))
        if not v.is_zero():
            out[key] = v.value
    return out


def record_products():
    digests = {}
    for alg_key, (r, n) in workloads.PRODUCT_ALGEBRAS.items():
        alg = yoklab.YAlgebra(r, n)
        fp = make_field(FieldSpec("PrimeField", r, 13))
        alg13 = yoklab.YAlgebra(r, n, fp)
        digests[alg_key] = []
        for lhs, rhs in workloads.operand_pool(alg_key, "mult"):
            prod = alg.element_from_json(lhs) * alg.element_from_json(rhs)
            prod13 = alg13.element_from_json(lhs) * alg13.element_from_json(rhs)
            if reduce_mod13(alg, prod.terms, fp) != {k: v.value for k, v in prod13.terms.items()}:
                fail(f"mult {alg_key}: Q(zeta_{r}) and F_13 products disagree")
            digests[alg_key].append(workloads.product_digest(alg.element_to_json(prod)))
        for x, y in workloads.operand_pool(alg_key, "trace_sym"):
            op = workloads.TraceSymOp(yoklab.structure, alg, "trace_sym", x, y)
            if op.check(op.run()):
                fail(f"trace_sym {alg_key}: tau(xy) != tau(phi(y)x)")
        print(f"  products {alg_key}: ok", flush=True)
    return digests


def main():
    verdicts = {}
    for workload in ("ideals", "frobenius"):
        for key, argv in workloads.VERDICTS[workload]:
            verdicts[key] = record_verdict(key, argv)
    reference = {"verdicts": verdicts, "mult": record_products()}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {HERE / 'reference.json'}")


if __name__ == "__main__":
    main()
