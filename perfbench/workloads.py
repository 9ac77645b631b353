"""Operations of the three benchmark workloads and the checks on their outputs.

A workload is a list of operations.  Each operation has a ``run`` step, the
part that is timed, and a ``check`` step that compares the output against a
reference and returns a list of problems (empty when the output is right).

* ``ideals`` and ``frobenius`` are CLI verdicts: ``cli.main([..., "--json"])``
  called in-process.  Every verdict builds its own algebra, so it starts with
  a cold product cache, as a user's ``yoklab`` invocation does.
* ``products`` is a library session over two prebuilt, cache-warmed algebras:
  ``mult`` multiplies two T-basis elements passed in as element JSON, and
  ``trace_sym`` checks ``tau(x y) == tau(phi(y) x)`` on E-basis elements.

References come from closed forms computed here (``oracle``) wherever one
exists, and otherwise from answers pinned in ``reference.json`` by
``record.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

import oracle

FP13 = ["--field", "fp:13"]

VERDICTS = {
    "ideals": [
        ("radical-3-4-fp13", ["radical", "--r", "3", "--n", "4", *FP13]),
        ("radical-4-3-cyc", ["radical", "--r", "4", "--n", "3"]),
        ("radical-nil-2-4-cyc", ["radical", "--nil", "--r", "2", "--n", "4"]),
        ("aks-compare-3-3-cyc", ["aks-compare", "--r", "3", "--n", "3"]),
    ],
    "frobenius": [
        ("gram-3-3-fp13", ["gram", "--r", "3", "--n", "3", *FP13]),
        ("gram-nil-2-4-fp13", ["gram", "--nil", "--r", "2", "--n", "4", *FP13]),
        ("verify-p2-3-3-fp13", ["verify", "--presentation", "2", "--r", "3", "--n", "3", *FP13]),
        ("nakayama-exh-2-3-fp13", ["nakayama", "--exhaustive", "--r", "2", "--n", "3", *FP13]),
        ("cells-4-4-fp13", ["cells", "--r", "4", "--n", "4", *FP13]),
        ("verify-p1-3-3-fp13", ["verify", "--presentation", "1", "--r", "3", "--n", "3", *FP13]),
        ("gram-2-3-fp13", ["gram", "--r", "2", "--n", "3", *FP13]),
    ],
}

# products: (3, 3) over Q(zeta_3) and (2, 4) over Q, the default fields
PRODUCT_ALGEBRAS = {"y33": (3, 3), "y24": (2, 4)}
PRODUCT_KINDS = ("mult", "trace_sym")
MAX_TERMS = 4            # operands have 1..MAX_TERMS monomials
POOL_PER_STRATUM = 12    # pinned pool entries per (lhs terms, rhs terms) stratum
PICK_PER_STRATUM = 8     # entries a run draws from each stratum
POOL_SEED = "yoklab-products-pool-v1"
# operand coefficients; "z" is the field's root of unity zeta_r
COEFFS = ["1", "-1", "2", "-3", "1/2", "z", "-z", "2 + z", "1 - 3*z", "-2/3*z"]


def call_cli(cli, argv):
    """Run one CLI verdict in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def size_of(argv):
    return int(argv[argv.index("--r") + 1]), int(argv[argv.index("--n") + 1])


def _get(payload, path):
    cur = payload
    for part in path.split("."):
        cur = cur[int(part)] if isinstance(cur, list) else cur[part]
    return cur


def check_verdict(key, argv, rc, text, ref):
    """Problems with one verdict's output; closed forms first, then the pin."""
    if rc != 0:
        return [f"{key}: exit code {rc}"]
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"{key}: output is not JSON ({exc})"]
    problems = []
    r, n = size_of(argv)
    for path, want in oracle.expected_fields(argv[0], "--nil" in argv, r, n).items():
        try:
            got = _get(payload, path)
        except (KeyError, IndexError, TypeError, ValueError):
            problems.append(f"{key}: missing field {path}")
            continue
        if got != want:
            problems.append(f"{key}: {path} = {got!r}, closed form gives {want!r}")
    if payload != ref["payload"]:
        problems.append(f"{key}: payload differs from the pinned reference")
    return problems


class VerdictOp:
    fresh_heap = True

    def __init__(self, cli, key, argv, ref):
        self.cli = cli
        self.key = key
        self.argv = argv + ["--json"]
        self.ref = ref

    def run(self):
        return call_cli(self.cli, self.argv)

    def check(self, out):
        rc, text = out
        return check_verdict(self.key, self.argv, rc, text, self.ref)


# -- products --------------------------------------------------------------

def strata():
    return [(a, b) for a in range(1, MAX_TERMS + 1) for b in range(1, MAX_TERMS + 1)]


def random_element_json(rng, r, n, basis, nterms):
    """Element JSON with exactly ``nterms`` distinct monomials."""
    vec_name = "a" if basis == "T" else "chi"
    lo = 0 if basis == "T" else 1
    perms = oracle.permutations(n)
    keys = set()
    while len(keys) < nterms:
        vec = tuple(rng.randrange(lo, lo + r) for _ in range(n))
        keys.add((vec, perms[rng.randrange(len(perms))]))
    terms = [{vec_name: list(v), "w": list(w), "coeff": rng.choice(COEFFS)}
             for v, w in sorted(keys)]
    return {"basis": basis, "r": r, "n": n, "terms": terms}


def operand_pool(alg_key, kind):
    """Pinned operand pool: POOL_PER_STRATUM pairs per term-count stratum.

    Entry i belongs to stratum i // POOL_PER_STRATUM.  mult operands are in
    the T basis, trace_sym operands in the E basis.
    """
    r, n = PRODUCT_ALGEBRAS[alg_key]
    basis = "T" if kind == "mult" else "E"
    rng = random.Random(f"{POOL_SEED}-{alg_key}-{kind}")
    pool = []
    for nl, nr in strata():
        for _ in range(POOL_PER_STRATUM):
            pool.append((random_element_json(rng, r, n, basis, nl),
                         random_element_json(rng, r, n, basis, nr)))
    return pool


def pick_indices(rng):
    """Pool indices one run uses: PICK_PER_STRATUM from every stratum."""
    out = []
    for s in range(len(strata())):
        base = s * POOL_PER_STRATUM
        out += sorted(base + i for i in rng.sample(range(POOL_PER_STRATUM), PICK_PER_STRATUM))
    return out


def product_digest(out_json):
    text = json.dumps(out_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def build_product_algebras(yoklab):
    """Fresh algebras over their default fields, with the product cache warm."""
    algs = {}
    for key, (r, n) in PRODUCT_ALGEBRAS.items():
        alg = yoklab.YAlgebra(r, n)
        one = alg.field.one
        full = {(c, w): one for c in alg.colors for w in alg.perms}
        alg.mul_terms(full, full)   # touches every compatible monomial pair
        algs[key] = alg
    return algs


class MultOp:
    fresh_heap = False

    def __init__(self, alg, key, lhs, rhs, digest):
        self.alg, self.key, self.lhs, self.rhs, self.digest = alg, key, lhs, rhs, digest

    def run(self):
        alg = self.alg
        return alg.element_to_json(alg.element_from_json(self.lhs) * alg.element_from_json(self.rhs))

    def check(self, out):
        if product_digest(out) != self.digest:
            return [f"{self.key}: product differs from the pinned reference"]
        return []


class TraceSymOp:
    fresh_heap = False

    def __init__(self, structure, alg, key, x, y):
        self.structure, self.alg, self.key = structure, alg, key
        self.x, self.y = alg.element_from_json(x), alg.element_from_json(y)

    def run(self):
        tau, alg, x, y = self.structure.tau, self.alg, self.x, self.y
        return tau(alg, x * y) == tau(alg, alg.phi(y) * x)

    def check(self, out):
        return [] if out is True else [f"{self.key}: tau(xy) != tau(phi(y)x)"]


def build_ops(workload, yoklab, reference, seed):
    """The operation list of one workload; inputs depend only on ``seed``."""
    if workload in VERDICTS:
        return [VerdictOp(yoklab.cli, key, argv, reference["verdicts"][key])
                for key, argv in VERDICTS[workload]]
    if workload != "products":
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    algs = build_product_algebras(yoklab)
    ops = []
    for alg_key, alg in algs.items():
        for kind in PRODUCT_KINDS:
            pool = operand_pool(alg_key, kind)
            for i in pick_indices(rng):
                lhs, rhs = pool[i]
                key = f"{kind}-{alg_key}-{i}"
                if kind == "mult":
                    ops.append(MultOp(alg, key, lhs, rhs, reference["mult"][alg_key][i]))
                else:
                    ops.append(TraceSymOp(yoklab.structure, alg, key, lhs, rhs))
    return ops
