"""Tracing for the benchmark's per-layer run, installed from outside ``src/``.

Three instruments, each installed for one pass of the workload and removed
after it, so that none of them inflates what another measures:

* ``Tracer`` wraps the public functions and methods of each yoklab layer in
  spans (name, start, end, parent), kept in memory and written at the end.
  Module globals are patched wherever a module calls by name, such as
  ``ycore.torus_to_E`` and the ``torus_to_T`` that ``nilalg`` imports.
* ``Counter`` counts the hot calls (scalar arithmetic, ``symgroup``,
  ``vec_addmul``) plus the product-cache hits and the useful inserts.
* ``micro`` times scalar and ``symgroup`` operations with ``timeit``.
"""

from __future__ import annotations

import functools
import gzip
import random
import statistics
import timeit
import types
from array import array
from fractions import Fraction
from time import perf_counter

# span name -> (module, class or None, attributes).  Every attribute listed
# under one name is wrapped into that span; a module function is also
# replaced in every other yoklab module that imported it by name.
SPAN_TARGETS = {
    "cli.main": ("cli", None, ["main"]),
    "structure.gram_matrix": ("structure", None, ["gram_matrix"]),
    "structure.frobenius_check": ("structure", None, ["frobenius_check"]),
    "structure.nakayama_check": ("structure", None, ["nakayama_check"]),
    "structure.classification_match": ("structure", None, ["classification_match"]),
    "structure.triangularity_check": ("structure", None, ["triangularity_check"]),
    "structure.tau": ("structure", None, ["tau"]),
    "modrep.commutator_ideal": ("modrep", None, ["commutator_ideal"]),
    "modrep.power_dims": ("modrep", None, ["power_dims"]),
    "modrep.commutator_seeds": ("modrep", None, ["commutator_seeds"]),
    "modrep.bruteforce": ("modrep", None, ["enumerate_one_dim_bruteforce"]),
    "ycore.torus_to_E": ("ycore", None, ["torus_to_E"]),
    "ycore.torus_to_T": ("ycore", None, ["torus_to_T"]),
    "ycore.phi": ("ycore", "YAlgebra", ["phi"]),
    "ycore.mul_terms": ("ycore", "YAlgebra", ["mul_terms"]),
    "ycore.genmap": ("ycore", "YAlgebra", ["_lmul_g", "_rmul_g", "_lmul_t", "_rmul_t"]),
    "ycore.verify_presentation": ("ycore", "YAlgebra", ["verify_presentation"]),
    "ycore.element_json": ("ycore", "YAlgebra", ["element_from_json", "element_to_json"]),
    "aks.mul_terms": ("aks", "AKSAlgebra", ["mul_terms"]),
    "aks.genmap": ("aks", "AKSAlgebra", ["_lmul_h", "_lmul_L", "_rmul_L"]),
    "aks.one_dim_reps": ("aks", "AKSAlgebra", ["one_dim_reps"]),
    "nilalg.mul_terms": ("nilalg", "NilAlgebra", ["mul_terms"]),
    "nilalg.genmap": ("nilalg", "NilAlgebra", ["_lmul_T", "_rmul_T", "_lmul_t", "_rmul_t"]),
    "nilalg.gram_matrix": ("nilalg", "NilAlgebra", ["gram_matrix"]),
    "nilalg.frobenius_check": ("nilalg", "NilAlgebra", ["frobenius_check"]),
    "nilalg.verify_presentation": ("nilalg", "NilAlgebra", ["verify_presentation"]),
    "exactla.insert": ("exactla", "Subspace", ["insert"]),
    "exactla.reduce": ("exactla", "Subspace", ["reduce"]),
    "exactla.closure_under": ("exactla", None, ["closure_under"]),
    "exactla.ideal_power_dims": ("exactla", None, ["ideal_power_dims"]),
    "exactla.matrix_rank": ("exactla", None, ["matrix_rank"]),
}

HARNESS_SPAN = "bench.op"
LAYER_MODULES = ("cli", "structure", "modrep", "ycore", "aks", "nilalg", "exactla",
                 "symgroup", "scalars")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, yoklab, original, value):
        """Replace a module function in every yoklab module that binds it."""
        for mod_name in LAYER_MODULES:
            mod = getattr(yoklab, mod_name)
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    self.set(mod, attr, value)

    def undo(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _owner(yoklab, mod_name, cls_name):
    mod = getattr(yoklab, mod_name, None)
    return mod if cls_name is None or mod is None else getattr(mod, cls_name, None)


class Tracer:
    """In-memory span recorder; span i has name, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.labels: dict[int, str] = {}   # harness span index -> operation key
        self._stack = [-1]

    def _open(self, name_id):
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _nid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        nid = self._nid(name)
        opn, cls = self._open, self._close

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = opn(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                cls(idx)
        return spanned

    def run_op(self, op):
        """Run one workload operation inside a harness span."""
        idx = self._open(self._nid(HARNESS_SPAN))
        self.labels[idx] = op.key
        try:
            return op.run()
        finally:
            self._close(idx)

    def install(self, yoklab):
        """Wrap every target; returns the patches and the targets not found."""
        patches, missing = Patches(), []
        for name, (mod_name, cls_name, attrs) in SPAN_TARGETS.items():
            owner = _owner(yoklab, mod_name, cls_name)
            for attr in attrs:
                original = None if owner is None else owner.__dict__.get(attr)
                if original is None:
                    missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                    continue
                wrapped = self.wrap(name, original)
                if cls_name is None:
                    patches.replace_everywhere(yoklab, original, wrapped)
                else:
                    patches.set(owner, attr, wrapped)
        return patches, missing

    # -- analysis ------------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive seconds (outermost spans only) and
        self seconds (duration minus direct children)."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            name = self.names[self.name_id[i]]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if not self._has_ancestor_named(i, self.name_id[i]):
                rec["s"] += dur[i]
        return out

    def _has_ancestor_named(self, i, nid):
        p = self.parent[i]
        while p >= 0:
            if self.name_id[p] == nid:
                return True
            p = self.parent[p]
        return False

    def ancestors_named(self, i):
        out = set()
        p = self.parent[i]
        while p >= 0:
            out.add(self.names[self.name_id[p]])
            p = self.parent[p]
        return out

    def per_op(self):
        """Per harness span: operation key, seconds, and by span name the
        self seconds, inclusive seconds and calls inside it."""
        count = len(self.start)
        top_of = array("i", [-1]) * count
        for i in range(count):
            p = self.parent[i]
            top_of[i] = i if p < 0 else top_of[p]
        dur = [self.end[i] - self.start[i] for i in range(count)]
        self_s = list(dur)
        for i in range(count):
            if self.parent[i] >= 0:
                self_s[self.parent[i]] -= dur[i]
        ops = {idx: {"op": key, "s": dur[idx], "self_s": {}, "incl_s": {}, "calls": {}}
               for idx, key in self.labels.items()}
        for i in range(count):
            rec = ops.get(top_of[i])
            if rec is None:
                continue
            name = self.names[self.name_id[i]]
            rec["self_s"][name] = rec["self_s"].get(name, 0.0) + self_s[i]
            rec["calls"][name] = rec["calls"].get(name, 0) + 1
            if not self._has_ancestor_named(i, self.name_id[i]):
                rec["incl_s"][name] = rec["incl_s"].get(name, 0.0) + dur[i]
        return [ops[idx] for idx in sorted(ops)]

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                         f"{self.start[i] - t0:.7f}\t{self.end[i] - t0:.7f}\n")


# -- counting pass -------------------------------------------------------------

class Counter:
    """Call counts for hot functions, kept out of the span pass."""

    def __init__(self):
        self.counts = {"scalars.mul": 0, "scalars.add": 0, "symgroup": 0,
                       "exactla.vec_addmul": 0, "mono.hit": 0, "mono.lookup": 0,
                       "insert.stored": 0, "insert.attempted": 0}

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, yoklab):
        """Install the counters; returns the patches and the targets not found."""
        patches, missing = Patches(), []
        counts = self.counts

        def lookup(owner_name, cls_name, attr):
            cls = getattr(getattr(yoklab, owner_name), cls_name, None)
            fn = None if cls is None else cls.__dict__.get(attr)
            if fn is None:
                missing.append(f"{owner_name}.{cls_name}.{attr}")
            return cls, fn

        for cls_name in ("CycScalar", "FpScalar"):
            for attr, key in (("__mul__", "scalars.mul"), ("__rmul__", "scalars.mul"),
                              ("__add__", "scalars.add"), ("__radd__", "scalars.add"),
                              ("__sub__", "scalars.add"), ("__rsub__", "scalars.add")):
                cls, fn = lookup("scalars", cls_name, attr)
                if fn is not None:
                    patches.set(cls, attr, self._counted(key, fn))
        sg = yoklab.symgroup
        for fn in list(vars(sg).values()):
            if isinstance(fn, types.FunctionType) and fn.__module__ == sg.__name__:
                patches.replace_everywhere(yoklab, fn, self._counted("symgroup", fn))
        addmul = getattr(yoklab.exactla, "vec_addmul", None)
        if addmul is None:
            missing.append("exactla.vec_addmul")
        else:
            patches.replace_everywhere(yoklab, addmul, self._counted("exactla.vec_addmul", addmul))

        sub_cls, insert = lookup("exactla", "Subspace", "insert")
        if insert is not None:
            @functools.wraps(insert)
            def counted_insert(sub, v):
                counts["insert.attempted"] += 1
                row = insert(sub, v)
                if row is not None:
                    counts["insert.stored"] += 1
                return row
            patches.set(sub_cls, "insert", counted_insert)

        ycls, mono = lookup("ycore", "YAlgebra", "_mono_mul")
        if mono is not None:
            @functools.wraps(mono)
            def counted_mono(alg, kx, ky):
                counts["mono.lookup"] += 1
                if (kx, ky) in alg._mono_cache:
                    counts["mono.hit"] += 1
                return mono(alg, kx, ky)
            patches.set(ycls, "_mono_mul", counted_mono)
        return patches, missing


# -- micro timings ---------------------------------------------------------------

def _ns_per_op(stmt, env, items):
    """Median over five repeats of ns per operation of ``stmt`` over ``items``."""
    timer = timeit.Timer(stmt, globals=env)
    number = 1
    while timer.timeit(number) < 0.02:
        number *= 2
    runs = timer.repeat(repeat=5, number=number)
    return statistics.median(runs) / (number * items) * 1e9


def micro(yoklab, seed):
    """Scalar and symgroup micro-timings on seeded operands.

    Cyclotomic operands have a nonzero coordinate in every power-basis slot:
    at r = 4, zeta^2 = -1 makes sparse operands degenerate and fast.
    """
    rng = random.Random(f"micro-{seed}")
    scalars = yoklab.scalars
    out = {}

    def frac():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    fields = {"cyc3": scalars.CyclotomicField(3), "cyc4": scalars.CyclotomicField(4),
              "fp13": scalars.PrimeField(13, 3)}
    for tag, field in fields.items():
        pairs = []
        for _ in range(32):
            if tag == "fp13":
                a, b = (field.from_int(rng.randint(1, 12)) for _ in range(2))
            else:
                a, b = (field.from_fraction(frac()) + field.from_fraction(frac()) * field.zeta
                        for _ in range(2))
            pairs.append((a, b))
        env = {"P": pairs}
        out[f"scalars.{tag}.mul_ns"] = _ns_per_op("for a, b in P: a * b", env, len(pairs))
        out[f"scalars.{tag}.add_ns"] = _ns_per_op("for a, b in P: a + b", env, len(pairs))
        out[f"scalars.{tag}.inverse_ns"] = _ns_per_op("for a, b in P: a.inverse()", env,
                                                      len(pairs))
    sg = yoklab.symgroup
    perms = sg.all_permutations(4)
    items = [(perms[rng.randrange(len(perms))], tuple(rng.randint(1, 4) for _ in range(4)))
             for _ in range(32)]
    out["symgroup.act_on_colors_ns"] = _ns_per_op("for w, c in P: act(w, c)",
                                                  {"P": items, "act": sg.act_on_colors},
                                                  len(items))
    return out
