"""yoklab benchmark: time to verdict on ideals and frobenius, product latency.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload ideals --seed 1 --seconds 30 --trace 0

Each invocation is one fresh single-threaded process running one workload as
a closed loop: the next operation starts only when the previous verdict or
product has returned.  A pass runs every operation of the workload once, in
an order drawn from the seed.  Passes repeat until ``--seconds`` have gone
by; the first pass always completes, and the last stops at an operation
boundary.  Every output is checked (``workloads.py``).

``--trace 0`` reports the end-to-end metrics, with times at reference speed
(see the speed calibration below):

* ``wall_s``: time to all verdicts or products of one pass, the sum over the
  operations of each one's median time in the run
* ``setup_s``: median over repeated set-ups of importing yoklab, building the
  operation list and, on ``products``, building and warming the algebras
* ``peak_rss_mb``: peak resident memory of this process
* ``op_p50_ms`` and ``op_p95_ms``: percentiles (nearest rank) of the
  per-operation median latencies

``--trace 1`` runs one untraced pass, one pass under spans, one pass under
call counters and the micro-timings, and reports the per-layer metrics.  The
spans and a summary are written under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ideals", "frobenius", "products")
SETUP_REPEATS = {"ideals": 7, "frobenius": 7, "products": 5}

# Speed calibration.  On a shared 2-vCPU Xeon virtual machine the CPU speed
# seen by one process drifts by 10-30 % over seconds to minutes, and that
# drift, not the program, set the run-to-run spread of raw timings (a
# quartile spread of 0.15-0.28 of the median across seeds).  While the timed
# phase runs, a timer signal interrupts it every CAL_EVERY_S seconds to time
# a fixed calibration routine, and that time is taken out of the operation it
# interrupted.  Each operation's time is divided by the mean of the
# calibrations taken during it and just before and after it, and multiplied
# by CAL_REF_S, the routine's median time on that machine under Python 3.11:
# times are seconds at that reference speed.  The quartile spread fell to
# 0.02-0.07.  The timing as measured is printed alongside.
CAL_ITERATIONS = 6000
CAL_REF_S = 0.004
CAL_EVERY_S = 0.1

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "op_p50_ms": "ms", "op_p95_ms": "ms"}


def fresh_yoklab():
    """Import yoklab from this checkout's src/, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "yoklab" or m.startswith("yoklab.")]:
        del sys.modules[name]
    yoklab = importlib.import_module("yoklab")
    importlib.import_module("yoklab.cli")
    if Path(yoklab.__file__).resolve().parent != SRC / "yoklab":
        raise ImportError(f"yoklab imported from {yoklab.__file__}, not from {SRC}")
    return yoklab


def calibrate():
    """Seconds taken by fixed pure-Python work shaped like yoklab's inner
    loops: dict updates on tuple keys, integer and Fraction arithmetic."""
    t0 = perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(CAL_ITERATIONS):
        key = (i % 31, i % 7)
        cur = table.get(key)
        table[key] = i if cur is None else (cur * 3 + i) % 1000003
        if i % 8 == 0:
            acc += Fraction(i % 5 + 1, i % 9 + 1)
    return perf_counter() - t0


class SpeedClock:
    """Calibrations on a timer signal, and samples scaled to reference speed."""

    def __init__(self):
        self.cals = []          # calibration durations, in the order taken
        self.spent = 0.0        # seconds spent calibrating
        self.samples = []       # (sink, seconds, first cal index, last cal index)
        self._busy = False

    def calibrate_now(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        self.cals.append(calibrate())
        self.spent += perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self.calibrate_now()
        self._old = signal.signal(signal.SIGALRM, self.calibrate_now)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.calibrate_now()
        for sink, seconds, lo, hi in self.samples:
            window = self.cals[lo - 1:hi + 1]
            sink.append(seconds * CAL_REF_S / statistics.mean(window))
        return False

    def time(self, sink, fn, *args):
        """Call fn(*args), adding its time less calibrations to ``sink``."""
        lo, spent0 = len(self.cals), self.spent
        t0 = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - t0 - (self.spent - spent0)
        self.samples.append((sink, elapsed, lo, len(self.cals)))
        return result, elapsed


def set_up(workload, seed, repeats):
    """Repeat the set-up; returns the last (yoklab, ops) and the median time."""
    def one():
        yoklab = fresh_yoklab()
        reference = json.loads((HERE / "reference.json").read_text())
        return yoklab, workloads.build_ops(workload, yoklab, reference, seed)

    times = []
    with SpeedClock() as clock:
        for _ in range(repeats):
            (yoklab, ops), _ = clock.time(times, one)
            clock.calibrate_now()
    return yoklab, ops, statistics.median(times)


class Tally:
    """Attempted and failed operations, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, op, out, error):
        self.attempted += 1
        if error is not None:
            found = [f"{op.key}: raised {type(error).__name__}: {error}"]
        else:
            found = op.check(out)
        if found:
            self.failed += 1
            self.problems.extend(found[: max(0, 10 - len(self.problems))])


def attempt(run, op):
    try:
        return run(op), None
    except Exception as exc:  # a raised operation is a failed operation
        return None, exc


def run_one(op, tally, runner=None, clock=None, sink=None):
    """Run and time one operation, then check its output outside the timing.

    A verdict starts from a collected heap, as a fresh ``yoklab`` process
    does, so the order of the verdicts does not decide when the collector
    runs inside them.
    """
    if op.fresh_heap:
        gc.collect()
    run = runner or (lambda o: o.run())
    if clock is None:
        t0 = perf_counter()
        out, error = attempt(run, op)
        elapsed = perf_counter() - t0
    else:
        (out, error), elapsed = clock.time(sink, attempt, run, op)
    tally.record(op, out, error)
    return elapsed


def timed_loop(ops, seconds, rng, tally):
    """Closed loop over seeded passes; returns per-operation samples, at
    reference speed and as measured, and the number of full passes."""
    samples = [[] for _ in ops]
    measured = [[] for _ in ops]
    deadline = perf_counter() + seconds
    passes = 0
    with SpeedClock() as clock:
        while perf_counter() < deadline or not passes:
            order = list(range(len(ops)))
            rng.shuffle(order)
            for i in order:
                if passes and perf_counter() >= deadline:
                    break
                measured[i].append(run_one(ops[i], tally, clock=clock, sink=samples[i]))
            else:
                passes += 1
    return samples, measured, passes


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def one_pass(ops, order, tally, runner=None):
    t0 = perf_counter()
    for i in order:
        run_one(ops[i], tally, runner)
    return perf_counter() - t0


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "yoklab").glob("*.py")))


def end_to_end(args):
    yoklab, ops, setup_s = set_up(args.workload, args.seed, SETUP_REPEATS[args.workload])
    tally = Tally()
    t0 = perf_counter()
    samples, measured, passes = timed_loop(ops, args.seconds, random.Random(args.seed), tally)
    timed_s = perf_counter() - t0
    medians = [statistics.median(s) for s in samples]
    measured_wall = sum(statistics.median(s) for s in measured)
    metrics = {
        "wall_s": sum(medians),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "op_p50_ms": nearest_rank(medians, 50) * 1e3,
        "op_p95_ms": nearest_rank(medians, 95) * 1e3,
    }
    notes = [f"timed phase {timed_s:.2f} s: {passes} full passes, {len(ops)} operations, "
             f"{sum(len(s) for s in samples)} samples; percentiles over {len(ops)} "
             f"per-operation medians",
             f"times at reference speed; wall_s as measured {measured_wall:.4f} s"]
    if args.workload != "products":
        notes += [f"  {op.key}: median {m:.3f} s over {len(s)}"
                  for op, m, s in zip(ops, medians, samples)]
    return tally, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes


def traced(args):
    yoklab, ops, _ = set_up(args.workload, args.seed, 1)
    tally = Tally()
    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)

    untraced_s = one_pass(ops, order, tally)

    tracer = spans.Tracer()
    patches, missing = tracer.install(yoklab)
    try:
        traced_s = one_pass(ops, order, tally, tracer.run_op)
    finally:
        patches.undo()

    counter = spans.Counter()
    patches, missing_counters = counter.install(yoklab)
    missing += missing_counters
    try:
        one_pass(ops, order, tally)
    finally:
        patches.undo()
    micro = spans.micro(yoklab, args.seed)

    summ = tracer.summary()

    def span(name, field):
        return summ.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    c = counter.counts
    harness = span(spans.HARNESS_SPAN, "self_s") + traced_s - span(spans.HARNESS_SPAN, "s")
    m = {
        "cli.self_s": (span("cli.main", "self_s"), "s"),
        "structure.gram_matrix.s": (span("structure.gram_matrix", "s"), "s"),
        "structure.gram_matrix.calls": (span("structure.gram_matrix", "calls"), "count"),
        "structure.frobenius_check.self_s": (span("structure.frobenius_check", "self_s"), "s"),
        "structure.nakayama_check.self_s": (span("structure.nakayama_check", "self_s"), "s"),
        "structure.classification_match.s": (span("structure.classification_match", "s"), "s"),
        "modrep.commutator_ideal.s": (span("modrep.commutator_ideal", "s"), "s"),
        "modrep.power_dims.s": (span("modrep.power_dims", "s"), "s"),
        "modrep.commutator_seeds.s": (span("modrep.commutator_seeds", "s"), "s"),
        "modrep.commutator_seeds.calls": (span("modrep.commutator_seeds", "calls"), "count"),
        "modrep.bruteforce.s": (span("modrep.bruteforce", "s"), "s"),
        "ycore.torus_to_E.s": (span("ycore.torus_to_E", "s"), "s"),
        "ycore.torus_to_E.calls": (span("ycore.torus_to_E", "calls"), "count"),
        "ycore.torus_to_T.s": (span("ycore.torus_to_T", "s"), "s"),
        "ycore.torus_to_T.calls": (span("ycore.torus_to_T", "calls"), "count"),
        "ycore.phi.s": (span("ycore.phi", "s"), "s"),
        "ycore.mul_terms.self_s": (span("ycore.mul_terms", "self_s"), "s"),
        "ycore.mul_terms.calls": (span("ycore.mul_terms", "calls"), "count"),
        "ycore.mono_cache.hit_ratio": (ratio(c["mono.hit"], c["mono.lookup"]), "ratio"),
        "ycore.genmap.self_s": (span("ycore.genmap", "self_s"), "s"),
        "ycore.genmap.calls": (span("ycore.genmap", "calls"), "count"),
        "ycore.verify_presentation.self_s": (span("ycore.verify_presentation", "self_s"), "s"),
        "aks.mul_terms.self_s": (span("aks.mul_terms", "self_s"), "s"),
        "aks.mul_terms.calls": (span("aks.mul_terms", "calls"), "count"),
        "nilalg.mul_terms.self_s": (span("nilalg.mul_terms", "self_s"), "s"),
        "nilalg.mul_terms.calls": (span("nilalg.mul_terms", "calls"), "count"),
        "nilalg.gram_matrix.s": (span("nilalg.gram_matrix", "s"), "s"),
        "exactla.insert.self_s": (span("exactla.insert", "self_s"), "s"),
        "exactla.insert.calls": (span("exactla.insert", "calls"), "count"),
        "exactla.insert.useful_ratio": (ratio(c["insert.stored"], c["insert.attempted"]), "ratio"),
        "exactla.reduce.self_s": (span("exactla.reduce", "self_s"), "s"),
        "exactla.closure_under.self_s": (span("exactla.closure_under", "self_s"), "s"),
        "exactla.ideal_power_dims.self_s": (span("exactla.ideal_power_dims", "self_s"), "s"),
        "exactla.vec_addmul.calls": (c["exactla.vec_addmul"], "count"),
        "exactla.matrix_rank.s": (span("exactla.matrix_rank", "s"), "s"),
        "symgroup.calls": (c["symgroup"], "count"),
        "symgroup.act_on_colors_ns": (micro["symgroup.act_on_colors_ns"], "ns"),
        "scalars.cyc3.mul_ns": (micro["scalars.cyc3.mul_ns"], "ns"),
        "scalars.cyc4.mul_ns": (micro["scalars.cyc4.mul_ns"], "ns"),
        "scalars.cyc3.add_ns": (micro["scalars.cyc3.add_ns"], "ns"),
        "scalars.cyc3.inverse_ns": (micro["scalars.cyc3.inverse_ns"], "ns"),
        "scalars.fp13.mul_ns": (micro["scalars.fp13.mul_ns"], "ns"),
        "scalars.fp13.inverse_ns": (micro["scalars.fp13.inverse_ns"], "ns"),
        "scalars.mul.calls": (c["scalars.mul"], "count"),
        "scalars.add.calls": (c["scalars.add"], "count"),
        "trace.overhead_ratio": (traced_s / untraced_s, "ratio"),
        "trace.harness_s": (harness, "s"),
        "src.lines": (src_lines(), "lines"),
    }

    per_op = tracer.per_op()
    torus = [i for i in range(len(tracer.start))
             if tracer.names[tracer.name_id[i]] in ("ycore.torus_to_E", "ycore.torus_to_T")]
    outside_seeds = sum(1 for i in torus
                        if "modrep.commutator_seeds" not in tracer.ancestors_named(i))
    layer_self = sum(rec["self_s"] for name, rec in summ.items() if name != spans.HARNESS_SPAN)
    notes = [f"untraced pass {untraced_s:.2f} s, traced pass {traced_s:.2f} s, "
             f"{len(tracer.start)} spans",
             f"layer self times {layer_self:.3f} s + harness {harness:.3f} s "
             f"= {layer_self + harness:.3f} s of {traced_s:.3f} s traced wall",
             f"torus-transform spans without a modrep.commutator_seeds ancestor: "
             f"{outside_seeds} of {len(torus)}"]
    if missing:
        notes.append(f"trace targets not found in this yoklab: {', '.join(missing)}")
    if args.workload != "products":
        for rec in per_op:
            top = sorted(rec["self_s"].items(), key=lambda kv: -kv[1])[:4]
            notes.append(f"  {rec['op']}: {rec['s']:.3f} s; self "
                         + ", ".join(f"{k} {v:.3f}" for k, v in top)
                         + f"; torus_to_E.s share "
                         f"{rec['incl_s'].get('ycore.torus_to_E', 0.0) / rec['s']:.2f}"
                         + f"; calls commutator_seeds {rec['calls'].get('modrep.commutator_seeds', 0)}"
                         f", gram_matrix {rec['calls'].get('structure.gram_matrix', 0)}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(OUT / f"spans-{stem}.tsv.gz")
    (OUT / f"trace-{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "traced_s": traced_s,
         "untraced_s": untraced_s, "by_name": summ, "counts": c, "micro": micro,
         "per_op": per_op if args.workload != "products" else [],
         "torus_spans": len(torus), "torus_spans_outside_seeds": outside_seeds,
         "missing_targets": missing}, indent=1, sort_keys=True))
    notes.append(f"spans written to {OUT.relative_to(ROOT)}/spans-{stem}.tsv.gz")
    return tally, m, notes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "yoklab" / "__init__.py").is_file():
        print(f"error: no yoklab sources at {SRC.relative_to(ROOT)}/yoklab; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tally, metrics, notes = traced(args) if args.trace else end_to_end(args)

    print(f"yoklab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}; Python {platform.python_version()}, "
          f"{os.cpu_count()} CPUs, src {src_lines()} lines")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
