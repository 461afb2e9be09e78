"""rootring benchmark: one seeded, closed-loop, single-client workload per run.

    python3 bench/run.py --workload roundtrip|lattice|structure \\
        --seed N --seconds S --trace 0|1

Run it from anywhere; it imports rootring from the `src/` directory next
to its own.  Set-up (import the package afresh, generate the inputs, write
the ring files) runs SETUP_REPS times and the last one is used.  Then:

  --trace 0  runs whole rounds until S seconds have passed and at least
             MIN_SAMPLES operations ran, checks every result against an
             independent answer and reports the end-to-end metrics;
  --trace 1  runs round 0 traced, untraced and traced again, reports
             the per-layer metrics of the last pass and the tracing
             overhead, fails if the two traced passes count differently,
             and writes the last pass's spans to .bench_out/.

Timings are reported at the host's usual speed (see reference_slice); the
table also shows them as measured.  A table of every metric goes to
standard output; the last line is one JSON object with the keys correct,
attempted, failed and metrics.

    python3 bench/run.py --write-manifest

writes BENCHMARK.json and bench/design.json from the definitions below.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
LIB_MODULES = ("smith", "abelian", "rings", "glgroup", "commrel",
               "coordinatize", "fileformat", "cli", "corpus", "errors")
SETUP_REPS = 5
MIN_SAMPLES = 100       # so that at least 10 samples lie beyond p90
RUN_SECONDS = 30
# Time of one reference slice at the host's usual speed.  Timings are
# reported at this speed: see reference_slice.
REF_NOMINAL_S = 0.0015
SLICE_EVERY_S = 0.1     # one slice per this much timed work, at least two

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("ops_per_s", "1/s", "higher", 0.2),
    ("op_ms.p50", "ms", "lower", 0.24),
    ("op_ms.p90", "ms", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_SMITH = ("lattice ops_per_s and op_ms.p90 most; roundtrip op_ms.p50 by up "
          "to its share; no change on structure")
_ABELIAN = "lattice (quotient kind) and roundtrip op_ms.p50"
_RINGS = ("structure ops_per_s; roundtrip op_ms.p90 through the grouped "
          "files; no change on lattice")
_GLGROUP = "structure ops_per_s only"
_ROUNDTRIP = "roundtrip op_ms.p50"
_STRUCTURE = "structure ops_per_s"
_TRACE = "none: the cost and coverage of tracing itself"

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("smith.self_s", "s", "lower", _SMITH),
    ("smith.snf.calls", "count", "lower", _SMITH),
    ("smith.snf.self_s", "s", "lower", _SMITH),
    ("smith.snf.cells_sum", "count", "lower", _SMITH),
    ("smith.snf.cells_max", "count", "lower", _SMITH),
    ("smith.snf.out_bits_max", "bits", "lower", _SMITH),
    ("smith.lattice_add.calls", "count", "lower", _SMITH),
    ("smith.lattice_add.self_s", "s", "lower", _SMITH),
    ("smith.kernel_mod.calls", "count", "lower", _SMITH),
    ("smith.solve_mod.calls", "count", "lower", _SMITH),
    ("abelian.self_s", "s", "lower", _ABELIAN),
    ("abelian.quotient.calls", "count", "lower", _ABELIAN),
    ("abelian.subgroup.calls", "count", "lower", _ABELIAN),
    ("abelian.intersect.calls", "count", "lower", _ABELIAN),
    ("abelian.as_group.calls", "count", "lower", _ABELIAN),
    ("rings.self_s", "s", "lower", _RINGS),
    ("rings.bilinear_apply.calls", "count", "lower", _RINGS),
    ("rings.bilinear_apply.self_s", "s", "lower", _RINGS),
    ("rings.construct.calls", "count", "lower", _RINGS),
    ("rings.construct.self_s", "s", "lower", _RINGS),
    ("rings.predicates.self_s", "s", "lower", _RINGS),
    ("rings.find_unit.self_s", "s", "lower", _RINGS),
    ("rings.universal_ring.self_s", "s", "lower", _RINGS),
    ("glgroup.self_s", "s", "lower", _GLGROUP),
    ("glgroup.circle.calls", "count", "lower", _GLGROUP),
    ("glgroup.steinberg.self_s", "s", "lower", _GLGROUP),
    ("glgroup.elementary.self_s", "s", "lower", _GLGROUP),
    ("glgroup.perfectness.self_s", "s", "lower", _GLGROUP),
    ("commrel.self_s", "s", "lower", _ROUNDTRIP),
    ("commrel.extract.self_s", "s", "lower", _ROUNDTRIP),
    ("commrel.predicates.self_s", "s", "lower", _ROUNDTRIP),
    ("coordinatize.self_s", "s", "lower", _ROUNDTRIP + "; structure "
     "ops_per_s through patterns"),
    ("coordinatize.firm.self_s", "s", "lower", _ROUNDTRIP),
    ("coordinatize.reduced.self_s", "s", "lower", _ROUNDTRIP),
    ("coordinatize.connecting_hom.self_s", "s", "lower", _ROUNDTRIP),
    ("coordinatize.patterns.self_s", "s", "lower", _STRUCTURE),
    ("fileformat.self_s", "s", "lower", "roundtrip only"),
    ("fileformat.load.self_s", "s", "lower", "roundtrip only"),
    ("fileformat.load.bytes", "bytes", "lower", "roundtrip only"),
    ("fileformat.dump.self_s", "s", "lower", "roundtrip only"),
    ("cli.self_s", "s", "lower", "roundtrip only"),
    ("trace.op_s", "s", "lower", _TRACE),
    ("trace.unattributed_s", "s", "lower", _TRACE),
    ("trace.overhead", "ratio", "lower", _TRACE),
    ("trace.spans", "count", "lower", _TRACE),
)

# Exact counts: they repeat for a given seed, and two traced passes must
# agree on them.
EXACT = tuple(name for name, unit, _b, _m in PER_LAYER
              if unit in ("count", "bits", "bytes"))

EXCLUDED = (
    ("verify-lemmas on `build mat 4 101`",
     "does not finish: its suites enumerate 101^6 upper unitriangular "
     "units; stopped by timeout after 20 s without output"),
    ("verify-lemmas on grouped_5 (grouped_entry(5, 2, 1|2|3|45))",
     "takes 104 s"),
    ("verify_steinberg on rank 3 over Z/3 and on zero_entry(4, 2)",
     "cost 1908 and 1956 tuples over the steinberg cap of 400; 3.2 s and "
     "4.5 s, and rank 4 over Z/2 takes 4.9 s"),
    ("elementary_subgroup on rank 3 over Z/3 and Z/4",
     "ring orders 3^9 and 4^9 over the cap of 512; rank 3 over Z/4 takes "
     "18 s"),
    ("find_unit on rank 3 and 4 rings, the Morita ring and zero_entry(4, 2)",
     "2d^3 from 1458 to 8192 over the cap of 128; rank 4 takes 6.8 s, "
     "nearly all in Smith, which this workload is meant to avoid"),
    ("perfectness_and_center on rank 4 over Z/3 and Z/4",
     "3^6 and 4^6 upper units over the cap of 64; 0.7 s and more"),
    ("roundtrip on rank 8", "4.3 s per rebuild pair: too few operations "
     "per run for a stable 90th percentile"),
)


def import_fresh():
    """Import the rootring modules anew, from SRC only."""
    for name in [n for n in sys.modules
                 if n == "rootring" or n.startswith("rootring.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("rootring")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(SRC, "rootring"):
        raise ImportError("rootring imported from %s, not from %s"
                          % (where, SRC))
    return types.SimpleNamespace(**{
        name: importlib.import_module("rootring." + name)
        for name in LIB_MODULES})


def reference_slice():
    """Seconds taken by a fixed piece of pure-Python work (dict, tuple and
    integer operations, like the library's), with the collector off.

    The host (shared cores) flips between a fast and a slow state many
    times a second, and the share of time it spends slow drifts from one
    run to the next by 10-30 %.  After every timed call come slices, one
    per SLICE_EVERY_S of its duration and at least two.  The call's time
    is scaled by REF_NOMINAL_S over the mean of these slices and the two
    just before the call: a short call is judged by the state around it,
    a long one by the mixture of states it ran through.  Times then read
    at the host's usual speed, and medians of separate runs stay
    comparable.  Raw times are printed alongside.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = {}
        s = 0
        for i in range(3000):
            key = (i % 61, i % 17)
            acc[key] = (acc.get(key, 0) + i * i) % 1000003
            s += len(acc)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def quantile(values, q):
    """Inclusive linear-interpolation quantile of a nonempty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Pass:
    """Outcome of running a list of operations once."""

    def __init__(self):
        self.raw = []           # seconds per operation, as measured
        self.latencies = []     # the same at the usual host speed
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self._last = [reference_slice(), reference_slice()]

    def add_time(self, seconds):
        """Record a timed call, just after it returned."""
        after = [reference_slice()
                 for _ in range(2 + int(seconds / SLICE_EVERY_S))]
        ref = self._last + after
        self._last = after[-2:]
        self.raw.append(seconds)
        self.latencies.append(seconds * REF_NOMINAL_S * len(ref) / sum(ref))

    @property
    def op_s(self):
        return sum(self.latencies)


def run_ops(ops, caps, result, tracer=None):
    """Run each operation, time it and check its result.

    An operation fails when its result disagrees with the known answer,
    when it raises an exception the answer does not expect, or when its
    declared cost exceeds its kind's cap (it is then not run).
    """
    clock = time.perf_counter
    for op in ops:
        result.attempted += 1
        if op.cost > caps[op.kind]:
            result.failed += 1
            result.first_failure = result.first_failure or (
                "%s %s: cost %d over cap %d"
                % (op.kind, op.label, op.cost, caps[op.kind]))
            continue
        t0 = clock()
        try:
            if tracer is None:
                out = op.call()
            else:
                out = tracer.run_op(result.attempted, op.call)
        except Exception as e:      # counted below: the run goes on
            out = e
        result.add_time(clock() - t0)
        try:
            ok = op.check(out)
        except Exception as e:      # a malformed result fails its check
            ok, out = False, e
        if not ok:
            result.failed += 1
            if result.first_failure is None:
                detail = "".join(traceback.format_exception(
                    type(out), out, out.__traceback__)) \
                    if isinstance(out, BaseException) else repr(out)[:500]
                result.first_failure = "%s %s: %s" % (op.kind, op.label,
                                                      detail)
    return result


def measure(workload, state, seconds):
    result = Pass()
    start = time.perf_counter()
    rounds = 0
    while (time.perf_counter() - start < seconds
           or len(result.raw) < MIN_SAMPLES):
        ops = workload.round(state, rounds)
        gc.collect()
        run_ops(ops, workload.caps, result)
        rounds += 1
    lat = result.latencies
    verified = result.attempted - result.failed
    metrics = {
        "ops_per_s": verified / result.op_s,
        "op_ms.p50": 1000 * quantile(lat, 0.5),
        "op_ms.p90": 1000 * quantile(lat, 0.9),
    }
    notes = {"rounds": rounds, "samples": len(lat),
             "beyond_p90": sum(1 for x in lat
                               if 1000 * x > metrics["op_ms.p90"]),
             "fail_frac": result.failed / result.attempted,
             "wall_s": time.perf_counter() - start,
             "raw ops_per_s": verified / sum(result.raw),
             "raw op_ms.p50": 1000 * quantile(result.raw, 0.5),
             "raw op_ms.p90": 1000 * quantile(result.raw, 0.9)}
    return result, metrics, notes


def _layer_metrics(tracer, scale):
    """Per-layer metrics; self times are multiplied by `scale`, which
    takes them to the usual host speed like the operation times."""
    table = tracer.self_times()
    out = {}
    for name, (calls, self_s) in table.items():
        self_s *= scale
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
        layer = spans.layer_of(name)
        out[layer + ".self_s"] = out.get(layer + ".self_s", 0.0) + self_s
    out.update(tracer.counts)
    out.update(tracer.maxima)
    out["trace.spans"] = len(tracer.spans)
    out["trace.op_s"] = out.get(spans.OP_SPAN + ".self_s", 0.0) + sum(
        out.get(layer + ".self_s", 0.0) for layer in spans.LAYERS) + \
        out.get(spans.STATS_SPAN + ".self_s", 0.0)
    out["trace.unattributed_s"] = out.get(spans.OP_SPAN + ".self_s", 0.0) \
        + out.get(spans.STATS_SPAN + ".self_s", 0.0)
    return table, out


def traced_pass(workload, ops, tracer):
    installed = spans.Installed(tracer)
    try:
        gc.collect()
        return run_ops(ops, workload.caps, Pass(), tracer)
    finally:
        installed.restore()


def trace(workload, state, out_path):
    """Per-layer metrics of round 0.  A first traced pass also warms up;
    then come an untraced pass and the traced pass that is reported.  The
    two traced passes must count alike."""
    ops = workload.round(state, 0)
    tracer = spans.Tracer()
    first = traced_pass(workload, ops, tracer)
    _table, counted = _layer_metrics(tracer, 1.0)
    tracer.reset()
    gc.collect()
    plain = run_ops(ops, workload.caps, Pass())
    last = traced_pass(workload, ops, tracer)
    table, metrics = _layer_metrics(tracer, last.op_s / sum(last.raw))
    problems = []
    for name in EXACT:
        if metrics.get(name, 0) != counted.get(name, 0):
            problems.append("%s differs between traced passes: %r vs %r"
                            % (name, counted.get(name, 0),
                               metrics.get(name, 0)))
    if abs(metrics["trace.op_s"] - last.op_s) > 0.01 * last.op_s:
        problems.append("layer self times add up to %.6f s, traced "
                        "operations took %.6f s"
                        % (metrics["trace.op_s"], last.op_s))
    metrics["trace.overhead"] = last.op_s / plain.op_s
    tracer.write(out_path)
    result = Pass()
    for p in (first, plain, last):
        result.attempted += p.attempted
        result.failed += p.failed
        result.first_failure = result.first_failure or p.first_failure
    notes = {"untraced_op_s": plain.op_s, "traced_op_s": last.op_s,
             "layers_share": sum(metrics.get(layer + ".self_s", 0.0)
                                 for layer in spans.LAYERS) / last.op_s,
             "spans_file": os.path.relpath(out_path, ROOT)}
    return result, metrics, notes, table, problems


def _print_table(rows):
    for name, value, unit in rows:
        if isinstance(value, float):
            value = "%.6g" % value
        print("%-38s %14s %s" % (name, value, unit))


def run(args):
    if not os.path.isfile(os.path.join(SRC, "rootring", "__init__.py")):
        print("error: no rootring package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = workloads.WORKLOADS[args.workload]
    tag = "%s-seed%d-pid%d" % (workload.name, args.seed, os.getpid())
    workdir = os.path.join(ROOT, ".bench_work", tag)
    try:
        setup = Pass()
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            lib = import_fresh()
            state = workload.setup(lib, args.seed, workdir)
            setup.add_time(time.perf_counter() - t0)
        # the inputs live as long as the run: keep the collector from
        # rescanning them inside timed operations
        gc.collect()
        gc.freeze()
        print("workload %s seed %d: %s" % (workload.name, args.seed,
                                           workload.why))
        problems = []
        if args.trace:
            out_dir = os.path.join(ROOT, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            result, metrics, notes, table, problems = trace(
                workload, state, os.path.join(out_dir, tag + ".tsv.gz"))
            print("span name                                calls        "
                  "self_s")
            for name in sorted(table):
                calls, self_s = table[name]
                print("  %-36s %9d %13.6f" % (name, calls, self_s))
            chosen = PER_LAYER
        else:
            result, metrics, notes = measure(workload, state, args.seconds)
            metrics["setup_s"] = statistics.median(setup.latencies)
            notes["raw setup_s"] = statistics.median(setup.raw)
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
            chosen = END_TO_END
        _print_table([(k, v, "") for k, v in notes.items()])
        _print_table([(spec[0], metrics.get(spec[0], 0), spec[1])
                      for spec in chosen])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result.first_failure:
        print("first failure: " + result.first_failure)
    for p in problems:
        print("self-check failed: " + p)
    print(json.dumps({
        "correct": result.failed == 0 and not problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {spec[0]: {"value": metrics.get(spec[0], 0),
                              "unit": spec[1]} for spec in chosen},
    }))
    return 0


def manifest():
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in workloads.WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _m in PER_LAYER],
    }


def design():
    """What BENCHMARK.json has no room for: instance mix, op-kind shares,
    cost caps, the layer-to-end-to-end map and the cases left out."""
    out = {"loop": "closed loop, one client, one process; whole rounds "
                   "until --seconds have passed and at least %d "
                   "operations ran" % MIN_SAMPLES,
           "setup_repetitions": SETUP_REPS,
           "timing": "each timed call is scaled by REF_NOMINAL_S = %g s "
                     "over the mean of the reference slices around it, two "
                     "before and one per %g s of its duration (at least "
                     "two) after (run.reference_slice), so "
                     "times read at the host's usual speed; raw times are "
                     "printed in the table" % (REF_NOMINAL_S, SLICE_EVERY_S),
           "workloads": {}}
    for w in workloads.WORKLOADS.values():
        slots = w.slots()
        kinds = {}
        mix = {}
        for kind, desc in slots:
            kinds[kind] = kinds.get(kind, 0) + 1
            key = "%s: %s" % (kind, desc)
            mix[key] = mix.get(key, 0) + 1
        out["workloads"][w.name] = {
            "why": w.why,
            "operations_per_round": len(slots),
            "op_kind_shares": {k: round(v / len(slots), 4)
                               for k, v in kinds.items()},
            "cost_caps": w.caps,
            "instance_mix": mix,
        }
    out["layer_metric_moves"] = {n: m for n, _u, _b, m in PER_LAYER}
    out["excluded"] = [{"case": c, "why": why} for c, why in EXCLUDED]
    return out


def write_manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
    with open(os.path.join(BENCH_DIR, "design.json"), "w") as fh:
        json.dump(design(), fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json and bench/design.json")
    args = p.parse_args(argv)
    if args.write_manifest:
        return write_manifest()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
