"""Spans and counts recorded from outside the library.

The tracer replaces public functions and methods of rootring with wrappers
that record one span per call: a name, a start, an end, the index of the
parent span and the operation id.  Spans stay in a list in memory until the
run ends.  A span's self time is its duration minus the durations of its
children; calls nest (the library is single-threaded), so the children are
disjoint and lie inside their parent.

The first part of a span name is its layer, one of the modules in LAYERS.
Two more names never come from the library: `bench.op` is the root span of
each operation, whose self time is the benchmark's own glue, and
`trace.stats` covers the tracer computing matrix statistics after a Smith
call, so that this cost lands in no layer.
"""

import gzip
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("smith", "abelian", "rings", "glgroup", "commrel", "coordinatize",
          "fileformat", "cli")

# (module, attribute path, span name).  Several callables may share a span
# name; their calls and self time add up under it.
WRAPS = (
    ("smith", "smith_normal_form", "smith.snf"),
    ("smith", "Lattice.__init__", "smith.lattice_init"),
    ("smith", "Lattice.add", "smith.lattice_add"),
    ("smith", "kernel_mod", "smith.kernel_mod"),
    ("smith", "solve_mod", "smith.solve_mod"),
    ("smith", "solve_int", "smith.solve_int"),
    ("abelian", "quotient", "abelian.quotient"),
    ("abelian", "Subgroup.__init__", "abelian.subgroup"),
    ("abelian", "Subgroup.intersect", "abelian.intersect"),
    ("abelian", "Subgroup.as_group", "abelian.as_group"),
    ("abelian", "Subgroup.join", "abelian.join"),
    ("abelian", "induced_map", "abelian.induced_map"),
    ("abelian", "AbHom.__init__", "abelian.hom"),
    ("abelian", "AbHom.kernel", "abelian.hom_kernel"),
    ("abelian", "AbHom.image", "abelian.hom_image"),
    ("abelian", "AbHom.preimage", "abelian.hom_preimage"),
    ("abelian", "AbHom.inverse", "abelian.hom_inverse"),
    ("abelian", "TensorGroup.__init__", "abelian.tensor"),
    ("abelian", "FinAbGroup.invariant_factors", "abelian.invariant_factors"),
    ("rings", "bilinear_apply", "rings.bilinear_apply"),
    ("rings", "PeirceRing.__init__", "rings.construct"),
    ("rings", "FinRing.__init__", "rings.construct"),
    ("rings", "check_predicates", "rings.predicates"),
    ("rings", "is_idempotent", "rings.predicates"),
    ("rings", "is_firm", "rings.predicates"),
    ("rings", "is_reduced", "rings.predicates"),
    ("rings", "two_sided_annihilator", "rings.predicates"),
    ("rings", "find_unit", "rings.find_unit"),
    ("rings", "universal_ring", "rings.universal_ring"),
    ("rings", "reduced_quotient", "rings.reduced_quotient"),
    ("rings", "collapse_rank", "rings.collapse_rank"),
    ("rings", "RelTensor.__init__", "rings.rel_tensor"),
    ("glgroup", "QuasiUnit.circle", "glgroup.circle"),
    ("glgroup", "quasi_inverse", "glgroup.quasi_inverse"),
    ("glgroup", "verify_steinberg", "glgroup.steinberg"),
    ("glgroup", "elementary_subgroup", "glgroup.elementary"),
    ("glgroup", "perfectness_and_center", "glgroup.perfectness"),
    ("commrel", "CommRelData.__init__", "commrel.construct"),
    ("commrel", "extract", "commrel.extract"),
    ("commrel", "check_K_linear", "commrel.predicates"),
    ("commrel", "check_idempotent_rel", "commrel.predicates"),
    ("commrel", "check_firm_rel", "commrel.predicates"),
    ("commrel", "check_reduced_rel", "commrel.predicates"),
    ("coordinatize", "firm_coordinatize", "coordinatize.firm"),
    ("coordinatize", "reduced_coordinatize", "coordinatize.reduced"),
    ("coordinatize", "connecting_hom", "coordinatize.connecting_hom"),
    ("coordinatize", "verify_associativity_patterns", "coordinatize.patterns"),
    ("fileformat", "load_ring", "fileformat.load"),
    ("fileformat", "load_commrel", "fileformat.load"),
    ("fileformat", "dump_ring", "fileformat.dump"),
    ("fileformat", "dump_commrel", "fileformat.dump"),
    ("cli", "main", "cli.main"),
)

OP_SPAN = "bench.op"
STATS_SPAN = "trace.stats"


def _max_bits(matrices):
    bits = 0
    for M in matrices:
        if M is None:
            continue
        for row in M:
            if row:
                bits = max(bits, max(row).bit_length(),
                           (-min(row)).bit_length())
    return bits


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        self.spans = []      # (name id, start, end, parent index, op id)
        self.stack = []
        self.op_id = -1
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, post=None):
        """A wrapper that records a span around each call of fn."""
        nid = self.name_id(name)
        stats_id = self.name_id(STATS_SPAN)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.op_id)
            if post is not None:
                post(tracer, args, out)
                spans.append((stats_id, t1, clock(), parent, tracer.op_id))
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def run_op(self, op_id, call):
        """Run one operation under a root span."""
        self.op_id = op_id
        return self.span(OP_SPAN, call)()

    # -- aggregation ----------------------------------------------------------

    def self_times(self):
        """{name: (calls, self seconds)} over the recorded spans."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for idx, (nid, t0, t1, _, _) in enumerate(self.spans):
            calls, self_s = out.get(self.names[nid], (0, 0.0))
            out[self.names[nid]] = (calls + 1, self_s + (t1 - t0) - child[idx])
        return out

    def write(self, path):
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1, encoding="ascii") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for idx, (nid, t0, t1, parent, op) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (idx, self.names[nid], t0, t1, parent, op))


def _snf_stats(tracer, args, out):
    M = args[0]
    cells = len(M) * (len(M[0]) if M else 0)
    tracer.counts["smith.snf.cells_sum"] += cells
    tracer.maxima["smith.snf.cells_max"] = max(
        tracer.maxima["smith.snf.cells_max"], cells)
    tracer.maxima["smith.snf.out_bits_max"] = max(
        tracer.maxima["smith.snf.out_bits_max"], _max_bits(out))


def _load_stats(tracer, args, out):
    tracer.counts["fileformat.load.bytes"] += len(args[0])


POSTS = {"smith.snf": _snf_stats, "fileformat.load": _load_stats}


class Installed:
    """The wrappers of WRAPS put in place; `restore` takes them out.

    A function is replaced at its module attribute and under every name
    another rootring module imported it as, found by identity.
    """

    def __init__(self, tracer):
        self._undo = []
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "rootring" or name.startswith("rootring.")]
        for modname, path, span in WRAPS:
            mod = sys.modules["rootring." + modname]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = inspect.getattr_static(owner, attr)
            wrapper = tracer.span(span, original, POSTS.get(span))
            if owner_name:
                self._set(owner, attr, wrapper)
                continue
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo = []


def layer_of(name):
    return name.split(".", 1)[0]
