"""The three workloads: inputs drawn from a seed, operations, known answers.

A workload is a fixed list of slots.  One round runs every slot once, in
an order shuffled by the seed; the seed also draws the free parameters of
each slot (a modulus, a mode, a permutation, a random element).  Slots
are chosen so that the cost of a round hardly depends on the draw, which
keeps the figures of two seeds comparable.  Every operation states its
cost before it runs and no slot may exceed its kind's cap.

Each workload object has:
  name, why       what it is and why it was chosen;
  caps            {operation kind: largest allowed cost};
  slots()         (kind, description) of every slot of a round;
  setup(lib, seed, workdir)  generates the inputs; returns the state;
  round(state, index)        the operations of one round.

`lib` is a namespace of freshly imported rootring modules.  An operation
is an Op: `call()` runs the library, `check(out)` compares its result (or
the exception it raised) with an answer from `known`, which shares no code
with the library.
"""

import contextlib
import io
import itertools
import json
import os
import random
from math import gcd

import known


class Op:
    __slots__ = ("kind", "label", "cost", "call", "check")

    def __init__(self, kind, label, cost, call, check):
        self.kind = kind
        self.label = label
        self.cost = cost
        self.call = call
        self.check = check


def _rng(seed, *parts):
    return random.Random("%d/%s" % (seed, "/".join(map(str, parts))))


def _raised(out):
    return isinstance(out, BaseException)


# -- ring specifications, written out without the library ---------------------

def mat_spec(rank, n):
    """Blocks and structure constants of Mat_rank(Z/n) with its diagonal
    Peirce grading: every block is Z/n and e_ij * e_jk = e_ik."""
    blocks = {(i, j): (n,) for i in range(rank) for j in range(rank)}
    tables = {(i, j, k): {(0, 0): (1,)} for i in range(rank)
              for j in range(rank) for k in range(rank)}
    return rank, n, blocks, tables


def grouped_spec(n, parts):
    """Mat_size(Z/n) graded by sums of diagonal idempotents over `parts`.
    Block (I, J) holds the |I| x |J| matrices, generators in row-major
    order of (row, column) index pairs."""
    rank = len(parts)
    blocks = {}
    tables = {}
    for I, pi in enumerate(parts):
        for J, pj in enumerate(parts):
            blocks[(I, J)] = (n,) * (len(pi) * len(pj))
            for K, pk in enumerate(parts):
                tab = {}
                for x, (a, b) in enumerate(itertools.product(pi, pj)):
                    for y, (c, d) in enumerate(itertools.product(pj, pk)):
                        if b == c:
                            v = [0] * (len(pi) * len(pk))
                            v[pi.index(a) * len(pk) + pk.index(d)] = 1
                            tab[(x, y)] = tuple(v)
                tables[(I, J, K)] = tab
    return rank, n, blocks, tables


def annihilated_spec(rank, n):
    """Mat_rank(Z/n) with an extra Z/n in block (0, 0) that multiplies
    everything to zero.  Its commutator data is firm and reduced, the ring
    is neither, and both rebuilds give a connecting map that is bijective
    everywhere except at block (0, 0)."""
    rank, n, blocks, tables = mat_spec(rank, n)
    blocks[(0, 0)] = (n, n)
    for (i, j, k), tab in tables.items():
        if (i, k) == (0, 0):
            tab[(0, 0)] = (1, 0)
    return rank, n, blocks, tables


def ring_text(spec):
    """The rootring ring-file text of a spec (1-based indices)."""
    rank, n, blocks, tables = spec
    lines = ["peirce rank=%d modulus=%d" % (rank, n)]
    for (i, j) in sorted(blocks):
        if blocks[(i, j)]:
            lines.append("block %d %d: %s" % (
                i + 1, j + 1, ",".join(map(str, blocks[(i, j)]))))
    for (i, j, k) in sorted(tables):
        tab = tables[(i, j, k)]
        for (a, b) in sorted(tab):
            lines.append("mult %d %d %d: (%d,%d) -> %s" % (
                i + 1, j + 1, k + 1, a + 1, b + 1,
                ",".join(map(str, tab[(a, b)]))))
    return "\n".join(lines) + "\n"


def table_size(spec):
    """Generator pairs over all index triples: sum of dim_ij * dim_jk."""
    rank, _n, blocks, _t = spec
    return sum(len(blocks[(i, j)]) * len(blocks[(j, k)])
               for i in range(rank) for j in range(rank) for k in range(rank))


def _order(orders):
    out = 1
    for d in orders:
        out *= d
    return out


# -- roundtrip ---------------------------------------------------------------

class Roundtrip:
    name = "roundtrip"
    why = ("rootring roundtrip in-process on seeded matrix, grouped and "
           "annihilated rings: the paper's question end to end")
    caps = {"roundtrip": 400}
    MODULI = (2, 3, 4, 6, 12)
    # (ring, rank or None, mode or None); mode None alternates between
    # rounds.  Rank 4 makes up over half of a round, so the median lies
    # inside that cost class; the 90th percentile falls in the middle of
    # the rank-6 and grouped rank-6 slots.  The moduli are drawn per round:
    # they barely change the cost.
    SLOTS = ([("ann", None, "firm"), ("ann", None, "reduced")]
             + [("mat", 4, m) for m in ("firm", "reduced") for _ in range(10)]
             + [("grouped5", None, m) for m in ("firm", "reduced")]
             + [("mat", 5, m) for m in ("firm", "reduced") for _ in range(2)]
             + [("mat", 6, m) for m in ("firm", "reduced") for _ in range(3)]
             + [("grouped6", None, None), ("mat", 7, None)])

    def slots(self):
        return [("roundtrip", "%s%s %s" % (ring, "" if r is None else r,
                                           mode or "firm/reduced by turns"))
                for ring, r, mode in self.SLOTS]

    def setup(self, lib, seed, workdir):
        os.makedirs(workdir, exist_ok=True)
        specs = {("ann", None, 2): annihilated_spec(4, 2),
                 ("grouped5", None, 2): grouped_spec(2, [[0], [1], [2],
                                                         [3, 4]]),
                 ("grouped6", None, 2): grouped_spec(2, [[0], [1], [2], [3],
                                                         [4, 5]])}
        for r in (4, 5, 6, 7):
            for n in self.MODULI:
                specs[("mat", r, n)] = mat_spec(r, n)
        files = {}
        for key, spec in specs.items():
            path = os.path.join(workdir, "%s_%s_%d.ring" % key)
            with open(path, "w", encoding="ascii") as fh:
                fh.write(ring_text(spec))
            files[key] = (path, table_size(spec))
        return {"lib": lib, "seed": seed, "files": files}

    def round(self, state, index):
        lib, seed = state["lib"], state["seed"]
        rng = _rng(seed, self.name, index)
        ops = []
        for slot, (ring, r, mode) in enumerate(self.SLOTS):
            n = rng.choice(self.MODULI) if ring == "mat" else 2
            mode = mode or ("firm", "reduced")[(index + slot) % 2]
            path, cost = state["files"][(ring, r, n)]
            argv = ["--json", "--no-timestamp", "roundtrip", path,
                    "--mode", mode]
            ops.append(Op("roundtrip", "%s%s z%d %s" % (
                ring, "" if r is None else r, n, mode), cost,
                _cli_call(lib.cli, argv),
                _roundtrip_check(ring != "ann")))
        rng.shuffle(ops)
        return ops


def _cli_call(cli, argv):
    # library names are looked up at call time, so that the tracer's
    # wrappers are the ones called while they are installed
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()
    return call


def _roundtrip_check(isomorphic):
    """Unital matrix rings come back isomorphic with every check passing.
    The annihilated ring exits 3 with `blockwise-bijective` failing at
    block (0, 0) and nothing else failing."""
    def check(out):
        if _raised(out):
            return False
        code, text = out
        rep = json.loads(text)
        bad = [(c["name"], c["witness"]) for c in rep["checks"]
               if c["status"] != "pass"]
        if isomorphic:
            return (code == 0 and rep["exit"] == 0
                    and rep["isomorphic"] is True and not bad)
        return (code == 3 and rep["exit"] == 3
                and rep["isomorphic"] is False
                and bad == [("blockwise-bijective", [[0, 0]])])
    return check


# -- lattice -----------------------------------------------------------------

class Lattice:
    name = "lattice"
    why = ("Smith form and quotient of element-pair tensor presentations, "
           "k = |A||B| from 16 to 256: nearly all time in smith and abelian")
    caps = {"snf": 256 * 600, "quotient": 256 * 600}
    VARIANTS = 3
    # Group pairs, each run as both kinds.  Costs below k = 64 rise with
    # no gaps, so the median never sits on a jump between cost classes;
    # the eight k = 128 operations, all with 408 relations and of like
    # cost, hold the 90th percentile.
    SHAPES = (
        [((4,), (4,)), ((2, 2), (2, 2)), ((8,), (2,)), ((2,), (2, 4)),
         ((3,), (6,)), ((6,), (3,)),
         ((4,), (6,)), ((2,), (12,)), ((2, 2), (6,)),
         ((3,), (9,)), ((3,), (3, 3)),
         ((4,), (8,)), ((2, 4), (4,)), ((2, 2), (8,)), ((16,), (2,)),
         ((6,), (6,)), ((3,), (12,)),
         ((4,), (12,)), ((6,), (8,))]
        + [((8,), (8,)), ((4,), (4, 4)), ((9,), (9,)), ((9,), (3, 3))]
        + [((2, 8), (8,)), ((8,), (2, 8)), ((4, 4), (8,)), ((8,), (4, 4))]
        + [((16,), (16,))])

    def slots(self):
        return [(kind, "A=%r B=%r k=%d" % (A, B, _order(A) * _order(B)))
                for A, B in self.SHAPES for kind in ("snf", "quotient")]

    def setup(self, lib, seed, workdir):
        pres = {}
        for A, B in self.SHAPES:
            answer = known.tensor_invariants(A, B)
            for v in range(self.VARIANTS):
                k, rels = pair_presentation(A, B, _rng(seed, A, B, v))
                cols = [[rel[i] for rel in rels] for i in range(k)]
                pres[(A, B, v)] = (k, rels, cols, answer)
        return {"lib": lib, "seed": seed, "pres": pres}

    def round(self, state, index):
        lib, seed = state["lib"], state["seed"]
        ops = []
        for A, B in self.SHAPES:
            k, rels, cols, answer = state["pres"][(A, B, index %
                                                   self.VARIANTS)]
            cost = k * len(rels)
            label = "A=%r B=%r" % (A, B)
            ops.append(Op("snf", label, cost,
                          _snf_call(lib.smith, cols),
                          _snf_check(answer, k, seed)))
            g = gcd(_exponent(A), _exponent(B))
            ops.append(Op("quotient", label, cost,
                          _quotient_call(lib.abelian, k, g, rels),
                          _quotient_check(answer)))
        _rng(seed, self.name, index).shuffle(ops)
        return ops


def _exponent(orders):
    e = 1
    for d in orders:
        e = e * d // gcd(e, d)
    return e


def pair_presentation(A, B, rng):
    """Relations of A (x) B on the free abelian group over all element
    pairs (a, b): biadditivity one generator step at a time, plus (0, b)
    and (a, 0) pinned to zero.  The rng permutes the pairs and the
    relations.  Returns (k, relation rows)."""
    ea = list(itertools.product(*(range(d) for d in A)))
    eb = list(itertools.product(*(range(d) for d in B)))
    k = len(ea) * len(eb)
    places = list(range(k))
    rng.shuffle(places)
    pos = {pair: places[t]
           for t, pair in enumerate(itertools.product(ea, eb))}

    def step(x, t, orders):
        return tuple((c + (1 if s == t else 0)) % d
                     for s, (c, d) in enumerate(zip(x, orders)))

    def unit(t, orders):
        return tuple(1 if s == t else 0 for s in range(len(orders)))

    rels = []
    for a in ea:
        for t in range(len(A)):
            g, ag = unit(t, A), step(a, t, A)
            for b in eb:
                v = [0] * k
                v[pos[(ag, b)]] += 1
                v[pos[(a, b)]] -= 1
                v[pos[(g, b)]] -= 1
                rels.append(v)
    for b in eb:
        for t in range(len(B)):
            g, bg = unit(t, B), step(b, t, B)
            for a in ea:
                v = [0] * k
                v[pos[(a, bg)]] += 1
                v[pos[(a, b)]] -= 1
                v[pos[(a, g)]] -= 1
                rels.append(v)
    zero_a, zero_b = (0,) * len(A), (0,) * len(B)
    for b in eb:
        v = [0] * k
        v[pos[(zero_a, b)]] = 1
        rels.append(v)
    for a in ea:
        v = [0] * k
        v[pos[(a, zero_b)]] = 1
        rels.append(v)
    rng.shuffle(rels)
    return k, rels


def _snf_call(smith, cols):
    return lambda: smith.smith_normal_form(cols, transforms="Uu")


def _snf_check(answer, k, seed):
    """S is diagonal with a divisibility chain whose entries above 1 are
    the tensor invariants, only U and its inverse come back, and
    U * Uinv == I."""
    def check(out):
        if _raised(out):
            return False
        S, U, V, Uinv, Vinv = out
        diag = known.smith_diagonal(S)
        return (diag is not None and len(diag) == k and all(diag)
                and known.divides_chain(diag)
                and tuple(d for d in diag if d > 1) == answer
                and V is None and Vinv is None
                and known.is_inverse_pair(U, Uinv, seed))
    return check


def _quotient_call(abelian, k, g, rels):
    def call():
        G = abelian.FinAbGroup([g] * k)
        return abelian.quotient(G, abelian.Subgroup(G, rels))
    return call


def _quotient_check(answer):
    return lambda out: (not _raised(out)
                        and tuple(out.group.orders) == answer)


# -- structure ---------------------------------------------------------------

class Structure:
    name = "structure"
    why = ("the public calls behind the verify-lemmas suites on small "
           "matrix, Morita and zero rings: time in rings and glgroup, "
           "little Smith")
    # Costs: steinberg counts the element tuples it enumerates, elementary
    # the ring order (the closure lives inside the ring), perfectness the
    # upper unitriangular units, patterns the generator triples; the
    # linear-algebra kinds count rows x cols of their largest matrix.
    caps = {"steinberg": 400, "elementary": 512, "perfectness": 64,
            "quasi_inverse": 256, "find_unit": 128, "predicates": 256,
            "universal_ring": 256, "collapse_rank": 256, "patterns": 256}
    # (kind, ring, rank, modulus); modulus None draws from 2, 3, 4 per round.
    SLOTS = (
        [("steinberg", "mat", 2, 2), ("steinberg", "mat", 2, 3),
         ("steinberg", "mat", 2, 4), ("steinberg", "mat", 3, 2),
         ("steinberg", "morita", 2, 2)]
        + [("elementary", "mat", 2, 2), ("elementary", "mat", 2, 3),
           ("elementary", "mat", 2, 4), ("elementary", "mat", 3, 2)]
        + [("perfectness", "mat", 3, None), ("perfectness", "mat", 3, None),
           ("perfectness", "mat", 4, 2)]
        + [("quasi_inverse", "mat", r, None) for r in (2, 2, 3, 3, 3, 4, 4, 4)]
        + [("find_unit", "mat", 2, None), ("find_unit", "mat", 2, None),
           ("find_unit", "zero", 2, 2)]
        + [("predicates", "mat", 2, None), ("predicates", "mat", 3, None),
           ("predicates", "mat", 4, None), ("predicates", "morita", 2, 2),
           ("predicates", "zero", 4, 2)]
        + [("universal_ring", "mat", 2, None),
           ("universal_ring", "mat", 3, None),
           ("universal_ring", "mat", 4, 2),
           ("universal_ring", "morita", 2, 2)]
        + [("collapse_rank", "mat", 3, None),
           ("collapse_rank", "mat", 4, None),
           ("collapse_rank", "zero", 4, 2)]
        + [("patterns", "mat", 4, None), ("patterns", "mat", 4, None),
           ("patterns", "zero", 4, 2)])
    # The Morita context ring (S P; Q R) with R = Z/2, P = Q = (Z/2)^2 and
    # S = Mat_2(Z/2); as a ring it is Mat_3(Z/2), so it is unital.
    MORITA_BLOCKS = {(0, 0): (2, 2, 2, 2), (0, 1): (2, 2), (1, 0): (2, 2),
                     (1, 1): (2,)}

    def slots(self):
        return [(kind, "%s rank %d over Z/%s" % (ring, r, n or "2|3|4"))
                for kind, ring, r, n in self.SLOTS]

    def setup(self, lib, seed, workdir):
        rings, flat = {}, {}
        for r in (2, 3, 4):
            for n in (2, 3, 4):
                rank, n, blocks, tables = mat_spec(r, n)
                rings[("mat", r, n)] = (lib.rings.PeirceRing(
                    rank, n, {ij: lib.abelian.FinAbGroup(o)
                              for ij, o in blocks.items()}, tables), blocks)
                flat[(r, n)] = lib.rings.FinRing.matrix_ring(
                    lib.rings.FinRing.zmod(n), r)
        rings[("morita", 2, 2)] = (lib.corpus.morita_entry().ring,
                                   self.MORITA_BLOCKS)
        for r in (2, 4):
            rings[("zero", r, 2)] = (lib.corpus.zero_entry(r, 2).ring,
                                     {(i, j): (2,) for i in range(r)
                                      for j in range(r)})
        return {"lib": lib, "seed": seed, "rings": rings, "flat": flat}

    def round(self, state, index):
        lib, seed = state["lib"], state["seed"]
        rng = _rng(seed, self.name, index)
        ops = []
        for kind, ring, r, n in self.SLOTS:
            n = n or rng.choice((2, 3, 4))
            if kind == "quasi_inverse":
                x = [rng.randrange(n) for _ in range(r * r)]
                ops.append(_quasi_inverse_op(lib, state["flat"][(r, n)],
                                             r, n, x))
                continue
            R, blocks = state["rings"][(ring, r, n)]
            ops.append(_STRUCTURE_OPS[kind](lib, R, blocks, ring,
                                            "%s%d z%d" % (ring, r, n),
                                            self.caps[kind]))
        rng.shuffle(ops)
        return ops


def _dim(blocks):
    return sum(len(o) for o in blocks.values())


def _steinberg_op(lib, R, blocks, ring, label, cap):
    """Every relation holds in an associative ring.  The count of checked
    tuples follows from the block orders: pairs for additivity, nonzero
    pairs for commuting blocks, pairs for composable blocks, and triples of
    generator letters (a generator and its negative if different)."""
    rank = max(i for i, _ in blocks) + 1
    off = [(i, j) for i in range(rank) for j in range(rank) if i != j]
    size = {ij: _order(blocks[ij]) for ij in blocks}
    letters = sum(1 if d == 2 else 2 for ij in off for d in blocks[ij])
    count = sum(size[ij] ** 2 for ij in off)
    count += sum((size[(i, j)] - 1) * (size[(k, m)] - 1)
                 for (i, j) in off for (k, m) in off if j != k and i != m)
    count += sum(size[(i, j)] * size[(j, k)] for (i, j) in off
                 for k in range(rank) if k not in (i, j))
    count += letters ** 3
    return Op("steinberg", label, count,
              lambda: lib.glgroup.verify_steinberg(R),
              lambda out: not _raised(out) and out.ok
              and out.checked == count)


def _elementary_op(lib, R, blocks, ring, label, cap):
    """|E_r(Z/n)| = |SL_r(Z/n)| from the order formula."""
    rank, n = R.rank, R.modulus
    want = known.sl_order(rank, n)
    cost = _order(o for orders in blocks.values() for o in orders)
    return Op("elementary", label, cost,
              lambda: lib.glgroup.elementary_subgroup(R, size_bound=cap),
              lambda out: not _raised(out) and len(out) == want)


def _perfectness_op(lib, R, blocks, ring, label, cap):
    """A matrix ring of rank >= 3 is perfect, no nontrivial unitriangular
    element is central, and conjugation tells the units apart."""
    upper = _order(o for (i, j), orders in blocks.items() if i < j
                   for o in orders)
    return Op("perfectness", label, upper,
              lambda: lib.glgroup.perfectness_and_center(R),
              lambda out: not _raised(out) and out.perfect
              and not out.central_violations
              and out.action_injective is True and out.upper_size == upper)


def _quasi_inverse_op(lib, F, r, n, x):
    """x is quasi-invertible exactly when I + X is invertible, and then
    its quasi-inverse is (I + X)^-1 - I; plain modular Gauss-Jordan."""
    X = [x[i * r:(i + 1) * r] for i in range(r)]
    inv = known.mat_inverse_mod(
        [[X[i][j] + (i == j) for j in range(r)] for i in range(r)], n)
    want = None if inv is None else tuple(
        (inv[i][j] - (i == j)) % n for i in range(r) for j in range(r))

    def check(out):
        if want is None:
            return isinstance(out, lib.errors.NotQuasiInvertible)
        return not _raised(out) and tuple(out) == want
    return Op("quasi_inverse", "mat%d z%d" % (r, n), (r * r) ** 2,
              lambda: lib.glgroup.quasi_inverse(F, tuple(x)), check)


def _find_unit_op(lib, R, blocks, ring, label, cap):
    """The identity matrix (1 in every diagonal block) for matrix rings,
    none for the zero ring."""
    rank = R.rank
    want = None if ring == "zero" else tuple(
        1 if i == j else 0 for i in range(rank) for j in range(rank))
    d = _dim(blocks)
    return Op("find_unit", label, 2 * d * d * d,
              lambda: lib.rings.find_unit(R.as_finring()),
              lambda out: not _raised(out) and (
                  out is None if want is None else tuple(out) == want))


def _predicates_op(lib, R, blocks, ring, label, cap):
    """Unital rings are idempotent, firm and reduced; the zero ring is
    none of them."""
    want = ring != "zero"
    d = _dim(blocks)
    return Op("predicates", label, d * d,
              lambda: lib.rings.check_predicates(R),
              lambda out: not _raised(out) and out.idempotent is want
              and out.firm is want and out.reduced is want)


def _universal_op(lib, R, blocks, ring, label, cap):
    """A firm ring is its own universal firm ring: same rank, same block
    orders."""
    want = {ij: _order(o) for ij, o in blocks.items()}
    d = _dim(blocks)

    def check(out):
        if _raised(out):
            return False
        T, _can = out
        return {ij: G.order for ij, G in T.blocks.items()} == want
    return Op("universal_ring", label, d * d,
              lambda: lib.rings.universal_ring(R), check)


def _collapse_op(lib, R, blocks, ring, label, cap):
    """Merging the last two indices: block (a, b) of the result has the
    product of the orders of the blocks it merges."""
    rank = R.rank
    last = rank - 2

    def part(t):
        return [t] if t < last else [last, last + 1]
    want = {(a, b): _order(_order(blocks[(i, j)]) for i in part(a)
                           for j in part(b))
            for a in range(rank - 1) for b in range(rank - 1)}
    d = _dim(blocks)
    return Op("collapse_rank", label, d * d,
              lambda: lib.rings.collapse_rank(R),
              lambda out: not _raised(out) and out.rank == rank - 1
              and {ij: G.order for ij, G in out.blocks.items()} == want)


def _patterns_op(lib, R, blocks, ring, label, cap):
    """All fifteen index patterns associate, over every generator triple."""
    rank = R.rank
    dims = {ij: len(o) for ij, o in blocks.items()}
    triples = sum(dims[(i, j)] * dims[(j, k)] * dims[(k, m)]
                  for i in range(rank) for j in range(rank)
                  for k in range(rank) for m in range(rank))
    return Op("patterns", label, triples,
              lambda: lib.coordinatize.verify_associativity_patterns(R),
              lambda out: not _raised(out) and out.ok
              and len(out.patterns) == 15
              and sum(p["checked"] for p in out.patterns.values())
              == triples)


_STRUCTURE_OPS = {
    "steinberg": _steinberg_op, "elementary": _elementary_op,
    "perfectness": _perfectness_op, "find_unit": _find_unit_op,
    "predicates": _predicates_op, "universal_ring": _universal_op,
    "collapse_rank": _collapse_op, "patterns": _patterns_op,
}

WORKLOADS = {w.name: w for w in (Roundtrip(), Lattice(), Structure())}
