"""Finite nonunital rings and their Peirce-style block decompositions.

A `FinRing` is a finite abelian group with a biadditive, associative
multiplication given by structure constants on generators.  A `PeirceRing`
is the block form: an l x l grid of abelian groups R_ij with multiplications
R_ij x R_jk -> R_ik (products with mismatched inner index vanish).  Both are
algebras over Z/modulus, which for additive groups of matching exponent is
no extra structure, just a recorded scalar ring.

Everything is checked at construction by default: structure constants must
respect generator orders (that is exactly biadditive well-definedness) and
associativity is verified on all generator triples, which is enough by
biadditivity.  `FinRing.matrix_ring`, `mat_ring` and `regroup` skip the
associativity walk, which could find nothing there: matrices over a checked
base ring associate, and `regroup` keeps the multiplication and the flat
group of its input and only merges block indices.
"""

from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, product
from math import gcd, lcm

from .abelian import (AbHom, DirectSum, FinAbGroup, Subgroup, TensorGroup,
                      induced_map, induces_isomorphism, quotient)
from .errors import (BlockMismatch, BoundExceeded, InternalAlarm,
                     ModuleNotFirm, NotIdempotent, NotIdempotentFamily,
                     NotWellDefined, PairingNotSurjective, PreconditionFailed,
                     RankTooSmall)

# The largest rank accepted from a file header or a build command.  The
# checks on a block ring cost about rank^4: on mat_ring(16, Z/2) `check`
# takes 1.1-1.2 s, a firm roundtrip 6-7 s and a reduced one 2.4-3.4 s as a
# cold process (two-core Xeon, Python 3.11), and on a rank-60 file with
# empty blocks `check` takes 16 s.  `build grouped` merges the blocks of
# mat_ring(size, Z/n) through `regroup`, so it costs what the size^2 blocks
# cost: with one-index parts 0.13-0.16 s at size 12 and 0.17-0.28 s at
# size 16.
MAX_RANK = 16


def check_rank(rank, what="rank"):
    """Raise BoundExceeded if `rank` is above MAX_RANK.

    >>> check_rank(17)
    Traceback (most recent call last):
    ...
    rootring.errors.BoundExceeded: rank 17 exceeds the rank cap of 16
    """
    if rank > MAX_RANK:
        raise BoundExceeded("%s %d exceeds the rank cap of %d"
                            % (what, rank, MAX_RANK))


class Table(dict):
    """Structure constants {(a, b): v}, v the reduced nonzero product of
    left generator a and right generator b, with the row index
    rows[a] = [(b, v), ...].  The constructor reduces a raw table, drops
    zero products, and checks generator indices and the order
    compatibility  ord(a) * v == 0 == ord(b) * v  that biadditive
    well-definedness requires.

    >>> G = FinAbGroup([4])
    >>> t = Table({(0, 0): (6,)}, G, G, G)
    >>> t, t.rows
    ({(0, 0): (2,)}, {0: [(0, (2,))]})
    """

    __slots__ = ("rows",)

    def __init__(self, table, left, right, target, what="structure table"):
        super().__init__()
        rows = {}
        for (a, b), v in table.items():
            if not (0 <= a < left.dim and 0 <= b < right.dim):
                raise ValueError("%s has out-of-range generator pair (%d, %d)"
                                 % (what, a, b))
            v = target.reduce(v)
            if not any(v):
                continue
            d = gcd(left.orders[a], right.orders[b])
            if any(target.scale(d, v)):
                raise ValueError(
                    "%s value at (%d, %d) is not killed by gcd of the "
                    "generator orders" % (what, a, b))
            self[(a, b)] = v
            rows.setdefault(a, []).append((b, v))
        self.rows = rows

    @classmethod
    def from_checked(cls, entries):
        """The Table of ((a, b), v) entries, in their order, that are
        already reduced, nonzero and order-checked: nothing is re-checked."""
        out = cls({}, None, None, None)
        for (a, b), v in entries:
            out[(a, b)] = v
            out.rows.setdefault(a, []).append((b, v))
        return out


# every missing table: the zero product (an empty table needs no groups)
ZERO_TABLE = Table({}, None, None, None)


def bilinear_apply(table, x, y, target):
    """Evaluate a structure table on two coordinate vectors.

    Walks the nonzero coordinates a of x, the row of a in the table and,
    for each (b, v) there, the coordinate y[b]: the cost is the support of
    x plus the table entries in its rows, not the whole table.  A single
    term with coefficient 1, such as a product of two generators, returns
    its stored value, which is already reduced.

    >>> G = FinAbGroup([4, 4])
    >>> t = Table({(0, 1): (1, 0), (1, 1): (0, 3)}, G, G, G)
    >>> bilinear_apply(t, (1, 0), (0, 1), G)
    (1, 0)
    >>> bilinear_apply(t, (1, 2), (0, 3), G)
    (3, 2)
    """
    rows = table.rows
    terms = []
    for a in compress(range(len(x)), x):
        row = rows.get(a)
        if row is not None:
            c = x[a]
            for b, v in row:
                d = y[b]
                if d:
                    terms.append((c * d, v))
    if not terms:
        return target.zero
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1]
    acc = [0] * target.dim
    for c, v in terms:
        for i, w in enumerate(v):
            acc[i] += c * w
    return target.reduce(acc)


def nonassociative_triples(quads, block, mul):
    """Yield ((i, j, k, l), (a, b, c)) for every generator triple on which
    (xy)z and x(yz) differ.

    For each block-index quadruple in `quads`, x, y and z run over the
    generators of block(i, j), block(j, k) and block(k, l), and
    mul(i, j, k, x, y) is the product block(i, j) x block(j, k) ->
    block(i, k).  Generator triples decide associativity by biadditivity.
    Rings, block rings, commutator data and module actions all check
    associativity through this one walker.  Products of generator pairs
    are computed once per index triple, since quadruples share them.

    Cost: where xy = 0 the left side (xy)z is 0 for every z, so a triple
    can fail only if yz != 0; the walk visits just those c and computes
    only x(yz) there.  Skipped triples have both sides zero, and the
    visited ones keep the order (a, b, c), so the failures come out exactly
    as a full walk yields them.  On the flat Mat_s(Z/n) that is about
    2 s^5 triples instead of s^6.
    """
    gens = {}
    pairs = {}

    def gens_of(i, j):
        if (i, j) not in gens:
            gens[(i, j)] = block(i, j).gens()
        return gens[(i, j)]

    def pair_products(i, j, k):
        """The products of generator pairs and, per row, the columns where
        the product is nonzero."""
        if (i, j, k) not in pairs:
            prods = [[mul(i, j, k, x, y) for y in gens_of(j, k)]
                     for x in gens_of(i, j)]
            pairs[(i, j, k)] = prods, [[c for c, v in enumerate(row) if any(v)]
                                       for row in prods]
        return pairs[(i, j, k)]

    for i, j, k, l in quads:
        xs, zs = gens_of(i, j), gens_of(k, l)
        if not (xs and zs and gens_of(j, k)):
            continue
        xy, _ = pair_products(i, j, k)
        yz, yz_support = pair_products(j, k, l)
        for a, x in enumerate(xs):
            for b, xy_ab in enumerate(xy[a]):
                yz_b = yz[b]
                if any(xy_ab):
                    for c, z in enumerate(zs):
                        if mul(i, k, l, xy_ab, z) != mul(i, j, l, x, yz_b[c]):
                            yield (i, j, k, l), (a, b, c)
                    continue
                # (xy)z = 0 for every z: only the c with yz != 0 can fail
                for c in yz_support[b]:
                    if any(mul(i, j, l, x, yz_b[c])):
                        yield (i, j, k, l), (a, b, c)


class FinRing:
    """Finite ring (not necessarily unital) on a FinAbGroup.

    >>> R = FinRing.zmod(6)
    >>> R.mul((4,), (5,))
    (2,)
    """

    __slots__ = ("additive", "table", "unit", "modulus")

    def __init__(self, additive, table, unit=None, modulus=None, check=True):
        self.additive = additive
        self.table = Table(table, additive, additive, additive)
        self.unit = additive.reduce(unit) if unit is not None else None
        if modulus is None:
            modulus = additive.exponent
        if additive.exponent > 1 and modulus % additive.exponent:
            raise ValueError("additive exponent %d does not divide the "
                             "scalar modulus %d" % (additive.exponent, modulus))
        self.modulus = modulus
        if check:
            bad = self.associativity_failures()
            if bad:
                raise ValueError("multiplication is not associative, "
                                 "e.g. on generators %r" % (bad[0],))
            if self.unit is not None:
                for g in additive.gens():
                    if self.mul(self.unit, g) != g or self.mul(g, self.unit) != g:
                        raise ValueError("claimed unit is not a unit")

    def mul(self, x, y):
        return bilinear_apply(self.table, x, y, self.additive)

    def associativity_failures(self, limit=1):
        bad = nonassociative_triples([(0, 0, 0, 0)],
                                     lambda i, j: self.additive,
                                     lambda i, j, k, x, y: self.mul(x, y))
        return [abc for _quad, abc in islice(bad, limit)]

    @classmethod
    def zmod(cls, n):
        if n < 1:
            raise ValueError("modulus must be positive")
        G = FinAbGroup([n])
        if n == 1:
            return cls(G, {}, unit=(), modulus=1)
        return cls(G, {(0, 0): (1,)}, unit=(1,), modulus=n)

    @classmethod
    def matrix_ring(cls, base, size):
        """size x size matrices over a checked FinRing: the flat view of
        mat_ring(size, base), with the diagonal unit if the base has one."""
        R = mat_ring(size, base)
        unit = None if base.unit is None else R.additive.sum(
            R.embed(r, r, base.unit) for r in range(size))
        # unchecked for mat_ring's reason; the diagonal of a unit is a unit
        return cls(R.additive, R._flat, unit=unit, modulus=base.modulus,
                   check=False)

    @classmethod
    def direct_product(cls, A, B):
        ds = DirectSum([A.additive, B.additive])
        table = {}
        for (a, b), v in A.table.items():
            table[(a, b)] = ds.embed(0, v)
        off = A.additive.dim
        for (a, b), v in B.table.items():
            table[(a + off, b + off)] = ds.embed(1, v)
        unit = None
        if A.unit is not None and B.unit is not None:
            unit = ds.group.add(ds.embed(0, A.unit), ds.embed(1, B.unit))
        return cls(ds.group, table, unit=unit,
                   modulus=lcm(A.modulus, B.modulus))

    def __repr__(self):
        return "FinRing(order=%d, modulus=%d)" % (self.additive.order,
                                                  self.modulus)


def find_unit(ring):
    """Solve for a two-sided unit; returns the element or None."""
    G = ring.additive
    if G.dim == 0:
        return ()
    # e*g == g and g*e == g for every generator g, stacked in one sum
    ds = DirectSum([G] * (2 * G.dim))
    f = AbHom(G, ds.group,
              [ds.assemble([v for g in G.gens()
                            for v in (ring.mul(x, g), ring.mul(g, x))])
               for x in G.gens()])
    e = f.preimage(ds.assemble([g for g in G.gens() for _ in (0, 1)]))
    if e is None:
        return None
    for g in G.gens():
        if ring.mul(e, g) != g or ring.mul(g, e) != g:
            return None
    return e


class PeirceRing:
    """Block-decomposed finite ring.

    blocks[(i, j)] is the additive group of the (i, j) block; tables[(i, j, k)]
    holds structure constants of R_ij x R_jk -> R_ik on generators.  Missing
    blocks are trivial and missing tables are zero.  Element vectors of the
    total ring are concatenations of block vectors in row-major block order.
    """

    __slots__ = ("rank", "modulus", "blocks", "tables", "ds", "_slot",
                 "_flat_table")

    def __init__(self, rank, modulus, blocks, tables, check=True):
        if rank < 1:
            raise RankTooSmall("rank must be at least 1")
        self.rank = rank
        self.modulus = modulus
        for key in blocks:
            i, j = key
            if not (0 <= i < rank and 0 <= j < rank):
                raise ValueError("block key out of range: %r" % (key,))
        self.blocks = {}
        for i in range(rank):
            for j in range(rank):
                G = blocks.get((i, j), FinAbGroup([]))
                if G.exponent > 1 and modulus % G.exponent:
                    raise ValueError(
                        "block (%d, %d) exponent %d does not divide the "
                        "scalar modulus %d" % (i, j, G.exponent, modulus))
                self.blocks[(i, j)] = G
        order = [(i, j) for i in range(rank) for j in range(rank)]
        self._slot = {ij: t for t, ij in enumerate(order)}
        self.ds = DirectSum([self.blocks[ij] for ij in order])
        self.tables = {}
        for (i, j, k), tab in tables.items():
            if not (0 <= i < rank and 0 <= j < rank and 0 <= k < rank):
                raise ValueError("table key out of range: %r" % ((i, j, k),))
            clean = Table(tab, self.blocks[(i, j)], self.blocks[(j, k)],
                          self.blocks[(i, k)],
                          what="table (%d,%d,%d)" % (i, j, k))
            if clean:
                self.tables[(i, j, k)] = clean
        self._flat_table = None
        if check:
            bad = self.associativity_failures()
            if bad:
                raise ValueError("block multiplication is not associative, "
                                 "e.g. at %r" % (bad[0],))

    @property
    def _flat(self):
        """The table on total coordinates, built on first use from the
        entries of the block tables, placed at the blocks' offsets.  The
        block tables reduced and order-checked them already."""
        if self._flat_table is None:
            self._flat_table = Table.from_checked(self._flat_entries())
        return self._flat_table

    def _flat_entries(self):
        offsets, dim = self.ds.offsets, self.ds.group.dim
        for (i, j, k), tab in self.tables.items():
            off1 = offsets[self._slot[(i, j)]]
            off2 = offsets[self._slot[(j, k)]]
            at = offsets[self._slot[(i, k)]]
            pad = (0,) * at, (0,) * (dim - at - self.blocks[(i, k)].dim)
            for (a, b), v in tab.items():
                yield (off1 + a, off2 + b), pad[0] + v + pad[1]

    # -- total-ring view ----------------------------------------------------

    @property
    def additive(self):
        return self.ds.group

    def mul(self, x, y):
        return bilinear_apply(self._flat, x, y, self.ds.group)

    def as_finring(self):
        return FinRing(self.ds.group, self._flat, modulus=self.modulus,
                       check=False)

    # -- block plumbing ------------------------------------------------------

    def block(self, i, j):
        return self.blocks[(i, j)]

    def embed(self, i, j, vec):
        return self.ds.embed(self._slot[(i, j)], vec)

    def project(self, i, j, vec):
        return self.ds.project(self._slot[(i, j)], vec)

    def block_mul(self, i, j, k, x, y):
        """Product R_ij x R_jk -> R_ik on block coordinate vectors."""
        return bilinear_apply(self.tables.get((i, j, k), ZERO_TABLE), x, y,
                              self.blocks[(i, k)])

    def associativity_failures(self, limit=1):
        bad = nonassociative_triples(product(range(self.rank), repeat=4),
                                     self.block, self.block_mul)
        return [quad + abc for quad, abc in islice(bad, limit)]

    def __repr__(self):
        sizes = [[self.blocks[(i, j)].order for j in range(self.rank)]
                 for i in range(self.rank)]
        return "PeirceRing(rank=%d, modulus=%d, block_orders=%r)" % (
            self.rank, self.modulus, sizes)


def mat_ring(rank, base):
    """Matrix ring of the given rank over a FinRing, in block form: every
    block is the base additive group and every table is the base table.

    >>> R = mat_ring(2, FinRing.zmod(2))
    >>> R.block(0, 1).orders
    (2,)
    """
    blocks = {ij: base.additive for ij in product(range(rank), repeat=2)}
    tables = {ijk: base.table for ijk in product(range(rank), repeat=3)
              if base.table}
    # matrices over an associative ring associate and the base was checked
    # when it was built: a walk over the rank^4 quadruples would repeat that
    return PeirceRing(rank, base.modulus, blocks, tables, check=False)


def regroup(R, partition):
    """The same ring graded by merged indices: part a of `partition`, a
    list of R's block indices (the parts cover each index once), becomes
    index a.  Block (a, b) is the direct sum of the R_ij, i in part a and
    j in part b, taken in R's flat order (row-major over sorted parts).

    >>> S = regroup(mat_ring(3, FinRing.zmod(2)), [[2, 0], [1]])
    >>> S.block(0, 0).orders, S.block(0, 1).orders
    ((2, 2, 2, 2), (2, 2))
    """
    parts = [sorted(part) for part in partition]
    where = {}
    for a, part in enumerate(parts):
        for i in part:
            if i in where or i not in range(R.rank):
                raise NotIdempotentFamily("index %d is %s" % (
                    i, "in two parts" if i in where else "out of range"))
            where[i] = a
    for i in range(R.rank):
        if i not in where:
            raise NotIdempotentFamily("partition misses index %d" % i)
    blocks = {}
    cell = {}    # (i, j) -> (the direct sum holding R_ij, its place there)
    for a, pa in enumerate(parts):
        for b, pb in enumerate(parts):
            cells = [(i, j) for i in pa for j in pb]
            ds = DirectSum([R.blocks[ij] for ij in cells])
            blocks[(a, b)] = ds.group
            for t, ij in enumerate(cells):
                cell[ij] = ds, t
    tables = {}
    for (i, j, k), tab in R.tables.items():
        (ds1, t1), (ds2, t2) = cell[(i, j)], cell[(j, k)]
        ds3, t3 = cell[(i, k)]
        off1, off2 = ds1.offsets[t1], ds2.offsets[t2]
        dest = tables.setdefault((where[i], where[j], where[k]), {})
        for (x, y), v in tab.items():
            dest[(off1 + x, off2 + y)] = ds3.embed(t3, v)
    # the same multiplication on the same flat group, only graded more
    # coarsely: the walk could find nothing that R does not already have
    return PeirceRing(len(parts), R.modulus, blocks, tables, check=False)


def peirce_from_idempotents(R, idems):
    """Decompose a unital FinRing along a complete orthogonal idempotent
    family.  Returns (PeirceRing, charts) where charts[(i, j)] maps block
    coordinates back into R (see GroupChart)."""
    if R.unit is None:
        raise PreconditionFailed("ring must be unital")
    G = R.additive
    idems = [G.reduce(e) for e in idems]
    for t, e in enumerate(idems):
        if R.mul(e, e) != e:
            raise NotIdempotentFamily("element %d is not idempotent" % t)
    for s, e in enumerate(idems):
        for t, f in enumerate(idems):
            if s != t and any(R.mul(e, f)):
                raise NotIdempotentFamily(
                    "elements %d and %d are not orthogonal" % (s, t))
    if G.sum(idems) != R.unit:
        raise NotIdempotentFamily("family does not sum to the unit")

    rank = len(idems)
    charts = {}
    blocks = {}
    for i in range(rank):
        for j in range(rank):
            gens = [R.mul(idems[i], R.mul(g, idems[j])) for g in G.gens()]
            chart = Subgroup(G, gens).as_group()
            charts[(i, j)] = chart
            blocks[(i, j)] = chart.group

    total = 1
    for ij in blocks:
        total *= blocks[ij].order
    if total != G.order:
        raise InternalAlarm("block orders do not multiply up to |R|")

    tables = {}
    for i in range(rank):
        for j in range(rank):
            ci = charts[(i, j)]
            for k in range(rank):
                ck = charts[(j, k)]
                tab = {}
                for a in range(blocks[(i, j)].dim):
                    xa = ci.incl(blocks[(i, j)].gen(a))
                    for b in range(blocks[(j, k)].dim):
                        yb = ck.incl(blocks[(j, k)].gen(b))
                        tab[(a, b)] = charts[(i, k)].coords(R.mul(xa, yb))
                tables[(i, j, k)] = tab
    ring = PeirceRing(rank, R.modulus, blocks, tables)
    return ring, charts


# -- modules and balanced tensor products -------------------------------------


def _first_action_failure(module, quad):
    """The first generator triple on which a module action fails to
    associate, or None.  The module group is block (0, 1) or (1, 0) and
    the ring block (0, 0) or (1, 1) of a two-index grid, so the right
    action checks quad (0, 1, 1, 1) and the left one (0, 0, 0, 1)."""
    ring = module.ring
    bad = nonassociative_triples(
        [quad], lambda i, j: module.group if i != j else ring.additive,
        lambda i, j, k, x, y: ring.mul(x, y) if i == k else module.act(x, y))
    return next((abc for _quad, abc in bad), None)


class RightModule:
    """Right module over a FinRing, with a generator-pair action table."""

    __slots__ = ("group", "ring", "table")

    def __init__(self, group, ring, table, check=True):
        self.group = group
        self.ring = ring
        self.table = Table(table, group, ring.additive, group,
                           what="right action")
        if check:
            bad = _first_action_failure(self, (0, 1, 1, 1))
            if bad:
                raise ValueError("right action not associative at %r"
                                 % (bad,))

    def act(self, m, s):
        return bilinear_apply(self.table, m, s, self.group)


class LeftModule:
    """Left module over a FinRing, with a generator-pair action table."""

    __slots__ = ("group", "ring", "table")

    def __init__(self, group, ring, table, check=True):
        self.group = group
        self.ring = ring
        self.table = Table(table, ring.additive, group, group,
                           what="left action")
        if check:
            bad = _first_action_failure(self, (0, 0, 0, 1))
            if bad:
                raise ValueError("left action not associative at %r"
                                 % (bad,))

    def act(self, s, n):
        return bilinear_apply(self.table, s, n, self.group)


class RelTensor:
    """The balanced tensor: the direct sum of the Z-tensors L_p (x) R_p over
    the `summands` {p: (L_p, R_p)}, in their order, modulo associator
    relations.

    A relation (p, q, mid, xy, yz) identifies x (x) yz in summand p with
    xy (x) z in summand q, for x in L_p, y in `mid` and z in R_q, where
    xy(x, y) lies in L_q and yz(y, z) in R_p.  By biadditivity generator
    triples (x, y, z), in lexicographic order, generate all of them.
    `pairs[(p, q)]` lists their pairs of tensors and `relations` is the
    subgroup of `ambient` that their differences span.  Balanced tensors
    over a ring, the blocks of the universal ring, the diagonal blocks of
    the firm rebuild and every firmness check are built here.

    The quotient `quot` is presented on first use, so a check that asks
    only `induces_isomorphism(B.hom(...), B.relations)` presents none.

    >>> Z4 = FinRing.zmod(4)
    >>> G = Z4.additive
    >>> B = RelTensor({0: (G, G)}, [(0, 0, G, Z4.mul, Z4.mul)])
    >>> B.quot.group.invariant_factors()
    (4,)
    """

    __slots__ = ("keys", "tensors", "ambient", "pairs", "relations", "_quot")

    def __init__(self, summands, relations):
        tensors = {p: TensorGroup(L, R) for p, (L, R) in summands.items()}
        pairs = {}
        for p, q, mid, xy, yz in relations:
            Tp, Tq = tensors[p], tensors[q]
            ys, zs = mid.gens(), Tq.right.gens()
            yzs = [[yz(y, z) for z in zs] for y in ys]
            out = pairs.setdefault((p, q), [])
            for x in Tp.left.gens():
                for y, yz_row in zip(ys, yzs):
                    xy_val = xy(x, y)
                    out += [(Tp.pure(x, v), Tq.pure(xy_val, z))
                            for z, v in zip(zs, yz_row)]
        self._build(tensors, pairs)

    def _build(self, tensors, pairs):
        self.keys = tuple(tensors)
        self.tensors = tensors
        self.ambient = amb = DirectSum([T.group for T in tensors.values()])
        self.pairs = pairs
        dim = amb.group.dim
        rows = []
        for (p, q), ps in pairs.items():
            at, to = amb.offsets[self.pos(p)], amb.offsets[self.pos(q)]
            for a, b in ps:
                row = [0] * dim
                row[at:at + len(a)] = a
                for t, v in enumerate(b, to):
                    row[t] -= v
                rows.append(row)
        self.relations = Subgroup(amb.group, rows)
        self._quot = None

    def restrict(self, keys):
        """The balanced tensor on the summands `keys`, in that order, and
        the relations among them, reusing the pairs built here."""
        out = object.__new__(RelTensor)
        out._build({p: self.tensors[p] for p in keys},
                   {pq: ps for pq, ps in self.pairs.items()
                    if pq[0] in keys and pq[1] in keys})
        return out

    def pos(self, p):
        """The place of summand p in the direct sum."""
        return self.keys.index(p)

    @property
    def quot(self):
        if self._quot is None:
            self._quot = quotient(self.ambient.group, self.relations)
        return self._quot

    def pure(self, p, x, y):
        """Quotient coordinates of the tensor x (x) y of summand p."""
        return self.quot.proj(self.ambient.embed(self.pos(p),
                                                 self.tensors[p].pure(x, y)))

    def hom(self, target, muls):
        """The homomorphism ambient -> target sending x (x) y in summand p
        to muls[p](x, y), for biadditive maps muls[p]."""
        return AbHom(self.ambient.group, target,
                     [v for p in self.keys
                      for v in self.tensors[p].values(muls[p])])

    def induced_hom(self, target, muls):
        """`hom` factored through the quotient; NotWellDefined unless it
        kills the relations."""
        return induced_map(self.hom(target, muls), self.quot)


# -- predicates ---------------------------------------------------------------


@dataclass
class PredicateReport:
    idempotent: bool
    idempotent_witness: object
    firm: bool
    firm_witness: object
    reduced: bool
    reduced_witness: object


def is_idempotent(R):
    """R_ij R_jk = R_ik for all i, j, k; returns (ok, witness)."""
    l = R.rank
    for i in range(l):
        for j in range(l):
            Gij = R.blocks[(i, j)]
            for k in range(l):
                Gjk = R.blocks[(j, k)]
                prods = [R.block_mul(i, j, k, ga, gb)
                         for ga in Gij.gens() for gb in Gjk.gens()]
                if not Subgroup(R.blocks[(i, k)], prods).is_full():
                    return False, (i, j, k)
    return True, None


def is_firm(R):
    """All balanced pairing maps R_ij (x)_{R_jj} R_jk -> R_ik are
    isomorphisms; returns (ok, witness), the first failing (i, j, k).

    The balanced tensor is the one-summand `RelTensor` on R_ij (x) R_jk
    with the associator relations through R_jj.  The product must kill
    them, or NotWellDefined is raised with the witness ((i, j, k), row), row
    the first Hermite row of the relations that it does not kill.  The
    pairing map is then an isomorphism iff `induces_isomorphism` says so,
    and no quotient is presented.
    """
    l = R.rank
    for i, j, k in product(range(l), repeat=3):
        B = RelTensor({j: (R.blocks[(i, j)], R.blocks[(j, k)])},
                      [(j, j, R.blocks[(j, j)], partial(R.block_mul, i, j, j),
                        partial(R.block_mul, j, j, k))])
        f = B.hom(R.blocks[(i, k)], {j: partial(R.block_mul, i, j, k)})
        try:
            ok = induces_isomorphism(f, B.relations)
        except NotWellDefined as e:
            raise NotWellDefined(str(e), witness=((i, j, k), e.witness)) \
                from None
        if not ok:
            return False, (i, j, k)
    return True, None


def _annihilator_blocks(R):
    """{(i, j): the elements x of R_ij with x R = R x = 0}.

    x g lies in R_ik for g in R_jk and g x in R_kj for g in R_ki, so the
    products of a sum of block elements with one block generator land in
    distinct blocks, and the two-sided annihilator is the direct sum of one
    kernel per block: that of x |-> (x gens(R_jk), gens(R_ki) x for all k).
    """
    l = R.rank
    out = {}
    for (i, j), G in R.blocks.items():
        right = [(k, g) for k in range(l) for g in R.blocks[(j, k)].gens()]
        left = [(k, g) for k in range(l) for g in R.blocks[(k, i)].gens()]
        ds = DirectSum([R.blocks[(i, k)] for k, _g in right]
                       + [R.blocks[(k, j)] for k, _g in left])
        cols = [ds.assemble([R.block_mul(i, j, k, x, g) for k, g in right]
                            + [R.block_mul(k, i, j, g, x) for k, g in left])
                for x in G.gens()]
        out[(i, j)] = AbHom(G, ds.group, cols).kernel()
    return out


def two_sided_annihilator(R):
    """Subgroup of elements x with x R = R x = 0 (total coordinates)."""
    parts = _annihilator_blocks(R)
    return Subgroup(R.additive, [R.embed(i, j, v) for (i, j), ann in
                                 parts.items() for v in ann.basis()])


def _is_reduced_given(R, idempotent):
    """is_reduced(R) once idempotent = is_idempotent(R) is known."""
    ok, wit = idempotent
    if not ok:
        return False, ("not idempotent", wit)
    ann = two_sided_annihilator(R)
    if not ann.is_trivial():
        return False, ("annihilator element", ann.basis()[0])
    return True, None


def is_reduced(R):
    """Idempotent with trivial two-sided annihilator; returns (ok, witness)."""
    return _is_reduced_given(R, is_idempotent(R))


def check_predicates(R):
    idem = is_idempotent(R)
    return PredicateReport(*idem, *is_firm(R), *_is_reduced_given(R, idem))


# -- structural constructions -------------------------------------------------


class PeirceHom:
    """Blockwise homomorphism between PeirceRings of the same rank."""

    __slots__ = ("source", "target", "homs")

    def __init__(self, source, target, homs):
        if source.rank != target.rank:
            raise ValueError("rank mismatch")
        self.source = source
        self.target = target
        self.homs = {}
        for i in range(source.rank):
            for j in range(source.rank):
                h = homs[(i, j)]
                if h.source != source.blocks[(i, j)] or \
                        h.target != target.blocks[(i, j)]:
                    raise BlockMismatch("hom at block (%d, %d) has wrong "
                                        "source or target" % (i, j))
                self.homs[(i, j)] = h

    def apply(self, x):
        """Apply to a total-coordinate vector."""
        out = self.target.additive.zero
        for i in range(self.source.rank):
            for j in range(self.source.rank):
                part = self.homs[(i, j)](self.source.project(i, j, x))
                out = self.target.additive.add(
                    out, self.target.embed(i, j, part))
        return out

    def multiplicativity_failures(self, limit=1):
        """The first `limit` ((i, j, k), (a, b)) in lexicographic order at
        which f(xy) != f(x) f(y) for generators x, y of blocks (i, j) and
        (j, k).  Each block hom is applied to each generator once."""
        src, tgt, homs = self.source, self.target, self.homs
        images = {ij: [h(g) for g in src.blocks[ij].gens()]
                  for ij, h in homs.items()}
        bad = (((i, j, k), (a, b))
               for i, j, k in product(range(src.rank), repeat=3)
               for a, (x, fx) in enumerate(zip(src.blocks[(i, j)].gens(),
                                               images[(i, j)]))
               for b, (y, fy) in enumerate(zip(src.blocks[(j, k)].gens(),
                                               images[(j, k)]))
               if homs[(i, k)](src.block_mul(i, j, k, x, y))
               != tgt.block_mul(i, j, k, fx, fy))
        return list(islice(bad, limit))

    def is_ring_hom(self):
        return not self.multiplicativity_failures()

    def is_blockwise_iso(self):
        return all(h.is_isomorphism() for h in self.homs.values())


def collapse_rank(R):
    """Merge the last two block indices into one, keeping the underlying
    ring identical (see `regroup`)."""
    if R.rank < 2:
        raise RankTooSmall("need rank at least 2 to collapse")
    return regroup(R, [[i] for i in range(R.rank - 2)]
                   + [[R.rank - 2, R.rank - 1]])


def morita_ring(R, P, Q, pairing):
    """Two-by-two ring (S P; Q R) from a Morita-style context.

    R is a FinRing, P a RightModule and Q a LeftModule over it, and
    `pairing` a generator table for a map Q x P -> R that is R-linear on
    both sides and surjective.  S is P tensor_R Q.  The ring R and both
    modules must be firm (the balanced tensor against R restores them).
    """
    if P.ring is not R or Q.ring is not R:
        raise PreconditionFailed("modules must be over the given ring")
    pairing = Table(pairing, Q.group, P.group, R.additive, what="pairing")

    def pair(q, p):
        return bilinear_apply(pairing, q, p, R.additive)

    # R-linearity of the pairing on generators is associativity of the
    # triples (s, q, p) and (q, p, s) in the context ring, R at index 1
    grid = {(1, 1): R.additive, (1, 0): Q.group, (0, 1): P.group}
    muls = {(1, 1, 0): Q.act, (1, 0, 1): pair, (1, 1, 1): R.mul,
            (0, 1, 1): P.act}
    for quad, abc in nonassociative_triples(
            [(1, 1, 0, 1), (1, 0, 1, 1)], lambda i, j: grid[(i, j)],
            lambda i, j, k, x, y: muls[(i, j, k)](x, y)):
        raise PreconditionFailed("pairing is not %s R-linear at %r" % (
            "left" if quad == (1, 1, 0, 1) else "right", abc))
    if not Subgroup(R.additive,
                    [v for v in pairing.values()]).is_full():
        raise PairingNotSurjective("pairing values do not span R")

    for name, g in (("P", P.group), ("Q", Q.group)):
        if g.exponent > 1 and R.modulus % g.exponent:
            raise PreconditionFailed(
                "%s is not a module over Z/%d" % (name, R.modulus))

    # firmness of R and of both modules: the action induces an isomorphism
    # from the balanced tensor L (x)_R Rt onto the module
    G = R.additive

    def firm(L, Rt, xy, yz, act, target):
        B = RelTensor({0: (L, Rt)}, [(0, 0, G, xy, yz)])
        return induces_isomorphism(B.hom(target, {0: act}), B.relations)

    if not firm(G, G, R.mul, R.mul, R.mul, G):
        raise ModuleNotFirm("the coefficient ring is not firm")
    if not firm(P.group, G, P.act, R.mul, P.act, P.group):
        raise ModuleNotFirm("P tensor R -> P is not an isomorphism")
    if not firm(G, Q.group, R.mul, Q.act, Q.act, Q.group):
        raise ModuleNotFirm("R tensor Q -> Q is not an isomorphism")

    S = RelTensor({0: (P.group, Q.group)}, [(0, 0, G, P.act, Q.act)])
    SG = S.quot.group

    # an element u of S acts through the tensor coordinates of its section:
    # (p (x) q) p2 = p (q, p2), q2 (p (x) q) = (q2, p) q, and the product
    # (p (x) q) v is the tensor of (p (x) q) p2 and q2 over v = p2 (x) q2
    def s_times_p(u, p2):
        return S.hom(P.group, {0: lambda p, q: P.act(p, pair(q, p2))})(
            S.quot.section(u))

    def q_times_s(q2, u):
        return S.hom(Q.group, {0: lambda p, q: Q.act(pair(q2, p), q)})(
            S.quot.section(u))

    def s_times_s(u, v):
        return S.hom(SG, {0: lambda p, q: S.pure(0, s_times_p(u, p), q)})(
            S.quot.section(v))

    def table_from(fun, left_group, right_group):
        return {(a, b): fun(x, y) for a, x in enumerate(left_group.gens())
                for b, y in enumerate(right_group.gens())}

    blocks = {(0, 0): SG, (0, 1): P.group, (1, 0): Q.group, (1, 1): G}
    tables = {
        (0, 0, 0): table_from(s_times_s, SG, SG),
        (0, 0, 1): table_from(s_times_p, SG, P.group),
        (0, 1, 0): table_from(partial(S.pure, 0), P.group, Q.group),
        (0, 1, 1): dict(P.table),
        (1, 0, 0): table_from(q_times_s, Q.group, SG),
        (1, 0, 1): dict(pairing),
        (1, 1, 0): dict(Q.table),
        (1, 1, 1): dict(R.table),
    }
    return PeirceRing(2, R.modulus, blocks, tables)


def universal_ring(R):
    """Replace every block R_ij by the balanced tensor of the sum of the
    R_ik (x) R_kj over k, modulo x (x) yz = xy (x) z for y in every R_km,
    with the product (x (x) y)(x2 (x) y2) = x (x) (y x2) y2.  Returns (ring,
    hom) where hom is the canonical map back to R, x (x) y |-> xy.

    This is the tensor of row i with column j over all of R: R is
    idempotent, so x in R_im is a sum of products a b with b in R_km, and
    x (x) y = a (x) b y vanishes for y in R_nj, n != m.

    Requires R idempotent.  The result is always firm, and hom is a
    blockwise isomorphism exactly when R itself is firm.
    """
    ok, wit = is_idempotent(R)
    if not ok:
        raise NotIdempotent("ring is not idempotent at blocks %r" % (wit,))
    idx = range(R.rank)
    mul = R.block_mul
    tens = {(i, j): RelTensor(
        {k: (R.blocks[(i, k)], R.blocks[(k, j)]) for k in idx},
        [(k, m, R.blocks[(k, m)], partial(mul, i, k, m), partial(mul, k, m, j))
         for k in idx for m in idx]) for i in idx for j in idx}
    blocks = {ij: B.quot.group for ij, B in tens.items()}

    # the nonzero coordinates of the section of each generator, as
    # (coefficient, k, x, y) for the tensor x (x) y in summand k
    sections = {}
    for ij, B in tens.items():
        legs = [(k, T.left.gen(a), T.right.gen(b))
                for k, T in B.tensors.items() for a, b in T.pairs]
        sections[ij] = [[(c,) + legs[t] for t, c in
                         enumerate(B.quot.section(g)) if c]
                        for g in blocks[ij].gens()]

    tables = {}
    for i, j, n in product(idx, repeat=3):
        B = tens[(i, n)]
        amb = B.ambient
        tab = {}
        for a, us in enumerate(sections[(i, j)]):
            for b, vs in enumerate(sections[(j, n)]):
                acc = [0] * amb.group.dim
                for c1, k, x, y in us:
                    T, off = B.tensors[k], amb.offsets[B.pos(k)]
                    for c2, m, x2, y2 in vs:
                        w = mul(k, m, n, mul(k, j, m, y, x2), y2)
                        for t, v in enumerate(T.pure(x, w)):
                            acc[off + t] += c1 * c2 * v
                tab[(a, b)] = B.quot.proj(amb.group.reduce(acc))
        tables[(i, j, n)] = tab

    out = PeirceRing(R.rank, R.modulus, blocks, tables)
    homs = {(i, j): B.induced_hom(R.blocks[(i, j)],
                                  {k: partial(mul, i, k, j) for k in idx})
            for (i, j), B in tens.items()}
    return out, PeirceHom(out, R, homs)


def reduced_quotient(R):
    """Quotient by the two-sided annihilator, blockwise.  Returns
    (ring, hom) with hom the blockwise projection.  Requires R idempotent."""
    ok, wit = is_idempotent(R)
    if not ok:
        raise NotIdempotent("ring is not idempotent at blocks %r" % (wit,))
    l = R.rank
    quots = {ij: quotient(R.blocks[ij], ann)
             for ij, ann in _annihilator_blocks(R).items()}
    blocks = {ij: q.group for ij, q in quots.items()}

    tables = {}
    for i in range(l):
        for j in range(l):
            qij = quots[(i, j)]
            for k in range(l):
                qjk = quots[(j, k)]
                tab = {}
                for a in range(blocks[(i, j)].dim):
                    xa = qij.section(blocks[(i, j)].gen(a))
                    for b in range(blocks[(j, k)].dim):
                        yb = qjk.section(blocks[(j, k)].gen(b))
                        tab[(a, b)] = quots[(i, k)].proj(
                            R.block_mul(i, j, k, xa, yb))
                tables[(i, j, k)] = tab
    out = PeirceRing(l, R.modulus, blocks, tables)
    homs = {ij: quots[ij].proj for ij in quots}
    return out, PeirceHom(R, out, homs)
