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
biadditivity.
"""

from dataclasses import dataclass
from itertools import islice, product
from math import gcd, lcm

from .abelian import (AbHom, DirectSum, FinAbGroup, Subgroup, TensorGroup,
                      induced_map, quotient)
from .errors import (BlockMismatch, BoundExceeded, InternalAlarm,
                     ModuleNotFirm, NotIdempotent, NotIdempotentFamily,
                     PairingNotSurjective, PreconditionFailed, RankTooSmall)

# The largest rank accepted from a file header or a build command.  The
# checks cost about rank^4: on mat_ring(16, Z/2) `check` takes 2 s and a
# firm roundtrip 12 s, and on a rank-60 file with empty blocks `check`
# takes 16 s.
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


def bilinear_apply(table, x, y, target):
    """Evaluate a generator-pair structure table on two coordinate vectors."""
    acc = [0] * target.dim
    for (a, b), v in table.items():
        c = x[a] * y[b]
        if c:
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
    """
    gens = {}
    pairs = {}

    def gens_of(i, j):
        if (i, j) not in gens:
            gens[(i, j)] = block(i, j).gens()
        return gens[(i, j)]

    def pair_products(i, j, k):
        if (i, j, k) not in pairs:
            pairs[(i, j, k)] = [[mul(i, j, k, x, y) for y in gens_of(j, k)]
                                for x in gens_of(i, j)]
        return pairs[(i, j, k)]

    for i, j, k, l in quads:
        xs, zs = gens_of(i, j), gens_of(k, l)
        if not (xs and zs and gens_of(j, k)):
            continue
        xy, yz = pair_products(i, j, k), pair_products(j, k, l)
        for a, x in enumerate(xs):
            for b, xy_ab in enumerate(xy[a]):
                yz_b = yz[b]
                for c, z in enumerate(zs):
                    if mul(i, k, l, xy_ab, z) != mul(i, j, l, x, yz_b[c]):
                        yield (i, j, k, l), (a, b, c)


def _clean_table(table, left, right, target, what="structure table"):
    """Reduce and validate structure constants.

    Keeps only nonzero products; checks generator indices and the order
    compatibility  ord(a) * v == 0 == ord(b) * v  that biadditive
    well-definedness requires.
    """
    out = {}
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
                "%s value at (%d, %d) is not killed by gcd of the generator "
                "orders" % (what, a, b))
        out[(a, b)] = v
    return out


class FinRing:
    """Finite ring (not necessarily unital) on a FinAbGroup.

    >>> R = FinRing.zmod(6)
    >>> R.mul((4,), (5,))
    (2,)
    """

    __slots__ = ("additive", "table", "unit", "modulus")

    def __init__(self, additive, table, unit=None, modulus=None, check=True):
        self.additive = additive
        self.table = _clean_table(table, additive, additive, additive)
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
        """size x size matrices over a FinRing."""
        bd = base.additive.dim
        parts = [base.additive] * (size * size)
        ds = DirectSum(parts)
        G = ds.group

        def slot(r, c):
            return (r * size + c)

        table = {}
        for r in range(size):
            for c in range(size):
                for t in range(bd):
                    g1 = ds.offsets[slot(r, c)] + t
                    for c2 in range(size):
                        for t2 in range(bd):
                            g2 = ds.offsets[slot(c, c2)] + t2
                            v = base.table.get((t, t2))
                            if v is not None:
                                table[(g1, g2)] = ds.embed(slot(r, c2), v)
        unit = None
        if base.unit is not None:
            acc = G.zero
            for r in range(size):
                acc = G.add(acc, ds.embed(slot(r, r), base.unit))
            unit = acc
        return cls(G, table, unit=unit, modulus=base.modulus)

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
                 "_flat")

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
            clean = _clean_table(tab, self.blocks[(i, j)],
                                 self.blocks[(j, k)], self.blocks[(i, k)],
                                 what="table (%d,%d,%d)" % (i, j, k))
            if clean:
                self.tables[(i, j, k)] = clean
        self._flat = self._flatten()
        if check:
            bad = self.associativity_failures()
            if bad:
                raise ValueError("block multiplication is not associative, "
                                 "e.g. at %r" % (bad[0],))

    def _flatten(self):
        flat = {}
        for (i, j, k), tab in self.tables.items():
            off1 = self.ds.offsets[self._slot[(i, j)]]
            off2 = self.ds.offsets[self._slot[(j, k)]]
            tgt = self._slot[(i, k)]
            for (a, b), v in tab.items():
                flat[(off1 + a, off2 + b)] = self.ds.embed(tgt, v)
        return flat

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
        tab = self.tables.get((i, j, k))
        if tab is None:
            return self.blocks[(i, k)].zero
        return bilinear_apply(tab, x, y, self.blocks[(i, k)])

    def block_subgroup(self, i, j):
        G = self.blocks[(i, j)]
        return Subgroup(self.ds.group, [self.embed(i, j, g) for g in G.gens()])

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
    blocks = {}
    tables = {}
    for i in range(rank):
        for j in range(rank):
            blocks[(i, j)] = base.additive
            for k in range(rank):
                if base.table:
                    tables[(i, j, k)] = dict(base.table)
    return PeirceRing(rank, base.modulus, blocks, tables)


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
                        v = charts[(i, k)].coords(R.mul(xa, yb))
                        if any(v):
                            tab[(a, b)] = v
                if tab:
                    tables[(i, j, k)] = tab
    ring = PeirceRing(rank, R.modulus, blocks, tables)
    return ring, charts


# -- modules and balanced tensor products ------------------------------------


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
        self.table = _clean_table(table, group, ring.additive, group,
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
        self.table = _clean_table(table, ring.additive, group, group,
                                  what="left action")
        if check:
            bad = _first_action_failure(self, (0, 0, 0, 1))
            if bad:
                raise ValueError("left action not associative at %r"
                                 % (bad,))

    def act(self, s, n):
        return bilinear_apply(self.table, s, n, self.group)


class RelTensor:
    """M tensor_S N: the Z-tensor of the groups modulo middle relations
    (m.s) x n - m x (s.n) on generator triples (enough by biadditivity)."""

    __slots__ = ("left", "right", "tensor", "quot", "group")

    def __init__(self, left, right):
        same = left.ring is right.ring or (
            left.ring.additive == right.ring.additive
            and left.ring.table == right.ring.table)
        if not same:
            raise ValueError("modules are over different rings")
        self.left = left
        self.right = right
        M, N = left.group, right.group
        self.tensor = TensorGroup(M, N)
        T = self.tensor.group
        rels = []
        for a in range(M.dim):
            ga = M.gen(a)
            for s in range(left.ring.additive.dim):
                gs = left.ring.additive.gen(s)
                ms = left.act(ga, gs)
                for b in range(N.dim):
                    gb = N.gen(b)
                    sn = right.act(gs, gb)
                    rels.append(T.sub(self.tensor.pure(ms, gb),
                                      self.tensor.pure(ga, sn)))
        self.quot = quotient(T, Subgroup(T, rels))
        self.group = self.quot.group

    def pure(self, m, n):
        return self.quot.proj(self.tensor.pure(m, n))

    def induced_hom(self, target, on_pure):
        """The homomorphism group -> target sending pure(m, n) to
        on_pure(m, n); on_pure is evaluated on generator pairs and must be
        balanced or NotWellDefined is raised."""
        cols = []
        for (i, j) in self.tensor.pairs:
            cols.append(on_pure(self.left.group.gen(i),
                                self.right.group.gen(j)))
        f = AbHom(self.tensor.group, target, cols)
        return induced_map(f, self.quot)


# -- predicates ---------------------------------------------------------------


def _diag_finring(R, j):
    return FinRing(R.blocks[(j, j)], R.tables.get((j, j, j), {}),
                   modulus=R.modulus, check=False)


def _block_right_module(R, i, j):
    """R_ij as a right module over the diagonal ring R_jj."""
    return RightModule(R.blocks[(i, j)], _diag_finring(R, j),
                       R.tables.get((i, j, j), {}), check=False)


def _block_left_module(R, j, k):
    """R_jk as a left module over the diagonal ring R_jj."""
    return LeftModule(R.blocks[(j, k)], _diag_finring(R, j),
                      R.tables.get((j, j, k), {}), check=False)


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


def firm_pairing_hom(R, i, j, k):
    """The multiplication map R_ij tensor_{R_jj} R_jk -> R_ik, as an AbHom
    from the balanced tensor, plus the tensor itself."""
    t = RelTensor(_block_right_module(R, i, j), _block_left_module(R, j, k))
    h = t.induced_hom(R.blocks[(i, k)],
                      lambda x, y: R.block_mul(i, j, k, x, y))
    return t, h


def is_firm(R):
    """All balanced pairing maps are isomorphisms; returns (ok, witness)."""
    l = R.rank
    for i in range(l):
        for j in range(l):
            for k in range(l):
                _t, h = firm_pairing_hom(R, i, j, k)
                if not h.is_isomorphism():
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
        out = []
        l = self.source.rank
        for i in range(l):
            for j in range(l):
                Gij = self.source.blocks[(i, j)]
                for k in range(l):
                    Gjk = self.source.blocks[(j, k)]
                    for a in range(Gij.dim):
                        ga = Gij.gen(a)
                        fa = self.homs[(i, j)](ga)
                        for b in range(Gjk.dim):
                            gb = Gjk.gen(b)
                            lhs = self.homs[(i, k)](
                                self.source.block_mul(i, j, k, ga, gb))
                            rhs = self.target.block_mul(i, j, k, fa,
                                                        self.homs[(j, k)](gb))
                            if lhs != rhs:
                                out.append(((i, j, k), (a, b)))
                                if len(out) >= limit:
                                    return out
        return out

    def is_ring_hom(self):
        return not self.multiplicativity_failures()

    def is_blockwise_iso(self):
        return all(h.is_isomorphism() for h in self.homs.values())


def collapse_rank(R):
    """Merge the last two block indices into one, keeping the underlying
    ring identical.  The new last block groups are direct sums of the old
    ones in index order."""
    if R.rank < 2:
        raise RankTooSmall("need rank at least 2 to collapse")
    l = R.rank
    new_l = l - 1

    def cls(t):
        return [t] if t < new_l - 1 else [l - 2, l - 1]

    sums = {}
    blocks = {}
    for a in range(new_l):
        for b in range(new_l):
            parts = [(i, j) for i in cls(a) for j in cls(b)]
            ds = DirectSum([R.blocks[ij] for ij in parts])
            sums[(a, b)] = (ds, {ij: t for t, ij in enumerate(parts)})
            blocks[(a, b)] = ds.group

    def phi(t):
        return min(t, new_l - 1)

    tables = {}
    for (i, j, k), tab in R.tables.items():
        a, b, c = phi(i), phi(j), phi(k)
        ds_ab, pos_ab = sums[(a, b)]
        ds_bc, pos_bc = sums[(b, c)]
        ds_ac, pos_ac = sums[(a, c)]
        dest = tables.setdefault((a, b, c), {})
        off1 = ds_ab.offsets[pos_ab[(i, j)]]
        off2 = ds_bc.offsets[pos_bc[(j, k)]]
        for (x, y), v in tab.items():
            dest[(off1 + x, off2 + y)] = ds_ac.embed(pos_ac[(i, k)], v)
    return PeirceRing(new_l, R.modulus, blocks, tables)


def morita_ring(R, P, Q, pairing):
    """Two-by-two ring (S P; Q R) from a Morita-style context.

    R is a FinRing, P a RightModule and Q a LeftModule over it, and
    `pairing` a generator table for a map Q x P -> R that is R-linear on
    both sides and surjective.  S is P tensor_R Q.  The ring R and both
    modules must be firm (the balanced tensor against R restores them).
    """
    if P.ring is not R or Q.ring is not R:
        raise PreconditionFailed("modules must be over the given ring")
    pairing = _clean_table(pairing, Q.group, P.group, R.additive,
                           what="pairing")

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

    # firmness of R and of both modules
    r_right = RightModule(R.additive, R, R.table, check=False)
    r_left = LeftModule(R.additive, R, R.table, check=False)
    t = RelTensor(r_right, r_left)
    if not t.induced_hom(R.additive, R.mul).is_isomorphism():
        raise ModuleNotFirm("the coefficient ring is not firm")
    tp = RelTensor(P, r_left)
    if not tp.induced_hom(P.group, P.act).is_isomorphism():
        raise ModuleNotFirm("P tensor R -> P is not an isomorphism")
    tq = RelTensor(r_right, Q)
    if not tq.induced_hom(Q.group, Q.act).is_isomorphism():
        raise ModuleNotFirm("R tensor Q -> Q is not an isomorphism")

    S = RelTensor(P, Q)

    def s_decompose(u):
        """Tensor coordinates of a representative of u in P (x) Q."""
        return S.quot.section(u)

    def table_from(fun, left_group, right_group, target):
        tab = {}
        for a in range(left_group.dim):
            for b in range(right_group.dim):
                v = fun(left_group.gen(a), right_group.gen(b))
                if any(v):
                    tab[(a, b)] = v
        return tab

    def s_times_s(u, v):
        acc = S.group.zero
        cu = s_decompose(u)
        cv = s_decompose(v)
        for idx1, (a, b) in enumerate(S.tensor.pairs):
            if not cu[idx1]:
                continue
            pa = P.group.gen(a)
            qb = Q.group.gen(b)
            for idx2, (c, d) in enumerate(S.tensor.pairs):
                co = cu[idx1] * cv[idx2]
                if not co:
                    continue
                mid = P.act(pa, pair(qb, P.group.gen(c)))
                acc = S.group.add(acc, S.group.scale(
                    co, S.pure(mid, Q.group.gen(d))))
        return acc

    def s_times_p(u, p):
        acc = P.group.zero
        cu = s_decompose(u)
        for idx, (a, b) in enumerate(S.tensor.pairs):
            if not cu[idx]:
                continue
            v = P.act(P.group.gen(a), pair(Q.group.gen(b), p))
            acc = P.group.add(acc, P.group.scale(cu[idx], v))
        return acc

    def q_times_s(q, u):
        acc = Q.group.zero
        cu = s_decompose(u)
        for idx, (a, b) in enumerate(S.tensor.pairs):
            if not cu[idx]:
                continue
            v = Q.act(pair(q, P.group.gen(a)), Q.group.gen(b))
            acc = Q.group.add(acc, Q.group.scale(cu[idx], v))
        return acc

    blocks = {(0, 0): S.group, (0, 1): P.group,
              (1, 0): Q.group, (1, 1): R.additive}
    tables = {
        (0, 0, 0): table_from(s_times_s, S.group, S.group, S.group),
        (0, 0, 1): table_from(s_times_p, S.group, P.group, P.group),
        (0, 1, 0): table_from(lambda p, q: S.pure(p, q),
                              P.group, Q.group, S.group),
        (0, 1, 1): dict(P.table),
        (1, 0, 0): table_from(q_times_s, Q.group, S.group, Q.group),
        (1, 0, 1): dict(pairing),
        (1, 1, 0): dict(Q.table),
        (1, 1, 1): dict(R.table),
    }
    return PeirceRing(2, R.modulus, blocks, tables)


def universal_ring(R):
    """Replace every block R_ij by (row i) tensor_R (col j) with the induced
    multiplication.  Returns (ring, hom) where hom is the canonical map back
    to R given by multiplying the two legs.

    Requires R idempotent.  The result is always firm, and hom is a
    blockwise isomorphism exactly when R itself is firm.
    """
    ok, wit = is_idempotent(R)
    if not ok:
        raise NotIdempotent("ring is not idempotent at blocks %r" % (wit,))
    l = R.rank
    total = R.as_finring()
    G = total.additive

    rows = {}
    cols = {}
    row_parts = {i: [(i, j) for j in range(l)] for i in range(l)}
    col_parts = {j: [(i, j) for i in range(l)] for j in range(l)}
    for i in range(l):
        ds = DirectSum([R.blocks[ij] for ij in row_parts[i]])
        rows[i] = (ds, {ij: t for t, ij in enumerate(row_parts[i])})
    for j in range(l):
        ds = DirectSum([R.blocks[ij] for ij in col_parts[j]])
        cols[j] = (ds, {ij: t for t, ij in enumerate(col_parts[j])})

    def row_embed(i, vec):
        ds, pos = rows[i]
        out = G.zero
        for ij, t in pos.items():
            out = G.add(out, R.embed(*ij, ds.project(t, vec)))
        return out

    def row_project(i, total_vec):
        ds, pos = rows[i]
        return ds.assemble([R.project(*ij, total_vec) for ij in row_parts[i]])

    def col_embed(j, vec):
        ds, pos = cols[j]
        out = G.zero
        for ij, t in pos.items():
            out = G.add(out, R.embed(*ij, ds.project(t, vec)))
        return out

    def col_project(j, total_vec):
        ds, pos = cols[j]
        return ds.assemble([R.project(*ij, total_vec) for ij in col_parts[j]])

    def right_table(i):
        ds, _pos = rows[i]
        tab = {}
        for a in range(ds.group.dim):
            xa = row_embed(i, ds.group.gen(a))
            for s in range(G.dim):
                v = total.mul(xa, G.gen(s))
                rv = row_project(i, v)
                if any(rv):
                    tab[(a, s)] = rv
        return tab

    def left_table(j):
        ds, _pos = cols[j]
        tab = {}
        for s in range(G.dim):
            gs = G.gen(s)
            for a in range(ds.group.dim):
                v = total.mul(gs, col_embed(j, ds.group.gen(a)))
                cv = col_project(j, v)
                if any(cv):
                    tab[(s, a)] = cv
        return tab

    row_mods = {i: RightModule(rows[i][0].group, total, right_table(i),
                               check=False) for i in range(l)}
    col_mods = {j: LeftModule(cols[j][0].group, total, left_table(j),
                              check=False) for j in range(l)}

    tens = {(i, j): RelTensor(row_mods[i], col_mods[j])
            for i in range(l) for j in range(l)}

    blocks = {ij: tens[ij].group for ij in tens}

    def pure_mul(i, j, k, x, y, x2, y2):
        """((x tensor y) times (x2 tensor y2)) in row/col coordinates."""
        inner = total.mul(col_embed(j, y), row_embed(j, x2))
        left = row_project(i, total.mul(row_embed(i, x), inner))
        return tens[(i, k)].pure(left, y2)

    tables = {}
    for i in range(l):
        for j in range(l):
            tij = tens[(i, j)]
            for k in range(l):
                tjk = tens[(j, k)]
                tab = {}
                for a in range(tij.group.dim):
                    ca = tij.quot.section(tij.group.gen(a))
                    for b in range(tjk.group.dim):
                        cb = tjk.quot.section(tjk.group.gen(b))
                        acc = tens[(i, k)].group.zero
                        for idx1, (p1, p2) in enumerate(tij.tensor.pairs):
                            if not ca[idx1]:
                                continue
                            x = tij.left.group.gen(p1)
                            y = tij.right.group.gen(p2)
                            for idx2, (q1, q2) in enumerate(tjk.tensor.pairs):
                                co = ca[idx1] * cb[idx2]
                                if not co:
                                    continue
                                x2 = tjk.left.group.gen(q1)
                                y2 = tjk.right.group.gen(q2)
                                acc = tens[(i, k)].group.add(
                                    acc, tens[(i, k)].group.scale(
                                        co, pure_mul(i, j, k, x, y, x2, y2)))
                        if any(acc):
                            tab[(a, b)] = acc
                if tab:
                    tables[(i, j, k)] = tab

    out = PeirceRing(l, R.modulus, blocks, tables)

    homs = {}
    for i in range(l):
        for j in range(l):
            t = tens[(i, j)]

            def on_pure(x, y, i=i, j=j):
                return R.project(i, j, total.mul(row_embed(i, x),
                                                 col_embed(j, y)))

            homs[(i, j)] = t.induced_hom(R.blocks[(i, j)], on_pure)
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
                        v = quots[(i, k)].proj(R.block_mul(i, j, k, xa, yb))
                        if any(v):
                            tab[(a, b)] = v
                if tab:
                    tables[(i, j, k)] = tab
    out = PeirceRing(l, R.modulus, blocks, tables)
    homs = {ij: quots[ij].proj for ij in quots}
    return out, PeirceHom(R, out, homs)
