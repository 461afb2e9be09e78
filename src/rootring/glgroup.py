"""The group of quasi-invertible elements and its elementary subgroup.

For a nonunital ring R the circle operation x o y = xy + x + y makes the
quasi-invertible elements a group (with neutral element 0); in the
unitalization it is conjugate to ordinary multiplication via x <-> 1 + x.
Transvections are quasi-units supported in one off-diagonal Peirce block;
they satisfy the Steinberg relations, and the subgroup they generate plays
the role of the elementary linear group.
"""

from dataclasses import dataclass, field
from functools import partial

from .abelian import AbHom, DirectSum, FinAbGroup, TensorGroup
from .errors import (BlockMismatch, BoundExceeded, IndexClash, InternalAlarm,
                     NotIdempotent, NotQuasiInvertible, RankTooSmall)
from .rings import is_idempotent


def circ(ring, x, y):
    G = ring.additive
    return G.add(ring.mul(x, y), G.add(x, y))


def quasi_inverse(ring, x):
    """The y with x o y = y o x = 0, or NotQuasiInvertible.

    Solving x*y + y = -x is linear in y; a solution makes 1 + y a right
    inverse of 1 + x in the unitalization, and in a finite ring one-sided
    inverses are two-sided.  Both circle equations are verified anyway.
    """
    G = ring.additive
    x = G.reduce(x)
    f = AbHom(G, G, [G.add(ring.mul(x, g), g) for g in G.gens()])
    y = f.preimage(G.neg(x))
    if y is None:
        raise NotQuasiInvertible("element has no quasi-inverse", witness=x)
    if any(circ(ring, x, y)) or any(circ(ring, y, x)):
        raise InternalAlarm("quasi-inverse verification failed", witness=x)
    return y


class QuasiUnit:
    """A quasi-invertible element with its quasi-inverse carried along, so
    group operations never have to solve anything."""

    __slots__ = ("ring", "value", "inv")

    def __init__(self, ring, value, inv=None):
        self.ring = ring
        self.value = ring.additive.reduce(value)
        self.inv = quasi_inverse(ring, value) if inv is None \
            else ring.additive.reduce(inv)

    def circle(self, other):
        return QuasiUnit(self.ring, circ(self.ring, self.value, other.value),
                         inv=circ(self.ring, other.inv, self.inv))

    def inverse(self):
        return QuasiUnit(self.ring, self.inv, inv=self.value)

    def commutator(self, other):
        """self o other o self^{-1} o other^{-1}."""
        return self.circle(other).circle(self.inverse()) \
                   .circle(other.inverse())

    def act(self, v):
        """Conjugation action on ring elements: (xv + v) x' + xv + v where
        x' is the quasi-inverse; matches (1+x) v (1+x)^{-1}."""
        R, G = self.ring, self.ring.additive
        w = G.add(R.mul(self.value, v), v)
        return G.add(R.mul(w, self.inv), w)

    def is_identity(self):
        return not any(self.value)

    def __eq__(self, other):
        return (isinstance(other, QuasiUnit) and self.ring is other.ring
                and self.value == other.value)

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return "QuasiUnit(%r)" % (self.value,)


def identity_unit(ring):
    z = ring.additive.zero
    return QuasiUnit(ring, z, inv=z)


def transvection(R, i, j, a):
    """Quasi-unit supported in off-diagonal block (i, j).  Its inverse is
    the transvection at -a because the block squares to zero."""
    if i == j:
        raise IndexClash("transvections need two distinct indices")
    G = R.blocks[(i, j)]
    if len(a) != G.dim:
        raise BlockMismatch("vector does not fit block (%d, %d)" % (i, j))
    a = G.reduce(a)
    return QuasiUnit(R, R.embed(i, j, a), inv=R.embed(i, j, G.neg(a)))


def _transvection_letters(R, elements="generators"):
    """(i, j, a) triples: per off-diagonal block either the generators and
    their negatives, or every nonzero element."""
    out = []
    for i in range(R.rank):
        for j in range(R.rank):
            if i == j:
                continue
            G = R.blocks[(i, j)]
            if elements == "all":
                vals = [a for a in G.elements() if any(a)]
            else:
                vals = []
                for g in G.gens():
                    vals.append(g)
                    ng = G.neg(g)
                    if ng != g:
                        vals.append(ng)
            out.extend((i, j, a) for a in vals)
    return out


@dataclass
class SteinbergReport:
    additivity_failures: list = field(default_factory=list)
    commuting_failures: list = field(default_factory=list)
    composition_failures: list = field(default_factory=list)
    identity_failures: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self):
        return not (self.additivity_failures or self.commuting_failures
                    or self.composition_failures or self.identity_failures)


def verify_steinberg(R, identity_triples="generators", limit=8):
    """Check the Steinberg relations and the standard commutator identities
    on transvections.

    Families checked, with failures collected up to `limit` per family:
      * t_ij(a) o t_ij(b) == t_ij(a + b) for all element pairs of a block;
      * [t_ij(a), t_kl(b)] == 0 whenever j != k and i != l;
      * [t_ij(a), t_jk(b)] == t_ik(ab) for i != k;
      * circle associativity (x o y) o z == x o (y o z) and the identities
          [x o y, z] == (^x [y, z]) o [x, z]
          [x, y o z] == [x, y] o (^y [x, z])
          ^y[x,[y^-1,z]] o ^z[y,[z^-1,x]] o ^x[z,[x^-1,y]] == 0
        on triples of transvection letters (generator letters by default,
        every nonzero letter with identity_triples="all").

    Quasi-units are carried as (value, quasi-inverse) pairs: an inverse is
    a swap, and the inverse of x o y is the product y^-1 o x^-1.  Each
    product of two values is computed once per call and kept in a dict
    that lives only for the call.  `checked` and the failures are those of
    the full enumeration, in its order: every relation is still evaluated,
    and only a repeated product is looked up instead of recomputed.
    """
    if identity_triples not in ("generators", "all"):
        raise ValueError('identity_triples must be "generators" or "all", '
                         'got %r' % (identity_triples,))
    rep = SteinbergReport()
    l = R.rank
    products = {}

    def times(x, y):
        key = (x, y)
        v = products.get(key)
        if v is None:
            v = products[key] = circ(R, x, y)
        return v

    def circle(p, q):
        return times(p[0], q[0]), times(q[1], p[1])

    def inverse(p):
        return p[1], p[0]

    def conjugate(p, q):
        """p o q o p^-1."""
        return circle(circle(p, q), inverse(p))

    def commutator(p, q):
        """p o q o p^-1 o q^-1."""
        return circle(conjugate(p, q), inverse(q))

    def unit(i, j, a):
        t = transvection(R, i, j, a)
        return t.value, t.inv

    blocks = [(i, j) for i in range(l) for j in range(l) if i != j]
    trans = {(i, j): {a: unit(i, j, a) for a in R.blocks[(i, j)].elements()}
             for (i, j) in blocks}
    for (i, j) in blocks:
        G = R.blocks[(i, j)]
        tij = trans[(i, j)]
        for a, ta in tij.items():
            for b, tb in tij.items():
                got = circle(ta, tb)
                want = tij[G.add(a, b)]
                rep.checked += 1
                if got[0] != want[0] and len(rep.additivity_failures) < limit:
                    rep.additivity_failures.append(((i, j), a, b))

    for (i, j) in blocks:
        for (k, m) in blocks:
            if j == k or i == m:
                continue
            for a, ta in trans[(i, j)].items():
                if not any(a):
                    continue
                for b, tb in trans[(k, m)].items():
                    if not any(b):
                        continue
                    c = commutator(ta, tb)
                    rep.checked += 1
                    if any(c[0]) and len(rep.commuting_failures) < limit:
                        rep.commuting_failures.append(((i, j), a, (k, m), b))

    for (i, j) in blocks:
        for k in range(l):
            if k == j or k == i:
                continue
            tik = trans[(i, k)]
            for a, ta in trans[(i, j)].items():
                for b, tb in trans[(j, k)].items():
                    got = commutator(ta, tb)
                    want = tik[R.block_mul(i, j, k, a, b)]
                    rep.checked += 1
                    if got[0] != want[0] and \
                            len(rep.composition_failures) < limit:
                        rep.composition_failures.append(((i, j), a, (j, k), b))

    letters = [trans[(i, j)][a]
               for (i, j, a) in _transvection_letters(R, identity_triples)]
    for x in letters:
        for y in letters:
            xy = circle(x, y)
            for z in letters:
                rep.checked += 1
                if circle(xy, z)[0] != circle(x, circle(y, z))[0] and \
                        len(rep.identity_failures) < limit:
                    rep.identity_failures.append(("assoc", x[0], y[0], z[0]))
                lhs = commutator(xy, z)
                rhs = circle(conjugate(x, commutator(y, z)), commutator(x, z))
                if lhs[0] != rhs[0] and len(rep.identity_failures) < limit:
                    rep.identity_failures.append(("L", x[0], y[0], z[0]))
                lhs = commutator(x, circle(y, z))
                rhs = circle(commutator(x, y), conjugate(y, commutator(x, z)))
                if lhs[0] != rhs[0] and len(rep.identity_failures) < limit:
                    rep.identity_failures.append(("R", x[0], y[0], z[0]))
                t1 = conjugate(y, commutator(x, commutator(inverse(y), z)))
                t2 = conjugate(z, commutator(y, commutator(inverse(z), x)))
                t3 = conjugate(x, commutator(z, commutator(inverse(x), y)))
                if any(circle(circle(t1, t2), t3)[0]) and \
                        len(rep.identity_failures) < limit:
                    rep.identity_failures.append(("HW", x[0], y[0], z[0]))
    return rep


def elementary_subgroup(R, size_bound=2 ** 20):
    """The set of values of the subgroup generated by all transvections,
    found by breadth-first closure.  Raises BoundExceeded past size_bound."""
    gens = [transvection(R, i, j, a)
            for (i, j, a) in _transvection_letters(R, "generators")]
    seen = {R.additive.zero: identity_unit(R)}
    frontier = list(seen.values())
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = x.circle(g)
                if y.value not in seen:
                    seen[y.value] = y
                    new.append(y)
                    if len(seen) > size_bound:
                        raise BoundExceeded(
                            "elementary subgroup outgrew the bound",
                            partial_size=len(seen))
        frontier = new
    return seen


@dataclass
class CenterPerfReport:
    """What `perfectness_and_center` found.  `central_violations` is the
    sorted list of the nonzero central x; when conjugation does not tell
    the upper units apart, `action_witness` is (0, y) and 1 + y acts as
    the identity does."""
    perfect: bool
    perfect_witness: object
    upper_size: int
    central_violations: list
    action_injective: bool
    action_witness: object

    @property
    def ok(self):
        return (self.perfect and not self.central_violations
                and self.action_injective)


def _commutant(R, incl, vals):
    """The x in the source of `incl` whose image commutes with each of
    `vals`: the kernel of the linear map x -> (xa - ax)_a."""
    G = R.additive
    out = DirectSum([G] * len(vals))
    return AbHom(incl.source, out.group,
                 [out.assemble([G.sub(R.mul(e, a), R.mul(a, e)) for a in vals])
                  for e in incl.cols]).kernel()


def perfectness_and_center(R):
    """Certify commutator generation, and that the upper unitriangular
    units 1 + x (x in N, the sum of the blocks R_ij with i < j; one unit
    per x, so `upper_size` is |N|) have trivial center and act faithfully.

    Every generator transvection t_ik(c) is rewritten as a product of
    commutators [t_ij(a), t_jk(b)] (possible because the ring is idempotent
    and the rank is at least 3) and the rewriting is verified by evaluation.

    1 + x commutes with the transvection at a exactly when xa = ax, so the
    central x form the kernel K of x -> (xa - ax) over the transvection
    letters a.  1 + x acts trivially exactly when x commutes with every
    generator of R; that kernel lies in K, so it is computed only if K != 0.
    """
    if R.rank < 3:
        raise RankTooSmall("need rank at least 3")
    ok, wit = is_idempotent(R)
    if not ok:
        raise NotIdempotent("ring is not idempotent at blocks %r" % (wit,))

    perfect = True
    perfect_witness = None
    for i in range(R.rank):
        for k in range(R.rank):
            if i == k:
                continue
            j = min(t for t in range(R.rank) if t not in (i, k))
            Gij, Gjk, Gik = R.blocks[(i, j)], R.blocks[(j, k)], \
                R.blocks[(i, k)]
            T = TensorGroup(Gij, Gjk)
            f = T.hom(Gik, partial(R.block_mul, i, j, k))
            for c in Gik.gens():
                lam = f.preimage(c)
                if lam is None:
                    perfect = False
                    perfect_witness = (i, k, c, "no decomposition")
                    continue
                prod = identity_unit(R)
                for (a, b), coeff in zip(T.pairs, lam):
                    ta = transvection(R, i, j, Gij.scale(coeff, Gij.gen(a)))
                    tb = transvection(R, j, k, Gjk.gen(b))
                    prod = prod.circle(ta.commutator(tb))
                if prod != transvection(R, i, k, c):
                    perfect = False
                    perfect_witness = (i, k, c, "product mismatch")

    upper = [(i, j) for i in range(R.rank) for j in range(R.rank) if i < j]
    N = FinAbGroup([o for ij in upper for o in R.blocks[ij].orders])
    incl = AbHom(N, R.additive, [R.embed(i, j, g) for (i, j) in upper
                                 for g in R.blocks[(i, j)].gens()])
    K = _commutant(R, incl, [R.embed(i, j, a)
                             for (i, j, a) in _transvection_letters(R)])
    chart = K.as_group()
    central = sorted(incl(chart.incl(e)) for e in chart.group.elements()
                     if any(e))

    action_witness = None
    if central:
        basis = _commutant(R, incl, R.additive.gens()).basis()
        if basis:
            action_witness = (R.additive.zero, incl(basis[0]))

    return CenterPerfReport(perfect=perfect, perfect_witness=perfect_witness,
                            upper_size=N.order,
                            central_violations=central,
                            action_injective=action_witness is None,
                            action_witness=action_witness)
