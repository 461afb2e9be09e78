"""Finite abelian groups, homomorphisms, subgroups, quotients, tensors.

A group is a direct sum Z/d_1 + ... + Z/d_k and its elements are tuples of
ints with the i-th coordinate taken mod d_i.  All the structure theory
(kernels, quotients, tensor products) reduces to integer lattice work in
`smith`.  Order-1 factors are normalized away, so the trivial group has
dimension 0 and its only element is the empty tuple.
"""

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod

from .errors import NotWellDefined
from .smith import Lattice, kernel_mod, smith_normal_form, solve_mod


class FinAbGroup:
    """Z/d_1 + ... + Z/d_k with all d_i > 1.

    >>> G = FinAbGroup([2, 1, 4])
    >>> G.orders
    (2, 4)
    >>> G.add((1, 3), (1, 2))
    (0, 1)
    """

    __slots__ = ("orders",)

    def __init__(self, orders):
        clean = []
        for d in orders:
            d = int(d)
            if d < 1:
                raise ValueError("orders must be positive, got %r" % (d,))
            if d > 1:
                clean.append(d)
        self.orders = tuple(clean)

    @property
    def dim(self):
        return len(self.orders)

    @property
    def order(self):
        return prod(self.orders)

    @property
    def exponent(self):
        return lcm(*self.orders) if self.orders else 1

    @property
    def zero(self):
        return (0,) * len(self.orders)

    def gen(self, i):
        return tuple(1 if j == i else 0 for j in range(len(self.orders)))

    def gens(self):
        return [self.gen(i) for i in range(len(self.orders))]

    def reduce(self, vec):
        return tuple(int(v) % d for v, d in zip(vec, self.orders))

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def sub(self, a, b):
        return tuple((x - y) % d for x, y, d in zip(a, b, self.orders))

    def scale(self, c, a):
        return tuple((c * x) % d for x, d in zip(a, self.orders))

    def sum(self, vecs):
        acc = [0] * len(self.orders)
        for v in vecs:
            for i, x in enumerate(v):
                acc[i] += x
        return self.reduce(acc)

    def elements(self):
        """All elements in lexicographic order.  Mind the group order."""
        return itertools.product(*(range(d) for d in self.orders))

    def invariant_factors(self):
        """Canonical invariant factor chain, for isomorphism-type tests.

        Z/a + Z/b is Z/gcd(a, b) + Z/lcm(a, b), and on the exponent of
        each prime that exchange is a compare-and-swap.  So the selection
        sort below sorts the powers of every prime at once and multiplies
        them back together, without factoring an order.

        >>> FinAbGroup([6, 4, 3]).invariant_factors()
        (6, 12)
        """
        chain = list(self.orders)
        for i in range(len(chain)):
            for j in range(i + 1, len(chain)):
                chain[i], chain[j] = (gcd(chain[i], chain[j]),
                                      lcm(chain[i], chain[j]))
        return tuple(d for d in chain if d > 1)

    def __eq__(self, other):
        return isinstance(other, FinAbGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "FinAbGroup%r" % (self.orders,)


class AbHom:
    """Homomorphism between FinAbGroups, stored as generator images.

    `cols[j]` is the image of the j-th source generator.  The constructor
    checks that generator orders are respected, which is exactly the
    condition for the assignment to extend to a homomorphism.
    """

    __slots__ = ("source", "target", "cols")

    def __init__(self, source, target, cols):
        cols = [target.reduce(c) for c in cols]
        if len(cols) != source.dim:
            raise ValueError("expected %d generator images, got %d"
                             % (source.dim, len(cols)))
        for j, col in enumerate(cols):
            if any(target.scale(source.orders[j], col)):
                raise ValueError(
                    "images do not respect generator orders at index %d" % j)
        self.source = source
        self.target = target
        self.cols = tuple(cols)

    @classmethod
    def identity(cls, G):
        return cls(G, G, G.gens())

    @classmethod
    def zero(cls, G, H):
        return cls(G, H, [H.zero] * G.dim)

    def __call__(self, vec):
        acc = [0] * self.target.dim
        for c, col in zip(vec, self.cols):
            if c:
                for i, x in enumerate(col):
                    acc[i] += c * x
        return self.target.reduce(acc)

    def matrix(self):
        """Rows-by-columns integer matrix (target.dim x source.dim)."""
        return [[col[i] for col in self.cols] for i in range(self.target.dim)]

    def compose(self, other):
        """self after other."""
        if other.target != self.source:
            raise ValueError("composition mismatch")
        return AbHom(other.source, self.target,
                     [self(c) for c in other.cols])

    def add(self, other):
        return AbHom(self.source, self.target,
                     [self.target.add(a, b)
                      for a, b in zip(self.cols, other.cols)])

    def kernel(self):
        return Subgroup(self.source, kernel_mod(
            self.matrix(), list(self.target.orders), width=self.source.dim))

    def image(self):
        return Subgroup(self.target, self.cols)

    def preimage(self, y):
        """Some x with self(x) == y, or None."""
        x = solve_mod(self.matrix(), list(y), list(self.target.orders),
                      width=self.source.dim)
        if x is None:
            return None
        return self.source.reduce(x)

    def is_injective(self):
        return self.kernel().order() == 1

    def is_surjective(self):
        return self.image().is_full()

    def is_isomorphism(self):
        return self.source.order == self.target.order and self.is_surjective()

    def inverse(self):
        if not self.is_isomorphism():
            raise ValueError("not an isomorphism")
        cols = []
        for g in self.target.gens():
            x = self.preimage(g)
            # assert x is not None  (surjectivity was just checked)
            cols.append(x)
        inv = AbHom(self.target, self.source, cols)
        # sanity: two-sided inverse on generators
        for g in self.source.gens():
            if inv(self(g)) != self.source.reduce(g):
                raise NotWellDefined("inverse failed to invert", witness=g)
        return inv

    def __eq__(self, other):
        return (isinstance(other, AbHom) and self.source == other.source
                and self.target == other.target and self.cols == other.cols)

    def __hash__(self):
        return hash((self.source, self.target, self.cols))

    def __repr__(self):
        return "AbHom(%r -> %r)" % (self.source, self.target)


class Subgroup:
    """Subgroup of a FinAbGroup, generated by a list of elements.

    Internally an integer lattice containing diag(orders), so equality of
    subgroups is equality of Hermite bases.
    """

    __slots__ = ("ambient", "gens", "lat")

    def __init__(self, ambient, gens=()):
        self.ambient = ambient
        self.gens = tuple(ambient.reduce(g) for g in gens)
        self.lat = Lattice(list(ambient.orders), self.gens)

    def contains(self, vec):
        return self.lat.contains(list(vec))

    def reduce(self, vec):
        """Canonical (lexicographically least) representative of vec + self."""
        return self.lat.reduce(list(vec))

    def order(self):
        return self.ambient.order // self.lat.index()

    def is_trivial(self):
        return self.order() == 1

    def is_full(self):
        return self.lat.index() == 1

    def basis(self):
        out = []
        for row in self.lat.rows:
            v = self.ambient.reduce(row)
            if any(v):
                out.append(v)
        return out

    def join(self, other):
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        return Subgroup(self.ambient, self.gens + other.gens)

    def intersect(self, other):
        if other.ambient != self.ambient:
            raise ValueError("ambient mismatch")
        # (a, a) and (b, 0) span the pairs (x, y) with y in self and
        # y - x in other; the Hermite rows with x = 0 come last
        n = self.ambient.dim
        lat = Lattice(list(self.ambient.orders) * 2,
                      [a + a for a in self.lat.rows]
                      + [b + [0] * n for b in other.lat.rows])
        return Subgroup(self.ambient, [row[n:] for row in lat.rows[n:]])

    def elements(self):
        """Enumerate members; linear scan of the ambient group."""
        for x in self.ambient.elements():
            if self.contains(x):
                yield x

    def as_group(self):
        """Present this subgroup abstractly; see GroupChart."""
        gens = self.basis()
        f = AbHom(FinAbGroup([self.ambient.exponent] * len(gens)),
                  self.ambient, gens)
        quot = quotient(f.source, f.kernel())

        def coords(vec):
            lam = f.preimage(vec)
            if lam is None:
                raise ValueError("element is not in the subgroup: %r" % (vec,))
            return quot.proj(lam)

        return GroupChart(group=quot.group, incl=induced_map(f, quot),
                          coords=coords)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.ambient == other.ambient
                and self.lat == other.lat)

    def __hash__(self):
        return hash((self.ambient, self.lat.basis()))

    def __repr__(self):
        return "Subgroup(order=%d of %r)" % (self.order(), self.ambient)


@dataclass(frozen=True)
class GroupChart:
    """A subgroup presented as an abstract group.

    `incl` maps the abstract group into the ambient one; `coords` inverts it
    on members (raising ValueError off the subgroup)."""

    group: FinAbGroup
    incl: AbHom
    coords: object


def _present_quotient(k, rel_rows):
    """Present Z^k / <rel_rows> (a finite group: the rows must have full
    rank, e.g. by containing multiples of every e_i).

    Returns (orders, proj, lift): `orders` lists the invariant factors > 1,
    `proj` maps a length-k integer vector to quotient coordinates, `lift`
    maps quotient coordinates to one integer preimage.
    """
    r = len(rel_rows)
    if k == 0:
        return (), (lambda lam: ()), (lambda q: [])
    B = [[rel_rows[j][i] for j in range(r)] for i in range(k)]
    S, U, _V, Uinv, _Vinv = smith_normal_form(B, transforms="Uu")
    diag = [S[i][i] if i < min(k, r) else 0 for i in range(k)]
    if any(d == 0 for d in diag):
        raise ValueError("relation lattice does not have full rank")
    kept = [i for i in range(k) if diag[i] > 1]
    orders = [diag[i] for i in kept]

    def proj(lam):
        support = [(j, x) for j, x in enumerate(lam) if x]
        return tuple(sum(U[i][j] * x for j, x in support) % diag[i]
                     for i in kept)

    def lift(q):
        full = [0] * k
        for pos, i in enumerate(kept):
            full[i] = q[pos]
        return [sum(Uinv[i][j] * full[j] for j in range(k)) for i in range(k)]

    return orders, proj, lift


@dataclass(frozen=True)
class Quotient:
    """G / H together with the projection and a canonical section."""

    group: FinAbGroup
    proj: AbHom
    subgroup: Subgroup
    _lift: object

    def section(self, q):
        """Lexicographically least representative of the coset q."""
        amb = self.proj.source
        x = amb.reduce(self._lift(list(q)))
        return self.subgroup.reduce(x)


def quotient(G, H):
    """Quotient of G by a Subgroup H of it.

    >>> G = FinAbGroup([4, 4])
    >>> q = quotient(G, Subgroup(G, [(2, 2)]))
    >>> q.group.order
    8
    """
    if H.ambient != G:
        raise ValueError("subgroup of a different group")
    orders, proj_lam, lift = _present_quotient(G.dim, H.lat.rows)
    Q = FinAbGroup(orders)
    proj = AbHom(G, Q, [Q.reduce(proj_lam(list(g))) for g in G.gens()])
    return Quotient(group=Q, proj=proj, subgroup=H, _lift=lift)


def induced_map(f, quot):
    """Factor the AbHom f through quot.proj.

    Raises NotWellDefined (with the offending relation vector) unless f
    kills the subgroup that was quotiented out.
    """
    if quot.proj.source != f.source:
        raise ValueError("quotient of a different group")
    for row in quot.subgroup.lat.rows:
        if any(f(row)):
            raise NotWellDefined("map does not kill the relation subgroup",
                                 witness=tuple(row))
    cols = []
    for i in range(quot.group.dim):
        q = tuple(1 if j == i else 0 for j in range(quot.group.dim))
        cols.append(f(quot.section(q)))
    h = AbHom(quot.group, f.target, cols)
    for j, g in enumerate(f.source.gens()):
        if h(quot.proj(g)) != f.cols[j]:
            raise NotWellDefined("factorization mismatch on a generator",
                                 witness=g)
    return h


class TensorGroup:
    """Tensor product over Z of two FinAbGroups.

    The group is the direct sum of Z/gcd(d_i, e_j) over generator pairs
    (pairs with coprime orders contribute nothing and are dropped).  `pure`
    maps a pair of elements to its tensor.
    """

    __slots__ = ("left", "right", "group", "pairs", "pos")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        pairs = []
        orders = []
        for i, d in enumerate(left.orders):
            for j, e in enumerate(right.orders):
                g = gcd(d, e)
                if g > 1:
                    pairs.append((i, j))
                    orders.append(g)
        self.pairs = tuple(pairs)
        self.pos = {p: idx for idx, p in enumerate(pairs)}
        self.group = FinAbGroup(orders)

    def pure(self, a, b):
        vec = [0] * self.group.dim
        for idx, (i, j) in enumerate(self.pairs):
            vec[idx] = a[i] * b[j]
        return self.group.reduce(vec)

    def __repr__(self):
        return "TensorGroup(%r (x) %r)" % (self.left, self.right)


class DirectSum:
    """Direct sum of FinAbGroups with embed/project bookkeeping."""

    __slots__ = ("parts", "group", "offsets")

    def __init__(self, parts):
        self.parts = tuple(parts)
        orders = []
        offsets = []
        at = 0
        for p in self.parts:
            offsets.append(at)
            orders.extend(p.orders)
            at += p.dim
        self.offsets = tuple(offsets)
        self.group = FinAbGroup(orders)

    def embed(self, i, vec):
        out = [0] * self.group.dim
        off = self.offsets[i]
        for k, v in enumerate(vec):
            out[off + k] = v
        return self.group.reduce(out)

    def project(self, i, vec):
        off = self.offsets[i]
        return self.parts[i].reduce(vec[off:off + self.parts[i].dim])

    def assemble(self, vecs):
        out = []
        for p, v in zip(self.parts, vecs):
            out.extend(v)
        return self.group.reduce(out)
