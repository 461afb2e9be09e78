"""Type-A root bookkeeping and commutator-relations data.

A rank-l family consists of one abelian group per ordered index pair
(i, j), i != j, together with a biadditive map per composable pair of
roots; this is exactly what the off-diagonal part of a Peirce ring
induces on its transvection subgroups, with the diagonal blocks
forgotten.  The checkers below ask how much of the ring the data still
determines: surjective brackets (idempotent), an exact kernel = image
condition on tensor squares (firm), and a faithful bracket action
(reduced).
"""

from itertools import combinations, islice, permutations
from typing import NamedTuple

from .abelian import AbHom, DirectSum, Subgroup, TensorGroup
from .errors import PreconditionFailed
from .rings import _clean_table, bilinear_apply, nonassociative_triples


class Root(NamedTuple):
    """e_i - e_j with i != j, in 0-based indices.

    >>> Root(0, 1) + Root(1, 2)
    Root(i=0, j=2)
    >>> Root(0, 1) + Root(2, 3) is None
    True
    >>> -Root(0, 1)
    Root(i=1, j=0)
    """

    i: int
    j: int

    def __neg__(self):
        return Root(self.j, self.i)

    def __add__(self, other):
        if not isinstance(other, Root):
            return NotImplemented
        if self.j == other.i and other.j != self.i:
            return Root(self.i, other.j)
        if other.j == self.i and self.j != other.i:
            return Root(other.i, self.j)
        return None

    def vector(self, rank):
        v = [0] * rank
        v[self.i] += 1
        v[self.j] -= 1
        return tuple(v)


def all_roots(rank):
    return [Root(i, j) for i in range(rank) for j in range(rank) if i != j]


class CommRelData:
    """Root-indexed groups with commutator maps over K = Z/modulus.

    `modules[(i, j)]` is the group attached to e_i - e_j; `cmaps[(i, j, k)]`
    is the sparse generator table of the biadditive bracket
    modules[(i,j)] x modules[(j,k)] -> modules[(i,k)] for distinct i, j, k.
    A missing table is the zero map.  With check=True (the default) every
    quadruple of distinct indices is tested for bracket associativity
    c(c(x,y),z) = c(x,c(y,z)) on generator triples.
    """

    __slots__ = ("rank", "modulus", "modules", "cmaps")

    def __init__(self, rank, modulus, modules, cmaps, check=True):
        if rank < 1:
            raise ValueError("need positive rank, got %d" % rank)
        self.rank = rank
        self.modulus = modulus
        mods = {}
        for r in all_roots(rank):
            key = (r.i, r.j)
            if key not in modules:
                raise ValueError("missing module for root %r" % (r,))
            mods[key] = modules[key]
        for key in modules:
            if key not in mods:
                raise ValueError("module key %r is not a root" % (key,))
        self.modules = mods
        maps = {}
        for key, tab in cmaps.items():
            i, j, k = key
            if len({i, j, k}) != 3 or not all(0 <= t < rank for t in key):
                raise ValueError("commutator map key %r is not a composable "
                                 "pair of roots" % (key,))
            maps[key] = _clean_table(tab, mods[(i, j)], mods[(j, k)],
                                     mods[(i, k)], what="commutator map")
        self.cmaps = maps
        if check:
            bad = self.associativity_failures(limit=1)
            if bad:
                raise ValueError("commutator maps are not associative at "
                                 "%r" % (bad[0],))

    def module(self, i, j):
        return self.modules[(i, j)]

    def cvalue(self, i, j, k, x, y):
        return bilinear_apply(self.cmaps.get((i, j, k), {}), x, y,
                              self.modules[(i, k)])

    def associativity_failures(self, limit=1):
        bad = nonassociative_triples(permutations(range(self.rank), 4),
                                     self.module, self.cvalue)
        return [(i, j, k, m, self.module(i, j).gen(a),
                 self.module(j, k).gen(b), self.module(k, m).gen(c))
                for (i, j, k, m), (a, b, c) in islice(bad, limit)]

    def __eq__(self, other):
        return (isinstance(other, CommRelData)
                and self.rank == other.rank
                and self.modulus == other.modulus
                and all(self.modules[k] == other.modules[k]
                        for k in self.modules)
                and {k: v for k, v in self.cmaps.items() if v}
                == {k: v for k, v in other.cmaps.items() if v})

    def __repr__(self):
        return "CommRelData(rank=%d, modulus=%d)" % (self.rank, self.modulus)


def extract(R):
    """The commutator data of a Peirce ring: off-diagonal blocks and their
    products, diagonal blocks forgotten."""
    modules = {(i, j): R.blocks[(i, j)]
               for i in range(R.rank) for j in range(R.rank) if i != j}
    cmaps = {key: R.tables[key] for key in R.tables
             if len(set(key)) == 3}
    return CommRelData(R.rank, R.modulus, modules, cmaps)


def check_K_linear(D):
    """Whether the modules are unital Z/modulus-modules: each exponent has
    to divide the modulus (bilinearity over Z/modulus is then automatic for
    integer generator tables)."""
    for r in all_roots(D.rank):
        G = D.module(r.i, r.j)
        if G.exponent > 1 and D.modulus % G.exponent:
            return False, (r.i, r.j)
    return True, None


def check_idempotent_rel(D):
    """Whether every composable bracket is onto: the values of
    c_{(i,j),(j,k)} on generator pairs must generate the whole target,
    separately for every triple of distinct indices."""
    for (i, j, k) in permutations(range(D.rank), 3):
        target = D.module(i, k)
        gens = [D.cvalue(i, j, k, x, y)
                for x in D.module(i, j).gens()
                for y in D.module(j, k).gens()]
        if not Subgroup(target, gens).is_full():
            return False, (i, j, k)
    return True, None


def _firm_quadruple(D, i, j, k, l):
    """The exactness datum at one quadruple of distinct indices.

    Returns (kernel, image, ambient) inside
    (U_ij (x) U_jl) + (U_ik (x) U_kl): the kernel of the combined bracket
    into U_il, and the image of the six-term relation map whose sources are
    U_ij (x) U_jk (x) U_kl and U_ik (x) U_kj (x) U_jl.  Firmness at the
    quadruple is kernel == image.
    """
    Uij, Ujk, Ukl = D.module(i, j), D.module(j, k), D.module(k, l)
    Uik, Ukj, Ujl = D.module(i, k), D.module(k, j), D.module(j, l)
    T1 = TensorGroup(Uij, Ujl)
    T2 = TensorGroup(Uik, Ukl)
    amb = DirectSum([T1.group, T2.group])
    cols = [D.cvalue(i, j, l, Uij.gen(p), Ujl.gen(q))
            for (p, q) in T1.pairs]
    cols += [D.cvalue(i, k, l, Uik.gen(p), Ukl.gen(q))
             for (p, q) in T2.pairs]
    bracket = AbHom(amb.group, D.module(i, l), cols)
    kernel = bracket.kernel()

    G = amb.group
    gens = []
    for x in Uij.gens():
        for y in Ujk.gens():
            for z in Ukl.gens():
                v1 = T1.pure(x, D.cvalue(j, k, l, y, z))
                v2 = T2.group.neg(T2.pure(D.cvalue(i, j, k, x, y), z))
                gens.append(G.add(amb.embed(0, v1), amb.embed(1, v2)))
    for u in Uik.gens():
        for v in Ukj.gens():
            for w in Ujl.gens():
                v1 = T1.pure(D.cvalue(i, k, j, u, v), w)
                v2 = T2.group.neg(T2.pure(u, D.cvalue(k, j, l, v, w)))
                gens.append(G.add(amb.embed(0, v1), amb.embed(1, v2)))
    image = Subgroup(G, gens)
    return kernel, image, amb


def _require_idempotent(D):
    ok, wit = check_idempotent_rel(D)
    if not ok:
        raise PreconditionFailed("data is not idempotent at %r" % (wit,))


def check_firm_rel(D):
    """Exactness at every quadruple of distinct indices: the relations
    among bracket values are exactly the ones forced by biadditivity and
    associativity.  Requires the idempotent check to pass first."""
    _require_idempotent(D)
    return _firm_rel(D)


def _firm_rel(D):
    """check_firm_rel(D) for data already known to be idempotent."""
    for i, j, k, l in permutations(range(D.rank), 4):
        kernel, image, _ = _firm_quadruple(D, i, j, k, l)
        if kernel != image:
            culprit = next((row for row in kernel.basis()
                            if not image.contains(row)), None)
            if culprit is None:
                culprit = next(row for row in image.basis()
                               if not kernel.contains(row))
            return False, ((i, j, k, l), culprit)
    return True, None


def _inert_kernel(D, triple, p, q):
    """Elements of U_pq whose brackets inside the subsystem on `triple`
    all vanish.  (p, q) must be two of the three indices."""
    i, j, k = triple
    (r,) = set(triple) - {p, q}
    U = D.module(p, q)
    right = D.module(q, r).gens()
    left = D.module(r, p).gens()
    parts = [D.module(p, r)] * len(right) + [D.module(r, q)] * len(left)
    ds = DirectSum(parts)
    cols = []
    for g in U.gens():
        vecs = [D.cvalue(p, q, r, g, h) for h in right]
        vecs += [D.cvalue(r, p, q, w, g) for w in left]
        cols.append(ds.assemble(vecs))
    return AbHom(U, ds.group, cols).kernel()


def check_reduced_rel(D):
    """No nonzero element of any module may bracket trivially with every
    other root of its subsystem on three indices.  Requires the idempotent
    check to pass first."""
    _require_idempotent(D)
    return _reduced_rel(D)


def _reduced_rel(D):
    """check_reduced_rel(D) for data already known to be idempotent."""
    for triple in combinations(range(D.rank), 3):
        for (p, q) in all_roots(3):
            alpha = (triple[p], triple[q])
            ker = _inert_kernel(D, triple, *alpha)
            if not ker.is_trivial():
                return False, (triple, alpha, ker.basis()[0])
    return True, None
