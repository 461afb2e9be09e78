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

from functools import partial
from itertools import combinations, islice, permutations
from typing import NamedTuple

from .abelian import AbHom, DirectSum, Subgroup, induces_isomorphism
from .errors import NotWellDefined, PreconditionFailed
from .rings import (ZERO_TABLE, RelTensor, Table, bilinear_apply,
                    nonassociative_triples)


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
            maps[key] = Table(tab, mods[(i, j)], mods[(j, k)], mods[(i, k)],
                              what="commutator map")
        self.cmaps = maps
        if check:
            bad = self.associativity_failures(limit=1)
            if bad:
                raise ValueError("commutator maps are not associative at "
                                 "%r" % (bad[0],))

    def module(self, i, j):
        return self.modules[(i, j)]

    def cvalue(self, i, j, k, x, y):
        return bilinear_apply(self.cmaps.get((i, j, k), ZERO_TABLE), x, y,
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

    Returns (tensor, bracket): the `RelTensor` on the summands
    j: U_ij (x) U_jl and k: U_ik (x) U_kl, whose relations are the image of
    the six-term relation map with sources U_ij (x) U_jk (x) U_kl and
    U_ik (x) U_kj (x) U_jl, spanned by the associator relations through
    U_jk and, with the summands swapped, through U_kj; and the combined
    bracket from its ambient into U_il.  Firmness at the quadruple is
    kernel == image: on idempotent data the bracket is onto, so that is
    the bracket inducing an isomorphism from the balanced tensor.
    """
    tensor = RelTensor(
        {j: (D.module(i, j), D.module(j, l)),
         k: (D.module(i, k), D.module(k, l))},
        [(m, n, D.module(m, n), partial(D.cvalue, i, m, n),
          partial(D.cvalue, m, n, l)) for m, n in ((j, k), (k, j))])
    return tensor, tensor.hom(D.module(i, l),
                              {m: partial(D.cvalue, i, m, l) for m in (j, k)})


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
    """check_firm_rel(D) for data already known to be idempotent.

    (i, j, k, l) and (i, k, j, l) give the same kernel and image with the
    two summands swapped, so one passes iff the other does, and only the
    quadruples with j < k are visited.  Of each such pair the one with
    j < k comes first in lexicographic order, so the witness is the first
    failure of the full walk over all ordered quadruples.
    """
    for i, j, k, l in permutations(range(D.rank), 4):
        if j > k:
            continue
        tensor, bracket = _firm_quadruple(D, i, j, k, l)
        try:
            exact = induces_isomorphism(bracket, tensor.relations)
        except NotWellDefined:    # unchecked data that does not associate
            exact = False
        if not exact:
            kernel, image = bracket.kernel(), tensor.relations
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
