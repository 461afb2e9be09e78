"""Desk-scale example rings shared by the test suite and the CLI.

Every entry is small enough for exhaustive checks: matrix rings over
Z/2, Z/3, Z/4 up to rank 4, two grouped decompositions of larger matrix
rings, a 2x2 context ring built from a bimodule pairing, and a zero ring
as the standard non-idempotent specimen.
"""

from dataclasses import dataclass, field

from .abelian import FinAbGroup, Subgroup
from .rings import (FinRing, LeftModule, PeirceRing, RightModule, mat_ring,
                    morita_ring, regroup)


@dataclass
class CorpusEntry:
    name: str
    ring: PeirceRing
    source: object = None      # unital FinRing the entry was carved from
    idems: list = field(default_factory=list)  # its orthogonal idempotents

    @property
    def unital_idems(self):
        return self.source is not None and bool(self.idems)


def matrix_entry(rank, n):
    entry = grouped_entry(rank, n, [[i] for i in range(rank)])
    entry.name = "mat_%d_z%d" % (rank, n)
    return entry


def grouped_entry(size, n, partition):
    """Mat(size, Z/n) with its blocks merged along `partition` (0-based
    index lists), its flat ring and one diagonal idempotent per part."""
    base = FinRing.zmod(n)
    M = FinRing.matrix_ring(base, size)
    ring = regroup(mat_ring(size, base), partition)
    G = M.additive
    idems = [G.sum(G.gen(t * size + t) for t in part) for part in partition]
    label = "x".join(str(len(p)) for p in partition)
    return CorpusEntry("grouped_%d_z%d_%s" % (size, n, label), ring,
                       source=M, idems=idems)


def morita_entry():
    """Context ring (S P; Q R) for R = Z/2, P = Q = (Z/2)^2 with the dot
    product pairing; S comes out as 2x2 matrices over Z/2."""
    R2 = FinRing.zmod(2)
    P = RightModule(FinAbGroup([2, 2]), R2,
                    {(0, 0): (1, 0), (1, 0): (0, 1)})
    Q = LeftModule(FinAbGroup([2, 2]), R2,
                   {(0, 0): (1, 0), (0, 1): (0, 1)})
    pairing = {(0, 0): (1,), (1, 1): (1,)}
    return CorpusEntry("morita_2", morita_ring(R2, P, Q, pairing))


def zero_entry(rank, n):
    Z = FinAbGroup([n])
    blocks = {(i, j): Z for i in range(rank) for j in range(rank)}
    return CorpusEntry("zero_%d_z%d" % (rank, n),
                       PeirceRing(rank, n, blocks, {}))


def corrupted_matrix(rank, n):
    """mat_ring with one multiplication entry replaced, skipping the
    construction checks; the standard negative-control fixture."""
    clean = mat_ring(rank, FinRing.zmod(n))
    tables = dict(clean.tables)
    bad = dict(tables[(0, 1, 2)])
    g = bad.get((0, 0), (0,))
    bad[(0, 0)] = tuple((c + 1) % n for c in g)
    tables[(0, 1, 2)] = bad
    return PeirceRing(rank, n, dict(clean.blocks), tables, check=False)


def standard_corpus():
    entries = []
    for n in (2, 3, 4):
        for rank in (1, 2, 3, 4):
            entries.append(matrix_entry(rank, n))
    entries.append(grouped_entry(3, 2, [[0], [1, 2]]))
    entries.append(grouped_entry(5, 2, [[0], [1], [2], [3, 4]]))
    entries.append(morita_entry())
    entries.append(zero_entry(4, 2))
    return entries


def is_full_idempotent(R, e):
    """Whether R e R = R, computed from products of generators."""
    G = R.additive
    gens = [R.mul(R.mul(x, e), y) for x in G.gens() for y in G.gens()]
    return Subgroup(G, gens).is_full()


def fullness_of_idempotents(entry):
    """For a unital source ring: whether every idempotent is full."""
    return all(is_full_idempotent(entry.source, e) for e in entry.idems)
