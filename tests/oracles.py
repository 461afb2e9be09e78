"""Independent brute-force constructions used to cross-check the library.

Everything here is deliberately naive: free abelian groups on *element*
pairs (not generator pairs), relation lattices built one vector at a time,
exhaustive searches over whole rings.  Slow but obviously correct, which is
the point.
"""

from rootring.abelian import FinAbGroup
from rootring.smith import smith_normal_form


def _present(k, rels):
    """Z^k modulo the span of the rows `rels`, which must have full rank:
    the invariant factors above 1 and the projection of a length-k vector
    onto them, read from U in U B V = S for the rows as the columns of B."""
    S, U, *_ = smith_normal_form([[v[i] for v in rels] for i in range(k)],
                                 transforms="U")
    diag = [S[i][i] if i < len(rels) else 0 for i in range(k)]
    if 0 in diag:
        raise ValueError("relation lattice does not have full rank")
    kept = [i for i in range(k) if diag[i] > 1]

    def proj(v):
        support = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum(U[i][j] * x for j, x in support) % diag[i]
                     for i in kept)
    return [diag[i] for i in kept], proj


def _free_pairs(ea, eb):
    pos = {}
    for i, a in enumerate(ea):
        for j, b in enumerate(eb):
            pos[(a, b)] = i * len(eb) + j
    return pos, len(ea) * len(eb)


def _step_relations(A, B, ea, eb, pos, k):
    """Biadditivity one generator step at a time:
    (a + g, b) - (a, b) - (g, b) for group generators g, and symmetrically."""
    rels = []
    for a in ea:
        for g in A.gens():
            ag = A.add(a, g)
            for b in eb:
                v = [0] * k
                v[pos[(ag, b)]] += 1
                v[pos[(a, b)]] -= 1
                v[pos[(g, b)]] -= 1
                rels.append(v)
    for b in eb:
        for g in B.gens():
            bg = B.add(b, g)
            for a in ea:
                v = [0] * k
                v[pos[(a, bg)]] += 1
                v[pos[(a, b)]] -= 1
                v[pos[(a, g)]] -= 1
                rels.append(v)
    # pin (0, b) and (a, 0) to zero so the lattice has full rank even for
    # one-element factors
    for b in eb:
        v = [0] * k
        v[pos[(A.zero, b)]] = 1
        rels.append(v)
    for a in ea:
        v = [0] * k
        v[pos[(a, B.zero)]] = 1
        rels.append(v)
    return rels


class PairsOracle:
    """Quotient of the free abelian group on all element pairs of A x B by
    biadditivity (and optionally more relations).  `pure(a, b)` gives the
    class of a pair, `group` the abstract quotient."""

    def __init__(self, A, B, extra_relations=()):
        ea = list(A.elements())
        eb = list(B.elements())
        pos, k = _free_pairs(ea, eb)
        rels = _step_relations(A, B, ea, eb, pos, k)
        for v in extra_relations:
            rels.append(list(v))
        orders, proj = _present(k, rels)
        self.group = FinAbGroup(orders)
        self.pos = pos
        self.k = k
        self._proj = proj

    def pure(self, a, b):
        v = [0] * self.k
        v[self.pos[(tuple(a), tuple(b))]] = 1
        return self.group.reduce(self._proj(v))


def tensor_oracle(A, B):
    """Z-tensor of two FinAbGroups, via element pairs."""
    return PairsOracle(A, B)


def balanced_tensor_oracle(M, N, s_elements, right_act, left_act):
    """M tensor N over a ring, via element pairs and middle relations
    (m.s, n) - (m, s.n) imposed for every element triple."""
    em = list(M.elements())
    en = list(N.elements())
    pos, k = _free_pairs(em, en)
    extra = []
    for m in em:
        for s in s_elements:
            ms = right_act(m, s)
            for n in en:
                sn = left_act(s, n)
                v = [0] * k
                v[pos[(tuple(ms), n)]] += 1
                v[pos[(m, tuple(sn))]] -= 1
                extra.append(v)
    return PairsOracle(M, N, extra_relations=extra)


def quasi_inverse_oracle(ring, x):
    """Exhaustive search for y with x*y + x + y == 0 == y*x + x + y.
    Returns the unique such y, or None."""
    G = ring.additive
    found = None
    for y in G.elements():
        lhs = G.add(G.add(ring.mul(x, y), x), y)
        rhs = G.add(G.add(ring.mul(y, x), x), y)
        if not any(lhs) and not any(rhs):
            # quasi-inverses are unique when they exist
            # assert found is None
            found = y
    return found
