import random
from functools import partial
from itertools import product
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import balanced_tensor_oracle
from test_corpus_digests import annihilated_mat4
from rootring.abelian import (AbHom, DirectSum, FinAbGroup, Subgroup,
                              TensorGroup, induced_map, induces_isomorphism,
                              quotient)
from rootring.corpus import (corrupted_matrix, grouped_entry, morita_entry,
                             standard_corpus, zero_entry)
from rootring.errors import (InternalAlarm, NotIdempotent,
                             NotIdempotentFamily, NotWellDefined,
                             PreconditionFailed)
from rootring.rings import (ZERO_TABLE, FinRing, LeftModule, PeirceHom,
                            PeirceRing, RelTensor, RightModule, Table,
                            bilinear_apply, check_predicates, collapse_rank,
                            find_unit, is_firm, is_idempotent, is_reduced,
                            mat_ring, morita_ring, nonassociative_triples,
                            peirce_from_idempotents, reduced_quotient,
                            regroup, two_sided_annihilator, universal_ring)
from rootring.rings import _annihilator_blocks, _is_reduced_given


def test_zmod():
    R = FinRing.zmod(6)
    assert R.mul((4,), (5,)) == (2,)
    assert R.unit == (1,)
    assert R.modulus == 6
    assert find_unit(R) == (1,)


def test_constructor_rejects_nonassociative():
    G = FinAbGroup([2, 2])
    # a*a = b, a*b = a is not associative
    with pytest.raises(ValueError):
        FinRing(G, {(0, 0): (0, 1), (0, 1): (1, 0)})


def test_constructor_rejects_bad_orders():
    G = FinAbGroup([2, 4])
    # product of two order-2 generators cannot have order 4
    with pytest.raises(ValueError):
        FinRing(G, {(0, 0): (0, 1)})


# the bases of the matrix-ring tests: three cyclic rings and one of
# dimension 2, so that blocks have more than one generator
BASES = [FinRing.zmod(2), FinRing.zmod(4), FinRing.zmod(6),
         FinRing.direct_product(FinRing.zmod(2), FinRing.zmod(3))]
BASE_IDS = ["2", "4", "6", "2x3"]


def _entrywise_matrix_ring(base, size):
    """size x size matrices over `base` as a flat FinRing, written out
    entry by entry (row-major) with the diagonal unit: the reference for
    FinRing.matrix_ring and mat_ring, sharing no code with them."""
    bd = base.additive.dim
    ds = DirectSum([base.additive] * (size * size))

    def slot(r, c):
        return r * size + c

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
    unit = ds.group.sum(ds.embed(slot(r, r), base.unit) for r in range(size))
    return FinRing(ds.group, table, unit=unit, modulus=base.modulus)


def test_matrix_ring_matches_block_mat_ring():
    for base in BASES:
        for size in (1, 2, 3):
            ref = _entrywise_matrix_ring(base, size)
            flat = FinRing.matrix_ring(base, size)
            blocky = mat_ring(size, base)
            assert flat.additive == blocky.additive == ref.additive
            assert flat.table == blocky._flat == ref.table
            assert flat.unit == ref.unit == find_unit(blocky.as_finring())
            assert flat.modulus == blocky.modulus == ref.modulus


@pytest.mark.parametrize("make", [
    lambda: morita_entry().ring,
    lambda: grouped_entry(5, 4, [[4, 1], [0], [2, 3]]).ring,
    lambda: annihilated_mat4(),
], ids=["morita", "grouped5_z4", "annihilated4"])
def test_flat_table_is_the_checked_table_of_its_blocks(make):
    # the flat table is built on first use, with the entries, order and
    # row index that reducing and checking the embedded entries gives
    R = make()
    assert R._flat_table is None
    G, offset = R.additive, R.ds.offsets
    ref = Table({(offset[R._slot[(i, j)]] + a, offset[R._slot[(j, k)]] + b):
                 R.embed(i, k, v)
                 for (i, j, k), tab in R.tables.items()
                 for (a, b), v in tab.items()}, G, G, G)
    assert R._flat == ref and R._flat.rows == ref.rows
    assert list(R._flat) == list(ref)
    assert R._flat is R._flat


def test_mat_ring_block_products():
    R = mat_ring(3, FinRing.zmod(2))
    e01 = R.block(0, 1).gen(0)
    e12 = R.block(1, 2).gen(0)
    assert R.block_mul(0, 1, 2, e01, e12) == R.block(0, 2).gen(0)
    # total-vector multiplication agrees with matrix units
    x = R.embed(0, 1, e01)
    y = R.embed(1, 2, e12)
    assert R.mul(x, y) == R.embed(0, 2, R.block(0, 2).gen(0))
    assert R.mul(y, x) == R.additive.zero


@st.composite
def tables_and_vectors(draw):
    """A raw table on groups of exponent n (target orders divide n, so any
    value respects the generator orders) with empty and multi-entry rows,
    values of several non-unit coordinates, and two argument vectors."""
    n = draw(st.sampled_from([2, 3, 4, 6, 8, 9]))
    left = FinAbGroup([n] * draw(st.integers(1, 4)))
    right = FinAbGroup([n] * draw(st.integers(1, 4)))
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    target = FinAbGroup(draw(st.lists(st.sampled_from(divisors),
                                      min_size=1, max_size=3)))
    keys = draw(st.lists(st.tuples(st.integers(0, left.dim - 1),
                                   st.integers(0, right.dim - 1)),
                         unique=True, max_size=left.dim * right.dim))
    raw = {k: tuple(draw(st.integers(-n, 2 * n)) for _ in range(target.dim))
           for k in keys}

    def vector(G):
        unit = st.integers(0, G.dim - 1).map(
            lambda i: tuple(int(t == i) for t in range(G.dim)))
        return draw(st.one_of(
            st.just((0,) * G.dim),
            unit,
            unit.map(lambda u: tuple(-c for c in u)),
            st.tuples(unit, st.integers(2, 2 * n + 1)).map(
                lambda uc: tuple(c * uc[1] for c in uc[0])),
            st.tuples(*(st.integers(0, d - 1) for d in G.orders))))

    return left, right, target, raw, vector(left), vector(right)


@given(tables_and_vectors())
def test_bilinear_apply_is_the_double_sum(case):
    left, right, target, raw, x, y = case
    acc = [0] * target.dim
    for a in range(left.dim):
        for b in range(right.dim):
            for i, w in enumerate(raw.get((a, b), (0,) * target.dim)):
                acc[i] += x[a] * y[b] * w
    expected = tuple(c % d for c, d in zip(acc, target.orders))
    table = Table(raw, left, right, target)
    assert bilinear_apply(table, x, y, target) == expected


def _corrupted(ring, rng):
    """A copy of `ring` with one to three table entries deleted or
    replaced, built without the associativity check."""
    tables = {key: dict(tab) for key, tab in ring.tables.items()}
    for _ in range(rng.randint(1, 3)):
        i, j, k = key = rng.choice(sorted(tables))
        tab = tables[key]
        if tab and rng.random() < 0.6:
            del tab[rng.choice(sorted(tab))]
        else:
            ab = (rng.randrange(ring.block(i, j).dim),
                  rng.randrange(ring.block(j, k).dim))
            tab[ab] = tuple(rng.randrange(d) for d in ring.block(i, k).orders)
    return PeirceRing(ring.rank, ring.modulus, ring.blocks, tables,
                      check=False)


def _brute_failures(R):
    """Every (quad, (a, b, c)) with (xy)z != x(yz), in loop order."""
    out = []
    for i, j, k, l in product(range(R.rank), repeat=4):
        dims = (R.block(i, j).dim, R.block(j, k).dim, R.block(k, l).dim)
        for a, b, c in product(*(range(d) for d in dims)):
            x, y, z = (tuple(int(t == g) for t in range(d))
                       for g, d in zip((a, b, c), dims))
            xy = R.block_mul(i, j, k, x, y)
            yz = R.block_mul(j, k, l, y, z)
            if R.block_mul(i, k, l, xy, z) != R.block_mul(i, j, l, x, yz):
                out.append(((i, j, k, l), (a, b, c), not any(xy)))
    return out


@pytest.mark.parametrize("make", [
    lambda: mat_ring(4, FinRing.zmod(2)),
    lambda: mat_ring(3, FinRing.zmod(4)),
    lambda: grouped_entry(4, 2, [[0], [1], [2, 3]]).ring,
], ids=["mat4_z2", "mat3_z4", "grouped4_z2"])
def test_associativity_walk_matches_brute_force(make):
    ring = make()
    total = only_xy_vanishes = 0
    for seed in range(20):
        R = _corrupted(ring, random.Random(seed))
        brute = _brute_failures(R)
        walked = list(nonassociative_triples(
            product(range(R.rank), repeat=4), R.block, R.block_mul))
        assert walked == [(quad, abc) for quad, abc, _ in brute]
        total += len(brute)
        only_xy_vanishes += sum(vanish for _q, _abc, vanish in brute)
    # the corruptions reach the skipped branch: failures where xy = 0
    assert only_xy_vanishes > 0 and total > only_xy_vanishes


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
@pytest.mark.parametrize("size", [2, 3, 4])
def test_matrix_ring_passes_the_check_it_skips(size, base):
    # matrix_ring, mat_ring and regroup build unchecked; run that check here
    M = FinRing.matrix_ring(base, size)
    assert M.associativity_failures() == []
    assert M.unit is not None
    for g in M.additive.gens():
        assert M.mul(M.unit, g) == g and M.mul(g, M.unit) == g
    R = mat_ring(size, base)
    assert R.associativity_failures(limit=10 ** 9) == []
    rng = random.Random(size)
    for partition in ([[t] for t in range(size)], _random_partition(size, rng),
                      _random_partition(size, rng)):
        assert regroup(R, partition).associativity_failures() == []
    assert collapse_rank(R).associativity_failures() == []


def _reference_multiplicativity(f, limit):
    """The (i, j, k), (a, b) with f(xy) != f(x) f(y), as a nested loop."""
    out = []
    l = f.source.rank
    for i in range(l):
        for j in range(l):
            Gij = f.source.blocks[(i, j)]
            for k in range(l):
                Gjk = f.source.blocks[(j, k)]
                for a in range(Gij.dim):
                    ga = Gij.gen(a)
                    for b in range(Gjk.dim):
                        gb = Gjk.gen(b)
                        lhs = f.homs[(i, k)](
                            f.source.block_mul(i, j, k, ga, gb))
                        rhs = f.target.block_mul(i, j, k, f.homs[(i, j)](ga),
                                                 f.homs[(j, k)](gb))
                        if lhs != rhs:
                            out.append(((i, j, k), (a, b)))
                            if len(out) >= limit:
                                return out
    return out


def _random_endo(G, rng):
    """A random endomorphism of G: each image coordinate of order c is a
    multiple of c / gcd(c, d) for a generator of order d."""
    return AbHom(G, G, [tuple(rng.randrange(c) * (c // gcd(c, d))
                              for c in G.orders) for d in G.orders])


@pytest.mark.parametrize("make", [
    lambda: mat_ring(3, FinRing.zmod(4)),
    lambda: grouped_entry(4, 2, [[0], [1], [2, 3]]).ring,
    lambda: morita_entry().ring,
    lambda: mat_ring(3, FinRing.direct_product(FinRing.zmod(2),
                                               FinRing.zmod(3))),
], ids=["mat3_z4", "grouped4_z2", "morita", "mat3_z2xz3"])
def test_multiplicativity_witnesses_match_nested_loop(make):
    R = make()
    failing = 0
    for seed in range(30):
        rng = random.Random(seed)
        homs = {ij: AbHom.identity(G) for ij, G in R.blocks.items()}
        for ij in rng.sample(sorted(R.blocks), rng.randint(1, 3)):
            homs[ij] = _random_endo(R.blocks[ij], rng)
        f = PeirceHom(R, R, homs)
        full = _reference_multiplicativity(f, 10 ** 9)
        assert f.multiplicativity_failures(limit=10 ** 9) == full
        assert f.multiplicativity_failures() == full[:1]
        assert f.is_ring_hom() == (not full)
        failing += bool(full)
    assert failing >= 20


def test_peirce_from_idempotents_grouped():
    M3 = FinRing.matrix_ring(FinRing.zmod(2), 3)
    G = M3.additive
    e1 = G.gen(0)            # E_11
    e2 = G.add(G.gen(4), G.gen(8))   # E_22 + E_33
    R, charts = peirce_from_idempotents(M3, [e1, e2])
    orders = {ij: R.block(*ij).order for ij in R.blocks}
    assert orders == {(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 16}
    # multiplication agrees with the ambient matrix ring through the charts
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for a in range(R.block(i, j).dim):
                    ga = R.block(i, j).gen(a)
                    for b in range(R.block(j, k).dim):
                        gb = R.block(j, k).gen(b)
                        lhs = charts[(i, k)].incl(
                            R.block_mul(i, j, k, ga, gb))
                        rhs = M3.mul(charts[(i, j)].incl(ga),
                                     charts[(j, k)].incl(gb))
                        assert lhs == rhs


def test_peirce_from_idempotents_rejects_bad_family():
    M2 = FinRing.matrix_ring(FinRing.zmod(2), 2)
    G = M2.additive
    with pytest.raises(NotIdempotentFamily):
        peirce_from_idempotents(M2, [G.gen(1), G.gen(2)])  # not idempotent
    with pytest.raises(NotIdempotentFamily):
        peirce_from_idempotents(M2, [G.gen(0), G.gen(0)])  # not orthogonal
    with pytest.raises(NotIdempotentFamily):
        peirce_from_idempotents(M2, [G.gen(0)])  # not complete
    with pytest.raises(PreconditionFailed):
        R = FinRing(G, M2.table, unit=None)
        peirce_from_idempotents(R, [G.gen(0), G.gen(3)])


def test_predicates_on_matrix_rings():
    for n in (2, 3, 4):
        R = mat_ring(3, FinRing.zmod(n))
        rep = check_predicates(R)
        assert rep.idempotent and rep.firm and rep.reduced


def test_predicates_on_split_ring():
    # Z/2 x Z/2 with the two obvious idempotents: off-diagonal blocks are
    # zero, so products cannot fill the diagonal through the other index
    R2 = FinRing.direct_product(FinRing.zmod(2), FinRing.zmod(2))
    R, _ = peirce_from_idempotents(
        R2, [R2.additive.gen(0), R2.additive.gen(1)])
    ok, wit = is_idempotent(R)
    assert not ok and wit == (0, 1, 0)
    assert not is_firm(R)[0]
    assert not is_reduced(R)[0]


def test_predicates_on_zero_ring():
    Z = PeirceRing(2, 2, {}, {})
    rep = check_predicates(Z)
    assert rep.idempotent and rep.firm and rep.reduced


# -- the balanced tensor of two modules, kept as a reference ----------------


class _ModuleTensor:
    """M (x)_S N for a right module M and a left module N over one ring S:
    the Z-tensor of the groups modulo m (x) s.n - m.s (x) n on generator
    triples, presented as a quotient.  The two-module tensor that
    `RelTensor` replaced, kept as a reference: it writes out its own
    relations."""

    def __init__(self, left, right):
        self.tensor = T = TensorGroup(left.group, right.group)
        rows = [T.group.sub(T.pure(m, right.act(s, n)),
                            T.pure(left.act(m, s), n))
                for m in left.group.gens()
                for s in left.ring.additive.gens()
                for n in right.group.gens()]
        self.quot = quotient(T.group, Subgroup(T.group, rows))
        self.group = self.quot.group

    def pure(self, m, n):
        return self.quot.proj(self.tensor.pure(m, n))

    def induced_hom(self, target, on_pure):
        return induced_map(self.tensor.hom(target, on_pure), self.quot)


def _diag_finring(R, j):
    return FinRing(R.blocks[(j, j)], R.tables.get((j, j, j), ZERO_TABLE),
                   modulus=R.modulus, check=False)


def _block_right_module(R, i, j):
    """R_ij as a right module over the diagonal ring R_jj."""
    return RightModule(R.blocks[(i, j)], _diag_finring(R, j),
                       R.tables.get((i, j, j), ZERO_TABLE), check=False)


def _block_left_module(R, j, k):
    """R_jk as a left module over the diagonal ring R_jj."""
    return LeftModule(R.blocks[(j, k)], _diag_finring(R, j),
                      R.tables.get((j, j, k), ZERO_TABLE), check=False)


def _firm_by_balanced_tensor(R):
    """is_firm written out as the two-module balanced tensor presents it:
    per triple, the quotient by the middle relations, the induced pairing
    map and its isomorphism test.  A product that is not well defined is
    reported with its triple."""
    for i, j, k in product(range(R.rank), repeat=3):
        t = _ModuleTensor(_block_right_module(R, i, j),
                          _block_left_module(R, j, k))
        try:
            h = t.induced_hom(R.blocks[(i, k)],
                              lambda x, y: R.block_mul(i, j, k, x, y))
        except NotWellDefined as e:
            raise NotWellDefined(str(e), witness=((i, j, k), e.witness))
        if not h.is_isomorphism():
            return False, (i, j, k)
    return True, None


def _outcome(fn, *args):
    """What fn(*args) returns, or the type, text and witness it raises."""
    try:
        return fn(*args)
    except NotWellDefined as e:
        return type(e), str(e), e.witness


def _with_bumped_entry(ring, key):
    """`ring` with the (0, 0) entry of table `key` increased by one."""
    tables = dict(ring.tables)
    tab = dict(tables[key])
    G = ring.blocks[(key[0], key[2])]
    tab[(0, 0)] = G.add(tab.get((0, 0), G.zero), G.gen(0))
    tables[key] = tab
    return PeirceRing(ring.rank, ring.modulus, dict(ring.blocks), tables,
                      check=False)


def _firm_cases():
    rings = [e.ring for e in standard_corpus()]
    rings += [zero_entry(4, 2).ring, corrupted_matrix(4, 2),
              corrupted_matrix(4, 3)]
    for n in (2, 3):
        clean = mat_ring(4, FinRing.zmod(n))
        rings += [_with_bumped_entry(clean, key)
                  for key in ((0, 1, 1), (1, 1, 2), (0, 0, 1))]
    return rings


def _replay_firm_witness(R, witness):
    """Check the triple of an is_firm witness ((i, j, k), row) once more
    on its own one-summand balanced tensor; returns what that raises."""
    (i, j, k), _row = witness
    B = RelTensor({j: (R.blocks[(i, j)], R.blocks[(j, k)])},
                  [(j, j, R.blocks[(j, j)], partial(R.block_mul, i, j, j),
                    partial(R.block_mul, j, j, k))])
    f = B.hom(R.blocks[(i, k)], {j: partial(R.block_mul, i, j, k)})
    with pytest.raises(NotWellDefined) as e:
        induces_isomorphism(f, B.relations)
    return e.value.witness


def test_is_firm_matches_the_balanced_tensor():
    seen = []
    for R in _firm_cases():
        got = _outcome(is_firm, R)
        assert got == _outcome(_firm_by_balanced_tensor, R), R
        seen.append(got[0])
        if got[0] is NotWellDefined:
            # the witness replays: its triple raises again with its row
            assert _replay_firm_witness(R, got[2]) == got[2][1]
    # the order test meets passes, failures and products that are not
    # well defined on the balanced tensor; over Z/2 the bumped (0, 0, 1)
    # entry is 0, so that ring is not firm at (0, 0, 1) instead
    assert True in seen and False in seen
    assert seen[-6:] == [NotWellDefined] * 2 + [False] + [NotWellDefined] * 3


def test_annihilator():
    G = FinAbGroup([2, 2])
    zero_mult = FinRing(G, {})
    R = PeirceRing(1, 2, {(0, 0): G}, {(0, 0, 0): {}})
    assert two_sided_annihilator(R).order() == 4
    M = mat_ring(2, FinRing.zmod(4))
    assert two_sided_annihilator(M).is_trivial()
    assert zero_mult.mul(G.gen(0), G.gen(1)) == G.zero


def _annihilated_extra(plain, blk):
    """`plain` with an extra Z/2 generator appended to block `blk`, all of
    whose products are zero."""
    n = plain.modulus
    blocks = dict(plain.blocks)
    blocks[blk] = FinAbGroup([n, 2])
    tables = {(i, j, k): {ab: v + (0,) if (i, k) == blk else v
                          for ab, v in tab.items()}
              for (i, j, k), tab in plain.tables.items()}
    return PeirceRing(plain.rank, n, blocks, tables)


def _annihilator_oracle(rank, n, blk):
    """Every element of Mat_rank(Z/n) + Z/2 (the extra generator sitting
    after e_blk) that kills each generator from both sides, by enumeration,
    in the block ring's total coordinates."""
    unit = {}
    orders = []
    for i, j in product(range(rank), repeat=2):
        unit[(i, j)] = len(orders)
        orders.append(n)
        if (i, j) == blk:
            orders.append(2)
    # e_ij e_jk = e_ik; the extra generator appears in no product
    table = {(unit[(i, j)], unit[(j, k)]): unit[(i, k)]
             for i, j, k in product(range(rank), repeat=3)}

    def mul(x, y):
        out = [0] * len(orders)
        for (p, q), r in table.items():
            out[r] += x[p] * y[q]
        return tuple(c % d for c, d in zip(out, orders))

    zero = (0,) * len(orders)
    gens = [tuple(int(t == g) for t in range(len(orders)))
            for g in range(len(orders))]
    return {x for x in product(*(range(d) for d in orders))
            if all(mul(x, g) == zero == mul(g, x) for g in gens)}


@pytest.mark.parametrize("rank, n, blk", [(3, 2, (0, 0)), (2, 4, (1, 0))])
def test_annihilator_matches_element_oracle(rank, n, blk):
    plain = mat_ring(rank, FinRing.zmod(n))
    R = _annihilated_extra(plain, blk)
    oracle = _annihilator_oracle(rank, n, blk)
    assert len(oracle) == 2
    assert set(two_sided_annihilator(R).elements()) == oracle
    parts = _annihilator_blocks(R)
    assert {ij: a.order() for ij, a in parts.items() if not a.is_trivial()} \
        == {blk: 2}
    # the blockwise quotient is the plain matrix ring, block by block
    assert {ij: R.blocks[ij].order // a.order() for ij, a in parts.items()} \
        == {ij: G.order for ij, G in plain.blocks.items()}
    # the extra generator is no sum of products, so the ring is not
    # idempotent: is_reduced stops at that gate and reduced_quotient
    # refuses; past the gate the witness is the annihilating element
    ok, wit = is_reduced(R)
    assert not ok and wit[0] == "not idempotent"
    ok, wit = _is_reduced_given(R, (True, None))
    assert not ok and wit[0] == "annihilator element"
    assert wit[1] in oracle and any(wit[1])
    rep = check_predicates(R)
    assert (rep.reduced, rep.reduced_witness) == is_reduced(R)
    assert (rep.idempotent, rep.idempotent_witness) == is_idempotent(R)
    with pytest.raises(NotIdempotent):
        reduced_quotient(R)


def test_module_actions_reject_nonassociative():
    S = FinRing.direct_product(FinRing.zmod(2), FinRing.zmod(2))
    # m e1 = m e2 = m, but e1 e2 = 0
    with pytest.raises(ValueError, match="associative"):
        RightModule(FinAbGroup([2]), S, {(0, 0): (1,), (0, 1): (1,)})
    with pytest.raises(ValueError, match="associative"):
        LeftModule(FinAbGroup([2]), S, {(0, 0): (1,), (1, 0): (1,)})


def test_tensor_over_ring_examples():
    # Z/4 over itself: balanced tensor collapses back to Z/4
    S = FinRing.zmod(4)
    G = S.additive
    t = RelTensor({0: (G, G)}, [(0, 0, G, S.mul, S.mul)])
    assert t.quot.group.invariant_factors() == (4,)
    h = t.induced_hom(G, {0: S.mul})
    assert h.is_isomorphism()
    assert induces_isomorphism(t.hom(G, {0: S.mul}), t.relations)
    # zero action: nothing collapses beyond the Z-tensor
    G2 = FinAbGroup([2])
    tz = RelTensor({0: (G2, G2)}, [(0, 0, G, lambda m, s: G2.zero,
                                    lambda s, n: G2.zero)])
    assert tz.quot.group.invariant_factors() == (2,)


def test_tensor_over_ring_matches_element_oracle():
    R = mat_ring(2, FinRing.zmod(4))
    i, j, k = 0, 1, 0
    M, N = R.blocks[(i, j)], R.blocks[(j, k)]
    right_act = partial(R.block_mul, i, j, j)
    left_act = partial(R.block_mul, j, j, k)
    t = RelTensor({j: (M, N)}, [(j, j, R.blocks[(j, j)], right_act,
                                 left_act)])
    oracle = balanced_tensor_oracle(
        M, N, list(R.blocks[(j, j)].elements()), right_act, left_act)
    assert oracle.group.invariant_factors() == \
        t.quot.group.invariant_factors()
    iso = t.induced_hom(oracle.group, {j: oracle.pure})
    assert iso.is_isomorphism()
    for m in M.elements():
        for n in N.elements():
            assert iso(t.pure(j, m, n)) == oracle.pure(m, n)


def test_rel_tensor_presents_its_quotient_on_first_use(monkeypatch):
    import rootring.rings as rings_module
    rings = [mat_ring(3, FinRing.zmod(2)), morita_entry().ring]
    S = FinRing.zmod(4)
    calls = []

    def counted(G, H):
        calls.append(G)
        return quotient(G, H)
    monkeypatch.setattr(rings_module, "quotient", counted)
    for R in rings:
        assert is_firm(R) == (True, None)
    t = RelTensor({0: (S.additive, S.additive)},
                  [(0, 0, S.additive, S.mul, S.mul)])
    assert calls == []
    assert t.quot is t.quot and len(calls) == 1


def test_collapse_rank():
    R = mat_ring(3, FinRing.zmod(2))
    C = collapse_rank(R)
    assert C.rank == 2
    orders = {ij: C.block(*ij).order for ij in C.blocks}
    assert orders == {(0, 0): 2, (0, 1): 4, (1, 0): 4, (1, 1): 16}
    assert C.additive.order == R.additive.order
    rep = check_predicates(C)
    assert rep.idempotent and rep.firm and rep.reduced


def test_morita_ring():
    R2 = FinRing.zmod(2)
    P = RightModule(FinAbGroup([2, 2]), R2,
                    {(0, 0): (1, 0), (1, 0): (0, 1)})
    Q = LeftModule(FinAbGroup([2, 2]), R2,
                   {(0, 0): (1, 0), (0, 1): (0, 1)})
    pairing = {(0, 0): (1,), (1, 1): (1,)}  # dot product
    M = morita_ring(R2, P, Q, pairing)
    assert M.block(0, 0).order == 16
    assert M.block(0, 1).order == 4
    assert M.block(1, 1).order == 2
    rep = check_predicates(M)
    assert rep.idempotent and rep.firm and rep.reduced


def test_morita_rejects_bad_pairing():
    from rootring.errors import PairingNotSurjective
    R2 = FinRing.zmod(2)
    P = RightModule(FinAbGroup([2]), R2, {(0, 0): (1,)})
    Q = LeftModule(FinAbGroup([2]), R2, {(0, 0): (1,)})
    with pytest.raises(PairingNotSurjective):
        morita_ring(R2, P, Q, {})


def test_morita_rejects_nonlinear_pairing():
    S = FinRing.direct_product(FinRing.zmod(2), FinRing.zmod(2))
    Q = LeftModule(FinAbGroup([2]), S, {(0, 0): (1,)})  # e1 q = q
    # q p = e2 while e1 q = q and p e1 = p: linear on neither side
    P = RightModule(FinAbGroup([2]), S, {(0, 0): (1,)})
    with pytest.raises(PreconditionFailed,
                       match=r"left R-linear at \(0, 0, 0\)"):
        morita_ring(S, P, Q, {(0, 0): (0, 1)})
    # q p = e1 with p e2 = p: left linear, but (q p) e1 != q (p e1) = 0
    P = RightModule(FinAbGroup([2]), S, {(0, 1): (1,)})
    with pytest.raises(PreconditionFailed,
                       match=r"right R-linear at \(0, 0, 0\)"):
        morita_ring(S, P, Q, {(0, 0): (1, 0)})


def test_universal_ring_on_firm_input():
    R = mat_ring(2, FinRing.zmod(2))
    U, hom = universal_ring(R)
    assert hom.is_ring_hom()
    assert hom.is_blockwise_iso()
    assert is_firm(U)[0]


def _flat_strip_universal_ring(R):
    """universal_ring as it was built before the blockwise balanced tensor:
    every block R_ij is (row i) tensor_R (col j) over the whole flat ring,
    row and column strips as modules over it.  Returns (ring, hom,
    tensors), tensors[(i, j)] the `_ModuleTensor` behind block (i, j).
    R must be idempotent."""
    l = R.rank
    total = R.as_finring()
    G = total.additive

    def strip(parts, side):
        """The blocks `parts` of R summed into one group: the module it is
        over the total ring acting on `side`, its inclusion into the total
        ring (each generator embedded once) and the projection back."""
        ds = DirectSum([R.blocks[ij] for ij in parts])
        incl = AbHom(ds.group, G, [R.embed(*ij, g) for ij in parts
                                   for g in R.blocks[ij].gens()])

        def project(vec):
            return ds.assemble([R.project(*ij, vec) for ij in parts])

        if side == "right":
            mod = RightModule(ds.group, total, {
                (a, s): project(total.mul(x, g))
                for a, x in enumerate(incl.cols)
                for s, g in enumerate(G.gens())}, check=False)
        else:
            mod = LeftModule(ds.group, total, {
                (s, a): project(total.mul(g, x))
                for s, g in enumerate(G.gens())
                for a, x in enumerate(incl.cols)}, check=False)
        return mod, incl, project

    row_mod, row_incl, row_proj = zip(*(
        strip([(i, j) for j in range(l)], "right") for i in range(l)))
    col_mod, col_incl, _ = zip(*(
        strip([(i, j) for i in range(l)], "left") for j in range(l)))
    tens = {(i, j): _ModuleTensor(row_mod[i], col_mod[j])
            for i in range(l) for j in range(l)}
    blocks = {ij: tens[ij].group for ij in tens}
    sections = {ij: [t.quot.section(g) for g in t.group.gens()]
                for ij, t in tens.items()}

    # (x (x) y)(x2 (x) y2) = x (y x2) (x) y2, summed over the tensor
    # coordinates of the sections of two generators
    tables = {}
    for i, j, k in product(range(l), repeat=3):
        tij, tjk, tik = tens[(i, j)], tens[(j, k)], tens[(i, k)]
        xs, ys, x2s = row_incl[i].cols, col_incl[j].cols, row_incl[j].cols
        y2s = tjk.tensor.right.gens()
        tab = {}
        for a, ca in enumerate(sections[(i, j)]):
            for b, cb in enumerate(sections[(j, k)]):
                acc = tik.group.zero
                for c1, (p1, p2) in zip(ca, tij.tensor.pairs):
                    if not c1:
                        continue
                    for c2, (q1, q2) in zip(cb, tjk.tensor.pairs):
                        if c2:
                            x = row_proj[i](total.mul(xs[p1], total.mul(
                                ys[p2], x2s[q1])))
                            acc = tik.group.add(acc, tik.group.scale(
                                c1 * c2, tik.pure(x, y2s[q2])))
                tab[(a, b)] = acc
        tables[(i, j, k)] = tab

    out = PeirceRing(l, R.modulus, blocks, tables)
    homs = {(i, j): t.induced_hom(
        R.blocks[(i, j)], lambda x, y, i=i, j=j: R.project(
            i, j, total.mul(row_incl[i](x), col_incl[j](y))))
        for (i, j), t in tens.items()}
    return out, PeirceHom(out, R, homs), tens


def _left_ideal():
    """A = M_2(F_2)e_11, the matrices over F_2 that vanish off the first
    column, as (Z/2)^2 with (a, b)(c, d) = (ac, bc): a ring with no unit
    whose matrix rings are idempotent, firm and reduced."""
    A = FinRing(FinAbGroup([2, 2]), {(0, 0): (1, 0), (1, 0): (0, 1)})
    assert find_unit(A) is None
    return A


def _blockwise_tensors(R):
    """The balanced tensors behind the blocks of universal_ring(R), written
    out again: block (i, j) sums R_ik (x) R_kj over k, modulo the relations
    through every R_km.  Their quotients must be the blocks it built."""
    idx = range(R.rank)
    return {(i, j): RelTensor(
        {k: (R.blocks[(i, k)], R.blocks[(k, j)]) for k in idx},
        [(k, m, R.blocks[(k, m)], partial(R.block_mul, i, k, m),
          partial(R.block_mul, k, m, j)) for k in idx for m in idx])
        for i in idx for j in idx}


def test_universal_ring_matches_the_flat_strip_construction():
    rings = [e.ring for e in standard_corpus() if is_idempotent(e.ring)[0]]
    assert len(rings) == 15
    # at rank 1 the relations through R_00 are all there is; from rank 2 on
    # those through R_kk follow from the others, as R_kk = R_km R_mk, and
    # over A the rank-1 tensor A (x)_A A is smaller than A (x) A
    for rank in (1, 4):
        R = mat_ring(rank, _left_ideal())
        rep = check_predicates(R)
        assert rep.idempotent and rep.firm and rep.reduced
        rings.append(R)
    for R in rings:
        U, can = universal_ring(R)
        old, old_can, old_tens = _flat_strip_universal_ring(R)
        # x (x) y in summand k of block (i, j) goes to the flat-strip tensor
        # of x in row strip i and y in column strip j, both at place k
        rows = [DirectSum([R.blocks[(i, m)] for m in range(R.rank)])
                for i in range(R.rank)]
        cols = [DirectSum([R.blocks[(m, j)] for m in range(R.rank)])
                for j in range(R.rank)]
        f = PeirceHom(U, old, {
            (i, j): B.induced_hom(old.blocks[(i, j)], {
                k: lambda x, y, i=i, j=j, k=k: old_tens[(i, j)].pure(
                    rows[i].embed(k, x), cols[j].embed(k, y))
                for k in range(R.rank)})
            for (i, j), B in _blockwise_tensors(R).items()})
        assert f.is_ring_hom() and f.is_blockwise_iso(), R
        for ij, h in f.homs.items():
            assert old_can.homs[ij].compose(h) == can.homs[ij], (R, ij)
        assert can.is_ring_hom() and can.is_blockwise_iso()
        assert is_firm(U) == (True, None)


def test_universal_ring_requires_idempotent():
    R2 = FinRing.direct_product(FinRing.zmod(2), FinRing.zmod(2))
    R, _ = peirce_from_idempotents(
        R2, [R2.additive.gen(0), R2.additive.gen(1)])
    with pytest.raises(NotIdempotent):
        universal_ring(R)


def test_reduced_quotient_identity_when_reduced():
    R = mat_ring(2, FinRing.zmod(3))
    Q, hom = reduced_quotient(R)
    assert hom.is_ring_hom()
    assert hom.is_blockwise_iso()
    assert is_reduced(Q)[0]


def test_grouped_entry_refuses_a_bad_partition():
    with pytest.raises(PreconditionFailed):
        grouped_entry(2, 2, [[0], [0, 1]])    # index 0 twice
    with pytest.raises(PreconditionFailed):
        grouped_entry(2, 2, [[0]])            # index 1 missing


def test_regroup_names_the_bad_index():
    R = mat_ring(3, FinRing.zmod(2))
    with pytest.raises(PreconditionFailed, match="index 1 is in two parts"):
        regroup(R, [[0, 1], [1, 2]])
    with pytest.raises(PreconditionFailed, match="misses index 2"):
        regroup(R, [[0], [1]])
    with pytest.raises(PreconditionFailed, match="index 3 is out of range"):
        regroup(R, [[0], [1, 2, 3]])


def test_corpus_sources_have_their_unit():
    entries = [e for e in standard_corpus() if e.source is not None]
    assert len(entries) == 14
    for e in entries:
        S, G = e.source, e.source.additive
        assert S.unit is not None, e.name
        for g in G.gens():
            assert S.mul(S.unit, g) == g == S.mul(g, S.unit), e.name
        assert G.sum(e.idems) == S.unit, e.name


def _random_partition(size, rng):
    """range(size) cut into shuffled parts: parts come unsorted, out of
    order and non-contiguous."""
    order = list(range(size))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(1, size), rng.randint(0, size - 1)))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [size])]


def _idempotent_path(size, base, partition):
    """The entrywise matrix ring decomposed by peirce_from_idempotents along
    the diagonal idempotents summed over each part."""
    M = _entrywise_matrix_ring(base, size)
    G = M.additive
    idems = [G.sum(G.gen(t * size + t) for t in part) for part in partition]
    return peirce_from_idempotents(M, idems)[0]


def test_regroup_matches_the_idempotent_path():
    rng = random.Random(11)
    unsorted = split = 0
    for size in (2, 3, 4, 5, 6):
        for n in (2, 4, 6):
            for _ in range(2):
                partition = _random_partition(size, rng)
                ring = grouped_entry(size, n, partition).ring
                ref = _idempotent_path(size, FinRing.zmod(n), partition)
                assert ring.rank == ref.rank == len(partition)
                assert ring.blocks == ref.blocks, (size, n, partition)
                assert ring.tables == ref.tables, (size, n, partition)
                unsorted += any(p != sorted(p) for p in partition)
                split += any(max(p) - min(p) >= len(p) for p in partition)
    assert unsorted and split


def _flat_labels(R, partition):
    """For each flat coordinate of regroup(R, partition), the flat
    coordinate of R it stands for: cells in row-major order of the sorted
    parts, as `regroup` promises."""
    parts = [sorted(p) for p in partition]
    return [R.ds.offsets[R._slot[(i, j)]] + t
            for pa in parts for pb in parts for i in pa for j in pb
            for t in range(R.blocks[(i, j)].dim)]


def _assert_relabels_to(S, R, labels):
    """S is R with flat coordinate p renamed labels[p]."""
    assert sorted(labels) == list(range(R.additive.dim))
    assert tuple(R.additive.orders[c] for c in labels) == S.additive.orders

    def move(v):
        w = [0] * len(v)
        for p, x in enumerate(v):
            w[labels[p]] = x
        return tuple(w)

    assert {(labels[p], labels[q]): move(v)
            for (p, q), v in S._flat.items()} == R._flat


def _block_labels(S, labels):
    """{block of S: the labels of its coordinates, in order}."""
    return {ab: labels[S.ds.offsets[S._slot[ab]]:][:G.dim]
            for ab, G in S.blocks.items()}


def _in_flat_order(S, labels):
    return all(v == sorted(v) for v in _block_labels(S, labels).values())


REGROUP_RINGS = [
    lambda: mat_ring(3, FinRing.zmod(4)),
    lambda: mat_ring(2, BASES[3]),
    lambda: grouped_entry(5, 2, [[0], [1], [2], [3, 4]]).ring,
    lambda: morita_entry().ring,
    lambda: zero_entry(4, 2).ring,
    annihilated_mat4,
]
REGROUP_IDS = ["mat3_z4", "mat2_z2xz3", "grouped5", "morita", "zero4",
               "mat4_annihilated"]


@pytest.mark.parametrize("make", REGROUP_RINGS, ids=REGROUP_IDS)
def test_regroup_by_one_index_parts_is_the_identity(make):
    R = make()
    S = regroup(R, [[i] for i in range(R.rank)])
    assert (S.rank, S.modulus) == (R.rank, R.modulus)
    assert S.blocks == R.blocks
    assert S.tables == R.tables
    assert S._flat == R._flat


@pytest.mark.parametrize("make", REGROUP_RINGS, ids=REGROUP_IDS)
def test_regrouping_twice_is_one_regroup(make):
    R = make()
    rng = random.Random(R.rank)
    for _ in range(5):
        first = _random_partition(R.rank, rng)
        second = _random_partition(len(first), rng)
        merged = [[i for a in part for i in first[a]] for part in second]
        S1 = regroup(R, first)
        twice = regroup(S1, second)
        once = regroup(R, merged)
        labels1 = _flat_labels(R, first)
        twice_labels = [labels1[c] for c in _flat_labels(S1, second)]
        once_labels = _flat_labels(R, merged)
        for S, labels in ((S1, labels1), (twice, twice_labels),
                          (once, once_labels)):
            _assert_relabels_to(S, R, labels)
        assert _in_flat_order(S1, labels1)
        assert _in_flat_order(once, once_labels)
        # the same grading: each block holds the same coordinates of R; only
        # their order inside a block may differ
        assert {ab: sorted(v) for ab, v in
                _block_labels(twice, twice_labels).items()} == \
            _block_labels(once, once_labels)


@pytest.mark.parametrize("make", REGROUP_RINGS[3:], ids=REGROUP_IDS[3:])
def test_collapse_rank_keeps_flat_and_block_order(make):
    R = make()
    S = collapse_rank(R)
    assert S.rank == R.rank - 1
    labels = _flat_labels(
        R, [[i] for i in range(R.rank - 2)] + [[R.rank - 2, R.rank - 1]])
    _assert_relabels_to(S, R, labels)
    assert _in_flat_order(S, labels)
