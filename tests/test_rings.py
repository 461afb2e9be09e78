from itertools import product

import pytest

from oracles import balanced_tensor_oracle
from rootring.abelian import AbHom, FinAbGroup
from rootring.errors import (InternalAlarm, NotIdempotent,
                             NotIdempotentFamily, PreconditionFailed)
from rootring.rings import (FinRing, LeftModule, PeirceRing, RelTensor,
                            RightModule, check_predicates, collapse_rank,
                            find_unit, is_firm, is_idempotent, is_reduced,
                            mat_ring, morita_ring, peirce_from_idempotents,
                            reduced_quotient, two_sided_annihilator,
                            universal_ring)
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


def test_matrix_ring_matches_block_mat_ring():
    for n in (2, 3):
        base = FinRing.zmod(n)
        flat = FinRing.matrix_ring(base, 2)
        blocky = mat_ring(2, base)
        assert flat.additive == blocky.additive
        assert flat.table == blocky._flat
        assert find_unit(blocky.as_finring()) == flat.unit


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
    M = RightModule(S.additive, S, S.table)
    N = LeftModule(S.additive, S, S.table)
    t = RelTensor(M, N)
    assert t.group.invariant_factors() == (4,)
    h = t.induced_hom(S.additive, S.mul)
    assert h.is_isomorphism()
    # zero action: nothing collapses beyond the Z-tensor
    G2 = FinAbGroup([2])
    Mz = RightModule(G2, S, {})
    Nz = LeftModule(G2, S, {})
    tz = RelTensor(Mz, Nz)
    assert tz.group.invariant_factors() == (2,)


def test_tensor_over_ring_matches_element_oracle():
    R = mat_ring(2, FinRing.zmod(4))
    i, j, k = 0, 1, 0
    from rootring.rings import _block_left_module, _block_right_module
    M = _block_right_module(R, i, j)
    N = _block_left_module(R, j, k)
    t = RelTensor(M, N)
    oracle = balanced_tensor_oracle(
        M.group, N.group, list(M.ring.additive.elements()),
        M.act, N.act)
    assert oracle.group.invariant_factors() == t.group.invariant_factors()
    cols = [oracle.pure(M.group.gen(a), N.group.gen(b))
            for (a, b) in t.tensor.pairs]
    iso = t.induced_hom(oracle.group,
                        lambda x, y: oracle.pure(x, y))
    assert iso.is_isomorphism()
    for m in M.group.elements():
        for n in N.group.elements():
            assert iso(t.pure(m, n)) == oracle.pure(m, n)


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
