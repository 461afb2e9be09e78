from itertools import permutations

import pytest

from rootring.abelian import FinAbGroup, Subgroup
from rootring.commrel import (CommRelData, Root, _firm_quadruple, _firm_rel,
                              _inert_kernel, all_roots, check_K_linear,
                              check_firm_rel, check_idempotent_rel,
                              check_reduced_rel, extract)
from rootring.corpus import corrupted_matrix, standard_corpus, zero_entry
from rootring.errors import PreconditionFailed
from rootring.rings import FinRing, PeirceRing, check_predicates, mat_ring


def _ut_ring(rank, n):
    """Upper triangular rank x rank matrices over Z/n, one entry a block."""
    Z = FinAbGroup([n])
    T = FinAbGroup([])
    blocks = {(i, j): (Z if i <= j else T)
              for i in range(rank) for j in range(rank)}
    tables = {(i, j, k): {(0, 0): (1,)}
              for i in range(rank) for j in range(rank) for k in range(rank)
              if i <= j <= k}
    return PeirceRing(rank, n, blocks, tables)


def _without_module(D, dead):
    """Copy of D with one module zeroed and every map touching it dropped."""
    modules = dict(D.modules)
    modules[dead] = FinAbGroup([])
    cmaps = {}
    for (i, j, k), tab in D.cmaps.items():
        if dead in ((i, j), (j, k), (i, k)):
            continue
        cmaps[(i, j, k)] = tab
    return CommRelData(D.rank, D.modulus, modules, cmaps, check=False)


def test_root_arithmetic_matches_vectors():
    for rank in (2, 3, 4, 5, 6):
        roots = all_roots(rank)
        byvec = {r.vector(rank): r for r in roots}
        for a in roots:
            va = a.vector(rank)
            assert -a == byvec[tuple(-c for c in va)]
            for b in roots:
                s = tuple(x + y for x, y in zip(va, b.vector(rank)))
                assert (a + b) == byvec.get(s)


def test_root_addition_examples():
    assert Root(0, 1) + Root(1, 2) == Root(0, 2)
    assert Root(1, 2) + Root(0, 1) == Root(0, 2)
    assert Root(0, 1) + Root(1, 0) is None
    assert Root(0, 1) + Root(2, 3) is None


def test_extract_mat4():
    D = extract(mat_ring(4, FinRing.zmod(2)))
    assert D.rank == 4 and D.modulus == 2
    assert len(D.modules) == 12
    assert all(G.orders == (2,) for G in D.modules.values())
    assert len(D.cmaps) == 24
    assert D.cvalue(0, 1, 2, (1,), (1,)) == (1,)


def test_extract_keeps_zero_blocks():
    D = extract(_ut_ring(4, 2))
    assert D.module(1, 0).dim == 0
    assert D.module(0, 1).orders == (2,)
    assert (1, 0, 2) not in D.cmaps


def test_construction_rejects_nonassociative_maps():
    with pytest.raises(ValueError):
        extract(corrupted_matrix(4, 2))


def test_idempotent_rel():
    ok, wit = check_idempotent_rel(extract(mat_ring(4, FinRing.zmod(2))))
    assert ok and wit is None
    ok, wit = check_idempotent_rel(extract(_ut_ring(4, 2)))
    assert not ok and wit == (0, 2, 1)
    ok, wit = check_idempotent_rel(extract(zero_entry(4, 2).ring))
    assert not ok and wit == (0, 1, 2)
    T = FinAbGroup([])
    vacuous = CommRelData(4, 2, {(r.i, r.j): T for r in all_roots(4)}, {})
    assert check_idempotent_rel(vacuous) == (True, None)


def test_K_linear():
    ok, _ = check_K_linear(extract(mat_ring(3, FinRing.zmod(4))))
    assert ok
    Z4 = FinAbGroup([4])
    bad = CommRelData(2, 2, {(0, 1): Z4, (1, 0): Z4}, {})
    assert check_K_linear(bad) == (False, (0, 1))
    Z2 = FinAbGroup([2])
    fine = CommRelData(2, 4, {(0, 1): Z2, (1, 0): Z2}, {})
    assert check_K_linear(fine) == (True, None)


def test_firm_rel_matrix_rings():
    for n in (2, 3):
        ok, wit = check_firm_rel(extract(mat_ring(4, FinRing.zmod(n))))
        assert ok, wit


def test_firm_rel_needs_idempotent():
    with pytest.raises(PreconditionFailed):
        check_firm_rel(extract(_ut_ring(4, 2)))


def _exactness(D, i, j, k, l):
    """(kernel, image, ambient) of _firm_quadruple(D, i, j, k, l): the
    kernel of the bracket and the relations, in the direct sum of the
    U_ij (x) U_jl and U_ik (x) U_kl."""
    tensor, bracket = _firm_quadruple(D, i, j, k, l)
    return bracket.kernel(), tensor.relations, tensor.ambient


def test_firm_quadruple_detects_zeroed_module():
    D = _without_module(extract(mat_ring(4, FinRing.zmod(2))), (2, 1))
    with pytest.raises(PreconditionFailed):
        check_firm_rel(D)
    kernel, image, _ = _exactness(D, 0, 2, 3, 1)
    assert kernel != image
    assert kernel.is_trivial() and not image.is_trivial()


def _rank4_data():
    """The rank-4 corpus data, and mat_ring(4, Z/2) data with one module
    zeroed for each of three roots."""
    out = [extract(e.ring) for e in standard_corpus() if e.ring.rank == 4]
    clean = extract(mat_ring(4, FinRing.zmod(2)))
    return out + [_without_module(clean, dead)
                  for dead in ((2, 1), (0, 3), (1, 0))]


def _swapped(sub, split, ambient):
    """`sub` of A + B moved into `ambient` = B + A, A of dimension split."""
    return Subgroup(ambient, [v[split:] + v[:split] for v in sub.basis()])


def test_firm_quadruple_is_symmetric_in_the_middle_pair():
    for D in _rank4_data():
        for i, j, k, l in permutations(range(4), 4):
            kernel, image, amb = _exactness(D, i, j, k, l)
            kernel2, image2, amb2 = _exactness(D, i, k, j, l)
            split = amb.parts[0].dim
            assert amb2.parts == amb.parts[::-1]
            assert kernel2 == _swapped(kernel, split, amb2.group)
            assert image2 == _swapped(image, split, amb2.group)


def _firm_rel_over_all_quadruples(D):
    """_firm_rel written out over every ordered quadruple."""
    for quad in permutations(range(D.rank), 4):
        kernel, image, _ = _exactness(D, *quad)
        for a, b in ((kernel, image), (image, kernel)):
            culprit = next((v for v in a.basis() if not b.contains(v)), None)
            if culprit is not None:
                return False, (quad, culprit)
    return True, None


def test_firm_rel_witness_matches_the_full_walk():
    verdicts = []
    for D in _rank4_data():
        got = _firm_rel(D)
        assert got == _firm_rel_over_all_quadruples(D)
        verdicts.append(got[0])
    assert True in verdicts and False in verdicts


def test_reduced_rel_matrix_rings():
    for n in (2, 3):
        ok, wit = check_reduced_rel(extract(mat_ring(4, FinRing.zmod(n))))
        assert ok, wit


def _with_null_summand(D, root):
    """Copy of D where `root`'s module gains a summand no map touches."""
    i, j = root
    old = D.modules[root]
    modules = dict(D.modules)
    modules[root] = FinAbGroup(list(old.orders) + [2])
    cmaps = {}
    for (a, b, c), tab in D.cmaps.items():
        if (a, c) == root:
            tab = {k: v + (0,) for k, v in tab.items()}
        cmaps[(a, b, c)] = tab
    return CommRelData(D.rank, D.modulus, modules, cmaps)


def test_inert_kernel_detects_null_summand():
    D = _with_null_summand(extract(mat_ring(4, FinRing.zmod(2))), (0, 1))
    with pytest.raises(PreconditionFailed):
        check_reduced_rel(D)
    ker = _inert_kernel(D, (0, 1, 2), 0, 1)
    assert not ker.is_trivial()
    assert ker.basis() == [(0, 1)]


def test_ring_predicates_transfer_to_data():
    for entry in standard_corpus():
        R = entry.ring
        rep = check_predicates(R)
        D = extract(R)
        if rep.idempotent:
            assert check_idempotent_rel(D)[0], entry.name
            if rep.firm:
                assert check_firm_rel(D)[0], entry.name
            if rep.reduced:
                assert check_reduced_rel(D)[0], entry.name
        assert D.associativity_failures(limit=3) == []
