from itertools import permutations

import pytest

from rootring.abelian import (AbHom, DirectSum, FinAbGroup, Subgroup,
                              induced_map, quotient)
from rootring.commrel import CommRelData, all_roots, extract
from rootring.coordinatize import (DERIVED_PATTERNS, HYPOTHESIS_PATTERNS,
                                   _diagonal_presentation,
                                   _pair_quotient_bijective, _pattern_name,
                                   connecting_hom,
                                   firm_coordinatize, reduced_coordinatize,
                                   relation_subgroup,
                                   verify_associativity_patterns)
from rootring.corpus import corrupted_matrix, grouped_entry, standard_corpus
from rootring.errors import (IndexClash, NotHomomorphism, PreconditionFailed,
                             RankTooSmall)
from rootring.rings import FinRing, PeirceRing, mat_ring


def _trivial_data(rank, n):
    return CommRelData(rank, n,
                       {(r.i, r.j): FinAbGroup([]) for r in all_roots(rank)},
                       {})


def test_relation_subgroup_matrix_examples():
    D2 = extract(mat_ring(4, FinRing.zmod(2)))
    A = relation_subgroup(D2, 0, 1, 2)
    assert sorted(A.elements()) == [(0, 0), (1, 1)]
    for (s, i, j) in ((1, 0, 2), (3, 2, 1), (2, 3, 0)):
        assert sorted(relation_subgroup(D2, s, i, j).elements()) == \
            [(0, 0), (1, 1)]

    D3 = extract(mat_ring(4, FinRing.zmod(3)))
    A3 = relation_subgroup(D3, 0, 1, 2)
    assert A3.order() == 3
    assert sorted(A3.elements()) == [(0, 0), (1, 2), (2, 1)]


def test_relation_subgroup_dead_module_and_index_clash():
    D = extract(mat_ring(4, FinRing.zmod(2)))
    modules = dict(D.modules)
    modules[(1, 2)] = FinAbGroup([])
    cmaps = {key: tab for key, tab in D.cmaps.items()
             if (1, 2) not in ((key[0], key[1]), (key[1], key[2]),
                               (key[0], key[2]))}
    D0 = CommRelData(4, 2, modules, cmaps, check=False)
    assert relation_subgroup(D0, 0, 1, 2).is_trivial()
    with pytest.raises(IndexClash):
        relation_subgroup(D, 0, 0, 2)


def test_firm_roundtrip_mat4_z2():
    R = mat_ring(4, FinRing.zmod(2))
    D = extract(R)
    res = firm_coordinatize(D)
    assert res.mode == "firm"
    assert [res.ring.blocks[(s, s)].order for s in range(4)] == [2, 2, 2, 2]
    assert res.predicates.idempotent and res.predicates.firm
    assert all(res.certificates["pair_quotient_bijective"].values())
    rep = connecting_hom(D, res, R)
    assert rep.is_isomorphism
    assert all(rep.bijective.values())


def test_firm_roundtrip_mat4_z3():
    R = mat_ring(4, FinRing.zmod(3))
    D = extract(R)
    res = firm_coordinatize(D)
    assert [res.ring.blocks[(s, s)].order for s in range(4)] == [3, 3, 3, 3]
    assert connecting_hom(D, res, R).is_isomorphism


def test_reduced_roundtrip_mat4():
    for n in (2, 3):
        R = mat_ring(4, FinRing.zmod(n))
        D = extract(R)
        res = reduced_coordinatize(D)
        assert res.mode == "reduced"
        assert [res.ring.blocks[(s, s)].order for s in range(4)] == [n] * 4
        assert res.predicates.idempotent and res.predicates.reduced
        rep = connecting_hom(D, res, R)
        assert rep.is_isomorphism


def test_grouped_mat5_roundtrip_both_modes():
    entry = grouped_entry(5, 2, [[0], [1], [2], [3, 4]])
    R = entry.ring
    D = extract(R)
    res_f = firm_coordinatize(D)
    res_r = reduced_coordinatize(D)
    for res in (res_f, res_r):
        assert res.ring.blocks[(3, 3)].order == 16
        assert [res.ring.blocks[(s, s)].order for s in range(3)] == [2, 2, 2]
        assert connecting_hom(D, res, R).is_isomorphism
    cross = connecting_hom(D, res_f, res_r.ring)
    assert cross.is_isomorphism


def test_trivial_data_gives_zero_ring():
    D = _trivial_data(4, 2)
    for build in (firm_coordinatize, reduced_coordinatize):
        res = build(D)
        assert res.ring.additive.order == 1


def test_uniqueness_under_summand_reordering():
    D = extract(mat_ring(4, FinRing.zmod(3)))
    first = firm_coordinatize(D)
    order = {s: sorted((i for i in range(4) if i != s), reverse=True)
             for s in range(4)}
    second = firm_coordinatize(D, summand_order=order)
    for s in range(4):
        assert second.diagonals[s].indices == tuple(order[s])
    rep = connecting_hom(D, first, second.ring)
    assert rep.is_isomorphism
    for i in range(4):
        for j in range(4):
            if i != j:
                G = first.ring.blocks[(i, j)]
                assert rep.hom.homs[(i, j)] == AbHom.identity(G)


def test_self_comparison_is_identity():
    D = extract(mat_ring(4, FinRing.zmod(2)))
    res = firm_coordinatize(D)
    rep = connecting_hom(D, res, res.ring)
    for s in range(4):
        G = res.ring.blocks[(s, s)]
        assert rep.hom.homs[(s, s)] == AbHom.identity(G)


def test_rank_gate():
    D = extract(mat_ring(3, FinRing.zmod(2)))
    with pytest.raises(RankTooSmall):
        firm_coordinatize(D)
    with pytest.raises(RankTooSmall):
        reduced_coordinatize(D)
    with pytest.raises(RankTooSmall):
        verify_associativity_patterns(mat_ring(3, FinRing.zmod(2)))


def test_precondition_gates():
    # nonzero modules with zero brackets are not idempotent
    Z = FinAbGroup([2])
    D = CommRelData(4, 2, {(r.i, r.j): Z for r in all_roots(4)}, {})
    with pytest.raises(PreconditionFailed):
        firm_coordinatize(D)
    with pytest.raises(PreconditionFailed):
        reduced_coordinatize(D)
    # modules that are no scalar modules for the stated modulus
    D4 = CommRelData(4, 2, {(r.i, r.j): FinAbGroup([4])
                            for r in all_roots(4)}, {})
    with pytest.raises(PreconditionFailed):
        firm_coordinatize(D4)


def test_connecting_hom_rejects_foreign_data():
    R2 = mat_ring(4, FinRing.zmod(2))
    R3 = mat_ring(4, FinRing.zmod(3))
    res = firm_coordinatize(extract(R2))
    with pytest.raises(PreconditionFailed):
        connecting_hom(extract(R2), res, R3)
    with pytest.raises(PreconditionFailed):
        connecting_hom(extract(R3), res, R3)


def test_connecting_hom_detects_non_homomorphism():
    R = mat_ring(4, FinRing.zmod(2))
    D = extract(R)
    res = firm_coordinatize(D)
    # same off-diagonal data over squashed diagonals is not a ring, and the
    # comparison map must notice
    blocks = {key: (FinAbGroup([]) if key[0] == key[1] else grp)
              for key, grp in R.blocks.items()}
    tables = {key: tab for key, tab in R.tables.items()
              if len(set(key)) == 3}
    fake = PeirceRing(4, 2, blocks, tables, check=False)
    assert extract(fake) == D
    with pytest.raises(NotHomomorphism):
        connecting_hom(D, res, fake)


def _pair_quotient_by_presenting(pres, i, j):
    """_pair_quotient_bijective written out the long way: present the
    two-summand quotient, induce the map to the diagonal block and test it
    for an isomorphism."""
    Ti, Tj = pres.tensors[i], pres.tensors[j]
    amb2 = DirectSum([Ti.group, Tj.group])
    rows = [amb2.group.sub(amb2.embed(p, a), amb2.embed(q, b))
            for p, q, ab in ((0, 1, pres.pairs[(i, j)]),
                             (1, 0, pres.pairs[(j, i)])) for a, b in ab]
    f = AbHom(amb2.group, pres.quot.group,
              [pres.quot.proj(pres.ambient.embed(pres.pos(k), e))
               for k, T in ((i, Ti), (j, Tj)) for e in T.group.gens()])
    q2 = quotient(amb2.group, Subgroup(amb2.group, rows))
    return induced_map(f, q2).is_isomorphism()


def test_pair_quotient_test_matches_presenting_it():
    presentations = []
    for entry in standard_corpus():
        if entry.ring.rank == 4 and entry.name != "zero_4_z2":
            built = firm_coordinatize(extract(entry.ring))
            presentations += built.diagonals.values()
    assert len(presentations) == 16
    # data with a zeroed module, where some two-summand quotients are too
    # big; the rebuild refuses it, so its presentations are made directly
    D = extract(mat_ring(4, FinRing.zmod(2)))
    modules = dict(D.modules)
    modules[(2, 1)] = FinAbGroup([])
    dead = CommRelData(4, 2, modules,
                       {key: tab for key, tab in D.cmaps.items()
                        if (2, 1) not in (key[:2], key[1:], key[::2])},
                       check=False)
    presentations += [_diagonal_presentation(dead, s) for s in range(4)]
    seen = set()
    for pres in presentations:
        for i, j in permutations(pres.indices, 2):
            got = _pair_quotient_bijective(pres, i, j)
            assert got == _pair_quotient_by_presenting(pres, i, j), \
                (pres.s, i, j)
            seen.add(got)
    assert seen == {True, False}


def test_pattern_names_cover_all_quadruples():
    assert len(HYPOTHESIS_PATTERNS) == 6
    assert len(DERIVED_PATTERNS) == 9
    assert not set(HYPOTHESIS_PATTERNS) & set(DERIVED_PATTERNS)
    seen = {_pattern_name((i, j, k, l))
            for i in range(4) for j in range(4)
            for k in range(4) for l in range(4)}
    assert seen == set(HYPOTHESIS_PATTERNS) | set(DERIVED_PATTERNS)


def test_patterns_pass_on_matrix_ring():
    rep = verify_associativity_patterns(mat_ring(4, FinRing.zmod(2)))
    assert rep.ok and rep.hypothesis_ok and rep.derived_ok
    assert sum(entry["checked"] for entry in rep.patterns.values()) == 256
    assert all(entry["checked"] > 0 for entry in rep.patterns.values())


def test_patterns_flag_corrupted_ring():
    rep = verify_associativity_patterns(corrupted_matrix(4, 2))
    assert not rep.ok
    assert not rep.hypothesis_ok
    quad, gens = rep.patterns["ijkl"]["failures"][0]
    assert len(set(quad)) == 4 and len(gens) == 3
