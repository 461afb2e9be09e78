import itertools
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import tensor_oracle
from rootring.abelian import (AbHom, DirectSum, FinAbGroup, Subgroup,
                              TensorGroup, induced_map, quotient)
from rootring.errors import NotWellDefined
from rootring.smith import kernel_mod, solve_mod

group_orders = st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9]),
                        min_size=0, max_size=3)


def groups():
    return group_orders.map(FinAbGroup)


def group_with_elements(max_elems=3):
    def expand(G):
        elem = st.tuples(*(st.integers(0, d - 1) for d in G.orders))
        return st.tuples(st.just(G), st.lists(elem, max_size=max_elems))
    return groups().flatmap(expand)


def test_normalization_and_basics():
    G = FinAbGroup([2, 1, 4])
    assert G.orders == (2, 4)
    assert G.dim == 2 and G.order == 8 and G.exponent == 4
    assert G.add((1, 3), (1, 2)) == (0, 1)
    assert G.neg((1, 3)) == (1, 1)
    assert G.scale(3, (1, 2)) == (1, 2)
    assert len(list(G.elements())) == 8
    with pytest.raises(ValueError):
        FinAbGroup([0, 2])
    trivial = FinAbGroup([])
    assert trivial.order == 1 and list(trivial.elements()) == [()]


def test_invariant_factors():
    assert FinAbGroup([2, 3]).invariant_factors() == (6,)
    assert FinAbGroup([4, 2]).invariant_factors() == (2, 4)
    assert FinAbGroup([2, 4]).invariant_factors() == (2, 4)
    assert FinAbGroup([]).invariant_factors() == ()
    assert FinAbGroup([6, 4]).invariant_factors() == (2, 12)


def test_hom_validity():
    A = FinAbGroup([2])
    B = FinAbGroup([4])
    with pytest.raises(ValueError):
        AbHom(A, B, [(1,)])  # 2*1 != 0 in Z/4
    f = AbHom(A, B, [(2,)])
    assert f((1,)) == (2,)
    g = AbHom(B, A, [(1,)])
    assert g.compose(f)((1,)) == (0,)


@given(groups())
def test_hom_first_isomorphism(G):
    # x_j -> (360/d_j) x_j lands in Z/360 for every sampled order d_j
    H = FinAbGroup([360])
    f = AbHom(G, H, [(360 // d,) for d in G.orders])
    assert f.kernel().order() * f.image().order() == G.order


def test_subgroup_basics():
    G = FinAbGroup([4, 4])
    S = Subgroup(G, [(2, 0)])
    assert S.order() == 2
    assert S.contains((2, 0)) and not S.contains((1, 0))
    assert sorted(S.elements()) == [(0, 0), (2, 0)]
    full = Subgroup(G, G.gens())
    assert full.is_full()
    assert Subgroup(G, []).is_trivial()


@given(group_with_elements(4))
def test_subgroup_reduce_is_coset_canonical(inst):
    G, elems = inst
    if not elems:
        return
    S = Subgroup(G, elems[:2])
    probe = elems[-1]
    r = S.reduce(probe)
    assert S.contains(G.sub(probe, r))
    for s in elems[:2]:
        assert S.reduce(G.add(probe, s)) == r


def test_subgroup_reduce_lex_least_brute():
    G = FinAbGroup([4, 6])
    S = Subgroup(G, [(2, 3)])
    for probe in G.elements():
        members = [c for c in G.elements() if S.contains(G.sub(c, probe))]
        assert S.reduce(probe) == min(members)


@given(group_with_elements(4))
def test_join_intersect_orders(inst):
    G, elems = inst
    A = Subgroup(G, elems[:2])
    B = Subgroup(G, elems[2:])
    assert A.join(B).order() * A.intersect(B).order() == \
        A.order() * B.order()


def test_intersect_brute():
    G = FinAbGroup([4, 4])
    A = Subgroup(G, [(1, 2)])
    B = Subgroup(G, [(2, 0), (0, 2)])
    I = A.intersect(B)
    want = sorted(set(A.elements()) & set(B.elements()))
    assert sorted(I.elements()) == want


def homs():
    """Random homs: a small target, a tall target made of copies of the
    source (the shape of `find_unit`'s stacked equations), or zero."""
    def image(H, d, vec):
        # scaled so that d * image == 0 in H
        return tuple(v * (e // gcd(e, d)) for v, e in zip(vec, H.orders))

    def build(G, H, shape, seeds):
        if shape == "zero":
            return AbHom.zero(G, H)
        return AbHom(G, H, [image(H, d, v) for d, v in zip(G.orders, seeds)])

    def expand(args):
        G, shape, copies, small = args
        H = FinAbGroup(list(G.orders) * copies if shape == "tall"
                       else small)
        vec = st.tuples(*(st.integers(0, e - 1) for e in H.orders))
        return st.lists(vec, min_size=G.dim, max_size=G.dim).map(
            lambda seeds: build(G, H, shape, seeds))

    return st.tuples(groups(), st.sampled_from(["small", "tall", "zero"]),
                     st.integers(2, 4), group_orders).flatmap(expand)


@given(homs(), st.randoms(use_true_random=False))
def test_kernel_and_preimage_match_enumeration(f, rnd):
    G, H = f.source, f.target
    values = {x: f(x) for x in G.elements()}
    assert set(f.kernel().elements()) == \
        {x for x, y in values.items() if not any(y)}
    image = set(values.values())
    probes = list(H.elements()) if H.order <= 512 else \
        list(image) + [tuple(rnd.randrange(e) for e in H.orders)
                       for _ in range(32)]
    for y in probes:
        x = f.preimage(y)
        if y in image:
            assert x is not None and f(x) == y
        else:
            assert x is None


@given(group_with_elements(4))
def test_intersect_matches_set_intersection(inst):
    G, elems = inst
    A = Subgroup(G, elems[:2])
    B = Subgroup(G, elems[2:])
    assert set(A.intersect(B).elements()) == \
        set(A.elements()) & set(B.elements())


def test_solvers_reject_zero_modulus():
    with pytest.raises(ValueError):
        kernel_mod([[1, 2]], [0])
    with pytest.raises(ValueError):
        solve_mod([[1], [2]], [1, 0], [3, 0])


def test_as_group_round_trip():
    G = FinAbGroup([4, 4, 2])
    S = Subgroup(G, [(2, 0, 0), (0, 2, 1)])
    chart = S.as_group()
    assert chart.group.order == S.order()
    for x in S.elements():
        q = chart.coords(x)
        assert chart.incl(q) == x
    with pytest.raises(ValueError):
        chart.coords((1, 0, 0))


def test_quotient_and_section():
    G = FinAbGroup([4, 4])
    H = Subgroup(G, [(2, 2)])
    q = quotient(G, H)
    assert q.group.order == 8
    assert q.proj.is_surjective()
    assert q.proj.kernel() == H
    for x in G.elements():
        c = q.proj(x)
        s = q.section(c)
        assert q.proj(s) == c
        assert s == H.reduce(x)  # canonical representative


@given(group_with_elements(3))
def test_quotient_order(inst):
    G, elems = inst
    H = Subgroup(G, elems)
    q = quotient(G, H)
    assert q.group.order * H.order() == G.order


def test_induced_map():
    G = FinAbGroup([4])
    f = AbHom(G, G, [(2,)])
    H = Subgroup(G, [(2,)])
    q = quotient(G, H)
    h = induced_map(f, q)
    assert h.source == q.group and h(q.proj((1,))) == (2,)
    with pytest.raises(NotWellDefined):
        induced_map(AbHom.identity(G), q)


def test_tensor_examples():
    assert TensorGroup(FinAbGroup([2]), FinAbGroup([4])).group.orders == (2,)
    assert TensorGroup(FinAbGroup([2]), FinAbGroup([3])).group.order == 1
    T = TensorGroup(FinAbGroup([2, 4]), FinAbGroup([4]))
    assert T.group.invariant_factors() == (2, 4)


@given(group_with_elements(2), group_with_elements(2))
def test_tensor_pure_bilinear(a_inst, b_inst):
    A, aa = a_inst
    B, bb = b_inst
    T = TensorGroup(A, B)
    if len(aa) >= 2 and bb:
        lhs = T.pure(A.add(aa[0], aa[1]), bb[0])
        rhs = T.group.add(T.pure(aa[0], bb[0]), T.pure(aa[1], bb[0]))
        assert lhs == rhs
    if aa and len(bb) >= 2:
        lhs = T.pure(aa[0], B.add(bb[0], bb[1]))
        rhs = T.group.add(T.pure(aa[0], bb[0]), T.pure(aa[0], bb[1]))
        assert lhs == rhs


@pytest.mark.parametrize("oa,ob", [
    ([2], [4]), ([2, 2], [2]), ([3], [3]), ([4], [6]),
    ([2, 4], [4]), ([], [5]), ([6], [4, 2]), ([8], [8]),
])
def test_tensor_matches_element_oracle(oa, ob):
    A, B = FinAbGroup(oa), FinAbGroup(ob)
    T = TensorGroup(A, B)
    oracle = tensor_oracle(A, B)
    assert oracle.group.invariant_factors() == T.group.invariant_factors()
    # the identification must also match on every pure tensor
    cols = [oracle.pure(A.gen(i), B.gen(j)) for (i, j) in T.pairs]
    h = AbHom(T.group, oracle.group, cols)
    assert h.is_isomorphism()
    for a in A.elements():
        for b in B.elements():
            assert h(T.pure(a, b)) == oracle.pure(a, b)


def test_direct_sum_plumbing():
    ds = DirectSum([FinAbGroup([2]), FinAbGroup([3, 4])])
    assert ds.group.orders == (2, 3, 4)
    v = ds.embed(1, (2, 3))
    assert v == (0, 2, 3)
    assert ds.project(1, v) == (2, 3)
    assert ds.project(0, v) == (0,)
    assert ds.assemble([(1,), (2, 3)]) == (1, 2, 3)
