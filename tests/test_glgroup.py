import pytest

from rootring.abelian import FinAbGroup
from rootring.corpus import corrupted_matrix, grouped_entry, morita_entry
from rootring.errors import (BlockMismatch, BoundExceeded, IndexClash,
                             NotIdempotent, NotQuasiInvertible, RankTooSmall)
from rootring.glgroup import (QuasiUnit, SteinbergReport,
                              _transvection_letters, circ,
                              elementary_subgroup, identity_unit,
                              perfectness_and_center, quasi_inverse,
                              transvection, verify_steinberg)
from rootring.rings import FinRing, PeirceRing, check_predicates, mat_ring

from oracles import quasi_inverse_oracle


def _zero_ring(rank, n):
    Z = FinAbGroup([n])
    blocks = {(i, j): Z for i in range(rank) for j in range(rank)}
    return PeirceRing(rank, n, blocks, {})


def _quasi_units(ring):
    out = []
    for x in ring.additive.elements():
        try:
            out.append(QuasiUnit(ring, x))
        except NotQuasiInvertible:
            pass
    return out


def test_quasi_inverse_matches_oracle_zmod():
    for n in (2, 4, 6, 9):
        R = FinRing.zmod(n)
        for x in R.additive.elements():
            want = quasi_inverse_oracle(R, x)
            if want is None:
                with pytest.raises(NotQuasiInvertible):
                    quasi_inverse(R, x)
            else:
                assert quasi_inverse(R, x) == want


def test_quasi_inverse_matches_oracle_mat2():
    R = FinRing.matrix_ring(FinRing.zmod(2), 2)
    hits = 0
    for x in R.additive.elements():
        want = quasi_inverse_oracle(R, x)
        if want is None:
            with pytest.raises(NotQuasiInvertible):
                quasi_inverse(R, x)
        else:
            assert quasi_inverse(R, x) == want
            hits += 1
    assert hits == 6


def test_quasi_units_form_a_group():
    R = FinRing.matrix_ring(FinRing.zmod(2), 2)
    units = _quasi_units(R)
    assert len(units) == 6
    for x in units:
        assert x.circle(x.inverse()).is_identity()
        assert x.inverse().circle(x).is_identity()
        for y in units:
            xy = x.circle(y)
            assert any(xy == u for u in units)
            for z in units:
                assert xy.circle(z) == x.circle(y.circle(z))


def test_act_is_ring_automorphism():
    R = mat_ring(3, FinRing.zmod(4))
    G = R.additive
    u = transvection(R, 0, 1, (3,)).circle(transvection(R, 1, 2, (1,)))
    gens = G.gens()
    for a in gens:
        for b in gens:
            assert u.act(G.add(a, b)) == G.add(u.act(a), u.act(b))
            assert u.act(R.mul(a, b)) == R.mul(u.act(a), u.act(b))
    v = u.inverse()
    for a in gens:
        assert v.act(u.act(a)) == G.reduce(a)


def test_act_composes_with_circle():
    R = mat_ring(3, FinRing.zmod(2))
    x = transvection(R, 0, 2, (1,))
    y = transvection(R, 2, 1, (1,))
    xy = x.circle(y)
    for g in R.additive.gens():
        assert xy.act(g) == x.act(y.act(g))


def test_transvection_validation():
    R = mat_ring(3, FinRing.zmod(2))
    with pytest.raises(IndexClash):
        transvection(R, 1, 1, (1,))
    with pytest.raises(BlockMismatch):
        transvection(R, 0, 1, (1, 0))


def eval_st_word(R, word):
    """Fold a sequence of (i, j, a) transvection letters with circle."""
    acc = identity_unit(R)
    for (i, j, a) in word:
        acc = acc.circle(transvection(R, i, j, a))
    return acc


def test_eval_st_word():
    R = mat_ring(3, FinRing.zmod(2))
    assert eval_st_word(R, []).is_identity()
    word = [(0, 1, (1,)), (1, 2, (1,)), (0, 2, (1,))]
    w = eval_st_word(R, word)
    back = eval_st_word(R, [(i, j, (1,)) for (i, j, _) in reversed(word)])
    assert w.circle(back).is_identity()


def test_elementary_subgroup_orders():
    assert len(elementary_subgroup(mat_ring(2, FinRing.zmod(2)))) == 6
    assert len(elementary_subgroup(mat_ring(3, FinRing.zmod(2)))) == 168
    assert len(elementary_subgroup(mat_ring(2, FinRing.zmod(3)))) == 24


def test_elementary_subgroup_zero_ring():
    E = elementary_subgroup(_zero_ring(3, 2))
    assert len(E) == 64


def test_elementary_subgroup_bound():
    with pytest.raises(BoundExceeded) as info:
        elementary_subgroup(mat_ring(3, FinRing.zmod(2)), size_bound=10)
    assert info.value.partial_size > 10


def test_verify_steinberg_clean():
    rep = verify_steinberg(mat_ring(3, FinRing.zmod(2)))
    assert rep.ok
    assert rep.checked > 200


def test_verify_steinberg_all_letters():
    rep = verify_steinberg(mat_ring(3, FinRing.zmod(2)),
                           identity_triples="all")
    assert rep.ok


def _zeroed_entry_ring():
    clean = mat_ring(3, FinRing.zmod(2))
    tables = dict(clean.tables)
    bad = dict(tables[(0, 1, 2)])
    bad[(0, 0)] = (0,)
    tables[(0, 1, 2)] = bad
    return PeirceRing(3, 2, dict(clean.blocks), tables, check=False)


def test_verify_steinberg_flags_corrupted_table():
    R = _zeroed_entry_ring()
    assert R.associativity_failures(limit=1)
    rep = verify_steinberg(R)
    assert not rep.ok
    assert rep.identity_failures


def _conjugate(x, y):
    return x.circle(y).circle(x.inverse())


def _steinberg_on_quasi_units(R, identity_triples="generators", limit=8):
    """verify_steinberg as it was before its products were memoized: every
    transvection and every product a fresh QuasiUnit, no value reused."""
    rep = SteinbergReport()
    l = R.rank

    blocks = [(i, j) for i in range(l) for j in range(l) if i != j]
    for (i, j) in blocks:
        G = R.blocks[(i, j)]
        elems = list(G.elements())
        for a in elems:
            ta = transvection(R, i, j, a)
            for b in elems:
                got = ta.circle(transvection(R, i, j, b))
                want = transvection(R, i, j, G.add(a, b))
                rep.checked += 1
                if got != want and len(rep.additivity_failures) < limit:
                    rep.additivity_failures.append(((i, j), a, b))

    for (i, j) in blocks:
        Gij = R.blocks[(i, j)]
        for (k, m) in blocks:
            if j == k or i == m:
                continue
            Gkm = R.blocks[(k, m)]
            for a in Gij.elements():
                if not any(a):
                    continue
                ta = transvection(R, i, j, a)
                for b in Gkm.elements():
                    if not any(b):
                        continue
                    c = ta.commutator(transvection(R, k, m, b))
                    rep.checked += 1
                    if not c.is_identity() and \
                            len(rep.commuting_failures) < limit:
                        rep.commuting_failures.append(((i, j), a, (k, m), b))

    for (i, j) in blocks:
        Gij = R.blocks[(i, j)]
        for k in range(l):
            if k == j or k == i:
                continue
            Gjk = R.blocks[(j, k)]
            for a in Gij.elements():
                ta = transvection(R, i, j, a)
                for b in Gjk.elements():
                    got = ta.commutator(transvection(R, j, k, b))
                    want = transvection(R, i, k,
                                        R.block_mul(i, j, k, a, b))
                    rep.checked += 1
                    if got != want and \
                            len(rep.composition_failures) < limit:
                        rep.composition_failures.append(((i, j), a, (j, k), b))

    letters = [transvection(R, i, j, a)
               for (i, j, a) in _transvection_letters(R, identity_triples)]
    for x in letters:
        for y in letters:
            xy = x.circle(y)
            for z in letters:
                rep.checked += 1
                if xy.circle(z) != x.circle(y.circle(z)) and \
                        len(rep.identity_failures) < limit:
                    rep.identity_failures.append(("assoc", x.value, y.value,
                                                  z.value))
                lhs = xy.commutator(z)
                rhs = _conjugate(x, y.commutator(z)).circle(x.commutator(z))
                if lhs != rhs and len(rep.identity_failures) < limit:
                    rep.identity_failures.append(("L", x.value, y.value,
                                                  z.value))
                lhs = x.commutator(y.circle(z))
                rhs = x.commutator(y).circle(_conjugate(y, x.commutator(z)))
                if lhs != rhs and len(rep.identity_failures) < limit:
                    rep.identity_failures.append(("R", x.value, y.value,
                                                  z.value))
                t1 = _conjugate(y, x.commutator(y.inverse().commutator(z)))
                t2 = _conjugate(z, y.commutator(z.inverse().commutator(x)))
                t3 = _conjugate(x, z.commutator(x.inverse().commutator(y)))
                if not t1.circle(t2).circle(t3).is_identity() and \
                        len(rep.identity_failures) < limit:
                    rep.identity_failures.append(("HW", x.value, y.value,
                                                  z.value))
    return rep


_STEINBERG_RINGS = {
    "mat2 z2": lambda: mat_ring(2, FinRing.zmod(2)),
    "mat2 z3": lambda: mat_ring(2, FinRing.zmod(3)),
    "mat2 z4": lambda: mat_ring(2, FinRing.zmod(4)),
    "mat3 z2": lambda: mat_ring(3, FinRing.zmod(2)),
    "morita": lambda: morita_entry().ring,
    "corrupted3 z2": lambda: corrupted_matrix(3, 2),
    "zeroed entry": _zeroed_entry_ring,
}


@pytest.mark.parametrize("name", sorted(_STEINBERG_RINGS))
def test_verify_steinberg_matches_the_quasi_unit_loop(name):
    R = _STEINBERG_RINGS[name]()
    rep = verify_steinberg(R)
    assert rep == _steinberg_on_quasi_units(R)
    if name in ("mat2 z2", "mat3 z2"):
        assert verify_steinberg(R, identity_triples="all") == \
            _steinberg_on_quasi_units(R, identity_triples="all")
    if not rep.ok:
        assert verify_steinberg(R, limit=1) == \
            _steinberg_on_quasi_units(R, limit=1)


def test_verify_steinberg_keeps_nothing_between_calls(monkeypatch):
    R = mat_ring(2, FinRing.zmod(3))
    calls = []
    mul = PeirceRing.mul

    def counted(self, x, y):
        calls.append(1)
        return mul(self, x, y)
    monkeypatch.setattr(PeirceRing, "mul", counted)
    first = verify_steinberg(R)
    n = len(calls)
    second = verify_steinberg(R)
    assert n > 0
    assert len(calls) == 2 * n
    assert first == second


def test_verify_steinberg_refuses_an_unknown_letter_set():
    with pytest.raises(ValueError, match='"generators" or "all"'):
        verify_steinberg(mat_ring(2, FinRing.zmod(2)), identity_triples="gens")


def test_perfectness_and_center_mat3():
    rep = perfectness_and_center(mat_ring(3, FinRing.zmod(2)))
    assert rep.ok
    assert rep.perfect
    assert rep.upper_size == 8
    assert rep.central_violations == []
    assert rep.action_injective is True


def test_perfectness_and_center_mat3_z4():
    rep = perfectness_and_center(mat_ring(3, FinRing.zmod(4)))
    assert rep.ok
    assert rep.upper_size == 64


def test_perfectness_preconditions():
    with pytest.raises(RankTooSmall):
        perfectness_and_center(mat_ring(2, FinRing.zmod(2)))
    with pytest.raises(NotIdempotent):
        perfectness_and_center(_zero_ring(3, 2))


def _upper_triangular_units(R):
    """All circle-products of transvections from blocks (i, j) with i < j,
    in lexicographic block order; for rank >= 2 each such product is
    uniquely determined by its block components."""
    blocks = [(i, j) for i in range(R.rank) for j in range(R.rank) if i < j]
    units = [identity_unit(R)]
    for (i, j) in blocks:
        G = R.blocks[(i, j)]
        units = [u.circle(transvection(R, i, j, a))
                 for u in units for a in G.elements()]
    return units


def _center_by_enumeration(R):
    """(upper_size, central values, action_injective) by listing every
    upper unitriangular unit: the reference for the two kernels of
    `perfectness_and_center`."""
    gens = [transvection(R, i, j, a)
            for (i, j, a) in _transvection_letters(R, "generators")]
    units = _upper_triangular_units(R)
    central = set()
    for u in units:
        if u.is_identity():
            continue
        if all(circ(R, u.value, g.value) == circ(R, g.value, u.value)
               for g in gens):
            central.add(u.value)
    seen = set()
    injective = True
    for u in units:
        key = tuple(u.act(g) for g in R.additive.gens())
        if key in seen:
            injective = False
        seen.add(key)
    return len(units), central, injective


def _band_algebra(rows, cols):
    """The F_2-algebra of the rows x cols rectangular band: basis E_il
    (i < rows, l < cols, row-major) with E_il E_jm = E_im.

    Over the 2 x 2 band, E11 + E12 + E21 + E22 annihilates the algebra on
    both sides.  Over the 1 x 2 band, E11 + E12 kills it from the left
    only, and over the 2 x 1 band E11 + E21 from the right only."""
    G = FinAbGroup([2] * (rows * cols))
    table = {(i * cols + l, j * cols + m): G.gen(i * cols + m)
             for i in range(rows) for l in range(cols)
             for j in range(rows) for m in range(cols)}
    return FinRing(G, table)


_CENTER_RINGS = {
    "mat3 z2": lambda: mat_ring(3, FinRing.zmod(2)),
    "mat3 z3": lambda: mat_ring(3, FinRing.zmod(3)),
    "mat3 z4": lambda: mat_ring(3, FinRing.zmod(4)),
    "mat4 z2": lambda: mat_ring(4, FinRing.zmod(2)),
    "grouped_5_z2_1x1x1x2":
        lambda: grouped_entry(5, 2, [[0], [1], [2], [3, 4]]).ring,
    "mat3 band 1x2": lambda: mat_ring(3, _band_algebra(1, 2)),
    "mat3 band 2x1": lambda: mat_ring(3, _band_algebra(2, 1)),
}


@pytest.mark.parametrize("name", sorted(_CENTER_RINGS))
def test_center_kernels_match_the_enumeration(name):
    R = _CENTER_RINGS[name]()
    rep = perfectness_and_center(R)
    assert (rep.upper_size, set(rep.central_violations),
            rep.action_injective) == _center_by_enumeration(R)
    assert len(rep.central_violations) == len(set(rep.central_violations))


def test_center_and_action_fail_over_a_non_reduced_algebra():
    A = _band_algebra(2, 2)
    z = (1, 1, 1, 1)
    assert all(not any(A.mul(z, g)) and not any(A.mul(g, z))
               for g in A.additive.gens())
    R = mat_ring(3, A)
    pr = check_predicates(R)
    assert pr.idempotent and pr.firm and not pr.reduced
    rep = perfectness_and_center(R)
    assert rep.perfect and rep.upper_size == 4096
    assert len(rep.central_violations) == 7
    assert rep.central_violations == sorted(rep.central_violations)
    assert rep.action_injective is False and not rep.ok
    letters = [transvection(R, i, j, a)
               for (i, j, a) in _transvection_letters(R)]
    for x in rep.central_violations:
        u = QuasiUnit(R, x)
        assert all(u.circle(g) == g.circle(u) for g in letters)
    zero, y = rep.action_witness
    assert not any(zero) and any(y)
    one, v = QuasiUnit(R, zero), QuasiUnit(R, y)
    assert all(one.act(g) == v.act(g) for g in R.additive.gens())


def test_center_builds_no_unit_per_element_of_the_upper_group(monkeypatch):
    R = grouped_entry(6, 2, [[0], [1], [2], [3], [4, 5]]).ring
    calls = []
    init = QuasiUnit.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(QuasiUnit, "__init__", counted)
    rep = perfectness_and_center(R)
    assert rep.ok and rep.upper_size == 16384
    assert len(calls) < 1000
