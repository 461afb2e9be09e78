import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from rootring.smith import (Lattice, identity_matrix, kernel_mod, mat_mul,
                            mat_vec, smith_normal_form, solve_int, solve_mod,
                            xgcd)

small_int = st.integers(min_value=-16, max_value=16)


def matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(small_int, min_size=n, max_size=n),
                min_size=m, max_size=m)))


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


@given(matrices())
def test_smith_normal_form(M):
    S, U, V, Uinv, Vinv = smith_normal_form(M)
    m, n = len(M), len(M[0])
    assert mat_mul(mat_mul(U, M), V) == S
    assert mat_mul(U, Uinv) == identity_matrix(m)
    assert mat_mul(V, Vinv) == identity_matrix(n)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert S[i][j] == 0
    diag = [S[t][t] for t in range(min(m, n))]
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


# mostly 0 and +-1, with a few non-units, like the tensor presentations
sparse_int = st.sampled_from([0] * 10 + [1, -1] * 3 + [2, -3, 4, 6])


def sparse_matrices():
    """Tall, wide and square shapes up to about 10 x 14."""
    shapes = st.one_of(st.tuples(st.integers(1, 10), st.integers(1, 14)),
                       st.tuples(st.integers(1, 14), st.integers(1, 10)))
    return shapes.flatmap(
        lambda mn: st.lists(
            st.lists(sparse_int, min_size=mn[1], max_size=mn[1]),
            min_size=mn[0], max_size=mn[0]))


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_smith_normal_form_sparse_transform_subsets(M):
    m, n = len(M), len(M[0])
    full = smith_normal_form(M)
    for transforms in ("UVuv", "Uu", "UV", ""):
        S, U, V, Uinv, Vinv = smith_normal_form(M, transforms)
        assert S == full[0]
        if "U" in transforms:
            assert U == full[1]
        if "U" in transforms and "V" in transforms:
            assert mat_mul(mat_mul(U, M), V) == S
        if "u" in transforms:
            assert mat_mul(U, Uinv) == identity_matrix(m)
        if "v" in transforms:
            assert mat_mul(V, Vinv) == identity_matrix(n)
        for name, got in zip("UVuv", (U, V, Uinv, Vinv)):
            assert (got is None) == (name not in transforms)
    for i in range(m):
        for j in range(n):
            if i != j:
                assert full[0][i][j] == 0
    diag = [full[0][t][t] for t in range(min(m, n))]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a else b == 0


def lattice_instances():
    mods = st.lists(st.integers(1, 6), min_size=1, max_size=3)
    return mods.flatmap(
        lambda ms: st.tuples(
            st.just(ms),
            st.lists(st.lists(st.integers(-8, 8),
                              min_size=len(ms), max_size=len(ms)),
                     max_size=3)))


@given(lattice_instances())
def test_lattice_reduce_and_membership(inst):
    mods, gens = inst
    lat = Lattice(mods, gens)
    for g in gens:
        assert lat.contains(g)
    for i, d in enumerate(mods):
        assert lat.contains([d if j == i else 0 for j in range(len(mods))])
    # reduce lands in the pivot box, is idempotent, and stays in the coset
    probe = [3, -5, 7][:len(mods)]
    r = lat.reduce(probe)
    assert lat.contains([p - q for p, q in zip(probe, r)])
    assert lat.reduce(list(r)) == r
    for j in range(len(mods)):
        assert 0 <= r[j] < lat.rows[j][j]


@given(lattice_instances())
def test_lattice_basis_is_generator_order_independent(inst):
    mods, gens = inst
    lat1 = Lattice(mods, gens)
    lat2 = Lattice(mods, list(reversed(gens)))
    assert lat1.basis() == lat2.basis()


def test_lattice_reduce_is_lex_least():
    # brute force: the canonical representative must be the lexicographically
    # least member of the coset with coordinates in the ambient box
    mods = [4, 6]
    lat = Lattice(mods, [[2, 3]])
    for probe in itertools.product(range(4), range(6)):
        r = lat.reduce(list(probe))
        members = [c for c in itertools.product(range(4), range(6))
                   if lat.contains([a - b for a, b in zip(c, probe)])]
        assert r == min(members)


@given(matrices(3), st.lists(st.integers(-4, 4), min_size=3, max_size=3),
       st.lists(st.integers(1, 4), min_size=3, max_size=3))
def test_solve_mod_finds_planted_solution(M, x, mods):
    m, n = len(M), len(M[0])
    x = x[:n]
    mods = mods[:m]
    b = [v % d for v, d in zip(mat_vec(M, x), mods)]
    sol = solve_mod(M, b, mods)
    assert sol is not None
    got = mat_vec(M, sol)
    assert all((u - v) % d == 0 for u, v, d in zip(got, b, mods))


def test_solve_int_unsolvable():
    assert solve_int([[2, 0], [0, 2]], [1, 0]) is None
    assert solve_mod([[2]], [1], [4]) is None


def test_kernel_mod_matches_brute_force():
    from math import lcm
    for M, mods in [
        ([[2, 1], [0, 3]], [4, 6]),
        ([[1, 2, 3]], [5]),
        ([[2, 0], [0, 2]], [4, 4]),
        ([[3]], [6]),
    ]:
        n = len(M[0])
        rows = kernel_mod(M, mods)
        # the solution set is a lattice containing lcm(mods) * e_j for all j
        period = lcm(*mods)
        lat = Lattice([period] * n, rows)
        for x in itertools.product(*(range(period) for _ in range(n))):
            want = all(sum(M[i][j] * x[j] for j in range(n)) % mods[i] == 0
                       for i in range(len(M)))
            assert lat.contains(list(x)) == want, (M, mods, x)
