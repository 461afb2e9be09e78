"""Exact normal forms for small integer matrices.

Matrices are lists of row lists of Python ints, so everything is arbitrary
precision and there is no numerical error to reason about.  Sizes stay small
(tens of rows), which keeps the classical O(n^3)-ish algorithms comfortable.
"""


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y.

    >>> xgcd(12, 18)
    (6, -1, 1)
    >>> xgcd(0, 0)
    (0, 1, 0)
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    n = len(B)
    assert all(len(row) == n for row in A)
    p = len(B[0]) if B else 0
    out = []
    for row in A:
        out.append([sum(row[k] * B[k][j] for k in range(n)) for j in range(p)])
    return out


def mat_vec(A, x):
    return [sum(r * c for r, c in zip(row, x)) for row in A]


def smith_normal_form(M, transforms="UVuv"):
    """Diagonalize M over the integers.

    Returns (S, U, V, Uinv, Vinv) with U*M*V == S, where U and V are
    unimodular, S is diagonal (same shape as M) with nonnegative entries
    satisfying S[i][i] | S[i+1][i+1].

    `transforms` names the change-of-basis matrices to maintain: any of
    "U", "V", "u" (U inverse), "v" (V inverse).  Skipped ones come back as
    None; on tall or wide matrices the saved row and column bookkeeping is
    most of the work.

    >>> S, U, V, Uinv, Vinv = smith_normal_form([[2, 4], [4, 2]])
    >>> [S[0][0], S[1][1]]
    [2, 6]
    >>> smith_normal_form([[2]], transforms="V")[1] is None
    True
    """
    m = len(M)
    n = len(M[0]) if m else 0
    S = [list(row) for row in M]
    U = identity_matrix(m) if "U" in transforms else None
    Uinv = identity_matrix(m) if "u" in transforms else None
    V = identity_matrix(n) if "V" in transforms else None
    Vinv = identity_matrix(n) if "v" in transforms else None

    def row_addmul(i, j, c):
        # row_i += c * row_j ;  U <- E U, Uinv <- Uinv E^{-1}
        S[i] = [a + c * b for a, b in zip(S[i], S[j])]
        if U is not None:
            U[i] = [a + c * b for a, b in zip(U[i], U[j])]
        if Uinv is not None:
            for row in Uinv:
                row[j] -= c * row[i]

    def row_swap(i, j):
        S[i], S[j] = S[j], S[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]
        if Uinv is not None:
            for row in Uinv:
                row[i], row[j] = row[j], row[i]

    def row_negate(i):
        S[i] = [-a for a in S[i]]
        if U is not None:
            U[i] = [-a for a in U[i]]
        if Uinv is not None:
            for row in Uinv:
                row[i] = -row[i]

    def col_addmul(i, j, c):
        # col_i += c * col_j ;  V <- V F, Vinv <- F^{-1} Vinv
        for row in S:
            row[i] += c * row[j]
        if V is not None:
            for row in V:
                row[i] += c * row[j]
        if Vinv is not None:
            Vinv[j] = [a - c * b for a, b in zip(Vinv[j], Vinv[i])]

    def col_swap(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_negate(i):
        for row in S:
            row[i] = -row[i]
        if V is not None:
            for row in V:
                row[i] = -row[i]
        if Vinv is not None:
            Vinv[i] = [-a for a in Vinv[i]]

    def pivot_search(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                a = S[i][j]
                if a and (best is None or abs(a) < abs(best[2])):
                    best = (i, j, a)
        return best

    for t in range(min(m, n)):
        while True:
            found = pivot_search(t)
            if found is None:
                break
            pi, pj, _ = found
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            # euclidean sweep of column t then row t
            dirty = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    row_addmul(i, t, -q)
                    if S[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    col_addmul(j, t, -q)
                    if S[t][j]:
                        dirty = True
            if dirty:
                continue
            # row t and column t are clear; pull in any entry the pivot
            # does not divide yet, else this position is done
            p = S[t][t]
            culprit = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if S[i][j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_addmul(t, culprit, 1)
        if t < m and t < n and S[t][t] < 0:
            row_negate(t)
        if t < m and t < n and S[t][t] == 0:
            break  # the rest of the matrix is zero too

    # assert mat_mul(mat_mul(U, M), V) == S  (exercised by the test suite)
    return S, U, V, Uinv, Vinv


class Lattice:
    """A full-rank sublattice of Z^n containing diag(mods) * Z^n, kept as an
    upper triangular row basis in Hermite form.

    The Hermite basis is canonical, so two lattices are equal exactly when
    their `rows` agree.  `reduce` maps a vector to the unique representative
    of its coset whose pivot coordinates all lie in [0, pivot); since the
    lattice has full rank that representative is the lexicographically least
    coset member with nonnegative coordinates.
    """

    __slots__ = ("n", "rows")

    def __init__(self, mods, gens=()):
        for d in mods:
            if d < 1:
                raise ValueError("moduli must be positive, got %r" % (d,))
        self.n = len(mods)
        self.rows = [[mods[i] if j == i else 0 for j in range(self.n)]
                     for i in range(self.n)]
        for g in gens:
            self.add(g)

    def add(self, vec):
        """Enlarge the lattice by one vector.  Returns True if it grew."""
        if len(vec) != self.n:
            raise ValueError("length mismatch")
        v = list(vec)
        changed = False
        for j in range(self.n):
            if not v[j]:
                continue
            a = self.rows[j][j]
            b = v[j]
            if b % a == 0:
                q = b // a
                v = [x - q * y for x, y in zip(v, self.rows[j])]
            else:
                g, x, y = xgcd(a, b)
                new_row = [x * p + y * q for p, q in zip(self.rows[j], v)]
                v = [(a // g) * q - (b // g) * p
                     for p, q in zip(self.rows[j], v)]
                self.rows[j] = new_row
                changed = True
        # assert not any(v)
        if changed:
            self._normalize()
        return changed

    def _normalize(self):
        # entries above each pivot reduced into [0, pivot)
        for j in range(self.n):
            p = self.rows[j][j]
            for i in range(j):
                q = self.rows[i][j] // p
                if q:
                    self.rows[i] = [a - q * b
                                    for a, b in zip(self.rows[i], self.rows[j])]

    def reduce(self, vec):
        v = list(vec)
        for j in range(self.n):
            q = v[j] // self.rows[j][j]
            if q:
                v = [a - q * b for a, b in zip(v, self.rows[j])]
        return tuple(v)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def index(self):
        """Index of the lattice in Z^n (product of the pivots)."""
        d = 1
        for j in range(self.n):
            d *= self.rows[j][j]
        return d

    def basis(self):
        return tuple(tuple(row) for row in self.rows)

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.rows == other.rows

    def __hash__(self):
        return hash(self.basis())


def solve_int(A, b):
    """One integer solution x of A x = b, or None."""
    m = len(A)
    n = len(A[0]) if m else 0
    S, U, V, _Uinv, _Vinv = smith_normal_form(A, transforms="UV")
    c = mat_vec(U, b)
    y = [0] * n
    for i in range(m):
        s = S[i][i] if i < n else 0
        if s:
            if c[i] % s:
                return None
            y[i] = c[i] // s
        elif c[i]:
            return None
    return mat_vec(V, y)


def solve_mod(A, b, mods, width=None):
    """One solution x of A x = b (mod mods), or None.

    `mods` are per-row moduli; a modulus of 0 means that row is an exact
    integer equation.  `width` gives the column count when A has no rows
    (no constraints), in which case the zero vector is returned.
    """
    m = len(A)
    if m == 0:
        return [0] * (width or 0)
    n = len(A[0])
    aug = [list(A[i]) + [mods[i] if j == i else 0 for j in range(m)]
           for i in range(m)]
    x = solve_int(aug, b)
    if x is None:
        return None
    return x[:n]


def kernel_mod(A, mods, width=None):
    """Row vectors spanning {x in Z^n : A x = 0 (mod mods)}.

    The span is meant over Z; callers typically feed the rows to a Lattice
    or Subgroup that also knows the source moduli.  `width` gives n when A
    has no rows, in which case the kernel is everything.
    """
    m = len(A)
    if m == 0:
        return [[1 if j == i else 0 for j in range(width or 0)]
                for i in range(width or 0)]
    n = len(A[0])
    if n == 0:
        return []
    aug = [list(A[i]) + [mods[i] if j == i else 0 for j in range(m)]
           for i in range(m)]
    S, _U, V, _Uinv, _Vinv = smith_normal_form(aug, transforms="V")
    cols = n + m
    out = []
    for j in range(cols):
        s = S[j][j] if j < m else 0
        if s == 0:
            vec = [V[i][j] for i in range(n)]
            if any(vec):
                out.append(vec)
    return out
