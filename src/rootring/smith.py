"""Exact normal forms for small integer matrices.

Matrices are lists of row lists of Python ints, so everything is arbitrary
precision and there is no numerical error to reason about.  There are two
eliminations.  `Lattice` keeps the Hermite basis of a lattice containing
diag(mods), with entries bounded modulo the diagonal; every subgroup
question goes through it, including `kernel_mod` and `solve_mod`, which
read the graph lattice of a map.  `smith_normal_form` only presents
quotients (`abelian.quotient`) and backs `solve_int`; each of its
elimination steps costs what the nonzeros of the pivot's row and column
cost, so the sparse presentations with unit pivots that quotients produce
stay cheap.
"""

from math import lcm


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


def mat_vec(A, x):
    return [sum(r * c for r, c in zip(row, x)) for row in A]


def smith_normal_form(M, transforms="UVuv"):
    """Diagonalize M over the integers.

    Returns (S, U, V, Uinv, Vinv) with U*M*V == S, where U and V are
    unimodular, S is diagonal (same shape as M) with nonnegative entries
    satisfying S[i][i] | S[i+1][i+1].

    `transforms` names the change-of-basis matrices to maintain: any of
    "U", "V", "u" (U inverse), "v" (V inverse).  Skipped ones come back as
    None.

    Each step takes as pivot the first entry of least absolute value, row
    by row, clears its column and row by Euclidean division, and then, if
    the pivot is not a unit, adds in a row with an entry it does not
    divide.  A step costs what its nonzeros cost: the pivot scan stops at
    the first unit (the entry the full scan picks), a unit pivot skips the
    divisibility scan, and a column operation touches only the rows of S
    that are nonzero in the pivot column.  Non-unit pivots still scan the
    remaining matrix; row operations and the V and V inverse bookkeeping
    still cost a full row or column.  These shortcuts change no pivot and
    no operation, and the pivots do not depend on `transforms`, so S and
    every matrix kept are those of the plain full-scan elimination.

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

    def col_addmul(i, j, c, live):
        # col_i += c * col_j ;  V <- V F, Vinv <- F^{-1} Vinv; `live` holds
        # the rows of S that are nonzero in column j
        for row in live:
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

    def pivot_search(t):
        # the first entry of least absolute value; a unit is least, so the
        # first one met ends the scan
        best = None
        for i in range(t, m):
            row = S[i]
            for j in range(t, n):
                a = row[j]
                if a and (best is None or abs(a) < abs(best[2])):
                    best = (i, j, a)
                    if abs(a) == 1:
                        return best
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
            # column t does not change during this sweep, so only the rows
            # nonzero in it take part
            live = [row for row in S if row[t]]
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    col_addmul(j, t, -q, live)
                    if S[t][j]:
                        dirty = True
            if dirty:
                continue
            # row t and column t are clear; pull in any entry the pivot
            # does not divide yet, else this position is done
            p = S[t][t]
            if abs(p) == 1:
                break
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

    # U M V == S is checked in tests/test_smith.py
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

    __slots__ = ("n", "mods", "rows")

    def __init__(self, mods, gens=()):
        for d in mods:
            if d < 1:
                raise ValueError("moduli must be positive, got %r" % (d,))
        self.n = len(mods)
        self.mods = tuple(mods)
        self.rows = [[mods[i] if j == i else 0 for j in range(self.n)]
                     for i in range(self.n)]
        if any([self._insert(g) for g in gens]):
            self._normalize()

    def add(self, vec):
        """Enlarge the lattice by one vector.  Returns True if it grew."""
        grew = self._insert(vec)
        if grew:
            self._normalize()
        return grew

    def _insert(self, vec):
        """Merge vec into the triangular rows; `_normalize` restores the
        Hermite form.  diag(mods) lies in the lattice, so every entry right
        of a pivot is kept modulo its column's modulus."""
        if len(vec) != self.n:
            raise ValueError("length mismatch")
        mods = self.mods
        v = [x % d for x, d in zip(vec, mods)]
        grew = False
        for j in range(self.n):
            b = v[j]
            if not b:
                continue
            # row and v are zero left of column j
            row = self.rows[j]
            a = row[j]
            if b % a == 0:
                q = b // a
                v[j:] = [(x - q * y) % d
                         for x, y, d in zip(v[j:], row[j:], mods[j:])]
                continue
            g, x, y = xgcd(a, b)
            row[j:], v[j:] = (
                [(x * p + y * q) % d
                 for p, q, d in zip(row[j:], v[j:], mods[j:])],
                [(a // g * q - b // g * p) % d
                 for p, q, d in zip(row[j:], v[j:], mods[j:])])
            grew = True
        return grew

    def _normalize(self):
        # entries above each pivot reduced into [0, pivot)
        rows = self.rows
        for j in range(self.n):
            p = rows[j][j]
            tail = rows[j][j:]
            for i in range(j):
                q = rows[i][j] // p
                if q:
                    rows[i][j:] = [a - q * b for a, b in zip(rows[i][j:], tail)]

    def reduce(self, vec):
        v = list(vec)
        for j in range(self.n):
            row = self.rows[j]
            q = v[j] // row[j]
            if q:
                v[j:] = [a - q * b for a, b in zip(v[j:], row[j:])]
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


def _graph_lattice(A, mods, width):
    """The graph {(A x mod mods, x mod e)} of x -> A x as a Hermite
    lattice in Z^(m+n), with e = lcm(mods): its target coordinates come
    first, so the last n rows span the vectors whose target part is zero."""
    n = len(A[0]) if A else (width or 0)
    e = lcm(*mods)
    gens = [[row[j] for row in A] + [1 if t == j else 0 for t in range(n)]
            for j in range(n)]
    return Lattice(list(mods) + [e] * n, gens)


def solve_mod(A, b, mods, width=None):
    """One solution x of A x = b (mod mods), or None.

    `mods` are positive per-row moduli.  `width` gives the column count
    when A has no rows (no constraints), in which case the zero vector is
    returned.

    >>> solve_mod([[2, 1]], [3], [4])
    [0, -1]
    >>> solve_mod([[2]], [1], [4]) is None
    True
    """
    return _graph_solve(_graph_lattice(A, mods, width), len(mods), b)


def _graph_solve(lat, m, b):
    """One x with A x = b, read from the graph lattice of A (whose first m
    coordinates are the target), or None: (b, 0) reduces to (0, -x)."""
    r = lat.reduce(list(b) + [0] * (lat.n - m))
    if any(r[:m]):
        return None
    return [-x for x in r[m:]]


def kernel_mod(A, mods, width=None):
    """Row vectors spanning {x in Z^n : A x = 0 (mod mods)}.

    `mods` are positive per-row moduli.  The span is meant over Z;
    callers typically feed the rows to a Lattice or Subgroup that also
    knows the source moduli.  `width` gives n when A has no rows, in which
    case the kernel is everything.

    >>> kernel_mod([[1, 2]], [4])
    [[2, 1], [0, 2]]
    """
    m = len(mods)
    return [row[m:] for row in _graph_lattice(A, mods, width).rows[m:]]
