"""Answers the benchmark checks results against, computed without rootring.

Nothing here imports the package under test.  Each answer comes from a
closed formula or from plain arithmetic written out for the purpose, so a
bug in the code being timed cannot also hide in its own check.
"""

import random
from math import gcd


def prime_factors(n):
    """{p: e} with n == prod p**e, by trial division (n is small)."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders):
    """Invariant factor chain d_1 | d_2 | ... (all > 1, ascending) of the
    direct sum of the cyclic groups Z/d for d in `orders`.

    Each cyclic factor splits into its prime-power parts; the largest
    power of every prime goes into the last invariant factor, the next
    largest into the one before, and so on.
    """
    powers = {}
    for d in orders:
        for p, e in prime_factors(d).items():
            powers.setdefault(p, []).append(p ** e)
    length = max((len(v) for v in powers.values()), default=0)
    chain = [1] * length
    for qs in powers.values():
        qs.sort(reverse=True)
        for pos, q in enumerate(qs):
            chain[length - 1 - pos] *= q
    return tuple(chain)


def tensor_invariants(A, B):
    """Invariant factors of (+ Z/a) tensor (+ Z/b), as
    Z/a (x) Z/b = Z/gcd(a, b)."""
    return invariant_factors([gcd(a, b) for a in A for b in B])


def sl_order(r, n):
    """|SL_r(Z/n)|, multiplicative over the prime powers of n, with
    |SL_r(Z/p^e)| = p^((e-1)(r^2-1)) * p^(r(r-1)/2) * prod_{i=2..r} (p^i - 1).

    For a local ring such as Z/p^e the elementary group E_r equals SL_r,
    so this is also |E_r(Z/n)| for n = 2, 3, 4.
    """
    total = 1
    for p, e in prime_factors(n).items():
        size = p ** ((e - 1) * (r * r - 1)) * p ** (r * (r - 1) // 2)
        for i in range(2, r + 1):
            size *= p ** i - 1
        total *= size
    return total


def mat_inverse_mod(M, n):
    """Inverse of the square matrix M over Z/n, or None if M is singular.

    Gauss-Jordan elimination with a unit pivot in every column.  For n a
    prime power Z/n is local, so an invertible matrix always has a unit in
    the unreduced part of each column, and finding none proves singularity.
    """
    size = len(M)
    A = [[x % n for x in row] + [1 if i == j else 0 for j in range(size)]
         for i, row in enumerate(M)]
    for c in range(size):
        piv = next((r for r in range(c, size) if gcd(A[r][c], n) == 1),
                   None)
        if piv is None:
            return None
        A[c], A[piv] = A[piv], A[c]
        inv = pow(A[c][c], -1, n)
        A[c] = [(x * inv) % n for x in A[c]]
        for r in range(size):
            if r != c and A[r][c]:
                f = A[r][c]
                A[r] = [(x - f * y) % n for x, y in zip(A[r], A[c])]
    return [row[size:] for row in A]


def is_inverse_pair(U, Uinv, seed, trials=2):
    """Freivalds' test that U * Uinv == I over the integers.

    Multiplies by random vectors with 32-bit entries instead of forming the
    product, which costs O(k^2) instead of O(k^3).  A wrong pair passes one
    trial with probability at most 2^-32.
    """
    rng = random.Random(seed)
    k = len(U)
    if len(Uinv) != k:
        return False
    for _ in range(trials):
        x = [rng.getrandbits(32) for _ in range(k)]
        y = [sum(a * b for a, b in zip(row, x)) for row in Uinv]
        if [sum(a * b for a, b in zip(row, y)) for row in U] != x:
            return False
    return True


def smith_diagonal(S):
    """The diagonal of S, or None if S has a nonzero entry off it."""
    diag = []
    for i, row in enumerate(S):
        for j, x in enumerate(row):
            if x and i != j:
                return None
        if i < len(row):
            diag.append(row[i])
    return diag


def divides_chain(diag):
    """Nonnegative entries with each dividing the next (0 divides only 0)."""
    if any(d < 0 for d in diag):
        return False
    for a, b in zip(diag, diag[1:]):
        if (a == 0 and b != 0) or (a and b % a):
            return False
    return True
