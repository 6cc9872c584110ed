"""Exact integer / rational linear algebra at small dimension.

Matrices are lists of lists of Python ints or Fractions.  Used wherever
floating point would be a liability: determinants of unimodular
matrices, characteristic polynomials, polynomials evaluated at a matrix
(``eval_matrix``), the triangular column form that enumerates periodic
points, and the lattice searches behind the weak-irreducibility
cross-check.  Lattice reduction is integral LLL
(Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
Alg. 2.6.7), which keeps every Gram-Schmidt quantity an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from . import intpoly


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(a, v):
    return [sum(r[j] * v[j] for j in range(len(v))) for r in a]


def identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def eval_matrix(p, m_rows):
    """p(M) for a square integer matrix M, exactly (Horner)."""
    d = len(m_rows)
    acc = [[0] * d for _ in range(d)]
    for c in reversed(intpoly.trim(p)):
        acc = mat_mul(acc, m_rows)
        for i in range(d):
            acc[i][i] += c
    return acc


def mat_pow(a, k):
    d = len(a)
    out = identity(d)
    base = [row[:] for row in a]
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out


def det_bareiss(m):
    """Exact determinant of an integer matrix (fraction-free elimination)."""
    a = [[int(x) for x in row] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def solve_fraction(a, b):
    """Solve a x = b exactly over Q; b may be a vector or matrix."""
    n = len(a)
    vec = not isinstance(b[0], (list, tuple))
    rhs = [[Fraction(b[i])] for i in range(n)] if vec else \
          [[Fraction(x) for x in row] for row in b]
    m = [[Fraction(a[i][j]) for j in range(n)] + rhs[i] for i in range(n)]
    cols = len(m[0])
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix in exact solve")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [c * inv for c in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [m[i][j] - f * m[k][j] for j in range(cols)]
    sol = [row[n:] for row in m]
    if vec:
        return [row[0] for row in sol]
    return sol


def inverse_fraction(a):
    return solve_fraction(a, identity(len(a)))


def inverse_unimodular(a):
    """Exact integer inverse of an integer matrix with det = +-1."""
    inv = inverse_fraction(a)
    out = []
    for row in inv:
        r = []
        for c in row:
            if c.denominator != 1:
                raise ValueError("matrix is not unimodular")
            r.append(int(c))
        out.append(r)
    return out


def column_reduce(rows, d):
    """Unimodular U and rank r with (n @ U)[j] = 0 for j >= r, every row n.

    Integer column operations (Euclid on the trailing entries of each
    row in turn) applied to the identity; r is the rank of the lattice
    the rows span.  Stops as soon as r = d.  Later steps touch only
    columns >= r, where earlier rows are already zero, so for the rows of
    a nonsingular d x d matrix A the product A U is lower triangular.
    """
    u = identity(d)
    r = 0
    for n in rows:
        if r == d:
            break
        v = [sum(n[i] * u[i][j] for i in range(d)) for j in range(d)]
        while any(v[r + 1:]):
            p = min((j for j in range(r, d) if v[j]), key=lambda j: abs(v[j]))
            v[r], v[p] = v[p], v[r]
            for row in u:
                row[r], row[p] = row[p], row[r]
            for j in range(r + 1, d):
                q = v[j] // v[r]
                if q:
                    v[j] -= q * v[r]
                    for row in u:
                        row[j] -= q * row[r]
        if v[r]:
            r += 1
    return u, r


def charpoly(m):
    """Characteristic polynomial det(xI - M), exact, low-to-high coefficients.

    Faddeev-LeVerrier: the trace divisions are exact for integer input.
    """
    d = len(m)
    coeffs = [0] * (d + 1)
    coeffs[d] = 1
    a = identity(d)
    for k in range(1, d + 1):
        a = mat_mul(m, a)
        tr = sum(a[i][i] for i in range(d))
        if tr % k != 0:
            raise ArithmeticError("non-exact division in charpoly")
        c = -tr // k
        coeffs[d - k] = c
        for i in range(d):
            a[i][i] += c
    return coeffs


def minimal_poly_of_vector(m, v):
    """Minimal monic rational polynomial q with q(M) v = 0 (exact Krylov)."""
    d = len(m)
    krylov = [[Fraction(x) for x in v]]
    while True:
        nxt = [sum(Fraction(m[i][j]) * krylov[-1][j] for j in range(d))
               for i in range(d)]
        # solve for dependence of nxt on krylov
        k = len(krylov)
        rows = [[krylov[t][i] for t in range(k)] + [nxt[i]] for i in range(d)]
        # Gaussian elimination, consistent system => dependence found
        rank_cols = []
        r = 0
        work = [row[:] for row in rows]
        for c in range(k):
            piv = next((i for i in range(r, d) if work[i][c] != 0), None)
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            inv = 1 / work[r][c]
            work[r] = [x * inv for x in work[r]]
            for i in range(d):
                if i != r and work[i][c] != 0:
                    f = work[i][c]
                    work[i] = [work[i][j] - f * work[r][j]
                               for j in range(k + 1)]
            rank_cols.append(c)
            r += 1
        consistent = all(work[i][k] == 0 for i in range(r, d))
        if consistent:
            sol = [Fraction(0)] * k
            for rr, c in enumerate(rank_cols):
                sol[c] = work[rr][k]
            coeffs = [-s for s in sol] + [Fraction(1)]
            den = lcm(*(c.denominator for c in coeffs))
            return intpoly.primitive([int(c * den) for c in coeffs])
        krylov.append(nxt)
        if len(krylov) > d:
            raise ArithmeticError("Krylov sequence failed to close")


# ---------------------------------------------------------------------------
# Lattice reduction (integral LLL)
# ---------------------------------------------------------------------------

def _round_div(a, m):
    """round(a / m) for m > 0, ties to even as round() on a Fraction."""
    r, rem = divmod(2 * a + m, 2 * m)
    if rem == 0 and r % 2:
        r -= 1
    return r


def lll_reduce(rows):
    """LLL-reduce a basis of integer rows; returns a new list of rows.

    Integral LLL (Cohen, GTM 138, Alg. 2.6.7, after de Weger): with the
    Gram determinants dd[i] of the first i rows (dd[0] = 1) and
    lam[k][j] = dd[j+1] mu_kj, every quantity stays an integer and each
    size reduction or swap updates them in O(n).  Each visit to row k
    size-reduces it against rows k-1, ..., 0 before the Lovasz test
    4 dd[k+1] dd[k-1] >= 3 dd[k]^2 - 4 lam[k][k-1]^2 for delta = 3/4.
    Raises ValueError if the rows are linearly dependent.
    """
    b = [[int(x) for x in r] for r in rows]
    n = len(b)
    if n <= 1:
        return b
    dd = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def gram_schmidt(k):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (dd[i + 1] * u - lam[k][i] * lam[j][i]) // dd[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("lll_reduce: rows are linearly dependent")
            else:
                dd[k + 1] = u

    def size_reduce(k, j):
        if 2 * abs(lam[k][j]) <= dd[j + 1]:
            return
        r = _round_div(lam[k][j], dd[j + 1])
        b[k] = [x - r * y for x, y in zip(b[k], b[j])]
        lam[k][j] -= r * dd[j + 1]
        for i in range(j):
            lam[k][i] -= r * lam[j][i]

    def swap(k, k_max):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lk = lam[k][k - 1]
        dk = (dd[k - 1] * dd[k + 1] + lk * lk) // dd[k]
        for i in range(k + 1, k_max + 1):
            t = lam[i][k]
            lam[i][k] = (dd[k + 1] * lam[i][k - 1] - lk * t) // dd[k]
            lam[i][k - 1] = (dk * t + lk * lam[i][k]) // dd[k + 1]
        dd[k] = dk

    gram_schmidt(0)
    k, k_max = 1, 0
    while k < n:
        if k > k_max:
            k_max = k
            gram_schmidt(k)
        for j in range(k - 1, -1, -1):
            size_reduce(k, j)
        if 4 * dd[k + 1] * dd[k - 1] >= \
                3 * dd[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            k += 1
        else:
            swap(k, k_max)
            k = max(k - 1, 1)
    return b
