"""Exact linear algebra over Fraction: solve, determinants, LDL,
and integer-point enumeration inside rational ellipsoids.

Matrices are tuples of tuples of Fractions; everything here is pure and
float-free.  The ellipsoid walk factors its form once in Fractions and then
runs on integer budgets only, with optional integer lower bounds that cut
each coordinate's window.
"""

from fractions import Fraction
from math import isqrt, lcm

Matrix = tuple[tuple[Fraction, ...], ...]


def to_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def det(m: Matrix) -> Fraction:
    # Exact Gaussian elimination on int or Fraction entries; row swaps flip the sign.
    n = len(m)
    rows = [list(r) for r in m]
    sign = 1
    d = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        p = Fraction(rows[col][col])
        d *= p
        for r in range(col + 1, n):
            factor = rows[r][col] / p
            if factor:
                for c in range(col, n):
                    rows[r][c] -= factor * rows[col][c]
    return sign * d


def gauss_solve(a: Matrix, b) -> tuple[Fraction, ...] | None:
    """One exact solution of a x = b, or None when the system is
    inconsistent.  Free variables (if any) are set to zero."""
    m = len(a)
    n = len(a[0]) if m else 0
    rows = [[Fraction(x) for x in a[i]] + [Fraction(b[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        p = rows[row][col]
        rows[row] = [x / p for x in rows[row]]
        for r in range(m):
            if r != row and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if rows[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = rows[r][n]
    return tuple(x)


def ldl(m: Matrix):
    """LDL^T factorization of a symmetric positive definite matrix.

    Returns (L, D) with L unit lower triangular and D the diagonal, both
    exact; returns None when a pivot fails to be positive.
    """
    n = len(m)
    L = [[Fraction(0)] * n for _ in range(n)]
    D = [Fraction(0)] * n
    for j in range(n):
        D[j] = m[j][j] - sum(L[j][k] * L[j][k] * D[k] for k in range(j))
        if D[j] <= 0:
            return None
        L[j][j] = Fraction(1)
        for i in range(j + 1, n):
            L[i][j] = (m[i][j] - sum(L[i][k] * L[j][k] * D[k] for k in range(j))) / D[j]
    return tuple(tuple(r) for r in L), tuple(D)


def sqrt_upper(q: Fraction) -> Fraction:
    """A rational u >= sqrt(q) for q >= 0, exact when q is a perfect square
    of a rational with the same denominator."""
    if q < 0:
        raise ValueError("negative radicand")
    num, den = q.numerator, q.denominator
    r = isqrt(num * den)
    if r * r == num * den:
        return Fraction(r, den)
    return Fraction(r + 1, den)


def ellipsoid_integer_points(center, quad: Matrix, bound, lower=None):
    """Yield every integer vector n with (n - center) Q (n - center)^T <= bound
    that meets the caller's lower bounds.

    Q must be symmetric positive definite.  With Q = L D L^T the quadric
    splits as sum_i d_i y_i^2, y_i = x_i + sum_{j>i} x_j L[j][i], so
    coordinates are fixed from the last to the first.  L, D, the centre
    and the bound are scaled once to integers, after which every budget
    and window is integer arithmetic: the window of n_i is exact, from one
    ``isqrt`` of the remaining integer budget, and no point outside the
    ellipsoid is visited.

    ``lower``, when given, holds per coordinate None or a pair (c, row) of
    integers with row[i] > 0 and row[j] == 0 for j < i.  It asks for
    c + sum_j row[j] n_j >= 0, a lower bound on n_i given the coordinates
    already fixed, and the window is cut there.
    """
    r = len(center)
    lower = tuple(lower) if lower is not None else (None,) * r
    if len(lower) != r or any(
        lb is not None and (lb[1][i] <= 0 or any(lb[1][:i])) for i, lb in enumerate(lower)
    ):
        raise ValueError("each lower bound must lead with a positive coefficient")
    bound = Fraction(bound)
    if bound < 0:
        return
    if r == 0:
        yield ()
        return
    fact = ldl(quad)
    if fact is None:
        raise ValueError("quadratic form is not positive definite")
    L, D = fact
    center = tuple(Fraction(c) for c in center)

    # With lz = a L and cz = b center integral and t = a b, the window
    # centre of n_i is mid / t for the integer
    # mid = a cz_i - sum_{j>i} (b n_j - cz_j) lz[j][i], and the budget
    # test d_i (n_i - mid / t)^2 <= budget becomes w_i (t n_i - mid)^2 <=
    # beta, the whole quadric scaled by t^2 and the denominators of D and
    # the bound.
    a = lcm(*(L[j][i].denominator for j in range(r) for i in range(j)))
    b = lcm(*(c.denominator for c in center))
    t = a * b
    lz = tuple(tuple(int(x * a) for x in row) for row in L)
    cz = tuple(int(c * b) for c in center)
    dd = lcm(*(x.denominator for x in D))
    w = tuple(int(x * dd) * bound.denominator for x in D)
    point = [0] * r

    def rec(i: int, beta: int):
        if i < 0:
            yield tuple(point)
            return
        mid = a * cz[i] - sum((b * point[j] - cz[j]) * lz[j][i] for j in range(i + 1, r))
        s = isqrt(beta // w[i])
        lo = -((s - mid) // t)
        if lower[i] is not None:
            c, row = lower[i]
            lo = max(lo, -((c + sum(row[j] * point[j] for j in range(i + 1, r))) // row[i]))
        for n in range(lo, (mid + s) // t + 1):
            z = t * n - mid
            point[i] = n
            yield from rec(i - 1, beta - w[i] * z * z)

    yield from rec(r - 1, bound.numerator * t * t * dd)
