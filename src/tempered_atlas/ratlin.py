"""Exact linear algebra over Fraction: solve, determinants, LDL,
and integer-point enumeration inside rational ellipsoids.

Matrices are tuples of tuples of Fractions; everything here is pure and
float-free.
"""

from fractions import Fraction
from math import ceil, floor, isqrt

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
    # Fraction-friendly Gaussian elimination; row swaps flip the sign.
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
        p = rows[col][col]
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


def ellipsoid_integer_points(center, quad: Matrix, bound: Fraction):
    """Yield every integer vector n with (n - center) Q (n - center)^T <= bound.

    Q must be symmetric positive definite.  Enumeration is the recursive
    LDL form: with Q = L D L^T the quadric splits as sum_i d_i y_i^2,
    y_i = x_i + sum_{j>i} x_j L[j][i], so coordinates are fixed from the
    last to the first with exact rational budgets; candidate windows come
    from integer square roots and are then filtered exactly.
    """
    r = len(center)
    if bound < 0:
        return
    if r == 0:
        yield ()
        return
    fact = ldl(quad)
    if fact is None:
        raise ValueError("quadratic form is not positive definite")
    L, D = fact
    point = [0] * r

    def rec(i: int, budget: Fraction):
        if i < 0:
            yield tuple(point)
            return
        shift = sum((point[j] - center[j]) * L[j][i] for j in range(i + 1, r))
        mid = center[i] - shift
        q = budget / D[i]
        s = sqrt_upper(q)
        for n in range(ceil(mid - s), floor(mid + s) + 1):
            used = D[i] * (n - mid) ** 2
            if used <= budget:
                point[i] = n
                yield from rec(i - 1, budget - used)

    yield from rec(r - 1, Fraction(bound))
