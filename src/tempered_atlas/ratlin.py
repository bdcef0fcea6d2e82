"""Exact linear algebra on integers: fraction-free elimination, a mat-vec
kernel, and integer-point enumeration in ellipsoids with integer quadrics.

Every matrix the package eliminates is an integer matrix up to one scale,
so ``eliminate`` runs Bareiss's fraction-free Gauss-Jordan elimination
(E. H. Bareiss, Math. Comp. 22, 1968): each division in it is exact, and
one pass gives the determinant, the adjugate and the leading principal
minors.  The ellipsoid walk takes its centre as integers over one
denominator, factors its integer quadric with it once and then runs on
integer budgets only, with optional integer lower bounds that cut each
coordinate's window.
"""

from fractions import Fraction
from functools import partial
from math import isqrt, lcm
from operator import mul


def eliminate(rows):
    """(det, rows, pivot_rows) for n integer rows [A | B] of length n + k.

    det is det A.  When it is nonzero the rows end as [det I | adj(A) B],
    so A^-1 B is the right block over det; when it is 0 the elimination
    stops at the first column with no pivot.  pivot_rows[i] is row i as
    column i is reached, before any swap: while no earlier swap was needed,
    its entry i is the leading principal minor m_i of order i + 1 and its
    entries j > i are those of m_(i-1) times the i-th row of Gaussian
    elimination.  A swap negates the row it moves, so det needs no sign.
    """
    rows = [list(row) for row in rows]
    pivot_rows, prev = [], 1
    for i in range(len(rows)):
        pivot_rows.append(rows[i])
        p = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if p is None:
            return 0, rows, pivot_rows
        if p != i:
            rows[i], rows[p] = rows[p], [-x for x in rows[i]]
        pivot, q = rows[i], rows[i][i]
        for r, row in enumerate(rows):
            # Every entry is a minor of [A | B] at every step (Sylvester's
            # identity), so the division by the last pivot is exact.
            if r != i:
                c = row[i]
                rows[r] = [(q * x - c * y) // prev for x, y in zip(row, pivot)]
        prev = q
    return prev, rows, pivot_rows


def _dot2(rows, x):
    x0, x1 = x
    return [a * x0 + b * x1 for a, b in rows]


def _dot3(rows, x):
    x0, x1, x2 = x
    return [a * x0 + b * x1 + c * x2 for a, b, c in rows]


def _dot(rows, x):
    return [sum(map(mul, x, row)) for row in rows]


def matvec(rows):
    """x -> [row . x for row in rows] for integer rows and x of one length,
    built once per table as a picklable partial.  The products are written
    out for lengths 2 and 3, the benchmarked ranks; others are summed."""
    rows = tuple(map(tuple, rows))
    width = {len(row) for row in rows}
    kernel = {2: _dot2, 3: _dot3}.get(width.pop(), _dot) if len(width) == 1 else _dot
    return partial(kernel, rows)


def sqrt_upper(q: Fraction) -> Fraction:
    """A rational u >= sqrt(q) for q >= 0, exact when q is a perfect square
    of a rational with the same denominator; isqrt refuses q < 0."""
    num, den = q.numerator, q.denominator
    r = isqrt(num * den)
    if r * r == num * den:
        return Fraction(r, den)
    return Fraction(r + 1, den)


def ellipsoid_integer_points(center, quad, bound, lower=None):
    """Yield every integer vector n with (n - cz/b) Q (n - cz/b)^T <= bound,
    for center = (cz, b), that meets the caller's lower bounds.

    cz holds integers and b > 0; Q is a symmetric positive definite integer
    matrix.  Its leading principal minors m_i (m_-1 = 1) and the pivot rows
    P of ``eliminate`` split the quadric as sum_i z_i^2 / (m_(i-1) m_i),
    z_i = sum_{j>=i} P[i][j] x_j with P[i][i] = m_i, so coordinates are
    fixed from the last to the first.  The rational bound is scaled once to
    an integer, after which every budget and window is integer arithmetic:
    the window of n_i is exact, from one ``isqrt`` of the remaining integer
    budget, and no point outside the ellipsoid is visited.

    ``lower``, when given, holds per coordinate None or a pair (c, row) of
    integers with row[i] > 0 and row[j] == 0 for j < i.  It asks for
    c + sum_j row[j] n_j >= 0, a lower bound on n_i given the coordinates
    already fixed, and the window is cut there.
    """
    cz, b = center
    r = len(cz)
    lower = tuple(lower) if lower is not None else (None,) * r
    if len(lower) != r or any(
        lb is not None and (lb[1][i] <= 0 or any(lb[1][:i])) for i, lb in enumerate(lower)
    ):
        raise ValueError("each lower bound must lead with a positive coefficient")
    if not isinstance(bound, (int, Fraction)):
        raise TypeError(f"the bound must be an int or a Fraction, not {type(bound).__name__}")
    bound = Fraction(bound)
    if bound < 0:
        return
    if r == 0:
        yield ()
        return
    _, _, pivot_rows = eliminate(quad)
    m = [row[i] for i, row in enumerate(pivot_rows)]
    if min(m) <= 0:
        raise ValueError("quadratic form is not positive definite")

    # b z_i = t_i n_i - mid for t_i = b m_i and the integer
    # mid = m_i cz_i - sum_{j>i} P[i][j] (b n_j - cz_j), and the budget test
    # becomes w_i (t_i n_i - mid)^2 <= beta, the whole quadric scaled by
    # b^2, by the lcm of the m_(i-1) m_i and by the bound's denominator.
    t = tuple(b * x for x in m)
    denoms = [a * x for a, x in zip((1, *m), m)]  # m_(i-1) m_i
    common = lcm(*denoms)
    w = tuple(common // x * bound.denominator for x in denoms)
    point = [0] * r

    def rec(i: int, beta: int):
        if i < 0:
            yield tuple(point)
            return
        row = pivot_rows[i]
        mid = m[i] * cz[i] - sum((b * point[j] - cz[j]) * row[j] for j in range(i + 1, r))
        s = isqrt(beta // w[i])
        lo = -((s - mid) // t[i])
        if lower[i] is not None:
            c, lrow = lower[i]
            lo = max(lo, -((c + sum(lrow[j] * point[j] for j in range(i + 1, r))) // lrow[i]))
        for n in range(lo, (mid + s) // t[i] + 1):
            z = t[i] * n - mid
            point[i] = n
            yield from rec(i - 1, beta - w[i] * z * z)

    yield from rec(r - 1, bound.numerator * b * b * common)
