"""Exact linear algebra over Fraction: the reference against which the
tests check ``tempered_atlas.ratlin.eliminate``, the lattice coordinates
built on it, a face's integer Levi projection, and the package's integer
coroot pairings and reflections: ``coroot_pairing``, ``reflect`` and
``scale_form`` are the textbook definitions, written on
``BilinearForm.inner``.

Matrices are tuples of tuples of Fractions (int entries are accepted
too); every routine is a textbook definition, kept apart from the
package so that the oracles stay independent of the code they check.
"""

from fractions import Fraction

from tempered_atlas.errors import ZeroRoot
from tempered_atlas.weights import BilinearForm, Weight

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


def inner(gram: Matrix, a, b) -> Fraction:
    """<a, b> = a G b^T on Fraction coordinates."""
    return sum(x * g * y for x, row in zip(a, gram) for g, y in zip(row, b))


def project_away(w: Weight, roots, form) -> Weight:
    """w less its components along mutually orthogonal roots, each
    coefficient <w, a> / <a, a> a Fraction of the form's Gram matrix."""
    out = list(w)
    for a in roots:
        c = inner(form.gram, w, a) / inner(form.gram, a, a)
        out = [x - c * y for x, y in zip(out, a)]
    return Weight(out)


def coroot_pairing(w: Weight, root: Weight, form: BilinearForm) -> Fraction:
    """2 <w, root> / <root, root>."""
    nn = form.inner(root, root)
    if nn == 0:
        raise ZeroRoot(f"zero-length root {root}")
    return 2 * form.inner(w, root) / nn


def reflect(w: Weight, root: Weight, form: BilinearForm) -> Weight:
    """w less its coroot pairing with root times root."""
    return w - coroot_pairing(w, root, form) * root


def scale_form(form: BilinearForm, c) -> BilinearForm:
    """The form c <., .>: every Gram entry times c."""
    return BilinearForm(tuple(tuple(c * x for x in row) for row in form.gram))
