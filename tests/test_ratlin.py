from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempered_atlas.ratlin import (
    det,
    ellipsoid_integer_points,
    gauss_solve,
    ldl,
    mat_mul,
    sqrt_upper,
    to_matrix,
    transpose,
)


def test_det_examples():
    assert det(to_matrix(((1, 2), (2, 1)))) == -3
    assert det(to_matrix(((2, 1), (1, 2)))) == 3
    assert det(to_matrix(((1, 2), (2, 4)))) == 0


def test_det_exact_on_int_entries():
    # The third row is -(first) - 2 (second); int division would leave a
    # float residue here.
    m = ((3, -2, 2), (2, 3, -2), (-7, -4, 2))
    assert det(m) == 0
    assert type(det(((2, 1), (1, 2)))) is Fraction


def test_gauss_solve_unique():
    a = to_matrix(((2, 1), (1, 2)))
    x = gauss_solve(a, (4, 5))
    assert x == (1, 2)


def test_gauss_solve_inconsistent():
    a = to_matrix(((1, 1), (2, 2)))
    assert gauss_solve(a, (1, 3)) is None


def test_ldl_reconstructs():
    a = to_matrix(((4, 2), (2, 3)))
    L, D = ldl(a)
    diag = to_matrix(((D[0], 0), (0, D[1])))
    assert mat_mul(mat_mul(L, diag), transpose(L)) == a
    assert ldl(to_matrix(((1, 2), (2, 1)))) is None


@given(st.fractions(min_value=0, max_value=50, max_denominator=9))
def test_sqrt_upper_bounds(q):
    u = sqrt_upper(q)
    assert u * u >= q
    # tight on perfect squares
    if q.numerator == 0:
        assert u == 0


def test_sqrt_upper_perfect_square():
    assert sqrt_upper(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_upper(Fraction(2)) == 2  # isqrt(2) = 1, rounded up


@st.composite
def pd_matrices(draw, rank=2):
    entries = st.integers(min_value=-2, max_value=2)
    a = [[draw(entries) for _ in range(rank)] for _ in range(rank)]
    return to_matrix(
        tuple(
            tuple(
                sum(a[k][i] * a[k][j] for k in range(rank)) + (2 if i == j else 0)
                for j in range(rank)
            )
            for i in range(rank)
        )
    )


@given(
    pd_matrices(),
    st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    ),
    st.fractions(min_value=0, max_value=30, max_denominator=4),
)
def test_ellipsoid_enumeration_complete_and_sound(quad, center, bound):
    got = sorted(ellipsoid_integer_points(center, quad, bound))
    # quad is integral; scale the centre to integers and the quadric by m^2,
    # and clear the bound's denominator.
    m = center[0].denominator * center[1].denominator
    cz = [int(c * m) for c in center]
    gram = [[int(x) for x in row] for row in quad]
    scaled_bound = bound.numerator * m * m

    def q(n):
        x = [m * n[i] - cz[i] for i in range(2)]
        return bound.denominator * sum(
            x[i] * gram[i][j] * x[j] for i in range(2) for j in range(2)
        )

    # oracle: scan a generous integer box around the center
    expected = sorted(
        (i, j)
        for i in range(-16, 17)
        for j in range(-16, 17)
        if q((i, j)) <= scaled_bound
    )
    assert got == expected
    assert len(set(got)) == len(got)


@st.composite
def lower_bounds(draw):
    """Per coordinate None or (c, row): c + row . n >= 0 with row[i] > 0 and
    zeros before it, so it bounds n_i below once n_j, j > i, are fixed."""
    out = []
    for i in range(2):
        if draw(st.booleans()):
            out.append(None)
            continue
        row = [0] * i + [draw(st.integers(1, 3))]
        row += [draw(st.integers(-3, 3)) for _ in range(i + 1, 2)]
        out.append((draw(st.integers(-6, 6)), tuple(row)))
    return tuple(out)


@given(
    pd_matrices(),
    st.tuples(
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
        st.fractions(min_value=-2, max_value=2, max_denominator=3),
    ),
    st.fractions(min_value=0, max_value=30, max_denominator=4),
    lower_bounds(),
)
def test_ellipsoid_lower_bounds_against_scan(quad, center, bound, lower):
    got = list(ellipsoid_integer_points(center, quad, bound, lower))
    # quad is integral; scale the centre to integers and the quadric by m^2.
    m = center[0].denominator * center[1].denominator
    cz = [int(c * m) for c in center]
    gram = [[int(x) for x in row] for row in quad]
    scaled_bound = bound * m * m

    def q(n):
        x = [m * n[i] - cz[i] for i in range(2)]
        return sum(x[i] * gram[i][j] * x[j] for i in range(2) for j in range(2))

    def meets(n):
        return all(b is None or b[0] + sum(r * x for r, x in zip(b[1], n)) >= 0 for b in lower)

    expected = sorted(
        (i, j)
        for i in range(-16, 17)
        for j in range(-16, 17)
        if meets((i, j)) and q((i, j)) <= scaled_bound
    )
    assert sorted(got) == expected
    assert len(set(got)) == len(got)


def test_ellipsoid_lower_bound_must_lead_positive():
    quad = to_matrix(((1, 0), (0, 1)))
    for lower in (((0, (0, 1)), None), (None, (0, (1, 1))), (None, (0, (0, -1)))):
        with pytest.raises(ValueError):
            list(ellipsoid_integer_points((0, 0), quad, 4, lower))
