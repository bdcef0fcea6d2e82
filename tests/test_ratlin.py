import itertools
import pickle
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tempered_atlas.ratlin import eliminate, ellipsoid_integer_points, matvec, sqrt_upper
from fraction_linalg import gauss_solve, mat_mul, to_matrix, transpose


def test_det_examples():
    assert eliminate(((1, 2), (2, 1)))[0] == -3
    assert eliminate(((2, 1), (1, 2)))[0] == 3
    assert eliminate(((1, 2), (2, 4)))[0] == 0
    assert eliminate(()) == (1, [], [])


def test_det_exact_on_int_entries():
    # The third row is -(first) - 2 (second); int division would leave a
    # float residue here.
    m = ((3, -2, 2), (2, 3, -2), (-7, -4, 2))
    assert eliminate(m)[0] == 0
    assert type(eliminate(((2, 1), (1, 2)))[0]) is int


def test_gauss_solve_unique():
    # A x = b is the right column over det.
    det, rows, _ = eliminate(((2, 1, 4), (1, 2, 5)))
    assert tuple(Fraction(row[2], det) for row in rows) == (1, 2)


def test_gauss_solve_inconsistent():
    assert eliminate(((1, 1, 1), (2, 2, 3)))[0] == 0


@st.composite
def matvec_cases(draw):
    """Integer rows of one length 0..5 and a vector of that length.  Entries
    come from -2..2 as well as at large, so that the generated source skips
    zeros and writes +-1 without a multiply."""
    width = draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(-2, 2) | st.integers(-10**6, 10**6)
    entries = st.lists(entry, min_size=width, max_size=width)
    rows = draw(st.lists(entries, max_size=6))
    return rows, draw(entries)


@given(matvec_cases(), st.booleans(), st.booleans())
@example(([[1, -1], [1, 1], [2, 0], [0, 2], [0, 0], [-1, -2]], [3, 5]), True, True)
def test_matvec_matches_the_generic_sum(case, tuple_rows, tuple_x):
    rows, x = case
    rows = [tuple(row) if tuple_rows else row for row in rows]
    x = tuple(x) if tuple_x else x
    dots = matvec(iter(rows))
    expected = [sum(map(mul, x, row)) for row in rows]
    assert dots(x) == expected
    # The kernel holds its own copy of the rows, and reads x afresh each call.
    assert dots(x) == expected
    assert dots([2 * v for v in x]) == [2 * v for v in expected]
    assert pickle.loads(pickle.dumps(dots))(x) == expected


def test_matvec_of_the_empty_table_reads_no_x():
    assert matvec([])((1, -2, 3)) == []
    assert pickle.loads(pickle.dumps(matvec(())))([4]) == []


@pytest.mark.parametrize(
    "entry", (True, Fraction(1), 1.0, "1", "x0"), ids=("bool", "Fraction", "float", "str", "name")
)
def test_matvec_refuses_an_entry_not_exactly_int(entry):
    # Checked before any source is built: no text reaches the compiler.
    with pytest.raises(TypeError, match=f"not {type(entry).__name__}$"):
        matvec([(1, 2), (3, entry)])


def test_matvec_refuses_rows_of_two_lengths_and_x_of_another_length():
    with pytest.raises(ValueError, match="one length"):
        matvec([(1, 2), (3,)])
    with pytest.raises(ValueError):
        matvec([(1, 2)])((1, 2, 3))


def ldl_from_pivot_rows(pivot_rows):
    """(L, D) with L[j][i] = P[i][j] / m_i and d_i = m_i / m_(i-1), from the
    pivot rows P of an elimination with no swap."""
    n = len(pivot_rows)
    m = [Fraction(1)] + [Fraction(row[i]) for i, row in enumerate(pivot_rows)]
    L = tuple(
        tuple(pivot_rows[i][j] / m[i + 1] if i <= j else Fraction(0) for i in range(n))
        for j in range(n)
    )
    return L, tuple(m[i + 1] / m[i] for i in range(n))


def test_ldl_reconstructs():
    a = ((4, 2), (2, 3))
    L, D = ldl_from_pivot_rows(eliminate(a)[2])
    diag = to_matrix(((D[0], 0), (0, D[1])))
    assert mat_mul(mat_mul(L, diag), transpose(L)) == to_matrix(a)
    assert [row[i] for i, row in enumerate(eliminate(((1, 2), (2, 1)))[2])] == [1, -3]


def leibniz_det(m) -> int:
    """The determinant as the signed sum over permutations."""
    n, total = len(m), 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


@st.composite
def int_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entries = st.integers(min_value=-5, max_value=5)
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@given(int_matrices())
@example(((0, 1), (1, 0)))  # needs a row swap at the first column
@example(((1, 2, 3), (2, 4, 1), (3, 1, 5)))  # a swap after one pivot
@example(((3, -2, 2), (2, 3, -2), (-7, -4, 2)))
def test_eliminate_against_leibniz_and_gauss_solve(m):
    n = len(m)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    det, rows, _ = eliminate([[*row, *e] for row, e in zip(m, identity)])
    assert det == leibniz_det(m)
    if det == 0:
        return
    for j in range(n):
        column = gauss_solve(m, identity[j])
        assert tuple(Fraction(row[n + j], det) for row in rows) == column
    assert all(row[:n] == [det * x for x in e] for row, e in zip(rows, identity))


@given(int_matrices())
def test_pivot_rows_rebuild_positive_definite_input(a):
    # a a^T + I is positive definite: no swap, every m_i > 0, and L D L^T
    # rebuilt from the pivot rows gives it back.
    n = len(a)
    m = tuple(
        tuple(sum(a[i][k] * a[j][k] for k in range(n)) + (i == j) for j in range(n))
        for i in range(n)
    )
    pivot_rows = eliminate(m)[2]
    assert all(row[i] > 0 for i, row in enumerate(pivot_rows))
    L, D = ldl_from_pivot_rows(pivot_rows)
    diag = tuple(tuple(D[i] if i == j else 0 for j in range(n)) for i in range(n))
    assert mat_mul(mat_mul(L, diag), transpose(L)) == to_matrix(m)


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
    # quad is integral; scale the centre to integers and the quadric by m^2,
    # and clear the bound's denominator.
    m = center[0].denominator * center[1].denominator
    cz = [int(c * m) for c in center]
    gram = [[int(x) for x in row] for row in quad]
    scaled_bound = bound.numerator * m * m
    got = sorted(ellipsoid_integer_points((cz, m), gram, bound))

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
    # quad is integral; scale the centre to integers and the quadric by m^2.
    m = center[0].denominator * center[1].denominator
    cz = [int(c * m) for c in center]
    gram = [[int(x) for x in row] for row in quad]
    scaled_bound = bound * m * m
    got = list(ellipsoid_integer_points((cz, m), gram, bound, lower))

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
    quad = ((1, 0), (0, 1))
    for lower in (((0, (0, 1)), None), (None, (0, (1, 1))), (None, (0, (0, -1)))):
        with pytest.raises(ValueError):
            list(ellipsoid_integer_points(((0, 0), 1), quad, 4, lower))


def test_ellipsoid_bound_must_be_exact():
    # Refused as weights._coerce refuses a float, even one that is exact.
    with pytest.raises(TypeError, match="not float"):
        list(ellipsoid_integer_points(((0,), 1), ((1,),), 2.25))
    assert list(ellipsoid_integer_points(((0,), 1), ((1,),), Fraction(9, 4))) == [(-1,), (0,), (1,)]


def test_ellipsoid_of_rank_zero_holds_the_empty_point():
    # The general walk: no coordinate to fix, so its one leaf is ().
    for bound in (0, Fraction(1, 2), 5):
        assert list(ellipsoid_integer_points(((), 1), (), bound)) == [()]
    assert list(ellipsoid_integer_points(((), 1), (), -1)) == []


def test_sqrt_upper_refuses_a_negative_radicand():
    with pytest.raises(ValueError):
        sqrt_upper(Fraction(-1, 4))
