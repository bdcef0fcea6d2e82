import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tempered_atlas.classify import enumerate_ball, enumerate_components
from tempered_atlas.errors import DimensionMismatch, ZeroRoot
from tempered_atlas.groups import RealFormDescriptor
from tempered_atlas.weights import (
    BilinearForm,
    Weight,
    half_sum,
    parse_rational,
    parse_weight,
    reflection_escape,
)
from fraction_linalg import coroot_pairing, det, project_away, reflect, scale_form

I2 = BilinearForm.identity(2)

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)
weights2 = st.builds(lambda a, b: Weight((a, b)), rationals, rationals)


@st.composite
def pd_forms(draw, rank=2):
    # A^T A + I is symmetric positive definite for any integer A.
    entries = st.integers(min_value=-3, max_value=3)
    a = [[draw(entries) for _ in range(rank)] for _ in range(rank)]
    gram = [
        [
            sum(a[k][i] * a[k][j] for k in range(rank)) + (1 if i == j else 0)
            for j in range(rank)
        ]
        for i in range(rank)
    ]
    return BilinearForm(gram)


def test_inner_orthogonal_basis():
    assert I2.inner(Weight((1, 0)), Weight((0, 1))) == 0


def test_inner_direct_evaluation():
    assert I2.inner(Weight((3, 1)), Weight((1, 1))) == 4
    assert I2.inner(Weight((3, -2)), Weight((0, 2))) == -4


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        I2.inner(Weight((1, 0)), Weight((1, 0, 0)))


def test_coroot_pairing_examples():
    assert coroot_pairing(Weight((-1, 0)), Weight((1, 1)), I2) == -1
    for alpha in (Weight((1, 1)), Weight((2, 0)), Weight((3, -5))):
        assert coroot_pairing(alpha, alpha, I2) == 2
        assert coroot_pairing(Weight((0, 0)), alpha, I2) == 0


def test_coroot_pairing_zero_root():
    with pytest.raises(ZeroRoot):
        coroot_pairing(Weight((1, 0)), Weight((0, 0)), I2)


def test_half_sum_examples():
    assert half_sum((), rank=2) == Weight((0, 0))
    # noncompact positives of the rank-two symplectic group
    assert half_sum([Weight((1, 1)), Weight((2, 0)), Weight((0, 2))]) == Weight(
        (Fraction(3, 2), Fraction(3, 2))
    )
    assert half_sum([Weight((1, -1))]) == Weight((Fraction(1, 2), Fraction(-1, 2)))


def positives_only(positives, form=I2) -> RealFormDescriptor:
    """A rank-two descriptor carrying nothing but the given positive compact
    roots, which is all RealFormDescriptor.is_dominant_weight reads."""
    return RealFormDescriptor(
        name="positives",
        rank_tc=2,
        rank_g=2,
        form=form,
        compact_roots=(),
        positive_compact=tuple(positives),
        noncompact_weights=(),
        zero_weight_s_dim=0,
        integrality_basis=(),
    )


def test_dominance_examples():
    d = positives_only((Weight((1, -1)),))
    zero = Weight((0, 0))
    assert d.is_dominant_weight(zero)
    assert not d.is_dominant_weight(Weight((1, 2)))


def test_dominance_vacuous_for_empty_positives():
    assert positives_only(()).is_dominant_weight(Weight((-7, 3)))


def test_parse_rational_rejects_floats():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("7") == 7
    for bad in ("1.5", "1e3", "3/0", "", "1/2/3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize(
    "text, value",
    (
        ("+3", Fraction(3)),
        ("-0/5", Fraction(0)),
        ("007/3", Fraction(7, 3)),
        (" -6/4 ", Fraction(-3, 2)),
    ),
)
def test_parse_rational_builds_the_value_from_its_two_parts(text, value):
    got = parse_rational(text)
    assert type(got) is Fraction and got == value


# Arabic-Indic two, superscript two, fullwidth one: int() reads the first
# and the last, but a literal takes ASCII digits only.
@pytest.mark.parametrize("text", ("\u0662", "\u00b2", "\uff11", "1/\u0663", "\u0661,0"))
def test_parse_rational_and_weight_refuse_non_ascii_digits(text):
    with pytest.raises(ValueError, match="not an exact rational literal"):
        parse_weight(text)
    if "," not in text:
        with pytest.raises(ValueError, match="not an exact rational literal"):
            parse_rational(text)


def test_parse_weight():
    assert parse_weight("1/2,-1/2") == Weight((Fraction(1, 2), Fraction(-1, 2)))
    assert parse_weight("(2,0)") == Weight((2, 0))
    with pytest.raises(ValueError):
        parse_weight("0.5,1")


@pytest.mark.parametrize("text", ("1,0,", "2,,0", ",1", "(1, ,2)"))
def test_parse_weight_refuses_an_empty_coordinate(text):
    # Dropping it would read a shorter weight than the text gives.
    message = f"empty coordinate in weight literal: {text!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse_weight(text)


@pytest.mark.parametrize("text", ("", " ", "()", ","))
def test_parse_weight_refuses_an_empty_weight(text):
    with pytest.raises(ValueError, match="^empty weight literal: "):
        parse_weight(text)


literals = st.builds(
    lambda sign, p, q, pad: pad + sign + str(p) + (f"/{q}" if q else "") + pad,
    st.sampled_from(("", "+", "-")),
    st.integers(min_value=0, max_value=120),
    st.one_of(st.none(), st.integers(min_value=1, max_value=36)),
    st.sampled_from(("", " ")),
)


@given(st.lists(literals, min_size=1, max_size=4), st.booleans())
@example(["4/6", "-2/3", "0/5"], False)
@example(["0", "-0"], True)
def test_parse_weight_equals_the_weight_of_its_parsed_rationals(parts, parens):
    # parse_weight reads integers and takes one lcm; the reference builds
    # one Fraction per coordinate.
    text = ",".join(parts)
    if parens:
        text = f"({text})"
    got = parse_weight(text)
    assert got == Weight(parse_rational(p) for p in parts)
    assert got.coords == tuple(parse_rational(p) for p in parts)


def test_weight_rejects_floats(sp4r):
    with pytest.raises(TypeError):
        Weight((0.5, 1))
    with pytest.raises(TypeError):
        Weight((1, 0)) * 0.5
    # Fraction() reads a decimal literal too: only an int or a Fraction
    # enters, as a coordinate, a Gram entry, a scalar or a radius.
    for bad in ("1/2", "0.5", "1e2", Decimal("0.1"), Decimal(3)):
        name = type(bad).__name__
        with pytest.raises(TypeError, match=f"not {name}"):
            Weight((bad, 1))
        with pytest.raises(TypeError, match=f"not {name}"):
            BilinearForm([[bad]])
        with pytest.raises(TypeError, match=f"not {name}"):
            Weight((1, 0)) * bad
        with pytest.raises(TypeError, match=f"not {name}"):
            enumerate_components(sp4r, bad)
        with pytest.raises(TypeError, match=f"not {name}"):
            enumerate_ball(sp4r, bad)
    assert Weight((1, Fraction(1, 2))) * Fraction(2) == Weight((2, 1))


def test_project_away_removes_orthogonal_components():
    # The Fraction oracle for a face's Levi projection; orthogonality is
    # the caller's to ensure, as ThetaParabolic checks its Levi pairs.
    out = project_away(Weight((3, 1)), [Weight((1, 1)), Weight((1, -1))], I2)
    assert out == Weight((0, 0))
    assert project_away(Weight((3, 1)), [Weight((0, 2))], I2) == Weight((3, 0))


@given(weights2, weights2, pd_forms())
def test_inner_symmetric(a, b, form):
    assert form.inner(a, b) == form.inner(b, a)


@given(weights2, weights2, weights2, rationals, pd_forms())
def test_inner_bilinear(a, b, c, t, form):
    assert form.inner(a + t * b, c) == form.inner(a, c) + t * form.inner(b, c)


@given(weights2, pd_forms())
def test_inner_positive_definite(w, form):
    assert form.is_positive_definite()
    if w.is_zero:
        assert form.norm_sq(w) == 0
    else:
        assert form.norm_sq(w) > 0


@given(weights2, weights2, pd_forms())
def test_reflect_twice_is_identity(w, root, form):
    if root.is_zero:
        return
    assert reflect(reflect(w, root, form), root, form) == w


@given(st.lists(weights2, max_size=5), st.lists(weights2, max_size=5))
def test_half_sum_additive(s, t):
    assert half_sum(s + t, rank=2) == half_sum(s, rank=2) + half_sum(t, rank=2)


@given(weights2, st.fractions(min_value=Fraction(1, 5), max_value=9, max_denominator=5))
def test_dominance_invariant_under_form_rescaling(w, c):
    pos = (Weight((1, -1)), Weight((0, 2)))
    d, scaled = positives_only(pos), positives_only(pos, scale_form(I2, c))
    assert d.is_dominant_weight(w) == scaled.is_dominant_weight(w)


def test_form_positive_definite_counterexample():
    assert not BilinearForm(((1, 2), (2, 1))).is_positive_definite()


@st.composite
def symmetric_int_matrices(draw):
    n = draw(st.sampled_from((2, 3)))
    entries = st.integers(min_value=-4, max_value=4)
    upper = {(i, j): draw(entries) for i in range(n) for j in range(i, n)}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))


@given(symmetric_int_matrices())
@example(((2, -1, 0), (-1, 2, -1), (0, -1, 2)))
@example(((1, 1, 1), (1, 2, 2), (1, 2, 2)))
@example(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))  # two swaps, pivots 1
def test_positive_definite_matches_leading_minors(rows):
    # Sylvester's criterion, with each minor from the Fraction reference
    # elimination, independently of the integer pivot rows.
    form = BilinearForm(rows)
    minors = [det(tuple(row[: k + 1] for row in form.gram[: k + 1])) for k in range(len(rows))]
    assert form.is_positive_definite() == all(m > 0 for m in minors)


@example((0, -4, 6), 4)
@example((0, 0), 1)
@example((-7, 0, 12), 1)
@given(
    st.lists(st.integers(min_value=-40, max_value=40), min_size=1, max_size=4),
    st.one_of(st.just(1), st.integers(min_value=1, max_value=24)),
)
def test_str_matches_fraction_rendering(nums, den):
    # from_ints reduces by the common gcd only, so single coordinates may
    # still reduce further: zero, negative and non-reduced numerators.
    # Denominator 1, every integral weight, prints by its own branch.
    w = Weight.from_ints(tuple(nums), den)
    assert str(w) == "(" + ",".join(str(Fraction(n, den)) for n in nums) + ")"
    assert repr(w) == f"Weight{w}"


small = st.sampled_from((-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2)))


@given(
    st.lists(st.builds(lambda a, b: Weight((a, b)), small, small), min_size=1, max_size=6),
    pd_forms(),
)
def test_reflection_escape_matches_reflect(ws, form):
    closed = {x for w in ws for x in (w, -w)}
    mirrors = sorted({w for w in closed if not w.is_zero and w > -w})
    expected = next(
        (
            (b, a)
            for a in mirrors
            for b in sorted(closed)
            if form.sign(b, a) and reflect(b, a, form) not in closed
        ),
        None,
    )
    assert reflection_escape(mirrors, closed, form) == expected
