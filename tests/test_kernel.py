"""The integer pairing kernel against the plain Fraction definitions.

Weights and forms compute on integers over a common denominator; these
properties pin every integer path to the textbook formula it replaced.
"""

import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempered_atlas import catalog
from tempered_atlas.classify import (
    construct_from_kappa, enumerate_ball, genuine_shift, is_genuine,
)
from tempered_atlas.errors import DimensionMismatch, NotStrictlyDominant
from tempered_atlas.groups import (
    RealFormDescriptor, integer_frame, is_integral, lattice_coordinates,
    simple_compact_roots, validate,
)
from tempered_atlas.krep import dirac_multiplicity, freudenthal, tensor_decompose, weyl_dim
from tempered_atlas.matching import match_inverse, summarize, summarize_datum
from tempered_atlas.parabolic import build_parabolic
from tempered_atlas.weights import BilinearForm, Weight
from conftest import replace
from fraction_linalg import det, gauss_solve, inner, project_away, scale_form, transpose
from test_classify import _VALID, _product, _scales, _walk_groups, unimodular

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
scales = st.fractions(min_value=Fraction(1, 9), max_value=50, max_denominator=9)


def fraction_inner(gram, a: Weight, b: Weight) -> Fraction:
    """The n^2 Fraction loop that defines the pairing."""
    n = len(gram)
    return sum(
        (a.coords[i] * gram[i][j] * b.coords[j] for i in range(n) for j in range(n)),
        Fraction(0),
    )


def vectors(rank):
    return st.lists(rationals, min_size=rank, max_size=rank)


@st.composite
def symmetric_grams(draw, rank):
    entries = {}
    for i in range(rank):
        for j in range(i, rank):
            entries[i, j] = entries[j, i] = draw(rationals)
    return tuple(tuple(entries[i, j] for j in range(rank)) for i in range(rank))


@st.composite
def pairing_cases(draw):
    rank = draw(st.integers(min_value=1, max_value=4))
    gram = draw(symmetric_grams(rank))
    return gram, Weight(draw(vectors(rank))), Weight(draw(vectors(rank)))


@given(pairing_cases(), scales)
def test_inner_matches_fraction_definition(case, c):
    gram, a, b = case
    form = BilinearForm(gram)
    assert form.inner(a, b) == fraction_inner(gram, a, b)
    scaled = scale_form(form, c)
    assert scaled.inner(a, b) == fraction_inner(scaled.gram, a, b)
    assert scaled.inner(a, b) == c * form.inner(a, b)


def sign_of(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@given(pairing_cases(), scales, st.booleans())
def test_sign_matches_sign_of_fraction_pairing(case, c, negate):
    gram, a, b = case
    form = BilinearForm(gram)
    other = scale_form(form, -c if negate else c)
    # Alternating forms: no pairing may depend on the form paired before.
    for f in (form, other, form, other):
        expected = sign_of(fraction_inner(f.gram, a, b))
        assert f.sign(a, b) == expected == sign_of(f.inner(a, b))
        assert f.sign(b, a) == sign_of(fraction_inner(f.gram, b, a))
    zero = Weight.zero(len(a))
    assert form.sign(zero, b) == form.sign(a, zero) == 0


@given(
    st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(vectors(n), vectors(n))),
    rationals,
)
def test_weight_arithmetic_matches_coordinates(pair, c):
    x, y = pair
    a, b = Weight(x), Weight(y)
    assert (a + b).coords == tuple(p + q for p, q in zip(x, y))
    assert (a - b).coords == tuple(p - q for p, q in zip(x, y))
    assert (-a).coords == tuple(-p for p in x)
    assert (c * a).coords == tuple(c * p for p in x)
    assert (a * 3).coords == tuple(3 * p for p in x)
    assert (a == b) == (tuple(x) == tuple(y))
    assert (a < b) == (tuple(x) < tuple(y))
    assert (a <= b) == (tuple(x) <= tuple(y))
    assert a.is_zero == all(p == 0 for p in x)
    # Weights built by arithmetic equal and hash like weights built from
    # coordinates.
    assert a + b == Weight(p + q for p, q in zip(x, y))
    assert hash(a - a) == hash(Weight.zero(len(x)))


def descriptor_with_basis(basis) -> RealFormDescriptor:
    rank = len(basis)
    return RealFormDescriptor(
        name="lattice",
        rank_tc=rank,
        rank_g=rank,
        form=BilinearForm.identity(rank),
        compact_roots=(),
        positive_compact=(),
        noncompact_weights=(),
        zero_weight_s_dim=0,
        integrality_basis=tuple(Weight(b) for b in basis),
    )


@st.composite
def lattice_cases(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    entries = st.one_of(
        st.integers(min_value=-4, max_value=4).map(Fraction),
        rationals,
    )
    basis = tuple(
        tuple(draw(entries) for _ in range(rank)) for _ in range(rank)
    )
    if draw(st.booleans()):
        # A lattice point: an integer combination of the basis rows.
        coeffs = [draw(st.integers(min_value=-5, max_value=5)) for _ in range(rank)]
        w = tuple(sum(k * row[j] for k, row in zip(coeffs, basis)) for j in range(rank))
    else:
        w = tuple(draw(vectors(rank)))
    return basis, Weight(w)


@given(lattice_cases())
def test_lattice_coordinates_match_gauss_solve(case):
    basis, w = case
    d = descriptor_with_basis(basis)
    coords = lattice_coordinates(d, w)
    if det(basis) == 0:
        assert coords is None
        assert not is_integral(d, w)
        return
    expected = gauss_solve(transpose(basis), w.coords)
    nums, den = coords
    assert den == lcm(*(c.denominator for c in expected))
    assert tuple(Fraction(n, den) for n in nums) == expected
    assert is_integral(d, w) == all(c.denominator == 1 for c in expected)


def test_lattice_coordinates_non_unimodular_basis():
    d = descriptor_with_basis(((2, 0), (1, 3)))
    assert lattice_coordinates(d, Weight((3, 3))) == ((1, 1), 1)
    assert lattice_coordinates(d, Weight((1, 0))) == ((1, 0), 2)
    assert is_integral(d, Weight((3, 3)))
    assert not is_integral(d, Weight((1, 0)))


# ---------------------------------------------------------------------------
# the per-descriptor pairing table against per-weight pairings

_TABLE_GROUPS = _walk_groups()
# Descriptors of each rank the kernel writes out, 1 to 3, and a product of
# rank 4, which takes its generic sum.
_BY_RANK = {
    d.name: d
    for d in (
        *(_TABLE_GROUPS[name] for name in ("sl2r", "sl2c", "su21", "sp4r", "su31", "sp6r")),
        _product(_TABLE_GROUPS["sp4r"], _TABLE_GROUPS["su21"]),
    )
}


@st.composite
def table_cases(draw):
    """A catalog group, su31, bc1 or a product of two of them, its Gram
    rescaled, and a weight nums / den with small numerators, so that zero
    pairings, dominant weights and lattice points all turn up."""
    names = st.sampled_from(sorted(_TABLE_GROUPS))
    d = _TABLE_GROUPS[draw(names)]
    if draw(st.booleans()):
        d = _product(d, _TABLE_GROUPS[draw(names)])
    d = replace(d, form=scale_form(d.form, draw(scales)))
    den = draw(st.sampled_from((1, 2, 3, 6)))
    nums = draw(st.lists(st.integers(-6, 6), min_size=d.rank_tc, max_size=d.rank_tc))
    return d, Weight(Fraction(n, den) for n in nums)


@settings(max_examples=300, deadline=None)
@given(table_cases())
@example((_BY_RANK["sl2c"], Weight((1,))))
@example((_BY_RANK["sp4r"], Weight((2, -2))))
@example((_BY_RANK["sp6r"], Weight((Fraction(3, 2), 1, -1))))
@example((_BY_RANK["sp4rxsu21"], Weight((1, -1, 1, 1))))
def test_pairing_table_matches_per_weight_pairings(case):
    d, w = case
    frame = integer_frame(d)
    targets = d.positive_compact + d.noncompact_positives()
    assert len(frame.roots) == len(targets)
    assert frame.n_compact == len(d.positive_compact)
    signs = tuple(sign_of(v) for v in frame.pairings(w))
    assert signs == tuple(d.form.sign(w, t) for t in targets)

    compact_signs = [d.form.sign(w, a) for a in d.positive_compact]
    assert d.is_dominant_weight(w) == all(s >= 0 for s in compact_signs)
    strict = all(s > 0 for s in compact_signs)

    if strict:
        p = build_parabolic(d, w)
        assert p.u_noncompact == tuple(
            sorted(g for g in d.noncompact_weights if d.form.sign(w, g) > 0)
        )
    else:
        with pytest.raises(NotStrictlyDominant):
            build_parabolic(d, w)

    basis = tuple(tuple(b.coords) for b in d.integrality_basis)
    coords = gauss_solve(transpose(basis), w.coords)
    assert is_integral(d, w) == all(c.denominator == 1 for c in coords)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_VALID + ("sp6r",)),
    st.sampled_from(_VALID + ("sp6r",)),
    _scales,
    _scales,
    st.lists(st.integers(-6, 6), min_size=6, max_size=6),
)
@example("sp6r", "sl2r", Fraction(1), Fraction(1), [3, -1, 2, 5, 0, 0])
def test_root_table_matches_the_fraction_oracle(name1, name2, scale1, scale2, x):
    groups = _walk_groups()
    d = _product(
        replace(groups[name1], form=scale_form(groups[name1].form, scale1)),
        replace(groups[name2], form=scale_form(groups[name2].form, scale2)),
    )
    assert validate(d).ok
    frame, gram = integer_frame(d), d.form.gram
    D, x = frame.den, tuple(x[: d.rank_tc])
    x_over_d = [Fraction(n, D) for n in x]
    scale = D * D * lcm(*(g.denominator for row in gram for g in row))
    assert frame.scale == scale
    # Each entry: the root's numerators over D, its row, and its norm.
    roots = (*d.positive_compact, *d.noncompact_positives())
    assert len(frame.roots) == len(roots) and frame.n_compact == len(d.positive_compact)
    for t, (nums, row, norm) in zip(roots, frame.roots):
        assert tuple(Fraction(n, D) for n in nums) == t.coords
        assert sum(a * b for a, b in zip(x, row)) == inner(gram, x_over_d, t) * scale
        assert norm == inner(gram, t, t) * scale
    # dots is the kernel of those rows.
    assert frame.dots(x) == [sum(a * b for a, b in zip(x, row)) for _, row, _ in frame.roots]
    # simple lists the simple compact roots' entries, in sorted order: the
    # positive compact roots that are no sum of two positive ones.
    pos = set(d.positive_compact)
    simple = sorted(a for a in pos if not any(a - b in pos for b in pos))
    assert simple_compact_roots(d) == tuple(simple)
    entry = dict(zip(roots, frame.roots))
    assert frame.simple == tuple(entry[a] for a in simple)
    rho = [sum(c) / 2 for c in zip(*(a.coords for a in d.positive_compact))] or [0] * d.rank_tc
    assert tuple(Fraction(n, D) for n in frame.rho) == tuple(rho)
    # genuine is the half-sum of the noncompact positives over D.
    positives = d.noncompact_positives()
    genuine = [sum(c) / 2 for c in zip(*(g.coords for g in positives))] or [0] * d.rank_tc
    assert tuple(Fraction(n, D) for n in frame.genuine) == tuple(genuine)
    # Each face met in a small ball keeps its Levi pairs' entries.
    enumerate_ball(d, 3 * max(scale1, scale2))
    faces = frame.faces.values()
    assert faces
    for p in faces:
        assert p.l_pair_terms == tuple(entry[b] for b in p.l_pairs)


@pytest.mark.parametrize("name", sorted(_BY_RANK))
def test_wrong_rank_weight_raises_dimension_mismatch(name):
    d = _BY_RANK[name]
    w = Weight((1,) * (d.rank_tc + 1))
    # sl2r has no compact root to pair with, so its dominance test must
    # check the rank itself.
    with pytest.raises(DimensionMismatch):
        d.is_dominant_weight(w)
    with pytest.raises(DimensionMismatch):
        build_parabolic(d, w)
    with pytest.raises(DimensionMismatch):
        match_inverse(d, w)
    with pytest.raises(DimensionMismatch):
        is_integral(d, w)
    with pytest.raises(DimensionMismatch, match=re.escape(f"{w} has rank")):
        construct_from_kappa(d, w)
    with pytest.raises(DimensionMismatch, match=re.escape(f"{w} has rank")):
        lattice_coordinates(d, w)


def test_the_frame_refuses_a_form_of_another_rank(sp4r):
    # validate names this form_shape; the frame's kernels would read the
    # Gram rows against numerators of another length, so it refuses it too.
    d = replace(sp4r, form=BilinearForm.identity(3))
    with pytest.raises(DimensionMismatch, match="form rank 3 vs rank_tc 2"):
        integer_frame(d)


@pytest.mark.parametrize("entry", (is_integral, lattice_coordinates))
def test_lattice_tests_refuse_a_tuple(entry, sp4r):
    # A tuple carries no denominator: read as numerators over D, (1, 0) on
    # sp4r (D = 2) is the non-integral (1/2, 0), while Weight((1, 0)) is
    # integral.  Either reading would be a silent guess, so it is refused.
    assert is_integral(sp4r, Weight((1, 0)))
    with pytest.raises(TypeError, match="not tuple"):
        entry(sp4r, (1, 0))


# On sp4r, _HW is a dominant integral highest weight and _TAU a genuine one,
# so the other argument of a two-weight function passes its checks.
_HW, _TAU = Weight((1, 1)), Weight((Fraction(3, 2), Fraction(1, 2)))
# Every public function that takes a weight, with each weight argument in turn.
WEIGHT_ENTRIES = {
    "construct_from_kappa": construct_from_kappa,
    "match_inverse": match_inverse,
    "build_parabolic": build_parabolic,
    "summarize": summarize,
    "is_dominant_weight": lambda d, w: d.is_dominant_weight(w),
    "is_integral": is_integral,
    "lattice_coordinates": lattice_coordinates,
    "is_genuine": is_genuine,
    "freudenthal": freudenthal,
    "weyl_dim": weyl_dim,
    "tensor_decompose(hw1)": lambda d, w: tensor_decompose(d, w, _HW),
    "tensor_decompose(hw2)": lambda d, w: tensor_decompose(d, _HW, w),
    "dirac_multiplicity(tau_hw)": lambda d, w: dirac_multiplicity(d, w, _HW),
    "dirac_multiplicity(v_hw)": lambda d, w: dirac_multiplicity(d, _TAU, w),
}


# (6, 2) over sp4r's D = 2 would be (3,1); [3, 0, 0, 0] has the length of
# sp4r's pairing vector and signs that no weight has, so read as one it
# would build a face whose Levi pairs are not orthogonal.
@pytest.mark.parametrize("entry", WEIGHT_ENTRIES.values(), ids=WEIGHT_ENTRIES)
@pytest.mark.parametrize("arg", ((6, 2), [6, 2], [3, 0, 0, 0]), ids=("tuple", "list", "pairings"))
def test_every_weight_argument_refuses_a_tuple_or_a_list(entry, arg):
    d = replace(catalog("sp4r"))  # a new descriptor, with no faces yet
    with pytest.raises(TypeError, match=f"must be a Weight, not {type(arg).__name__}$"):
        entry(d, arg)
    assert integer_frame(d).faces == {}


@pytest.mark.parametrize("name", ("sp4r", "su21"))
def test_no_returned_value_carries_the_walks_trust(name):
    # The walk and the round trip hand their own numerators on unchecked;
    # what comes back to a caller holds plain tuples only.
    for datum in enumerate_ball(catalog(name), 16):
        s = summarize_datum(datum)
        for nums in (datum.kappa_nums, *(w.int_coords()[0] for w in (s.kappa, *s.minimal_k_types))):
            assert type(nums) is tuple


def memo_values(d):
    return [v for k, v in vars(d).items() if k.startswith("_memo_")]


@settings(max_examples=15, deadline=None)
@given(scales)
def test_gram_rescaling_shares_no_tables_and_keeps_output(c):
    base = catalog("su21")
    scaled = replace(base, form=scale_form(base.form, c))

    def sweep(d, radius_sq):
        return [
            (s.kappa, s.n_pairs, s.fine_weights, s.minimal_k_types, s.dirac_hw)
            for s in map(summarize_datum, enumerate_ball(d, radius_sq))
        ]

    radius_sq = Fraction(25, 2)
    assert sweep(base, radius_sq) == sweep(scaled, c * radius_sq)
    assert genuine_shift(base) == genuine_shift(scaled)
    ids = {id(v) for v in memo_values(base)}
    assert ids and memo_values(scaled)
    assert not ids & {id(v) for v in memo_values(scaled)}


# ---------------------------------------------------------------------------
# the integer component path against Weight arithmetic


@st.composite
def oracle_cases(draw):
    """A walk group or a product of two, its Gram rescaled, and its lattice
    basis moved by a unimodular matrix and divided by m.  Dividing keeps
    every weight in the lattice and gives the basis denominators other than
    1, so that D, not the walk's own denominator, sets the scale."""
    names = st.sampled_from(sorted(_TABLE_GROUPS))
    d = _TABLE_GROUPS[draw(names)]
    if draw(st.booleans()):
        d = _product(d, _TABLE_GROUPS[draw(names)])
    scale = draw(scales)
    m = draw(st.sampled_from((1, 2, 3) if d.rank_tc <= 3 else (1, 2)))
    zero = Weight.zero(d.rank_tc)
    basis = tuple(
        Fraction(1, m) * sum((c * b for c, b in zip(row, d.integrality_basis)), zero)
        for row in draw(unimodular(d.rank_tc))
    )
    d = replace(d, form=scale_form(d.form, scale), integrality_basis=basis)
    return d, scale * draw(st.sampled_from((1, 2, 4, 6)))


def oracle(d, kappa):
    """The component's formulas in Weight arithmetic: mu, kappa_l, the fine
    weights, the minimal K-types and each K-type's recovered weight."""
    p = build_parabolic(d, kappa + d.rho_compact())
    weight = p.frame.weight
    mu = kappa - weight(p.mu_shift_nums)
    kappa_l = project_away(mu, p.l_pairs, d.form)
    fine = tuple(kappa_l + weight(r) for r in p.rho_l_nums)
    k_types = tuple(f + 2 * weight(p.rho_s_cap_u_nums) for f in fine)
    back = tuple(
        w - weight(build_parabolic(d, w + 2 * d.rho_compact()).rho_s_cap_u_nums) for w in k_types
    )
    return mu, kappa_l, fine, k_types, back


@settings(max_examples=40, deadline=None)
@given(oracle_cases())
# kappa = 0 and (1,0,-1) are on faces with two Levi pairs of different lengths.
@example((_TABLE_GROUPS["sp6r"], 2))
def test_integer_component_path_matches_weight_arithmetic(case):
    d, radius_sq = case
    # bc1 is not reduced, which validate names; the component path still runs.
    expected = {"compact_reduced"} if "bc1" in d.name else set()
    assert {rule for rule, _ in validate(d).violations} == expected
    den = integer_frame(d).den
    assert all(den % (2 * w.int_coords()[1]) == 0 for w in d.noncompact_weights)
    assert all(den % b.int_coords()[1] == 0 for b in d.integrality_basis)
    for datum in enumerate_ball(d, radius_sq)[:12]:
        kappa = datum.kappa
        mu, kappa_l, fine, k_types, back = oracle(d, kappa)
        assert (datum.mu, datum.kappa_l) == (mu, kappa_l)
        # The public entry point, from a Weight, gives the same datum.
        assert construct_from_kappa(d, kappa) == datum
        s = summarize_datum(datum)
        assert (s.fine_weights, s.minimal_k_types) == (fine, k_types)
        p = datum.parabolic
        assert s.dirac_hw == kappa_l + p.frame.weight(p.rho_s_cap_u_nums) == kappa
        assert tuple(match_inverse(d, w) for w in k_types) == back == (kappa,) * len(back)
