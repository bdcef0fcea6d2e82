import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempered_atlas import krep, loads_descriptor
from tempered_atlas.classify import enumerate_ball
from tempered_atlas.errors import NotDominant, NotGenuine, StructuralInvariantError
from tempered_atlas.groups import catalog, integer_frame, is_integral, simple_compact_roots
from tempered_atlas.krep import (
    dirac_multiplicity,
    freudenthal,
    spin_weights,
    tensor_decompose,
    weyl_dim,
)
from tempered_atlas.weights import Weight
from fraction_linalg import coroot_pairing, reflect
from test_classify import _bc1
from test_su31_custom import SU31_TEXT

H = Fraction(1, 2)


def u2_string_char(m, n):
    """Oracle: the u(2) irrep (m, n) is a single root string through
    e1 - e2, weights (m - k, n + k) for k = 0..m-n."""
    assert m >= n and Fraction(m - n).denominator == 1
    return {Weight((m - k, n + k)): 1 for k in range(int(m - n) + 1)}


def convolve(a, b):
    """Oracle: weight multiset of the tensor product of two weight systems."""
    out = {}
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, 0) + m1 * m2
    return out


def weyl_orbit(d, w):
    """Oracle: the orbit of a strictly dominant w under the compact Weyl
    group, as point -> sign.  Breadth-first closure under the simple
    reflections; every step flips the sign, so each point carries the
    determinant of the one Weyl element reaching it."""
    orbit = {w: 1}
    queue = [w]
    for x in queue:
        for s in simple_compact_roots(d):
            y = reflect(x, s, d.form)
            if y not in orbit:
                orbit[y] = -orbit[x]
                queue.append(y)
    return orbit


def spin_by_subsets(d):
    """Oracle: independent subset-sum enumeration of the spin multiset."""
    pairs = d.noncompact_positives()
    out = {}
    for picks in itertools.product((0, 1), repeat=len(pairs)):
        w = Weight.zero(d.rank_tc)
        for take, g in zip(picks, pairs):
            w = w + (g if not take else -1 * g)
        w = Fraction(1, 2) * w
        out[w] = out.get(w, 0) + 2 ** (d.zero_weight_s_dim // 2)
    return out


def strip_multiplicity(d, multiset, target):
    """Oracle: peel lex-maximal weights with hand-written u(2) characters
    until the multiset empties; returns the coefficient of target."""
    ms = dict(multiset)
    coeffs = {}
    while ms:
        top = max(w for w, c in ms.items() if c)
        c = ms[top]
        assert c > 0
        coeffs[top] = c
        for w, m in u2_string_char(*top.coords).items():
            ms[w] = ms.get(w, 0) - c * m
            if ms[w] == 0:
                del ms[w]
    return coeffs.get(target, 0)


def test_weyl_dim_examples(sp4r, sl2r):
    for n in (-2, 0, 3):
        assert weyl_dim(sp4r, Weight((n, n))) == 1
    assert weyl_dim(sp4r, Weight((2, 0))) == 3
    assert weyl_dim(sl2r, Weight((7,))) == 1
    with pytest.raises(NotDominant):
        weyl_dim(sp4r, Weight((0, 1)))


def test_weyl_dim_matches_string_length(sp4r):
    for m in range(0, 6):
        for n in range(-3, m + 1):
            assert weyl_dim(sp4r, Weight((m, n))) == m - n + 1


def test_weyl_dim_off_the_descriptor_denominator_and_on_bc1(sp4r):
    # Central weights off D run over E = lcm(D, their denominator).
    assert weyl_dim(sp4r, Weight((Fraction(1, 3), Fraction(1, 3)))) == 1
    assert weyl_dim(sp4r, Weight((Fraction(4, 3), Fraction(1, 3)))) == 2
    # bc1 skips validate, which refuses it as non-reduced; the formula
    # then names its non-integer value.
    with pytest.raises(StructuralInvariantError, match="the non-integer 25/9$"):
        weyl_dim(_bc1(), Weight((1,)))


def test_freudenthal_examples(sp4r, sl2r):
    assert freudenthal(sp4r, Weight((2, 0))) == {
        Weight((2, 0)): 1,
        Weight((1, 1)): 1,
        Weight((0, 2)): 1,
    }
    assert freudenthal(sp4r, Weight((0, 0))) == {Weight((0, 0)): 1}
    assert freudenthal(sl2r, Weight((4,))) == {Weight((4,)): 1}


def test_freudenthal_matches_string_oracle(sp4r):
    for m in range(0, 7):
        for n in range(-2, m + 1):
            assert freudenthal(sp4r, Weight((m, n))) == u2_string_char(m, n)


def test_freudenthal_mass_is_dimension(sp4r, su21):
    for d in (sp4r, su21):
        for i in range(0, 5):
            for j in range(-2, 3):
                hw = Weight((i, j))
                if not d.is_dominant_weight(hw):
                    continue
                assert sum(freudenthal(d, hw).values()) == weyl_dim(d, hw)


# B2-type: the compact roots are those of so(5), the noncompact weights the
# short roots, with a one-dimensional zero-weight part.
SO51_TEXT = """
[group]
name = so51
rank_tc = 2
rank_g = 3
zero_weight_s_dim = 1

[form]
gram = 1,0 ; 0,1

[roots]
compact = 1,0 ; -1,0 ; 0,1 ; 0,-1 ; 1,1 ; -1,-1 ; 1,-1 ; -1,1
positive_compact = 1,0 ; 0,1 ; 1,1 ; 1,-1
noncompact = 1,0 ; -1,0 ; 0,1 ; 0,-1

[lattice]
basis = 1,0 ; 0,1
"""


def test_so51_weyl_dims():
    d = loads_descriptor(SO51_TEXT)
    assert weyl_dim(d, Weight((2, 1))) == 35
    assert weyl_dim(d, Weight((H, H))) == 4  # the spin module of so(5)
    assert weyl_dim(d, Weight((1, 0))) == 5


def test_freudenthal_mass_and_weyl_invariance_b2():
    # B2 has roots of two lengths, unlike the A1 and A2 systems tested
    # elsewhere (test_su31_custom checks A2 the same way).  Over every
    # highest weight in a box, spin weights included: the multiplicities
    # sum to the Weyl dimension and are invariant under each simple
    # reflection.
    d = loads_descriptor(SO51_TEXT)
    simples = simple_compact_roots(d)
    seen = 0
    for c in itertools.product([Fraction(k, 2) for k in range(9)], repeat=2):
        hw = Weight(c)
        if not d.is_dominant_weight(hw) or any(
            coroot_pairing(hw, a, d.form).denominator != 1 for a in simples
        ):
            continue
        seen += 1
        ms = freudenthal(d, hw)
        assert sum(ms.values()) == weyl_dim(d, hw), hw
        for a in simples:
            assert {reflect(w, a, d.form): m for w, m in ms.items()} == ms, (hw, a)
    assert seen == 25


def test_freudenthal_weyl_symmetry(sp4r):
    alpha = Weight((1, -1))
    for hw in (Weight((3, -1)), Weight((4, 0))):
        ms = freudenthal(sp4r, hw)
        reflected = {reflect(w, alpha, sp4r.form): c for w, c in ms.items()}
        assert reflected == ms


def test_su21_compact_string(su21):
    # the compact side of su21 is u(2)-like: one root pair, so (1,1) is a
    # two-dimensional string ending at its reflection
    ms = freudenthal(su21, Weight((1, 1)))
    assert ms == {Weight((1, 1)): 1, Weight((-1, 2)): 1}
    assert sum(ms.values()) == weyl_dim(su21, Weight((1, 1))) == 2


def test_tensor_with_trivial(sp4r):
    assert tensor_decompose(sp4r, Weight((3, 1)), Weight((0, 0))) == (
        (Weight((3, 1)), 1),
    )


def test_tensor_u2_fundamental_square(sp4r):
    assert tensor_decompose(sp4r, Weight((1, 0)), Weight((1, 0))) == (
        (Weight((1, 1)), 1),
        (Weight((2, 0)), 1),
    )


def test_tensor_abelian_adds_weights(sl2r):
    assert tensor_decompose(sl2r, Weight((3,)), Weight((-5,))) == ((Weight((-2,)), 1),)


def test_tensor_dimension_law_random_pairs(sp4r):
    rng = random.Random(20240817)
    for _ in range(50):
        m1, n1 = rng.randint(-4, 4), rng.randint(-4, 4)
        m2, n2 = rng.randint(-4, 4), rng.randint(-4, 4)
        hw1 = Weight((max(m1, n1), min(m1, n1)))
        hw2 = Weight((max(m2, n2), min(m2, n2)))
        terms = tensor_decompose(sp4r, hw1, hw2)
        assert sum(c * weyl_dim(sp4r, w) for w, c in terms) == weyl_dim(
            sp4r, hw1
        ) * weyl_dim(sp4r, hw2)


def test_spin_weights_sp4r_exact(sp4r):
    expected = {
        Weight((Fraction(3, 2), Fraction(3, 2))): 1,
        Weight((Fraction(1, 2), Fraction(1, 2))): 1,
        Weight((Fraction(-1, 2), Fraction(3, 2))): 1,
        Weight((Fraction(3, 2), Fraction(-1, 2))): 1,
        Weight((Fraction(-3, 2), Fraction(1, 2))): 1,
        Weight((Fraction(1, 2), Fraction(-3, 2))): 1,
        Weight((Fraction(-1, 2), Fraction(-1, 2))): 1,
        Weight((Fraction(-3, 2), Fraction(-3, 2))): 1,
    }
    assert spin_weights(sp4r) == expected


def test_spin_weights_rank_one_groups(sl2r, sl2c):
    assert spin_weights(sl2r) == {Weight((1,)): 1, Weight((-1,)): 1}
    assert spin_weights(sl2c) == {Weight((1,)): 1, Weight((-1,)): 1}


def test_spin_mass_law_all_catalog_groups(sp4r, sl2r, sl2c, su21):
    for d in (sp4r, sl2r, sl2c, su21):
        ms = spin_weights(d)
        dim_s = len(d.noncompact_weights) + d.zero_weight_s_dim
        assert sum(ms.values()) == 2 ** (dim_s // 2)
        assert ms == spin_by_subsets(d)


def test_weyl_group_orders(sp4r, sl2r, su21):
    # rho_K is regular, so its orbit has one point per Weyl element
    for d, order in ((sl2r, 1), (sp4r, 2), (su21, 2)):
        orbit = weyl_orbit(d, d.rho_compact())
        assert len(orbit) == order
        assert sum(orbit.values()) == (1 if order == 1 else 0)


def reference_walk(d, w):
    """Oracle: the walk on Fractions, reflecting in the first simple compact
    root that w pairs negatively with; (image, parity, on a wall)."""
    simples = simple_compact_roots(d)
    sign = 1
    while True:
        neg = next((a for a in simples if d.form.inner(w, a) < 0), None)
        if neg is None:
            return w, sign, any(d.form.inner(w, a) == 0 for a in simples)
        w = reflect(w, neg, d.form)
        sign = -sign


def walk(d, w):
    """krep's integer walk on w's numerators times the least f that makes
    each reflection coefficient p / q an integer; then so is every one
    along it.  The image comes back as a Weight over den * f."""
    nums, den = w.int_coords()
    simple = integer_frame(d).simple
    f = lcm(*(q // gcd(2 * sum(map(mul, nums, row)), q) for _, row, q in simple))
    image, sign, singular = krep._walk(simple, tuple(f * x for x in nums))
    return Weight.from_ints(image, den * f), sign, singular


_WALK_GROUPS = {
    "sp4r": catalog("sp4r"),
    "su21": catalog("su21"),
    "su31": loads_descriptor(SU31_TEXT),
}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(_WALK_GROUPS)),
    st.sampled_from((1, 2, 3, 4, 5, 6, 12)),
    st.lists(st.integers(-9, 9), min_size=3, max_size=3),
)
@example("sp4r", 3, [1, 1, 0])
@example("su31", 7, [-3, 5, 1])
def test_to_dominant_chamber_matches_a_reference_walk(name, den, nums):
    # Denominators 1 and 2 keep w over each group's D; the rest leave it,
    # with coroot pairings that are no integers.
    d = _WALK_GROUPS[name]
    w = Weight(Fraction(n, den) for n in nums[: d.rank_tc])
    assert walk(d, w) == reference_walk(d, w)


def test_dominant_representative(sp4r):
    assert walk(sp4r, Weight((0, 3))) == (Weight((3, 0)), -1, False)
    assert simple_compact_roots(sp4r) == (Weight((1, -1)),)


def test_dirac_multiplicity_examples(sp4r, sl2r):
    assert dirac_multiplicity(sp4r, Weight((H, H)), Weight((2, 0))) == 1
    assert dirac_multiplicity(sp4r, Weight((H, -H)), Weight((2, -1))) == 1
    assert dirac_multiplicity(sl2r, Weight((0,)), Weight((1,))) == 1


def test_dirac_multiplicity_against_stripping_oracle(sp4r):
    cases = [
        (Weight((H, H)), (2, 0)),
        (Weight((H, H)), (2, 2)),
        (Weight((H, -H)), (2, -1)),
        (Weight((H, -H)), (1, -2)),
        (Weight((Fraction(5, 2), Fraction(3, 2))), (4, 3)),
        (Weight((Fraction(3, 2), H)), (3, 0)),
    ]
    spin = spin_by_subsets(sp4r)
    for tau, (m, n) in cases:
        product = convolve(u2_string_char(m, n), spin)
        assert dirac_multiplicity(sp4r, tau, Weight((m, n))) == strip_multiplicity(
            sp4r, product, tau
        )


def test_dirac_multiplicity_preconditions(sp4r):
    with pytest.raises(NotGenuine):
        dirac_multiplicity(sp4r, Weight((1, 0)), Weight((2, 0)))
    with pytest.raises(NotDominant):
        dirac_multiplicity(sp4r, Weight((H, H)), Weight((0, 1)))
    with pytest.raises(NotDominant):
        dirac_multiplicity(sp4r, Weight((H, H)), Weight((H, -H)))


def convolved_dirac_multiplicity(d, tau_hw, v_hw):
    """Reference: the alternating Weyl sum read off the whole V (x) S
    product multiset."""
    product = convolve(freudenthal(d, v_hw), spin_weights(d))
    rho = d.rho_compact()
    return sum(
        sgn * product.get(x - rho, 0) for x, sgn in weyl_orbit(d, tau_hw + rho).items()
    )


@pytest.mark.parametrize("name", ["sp4r", "su31"])
def test_dirac_multiplicity_matches_convolved_product(name, sp4r):
    d = sp4r if name == "sp4r" else loads_descriptor(SU31_TEXT)
    taus = [datum.kappa for datum in enumerate_ball(d, Fraction(20))]
    vs = [
        Weight(c)
        for c in itertools.product(range(-1, 3), repeat=d.rank_tc)
        if d.is_dominant_weight(Weight(c)) and is_integral(d, Weight(c))
    ]
    assert len(taus) > 5 and len(vs) > 5
    values = [dirac_multiplicity(d, tau, v) for tau in taus for v in vs]
    assert values == [convolved_dirac_multiplicity(d, tau, v) for tau in taus for v in vs]
    assert sum(values) > 0


def test_spin_weights_returns_a_fresh_dict(sp4r):
    spin_weights(sp4r).clear()
    assert spin_weights(sp4r) == spin_by_subsets(sp4r)
