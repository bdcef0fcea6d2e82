import itertools
from fractions import Fraction

import pytest

from tempered_atlas import catalog, cli, loads_descriptor, matching
from tempered_atlas.classify import construct_from_kappa, enumerate_components
from tempered_atlas.errors import (
    AmbiguousPositiveSystem,
    NotDominant,
    NotGenuine,
    NotIntegral,
)
from tempered_atlas.matching import (
    dirac_highest_weight,
    fine_weights,
    match_inverse,
    minimal_k_types,
    r_group_order,
    summarize,
    summarize_datum,
)
from tempered_atlas.groups import RealFormDescriptor
from tempered_atlas.parabolic import build_parabolic
from tempered_atlas.weights import Weight, half_sum
from conftest import replace
from test_classify import SP6R_TEXT
from test_parabolic import brute_force_buckets
from test_su31_custom import SU31_TEXT

H = Fraction(1, 2)


def test_fine_weights_examples(sp4r):
    datum = construct_from_kappa(sp4r, Weight((H, -H)))
    # kappa_l = (-1/2,1/2), pair (1,1): plus sign first
    assert fine_weights(datum) == (Weight((0, 1)), Weight((-1, 0)))

    datum2 = construct_from_kappa(sp4r, Weight((H, H)))
    # kappa_l = (-1,0), pair (0,2)
    assert fine_weights(datum2) == (Weight((-1, 1)), Weight((-1, -1)))


def test_fine_weights_singleton_without_pairs(sl2r):
    datum = construct_from_kappa(sl2r, Weight((2,)))
    assert datum.n_pairs == 0
    assert fine_weights(datum) == (datum.mu,)
    assert datum.mu == Weight((1,))


def test_minimal_k_types_examples(sp4r, sl2r):
    assert minimal_k_types(construct_from_kappa(sp4r, Weight((H, -H)))) == (
        Weight((2, -1)),
        Weight((1, -2)),
    )
    assert minimal_k_types(construct_from_kappa(sp4r, Weight((H, H)))) == (
        Weight((2, 2)),
        Weight((2, 0)),
    )
    # holomorphic-type minimal K-type for the split rank-one group
    assert minimal_k_types(construct_from_kappa(sl2r, Weight((2,)))) == (Weight((3,)),)


def test_dirac_highest_weight_round_trip(sp4r, sl2r):
    for d, kappa in (
        (sp4r, Weight((H, -H))),
        (sl2r, Weight((0,))),
        (sl2r, Weight((2,))),
    ):
        datum = construct_from_kappa(d, kappa)
        assert dirac_highest_weight(datum) == kappa


def test_match_inverse_examples(sp4r):
    assert match_inverse(sp4r, Weight((2, 0))) == Weight((H, H))
    assert match_inverse(sp4r, Weight((1, -2))) == Weight((H, -H))
    assert match_inverse(sp4r, Weight((4, 3))) == Weight((Fraction(5, 2), Fraction(3, 2)))


def test_match_inverse_zero_pairing_is_ambiguous(sp4r):
    # mu + 2 rho_K = (1,-1) pairs to zero with (1,1)
    with pytest.raises(AmbiguousPositiveSystem):
        match_inverse(sp4r, Weight((0, 0)))


def test_match_inverse_requires_integrality(sp4r):
    # (1/2,1/2) is dominant, so integrality is what must reject it.
    with pytest.raises(NotIntegral, match=r"^\(1/2,1/2\) is not analytically integral$"):
        match_inverse(sp4r, Weight((H, H)))


def test_match_inverse_requires_dominance(sp4r):
    with pytest.raises(NotDominant):
        match_inverse(sp4r, Weight((0, 1)))


def test_match_inverse_rejects_a_recovered_weight_that_is_not_dominant(sp4r):
    # (1,0) and (0,-1) are dominant and integral, but both recover
    # (-1/2,1/2): neither is a minimal K-type.
    for mu in (Weight((1, 0)), Weight((0, -1))):
        with pytest.raises(NotDominant) as err:
            match_inverse(sp4r, mu)
        assert str(err.value).startswith(f"{mu} is not a minimal K-type")
        assert str(err.value).index(str(mu)) < str(err.value).index("(-1/2,1/2)")


def dominant_box(d, bound):
    """Every dominant weight n_1 b_1 + ... + n_r b_r with |n_i| <= bound."""
    out = []
    for n in itertools.product(range(-bound, bound + 1), repeat=d.rank_tc):
        w = Weight.zero(d.rank_tc)
        for c, b in zip(n, d.integrality_basis):
            w = w + c * b
        if d.is_dominant_weight(w):
            out.append(w)
    return out


def check_buckets(d, lam):
    p = build_parabolic(d, lam)
    compact = tuple(sorted(d.positive_compact))
    assert (compact, p.u_noncompact, p.l_pairs) == brute_force_buckets(d, lam)


@pytest.mark.parametrize("parabolic_first", [True, False], ids=["parabolic-first", "matching-first"])
@pytest.mark.parametrize("name", ["sp4r", "su21", "su31", "sp6r"])
def test_match_inverse_against_brute_force(name, parabolic_first):
    # Fresh descriptors, so the face table starts empty; each mu + 2 rho_K
    # lies on the face match_inverse reads, so the parabolic built there
    # and the matching share it whichever fills it first.
    texts = {"su31": SU31_TEXT, "sp6r": SP6R_TEXT}
    base = loads_descriptor(texts[name]) if name in texts else catalog(name)
    d = replace(base)
    two_rho_k = 2 * d.rho_compact()
    mus = [
        mu
        for mu in dominant_box(d, 3)
        if all(d.form.inner(mu + two_rho_k, g) != 0 for g in d.noncompact_weights)
    ]
    if parabolic_first:
        for mu in mus:
            check_buckets(d, mu + two_rho_k)
    recovered = []
    for mu in mus:
        w = mu + two_rho_k
        expected = mu - half_sum(
            (g for g in d.noncompact_weights if d.form.inner(w, g) > 0), rank=d.rank_tc
        )
        if d.is_dominant_weight(expected):
            assert match_inverse(d, mu) == expected
            recovered.append((mu, expected))
        else:
            with pytest.raises(NotDominant):
                match_inverse(d, mu)
    if not parabolic_first:
        for mu in mus:
            check_buckets(d, mu + two_rho_k)
    assert 0 < len(recovered) < len(mus)
    # A recovered kappa owns the input as one of its minimal K-types.
    for mu, kappa in recovered:
        assert mu in summarize(d, kappa).minimal_k_types


def test_r_group_order(sp4r, sl2r):
    assert r_group_order(construct_from_kappa(sp4r, Weight((H, -H)))) == 2
    assert r_group_order(construct_from_kappa(sp4r, Weight((Fraction(5, 2), Fraction(3, 2))))) == 1
    assert r_group_order(construct_from_kappa(sl2r, Weight((0,)))) == 2


def test_summarize_examples(sp4r, sl2r):
    s = summarize(sp4r, Weight((H, H)))
    assert s.r_order == 2
    assert s.minimal_k_types == (Weight((2, 2)), Weight((2, 0)))
    assert s.dirac_hw == Weight((H, H))

    s2 = summarize(sl2r, Weight((0,)))
    assert s2.r_order == 2
    assert set(s2.minimal_k_types) == {Weight((1,)), Weight((-1,))}


def test_summarize_rejects_non_genuine(sp4r):
    with pytest.raises(NotGenuine):
        summarize(sp4r, Weight((1, 0)))


def test_summaries_round_trip_on_su21(su21):
    # both directions of the matching across a small enumeration
    run = enumerate_components(su21, 3)
    assert run.entries
    for datum in run.entries:
        s = summarize_datum(datum)
        assert s.dirac_hw == datum.kappa
        assert len(s.minimal_k_types) == s.r_order == 2**s.n_pairs
        for w in s.minimal_k_types:
            assert match_inverse(su21, w) == datum.kappa


def test_each_minimal_k_type_is_tested_once_by_the_inverse_matching(sp4r, monkeypatch):
    # match_inverse's compact test is each K-type's only dominance check:
    # the summary never calls is_dominant_weight, and makes one round trip
    # per K-type.
    entries = enumerate_components(sp4r, 20).entries
    calls = {"is_dominant_weight": 0, "match_inverse": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counted(RealFormDescriptor, "is_dominant_weight")
    counted(matching, "match_inverse")
    for datum in entries:
        summarize_datum(datum)
    assert calls == {
        "is_dominant_weight": 0,
        "match_inverse": sum(2**datum.n_pairs for datum in entries),
    }


# ---------------------------------------------------------------------------
# the matching cell by cell, in both directions


@pytest.mark.parametrize(
    "name, box, claimed_count",
    (("sl2r", 10, None), ("sp4r", 8, 126), ("su21", 8, 135), ("su31", 4, None)),
)
def test_matching_cell_by_cell_in_both_directions(name, box, claimed_count):
    """Every integral weight in a box of lattice coordinates is either
    refused by the inverse matching or a minimal K-type of the component it
    matches to; in rank 2, figure claims exactly the cells not refused."""
    d = loads_descriptor(SU31_TEXT) if name == "su31" else catalog(name)
    claimed = set()
    for cell in itertools.product(range(-box, box + 1), repeat=d.rank_tc):
        w = sum((c * b for c, b in zip(cell, d.integrality_basis)), Weight.zero(d.rank_tc))
        try:
            kappa = match_inverse(d, w)
        except (AmbiguousPositiveSystem, NotDominant):
            continue
        assert w in summarize(d, kappa).minimal_k_types
        claimed.add(cell)
    assert claimed
    if d.rank_tc == 2:
        cells, _ = cli._figure_cells(d, (-box, box), (-box, box))
        assert set(cells) == claimed
        assert len(claimed) == claimed_count
