from fractions import Fraction

import pytest

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
from tempered_atlas.weights import Weight

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
    with pytest.raises(NotIntegral):
        match_inverse(sp4r, Weight((H, H)))


def test_match_inverse_requires_dominance(sp4r):
    with pytest.raises(NotDominant):
        match_inverse(sp4r, Weight((0, 1)))


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
