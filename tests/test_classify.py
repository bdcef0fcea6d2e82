import dataclasses
import itertools
from fractions import Fraction

import pytest

from tempered_atlas.classify import (
    construct_from_kappa,
    enumerate_ball,
    enumerate_components,
    genuine_shift,
    is_genuine,
)
from tempered_atlas.errors import NotDominant
from tempered_atlas.parabolic import build_parabolic
from tempered_atlas.weights import Weight, project_away

H = Fraction(1, 2)


def test_construct_one_pair(sp4r):
    datum = construct_from_kappa(sp4r, Weight((H, -H)))
    assert datum.n_pairs == 1
    assert datum.mu == Weight((-1, 0))
    assert datum.kappa_l == Weight((-H, H))
    assert datum.m_values == (-1,)


def test_construct_non_integral_is_empty(sp4r):
    assert construct_from_kappa(sp4r, Weight((1, 0))) is None


def test_construct_split_rank_one(sl2r):
    datum = construct_from_kappa(sl2r, Weight((0,)))
    assert datum.n_pairs == 1
    assert datum.mu == Weight((-1,))
    assert datum.m_values == (-1,)
    # whole group is the Levi here: empty nilradical, half pair sum 1
    assert datum.parabolic.u_noncompact == ()
    assert datum.parabolic.rho_l_plus((1,)) == Weight((1,))


def test_construct_requires_dominance(sp4r):
    with pytest.raises(NotDominant):
        construct_from_kappa(sp4r, Weight((0, 1)))


def test_is_genuine_examples(sp4r, sl2r):
    assert is_genuine(sp4r, Weight((H, H)))
    assert not is_genuine(sp4r, Weight((1, 0)))
    assert is_genuine(sl2r, Weight((3,)))


def test_is_genuine_total_on_non_dominant(sp4r):
    # declared with no precondition: must answer for non-dominant input too
    assert is_genuine(sp4r, Weight((-H, H)))


def test_is_genuine_matches_kappa_adapted_system(sp4r, su21):
    # the fixed lexicographic system and the system assembled at
    # kappa + rho_K give the same answer on dominant weights
    for d in (sp4r, su21):
        shift = genuine_shift(d)
        for i in range(-4, 5):
            for j in range(-4, 5):
                kappa = Weight((Fraction(i, 2), Fraction(j, 2)))
                if not d.is_dominant_weight(kappa):
                    continue
                p = build_parabolic(d, kappa + d.rho_compact())
                adapted = p.rho_s_cap_u() + p.rho_l_plus((1,) * p.n_pairs)
                from tempered_atlas.groups import is_integral

                assert is_integral(d, kappa - adapted) == is_genuine(d, kappa)


def test_enumerate_sl2r_radius_5(sl2r):
    run = enumerate_components(sl2r, 5)
    # oracle: hand enumeration of the shifted lattice Z inside [-5, 5]
    assert run.kappas == tuple(Weight((k,)) for k in range(-5, 6))
    assert run.group == "sl2r"
    assert run.radius == 5


def test_enumerate_sp4r_radius_2_against_box_scan(sp4r):
    run = enumerate_components(sp4r, 2)
    # oracle: scan a covering half-integer box and filter by norm/dominance
    expected = set()
    for i in range(-6, 6):
        for j in range(-6, 6):
            kappa = Weight((i + H, j + H))
            if kappa[0] >= kappa[1] and sp4r.form.norm_sq(kappa) <= 4:
                expected.add(kappa)
    assert set(run.kappas) == expected
    assert all(k[0].denominator == 2 and k[1].denominator == 2 for k in run.kappas)
    assert len(run.kappas) == 7


def test_enumerate_requires_positive_radius(sp4r):
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            enumerate_components(sp4r, bad)


def test_enumerate_deterministic(su21):
    first = enumerate_components(su21, 3)
    second = enumerate_components(su21, 3)
    assert first == second


def test_enumerate_scale_invariance(sp4r, su21):
    # same kappa set when the form triples and the squared radius follows
    for d in (sp4r, su21):
        scaled = dataclasses.replace(d, form=d.form.scaled(3))
        base = enumerate_ball(d, Fraction(25, 2))
        comp = enumerate_ball(scaled, 3 * Fraction(25, 2))
        assert [e.kappa for e in base] == [e.kappa for e in comp]
        assert [e.mu for e in base] == [e.mu for e in comp]
        assert [e.kappa_l for e in base] == [e.kappa_l for e in comp]


def test_sign_choice_independence(sp4r, su21):
    for d, kappa in (
        (sp4r, Weight((H, H))),
        (sp4r, Weight((H, -H))),
        (su21, Weight((0, H))),
    ):
        datum = construct_from_kappa(d, kappa)
        assert datum is not None and datum.n_pairs >= 1
        p = datum.parabolic
        from tempered_atlas.groups import is_integral

        for signs in itertools.product((1, -1), repeat=p.n_pairs):
            mu_s = kappa - p.rho_s_cap_u() - p.rho_l_plus(signs)
            assert is_integral(d, mu_s)
            assert project_away(mu_s, p.l_pairs, d.form) == datum.kappa_l
            # an odd coroot pairing is the sign value -1 on that pair
            for beta in p.l_pairs:
                c = d.form.coroot_pairing(mu_s, beta)
                assert c.denominator == 1 and c.numerator % 2 == 1
            assert datum.m_values == (-1,) * p.n_pairs


def test_condition_v_on_every_constructed_datum(sp4r):
    for i in range(-3, 4):
        for j in range(-3, 4):
            kappa = Weight((i + H, j + H))
            if not sp4r.is_dominant_weight(kappa):
                continue
            datum = construct_from_kappa(sp4r, kappa)
            assert datum is not None
            lam = kappa + sp4r.rho_compact()
            for gamma in datum.parabolic.u_compact + datum.parabolic.u_noncompact:
                assert sp4r.form.inner(lam, gamma) > 0
            for beta in datum.parabolic.l_pairs:
                assert sp4r.form.coroot_pairing(datum.mu, beta) == -1
