"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import csv
import io
import itertools
import random
import time
from fractions import Fraction

from tempered_atlas import loads_descriptor
from tempered_atlas.classify import construct_from_kappa, enumerate_components
from tempered_atlas.cli import main
from tempered_atlas.groups import catalog, is_integral
from tempered_atlas.krep import (
    dirac_multiplicity,
    freudenthal,
    spin_weights,
    tensor_decompose,
    weyl_dim,
)
from tempered_atlas.matching import (
    match_inverse,
    r_group_order,
    summarize_datum,
)
from tempered_atlas.ratlin import sqrt_upper
from tempered_atlas.weights import Weight, half_sum
from conftest import replace
from fraction_linalg import project_away, scale_form
from test_classify import SP6R_TEXT, brute_force_kappas
from test_su31_custom import SU31_TEXT

H = Fraction(1, 2)


def sp4r_box_sweep(d, bound):
    """All genuine dominant kappa in (Z + 1/2)^2 with kappa1 >= kappa2 and
    sup-norm at most bound."""
    values = [i + H for i in range(-bound, bound)]
    return [
        Weight((a, b)) for a in values for b in values if a >= b
    ]


def test_criterion_01_sl2r_full_classification(sl2r):
    start = time.monotonic()
    run = enumerate_components(sl2r, 5)
    summaries = [summarize_datum(e) for e in run.entries]
    elapsed = time.monotonic() - start

    assert tuple(e.kappa for e in run.entries) == tuple(Weight((k,)) for k in range(-5, 6))
    for s in summaries:
        k = s.kappa[0]
        if k == 0:
            assert s.n_pairs == 1
            assert s.r_order == 2
            assert set(s.minimal_k_types) == {Weight((1,)), Weight((-1,))}
        else:
            assert s.n_pairs == 0
            assert s.r_order == 1
            sign = 1 if k > 0 else -1
            assert s.minimal_k_types == (Weight((sign * (abs(k) + 1),)),)
    assert elapsed < 1.0
    print(f"criterion 1 PASS (11 components, {elapsed:.3f}s)")


def test_criterion_02_sp4r_sweep_round_trips(sp4r):
    start = time.monotonic()
    kappas = sp4r_box_sweep(sp4r, 10)
    assert len(kappas) == 210
    seen_types = []
    for kappa in kappas:
        datum = construct_from_kappa(sp4r, kappa)
        assert datum is not None, f"construction failed at {kappa}"
        s = summarize_datum(datum)
        assert s.n_pairs in (0, 1)
        assert len(s.minimal_k_types) == 2**s.n_pairs
        assert len(set(s.minimal_k_types)) == len(s.minimal_k_types)
        for w in s.minimal_k_types:
            assert sp4r.is_dominant_weight(w)
            assert match_inverse(sp4r, w) == kappa  # round trip B, exact
        assert s.dirac_hw == kappa  # round trip A, exact
        seen_types.append((kappa, s))
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 2 PASS ({len(kappas)} components, {elapsed:.3f}s)")


def test_criterion_03_disjointness_and_figure(sp4r, capsys):
    owners = {}
    bullets = set()
    for kappa in sp4r_box_sweep(sp4r, 10):
        s = summarize_datum(construct_from_kappa(sp4r, kappa))
        for w in s.minimal_k_types:
            assert w not in owners, f"{w} claimed twice"
            owners[w] = kappa
            if s.n_pairs == 0:
                bullets.add((int(w[0]), int(w[1])))

    code = main(["figure", "sp4r", "--m-range=-6:6", "--n-range=-6:6", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    cells = {}
    for m, n, content in rows:
        pos = (int(m), int(n))
        assert pos not in cells  # each position has at most one owner
        cells[pos] = content
    figure_bullets = {pos for pos, content in cells.items() if content == "*"}
    expected_bullets = {
        (m, n) for (m, n) in bullets if -6 <= n <= m <= 6
    }
    assert figure_bullets == expected_bullets
    assert (4, 3) in figure_bullets  # kappa = (5/2, 3/2)
    assert all(m >= n for (m, n) in cells)
    print(f"criterion 3 PASS ({len(cells)} claimed cells, {len(figure_bullets)} bullets)")


def test_criterion_04_sign_choice_independence(sp4r):
    checked = 0
    for kappa in sp4r_box_sweep(sp4r, 10):
        datum = construct_from_kappa(sp4r, kappa)
        p = datum.parabolic
        if p.n_pairs == 0:
            continue
        assert len(p.rho_l_nums) == 2**p.n_pairs
        for rho_l in map(p.frame.weight, p.rho_l_nums):
            mu_s = kappa - p.frame.weight(p.rho_s_cap_u_nums) - rho_l
            assert is_integral(sp4r, mu_s) == is_integral(sp4r, datum.mu)
            assert project_away(mu_s, p.l_pairs, sp4r.form) == datum.kappa_l
        checked += 1
    assert checked > 0
    print(f"criterion 4 PASS ({checked} components with N >= 1)")


def test_criterion_05_rho_identity(sp4r):
    count = 0
    for kappa in sp4r_box_sweep(sp4r, 10):
        p = construct_from_kappa(sp4r, kappa).parabolic
        signs_list = list(itertools.product((1, -1), repeat=p.n_pairs))
        assert len(p.rho_l_nums) == len(signs_list)
        for signs, rho_l in zip(signs_list, map(p.frame.weight, p.rho_l_nums)):
            assembled = p.u_noncompact + tuple(s * b for s, b in zip(signs, p.l_pairs))
            recomputed = half_sum(assembled, rank=sp4r.rank_tc)
            assert recomputed == p.frame.weight(p.rho_s_cap_u_nums) + rho_l
            count += 1
    print(f"criterion 5 PASS ({count} (kappa, sign) pairs)")


def test_criterion_06_r_group_law_all_catalog_groups():
    total = 0
    for name in ("sl2c", "sl2r", "sp4r", "su21"):
        d = catalog(name)
        run = enumerate_components(d, 4)
        assert run.entries
        for datum in run.entries:
            n = datum.n_pairs
            dim_a = n + (d.rank_g - d.rank_tc)
            assert r_group_order(datum) == 2**n
            assert n == dim_a - d.rank_g + d.rank_tc
            total += 1
    print(f"criterion 6 PASS ({total} components across 4 groups)")


def test_criterion_07_krep_oracles(sp4r, sl2r, sl2c, su21):
    for diff in range(0, 9):
        for n in range(-3, 4):
            hw = Weight((n + diff, n))
            assert sum(freudenthal(sp4r, hw).values()) == weyl_dim(sp4r, hw)

    rng = random.Random(1952669)
    for _ in range(50):
        a, b = sorted((rng.randint(-4, 4), rng.randint(-4, 4)), reverse=True)
        c, e = sorted((rng.randint(-4, 4), rng.randint(-4, 4)), reverse=True)
        hw1, hw2 = Weight((a, b)), Weight((c, e))
        terms = tensor_decompose(sp4r, hw1, hw2)
        assert sum(m * weyl_dim(sp4r, w) for w, m in terms) == weyl_dim(
            sp4r, hw1
        ) * weyl_dim(sp4r, hw2)

    expected_mass = {"sp4r": 8, "sl2r": 2, "sl2c": 2}
    for d in (sp4r, sl2r, sl2c, su21):
        mass = sum(spin_weights(d).values())
        dim_s = len(d.noncompact_weights) + d.zero_weight_s_dim
        assert mass == 2 ** (dim_s // 2)
        if d.name in expected_mass:
            assert mass == expected_mass[d.name]
    print("criterion 7 PASS (mass, tensor-dimension, spin-mass laws)")


def test_criterion_08_dirac_multiplicity_sweep(sp4r, sl2r, sl2c, su21):
    hand_cases = {
        (Weight((H, H)), Weight((2, 0))),
        (Weight((H, H)), Weight((2, 2))),
        (Weight((H, -H)), Weight((2, -1))),
        (Weight((H, -H)), Weight((1, -2))),
        (Weight((Fraction(5, 2), Fraction(3, 2))), Weight((4, 3))),
    }
    seen = set()
    pairs = 0
    for kappa in sp4r_box_sweep(sp4r, 4):
        s = summarize_datum(construct_from_kappa(sp4r, kappa))
        for w in s.minimal_k_types:
            assert dirac_multiplicity(sp4r, kappa, w) == 1
            seen.add((kappa, w))
            pairs += 1
    assert hand_cases <= seen
    # Every other group, over the components in a ball of radius 4; sp6r
    # brings faces with two Levi pairs of different lengths.
    for d in (sl2r, sl2c, su21, loads_descriptor(SU31_TEXT), loads_descriptor(SP6R_TEXT)):
        for datum in enumerate_components(d, 4).entries:
            s = summarize_datum(datum)
            for w in s.minimal_k_types:
                assert dirac_multiplicity(d, s.kappa, w) == 1
                pairs += 1
    print(f"criterion 8 PASS ({pairs} (component, K-type) pairs)")


def test_dirac_converse_least_shifted_norm(sp4r, sl2r, sl2c, su21):
    """For a minimal K-type mu of the component kappa, other genuine types
    tau also occur in V(mu) (x) S, but kappa is the unique one of least
    |tau + rho_K|^2.

    A constituent's highest weight is a weight lam + nu of V(mu) (x) S,
    with |lam| <= |mu| and nu a spin weight, so every constituent lies in
    the ball of radius |mu| + max |nu|; the dimension count below confirms
    that the scanned ball holds all of V(mu) (x) S.
    """
    pairs = 0
    for d in (sp4r, sl2r, sl2c, su21, loads_descriptor(SU31_TEXT)):
        rho = d.rho_compact()
        spin = spin_weights(d)
        spin_reach = max(sqrt_upper(d.form.norm_sq(nu)) for nu in spin)
        cases = [
            (datum.kappa, mu, sqrt_upper(d.form.norm_sq(mu)) + spin_reach)
            for datum in enumerate_components(d, 2).entries
            for mu in summarize_datum(datum).minimal_k_types
        ]
        box = brute_force_kappas(d, max(reach for _, _, reach in cases) ** 2)
        for kappa, mu, reach in cases:
            hits = {}
            for tau in box:
                if d.form.norm_sq(tau) <= reach * reach:
                    m = dirac_multiplicity(d, tau, mu)
                    if m:
                        hits[tau] = m
            assert sum(m * weyl_dim(d, tau) for tau, m in hits.items()) == (
                weyl_dim(d, mu) * sum(spin.values())
            )
            least = min(d.form.norm_sq(tau + rho) for tau in hits)
            assert [t for t in hits if d.form.norm_sq(t + rho) == least] == [kappa]
            pairs += 1
    assert pairs == 42
    print(f"Dirac converse PASS ({pairs} (component, K-type) pairs)")


def test_criterion_09_gram_scale_invariance(sp4r):
    scaled = replace(sp4r, form=scale_form(sp4r.form, 3))

    def sweep_data(d):
        out = []
        for kappa in sp4r_box_sweep(d, 10):
            s = summarize_datum(construct_from_kappa(d, kappa))
            out.append((s.kappa, s.minimal_k_types, s.dirac_hw))
        return out

    assert sweep_data(sp4r) == sweep_data(scaled)
    print("criterion 9 PASS (identical output with Gram scaled by 3)")


def test_criterion_10_classify_determinism(capsys):
    outputs = []
    for _ in range(2):
        code = main(["classify", "sp4r", "--radius", "5", "--format", "csv"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8")
    print(f"criterion 10 PASS ({len(outputs[0].splitlines()) - 1} records, byte-identical)")
