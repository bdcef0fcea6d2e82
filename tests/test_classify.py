import contextlib
import io
import itertools
import os
import tempfile
from fractions import Fraction
from math import floor, isqrt, lcm
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tempered_atlas import classify, cli, krep, loads_descriptor, serialize_descriptor
from tempered_atlas.classify import (
    construct_from_kappa,
    enumerate_ball,
    enumerate_components,
    genuine_shift,
    is_genuine,
)
from tempered_atlas.descriptor_file import parse_descriptor
from tempered_atlas.errors import InternalBijectionFailure, NotDominant, NotGenuine
from tempered_atlas.groups import (
    RealFormDescriptor,
    catalog,
    integer_frame,
    is_integral,
    validate,
)
from tempered_atlas.krep import dirac_multiplicity, weyl_dim
from tempered_atlas.matching import match_inverse, minimal_k_types, summarize_datum
from tempered_atlas.parabolic import build_parabolic
from tempered_atlas.weights import BilinearForm, Weight
from conftest import replace
from fraction_linalg import (
    coroot_pairing, gauss_solve, inner, mat_mul, project_away, scale_form, transpose,
)
from test_su31_custom import SU31_TEXT

H = Fraction(1, 2)


def test_construct_one_pair(sp4r):
    datum = construct_from_kappa(sp4r, Weight((H, -H)))
    assert datum.n_pairs == 1
    assert datum.mu == Weight((-1, 0))
    assert datum.kappa_l == Weight((-H, H))
    (beta,) = datum.parabolic.l_pairs
    assert coroot_pairing(datum.mu, beta, sp4r.form) == -1


def test_construct_non_integral_is_empty(sp4r):
    with pytest.raises(NotGenuine, match="not the highest weight of a genuine type"):
        construct_from_kappa(sp4r, Weight((1, 0)))


def test_construct_split_rank_one(sl2r):
    datum = construct_from_kappa(sl2r, Weight((0,)))
    assert datum.n_pairs == 1
    assert datum.mu == Weight((-1,))
    assert coroot_pairing(datum.mu, Weight((2,)), sl2r.form) == -1
    # whole group is the Levi here: empty nilradical, signed half pair sums +-1
    assert datum.parabolic.u_noncompact == ()
    p = datum.parabolic
    assert tuple(map(p.frame.weight, p.rho_l_nums)) == (Weight((1,)), Weight((-1,)))


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
                adapted = p.frame.weight(p.rho_s_cap_u_nums) + p.frame.weight(p.rho_l_nums[0])
                from tempered_atlas.groups import is_integral

                assert is_integral(d, kappa - adapted) == is_genuine(d, kappa)


def test_enumerate_sl2r_radius_5(sl2r):
    run = enumerate_components(sl2r, 5)
    # oracle: hand enumeration of the shifted lattice Z inside [-5, 5]
    assert tuple(e.kappa for e in run.entries) == tuple(Weight((k,)) for k in range(-5, 6))
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
    kappas = tuple(e.kappa for e in run.entries)
    assert set(kappas) == expected
    assert all(k[0].denominator == 2 and k[1].denominator == 2 for k in kappas)
    assert len(kappas) == 7


def test_enumerate_requires_positive_radius(sp4r):
    for bad in (0, -1, Fraction(-1, 2)):
        with pytest.raises(ValueError):
            enumerate_components(sp4r, bad)


def test_a_float_radius_is_refused(sp4r):
    # Exact arithmetic throughout: a float radius is refused as a float
    # coordinate is, not read as the rational it rounds to.
    with pytest.raises(TypeError, match="float"):
        enumerate_components(sp4r, 0.5)
    with pytest.raises(TypeError, match="float"):
        enumerate_ball(sp4r, 2.25)
    assert len(enumerate_ball(sp4r, Fraction(9, 4))) == 3


def test_enumerate_deterministic(su21):
    first = enumerate_components(su21, 3)
    second = enumerate_components(su21, 3)
    assert first == second


def test_enumerate_scale_invariance(sp4r, su21):
    # same kappa set when the form triples and the squared radius follows
    for d in (sp4r, su21):
        scaled = replace(d, form=scale_form(d.form, 3))
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

        assert len(p.rho_l_nums) == 2**p.n_pairs
        for rho_l in map(p.frame.weight, p.rho_l_nums):
            mu_s = kappa - p.frame.weight(p.rho_s_cap_u_nums) - rho_l
            assert is_integral(d, mu_s)
            assert project_away(mu_s, p.l_pairs, d.form) == datum.kappa_l
            # an odd coroot pairing is the sign value -1 on that pair
            for beta in p.l_pairs:
                c = coroot_pairing(mu_s, beta, d.form)
                assert c.denominator == 1 and c.numerator % 2 == 1
        for beta in p.l_pairs:
            assert coroot_pairing(datum.mu, beta, d.form) == -1


def test_condition_v_on_every_constructed_datum(sp4r):
    for i in range(-3, 4):
        for j in range(-3, 4):
            kappa = Weight((i + H, j + H))
            if not sp4r.is_dominant_weight(kappa):
                continue
            datum = construct_from_kappa(sp4r, kappa)
            assert datum is not None
            lam = kappa + sp4r.rho_compact()
            for gamma in sp4r.positive_compact + datum.parabolic.u_noncompact:
                assert sp4r.form.inner(lam, gamma) > 0
            for beta in datum.parabolic.l_pairs:
                assert coroot_pairing(datum.mu, beta, sp4r.form) == -1


# ---------------------------------------------------------------------------
# the dominant-chamber walk against a brute-force scan


def brute_force_kappas(d, radius_sq):
    """Every dominant genuine kappa with |kappa|^2 <= radius_sq, sorted, from
    a box scan of half-integer lattice coordinates y, kappa = y B.

    The shift lies in half the lattice, so the box holds every genuine
    weight; |kappa|^2 = y Q y^T with Q = B G B^T bounds |y_i| by
    sqrt(radius_sq * Q^-1[i][i]).
    """
    basis = tuple(tuple(b.coords) for b in d.integrality_basis)
    quad = mat_mul(mat_mul(basis, d.form.gram), transpose(basis))
    r = len(basis)
    reach = []
    for i in range(r):
        qinv_ii = gauss_solve(quad, tuple(int(i == j) for j in range(r)))[i]
        reach.append(isqrt(floor(4 * radius_sq * qinv_ii)))
    den = lcm(*(b.int_coords()[1] for b in d.integrality_basis))
    rows = [
        [x * (den // b_den) for x in b_nums]
        for b_nums, b_den in map(Weight.int_coords, d.integrality_basis)
    ]
    found = []
    for n in itertools.product(*(range(-h, h + 1) for h in reach)):
        kappa = Weight.from_ints(
            tuple(sum(c * row[k] for c, row in zip(n, rows)) for k in range(d.rank_tc)), 2 * den
        )
        if (
            d.form.norm_sq(kappa) <= radius_sq
            and d.is_dominant_weight(kappa)
            and is_genuine(d, kappa)
        ):
            found.append(kappa)
    return tuple(sorted(found))


def _bc1():
    # Rank one, compact roots +-1, +-2 and no noncompact weights: the
    # genuine weights are the whole lattice Z.
    return RealFormDescriptor(
        name="bc1",
        rank_tc=1,
        rank_g=1,
        form=BilinearForm.identity(1),
        compact_roots=tuple(Weight((x,)) for x in (1, -1, 2, -2)),
        positive_compact=(Weight((1,)), Weight((2,))),
        noncompact_weights=(),
        zero_weight_s_dim=0,
        integrality_basis=(Weight((1,)),),
    )


# Sp(6,R) with K = U(3) (Knapp, Lie Groups Beyond an Introduction,
# Appendix C): compact roots +-(e_i - e_j), noncompact +-(e_i + e_j) and
# +-2 e_i.  Its faces meet two Levi pairs of different lengths, strongly
# orthogonal inside one simple group, as at kappa = 0: e1 + e3 and 2 e2.
SP6R_TEXT = """
[group]
name = sp6r
rank_tc = 3
rank_g = 3
zero_weight_s_dim = 0

[form]
gram = 1,0,0 ; 0,1,0 ; 0,0,1

[roots]
compact = 1,-1,0 ; -1,1,0 ; 1,0,-1 ; -1,0,1 ; 0,1,-1 ; 0,-1,1
positive_compact = 1,-1,0 ; 1,0,-1 ; 0,1,-1
noncompact = 1,1,0 ; -1,-1,0 ; 1,0,1 ; -1,0,-1 ; 0,1,1 ; 0,-1,-1 ; 2,0,0 ; -2,0,0 ; 0,2,0 ; 0,-2,0 ; 0,0,2 ; 0,0,-2

[lattice]
basis = 1,0,0 ; 0,1,0 ; 0,0,1
"""


def sp2n_text(n):
    """sp(2n,R) as descriptor text, from its root data (Knapp, Lie Groups
    Beyond an Introduction, Appendix C): K = U(n) with compact roots
    +-(e_i - e_j), noncompact +-(e_i + e_j) and +-2e_i, each listed before
    its negative in the order SP6R_TEXT uses, the identity Gram and the
    lattice Z^n."""

    def text(weights, signs=(1, -1)):
        # Each weight, given as {index: coefficient}, times each sign in turn.
        return " ; ".join(
            ",".join(str(s * w.get(i, 0)) for i in range(n)) for w in weights for s in signs
        )

    pairs = list(itertools.combinations(range(n), 2))
    compact = [{i: 1, j: -1} for i, j in pairs]
    noncompact = [*({i: 1, j: 1} for i, j in pairs), *({i: 2} for i in range(n))]
    identity = text([{i: 1} for i in range(n)], (1,))
    return f"""
[group]
name = sp{2 * n}r
rank_tc = {n}
rank_g = {n}
zero_weight_s_dim = 0

[form]
gram = {identity}

[roots]
compact = {text(compact)}
positive_compact = {text(compact, (1,))}
noncompact = {text(noncompact)}

[lattice]
basis = {identity}
"""


def _walk_groups():
    return {
        **{name: catalog(name) for name in ("sl2r", "sl2c", "su21", "sp4r")},
        "su31": loads_descriptor(SU31_TEXT),
        "sp6r": loads_descriptor(SP6R_TEXT),
        "bc1": _bc1(),
    }


@st.composite
def unimodular(draw, r):
    """An integer r x r matrix of determinant +-1, as a product of row
    additions, swaps and negations."""
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        if kind == "add" and i != j:
            m = draw(st.integers(-2, 2))
            u[i] = [x + m * y for x, y in zip(u[i], u[j])]
        elif kind == "swap":
            u[i], u[j] = u[j], u[i]
        elif kind == "negate":
            u[i] = [-x for x in u[i]]
    return u


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(("sl2r", "sl2c", "su21", "sp4r", "su31", "sp6r", "bc1")),
    st.data(),
    st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=4),
    st.fractions(min_value=0, max_value=14, max_denominator=7),
)
def test_enumerate_ball_matches_brute_force(name, data, scale, radius_sq):
    d = _walk_groups()[name]
    u = data.draw(unimodular(d.rank_tc))
    basis = tuple(
        sum((c * b for c, b in zip(row, d.integrality_basis)), Weight.zero(d.rank_tc))
        for row in u
    )
    d = replace(d, form=scale_form(d.form, scale), integrality_basis=basis)
    # bc1 is not reduced, which validate names; the walk itself still runs.
    expected = ["compact_reduced"] if name == "bc1" else []
    assert [rule for rule, _ in validate(d).violations] == expected
    got = tuple(e.kappa for e in enumerate_ball(d, radius_sq))
    assert got == brute_force_kappas(d, radius_sq)


@pytest.mark.parametrize("name", ("sl2r", "sl2c", "su21", "sp4r", "su31", "sp6r", "bc1"))
@pytest.mark.parametrize("radius_sq", (Fraction(7, 3), 10, Fraction(53, 2)))
def test_enumerate_ball_matches_brute_force_catalog(name, radius_sq):
    d = _walk_groups()[name]
    got = tuple(e.kappa for e in enumerate_ball(d, radius_sq))
    assert got == brute_force_kappas(d, radius_sq)


def test_sp6r_components_with_two_levi_pairs():
    # Derived by hand.  rho_K = (1,0,-1), and the noncompact half-sum
    # (2,2,2) is integral, so the genuine kappa are the dominant integral
    # ones; at |kappa|^2 <= 2 there are six: 0, (1,0,0), (0,0,-1), (1,1,0),
    # (0,-1,-1) and (1,0,-1).  kappa + rho_K pairs to zero with both e1+e3
    # and 2e2 exactly when kappa_2 = 0 and kappa_3 = -kappa_1, so for
    # kappa = 0 and (1,0,-1) only.  On that face u cap s holds e1+e2, 2e1,
    # -(e2+e3) and -2e3, so rho(s cap u) = (3/2,0,-3/2), and the Levi
    # offset of the sign choice (+,+) is rho_l(+,+) = (1/2,1,1/2).  Then
    # mu = kappa - rho(s cap u) - rho_l(+,+); kappa_l is mu less its parts
    # along e1+e3 and e2; the fine weights are kappa_l + (+-1/2, +-1, +-1/2),
    # the first and last signs equal; the minimal K-types add
    # 2 rho(s cap u) = (3,0,-3), and the R-group order is 2^2.
    #   kappa = 0:       mu = (-2,-1,1), kappa_l = (-3/2,0,3/2),
    #                    K-types (2,+-1,-1), (1,+-1,-2);
    #   kappa = (1,0,-1): mu = (-1,-1,0), kappa_l = (-1/2,0,1/2),
    #                    K-types (3,+-1,-2), (2,+-1,-3).
    d = loads_descriptor(SP6R_TEXT)
    entries = enumerate_ball(d, 2)
    assert {e.kappa: e.n_pairs for e in entries} == {
        Weight(k): n for k, n in (
            ((0, 0, 0), 2), ((1, 0, -1), 2), ((1, 0, 0), 1), ((0, 0, -1), 1),
            ((1, 1, 0), 1), ((0, -1, -1), 1),
        )
    }
    expected = {
        Weight((0, 0, 0)): (
            (-2, -1, 1), (-3 * H, 0, 3 * H),
            ((-1, 1, 2), (-1, -1, 2), (-2, 1, 1), (-2, -1, 1)),
            ((2, 1, -1), (2, -1, -1), (1, 1, -2), (1, -1, -2)),
        ),
        Weight((1, 0, -1)): (
            (-1, -1, 0), (-H, 0, H),
            ((0, 1, 1), (0, -1, 1), (-1, 1, 0), (-1, -1, 0)),
            ((3, 1, -2), (3, -1, -2), (2, 1, -3), (2, -1, -3)),
        ),
    }
    for e in entries:
        if e.n_pairs != 2:
            continue
        mu, kappa_l, fine, k_types = expected[e.kappa]
        s = summarize_datum(e)
        assert set(e.parabolic.l_pairs) == {Weight((1, 0, 1)), Weight((0, 2, 0))}
        assert (e.mu, e.kappa_l) == (Weight(mu), Weight(kappa_l))
        assert set(s.fine_weights) == set(map(Weight, fine))
        assert set(s.minimal_k_types) == set(map(Weight, k_types))
        assert (s.r_order, s.dirac_hw) == (4, e.kappa)


def test_walk_visits_only_components(monkeypatch):
    walked = []
    walk = classify.ellipsoid_integer_points

    def counted(*args, **kwargs):
        for point in walk(*args, **kwargs):
            walked.append(point)
            yield point

    monkeypatch.setattr(classify, "ellipsoid_integer_points", counted)
    su31 = loads_descriptor(SU31_TEXT)
    for d, radius in ((catalog("sp4r"), 20), (catalog("su21"), 20), (su31, 10)):
        walked.clear()
        run = enumerate_components(d, radius)
        assert len(walked) == len(run.entries) > 0


def test_non_dominant_walked_kappa_is_a_bijection_failure(monkeypatch, sp4r):
    # A walk that ignores its lower bounds: a box about the origin holds
    # genuine weights on both sides of the wall.
    def stray(*args, **kwargs):
        yield from itertools.product(range(-3, 4), repeat=2)

    monkeypatch.setattr(classify, "ellipsoid_integer_points", stray)
    with pytest.raises(InternalBijectionFailure, match="non-dominant"):
        enumerate_ball(sp4r, 4)


# ---------------------------------------------------------------------------
# validate passes => classify exits 0, over generated product descriptors


def _product(d1, d2):
    """d1 x d2: block-diagonal Gram, weights padded with zeros, ranks and
    zero-weight dimensions summed, block lattice basis."""
    r1, r2 = d1.rank_tc, d2.rank_tc

    def padded(field):
        left = tuple(Weight((*w, *(0,) * r2)) for w in getattr(d1, field))
        return left + tuple(Weight((*(0,) * r1, *w)) for w in getattr(d2, field))

    gram = [list(row) + [0] * r2 for row in d1.form.gram]
    gram += [[0] * r1 + list(row) for row in d2.form.gram]
    return RealFormDescriptor(
        name=f"{d1.name}x{d2.name}",
        rank_tc=r1 + r2,
        rank_g=d1.rank_g + d2.rank_g,
        form=BilinearForm(gram),
        compact_roots=padded("compact_roots"),
        positive_compact=padded("positive_compact"),
        noncompact_weights=padded("noncompact_weights"),
        zero_weight_s_dim=d1.zero_weight_s_dim + d2.zero_weight_s_dim,
        integrality_basis=padded("integrality_basis"),
    )


_scales = st.fractions(min_value=Fraction(1, 3), max_value=3, max_denominator=4)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(("sl2r", "sl2c", "su21", "sp4r", "su31", "bc1")),
    st.sampled_from(("sl2r", "sl2c", "su21", "sp4r", "su31", "bc1")),
    _scales,
    _scales,
    st.data(),
)
def test_validated_product_classifies(name1, name2, scale1, scale2, data):
    groups = _walk_groups()
    d = _product(
        replace(groups[name1], form=scale_form(groups[name1].form, scale1)),
        replace(groups[name2], form=scale_form(groups[name2].form, scale2)),
    )
    u = data.draw(unimodular(d.rank_tc))
    basis = tuple(
        sum((c * b for c, b in zip(row, d.integrality_basis)), Weight.zero(d.rank_tc))
        for row in u
    )
    text = serialize_descriptor(replace(d, integrality_basis=basis))
    d = parse_descriptor(text)
    report = validate(d)
    # A factor bc1 makes the compact root system non-reduced: refused, exit 2.
    with_bc1 = "bc1" in (name1, name2)
    assert {rule for rule, _ in report.violations} == ({"compact_reduced"} if with_bc1 else set())
    # A ball small enough for a product with su31, whose rank is 3.
    radius = Fraction(3, 2) if "su31" in (name1, name2) else Fraction(2)
    components = [] if with_bc1 else enumerate_ball(d, radius)
    pairs = [(datum.kappa, mu) for datum in components for mu in minimal_k_types(datum)]
    n = d.rank_tc
    zero, e1, half = ",".join("0" * n), ",".join("1" + "0" * (n - 1)), ",".join(["1/2"] * n)
    fuzz = [["krep", cmd, w] for cmd in ("dim", "weights") for w in (zero, e1, half)]
    fuzz.append(["krep", "tensor", e1, zero])
    # Two (kappa, mu) pairs, and one swapped: mu is no genuine weight.
    for tau, v in pairs[:2] + [(v, tau) for tau, v in pairs[:1]]:
        tau, v = (",".join(map(str, w)) for w in (tau, v))
        fuzz.append(["krep", "diracmult", f"--tau={tau}", f"--v={v}"])
    if n == 2:
        fuzz.append(["figure", "--m-range=-3:3", "--n-range=-3:3"])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "product.group")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

        def run(command, *args):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command, path, *args])
            return code, out.getvalue(), err.getvalue()

        code, out, err = run("classify", "--radius", "2")
        # krep and figure on a product: a refusal is bad input, never a bug.
        for command, *args in fuzz:
            fuzz_code, _, fuzz_err = run(command, *args)
            assert fuzz_code in (0, 2), (command, args, fuzz_err)
    if with_bc1:
        assert code == 2 and "compact_reduced" in err, err
        return
    assert code == 0, err
    assert out.count("\n") > 1
    # Connes-Kasparov over Dirac induction: kappa occurs in V(mu) (x) S for
    # each minimal K-type mu, with the uniform factor the spin module's
    # zero-weight part puts on every spin weight (2 on sl2c x sl2c).
    factor = 2 ** (d.zero_weight_s_dim // 2)
    for kappa, mu in pairs:
        assert dirac_multiplicity(d, kappa, mu) == factor, (kappa, mu)
    # The converse: V(mu) (x) S decomposes with coefficients >= 0 whose
    # dimensions add up to dim V(mu) |S|, and kappa is its unique type of
    # least |tau + rho_K|^2.
    frame, spin, rho = integer_frame(d), krep._spin_items(d), d.rho_compact()
    for kappa, mu in pairs:
        fold = krep._klimyk_fold(d, frame.over_den(mu), frame.den, spin)
        hits = {frame.weight(tau): c for tau, c in fold.items() if c}
        assert all(c > 0 for c in hits.values()), (kappa, mu, hits)
        total = sum(c * weyl_dim(d, tau) for tau, c in hits.items())
        assert total == weyl_dim(d, mu) * sum(m for _, m in spin)
        least = min(d.form.norm_sq(tau + rho) for tau in hits)
        assert [tau for tau in hits if d.form.norm_sq(tau + rho) == least] == [kappa]


def test_dirac_multiplicity_on_sl2c_x_sl2c_is_the_zero_weight_factor():
    # m0 = 2, so every spin weight carries 2 and kappa occurs twice.
    sl2c = catalog("sl2c")
    d = _product(sl2c, sl2c)
    assert d.zero_weight_s_dim == 2
    datum = construct_from_kappa(d, Weight((0, 0)))
    assert minimal_k_types(datum) == (Weight((1, 1)),)
    assert dirac_multiplicity(d, datum.kappa, Weight((1, 1))) == 2


# ---------------------------------------------------------------------------
# the face's integer Levi projection against Fraction arithmetic


def _fold_dominant(d, kappa):
    """kappa reflected in each positive compact root it pairs negatively
    with, in Fraction arithmetic, until it is dominant.  The compact Weyl
    group keeps a genuine weight genuine."""
    gram = d.form.gram
    while True:
        a = next((a for a in d.positive_compact if inner(gram, kappa, a) < 0), None)
        if a is None:
            return kappa
        kappa = kappa - (2 * inner(gram, kappa, a) / inner(gram, a, a)) * a


def _check_levi_projection(d, coeffs):
    """The datum of the dominant genuine kappa folded from rho_n plus the
    basis combination coeffs, its mu and kappa_l checked against the
    Fraction oracle: kappa - mu_shift, then project_away."""
    shift = H * sum(d.noncompact_positives(), Weight.zero(d.rank_tc))
    kappa = _fold_dominant(d, sum(map(mul, coeffs, d.integrality_basis), shift))
    datum = construct_from_kappa(d, kappa)
    p = datum.parabolic
    mu = kappa - p.frame.weight(p.mu_shift_nums)
    assert datum.mu == mu
    assert datum.kappa_l == project_away(mu, p.l_pairs, d.form)
    return datum


_VALID = ("sl2r", "sl2c", "su21", "sp4r", "su31")


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_VALID),
    st.sampled_from(_VALID),
    _scales,
    _scales,
    st.lists(st.integers(-4, 4), min_size=6, max_size=6),
)
@example("sl2r", "sl2r", Fraction(1), Fraction(1), [-1] * 6)
def test_levi_projection_matches_the_fraction_oracle(name1, name2, scale1, scale2, coeffs):
    groups = _walk_groups()
    d = _product(
        replace(groups[name1], form=scale_form(groups[name1].form, scale1)),
        replace(groups[name2], form=scale_form(groups[name2].form, scale2)),
    )
    assert validate(d).ok
    _check_levi_projection(d, coeffs)


def test_levi_projection_on_faces_with_two_pairs():
    sl2r = catalog("sl2r")
    # kappa = 0 and kappa = (0, 1/2, 1/2): every factor's pair is a Levi pair.
    for d, coeffs in (
        (_product(sl2r, sl2r), (-1, -1)),
        (_product(sl2r, catalog("sp4r")), (-1, -1, -1)),
    ):
        assert _check_levi_projection(d, coeffs).n_pairs == 2


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_VALID), st.sampled_from(_VALID), _scales, _scales)
@example("sl2r", "sp4r", Fraction(1), Fraction(1, 3))
def test_face_integrality_law_agrees_with_the_per_component_test(name1, name2, scale1, scale2):
    groups = _walk_groups()
    d = _product(
        replace(groups[name1], form=scale_form(groups[name1].form, scale1)),
        replace(groups[name2], form=scale_form(groups[name2].form, scale2)),
    )
    assert validate(d).ok
    radius = Fraction(3, 2) if "su31" in (name1, name2) else Fraction(5, 2)
    entries = enumerate_ball(d, radius * radius)
    shift, positives = genuine_shift(d), d.noncompact_positives()
    frame = integer_frame(d)
    assert entries and frame.faces
    for signs, p in frame.faces.items():
        # mu_shift - genuine_shift is minus the positives the face flips.
        flipped = [g for g, s in zip(positives, signs) if s < 0]
        assert frame.weight(p.mu_shift_nums) - shift == -sum(flipped, Weight.zero(d.rank_tc))
    for datum in entries:
        # The law the face checked once is the test each mu used to pay.
        law = is_integral(d, frame.weight(datum.parabolic.mu_shift_nums) - shift)
        assert is_integral(d, datum.mu) == law == is_genuine(d, datum.kappa) is True
        assert all(is_integral(d, w) for w in minimal_k_types(datum))


def test_sp2n_text_writes_the_hand_written_sp6r():
    assert sp2n_text(3) == SP6R_TEXT
    assert all(validate(loads_descriptor(sp2n_text(n))).ok for n in (4, 5))


def test_sp10r_has_a_face_with_three_levi_pairs():
    # Values derived by hand.  sp(2n,R)'s genuine shift is the half-sum of
    # the noncompact positives, ((n+1)/2)(1,...,1), so kappa = 0 is genuine
    # for n = 5.  kappa + rho_K = rho_K = (2,1,0,-1,-2) pairs to zero with
    # e_i + e_j exactly when i + j = 6, and with 2e_i exactly when i = 3.
    d = loads_descriptor(sp2n_text(5))
    zero = Weight((0,) * 5)
    datum = construct_from_kappa(d, zero)
    assert set(datum.parabolic.l_pairs) == {
        Weight((1, 0, 0, 0, 1)), Weight((0, 1, 0, 1, 0)), Weight((0, 0, 2, 0, 0))
    }
    s = summarize_datum(datum)
    assert (s.n_pairs, s.r_order) == (3, 8)
    # rho(s cap u) = (5/2,3/2,0,-3/2,-5/2) from the 9 noncompact positives
    # rho_K pairs to > 0 and the 6 it pairs to < 0, negated; the minimal
    # K-types add (1/2) sum of s_j b_j over the three Levi pairs.
    shift = (5 * H, 3 * H, 0, -3 * H, -5 * H)
    assert set(s.minimal_k_types) == {
        Weight(map(add, shift, (a * H, b * H, c, b * H, a * H)))
        for a, b, c in itertools.product((1, -1), repeat=3)
    }
    # The all-plus K-type + 2 rho_K = (7,4,1,-3,-6) pairs to nonzero with
    # every noncompact root, and subtracting that rho(s cap u) gives 0.
    assert match_inverse(d, Weight((3, 2, 1, -1, -2))) == zero


def test_sp8r_pairs_at_rho_k_and_zero_is_not_genuine():
    # For n = 4 the genuine shift is (5/2)(1,1,1,1): kappa = 0 is not
    # genuine, and kappa = rho_K = (3/2,1/2,-1/2,-3/2) is, with
    # kappa + rho_K = (3,1,-1,-3) zero on e1 + e4 and e2 + e3 only.
    d = loads_descriptor(sp2n_text(4))
    with pytest.raises(NotGenuine):
        construct_from_kappa(d, Weight((0,) * 4))
    rho_k = Weight((3 * H, H, -H, -3 * H))
    assert d.rho_compact() == rho_k
    datum = construct_from_kappa(d, rho_k)
    assert set(datum.parabolic.l_pairs) == {Weight((1, 0, 0, 1)), Weight((0, 1, 1, 0))}
