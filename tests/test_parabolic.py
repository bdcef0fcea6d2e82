import contextlib
import copy
import itertools
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempered_atlas.errors import (
    NotDominant, NotStrictlyDominant, StructuralInvariantError, ZeroRoot,
)
from tempered_atlas import catalog, classify, groups, loads_descriptor, matching, parabolic
from tempered_atlas.classify import EssentialVoganDatum, construct_from_kappa, enumerate_ball
from tempered_atlas.groups import (
    RealFormDescriptor, integer_frame, lex_positive, validate,
)
from tempered_atlas.matching import match_inverse, summarize_datum
from tempered_atlas.parabolic import ThetaParabolic, build_parabolic
from tempered_atlas.weights import BilinearForm, Weight, half_sum
from conftest import replace
from fraction_linalg import scale_form
from test_classify import SP6R_TEXT, sp2n_text
from test_su31_custom import SU31_TEXT

H = Fraction(1, 2)


def brute_force_buckets(d, lam):
    """Independent oracle: exhaustive sign evaluation over every listed
    torus weight."""
    u_c = sorted(a for a in d.compact_roots if d.form.inner(lam, a) > 0)
    u_nc = sorted(g for g in d.noncompact_weights if d.form.inner(lam, g) > 0)
    pairs = sorted(
        g
        for g in d.noncompact_weights
        if d.form.inner(lam, g) == 0 and lex_positive(g)
    )
    return tuple(u_c), tuple(u_nc), tuple(pairs)


def buckets(p):
    """The face's buckets: its compact ones are the positive compact roots."""
    return tuple(sorted(p.descriptor.positive_compact)), p.u_noncompact, p.l_pairs


def test_all_positive_bucket(sp4r):
    p = build_parabolic(sp4r, Weight((3, 1)))
    assert buckets(p) == brute_force_buckets(sp4r, Weight((3, 1)))
    assert buckets(p)[0] == (Weight((1, -1)),)
    assert p.u_noncompact == (Weight((0, 2)), Weight((1, 1)), Weight((2, 0)))
    assert p.l_pairs == ()
    assert p.n_pairs == 0


def test_one_pair_bucket(sp4r):
    p = build_parabolic(sp4r, Weight((1, -1)))
    assert buckets(p) == brute_force_buckets(sp4r, Weight((1, -1)))
    assert p.u_noncompact == (Weight((0, -2)), Weight((2, 0)))
    assert p.l_pairs == (Weight((1, 1)),)


def test_long_root_pair_bucket(sp4r):
    p = build_parabolic(sp4r, Weight((1, 0)))
    assert p.u_noncompact == (Weight((1, 1)), Weight((2, 0)))
    assert p.l_pairs == (Weight((0, 2)),)


def test_not_strictly_dominant_rejected(sp4r):
    with pytest.raises(NotStrictlyDominant):
        build_parabolic(sp4r, Weight((1, 1)))
    with pytest.raises(NotStrictlyDominant):
        build_parabolic(sp4r, Weight((0, 0)))


def test_a_guard_failure_on_the_hot_path_names_rho_k():
    # positive_compact sums to zero here, so rho_K is 0, which validate
    # refuses; unvalidated, the hot path's pairing values all read 0, but the
    # message names the group and rho_K, the one operand that can fail.
    d = loads_descriptor(SU31_TEXT)
    cycle = replace(d, positive_compact=tuple(map(Weight, ((1, -1, 0), (0, 1, -1), (-1, 0, 1)))))
    message = r"su31: rho_K = \(0,0,0\) is not strictly dominant for the compact positives"
    for entry in (construct_from_kappa, match_inverse):
        with pytest.raises(NotStrictlyDominant, match=message):
            entry(cycle, Weight((0, 0, 0)))


def rho_s_cap_u(p):
    return p.frame.weight(p.rho_s_cap_u_nums)


def rho_l(p):
    return tuple(map(p.frame.weight, p.rho_l_nums))


def test_rho_s_cap_u(sp4r):
    p = build_parabolic(sp4r, Weight((3, 1)))
    assert rho_s_cap_u(p) == Weight((Fraction(3, 2), Fraction(3, 2)))
    # No Levi pair: the one K-type shift is twice rho(s cap u).
    assert tuple(map(p.frame.weight, p.k_type_shift_nums)) == (Weight((3, 3)),)
    assert rho_s_cap_u(build_parabolic(sp4r, Weight((1, -1)))) == Weight((1, -1))
    # empty nilradical noncompact part for the split rank-one group at 0
    assert rho_s_cap_u(build_parabolic(catalog("sl2r"), Weight((0,)))) == Weight((0,))


def test_rho_l_plus(sp4r):
    # One signed Levi half-sum per sign vector, +1 first.
    p = build_parabolic(sp4r, Weight((1, -1)))
    assert rho_l(p) == (Weight((H, H)), Weight((-H, -H)))
    p2 = build_parabolic(sp4r, Weight((1, 0)))
    assert rho_l(p2) == (Weight((0, 1)), Weight((0, -1)))
    p3 = build_parabolic(sp4r, Weight((3, 1)))
    assert rho_l(p3) == (Weight((0, 0)),)


strict_dominant_sp4r = (
    st.tuples(
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    )
    .map(Weight)
    .filter(lambda w: w[0] > w[1])
)


@given(strict_dominant_sp4r, st.fractions(min_value=Fraction(1, 5), max_value=7, max_denominator=5))
def test_scale_invariance_of_buckets(sp4r_lam, c):
    d = catalog("sp4r")
    p1 = build_parabolic(d, sp4r_lam)
    p2 = build_parabolic(d, c * sp4r_lam)
    assert buckets(p1) == buckets(p2)


@given(strict_dominant_sp4r)
def test_partition_completeness_and_orthogonality(lam):
    d = catalog("sp4r")
    p = build_parabolic(d, lam)
    total = 2 * len(d.positive_compact) + 2 * len(p.u_noncompact) + 2 * p.n_pairs
    assert total == len(d.compact_roots) + len(d.noncompact_weights)
    for i, a in enumerate(p.l_pairs):
        for b in p.l_pairs[i + 1 :]:
            assert d.form.inner(a, b) == 0
    # nilradical half-sum restricts to zero on every rank-one Levi factor
    rho = half_sum(d.positive_compact + p.u_noncompact, rank=d.rank_tc)
    assert all(d.form.inner(rho, beta) == 0 for beta in p.l_pairs)


def test_rho_identity_over_sign_vectors(sp4r, su21):
    # rho of the assembled noncompact positive system splits as
    # rho(s cap u) + rho_l(signs), recomputed from the assembled list
    import itertools

    for d, lams in (
        (sp4r, [Weight((1, -1)), Weight((1, 0)), Weight((3, 1))]),
        (su21, [Weight((1, 0)), Weight((3, 1))]),
    ):
        for lam in lams:
            p = build_parabolic(d, lam)
            sign_vectors = list(itertools.product((1, -1), repeat=p.n_pairs))
            assert len(p.rho_l_nums) == len(sign_vectors)
            for signs, signed_half_sum in zip(sign_vectors, rho_l(p)):
                assembled = p.u_noncompact + tuple(s * b for s, b in zip(signs, p.l_pairs))
                # one member per noncompact pair
                assert len(assembled) * 2 == len(d.noncompact_weights)
                assert len({frozenset((w, -w)) for w in assembled}) == len(assembled)
                assert half_sum(assembled, rank=d.rank_tc) == rho_s_cap_u(p) + signed_half_sum


@pytest.mark.parametrize(
    "lams",
    [
        ((3, 1), (5, 2), (9, Fraction(1, 3))),
        ((1, -1), (Fraction(5, 2), Fraction(-5, 2))),
        ((1, 0), (4, 0), (Fraction(1, 7), 0)),
    ],
)
def test_weights_on_one_face_give_equal_buckets(sp4r, lams):
    # Every lam in a group has the same sign vector over the torus weights.
    ps = [build_parabolic(sp4r, Weight(lam)) for lam in lams]
    first = ps[0]
    for p, lam in zip(ps, lams):
        assert p is first
        assert buckets(p) == brute_force_buckets(
            sp4r, Weight(lam)
        )
        assert rho_s_cap_u(p) == half_sum(p.u_noncompact, rank=2)
        mu_shift = p.frame.weight(p.mu_shift_nums)
        assert mu_shift == half_sum(p.u_noncompact, rank=2) + half_sum(p.l_pairs, rank=2)


def test_one_parabolic_per_face_and_descriptor(sp4r):
    # (3,1) and (5,2) lie on the face with every noncompact sign positive.
    p = build_parabolic(sp4r, Weight((3, 1)))
    assert build_parabolic(sp4r, Weight((5, 2))) is p
    assert p.descriptor is sp4r
    copy = replace(sp4r)
    q = build_parabolic(copy, Weight((5, 2)))
    assert q is not p
    assert q.descriptor is copy
    assert buckets(q) == buckets(p)


def test_failing_face_fails_on_every_call(sl2r):
    # Noncompact weights +-2, +-4: lam = 0 puts the non-orthogonal pair
    # (2), (4) in the Levi.
    d = replace(
        sl2r,
        noncompact_weights=(Weight((2,)), Weight((-2,)), Weight((4,)), Weight((-4,))),
    )
    for _ in range(3):
        with pytest.raises(StructuralInvariantError):
            build_parabolic(d, Weight((0,)))
    assert build_parabolic(d, Weight((1,))).u_noncompact == (Weight((2,)), Weight((4,)))
    with pytest.raises(StructuralInvariantError):
        build_parabolic(d, Weight((0,)))


def test_zero_length_levi_pair_is_named_on_an_unvalidated_form(sl2r):
    # validate refuses a degenerate form; a descriptor built without it
    # still gets a named error from the face, not a division by zero.
    d = replace(sl2r, form=BilinearForm(((0,),)))
    for _ in range(2):
        with pytest.raises(ZeroRoot, match=r"zero-length root \(2\)"):
            build_parabolic(d, Weight((0,)))


def test_gram_rescaled_descriptor_shares_no_face_table(su21):
    scaled = replace(su21, form=scale_form(su21.form, Fraction(2, 3)))
    for lam in (Weight((1, 0)), Weight((3, 1))):
        p, q = build_parabolic(su21, lam), build_parabolic(scaled, lam)
        assert buckets(p) == buckets(q)
        assert p.u_noncompact is not q.u_noncompact
        assert p.rho_s_cap_u_nums is not q.rho_s_cap_u_nums


def test_partition_check_catches_compact_roots_outside_the_positive_system(sp4r):
    # +-(1,2) are listed as compact roots but neither is a positive compact
    # root, so the buckets of a face miss them.
    extra = (Weight((1, 2)), Weight((-1, -2)))
    d = replace(sp4r, compact_roots=sp4r.compact_roots + extra)
    for _ in range(2):
        with pytest.raises(StructuralInvariantError, match="partition"):
            build_parabolic(d, Weight((3, 1)))


def test_matching_and_parabolic_share_one_face_table(sp4r):
    d = replace(sp4r)
    # (2,0) + 2 rho_K = (3,-1) and (5,-1) lie on one face with no zero sign.
    table = integer_frame(d).faces
    assert table == {}
    kappa = match_inverse(d, Weight((2, 0)))
    assert table is integer_frame(d).faces and len(table) == 1
    p = build_parabolic(d, Weight((5, -1)))
    assert len(table) == 1
    assert p is table[(-1, 1, 1)]
    assert kappa == Weight((2, 0)) - rho_s_cap_u(p)
    # A face with a Levi pair is a second entry.
    assert build_parabolic(d, Weight((1, -1))) is table[(-1, 0, 1)]
    assert len(table) == 2
    # A copy of the descriptor starts with an empty table of its own.
    assert integer_frame(replace(d)).faces == {}


def test_levi_law_is_checked_once_per_face(sp4r, monkeypatch):
    d = replace(sp4r)
    enumerate_ball(d, 1)  # builds the walk's own per-descriptor tables
    integer_frame(d).faces.clear()
    built = []
    build = parabolic.ThetaParabolic._build

    def counted(face, d, signs):
        built.append(signs)
        return build(face, d, signs)

    # The law is checked in the face's builder, one integer test per Levi pair.
    monkeypatch.setattr(parabolic.ThetaParabolic, "_build", counted)
    entries = enumerate_ball(d, 100)
    assert sum(e.n_pairs for e in entries) > sum(s.count(0) for s in built) > 0
    assert sorted(built) == sorted(integer_frame(d).faces)
    built.clear()
    assert enumerate_ball(d, 100) == entries
    assert built == []


def test_faces_and_data_come_only_from_their_builders(sp4r):
    d = replace(sp4r)
    build_parabolic(d, Weight((3, 1)))
    faces = dict(integer_frame(d).faces)
    # Read as faces, these sign vectors broke a face law (an exit-3
    # StructuralInvariantError); the class takes no arguments at all, and
    # with none it makes no empty face either.
    for args in ((d, (0, 0, 0)), (d, (1, 1)), (d, (1, 0, 5)), ()):
        with pytest.raises(TypeError, match="a face comes from build_parabolic"):
            ThetaParabolic(*args)
    assert integer_frame(d).faces == faces
    datum = construct_from_kappa(d, Weight((5 * H, H)))
    for args in ((datum.parabolic, datum.kappa, datum.mu, datum.kappa_l), ()):
        with pytest.raises(TypeError, match="a datum comes from construct_from_kappa"):
            EssentialVoganDatum(*args)
    assert "mu_nums" not in EssentialVoganDatum.__slots__
    # A pickle or a copy is rebuilt by construct_from_kappa: a copy shares
    # the face, and a pickle has its own descriptor and so its own face.
    back = pickle.loads(pickle.dumps(datum))
    assert back.descriptor == d and back.descriptor is not d
    assert back == construct_from_kappa(back.descriptor, datum.kappa)
    same = copy.copy(datum)
    assert same == datum and same.parabolic is datum.parabolic


def test_faces_data_and_runs_are_values(sp4r):
    face = build_parabolic(sp4r, Weight((3, 1)))
    # A face is (descriptor, signs): a copy is the face table's entry, and
    # a pickle or a deep copy is its own descriptor's face, equal to it.
    assert copy.copy(face) is face
    assert face.signs == (1, 1, 1)
    for other in (pickle.loads(pickle.dumps(face)), copy.deepcopy(face)):
        assert other == face and hash(other) == hash(face)
        assert other is integer_frame(other.descriptor).faces[face.signs]
    assert face != build_parabolic(sp4r, Weight((1, 0)))
    assert face != build_parabolic(catalog("su21"), Weight((3, 1)))
    datum = construct_from_kappa(sp4r, Weight((5 * H, H)))
    run = classify.enumerate_components(sp4r, 3)
    for x in (datum, run):
        assert pickle.loads(pickle.dumps(x)) == x
        assert copy.deepcopy(x) == x


def test_integrality_law_is_checked_once_per_face(sp4r, monkeypatch):
    d = replace(sp4r)
    calls = []

    def counted(*args):
        calls.append(args)
        return groups.is_integral(*args)

    for module in (classify, matching, parabolic):
        monkeypatch.setattr(module, "is_integral", counted)
    entries = enumerate_ball(d, 400)
    summaries = list(map(summarize_datum, entries))
    # The walk's faces and the round trip's faces with no Levi pair: one
    # lattice test each, none per component or per minimal K-type.
    faces = integer_frame(d).faces
    assert len(calls) == len(faces) < len(entries) == len(summaries) == 646
    assert any(s.count(0) for s in faces) and any(0 not in s for s in faces)


def test_integrality_law_names_the_group_and_the_face():
    # +-1 lies outside the lattice 2Z, which validate would refuse; the
    # face with sign - flips it into mu_shift - genuine_shift = -1.
    d = RealFormDescriptor(
        name="offlattice", rank_tc=1, rank_g=1, form=BilinearForm.identity(1),
        compact_roots=(), positive_compact=(),
        noncompact_weights=(Weight((1,)), Weight((-1,))),
        zero_weight_s_dim=0, integrality_basis=(Weight((2,)),),
    )
    assert "root_lattice_membership" in {rule for rule, _ in validate(d).violations}
    # The face with sign + flips nothing and passes.
    assert build_parabolic(d, Weight((1,))).u_noncompact == (Weight((1,)),)
    message = r"offlattice: mu must be integral on the face with signs \(-1,\)"
    for _ in range(2):
        with pytest.raises(StructuralInvariantError, match=message):
            build_parabolic(d, Weight((-1,)))
    assert (-1,) not in integer_frame(d).faces
    # The walk reaches kappa = -3/2 on that face: the same error.
    with pytest.raises(StructuralInvariantError, match=message):
        enumerate_ball(d, 4)


def face_buckets(p):
    offsets = (p.rho_s_cap_u_nums, *p.rho_l_nums, p.mu_shift_nums, *p.k_type_shift_nums)
    return (*buckets(p), tuple(map(p.frame.weight, offsets)))


@pytest.mark.parametrize("name", ("sp4r", "su21", "su31"))
def test_faces_do_not_depend_on_the_noncompact_list_order(name):
    # A fresh copy, so its face table holds only the faces met below.
    d = replace(loads_descriptor(SU31_TEXT) if name == "su31" else catalog(name))
    # The pairs in reverse order, each listed negative-first.
    listed = tuple(w for g in reversed(d.noncompact_positives()) for w in (-g, g))
    assert sorted(listed) == sorted(d.noncompact_weights) and listed != d.noncompact_weights
    e = replace(d, noncompact_weights=listed)
    radius_sq = 25 if name == "su31" else 100
    ours, theirs = enumerate_ball(d, radius_sq), enumerate_ball(e, radius_sq)
    assert list(map(summarize_datum, ours)) == list(map(summarize_datum, theirs))
    for a, b in zip(ours, theirs):
        assert (a.kappa, a.mu, a.kappa_l) == (b.kappa, b.mu, b.kappa_l)
        assert face_buckets(a.parabolic) == face_buckets(b.parabolic)
    # One sign per +-pair, over the same positive system whatever the order.
    keys = integer_frame(e).faces.keys()
    assert {len(k) for k in keys} == {len(d.noncompact_positives())}
    assert keys == integer_frame(d).faces.keys()


def test_inner_is_read_once_per_table_root_of_each_descriptor(monkeypatch):
    # A fresh copy, so that its root table is built during this classification.
    d = replace(catalog("sp4r"))
    seen = []
    inner = BilinearForm.inner
    monkeypatch.setattr(BilinearForm, "inner", lambda form, a, b: seen.append(a) or inner(form, a, b))
    summaries = list(map(summarize_datum, enumerate_ball(d, Fraction(20) ** 2)))
    # Each root's norm, read once by the descriptor's IntegerFrame; every
    # face and every component reads it from there.
    assert sorted(seen) == sorted((*d.positive_compact, *d.noncompact_positives()))
    assert sum(s.n_pairs > 0 for s in summaries) > 10 * len(seen) > 0
    seen.clear()
    integer_frame(d).faces.clear()
    assert list(map(summarize_datum, enumerate_ball(d, Fraction(20) ** 2))) == summaries
    assert seen == []


GROUPS = {
    "sp4r": lambda: catalog("sp4r"),
    "su21": lambda: catalog("su21"),
    "su31": lambda: loads_descriptor(SU31_TEXT),
    "sp6r": lambda: loads_descriptor(SP6R_TEXT),
    "sp8r": lambda: loads_descriptor(sp2n_text(4)),
}


# Each group's number of faces: on sp(2n,R) the sign vectors of x_i + x_j
# over x_1 > ... > x_n, which a box of side 9 already reaches in full.
@pytest.mark.parametrize("name, n_faces", (
    ("sp4r", 7), ("su21", 5), ("su31", 7), ("sp6r", 17), ("sp8r", 41),
))
def test_integer_half_sums_equal_the_weight_half_sums(name, n_faces):
    d = replace(GROUPS[name]())
    for coords in itertools.product(range(-4, 5), repeat=d.rank_tc):
        with contextlib.suppress(NotStrictlyDominant):
            build_parabolic(d, Weight(coords))
    frame = integer_frame(d)
    assert len(frame.faces) == n_faces

    def oracle(weights):
        return frame.over_den(half_sum(weights, rank=d.rank_tc))

    assert frame.genuine == oracle(d.noncompact_positives())
    for p in frame.faces.values():
        assert p.rho_s_cap_u_nums == oracle(p.u_noncompact)
        choices = itertools.product((1, -1), repeat=p.n_pairs)
        assert p.rho_l_nums == tuple(oracle([s * b for s, b in zip(c, p.l_pairs)]) for c in choices)


def least_coroot_pairing(d, w):
    return min(2 * d.form.inner(w, a) / d.form.inner(a, a) for a in d.positive_compact)


# kappa, and a minimal K-type mu_g matching back to a weight, each with
# least coroot pairing exactly 0 on the positive compact roots.
@pytest.mark.parametrize("name, kappa, mu_g", (
    ("sp4r", (H, H), (2, 2)),
    ("su31", (1, 1, 0), (2, 2, 0)),
))
def test_a_zero_compact_pairing_is_dominant_but_not_strictly(name, kappa, mu_g):
    d = GROUPS[name]()
    kappa, mu_g = Weight(kappa), Weight(mu_g)
    back = match_inverse(d, mu_g)  # both of its tests pass
    assert least_coroot_pairing(d, mu_g) == least_coroot_pairing(d, back) == 0
    assert least_coroot_pairing(d, kappa) == 0
    assert d.is_dominant_weight(kappa)
    assert construct_from_kappa(d, kappa).kappa == kappa
    message = rf"^{re.escape(str(kappa))} is not strictly dominant for the compact positives$"
    with pytest.raises(NotStrictlyDominant, match=message):
        build_parabolic(d, kappa)


# kappa and mu_g with least coroot pairing -1, and a dominant mu_back
# matching back to a weight `back` with least coroot pairing -1.
@pytest.mark.parametrize("name, kappa, mu_g, mu_back, back", (
    ("sp4r", (H, 3 * H), (0, 1), (1, 0), (-H, H)),
    ("su31", (0, 1, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)),
))
def test_a_compact_pairing_of_minus_one_fails_every_dominance_test(name, kappa, mu_g, mu_back, back):
    d = GROUPS[name]()
    kappa, mu_g, mu_back, back = map(Weight, (kappa, mu_g, mu_back, back))
    assert {least_coroot_pairing(d, w) for w in (kappa, mu_g, back)} == {-1}
    assert least_coroot_pairing(d, mu_back) >= 0
    assert not d.is_dominant_weight(kappa)
    weak = "is not dominant for the compact positives"
    with pytest.raises(NotDominant, match=rf"^{re.escape(str(kappa))} {weak}$"):
        construct_from_kappa(d, kappa)
    with pytest.raises(NotStrictlyDominant, match=rf"^{re.escape(str(kappa))} is not strictly"):
        build_parabolic(d, kappa)
    with pytest.raises(NotDominant, match=rf"^{re.escape(str(mu_g))} {weak}$"):
        match_inverse(d, mu_g)
    message = f"{mu_back} is not a minimal K-type: it matches back to {back}, which {weak}"
    with pytest.raises(NotDominant, match=rf"^{re.escape(message)}$"):
        match_inverse(d, mu_back)


def test_with_no_compact_root_every_dominance_test_passes(sl2r):
    assert integer_frame(sl2r).n_compact == 0
    for kappa in map(Weight, ((-3,), (-1,), (0,), (2,))):
        assert sl2r.is_dominant_weight(kappa)
        assert construct_from_kappa(sl2r, kappa).kappa == kappa
        assert build_parabolic(sl2r, kappa).descriptor is sl2r
    # mu_g + 2 rho_K = -3 puts -2 in u: rho(s cap u) = -1, and kappa = -2.
    assert match_inverse(sl2r, Weight((-3,))) == Weight((-2,))
