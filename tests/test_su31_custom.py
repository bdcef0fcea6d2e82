"""Hardening on a custom rank-3 descriptor loaded from the file format.

The group is the rank-three unitary form with maximal compact S(U(3)xU(1)):
compact roots form an A2 system (Weyl order 6, one non-simple positive
root), three mutually non-orthogonal noncompact pairs, Gram the scaled
trace form.  Coordinates drop the fourth torus angle, so the lattice is
Z^3.  This exercises every generic code path the rank-one catalog groups
cannot: multi-root Freudenthal strings, wall hits in the Klimyk fold,
chamber walks beyond a single reflection, and rank-3 ball enumeration.
"""

import contextlib
import io
import os
import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tempered_atlas import cli, loads_descriptor
from tempered_atlas.classify import construct_from_kappa, enumerate_ball, enumerate_components
from tempered_atlas.errors import TemperedAtlasError
from tempered_atlas.groups import simple_compact_roots, validate
from tempered_atlas.krep import (
    dirac_multiplicity,
    freudenthal,
    spin_weights,
    tensor_decompose,
    weyl_dim,
)
from tempered_atlas.matching import match_inverse, summarize_datum
from tempered_atlas.weights import Weight
from fraction_linalg import coroot_pairing, reflect

SU31_TEXT = """
[group]
name = su31
rank_tc = 3
rank_g = 3
zero_weight_s_dim = 0

[form]
gram = 3,-1,-1 ; -1,3,-1 ; -1,-1,3

[roots]
compact = 1,-1,0 ; -1,1,0 ; 0,1,-1 ; 0,-1,1 ; 1,0,-1 ; -1,0,1
positive_compact = 1,-1,0 ; 0,1,-1 ; 1,0,-1
noncompact = 2,1,1 ; -2,-1,-1 ; 1,2,1 ; -1,-2,-1 ; 1,1,2 ; -1,-1,-2

[lattice]
basis = 1,0,0 ; 0,1,0 ; 0,0,1
"""


@pytest.fixture(scope="module")
def su31():
    return loads_descriptor(SU31_TEXT)


def u3_dim(m1, m2, m3):
    """Oracle: closed-form U(3) dimension from the hook-style products."""
    return (m1 - m2 + 1) * (m2 - m3 + 1) * (m1 - m3 + 2) // 2


def test_descriptor_validates(su31):
    assert validate(su31).ok
    assert len(su31.noncompact_weights) + su31.zero_weight_s_dim == 6
    assert su31.rho_compact() == Weight((1, 0, -1))
    assert simple_compact_roots(su31) == (Weight((0, 1, -1)), Weight((1, -1, 0)))


def test_weyl_group_order_six(su31):
    from test_krep import weyl_orbit

    orbit = weyl_orbit(su31, su31.rho_compact())
    assert len(orbit) == 6
    assert sum(orbit.values()) == 0


def test_weyl_dims_against_closed_form(su31):
    cases = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0), (1, 0, -1), (2, 1, 0), (3, 1, 0)]
    expected = [1, 3, 3, 6, 8, 8, 15]
    for (m1, m2, m3), dim in zip(cases, expected):
        hw = Weight((m1, m2, m3))
        assert weyl_dim(su31, hw) == u3_dim(m1, m2, m3) == dim


def test_adjoint_type_weights(su31):
    # highest weight (1,0,-1): all six compact roots once, zero twice
    ms = freudenthal(su31, Weight((1, 0, -1)))
    assert sum(ms.values()) == 8
    assert ms[Weight((0, 0, 0))] == 2
    for root in su31.compact_roots:
        assert ms[root] == 1


def test_freudenthal_mass_law_and_symmetry(su31):
    for m1 in range(0, 4):
        for m2 in range(-1, m1 + 1):
            for m3 in range(-2, m2 + 1):
                hw = Weight((m1, m2, m3))
                ms = freudenthal(su31, hw)
                assert sum(ms.values()) == weyl_dim(su31, hw)
                for simple in simple_compact_roots(su31):
                    assert {
                        reflect(w, simple, su31.form): c for w, c in ms.items()
                    } == ms


def test_tensor_products(su31):
    fund = Weight((1, 0, 0))
    assert tensor_decompose(su31, fund, fund) == (
        (Weight((1, 1, 0)), 1),
        (Weight((2, 0, 0)), 1),
    )
    adjoint = Weight((1, 0, -1))
    assert tensor_decompose(su31, adjoint, fund) == (
        (Weight((1, 0, 0)), 1),
        (Weight((1, 1, -1)), 1),
        (Weight((2, 0, -1)), 1),
    )
    rng = random.Random(31)
    for _ in range(20):
        a = sorted((rng.randint(-2, 3) for _ in range(3)), reverse=True)
        b = sorted((rng.randint(-2, 3) for _ in range(3)), reverse=True)
        hw1, hw2 = Weight(a), Weight(b)
        terms = tensor_decompose(su31, hw1, hw2)
        assert sum(c * weyl_dim(su31, w) for w, c in terms) == weyl_dim(
            su31, hw1
        ) * weyl_dim(su31, hw2)


def test_spin_weights(su31):
    ms = spin_weights(su31)
    assert sum(ms.values()) == 2 ** (len(su31.noncompact_weights) // 2) == 8
    expected = {
        Weight((2, 2, 2)): 1,
        Weight((0, 1, 1)): 1,
        Weight((1, 0, 1)): 1,
        Weight((1, 1, 0)): 1,
        Weight((-1, -1, 0)): 1,
        Weight((-1, 0, -1)): 1,
        Weight((0, -1, -1)): 1,
        Weight((-2, -2, -2)): 1,
    }
    assert ms == expected


def test_construct_at_zero(su31):
    # worked by hand: the middle noncompact pair is the Levi pair
    datum = construct_from_kappa(su31, Weight((0, 0, 0)))
    assert datum is not None
    assert datum.parabolic.l_pairs == (Weight((1, 2, 1)),)
    assert datum.mu == Weight((-1, -1, 0))
    assert coroot_pairing(datum.mu, Weight((1, 2, 1)), su31.form) == -1


def test_enumeration_round_trips_and_dirac_kernel(su31):
    run = enumerate_components(su31, 4)
    assert len(run.entries) >= 8
    owners = {}
    for datum in run.entries:
        s = summarize_datum(datum)
        assert s.n_pairs in (0, 1)
        assert s.dirac_hw == datum.kappa
        assert len(s.minimal_k_types) == s.r_order == 2**s.n_pairs
        for w in s.minimal_k_types:
            assert w not in owners
            owners[w] = datum.kappa
            assert match_inverse(su31, w) == datum.kappa
            assert dirac_multiplicity(su31, datum.kappa, w) == 1


def test_enumerate_ball_order_is_fraction_coordinate_order(su31):
    kappas = [datum.kappa for datum in enumerate_ball(su31, Fraction(100))]
    assert len(kappas) > 20
    assert kappas == sorted(kappas, key=lambda k: k.coords)
    assert all(Weight(k.coords) == k for k in kappas)


# ---------------------------------------------------------------------------
# mutated su31 text: refused cleanly, or classified and matched without an
# internal failure


_VECTOR_KEYS = ("gram", "compact", "positive_compact", "noncompact", "basis")


@st.composite
def mutated_su31_text(draw):
    """SU31_TEXT after one to three edits of its vector lists: drop,
    duplicate or negate a vector, list +-2v for a vector v, or set one
    coordinate to a small rational."""
    lines = SU31_TEXT.split("\n")
    keyed = [i for i, line in enumerate(lines) if line.partition(" = ")[0] in _VECTOR_KEYS]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.sampled_from(keyed))
        key, _, value = lines[i].partition(" = ")
        vectors = [v.strip().split(",") for v in value.split(";") if v.strip()]
        if not vectors:
            continue
        j = draw(st.integers(min_value=0, max_value=len(vectors) - 1))
        kind = draw(st.sampled_from(("drop", "duplicate", "negate", "double", "edit")))
        if kind == "drop":
            del vectors[j]
        elif kind == "duplicate":
            vectors.insert(j, vectors[j])
        elif kind == "negate":
            vectors[j] = [str(-Fraction(x)) for x in vectors[j]]
        elif kind == "double":
            vectors += [[str(k * Fraction(x)) for x in vectors[j]] for k in (2, -2)]
        else:
            k = draw(st.integers(min_value=0, max_value=len(vectors[j]) - 1))
            x = draw(st.fractions(min_value=-3, max_value=3, max_denominator=2))
            vectors[j] = [*vectors[j][:k], str(x), *vectors[j][k + 1 :]]
        lines[i] = f"{key} = " + " ; ".join(",".join(v) for v in vectors)
    return "\n".join(lines)


def run_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(mutated_su31_text())
def test_mutated_su31_text_is_refused_or_classified(text):
    # Any other exception escapes loads_descriptor and fails the test.
    try:
        loads_descriptor(text)
    except TemperedAtlasError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutant.group")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = run_main("classify", path, "--radius", "3")
        assert code == 0, (text, err)
        for argv in (
            ("match", path, "--mu", "0,0,0", "--direction", "inverse"),
            ("krep", path, "dim", "0,0,0"),
            ("krep", path, "weights", "0,0,0"),
        ):
            code, err = run_main(*argv)
            assert code != 3, (text, argv, err)
