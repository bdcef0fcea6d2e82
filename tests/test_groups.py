import copy
import inspect
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tempered_atlas import (
    descriptor_file, groups, load_descriptor, loads_descriptor, serialize_descriptor,
)
from tempered_atlas.classify import (
    ClassificationRun,
    EssentialVoganDatum,
    construct_from_kappa,
    enumerate_components,
)
from tempered_atlas.cli import main
from tempered_atlas.descriptor_file import parse_descriptor
from tempered_atlas.errors import (
    DescriptorFormatError,
    DescriptorValidationError,
    UnknownGroup,
)
from tempered_atlas.groups import (
    RealFormDescriptor,
    ValidationReport,
    catalog,
    catalog_names,
    is_integral,
    lattice_coordinates,
    validate,
)
from tempered_atlas.matching import ComponentSummary, summarize
from tempered_atlas.weights import BilinearForm, Weight
from conftest import replace
from test_su31_custom import SU31_TEXT


def test_catalog_names():
    assert catalog_names() == ("sl2c", "sl2r", "sp4r", "su21")
    with pytest.raises(UnknownGroup):
        catalog("nosuch")


def test_catalog_facts(sp4r, sl2r, sl2c, su21):
    # dim s = 6 for the rank-two symplectic group: root count minus u(2)
    assert len(sp4r.noncompact_weights) == 6
    assert sl2r.compact_roots == ()
    assert sl2c.zero_weight_s_dim == 1
    # dim s = nonzero noncompact weights plus the zero-weight part
    assert len(sl2c.noncompact_weights) + sl2c.zero_weight_s_dim == 3
    assert len(su21.noncompact_weights) + su21.zero_weight_s_dim == 4
    for d in (sp4r, sl2r, sl2c, su21):
        assert d.zero_weight_s_dim == d.rank_g - d.rank_tc


def test_catalog_validates_and_is_deterministic():
    for name in catalog_names():
        assert validate(catalog(name)).ok
        assert catalog(name) == catalog(name)
        assert serialize_descriptor(catalog(name)) == serialize_descriptor(catalog(name))


def test_descriptors_are_built_once_and_validated_on_every_resolve(monkeypatch):
    text = serialize_descriptor(catalog("su21"))
    assert parse_descriptor(text) is parse_descriptor(text)
    d = loads_descriptor(text)
    assert validate(d) is validate(d)

    checked = []

    def counting_validate(d):
        checked.append(d)
        return validate(d)

    # catalog looks validate up in groups, loads_descriptor in descriptor_file.
    monkeypatch.setattr(groups, "validate", counting_validate)
    monkeypatch.setattr(descriptor_file, "validate", counting_validate)
    for name in catalog_names():
        assert catalog(name) is catalog(name)
    assert loads_descriptor(text) is loads_descriptor(text) is d
    assert len(checked) == 2 * len(catalog_names()) + 2


def test_serialize_round_trip():
    for name in catalog_names():
        d = catalog(name)
        back = loads_descriptor(serialize_descriptor(d))
        assert back == d and hash(back) == hash(d)
        assert back is not d


def test_value_classes_compare_by_value_and_are_frozen():
    d = catalog("sp4r")
    kappa, other = Weight((Fraction(7, 2), Fraction(1, 2))), Weight((Fraction(9, 2), Fraction(3, 2)))
    # Each value twice, built apart, then a value that differs in one field.
    triples = {
        RealFormDescriptor: (d, replace(d), replace(d, name="other")),
        ValidationReport: (validate(d), validate(replace(d)), ValidationReport((("x", "y"),))),
        EssentialVoganDatum: (
            construct_from_kappa(d, kappa),
            construct_from_kappa(d, kappa),
            construct_from_kappa(d, other),
        ),
        ClassificationRun: (
            enumerate_components(d, 3),
            enumerate_components(d, 3),
            enumerate_components(d, 2),
        ),
        ComponentSummary: (summarize(d, kappa), summarize(d, kappa), summarize(d, other)),
    }
    assert len(triples) == 5
    for cls, (a, b, c) in triples.items():
        assert type(a) is type(b) is type(c) is cls
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != c and a != tuple(getattr(a, f) for f in cls.__match_args__)
        if cls is not EssentialVoganDatum:  # made only by construct_from_kappa
            assert tuple(inspect.signature(cls).parameters) == cls.__match_args__
        assert repr(a).startswith(f"{cls.__name__}(")
        assert all(f"{f}={getattr(a, f)!r}" in repr(a) for f in cls.__match_args__)
        assert copy.copy(a) == a
    # kappa_l's numerators over D are carried on the datum, outside its fields.
    datum = triples[EssentialVoganDatum][0]
    assert "kappa_l_nums" not in datum.__match_args__ and "kappa_l_nums" not in repr(datum)
    assert not hasattr(datum, "__dict__")
    for value, field in ((d, "name"), (datum, "kappa"), (datum, "kappa_l_nums"),
                         (triples[ComponentSummary][0], "minimal_k_types")):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    # A copy is rebuilt through the constructor: equal, with no memoised tables.
    back = pickle.loads(pickle.dumps(d))
    assert back == d and back is not d
    assert not any(key.startswith("_memo_") for key in vars(back))
    # A datum pickles as its descriptor and kappa, and the copy reads the
    # same pairing table.
    back = pickle.loads(pickle.dumps(datum))
    assert (back.kappa, back.mu, back.kappa_l) == (datum.kappa, datum.mu, datum.kappa_l)
    assert back.parabolic.frame.pairings(back.kappa) == datum.parabolic.frame.pairings(datum.kappa)


def test_load_descriptor_from_file(tmp_path, sp4r):
    path = tmp_path / "sp4r.group"
    path.write_text(serialize_descriptor(sp4r), encoding="utf-8")
    assert load_descriptor(path) == sp4r


def test_zero_weight_dim_mismatch_rejected(sp4r):
    text = serialize_descriptor(sp4r).replace(
        "zero_weight_s_dim = 0", "zero_weight_s_dim = 3"
    )
    with pytest.raises(DescriptorValidationError) as err:
        loads_descriptor(text)
    assert any(name == "rank_balance" for name, _ in err.value.report.violations)


def test_missing_negative_rejected(sp4r):
    text = serialize_descriptor(sp4r).replace(
        "noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2 ; 0,-2",
        "noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2",
    )
    with pytest.raises(DescriptorValidationError) as err:
        loads_descriptor(text)
    assert any(
        name == "noncompact_negation_closure" for name, _ in err.value.report.violations
    )


def test_duplicate_noncompact_reports_multiplicity(sp4r):
    text = serialize_descriptor(sp4r).replace(
        "noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2 ; 0,-2",
        "noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2 ; 0,-2 ; 1,1",
    )
    with pytest.raises(DescriptorValidationError) as err:
        loads_descriptor(text)
    assert any("multiplicity" in name for name, _ in err.value.report.violations)


def test_collinear_noncompact_pairs_reported(sp4r):
    text = serialize_descriptor(sp4r).replace(
        "noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2 ; 0,-2",
        "noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2 ; 0,-2 ; -4,0 ; 4,0",
    )
    with pytest.raises(DescriptorValidationError) as err:
        loads_descriptor(text)
    assert (
        "noncompact_collinear",
        "(2,0) and (4,0) lie on one line through 0 with no compact root",
    ) in err.value.report.violations


def test_weight_reflection_closure_reported(sp4r):
    # Reflecting (1,1) in (4,0) gives (-1,1), which is not listed.
    text = serialize_descriptor(sp4r).replace(
        "noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2 ; 0,-2",
        "noncompact = 1,1 ; -1,-1 ; 2,0 ; -2,0 ; 0,2 ; 0,-2 ; -4,0 ; 4,0",
    )
    with pytest.raises(DescriptorValidationError) as err:
        loads_descriptor(text)
    names = [name for name, _ in err.value.report.violations]
    assert "weight_reflection_closure" in names
    assert "compact_reflection_closure" not in names


def test_indefinite_form_reported(sp4r):
    text = serialize_descriptor(sp4r).replace("gram = 1,0 ; 0,1", "gram = 1,2 ; 2,1")
    with pytest.raises(DescriptorValidationError) as err:
        loads_descriptor(text)
    assert ("form_positive_definite", "form not positive definite") in err.value.report.violations


def test_float_literal_rejected(sp4r):
    text = serialize_descriptor(sp4r).replace("gram = 1,0 ; 0,1", "gram = 1.0,0 ; 0,1")
    with pytest.raises(DescriptorFormatError):
        loads_descriptor(text)


def test_missing_section_rejected():
    with pytest.raises(DescriptorFormatError):
        loads_descriptor("[group]\nname = x\n")


def test_is_integral_examples(sp4r, sl2r):
    assert is_integral(sp4r, Weight((-1, 0)))
    assert not is_integral(sp4r, Weight((Fraction(-1, 2), Fraction(1, 2))))
    assert is_integral(sl2r, Weight((1,)))


def test_lattice_coordinates(su21):
    assert lattice_coordinates(su21, Weight((2, -1))) == ((2, -1), 1)
    assert lattice_coordinates(su21, Weight((1, Fraction(-1, 2)))) == ((2, -1), 2)


@given(
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=-8, max_value=8),
    st.randoms(use_true_random=False),
)
def test_integrality_stable_under_root_shifts(a, b, rng):
    # root lattice sits inside the integral lattice, so adding any listed
    # weight cannot change membership
    d = catalog(rng.choice(catalog_names()))
    basis = d.integrality_basis
    w = a * basis[0]
    if d.rank_tc > 1:
        w = w + b * basis[-1]
    assert is_integral(d, w)
    for shift in d.compact_roots + d.noncompact_weights:
        assert is_integral(d, w + shift)


def test_noncompact_positives_one_per_pair(sp4r, su21):
    for d in (sp4r, su21):
        pos = d.noncompact_positives()
        assert len(pos) * 2 == len(d.noncompact_weights)
        assert all(-w not in pos for w in pos)


def test_positive_roots_outside_one_chamber_reported():
    # An A2 compact system with positives a, b, -(a + b): each pair has one
    # positive member, but no chamber has all three positive.
    text = SU31_TEXT.replace(
        "positive_compact = 1,-1,0 ; 0,1,-1 ; 1,0,-1",
        "positive_compact = 1,-1,0 ; 0,1,-1 ; -1,0,1",
    )
    with pytest.raises(DescriptorValidationError) as err:
        loads_descriptor(text)
    assert err.value.report.violations == (
        (
            "positive_system",
            "positive_compact is not one chamber's positive roots: "
            "their half-sum does not pair positively with (1,-1,0)",
        ),
    )


SP4R_TEXT = serialize_descriptor(catalog("sp4r"))


def sp4r_edit(old, new):
    """The sp4r descriptor text with one line replaced."""
    assert SP4R_TEXT.count(old) == 1
    return SP4R_TEXT.replace(old, new)


# (rule, detail fragment, sp4r text edit) for every rule a file can break.
TEXT_RULES = [
    ("form_symmetric", "not symmetric", ("gram = 1,0 ; 0,1", "gram = 1,1 ; 0,1")),
    ("compact_dimension", "(1,-1,0)", ("\ncompact = 1,-1 ;", "\ncompact = 1,-1,0 ;")),
    ("positive_compact_dimension", "(1,-1,0)", ("compact = 1,-1\n", "compact = 1,-1,0\n")),
    ("noncompact_dimension", "(1)", ("noncompact = 1,1 ;", "noncompact = 1 ;")),
    ("lattice_dimension", "(0,1,0)", ("basis = 1,0 ; 0,1", "basis = 1,0 ; 0,1,0")),
    ("compact_zero_entry", "zero vector", ("; -1,1\npositive", "; -1,1 ; 0,0\npositive")),
    ("noncompact_zero_entry", "zero vector", ("noncompact = 1,1 ;", "noncompact = 0,0 ; 1,1 ;")),
    ("positive_system", "not a subset", ("compact = 1,-1\n", "compact = 1,1\n")),
    ("positive_system", "duplicate", ("compact = 1,-1\n", "compact = 1,-1 ; 1,-1\n")),
    ("positive_system", "exactly one of", ("compact = 1,-1\n", "compact = 1,-1 ; -1,1\n")),
    ("lattice_basis_shape", "rank_tc rows", ("basis = 1,0 ; 0,1", "basis = 1,0")),
    ("lattice_basis_invertible", "singular", ("basis = 1,0 ; 0,1", "basis = 1,0 ; 2,0")),
    ("root_lattice_membership", "(1,-1)", ("basis = 1,0 ; 0,1", "basis = 2,0 ; 0,2")),
]


@pytest.mark.parametrize(
    "rule, fragment, edit", TEXT_RULES, ids=[f"{r}-{f}" for r, f, _ in TEXT_RULES]
)
def test_each_validate_rule_a_file_can_break(rule, fragment, edit, tmp_path, capsys):
    text = sp4r_edit(*edit)
    violations = validate(parse_descriptor(text)).violations
    assert any(name == rule and fragment in detail for name, detail in violations), violations
    path = tmp_path / "bad.group"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert f"violation {rule}: " in capsys.readouterr().out


def test_form_of_the_wrong_rank_is_reported(sp4r):
    # The parser refuses a Gram matrix of the wrong shape, so only a
    # descriptor built in code can reach this rule.
    d = replace(sp4r, form=BilinearForm.identity(3))
    assert validate(d).violations == (("form_shape", "Gram is 3x3, rank_tc = 2"),)


FORMAT_ERRORS = [
    ("empty vector in [roots] compact", ("\ncompact = 1,-1 ;", "\ncompact = 1,-1 ; ;")),
    ("rank_tc: not an integer: 'two'", ("rank_tc = 2", "rank_tc = two")),
    # Each of these once got past str.isdigit: int() then raised a bare
    # ValueError naming no field, or read the Arabic-Indic two as 2.
    ("rank_tc: not an integer: '+-2'", ("rank_tc = 2", "rank_tc = +-2")),
    ("rank_tc: not an integer: '\u00b2'", ("rank_tc = 2", "rank_tc = \u00b2")),
    ("rank_tc: not an integer: '\u0662'", ("rank_tc = 2", "rank_tc = \u0662")),
    ("Source contains parsing errors", ("[form]", "[form")),
    ("[group] name is empty", ("name = sp4r", "name =")),
    ("[form] gram must be rank_tc x rank_tc", ("gram = 1,0 ; 0,1", "gram = 1,0")),
]


@pytest.mark.parametrize("message, edit", FORMAT_ERRORS, ids=[m for m, _ in FORMAT_ERRORS])
def test_each_format_error(message, edit, tmp_path, capsys):
    text = sp4r_edit(*edit)
    with pytest.raises(DescriptorFormatError) as err:
        parse_descriptor(text)
    assert message in str(err.value)
    path = tmp_path / "bad.group"
    path.write_text(text, encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_unreadable_descriptor_file(tmp_path, capsys):
    # A directory exists as a path but cannot be read as a file.
    with pytest.raises(DescriptorFormatError, match="cannot read"):
        load_descriptor(tmp_path)
    assert main(["classify", str(tmp_path), "--radius", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err
    # validate reads the file the same way, for a directory and a missing path.
    for path in (tmp_path, tmp_path / "missing.group"):
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"error: cannot read {path}: " in captured.err
        assert captured.out == ""
