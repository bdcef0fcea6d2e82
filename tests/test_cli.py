import atexit
import contextlib
import csv
import io
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tempered_atlas
from tempered_atlas import classify, cli, cli_parser, errors, matching, serialize_descriptor
from tempered_atlas.cli import main
from tempered_atlas.errors import (
    AmbiguousPositiveSystem, NotDominant, NotGenuine, StructuralInvariantError,
)
from tempered_atlas.groups import RealFormDescriptor, ValidationReport, catalog, integer_frame
from tempered_atlas.weights import BilinearForm, Weight, parse_rational
from conftest import replace
from test_classify import SP6R_TEXT, _bc1
from test_su31_custom import SU31_TEXT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_groups(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for name in ("sl2c", "sl2r", "sp4r", "su21"):
        assert name in out


def test_version_prints_the_package_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"tempered-atlas {tempered_atlas.__version__}\n"


def test_package_version_matches_pyproject():
    # One version string: pyproject reads it from the package, so the two
    # cannot drift.  A regex, not tomllib: the supported Pythons include 3.10.
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "', text, re.MULTILINE) is None
    assert re.search(r'^dynamic = \["version"\]$', text, re.MULTILINE)
    dynamic = text.partition("\n[tool.setuptools.dynamic]\n")[2].partition("\n[")[0]
    assert re.search(r'^version = \{attr = "tempered_atlas.__version__"\}$', dynamic, re.MULTILINE)
    assert re.fullmatch(r"[0-9]+\.[0-9]+\.[0-9]+", tempered_atlas.__version__)


def test_classify_csv_sl2r(capsys):
    code, out, _ = run_cli(capsys, "classify", "sl2r", "--radius", "5", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "kappa",
        "n_pairs",
        "r_group_order",
        "minimal_k_types",
        "dirac_highest_weight",
    ]
    assert len(rows) == 12  # header + 11 components
    by_kappa = {r[0]: r for r in rows[1:]}
    assert by_kappa["(0)"][1:] == ["1", "2", "(1) (-1)", "(0)"]
    assert by_kappa["(-3)"][1:] == ["0", "1", "(-4)", "(-3)"]


def test_classify_json_count_law(capsys):
    code, out, _ = run_cli(capsys, "classify", "sp4r", "--radius", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group"] == "sp4r"
    assert doc["radius"] == "3"
    assert doc["components"]
    for rec in doc["components"]:
        assert len(rec["minimal_k_types"]) == 2 ** rec["n_pairs"]
        assert rec["r_group_order"] == 2 ** rec["n_pairs"]


@settings(max_examples=300)
@given(st.text())
@example('"\\\b\f\n\r\t\x00\x1f\x7f\x80 ~é\ud800￿\U0001d524')
def test_json_str_escapes_as_json_dumps(s):
    assert cli._json_str(s) == json.dumps(s)


# A group name with each kind of character json.dumps escapes: a quote, a
# backslash, a short escape, DEL, a BMP letter and one beyond the BMP.
ODD_NAME = 'odd "name" \\ tab\there del\x7f é \U0001d524'
SU31_PATH = str(Path(__file__).resolve().parents[1] / "bench" / "data" / "su31.group")
WRITER_CASES = (
    ("sl2r", "4"), ("sp4r", "3"), ("su21", "3"), ("su31", "2"), ("sp6r", "2"),
    ("sp4r", "1/2"),  # an empty ball
    ("odd", "3"),
)


def writer_group(key, tmp_path) -> str:
    """The group argument of a WRITER_CASES key: a catalog name or a path."""
    if key == "odd":
        path = tmp_path / "odd.group"
        d = replace(catalog("sl2r"), name=ODD_NAME)
        path.write_text(serialize_descriptor(d), encoding="utf-8")
        return str(path)
    return {"su31": SU31_PATH, "sp6r": SP6R_PATH}.get(key, key)


def stdlib_records(group, radius):
    """The classify document's group, radius and records, from the library."""
    run = classify.enumerate_components(cli.resolve_descriptor(group), parse_rational(radius))
    records = []
    for s in map(matching.summarize_datum, run.entries):
        records.append({
            "kappa": str(s.kappa),
            "n_pairs": s.n_pairs,
            "r_group_order": s.r_order,
            "minimal_k_types": [str(w) for w in s.minimal_k_types],
            "dirac_highest_weight": str(s.dirac_hw),
        })
    return run.group, str(run.radius), records


@pytest.mark.parametrize("key, radius", WRITER_CASES)
def test_classify_json_is_what_json_dumps_writes(capsys, tmp_path, key, radius):
    group = writer_group(key, tmp_path)
    name, text, records = stdlib_records(group, radius)
    doc = {"group": name, "radius": text, "components": records}
    code, out, _ = run_cli(capsys, "classify", group, "--radius", radius, "--format", "json")
    assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"
    assert bool(records) == (radius != "1/2")


def csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("key, radius", WRITER_CASES)
def test_classify_csv_is_what_csv_writer_writes(capsys, tmp_path, key, radius):
    group = writer_group(key, tmp_path)
    rows = [["kappa", "n_pairs", "r_group_order", "minimal_k_types", "dirac_highest_weight"]]
    for r in stdlib_records(group, radius)[2]:
        types = " ".join(r["minimal_k_types"])
        rows.append([r["kappa"], r["n_pairs"], r["r_group_order"], types, r["dirac_highest_weight"]])
    code, out, _ = run_cli(capsys, "classify", group, "--radius", radius, "--format", "csv")
    assert code == 0
    assert out == csv_text(rows)
    if key == "sl2r":  # a rank-1 Weight text holds no comma, so it is not quoted
        assert "\n(3),0,1,(4),(3)\n" in out


@pytest.mark.parametrize("group, m_range, n_range", (
    ("sp4r", "-6:6", "-5:7"), ("su21", "-4:4", "-4:4"), ("sp4r", "30:31", "0:1"),
))
def test_figure_csv_is_what_csv_writer_writes(capsys, group, m_range, n_range):
    d = catalog(group)
    cells, _ = cli._figure_cells(d, cli._parse_range(m_range), cli._parse_range(n_range))
    rows = [["m", "n", "content"], *([m, n, cells[(m, n)]] for m, n in sorted(cells))]
    code, out, _ = run_cli(
        capsys, "figure", group, f"--m-range={m_range}", f"--n-range={n_range}", "--format=csv"
    )
    assert code == 0
    assert out == csv_text(rows)


@pytest.mark.parametrize("fmt", ("table", "csv", "json"))
def test_a_failing_summary_leaves_stdout_empty_in_every_format(capsys, monkeypatch, fmt):
    # Every summary is built, with its checks, before the first byte is
    # written: a failure on the third leaves nothing on stdout.
    calls = []
    original = cli.summarize_datum

    def third_fails(datum):
        calls.append(datum)
        if len(calls) == 3:
            raise StructuralInvariantError("third summary refused")
        return original(datum)

    monkeypatch.setattr(cli, "summarize_datum", third_fails)
    code, out, err = run_cli(capsys, "classify", "sp4r", "--radius", "3", "--format", fmt)
    assert (code, out) == (3, "")
    assert err.startswith("internal invariant failure: third summary refused\n")
    assert len(calls) == 3


def test_classify_unknown_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "nosuch", "--radius", "1")
    assert code == 2
    assert "nosuch" in err


def test_classify_rejects_float_radius(capsys):
    code, _, err = run_cli(capsys, "classify", "sl2r", "--radius", "2.5")
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize(
    "argv, text", ((("--radius", "-1"), "-1"), (("--radius=0",), "0"), (("--radius=-1/2",), "-1/2"))
)
def test_classify_refuses_a_radius_not_positive_by_name(capsys, argv, text):
    code, out, err = run_cli(capsys, "classify", "sp4r", *argv)
    assert code == 2 and out == ""
    assert f"--radius must be positive, got {text}\n" in err


def test_match_inverse(capsys):
    code, out, _ = run_cli(capsys, "match", "sp4r", "--mu", "2,0", "--direction", "inverse")
    assert code == 0
    assert "kappa = (1/2,1/2)" in out
    assert "(2,2) (2,0)" in out


def test_match_forward(capsys):
    code, out, _ = run_cli(
        capsys, "match", "sp4r", "--mu", "1/2,-1/2", "--direction", "forward"
    )
    assert code == 0
    assert "(2,-1) (1,-2)" in out


def test_match_ambiguous_exits_4(capsys):
    code, _, err = run_cli(capsys, "match", "sp4r", "--mu", "0,0", "--direction", "inverse")
    assert code == 4
    assert "zero" in err


def test_match_inverse_non_integral_names_the_input(capsys):
    code, out, err = run_cli(
        capsys, "match", "sp4r", "--mu", "1/2,1/2", "--direction", "inverse"
    )
    assert code == 2
    assert out == ""
    assert err == "error: (1/2,1/2) is not analytically integral\n"


def test_match_inverse_non_minimal_k_type_names_the_input(capsys):
    # Both recover (-1/2,1/2), which is not dominant; nothing is printed.
    for mu in ("1,0", "0,-1"):
        code, out, err = run_cli(capsys, "match", "sp4r", "--mu", mu, "--direction", "inverse")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: ({mu}) is not a minimal K-type: it matches back to (-1/2,1/2)")


def test_match_forward_refusals_name_the_input(capsys):
    for mu, reason in (
        ("1,0", "is not the highest weight of a genuine type"),
        ("0,1", "is not dominant for the compact positives"),
    ):
        code, out, err = run_cli(capsys, "match", "sp4r", "--mu", mu)
        assert (code, out) == (2, "")
        assert err == f"error: ({mu}) {reason}\n"


def test_match_writes_nothing_when_the_summary_fails(capsys, monkeypatch):
    def failing_summarize(d, kappa):
        raise NotGenuine(f"{kappa} is not the highest weight of a genuine type")

    monkeypatch.setattr(cli, "summarize", failing_summarize)
    code, out, err = run_cli(capsys, "match", "sp4r", "--mu", "2,0", "--direction", "inverse")
    assert (code, out) == (2, "")
    assert "(1/2,1/2)" in err


def test_figure_csv_claims(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "sp4r", "--m-range=2:4", "--n-range=-2:3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "n", "content"]
    cells = {(int(m), int(n)): content for m, n, content in rows[1:]}
    assert len(cells) == len(rows) - 1  # positions claimed at most once
    assert cells[(4, 3)] == "*"
    assert cells[(2, 2)] == cells[(2, 0)] == "N1-(1/2,1/2)"
    assert cells[(2, -1)] == "N1-(1/2,-1/2)"


def test_figure_shared_id_spans_both_k_types(capsys):
    code, out, _ = run_cli(
        capsys, "figure", "sp4r", "--m-range=0:4", "--n-range=-4:0", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    cells = {(int(m), int(n)): content for m, n, content in rows}
    assert cells[(2, -1)] == cells[(1, -2)] == "N1-(1/2,-1/2)"


def test_classify_table_format(capsys):
    code, out, _ = run_cli(capsys, "classify", "sl2r", "--radius", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == [
        "kappa",
        "n_pairs",
        "r_group_order",
        "minimal_k_types",
        "dirac_highest_weight",
    ]
    assert len(lines) == 4  # header + 3 components


def test_figure_text_has_legend(capsys):
    code, out, _ = run_cli(capsys, "figure", "sp4r", "--m-range=0:3", "--n-range=0:3")
    assert code == 0
    assert "legend:" in out
    assert "N1-(1/2,1/2): minimal K-types (2,2) (2,0)" in out


def test_figure_empty_range_exits_5(capsys):
    code, _, err = run_cli(capsys, "figure", "sp4r", "--m-range=5:2", "--n-range=0:1")
    assert code == 5
    assert "range" in err


def test_figure_malformed_range_exits_2(capsys):
    code, out, err = run_cli(capsys, "figure", "sp4r", "--m-range=5", "--n-range=0:1")
    assert (code, out) == (2, "")
    assert err == "error: range must be LO:HI, got '5'\n"


@pytest.mark.parametrize("argv, text", (
    (("krep", "sp4r", "dim", "1,0,"), "1,0,"),
    (("krep", "sp4r", "tensor", "1,0", ",1"), ",1"),
    (("match", "sp4r", "--mu=2,,0"), "2,,0"),
))
def test_an_empty_coordinate_is_refused_not_dropped(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: empty coordinate in weight literal: {text!r}\n"


@pytest.mark.parametrize(
    "m_range", ("1_0:2_0", " 1:2", "1:2 ", "+:3", ":3", "1:2:3", "\u0661:2", "0x1:2")
)
def test_figure_range_ends_must_be_ascii_integers(capsys, m_range):
    code, out, err = run_cli(capsys, "figure", "sp4r", f"--m-range={m_range}", "--n-range=0:1")
    assert (code, out) == (2, "")
    assert err == f"error: range ends must be integers, got {m_range!r}\n"


def test_figure_range_ends_take_a_sign(capsys):
    signed = run_cli(capsys, "figure", "sp4r", "--m-range=+0:+2", "--n-range=-1:+1")
    assert signed == run_cli(capsys, "figure", "sp4r", "--m-range=0:2", "--n-range=-1:1")
    assert signed[0] == 0


def test_internal_invariant_failure_exits_3(capsys, monkeypatch):
    # Built in code, so validate never sees it: with no compact roots the
    # weights +-(2,0), +-(2,2) are not closed under reflection, and on the
    # first face the walk meets, kappa + rho_K is orthogonal to (2,0) and
    # negative on (2,2), so mu pairs to 0 with (2,0)'s coroot instead of -1.
    d = RealFormDescriptor(
        name="y",
        rank_tc=2,
        rank_g=2,
        form=BilinearForm.identity(2),
        compact_roots=(),
        positive_compact=(),
        noncompact_weights=tuple(Weight(w) for w in ((2, 0), (-2, 0), (2, 2), (-2, -2))),
        zero_weight_s_dim=0,
        integrality_basis=(Weight((1, 0)), Weight((0, 1))),
    )
    monkeypatch.setattr(cli, "resolve_descriptor", lambda name: d)
    code, out, err = run_cli(capsys, "classify", "y", "--radius", "2")
    assert (code, out) == (3, "")
    # The version and the group as typed follow, one key=value a line.
    assert err == (
        "internal invariant failure: mu must restrict to minus one half of each "
        "Levi pair; coroot pairing against (2,0) is 0\n"
        f"version={tempered_atlas.__version__}\ngroup=y\n"
    )


@pytest.mark.parametrize("error", (NotDominant, AmbiguousPositiveSystem))
def test_a_refused_computed_k_type_exits_3(capsys, monkeypatch, error):
    # A minimal K-type the code built is no input of the user's: a refusal
    # by the inverse matching is an internal failure, not exit 2 or 4.
    refused = []
    original = matching.match_inverse

    def refusing(d, mu_g):
        if isinstance(mu_g, tuple):
            refused.append(integer_frame(d).weight(mu_g))
            raise error("refused")
        return original(d, mu_g)

    monkeypatch.setattr(matching, "match_inverse", refusing)
    code, out, err = run_cli(capsys, "classify", "sp4r", "--radius", "2")
    assert (code, out) == (3, "")
    assert err.startswith("internal invariant failure: ")
    assert f"minimal K-type {refused[0]} of " in err


def test_a_non_dominant_walked_kappa_exits_3(capsys, monkeypatch):
    # InternalBijectionFailure is a StructuralInvariantError, so the one
    # exit-3 handler in main catches it.
    def refusing(d, kappa):
        raise NotDominant("refused")

    monkeypatch.setattr(classify, "construct_from_kappa", refusing)
    code, out, err = run_cli(capsys, "classify", "sp4r", "--radius", "2")
    assert (code, out) == (3, "")
    assert err.startswith(
        "internal invariant failure: the dominant-chamber walk reached the non-dominant "
    )


@pytest.mark.parametrize(
    "argv, weight",
    (
        (("krep", "sp4r", "dim", "1"), "(1)"),
        (("krep", "sp4r", "weights", "1,0,0"), "(1,0,0)"),
        (("krep", "sp4r", "tensor", "1,0", "1"), "(1)"),
        (("krep", "sp4r", "tensor", "3", "1,0"), "(3)"),
        (("krep", "sp4r", "diracmult", "--tau", "1/2", "--v", "2,0"), "(1/2)"),
        (("krep", "sp4r", "diracmult", "--tau", "1/2,1/2", "--v", "2"), "(2)"),
        (("match", "sp4r", "--mu", "1/2"), "(1/2)"),
        (("match", "sp4r", "--mu", "2,0,0", "--direction", "inverse"), "(2,0,0)"),
    ),
)
def test_a_weight_of_the_wrong_rank_is_named(capsys, argv, weight):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {weight} has rank ")
    assert err.endswith(", not 2\n")


def test_figure_rank_one_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "figure", "sl2r", "--m-range=0:1", "--n-range=0:1")
    assert code == 2
    assert "rank_tc" in err


def test_krep_subcommands(capsys):
    code, out, _ = run_cli(capsys, "krep", "sp4r", "dim", "2,0")
    assert (code, out) == (0, "3\n")

    code, out, _ = run_cli(capsys, "krep", "sl2r", "weights", "0")
    assert (code, out) == (0, "(0) 1\n")

    code, out, _ = run_cli(capsys, "krep", "sp4r", "tensor", "1,0", "1,0")
    assert code == 0
    assert out == "(1,1) 1\n(2,0) 1\n"

    code, out, _ = run_cli(capsys, "krep", "sp4r", "diracmult", "--tau", "1/2,1/2", "--v", "2,0")
    assert (code, out) == (0, "1\n")


@pytest.mark.parametrize(
    "argv, expected",
    (
        (("dim", "1/3,1/3"), "1\n"),
        (("weights", "1/3,1/3"), "(1/3,1/3) 1\n"),
        (("tensor", "1/3,1/3", "1,0"), "(4/3,1/3) 1\n"),
    ),
)
def test_krep_takes_central_weights_off_the_descriptor_denominator(capsys, argv, expected):
    # (1/3,1/3) is a highest weight of sp4r's K = U(2) whose denominator 3
    # does not divide sp4r's D = 2, so krep works over lcm(D, 3).
    code, out, _ = run_cli(capsys, "krep", "sp4r", *argv)
    assert (code, out) == (0, expected)


@pytest.mark.parametrize("hw, dim", (("0,-1", "2\n"), ("-1,-1", "1\n")))
def test_a_positional_weight_follows_a_double_dash(capsys, hw, dim):
    # A positional weight that starts with - reads as a flag unless -- ends
    # the options before it.
    code, out, err = run_cli(capsys, "krep", "sp4r", "dim", "--", hw)
    assert (code, out, err) == (0, dim, "")


def test_krep_rejects_bad_weight(capsys):
    code, _, err = run_cli(capsys, "krep", "sp4r", "dim", "0.5,1")
    assert code == 2
    assert "rational" in err


@pytest.mark.parametrize(
    "argv",
    (("dim", "1/2,0"), ("tensor", "1/2,0", "1,0"), ("weights", "1/2,0")),
)
def test_krep_rejects_a_dominant_weight_that_is_no_highest_weight(capsys, argv):
    # (1/2,0) is dominant for sp4r but pairs to 1/2 with the coroot of
    # (1,-1); dim and tensor exited 3 on it, and weights printed a multiset.
    code, out, err = run_cli(capsys, "krep", "sp4r", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: (1/2,0) is not a highest weight")
    assert "(1,-1)" in err


def test_validate_command(tmp_path, capsys):
    good = tmp_path / "good.group"
    good.write_text(serialize_descriptor(catalog("su21")), encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", str(good))
    assert code == 0
    assert out == "OK su21\n"

    bad = tmp_path / "bad.group"
    bad.write_text(
        serialize_descriptor(catalog("sp4r")).replace("gram = 1,0 ; 0,1", "gram = 1,2 ; 2,1"),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "form not positive definite" in out


def rank_one_text(name, compact, noncompact, rank_g=1):
    return (
        f"[group]\nname = {name}\nrank_tc = 1\nrank_g = {rank_g}\n"
        f"zero_weight_s_dim = {rank_g - 1}\n\n[form]\ngram = 1\n\n"
        f"[roots]\ncompact = {compact}\npositive_compact = {compact.split(';')[0]}\n"
        f"noncompact = {noncompact}\n\n[lattice]\nbasis = 1\n"
    )


def test_collinear_noncompact_weights_fail_validation(tmp_path, capsys):
    # +-2 and +-4 on one line with no compact root: lam = 0 would make them
    # non-orthogonal Levi pairs.
    path = tmp_path / "collinear.group"
    path.write_text(rank_one_text("x", "", "2 ; -2 ; 4 ; -4"), encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "noncompact_collinear: (2) and (4) lie on one line" in out
    code, out, err = run_cli(capsys, "classify", str(path), "--radius", "3")
    assert (code, out) == (2, "")
    assert "noncompact_collinear" in err


def test_non_reduced_compact_roots_fail_validation(tmp_path, capsys):
    # bc1 lists the compact roots 1 and 2 on one line.  No compact group's
    # root system does, and krep's formulas fail on it with exit 3.
    path = tmp_path / "bc1.group"
    path.write_text(serialize_descriptor(_bc1()), encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert (code, out) == (2, "violation compact_reduced: (1) and (2) lie on one line through 0, "
                              "but a compact root system is reduced\n")
    for argv in (("dim", "1"), ("weights", "1")):
        code, out, err = run_cli(capsys, "krep", str(path), *argv)
        assert (code, out) == (2, "")
        assert "compact_reduced" in err


def test_collinear_weights_on_a_compact_root_line_are_valid(tmp_path, capsys):
    # SL(3,R)-shaped: the compact root 1 shares the line of the noncompact
    # weights 1 and 2, so no strictly dominant weight vanishes on them.
    path = tmp_path / "sl3r.group"
    path.write_text(rank_one_text("sl3r", "1 ; -1", "1 ; -1 ; 2 ; -2", rank_g=2), encoding="utf-8")
    assert run_cli(capsys, "validate", str(path))[:2] == (0, "OK sl3r\n")
    code, out, _ = run_cli(capsys, "classify", str(path), "--radius", "3", "--format", "csv")
    assert code == 0
    assert "(1/2),0,1,(2),(1/2)" in out


def test_weights_not_closed_under_reflection_fail_validation(tmp_path, capsys):
    # No compact roots and noncompact +-(2,0), +-(2,2): every earlier rule
    # passes, yet at kappa = 0 the two pairs would be non-orthogonal Levi
    # pairs.  Reflecting (2,0) in (2,2) gives (0,-2), which is not listed.
    path = tmp_path / "y.group"
    path.write_text(
        "[group]\nname = y\nrank_tc = 2\nrank_g = 2\nzero_weight_s_dim = 0\n\n"
        "[form]\ngram = 1,0 ; 0,1\n\n[roots]\ncompact =\npositive_compact =\n"
        "noncompact = 2,0 ; -2,0 ; 2,2 ; -2,-2\n\n[lattice]\nbasis = 1,0 ; 0,1\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "violation weight_reflection_closure: reflection of" in out
    code, out, err = run_cli(capsys, "classify", str(path), "--radius", "2")
    assert (code, out) == (2, "")
    assert "weight_reflection_closure" in err


def rank_two_text(name, gram, compact, positive_compact, noncompact):
    return (
        f"[group]\nname = {name}\nrank_tc = 2\nrank_g = 2\nzero_weight_s_dim = 0\n\n"
        f"[form]\ngram = {gram}\n\n[roots]\ncompact = {compact}\n"
        f"positive_compact = {positive_compact}\nnoncompact = {noncompact}\n\n"
        "[lattice]\nbasis = 1,0 ; 0,1\n"
    )


def test_noncompact_plane_without_compact_root_fails_validation(tmp_path, capsys):
    # The roots of su(2,1) all taken noncompact: every other rule passes,
    # yet at kappa = 0 the non-orthogonal pairs (1,1) and (1,-2) would both
    # be Levi pairs, and no compact root lies in their span.
    path = tmp_path / "a2.group"
    path.write_text(
        rank_two_text("a2", "2,1 ; 1,2", "", "", "2,-1 ; -2,1 ; 1,1 ; -1,-1 ; -1,2 ; 1,-2"),
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert out == (
        "violation noncompact_plane: (1,-2) and (1,1) are not orthogonal and no "
        "compact root lies in their span\n"
    )
    for argv in (("classify", str(path), "--radius", "2"), ("match", str(path), "--mu", "0,0")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "noncompact_plane" in err


# Rank-two root systems: (Gram, one root per +- pair), integral coordinates.
ROOT_SYSTEMS = {
    "a1a1": ("1,0 ; 0,1", ((2, 0), (0, 2))),
    "a2": ("2,1 ; 1,2", ((2, -1), (1, 1), (-1, 2))),
    "b2": ("1,0 ; 0,1", ((1, -1), (1, 1), (2, 0), (0, 2))),
    "g2": ("2,-3 ; -3,6", ((1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2))),
}


def root_system_labellings():
    """Every labelling of the +- pairs of each rank-two root system as
    compact or noncompact, with every choice of one positive root per
    compact pair."""

    def fmt(vectors):
        return " ; ".join(",".join(map(str, v)) for v in vectors)

    def pm(roots):
        return fmt(w for r in roots for w in (r, tuple(-x for x in r)))

    for name, (gram, roots) in ROOT_SYSTEMS.items():
        for compact in itertools.product((False, True), repeat=len(roots)):
            cs = [r for r, c in zip(roots, compact) if c]
            ns = [r for r, c in zip(roots, compact) if not c]
            for flips in itertools.product((1, -1), repeat=len(cs)):
                positive = [tuple(f * x for x in r) for f, r in zip(flips, cs)]
                yield rank_two_text(name, gram, pm(cs), fmt(positive), pm(ns))


def test_validated_root_system_labellings_never_exit_3(tmp_path, capsys):
    # A descriptor that validates must never reach an internal invariant
    # failure: classify and both directions of match on a 7x7 box exit
    # 0, 2 or 4 only.
    validated = 0
    for i, text in enumerate(root_system_labellings()):
        path = tmp_path / f"{i}.group"
        path.write_text(text, encoding="utf-8")
        if run_cli(capsys, "validate", str(path))[0]:
            continue
        validated += 1
        code, _, err = run_cli(capsys, "classify", str(path), "--radius", "3")
        assert code == 0, (text, err)
        for m, n in itertools.product(range(-3, 4), repeat=2):
            for direction in ("forward", "inverse"):
                argv = ("match", str(path), f"--mu={m},{n}", "--direction", direction)
                code, _, err = run_cli(capsys, *argv)
                assert code in (0, 2, 4), (text, argv, err)
    assert validated == 93


def test_descriptor_search_path(tmp_path, capsys, monkeypatch):
    (tmp_path / "myform.group").write_text(
        serialize_descriptor(catalog("sl2r")), encoding="utf-8"
    )
    monkeypatch.setenv("TEMPERED_ATLAS_PATH", str(tmp_path))
    code, out, _ = run_cli(capsys, "classify", "myform", "--radius", "1", "--format", "csv")
    assert code == 0
    assert "(0),1,2" in out


def test_search_path_takes_only_files(tmp_path, capsys, monkeypatch):
    # A directory named like the group does not shadow its .group file.
    (tmp_path / "myform").mkdir()
    (tmp_path / "myform.group").write_text(
        serialize_descriptor(catalog("sl2r")), encoding="utf-8"
    )
    monkeypatch.setenv("TEMPERED_ATLAS_PATH", str(tmp_path))
    code, out, err = run_cli(capsys, "classify", "myform", "--radius", "1", "--format", "csv")
    assert code == 0, err
    assert "(0),1,2" in out
    # A directory alone is no descriptor: the name is unknown.
    (tmp_path / "myform.group").unlink()
    code, out, err = run_cli(capsys, "classify", "myform", "--radius", "1")
    assert code == 2 and out == ""
    assert "no catalog entry or descriptor file named 'myform'" in err


def test_group_by_direct_path(tmp_path, capsys):
    path = tmp_path / "direct.group"
    path.write_text(serialize_descriptor(catalog("sl2r")), encoding="utf-8")
    code, out, _ = run_cli(capsys, "match", str(path), "--mu", "0", "--direction", "forward")
    assert code == 0
    assert "(1) (-1)" in out


@pytest.mark.parametrize("argv", (("validate",), ("classify", "--radius", "1")))
def test_a_descriptor_that_is_not_utf8_is_named(tmp_path, capsys, argv):
    # A UTF-16 byte-order mark: no UTF-8 text starts with the byte 0xff.
    path = tmp_path / "utf16.group"
    path.write_bytes(b"\xff\xfe")
    command, *rest = argv
    code, out, err = run_cli(capsys, command, str(path), *rest)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ")


def cold_run(*argv):
    """(exit code, stdout) of the CLI in a fresh interpreter, where nothing
    has been built or memoised yet."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tempered_atlas.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "tempered_atlas.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    return proc.returncode, proc.stdout


def test_non_ascii_digits_are_bad_input(capsys):
    code, out, err = run_cli(capsys, "krep", "sp4r", "dim", "\u0662,0")
    assert (code, out) == (2, "") and "not an exact rational literal" in err
    code, out, err = run_cli(capsys, "classify", "sl2r", "--radius", "\u0661")
    assert (code, out) == (2, "") and "not an exact rational literal" in err


def test_a_closed_stdout_pipe_exits_as_sigpipe_would():
    # The reader closes its end before the CLI writes anything, so every
    # write fails with EPIPE.  That is no bad input: entry() exits 141, as
    # a process killed by SIGPIPE shows, and prints nothing on stderr.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tempered_atlas.__file__)))
    argv = ["classify", "sp4r", "--radius", "20", "--format", "csv"]
    with subprocess.Popen(
        [sys.executable, "-m", "tempered_atlas.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
    assert err == b""


def test_cli_import_leaves_out_dataclasses_inspect_and_configparser():
    # A fresh interpreter, so that only the CLI's own imports are loaded;
    # the snapshot is taken before the script imports json itself.
    script = (
        "import sys\n"
        "import tempered_atlas.cli\n"
        "loaded = sorted(sys.modules)\n"
        "import json\n"
        "from tempered_atlas import loads_descriptor\n"
        "from tempered_atlas.groups import validate\n"
        "d = loads_descriptor(sys.stdin.read())\n"
        "print(json.dumps([loaded, d.name, validate(d).ok]))\n"
    )
    su31 = Path(__file__).resolve().parents[1] / "bench" / "data" / "su31.group"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tempered_atlas.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=su31.read_text(encoding="utf-8"),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    loaded, name, ok = json.loads(proc.stdout)
    assert not {"dataclasses", "inspect", "configparser"} & set(loaded)
    # A canonical argv is read without argparse, which builds its parser
    # and imports gettext only for help, abbreviations and usage errors.
    assert not {"argparse", "gettext"} & set(loaded)
    # Nor are the modules of the argparse fallback and the file format.
    assert not {"tempered_atlas.cli_parser", "tempered_atlas.descriptor_file"} & set(loaded)
    # classify and figure write CSV and JSON themselves: no command imports
    # json or csv (test_classify_and_figure_write_without_json_or_csv).
    assert not {"json", "csv"} & set(loaded)
    # bench/tracer.py's install() wraps krep's functions by looking the
    # module up in sys.modules after this import, so krep stays eager.
    assert "tempered_atlas.krep" in loaded
    # The descriptor file parser imports configparser on first use.
    assert (name, ok) == ("su31", True)


def test_classify_and_figure_write_without_json_or_csv():
    # Each format is run in one fresh interpreter, whose script reports
    # what is loaded afterwards without importing json itself.
    script = (
        "import contextlib, io, sys\n"
        "from tempered_atlas import cli\n"
        "for argv in (['classify', 'sp4r', '--radius=2', '--format=json'],\n"
        "             ['classify', 'sp4r', '--radius=2', '--format=csv'],\n"
        "             ['figure', 'sp4r', '--m-range=0:2', '--n-range=0:2', '--format=csv']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "        assert cli.main(argv) == 0 and out.getvalue()\n"
        "print(sorted({'json', 'csv'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tempered_atlas.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "[]\n"


def test_a_catalog_run_leaves_the_file_format_and_argparse_unloaded(tmp_path):
    # figure sp4r names a catalog group in a canonical argv: neither lazy
    # module loads.  A group named by path loads the file format, and an
    # abbreviated option the argparse fallback.
    path = tmp_path / "g.group"
    path.write_text(serialize_descriptor(catalog("sp4r")), encoding="utf-8")
    script = (
        "import contextlib, io, json, sys\n"
        "from tempered_atlas import cli\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(list(argv))\n"
        "    lazy = ('tempered_atlas.descriptor_file', 'tempered_atlas.cli_parser')\n"
        "    return [code, [m for m in lazy if m in sys.modules]]\n"
        "steps = [run('figure', 'sp4r', '--m-range=0:2', '--n-range=0:2')]\n"
        "steps.append(run('figure', sys.argv[1], '--m-range=0:2', '--n-range=0:2'))\n"
        "steps.append(run('figure', 'sp4r', '--m-r=0:2', '--n-range=0:2'))\n"
        "print(json.dumps(steps))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tempered_atlas.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(proc.stdout) == [
        [0, []],
        [0, ["tempered_atlas.descriptor_file"]],
        [0, ["tempered_atlas.descriptor_file", "tempered_atlas.cli_parser"]],
    ]


def test_repeated_main_calls_match_a_cold_run(tmp_path, capsys):
    su31 = tmp_path / "su31.group"
    su31.write_text(SU31_TEXT, encoding="utf-8")
    queries = [
        ("classify", "sp4r", "--radius", "3", "--format", "csv"),
        ("match", "sp4r", "--mu", "2,0", "--direction", "inverse"),
        ("classify", "su21", "--radius", "3"),
        ("krep", "su21", "tensor", "1,0", "1,1"),
        ("match", str(su31), "--mu=3,1,-1", "--direction", "inverse"),
        ("krep", str(su31), "weights", "2,1,0"),
        ("krep", str(su31), "diracmult", "--tau=1,1,0", "--v=2,1,0"),
    ]
    for argv in queries:
        expected = cold_run(*argv)
        assert expected[0] == 0 and expected[1], argv
        for _ in range(3):
            code, out, _ = run_cli(capsys, *argv)
            assert (code, out) == expected, argv


def test_rewritten_descriptor_file_gives_the_new_answer(tmp_path, capsys):
    path = tmp_path / "g.group"
    for name in ("sp4r", "su21", "sp4r"):
        path.write_text(serialize_descriptor(catalog(name)), encoding="utf-8")
        by_file = run_cli(capsys, "classify", str(path), "--radius", "2", "--format", "csv")
        assert by_file == run_cli(capsys, "classify", name, "--radius", "2", "--format", "csv")


def test_invalid_descriptor_fails_on_every_call(tmp_path, capsys):
    path = tmp_path / "bad.group"
    good = serialize_descriptor(catalog("sp4r"))
    path.write_text(good.replace("gram = 1,0 ; 0,1", "gram = 1,2 ; 2,1"), encoding="utf-8")
    for _ in range(3):
        code, out, err = run_cli(capsys, "classify", str(path), "--radius", "1")
        assert (code, out) == (2, "")
        assert "form_positive_definite" in err
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert "form not positive definite" in out

    path.write_text(good, encoding="utf-8")
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert (code, out) == (0, "OK sp4r\n")


def argparse_answer(argv):
    """(namespace as a dict, None) or (None, exit code) of the argparse
    parser alone on argv; what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli_parser.build_parser().parse_args(argv)), None
        except SystemExit as exc:
            return None, exc.code


def test_help_abbreviations_repeats_and_usage_errors_fall_back_to_argparse(capsys):
    for argv in (["--help"], ["krep", "sp4r", "diracmult", "-h"]):
        assert cli.read_canonical(argv) is None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tempered-atlas ")

    # An abbreviation reads as the option it abbreviates.
    assert cli.read_canonical(["classify", "sp4r", "--rad", "2"]) is None
    expected = run_cli(capsys, "classify", "sp4r", "--radius", "2")
    assert expected[0] == 0
    assert run_cli(capsys, "classify", "sp4r", "--rad", "2") == expected

    # A separate value starting with '-' is an option to argparse.
    with pytest.raises(SystemExit) as exc:
        main(["match", "sp4r", "--mu", "-1,2"])
    assert exc.value.code == 2
    assert "--mu: expected one argument" in capsys.readouterr().err

    # A repeated option: the last one wins.
    argv = ["classify", "sp4r", "--radius", "5", "--format=json", "--radius=2"]
    assert cli.read_canonical(argv) is None
    expected = run_cli(capsys, "classify", "sp4r", "--radius=2", "--format=json")
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize("argv, flag", (
    (["classify", "sp4r", "--rad=--"], "--radius"),
    (["krep", "sp4r", "diracmult", "--ta=--", "--v", "2,0"], "--tau"),
    (["figure", "sp4r", "--m-r=--", "--n-range=0:1"], "--m-range"),
    (["classify", "sp4r", "--radius=--", "--format", "csv"], "--radius"),
))
def test_a_double_dash_attached_to_an_option_is_a_usage_error(capsys, argv, flag):
    # argparse before 3.13 drops the -- and leaves the value [], and 3.13
    # reads the value '--'; either is refused by the option's flag, with
    # the usage of the subcommand that owns it.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}: expected one argument" in err
    assert err.startswith(f"usage: tempered-atlas {argv[0]} ")


def test_a_value_read_as_an_option_is_named_on_a_usage_error(capsys):
    # argparse reads -1,1 as an option, so its own message names the
    # argument it then misses; a second line names the value and the cure.
    for argv, usage in (
        (["krep", "sp4r", "weights", "-1,1"], "the following arguments are required: hw"),
        (["match", "sp4r", "--mu", "-1,1"], "argument --mu: expected one argument"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert usage in err
        assert err.endswith(
            "note: -1,1 starts with '-' and reads as an option; put it after -- or write "
            "--opt=-1,1\n"
        )
    # Help, the version and valid argvs print nothing extra.
    for argv in (["krep", "sp4r", "weights", "-h"], ["--version"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().err == ""
    assert run_cli(capsys, "krep", "sp4r", "dim", "--", "0,-1") == (0, "2\n", "")
    assert run_cli(capsys, "match", "sp4r", "--mu=-1/2,-3/2")[2] == ""
    # A usage error with no such value gets argparse's message alone, and
    # so does one beside a negative integer, which argparse reads as a value.
    for argv in (["krep", "sp4r", "weights"], ["classify", "sp4r", "--radius", "-2", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "note:" not in capsys.readouterr().err


# The exit code of each concrete class in tempered_atlas.errors, as README's
# table of exit codes gives it.
EXIT_CODES = {
    "DimensionMismatch": 2,
    "ZeroRoot": 2,
    "UnknownGroup": 2,
    "DescriptorFormatError": 2,
    "DescriptorValidationError": 2,
    "NotDominant": 2,
    "NotStrictlyDominant": 2,
    "NotIntegral": 2,
    "NotGenuine": 2,
    "AmbiguousPositiveSystem": 4,
    "StructuralInvariantError": 3,
    "InternalBijectionFailure": 3,
    "RangeError": 5,
}


def catalog_raising(monkeypatch, exc):
    """Make the catalog command raise exc."""

    def raising(args, out):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "catalog", ("", raising, (), {}, None))


def test_each_error_class_owns_its_exit_code(capsys, monkeypatch):
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.TemperedAtlasError)
        and cls is not errors.TemperedAtlasError
    }
    assert classes.keys() == EXIT_CODES.keys()
    for name, cls in classes.items():
        assert cls.exit_code == EXIT_CODES[name], name
        if cls is errors.DescriptorValidationError:
            exc = cls(ValidationReport((("rule", "detail"),)))
        else:
            exc = cls("refused")
        catalog_raising(monkeypatch, exc)
        # catalog takes no group, so exit 3's context is the version alone.
        if cls.exit_code == 3:
            err = f"internal invariant failure: {exc}\nversion={tempered_atlas.__version__}\n"
        else:
            err = f"error: {exc}\n"
        assert run_cli(capsys, "catalog") == (EXIT_CODES[name], "", err)
    # Any other error the handler takes is bad input.
    for exc in (ValueError("bad"), OSError("unreadable")):
        catalog_raising(monkeypatch, exc)
        assert run_cli(capsys, "catalog") == (2, "", f"error: {exc}\n")


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["tempered-atlas", "krep", "sp4r", "dim", "2,0"])
    assert main() == 0
    assert capsys.readouterr().out == "3\n"


def test_every_golden_op_argv_is_read_without_argparse():
    golden = Path(__file__).resolve().parents[1] / "bench" / "data" / "golden.json"
    ops = json.loads(golden.read_text(encoding="utf-8"))["ops"]
    assert len(ops) > 400
    for key in ops:
        # Keys are argvs joined by spaces, and no golden token holds one.
        argv = key.split(" ")
        ns = cli.read_canonical(argv)
        assert ns is not None, key
        assert vars(ns) == argparse_answer(argv)[0], key


# Canonical argvs, one per command, and tokens that the mutations below put
# into them: misspelt names, abbreviated and exact flags in both forms,
# values starting with '-' or holding a space, bad choices, '--' and help.
# Radii and boxes stay small, so that cli.main runs each argv quickly.
# sp6r, rank 3 and no catalog group, is named by a descriptor file written
# once at import: @given takes no function-scoped fixture such as tmp_path.
_SP6R_DIR = tempfile.mkdtemp(prefix="tempered-atlas-")
atexit.register(shutil.rmtree, _SP6R_DIR, ignore_errors=True)
SP6R_PATH = os.path.join(_SP6R_DIR, "sp6r.group")
Path(SP6R_PATH).write_text(SP6R_TEXT, encoding="utf-8")
CANONICAL = (
    ("catalog",),
    ("validate", "g.group"),
    ("classify", "sp4r", "--radius", "2", "--format", "csv"),
    ("match", "sp4r", "--mu", "2,0", "--direction", "inverse"),
    ("figure", "sp4r", "--m-range", "0:3", "--n-range=0:3", "--format", "text"),
    ("krep", "sp4r", "dim", "1,0"),
    ("krep", "su21", "weights", "1,1"),
    ("krep", "sp4r", "tensor", "1,0", "1,0"),
    ("krep", "sp4r", "diracmult", "--tau", "1/2,1/2", "--v=2,0"),
    ("classify", SP6R_PATH, "--radius", "2"),
    ("match", SP6R_PATH, "--mu", "2,1,-1", "--direction", "inverse"),
    ("krep", SP6R_PATH, "weights", "1,0,0"),
)
TOKENS = (
    "catalog", "validate", "classify", "match", "figure", "krep", "dim", "weights", "tensor",
    "diracmult", "clasify", "Match", "krepp", "dimm", "sp4r", "su21", "2", "1/2,0", "",
    "-1,2", "-1", "1 2", "-3 4", "a=b", "csv", "json", "table", "text", "xml", "forward",
    "inverse", "0:3", "-6:6", "--radius", "--rad", "--format", "--form", "--mu", "--m",
    "--direction", "--dir", "--m-range", "--n-range", "--n", "--tau", "--t", "--v",
    "--radius=", "--mu=-1,2", "--mu=1 2", "--format=xml", "--direction=inverse",
    "--tau=1/2,1/2", "--v=-2,0", "--rad=2", "--m-range=-6:6", "--version", "--", "-",
    "-h", "--help", "--rad=--", "--ta=--", "--m-r=--", "--tau=--", SP6R_PATH,
)


@st.composite
def mutated_argvs(draw):
    argv = list(draw(st.sampled_from(CANONICAL)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(("replace", "insert", "delete", "repeat", "join")))
        i = draw(st.integers(min_value=0, max_value=len(argv)))
        if kind == "insert":
            argv.insert(i, draw(st.sampled_from(TOKENS)))
        elif i == len(argv):
            continue
        elif kind == "replace":
            argv[i] = draw(st.sampled_from(TOKENS))
        elif kind == "delete":
            del argv[i]
        elif kind == "repeat":
            argv[i:i] = argv[i : i + 2]
        elif i + 1 < len(argv):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    return argv


@settings(max_examples=600, deadline=None)
@given(mutated_argvs())
@example(["classify", "sp4r", "--format=json", "--radius", "2"])
@example(["classify", "--radius", "2", "sp4r"])
@example(["krep", "dim", "dim", "1,0"])
@example(["match", "sp4r", "--mu", "1 2"])
@example(["match", "sp4r", "--mu", "2,0", "--mu", "1,0"])
@example(["figure", "sp4r", "--m-range=", "--n-range", ""])
@example(["krep", "sp4r", "diracmult", "--tau", "1", "--v", "2", "--", "x"])
@example(["krep", "sp4r", "diracmult", "--v=2", "--tau=1", "tensor"])
@example(["krep", "sp4r", "dim", "-h"])
@example(["classify", "sp4r", "--radius=--", "--format", "csv"])
def test_reader_agrees_with_argparse_wherever_it_reads(argv):
    ns = cli.read_canonical(argv)
    if argv in map(list, CANONICAL):
        assert ns is not None
    if ns is not None:
        expected, code = argparse_answer(argv)
        assert code is None, argv
        assert vars(ns) == expected, argv


def main_exit_code(argv):
    """The exit code cli.main returns or raises as SystemExit on argv, with
    stdout and stderr dropped; any other exception propagates."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=600, deadline=None)
@given(mutated_argvs())
@example(["classify", "sp4r", "--rad=--"])
@example(["krep", "sp4r", "diracmult", "--ta=--", "--v", "2,0"])
@example(["figure", "sp4r", "--m-r=--", "--n-range=0:1"])
@example(["krep", "sp4r", "diracmult", "--tau=--", "--v=2,0"])
def test_no_argv_crashes_main(argv):
    # Every argv succeeds or is refused with a documented code: exit 3 is
    # the package's own fault, and any other exception a crash.
    assert main_exit_code(argv) in (0, 2, 4, 5), argv
