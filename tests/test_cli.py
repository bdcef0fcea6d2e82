import csv
import io
import json

from tempered_atlas.cli import main
from tempered_atlas.groups import catalog, serialize_descriptor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog_lists_groups(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for name in ("sl2c", "sl2r", "sp4r", "su21"):
        assert name in out


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


def test_classify_unknown_group_exits_2(capsys):
    code, _, err = run_cli(capsys, "classify", "nosuch", "--radius", "1")
    assert code == 2
    assert "nosuch" in err


def test_classify_rejects_float_radius(capsys):
    code, _, err = run_cli(capsys, "classify", "sl2r", "--radius", "2.5")
    assert code == 2
    assert "rational" in err


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


def test_krep_rejects_bad_weight(capsys):
    code, _, err = run_cli(capsys, "krep", "sp4r", "dim", "0.5,1")
    assert code == 2
    assert "rational" in err


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


def test_descriptor_search_path(tmp_path, capsys, monkeypatch):
    (tmp_path / "myform.group").write_text(
        serialize_descriptor(catalog("sl2r")), encoding="utf-8"
    )
    monkeypatch.setenv("TEMPERED_ATLAS_PATH", str(tmp_path))
    code, out, _ = run_cli(capsys, "classify", "myform", "--radius", "1", "--format", "csv")
    assert code == 0
    assert "(0),1,2" in out


def test_group_by_direct_path(tmp_path, capsys):
    path = tmp_path / "direct.group"
    path.write_text(serialize_descriptor(catalog("sl2r")), encoding="utf-8")
    code, out, _ = run_cli(capsys, "match", str(path), "--mu", "0", "--direction", "forward")
    assert code == 0
    assert "(1) (-1)" in out
