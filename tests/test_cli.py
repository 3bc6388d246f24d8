"""Command line coverage: every verb, both formats, exit codes."""

import csv
import io
import json

import pytest

from setfam import binom, lex_segment, t_star_union
from setfam.cli import BUDGET_ENV, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_lex_matches_library(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--construction", "lex", "--n", "6", "--k", "3", "--s", "11")
    assert code == 0
    assert out == lex_segment(6, 3, 11).to_text()
    # --out writes the identical bytes to a file
    path = tmp_path / "fam.txt"
    code, out2, _ = run(
        capsys, "gen", "--construction", "lex", "--n", "6", "--k", "3", "--s", "11",
        "--out", str(path),
    )
    assert code == 0
    assert path.read_text() == out


def test_gen_other_constructions(capsys):
    code, out, _ = run(
        capsys, "gen", "--construction", "ellball", "--n", "6", "--k", "3", "--r", "2", "--ell", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "n=6 k=3"
    code, out, _ = run(
        capsys, "gen", "--construction", "tstars", "--n", "7", "--k", "3",
        "--centers", "1,2;1,3",
    )
    assert code == 0
    assert out == t_star_union(7, 3, [(1, 2), (1, 3)]).to_text()


def test_gen_missing_flag_exits_1(capsys):
    code, _, err = run(capsys, "gen", "--construction", "lex", "--n", "6", "--k", "3")
    assert code == 1
    assert "--s" in err


def test_count_roundtrip(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(lex_segment(6, 3, 11).to_text())
    code, out, _ = run(capsys, "count", "--stat", "disj", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == "1"
    assert obj["statistic"] == "disjoint_pairs"
    assert obj["n"] == 6 and obj["s"] == 11


def test_count_variants(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text(lex_segment(6, 2, 9).to_text())
    code, out, _ = run(capsys, "count", "--stat", "qmatch", "--q", "3", "--in", str(path))
    assert code == 0
    assert json.loads(out)["q"] == 3
    path.write_text(lex_segment(6, 3, 9).to_text())
    code, out, _ = run(capsys, "count", "--stat", "tdisj", "--t", "2", "--in", str(path))
    assert code == 0
    assert json.loads(out)["t"] == 2


def test_count_bad_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=6 k=3\n1,2\n")
    code, _, err = run(capsys, "count", "--stat", "disj", "--in", str(path))
    assert code == 1
    assert "error" in err
    code, _, err = run(capsys, "count", "--stat", "disj", "--in", str(tmp_path / "nope.txt"))
    assert code == 1


def test_formula_json(capsys):
    code, out, _ = run(capsys, "formula", "--n", "6", "--k", "3", "--s", "11", "--all")
    assert code == 0
    obj = json.loads(out)
    assert obj["params"]["n"] == 6 and obj["params"]["s"] == 11
    assert obj["thresholds"]["r"] == 2
    assert obj["thresholds"]["alpha"] == "1/10"
    names = [b["name"] for b in obj["bounds"]]
    assert "lex_formula" in names and "spectral_kneser" in names
    lex = next(b for b in obj["bounds"] if b["name"] == "lex_formula")
    assert lex["value"] == "1"
    # without --all only the exact closed form is reported
    code, out, _ = run(capsys, "formula", "--n", "6", "--k", "3", "--s", "11")
    obj = json.loads(out)
    assert [b["name"] for b in obj["bounds"]] == ["lex_formula"]


def test_formula_csv(capsys):
    code, out, _ = run(
        capsys, "formula", "--n", "6", "--k", "3", "--s", "11", "--all", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    header, row = rows
    assert header[:3] == ["n", "k", "s"]
    assert row[header.index("lex_formula")] == "1"


def test_certify_json_and_budget(capsys):
    code, out, _ = run(
        capsys, "certify", "--n", "5", "--k", "2", "--s", "5", "--stat", "disj"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["minimum"] == "2"
    assert obj["complete"] is True
    assert obj["lex_optimal"] is True
    assert len(obj["witness"]) == 5
    # starve the search: partial output still emitted, exit signals it
    code, out, _ = run(
        capsys, "certify", "--n", "7", "--k", "3", "--s", "17", "--stat", "disj",
        "--budget", "100",
    )
    assert code == 2
    obj = json.loads(out)
    assert obj["complete"] is False


def test_certify_budget_env(capsys, monkeypatch):
    monkeypatch.setenv(BUDGET_ENV, "100")
    code, out, _ = run(
        capsys, "certify", "--n", "7", "--k", "3", "--s", "17", "--stat", "disj"
    )
    assert code == 2
    # an explicit flag wins over the environment: this instance needs about
    # 2*10^5 nodes with pruning, far beyond the env's 100
    code, out, _ = run(
        capsys, "certify", "--n", "6", "--k", "3", "--s", "11", "--stat", "disj",
        "--budget", str(10**7),
    )
    assert code == 0
    assert json.loads(out)["complete"] is True
    monkeypatch.setenv(BUDGET_ENV, "not-a-number")
    code, _, err = run(capsys, "certify", "--n", "5", "--k", "2", "--s", "5", "--stat", "disj")
    assert code == 1
    assert BUDGET_ENV in err


def test_certify_large_ground_set(capsys):
    # C(24,4) = 10626 candidate sets, so building the search's adjacency rows
    # is nearly all of this run.  The lex segment lies inside the star of
    # {1,2} and has no 2-disjoint pair, so the bound closes the search at once.
    code, out, _ = run(
        capsys, "certify", "--n", "24", "--k", "4", "--s", "40", "--stat", "tdisj",
        "--t", "2", "--budget", "10",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["minimum"] == "0"
    assert obj["complete"] is True


def test_certify_local_search_exit_0(capsys):
    # heuristic mode never certifies, so incompleteness is not an error
    code, out, _ = run(
        capsys, "certify", "--n", "7", "--k", "3", "--s", "12", "--stat", "disj",
        "--mode", "local_search",
    )
    assert code == 0
    assert json.loads(out)["complete"] is False


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--n", "6", "--k", "3", "--stat", "disj",
        "--s-min", "0", "--s-max", "20", "--certify",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["s"]) for r in rows] == list(range(21))
    for r in rows:
        assert r["n"] == "6" and r["k"] == "3"
        assert r["lex_formula"] != ""
        assert r["minimum"] != ""
        assert r["complete"] == "true"
    # bounds needing r >= 1 stay empty at s = 0 rather than faking zeros
    assert rows[0]["upper_eq1"] == ""
    assert rows[0]["alpha"] == "0/1"
    assert rows[11]["lex_formula"] == "1"
    assert rows[11]["minimum"] == "1"


def test_sweep_without_certify_skips_search_columns(capsys):
    code, out, _ = run(
        capsys, "sweep", "--n", "6", "--k", "2", "--stat", "disj", "--s-max", "6"
    )
    assert code == 0
    reader = csv.DictReader(io.StringIO(out))
    assert "minimum" not in reader.fieldnames
    assert len(list(reader)) == 7


def test_sweep_budget_exhaustion_exit_2(capsys):
    code, out, _ = run(
        capsys, "sweep", "--n", "7", "--k", "3", "--stat", "disj",
        "--s-min", "17", "--s-max", "17", "--certify", "--budget", "100",
    )
    assert code == 2
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["complete"] == "false"


def test_kneser_modes(capsys, tmp_path):
    code, out, _ = run(capsys, "kneser", "--n", "5", "--k", "2", "--spectrum")
    assert code == 0
    obj = json.loads(out)
    assert obj["pairs"][0] == {"eigenvalue": "3", "multiplicity": "1"}
    code, out, _ = run(capsys, "kneser", "--n", "5", "--k", "2", "--bound", "--s", "5")
    assert code == 0
    assert json.loads(out)["spectral_lower_bound"] == "5/4"
    path = tmp_path / "edges.txt"
    code, out, _ = run(capsys, "kneser", "--n", "5", "--k", "2", "--export", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 15 and lines[0] == "0 7"
    # bound without --s is a usage error
    code, _, _ = run(capsys, "kneser", "--n", "5", "--k", "2", "--bound")
    assert code == 1


def test_verify_lemmas_cli(capsys):
    code, out, _ = run(
        capsys, "verify-lemmas", "--lemma", "4.2", "--n", "7", "--k", "3", "--t", "2", "--r", "2"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["lemma"] == "4.2"
    assert obj["ok"] is True
    assert obj["min_union_size"] == str(binom(6, 2) - binom(4, 2))
    code, out, _ = run(
        capsys, "verify-lemmas", "--lemma", "4.3", "--n", "6", "--k", "3", "--t", "2", "--r", "2"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_bad_verb_and_ranges(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys)[0] == 1
    code, _, err = run(capsys, "gen", "--construction", "lex", "--n", "3", "--k", "5", "--s", "1")
    assert code == 1
    assert "error" in err
    code, _, err = run(
        capsys, "certify", "--n", "6", "--k", "3", "--s", "99", "--stat", "disj"
    )
    assert code == 1


def test_stdin_family(capsys, monkeypatch):
    text = lex_segment(5, 2, 4).to_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "count", "--stat", "disj")
    assert code == 0
    assert json.loads(out)["value"] == "0"
