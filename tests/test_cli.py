"""Command line behaviour, exercised in-process through main(argv)."""

import csv
import io
import json

import pytest

from conftest import DATA, load
from mforce import (
    BitMatrix,
    direct_sum,
    extremal_identity_witness,
    make,
    parse,
    serialize,
)
from mforce.cli import load_pattern, main
from mforce.verification import SUITES, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPatternResolution:
    def test_builtin_name_wins(self):
        assert load_pattern("i3") == parse("100\n010\n001\n")

    def test_file_path(self):
        got = load_pattern(str(DATA / "q2.txt"))
        assert got == parse("10\n00\n")

    def test_stdin_dash(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2 2\n10\n01\n"))
        assert load_pattern("-") == parse("10\n01\n")

    def test_unknown_spec_is_a_cli_error(self, capsys):
        code, _, err = run_cli(capsys, "min", "--m", "4", "--n", "4",
                               "--pattern", "no-such-thing")
        assert code == 2
        assert "error:" in err


class TestMin:
    def test_count_output(self, capsys):
        code, out, _ = run_cli(capsys, "min", "--m", "8", "--n", "8", "--pattern", "i2")
        assert code == 0
        assert out.splitlines() == ["count 62", "method core-formula"]

    def test_count_from_pattern_file(self, capsys):
        code, out, _ = run_cli(capsys, "min", "--m", "7", "--n", "6",
                               "--pattern", str(DATA / "q2.txt"))
        assert code == 0
        assert out.splitlines()[0] == "count 30"

    def test_matrix_output_parses_back(self, capsys):
        code, out, _ = run_cli(capsys, "min", "--m", "4", "--n", "4",
                               "--pattern", "i2", "--emit", "matrix")
        assert code == 0
        got = parse(out)
        assert got.ones_count() == 14

    def test_both_with_explain(self, capsys):
        code, out, _ = run_cli(capsys, "min", "--m", "4", "--n", "4",
                               "--pattern", "i2", "--emit", "both", "--explain")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "count 14"
        assert "corners nw=0 sw=1 ne=1 se=0" in lines
        assert "core top=0 bottom=0 left=0 right=0" in lines

    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "min", "--m", "14", "--n", "12",
                               "--pattern", str(DATA / "example_pattern_7x6.txt"),
                               "--format", "json", "--explain")
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "min"
        assert report["passed"] is True
        assert report["outputs"]["count"] == 147
        assert report["outputs"]["corners"]["sw"] == [[7, 1], [7, 2], [7, 3], [7, 4]]
        assert isinstance(report["timing_ms"], int)

    def test_pattern_too_large_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "min", "--m", "2", "--n", "2", "--pattern", "i3")
        assert code == 2
        assert "error:" in err


class TestCheck:
    def test_forcing_yes(self, capsys, tmp_path):
        ambient = tmp_path / "a.txt"
        ambient.write_text(load("example_minimal_14x12.txt"))
        code, out, _ = run_cli(capsys, "check", "forcing",
                               "--ambient", str(ambient),
                               "--pattern", str(DATA / "example_pattern_7x6.txt"))
        assert code == 0
        assert out == "yes\n"

    def test_forcing_no_after_weakening(self, capsys, tmp_path):
        weakened = parse(load("example_minimal_14x12.txt"))
        bits = list(weakened.bits)
        bits[0] &= ~(1 << 2)
        ambient = tmp_path / "a.txt"
        ambient.write_text(serialize(BitMatrix(14, 12, tuple(bits))))
        code, out, _ = run_cli(capsys, "check", "forcing",
                               "--ambient", str(ambient),
                               "--pattern", str(DATA / "example_pattern_7x6.txt"))
        assert code == 1
        assert out == "no\n"

    def test_strong_yes_with_witnesses(self, capsys):
        code, out, _ = run_cli(capsys, "check", "strong",
                               "--ambient", str(DATA / "s5.txt"),
                               "--pattern", "i3", "--witness")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "yes"
        assert len(lines) == 1 + 13
        assert lines[1].startswith("(1,1) rows [")

    def test_strong_no(self, capsys):
        code, out, _ = run_cli(capsys, "check", "strong",
                               "--ambient", str(DATA / "t5.txt"), "--pattern", "c3")
        assert code == 1
        assert out == "no\n"

    def test_strong_json_reports_uncovered_entries(self, capsys, tmp_path):
        ambient = tmp_path / "a.txt"
        ambient.write_text(serialize(make(3, 3, 1)))
        code, out, _ = run_cli(capsys, "check", "strong",
                               "--ambient", str(ambient),
                               "--pattern", "i2", "--witness", "--format", "json")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] is False
        assert all(item["witness"] is None
                   for item in report["outputs"]["witnesses"])

    def test_ambient_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(load("s5.txt")))
        code, out, _ = run_cli(capsys, "check", "strong",
                               "--ambient", "-", "--pattern", "i3")
        assert code == 0
        assert out == "yes\n"


class TestConstruct:
    def test_s_n_matches_fixture(self, capsys, tmp_path):
        target = tmp_path / "s5.txt"
        code, out, _ = run_cli(capsys, "construct", "s-n", "--n", "5",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == load("s5.txt")

    def test_t_n_matches_fixture(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "t-n", "--n", "5")
        assert code == 0
        assert out == load("t5.txt")

    def test_s_nk(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "s-nk", "--n", "7", "--k", "4")
        assert code == 0
        assert parse(out) == extremal_identity_witness(7, 4)

    def test_a_mnq(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "a-mnq", "--m", "14", "--n", "12",
                               "--pattern", str(DATA / "example_pattern_7x6.txt"))
        assert code == 0
        assert out == load("example_minimal_14x12.txt")

    def test_linear_zero(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "linear-zero",
                               "--m", "10", "--n", "10", "--pattern", "i2")
        assert code == 0
        assert parse(out).zeros_count() == 18

    def test_extremal_2x2_variants(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "extremal-2x2", "--n", "4")
        assert code == 0
        assert parse(out) == parse("1110\n1101\n1011\n0111\n")
        code, out, _ = run_cli(capsys, "construct", "extremal-2x2", "--n", "4",
                               "--variant", "h2")
        assert code == 0
        assert parse(out) == parse("0111\n1011\n1101\n1110\n")

    def test_block(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "block",
                               "--n1", "3", "--k1", "1", "--n2", "4", "--k2", "2")
        assert code == 0
        want = direct_sum(make(3, 3, 1), extremal_identity_witness(4, 2))
        assert parse(out) == want

    def test_missing_argument_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "construct", "s-nk", "--n", "7")
        assert code == 2
        assert "requires --k" in err

    def test_output_is_deterministic(self, capsys):
        first = run_cli(capsys, "construct", "s-nk", "--n", "9", "--k", "4")
        second = run_cli(capsys, "construct", "s-nk", "--n", "9", "--k", "4")
        assert first == second


class TestSearch:
    def test_json_outcome(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "4", "--pattern", "i2")
        assert code == 0
        data = json.loads(out)
        assert data["status"] == "exact"
        assert data["best_ones"] == 12
        assert len(data["witnesses"]) == 1

    def test_all_extremal_level_set(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "4", "--pattern", "i3",
                               "--all-extremal")
        assert code == 0
        data = json.loads(out)
        assert data["best_ones"] == 7
        assert data["witnesses"] == sorted(data["witnesses"])
        assert len(data["witnesses"]) >= 2

    def test_cache_file_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        code, first_out, _ = run_cli(capsys, "search", "--n", "4", "--pattern", "i3",
                                     "--cache", str(cache))
        assert code == 0
        assert cache.exists()
        stored = json.loads(cache.read_text())
        assert list(stored) == ["4:100/010/001"]

        code, second_out, _ = run_cli(capsys, "search", "--n", "4", "--pattern", "i3",
                                      "--cache", str(cache))
        assert code == 0
        first, second = json.loads(first_out), json.loads(second_out)
        assert first["nodes_explored"] == second["nodes_explored"]
        assert first["witnesses"] == second["witnesses"]

    def test_budget_status_passes_through(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "5", "--pattern", "i3",
                               "--node-budget", "1")
        assert code == 0
        assert json.loads(out)["status"] == "budget_exhausted"

    def test_dihedral_reduction_flag(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "4", "--pattern", "h3",
                               "--dihedral-reduction", "--all-extremal")
        assert code == 0
        plain_code, plain_out, _ = run_cli(capsys, "search", "--n", "4",
                                           "--pattern", "h3", "--all-extremal")
        assert plain_code == 0
        assert json.loads(out)["witnesses"] == json.loads(plain_out)["witnesses"]


class TestVerify:
    def test_csv_schema_and_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "perm-bounds",
                               "--k-max", "4")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theorem_id", "instance", "expected", "actual",
                           "status", "millis"]
        assert len(rows) > 1
        assert all(row[4] == "pass" for row in rows[1:])
        assert all(row[5].isdigit() for row in rows[1:])

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "dihedral",
                               "--n-max", "4", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["outputs"]["failed"] == 0
        assert report["outputs"]["total"] == len(report["outputs"]["rows"])

    @pytest.mark.slow
    def test_conjecture_suite_may_leave_rows_open(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "conjecture",
                               "--n-max", "7", "--k-max", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        statuses = {row[4] for row in rows}
        assert "fail" not in statuses
        assert "open" in statuses

    @pytest.mark.slow
    def test_all_concatenates_every_suite_in_name_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                               "--n-max", "4", "--k-max", "3")
        assert code == 0
        got = [row[:5] for row in list(csv.reader(io.StringIO(out)))[1:]]
        want = []
        for name in sorted(SUITES):
            rows = [[row.theorem_id, row.instance, row.expected, row.actual, row.status]
                    for row in run_suite(name, n_max=4, k_max=3)]
            assert rows, f"suite {name} contributed no rows"
            want += rows
        assert got == want

    def test_oracle_sweeps_respect_n_max(self):
        rows_3x3 = run_suite("3x3", n_max=3)
        assert not any(row.theorem_id == "max-strong-3x3-sweep" for row in rows_3x3)
        swept = [row.instance for row in run_suite("2x2", n_max=3)
                 if row.theorem_id == "max-strong-2x2-sweep"]
        assert swept == ["n=2,pattern=i2", "n=3,pattern=i2"]

    def test_suite_table_holds_exactly_the_seven_suites(self):
        assert set(SUITES) == {"lemma21", "formulas", "perm-bounds", "2x2",
                               "3x3", "dihedral", "conjecture"}

    def test_unknown_suite_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("mforce ")

    def test_missing_subcommand_is_an_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        capsys.readouterr()
