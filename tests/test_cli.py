"""Command line behaviour, exercised in-process through main(argv)."""

import csv
import io
import json
import tracemalloc

import pytest

from conftest import DATA, load
from mforce import (
    BitMatrix,
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


# The construct outputs of the per-pattern builders that split_witness
# replaced, keyed by the arguments after "construct": s-n and t-n at
# n = 3..12, s-nk for 2 <= k <= n <= 12, block for n1, n2 <= 6.
PINNED_CONSTRUCTS = json.loads(load("construct_outputs.json"))


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

    @pytest.mark.parametrize("spec, message", [
        ("perm:11", "permutation word '11' is not a permutation of 1..2"),
        ("perm:2,1,3,3", "permutation word '2,1,3,3' is not a permutation of 1..4"),
        ("perm:+2,1", "malformed permutation word '+2,1'"),
        ("perm:\u0662\u0661", "malformed permutation word '\u0662\u0661'"),
    ])
    def test_a_bad_perm_word_reports_its_own_fault(self, capsys, spec, message):
        code, out, err = run_cli(capsys, "search", "--n", "4", "--pattern", spec)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_an_oversized_family_name_reports_the_side_limit(self, capsys):
        # i65537 is refused before its 65537 x 65537 matrix is built, with
        # the side limit as the reason rather than "not a name or a file".
        code, out, err = run_cli(capsys, "search", "--n", "4", "--pattern", "i65537")
        assert (code, out) == (2, "")
        assert "65536" in err

    def test_a_file_named_like_a_perm_word_is_read(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "perm:11").write_text("2 2\n01\n10\n")
        assert load_pattern("perm:11") == parse("01\n10\n")


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

    def test_only_a_window_popcount_count_refuses_an_oversized_side(self, capsys):
        # The core formula needs no matrix; at n = 2 it does not apply to
        # I_2, and the window popcount would build 100000 rows.
        code, out, _ = run_cli(capsys, "min", "--m", "100000", "--n", "100000", "--pattern", "i2")
        assert (code, out) == (0, "count 9999999998\nmethod core-formula\n")
        code, out, err = run_cli(capsys, "min", "--m", "100000", "--n", "2", "--pattern", "i2")
        assert (code, out) == (2, "")
        assert "65536" in err


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

    def test_witness_with_forcing_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "check", "forcing",
                                 "--ambient", str(DATA / "s5.txt"),
                                 "--pattern", "i3", "--witness")
        assert code == 2
        assert out == ""
        assert "--witness" in err

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

    @pytest.mark.parametrize("ambient, pattern, want", [("s5.txt", "i3", 0), ("t5.txt", "c3", 1)])
    def test_witnesses_alone_give_the_verdict(self, capsys, monkeypatch, ambient, pattern, want):
        def unused(*args):
            raise AssertionError("the per-entry witnesses already decide the verdict")

        monkeypatch.setattr("mforce.cli.is_strongly_forcing", unused)
        code, out, _ = run_cli(capsys, "check", "strong", "--ambient", str(DATA / ambient),
                               "--pattern", pattern, "--witness")
        assert code == want
        lines = out.splitlines()
        assert lines[0] == ("yes" if want == 0 else "no")
        assert any(line.endswith(" uncovered") for line in lines[1:]) == (want == 1)

    def test_witness_on_an_all_zero_ambient_still_checks_the_fit(self, capsys, tmp_path):
        ambient = tmp_path / "a.txt"
        ambient.write_text(serialize(make(2, 2, 0)))
        code, out, err = run_cli(capsys, "check", "strong", "--ambient", str(ambient),
                                 "--pattern", "i3", "--witness")
        assert code == 2
        assert out == ""
        assert "does not fit" in err

    def test_ambient_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(load("s5.txt")))
        code, out, _ = run_cli(capsys, "check", "strong",
                               "--ambient", "-", "--pattern", "i3")
        assert code == 0
        assert out == "yes\n"

    def test_ambient_and_pattern_both_from_stdin_exits_2(self, capsys, monkeypatch):
        stdin = io.StringIO(load("s5.txt"))
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, "check", "strong",
                                 "--ambient", "-", "--pattern", "-")
        assert (code, out) == (2, "")
        assert "--ambient" in err and "--pattern" in err
        assert stdin.read() == load("s5.txt")  # refused before reading

    @pytest.mark.parametrize("header", ["² 2", "２ ２", "2 \u00a02", "2\t2", "2\u20032"],
                             ids=["superscript", "fullwidth", "no-break-space", "tab", "em-space"])
    def test_header_with_non_ascii_digits_exits_2(self, capsys, monkeypatch, header):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{header}\n11\n11\n"))
        code, out, err = run_cli(capsys, "check", "strong",
                                 "--ambient", "-", "--pattern", "i1")
        assert (code, out) == (2, "")
        assert "malformed header line" in err

    def test_empty_first_row_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n11\n"))
        code, out, err = run_cli(capsys, "check", "strong",
                                 "--ambient", "-", "--pattern", "i2")
        assert (code, out) == (2, "")
        assert "row 1 is empty" in err and "invalid literal" not in err


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
        assert out == PINNED_CONSTRUCTS["s-nk --n 7 --k 4"]

    def test_every_pinned_construction_is_byte_identical(self, capsys):
        assert len(PINNED_CONSTRUCTS) == 527
        for args, want in PINNED_CONSTRUCTS.items():
            code, out, _ = run_cli(capsys, "construct", *args.split())
            assert (args, code, out) == (args, 0, want)

    def test_a_mnq(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "a-mnq", "--m", "14", "--n", "12",
                               "--pattern", str(DATA / "example_pattern_7x6.txt"))
        assert code == 0
        assert out == load("example_minimal_14x12.txt")

    def test_a_mnq_below_corner_assembly_matches_min(self, capsys):
        # 5x5 is below the 2s x 2t corner assembly for a 3x3 pattern.
        code, out, _ = run_cli(capsys, "construct", "a-mnq", "--m", "5", "--n", "5",
                               "--pattern", "i3")
        assert code == 0
        code, want, _ = run_cli(capsys, "min", "--m", "5", "--n", "5", "--pattern", "i3",
                                "--emit", "matrix")
        assert code == 0
        assert out == want

    def test_linear_zero(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "linear-zero",
                               "--m", "10", "--n", "10", "--pattern", "i2")
        assert code == 0
        assert 10 * 10 - parse(out).ones_count() == 18

    def test_2x2_variants(self, capsys):
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
        assert out == PINNED_CONSTRUCTS["block --n1 3 --k1 1 --n2 4 --k2 2"]

    def test_an_oversized_block_sum_is_refused_before_anything_is_built(self, capsys):
        # Each part is within the side limit; their 65600-side sum is not.
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "construct", "block",
                                     "--n1", "65000", "--k1", "1", "--n2", "600", "--k2", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "65536" in err
        assert peak < 1 << 20

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

    def test_cache_file_that_is_not_an_object_exits_2(self, capsys, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text("[]\n")
        code, out, err = run_cli(capsys, "search", "--n", "4", "--pattern", "i3",
                                 "--cache", str(cache))
        assert code == 2
        assert out == "" and "error:" in err
        assert cache.read_text() == "[]\n"

    def test_cache_in_a_missing_directory_exits_2_before_searching(self, capsys, tmp_path,
                                                                   monkeypatch):
        searched = []
        monkeypatch.setattr("mforce.cli.search_max", lambda *args: searched.append(args))
        code, out, err = run_cli(capsys, "search", "--n", "5", "--pattern", "i3",
                                 "--cache", str(tmp_path / "missing" / "cache.json"))
        assert (code, out, searched) == (2, "", [])
        assert "error:" in err

    def test_budget_status_passes_through(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n", "5", "--pattern", "i3",
                               "--node-budget", "1")
        assert code == 0
        assert json.loads(out)["status"] == "budget_exhausted"

    @pytest.mark.parametrize("flag, value", [("--node-budget", "-5")])
    def test_bad_budget_exits_2(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "search", "--n", "5", "--pattern", "i3", flag, value)
        assert (code, out) == (2, "")
        assert "budget" in err

    def test_time_budget_is_an_unknown_option(self, capsys):
        # Searches stop by node count alone, so a cut is the same on every run.
        with pytest.raises(SystemExit) as exc:
            main(["search", "--n", "5", "--pattern", "i3", "--time-budget", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --time-budget 1" in capsys.readouterr().err

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
        # csv.reader accepts any line terminator, so the raw text pins \r\n.
        lines = out.splitlines(keepends=True)
        assert lines[0] == "theorem_id,instance,expected,actual,status,millis\r\n"
        assert all(line.endswith("\r\n") for line in lines)
        rows = list(csv.reader(io.StringIO(out)))
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

    def test_conjecture_suite_may_leave_rows_open(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "conjecture",
                               "--n-max", "7", "--k-max", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        statuses = {row[4] for row in rows}
        assert "fail" not in statuses
        assert "open" in statuses

    def test_all_concatenates_every_suite_in_name_order(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all",
                               "--n-max", "4", "--k-max", "3")
        assert code == 0
        got = [row[:5] for row in list(csv.reader(io.StringIO(out)))[1:]]
        # The pinned default report holds every suite's rows, less millis,
        # with the suites in name order; the lower limits keep 54 of them,
        # in the same order.
        with open(DATA / "verify_all_default.csv", newline="") as pinned:
            kept = [row for row in list(csv.reader(pinned))[1:] if row in got]
        assert got == kept
        assert len(got) == 54

    def test_oracle_sweeps_respect_n_max(self):
        rows_3x3 = run_suite("3x3", n_max=3)
        assert not any(row.theorem_id == "max-strong-3x3-sweep" for row in rows_3x3)
        swept = [row.instance for row in run_suite("2x2", n_max=3)
                 if row.theorem_id == "max-strong-2x2-sweep"]
        assert swept == ["n=2,pattern=i2", "n=3,pattern=i2"]

    def test_suite_table_holds_exactly_the_seven_suites(self):
        assert set(SUITES) == {"lemma21", "formulas", "perm-bounds", "2x2",
                               "3x3", "dihedral", "conjecture"}

    def test_a_suite_without_claims_exits_2(self, capsys):
        # lemma21 checks only m, n >= 4.
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma21", "--n-max", "3")
        assert code == 2
        assert out == ""
        assert "suite 'lemma21' yields no claim at n_max=3" in err

    def test_a_capped_oracle_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr("mforce.oracle.DEFAULT_PLACEMENT_CAP", 1)
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma21", "--n-max", "4")
        assert code == 2
        assert out == ""
        assert "16 subset placements exceed the cap of 1" in err

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
