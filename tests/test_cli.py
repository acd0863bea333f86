"""Command-line interface: subcommands, exit codes, JSON reports."""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

from apw import fixed_point_prefix
from apw.cli import main
from conftest import DATA_DIR, H_PREFIX_84

H_MOR = str(DATA_DIR / "h.mor")
SRC_DIR = DATA_DIR.parent / "src"


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code = main(argv + ["--json"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert isinstance(report.pop("timing_ms"), (int, float))
    return code, report, err


class TestCheckWord:
    def test_clean_word(self, capsys):
        code, out, _ = run(["check-word", "--k", "3", "abcab"], capsys)
        assert code == 0
        assert out == "yes: a 3-anti-power word\n"

    def test_violation(self, capsys):
        code, out, _ = run(["check-word", "--k", "3", "abcac"], capsys)
        assert code == 1
        assert out == (
            "no: level 3 window at 3 with block length 1 repeats block 1 as block 3\n"
        )

    def test_violation_json(self, capsys):
        code, report, _ = run_json(["check-word", "--k", "3", "abcac"], capsys)
        assert code == 1
        assert report == {
            "command": "check-word",
            "inputs": {"k": 3, "naive": False, "word": "abcac", "word_length": 5},
            "verdict": False,
            "witness": {
                "type": "anti-power-violation",
                "window_start": 3,
                "block_len": 1,
                "first_block": 1,
                "second_block": 3,
                "level": 3,
            },
        }

    def test_empty_word(self, capsys):
        code, _, _ = run(["check-word", "--k", "3", ""], capsys)
        assert code == 0

    def test_naive_flag_agrees(self, capsys):
        for flag in ([], ["--naive"]):
            code, out, _ = run(["check-word", "--k", "4", "abababab"] + flag, capsys)
            assert code == 1

    def test_illegal_letter(self, capsys):
        code, _, err = run(["check-word", "--k", "3", "ab cd"], capsys)
        assert code == 3
        assert "position 3" in err

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("abcab\n"))
        code, out, _ = run(["check-word", "--k", "3", "--stdin"], capsys)
        assert code == 0

    def test_stdin_strips_single_newline_only(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("abcab\n\n"))
        code, _, err = run(["check-word", "--k", "3", "--stdin"], capsys)
        assert code == 3
        assert "position 6" in err

    def test_long_word_not_echoed_in_json(self, capsys):
        word = "ab" * 150
        code, report, _ = run_json(["check-word", "--k", "2", word], capsys)
        assert code == 1
        assert "word" not in report["inputs"]
        assert report["inputs"]["word_length"] == 300


class TestCheckMorphism:
    def test_h_is_a_three_anti_power_morphism(self, capsys):
        code, out, _ = run(["check-morphism", "--k", "3", H_MOR], capsys)
        assert code == 0
        assert out == "yes: a 3-anti-power morphism\n"

    def test_h_json_certificate(self, capsys):
        code, report, _ = run_json(["check-morphism", "--k", "3", H_MOR], capsys)
        assert code == 0
        assert report["verdict"] == "yes"
        assert report["certificate"] == {
            "method": "finite-criterion-uniform-square-free",
            "uniform_length": 7,
            "parity": "odd",
            "square_free": True,
            "square_free_words_checked": 105,
            "anti_power_words_checked": 806,
            "checked_up_to": 5,
        }
        assert report["witness"] is None

    def test_square_free_mode(self, capsys):
        code, out, _ = run(["check-morphism", "--k", "2", H_MOR], capsys)
        assert code == 0
        assert out == "yes: a square-free morphism\n"

    def test_square_free_counterexample(self, capsys, tmp_path):
        path = tmp_path / "f.mor"
        path.write_text("a -> aba\nb -> bab\n", encoding="utf-8")
        code, report, _ = run_json(["check-morphism", "--k", "2", str(path)], capsys)
        assert code == 1
        assert report["verdict"] == "no"
        assert report["witness"]["word"] == "ab"
        assert report["witness"]["square"]["period"] == 2

    def test_no_verdict_exit_code(self, capsys, tmp_path):
        path = tmp_path / "f.mor"
        path.write_text("a -> ab\nb -> ba\n", encoding="utf-8")
        code, out, _ = run(["check-morphism", "--k", "3", str(path)], capsys)
        assert code == 1
        assert out.startswith("no: word 'ab' fails")

    def test_inconclusive_exit_code(self, capsys, tmp_path):
        path = tmp_path / "f.mor"
        path.write_text("a -> a\nb -> b\nc -> cde\n", encoding="utf-8")
        code, report, _ = run_json(["check-morphism", "--k", "3", str(path)], capsys)
        assert code == 2
        assert report["verdict"] == "inconclusive"
        assert report["reason"] == "non-uniform"

    def test_k_four_counterexample(self, capsys):
        # h's own images already fail at k = 4, so the bounded scan settles it
        code, report, _ = run_json(["check-morphism", "--k", "4", H_MOR], capsys)
        assert code == 1
        assert report["verdict"] == "no"
        assert report["witness"]["word"] == "a"

    def test_k_four_no_decision(self, capsys, tmp_path):
        path = tmp_path / "id.mor"
        path.write_text("a -> a\nb -> b\nc -> c\n", encoding="utf-8")
        code, report, _ = run_json(["check-morphism", "--k", "4", str(path)], capsys)
        assert code == 2
        assert report["reason"] == "no-decision-procedure"

    def test_evidence_validation(self, capsys):
        code, _, err = run(["check-morphism", "--k", "3", H_MOR, "--evidence", "4"], capsys)
        assert code == 3
        assert "at least 5" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["check-morphism", "--k", "3", "/nonexistent.mor"], capsys)
        assert code == 3
        assert "No such file" in err

    def test_parse_error_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.mor"
        path.write_text("a => b\n", encoding="utf-8")
        code, _, err = run(["check-morphism", "--k", "3", str(path)], capsys)
        assert code == 3
        assert "line 1" in err and "malformed" in err


class TestProfile:
    def test_human_line(self, capsys):
        code, out, _ = run(["profile", H_MOR], capsys)
        assert code == 0
        assert out == (
            "uniform_length=7 non_erasing=yes prefix=yes suffix=yes bifix=yes ps=yes\n"
        )

    def test_json(self, capsys):
        code, report, _ = run_json(["profile", H_MOR], capsys)
        assert code == 0
        assert report["domain"] == "abcde"
        assert report["codomain"] == "abced"
        assert report["profile"] == {
            "uniform_length": 7,
            "non_erasing": True,
            "prefix": True,
            "suffix": True,
            "bifix": True,
            "ps": True,
        }


class TestGenerate:
    def test_displayed_prefix(self, capsys):
        code, out, _ = run(
            ["generate", H_MOR, "--start", "a", "--length", "84"], capsys
        )
        assert code == 0
        assert out == H_PREFIX_84 + "\n"

    def test_zero_length(self, capsys):
        code, out, _ = run(["generate", H_MOR, "--start", "a", "--length", "0"], capsys)
        assert code == 0
        assert out == "\n"

    def test_json(self, capsys):
        code, report, _ = run_json(
            ["generate", H_MOR, "--start", "a", "--length", "12"], capsys
        )
        assert code == 0
        assert report["word"] == "abceacdabeca"

    def test_non_prolongable_start(self, capsys):
        code, _, err = run(["generate", H_MOR, "--start", "b", "--length", "10"], capsys)
        assert code == 3
        assert "prolongable" in err


class TestVerifyPrefix:
    def test_fast_and_naive(self, capsys):
        for extra in ([], ["--naive"]):
            code, out, _ = run(
                ["verify-prefix", H_MOR, "--start", "a", "--length", "84", "--k", "3"]
                + extra,
                capsys,
            )
            assert code == 0
            assert out == "yes: prefix of length 84 is a 3-anti-power word\n"

    def test_json_includes_naive_flag(self, capsys):
        code, report, _ = run_json(
            ["verify-prefix", H_MOR, "--start", "a", "--length", "84", "--k", "3", "--naive"],
            capsys,
        )
        assert code == 0
        assert report["inputs"]["naive"] is True
        assert report["verdict"] is True

    def test_violation_found(self, capsys, tmp_path):
        path = tmp_path / "f.mor"
        path.write_text("a -> ab\nb -> ba\n", encoding="utf-8")
        code, report, _ = run_json(
            ["verify-prefix", str(path), "--start", "a", "--length", "16", "--k", "3"],
            capsys,
        )
        assert code == 1
        assert report["verdict"] is False
        assert report["witness"]["type"] == "anti-power-violation"

    def test_agrees_with_generate_plus_check(self, capsys, monkeypatch):
        code, out, _ = run(
            ["generate", H_MOR, "--start", "a", "--length", "300"], capsys
        )
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        code2, _, _ = run(["check-word", "--k", "3", "--stdin"], capsys)
        code3, _, _ = run(
            ["verify-prefix", H_MOR, "--start", "a", "--length", "300", "--k", "3"],
            capsys,
        )
        assert code2 == code3 == 0


class TestEnumerate:
    def test_human_lines_include_empty_word(self, capsys):
        code, out, _ = run(
            ["enumerate", "--alphabet", "ab", "--k", "3", "--max-len", "2"], capsys
        )
        assert code == 0
        assert out == "\na\nb\nab\nba\n"

    def test_json(self, capsys):
        code, report, _ = run_json(
            ["enumerate", "--alphabet", "ab", "--k", "3", "--max-len", "4"], capsys
        )
        assert code == 0
        assert report["words"] == ["", "a", "b", "ab", "ba"]
        assert report["count"] == 5

    def test_bad_alphabet(self, capsys):
        code, _, err = run(
            ["enumerate", "--alphabet", "aa", "--k", "2", "--max-len", "3"], capsys
        )
        assert code == 3
        assert "duplicate" in err


class TestCountExponentFindPower:
    def test_count(self, capsys):
        code, out, _ = run(["count", "--alpha", "2", "--k", "4", "--n", "2"], capsys)
        assert code == 0
        assert out == "24\n"

    def test_count_zero_case(self, capsys):
        code, out, _ = run(["count", "--alpha", "2", "--k", "5", "--n", "2"], capsys)
        assert code == 0
        assert out == "0\n"

    def test_exponent(self, capsys):
        code, out, _ = run(["exponent", "anchorman"], capsys)
        assert code == 0
        assert out == "9/7\n"

    def test_exponent_json_is_exact_string(self, capsys):
        code, report, _ = run_json(["exponent", "abaabaa"], capsys)
        assert code == 0
        assert report["exponent"] == "7/3"

    def test_find_power_found(self, capsys):
        code, out, _ = run(["find-power", "--threshold", "3/2", "abcaba"], capsys)
        assert code == 1
        assert out == "found: 5/3-power 'abcab' at 1 (period 3, span 5)\n"

    def test_find_power_absent(self, capsys):
        code, out, _ = run(["find-power", "--threshold", "3/2", "abc"], capsys)
        assert code == 0
        assert out == "none: no factor with exponent >= 3/2\n"

    def test_find_power_json(self, capsys):
        code, report, _ = run_json(["find-power", "--threshold", "3/2", "abcaba"], capsys)
        assert code == 1
        assert report["witness"] == {
            "type": "power-occurrence",
            "start": 1,
            "period": 3,
            "span": 5,
            "exponent": "5/3",
            "factor": "abcab",
        }

    def test_bad_threshold(self, capsys):
        for bad in ("1", "0/2", "x"):
            code, _, err = run(["find-power", "--threshold", bad, "ab"], capsys)
            assert code == 3


class TestParserBehaviour:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 3
        assert "invalid choice" in err

    def test_no_arguments(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 3

    def test_json_mode_prints_json_only(self, capsys):
        code = main(["check-word", "--k", "3", "abcab", "--json"])
        out, err = capsys.readouterr()
        assert code == 0
        json.loads(out)  # the whole stdout is one JSON document
        assert err == ""

    def test_json_reports_are_stable(self, capsys):
        reports = []
        for _ in range(2):
            _, report, _ = run_json(["check-morphism", "--k", "3", H_MOR], capsys)
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]

    def test_json_keys_sorted_on_the_wire(self, capsys):
        main(["check-word", "--k", "3", "abcac", "--json"])
        out, _ = capsys.readouterr()
        assert out.strip() == json.dumps(json.loads(out), sort_keys=True)

    @pytest.mark.parametrize("fault", [RuntimeError, AssertionError, MemoryError])
    def test_internal_fault_exits_4(self, capsys, monkeypatch, fault):
        def broken(word, k):
            raise fault("self-check failed")

        monkeypatch.setattr("apw.cli.check_k_anti_power", broken)
        code, out, err = run(["check-word", "--k", "3", "abcab"], capsys)
        assert code == 4
        assert out == ""
        assert f"apw: internal error: {fault.__name__}: self-check failed" in err

    def test_failed_long_path_self_check_exits_4(self, capsys, h, lying_index):
        word = fixed_point_prefix(h, "a", 2401)
        code, out, err = run(["exponent", word], capsys)
        assert code == 4
        assert out == ""
        assert "apw: internal error: RuntimeError: name-index scan produced a bad repetition" in err


class TestEntryPoints:
    def test_python_dash_m(self):
        # the child finds apw where this process did, installed or not
        path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "apw", "exponent", "anchorman"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stdout == "9/7\n"

    @pytest.mark.skipif(shutil.which("apw") is None, reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(
            ["apw", "check-word", "--k", "3", "abcab"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("yes")
