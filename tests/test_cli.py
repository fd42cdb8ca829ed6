import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import nilprob
from nilprob import stats
from nilprob.cli import main
from nilprob.groups import AlgebraGroup
from nilprob.tables import corpus_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strip_elapsed(obj):
    if isinstance(obj, dict):
        return {k: strip_elapsed(v) for k, v in obj.items() if k != "elapsed_ms"}
    if isinstance(obj, list):
        return [strip_elapsed(v) for v in obj]
    return obj


class TestCommands:
    def test_family_reports_class_four(self, capsys):
        code, out = run_cli(capsys, "family", "--p", "2", "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["report"]["class"] == 4
        assert payload["report"]["order"] == 512
        assert payload["report"]["generator_count"] == 9

    def test_family_samples_in_chunks(self, capsys, monkeypatch):
        sizes = []
        sample_batch = AlgebraGroup.sample_batch
        monkeypatch.setattr(AlgebraGroup, "sample_batch",
                            lambda G, rng, count: sizes.append(count) or sample_batch(G, rng, count))
        samples = str(stats.MC_CHUNK + 1)
        code, out = run_cli(capsys, "family", "--p", "2", "--n", "1",
                            "--samples", samples, "--threads", "1")
        assert code == 0
        assert json.loads(out)["report"]["five_fold_trivial"] is True
        assert sorted(sizes) == [1] * 5 + [stats.MC_CHUNK] * 5

    def test_d2_family_exact(self, capsys):
        code, out = run_cli(capsys, "d2", "--family", "--p", "2", "--n", "1", "--exact")
        assert code == 0
        rep = json.loads(out)["report"]
        assert (rep["value_num"], rep["value_den"]) == (65, 128)
        assert rep["value_num"] * 8 >= rep["value_den"]   # >= 1/8

    @pytest.mark.parametrize("n, cap, num, den", [(2, None, 1691, 8192), (3, "4096", 75203, 524288)])
    def test_d2_family_exact_graded(self, capsys, n, cap, num, den):
        # the cap counts the p^(2d) grade-1 pairs: 2^8 under the default, 2^12 at n = 3
        argv = ["d2", "--family", "--p", "2", "--n", str(n), "--exact"]
        code, out = run_cli(capsys, *argv, *(["--cap", cap] if cap else []))
        assert code == 0
        rep = json.loads(out)["report"]
        assert (rep["value_num"], rep["value_den"]) == (num, den)

    def test_d1_family_p3_exact(self, capsys):
        # |G| = 19683 lies under the d1 cap (2^16) but over the 2^14 enumeration cap
        code, out = run_cli(capsys, "d1", "--family", "--p", "3", "--n", "1", "--exact")
        assert code == 0
        report = json.loads(out)["report"]
        assert (report["value_num"], report["value_den"]) == (43, 2187)

    def test_d1_table_s3(self, capsys):
        code, out = run_cli(capsys, "d1", "--table", str(corpus_path("s3")), "--exact")
        assert code == 0
        rep = json.loads(out)["report"]
        assert (rep["value_num"], rep["value_den"]) == (1, 2)

    def test_d2_mc_seeded(self, capsys):
        code, out = run_cli(
            capsys, "d2", "--family", "--p", "2", "--n", "1", "--mc",
            "--samples", "20000", "--seed", "3",
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["samples"] == 20000
        assert rep["ci_low"] <= rep["estimate"] <= rep["ci_high"]

    def test_cover_family_verified(self, capsys):
        code, out = run_cli(
            capsys, "cover", "--family", "--p", "2", "--n", "1",
            "--n-bound", "8", "--s", "identity",
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["ok"] is True
        assert rep["mode"] == "exhaustive"

    def test_cover_counterexample_exit_one(self, capsys):
        code, out = run_cli(
            capsys, "cover", "--table", "corpus:s3", "--n-bound", "1", "--s", "identity",
        )
        assert code == 1
        rep = json.loads(out)["report"]
        assert rep["ok"] is False
        assert rep["counterexample"] is not None

    def test_cover_minimal(self, capsys):
        code, out = run_cli(
            capsys, "cover", "--table", "corpus:s3", "--n-bound", "1", "--minimal",
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert len(rep["S"]) == 3 and rep["exact_minimum"] is True

    def test_probe_hyperplanes(self, capsys):
        code, out = run_cli(
            capsys, "probe-class3", "--p", "2", "--n", "2", "--exhaustive-hyperplanes",
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["hyperplanes"] == 15 and rep["all_witnessed"] is True

    def test_series(self, capsys):
        code, out = run_cli(capsys, "series", "--table", "corpus:q8")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["nilpotency_class"] == 2
        assert rep["engel_degree"] == 2
        assert rep["baer_indices"] == [4, 2]

    def test_neumann(self, capsys):
        code, out = run_cli(
            capsys, "neumann", "--table", "corpus:q8", "--norm", "discrete", "--C", "2",
        )
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["hypothesis_holds"] is True
        assert rep["ball_count"] <= 4

    def test_neumann_hypothesis_failure_exit_one(self, capsys):
        code, out = run_cli(
            capsys, "neumann", "--table", "corpus:s3", "--norm", "discrete", "--C", "1",
        )
        assert code == 1
        assert json.loads(out)["report"]["hypothesis_holds"] is False

    def test_neumann_huge_level_does_not_overflow(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(
                capsys, "neumann", "--table", "corpus:s3", "--norm", "discrete", "--C", "1e308",
            )
        assert code == 0
        assert json.loads(out)["report"]["hypothesis_holds"] is True

    def test_bias_verify_quad(self, capsys):
        code, out = run_cli(capsys, "bias", "--verify-quad", "--p", "2", "--n", "1")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["ok"] is True and rep["rank"] == 16

    def test_bias_trilinear_bound(self, capsys):
        code, out = run_cli(capsys, "bias", "--trilinear-bound", "--p", "2", "--n", "1")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["bound_holds"] is True
        assert rep["bound"] == [1, 4]

    def test_bias_trilinear_bound_sampled(self, capsys):
        code, out = run_cli(capsys, "bias", "--trilinear-bound", "--p", "3", "--n", "3",
                            "--samples", "20000")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["bias"]["kind"] == "monte-carlo"
        assert rep["bound"] == [1, 9]
        assert rep["bound_holds"] is True

    def test_cover_table_s_file(self, capsys, tmp_path):
        s_file = tmp_path / "s.txt"
        s_file.write_text("0\n3\n4\n")
        code, out = run_cli(capsys, "cover", "--table", "corpus:s3", "--n-bound", "1",
                            "--s-file", str(s_file))
        assert code == 0
        assert json.loads(out)["report"]["S"] == [0, 3, 4]

    @pytest.mark.parametrize("argv, p, order", [
        (["probe-class3", "--p", "2", "--form", "hyperbolic:2:2"], 2, 2**25),
        (["bias", "--verify-quad", "--form", "hyperbolic:2:1"], 2, 512),
        # the form supplies p: no --p 3 is needed
        (["bias", "--trilinear-bound", "--form", "hyperbolic:3:1"], 3, 3**9),
    ], ids=["probe-class3", "bias", "bias-p3"])
    def test_form_group_block(self, capsys, argv, p, order):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads(out)["group"] == {
            "kind": "family", "p": p, "n": None, "form": argv[-1], "order": order,
        }

    def test_unread_flag_at_its_default_is_accepted(self, capsys):
        code, out = run_cli(capsys, "d1", "--table", "corpus:s3", "--exact",
                            "--p", "2", "--samples", "1000000", "--seed", "1729")
        assert code == 0
        assert json.loads(out)["report"]["value_num"] == 1


class TestExitCodes:
    def test_cap_exceeded_is_three(self, capsys):
        # (2,3) has 2^12 grade-1 pairs, over the default d2 cap 2^10
        code = main(["d2", "--family", "--p", "2", "--n", "3", "--exact"])
        capsys.readouterr()
        assert code == 3

    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_bad_table_path_is_two(self, capsys):
        code = main(["d1", "--table", "/no/such/file.tbl", "--exact"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("text, err", [
        ("2\n0 0\n1 0\n", "row 0 is not a permutation"),
        ("3\n0 1 2\n1 2 0\n2 2 0\n", "column 1 is not a permutation"),
        ("2\n1 0\n0 1\n", "index 0 is not a two-sided identity"),
        ("5\n0 1 2 3 4\n1 0 3 4 2\n2 4 0 1 3\n3 2 4 0 1\n4 3 1 2 0\n",
         "associativity fails with a = 1"),
        ("2\n0 x\n1 0\n",
         "bad entry: string or file could not be read to its end due to unmatched data"),
    ], ids=["row", "column", "identity", "associativity", "entry"])
    def test_invalid_table_file_is_two(self, capsys, tmp_path, text, err):
        path = tmp_path / "bad.tbl"
        path.write_text(text)
        code = main(["d1", "--table", str(path), "--exact"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"

    def test_unknown_corpus_name_is_two(self, capsys):
        code = main(["d1", "--table", "corpus:nope", "--exact"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "'nope'" in err and "'heis27'" in err

    def test_bias_without_mode_is_two(self, capsys):
        code = main(["bias", "--p", "2", "--n", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bias:")

    def test_bad_threads_env_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("NILPROB_THREADS", "many")
        code = main(["d1", "--table", "corpus:q8", "--exact"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad NILPROB_THREADS")

    @pytest.mark.parametrize("flag, env", [("0", None), ("-2", None), (None, "0"), (None, "-4")],
                             ids=["flag-zero", "flag-negative", "env-zero", "env-negative"])
    def test_threads_below_one_is_two(self, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("NILPROB_THREADS", env)
        code = main(["d1", "--table", "corpus:q8", "--exact"]
                    + ([] if flag is None else ["--threads", flag]))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: need threads >= 1, got {flag or env}\n"

    @pytest.mark.parametrize("C", ["nan", "inf", "-inf", "0"])
    def test_neumann_level_not_finite_positive_is_two(self, capsys, C):
        code = main(["neumann", "--table", "corpus:s3", "--norm", "discrete", f"--C={C}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: C must be finite and positive\n"

    def test_unsupported_s_value_is_two(self, capsys):
        code = main(["cover", "--table", "corpus:s3", "--n-bound", "1", "--s", "foo"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: unsupported --s")

    @pytest.mark.parametrize("argv", [
        ["cover", "--family", "--p", "2", "--n", "1", "--n-bound", "1", "--mode", "sampled"],
        ["bias", "--verify-quad", "--p", "3", "--n", "2"],
        ["bias", "--trilinear-bound", "--p", "3", "--n", "3"],
        # domains small enough to enumerate, where samples are never drawn
        ["bias", "--verify-quad", "--p", "2", "--n", "1"],
        ["bias", "--trilinear-bound", "--p", "2", "--n", "1"],
        ["family", "--p", "2", "--n", "1"],
        ["d1", "--family", "--p", "2", "--n", "1", "--mc"],
        ["d2", "--table", "corpus:s3", "--mc"],
    ], ids=["cover-sampled", "bias-verify-quad", "bias-trilinear-bound",
            "bias-verify-quad-enumerated", "bias-trilinear-bound-enumerated", "family",
            "d1-mc", "d2-mc"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sampled_modes_need_samples_is_two(self, capsys, argv, samples):
        code = main(argv + ["--samples", samples])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need samples >= 1\n"

    @pytest.mark.parametrize("argv", [
        ["d1", "--family", "--p", "2", "--n", "1", "--mc", "--samples", "10"],
        ["d2", "--table", "corpus:s3", "--mc", "--samples", "10"],
        ["family", "--p", "2", "--n", "1"],
        ["cover", "--family", "--p", "2", "--n", "1", "--n-bound", "1", "--mode", "sampled"],
        ["bias", "--verify-quad", "--p", "2", "--n", "1"],
        ["bias", "--trilinear-bound", "--p", "3", "--n", "3"],
    ], ids=["d1-mc", "d2-mc", "family", "cover-sampled", "bias-verify-quad",
            "bias-trilinear-bound"])
    def test_negative_seed_is_two(self, capsys, argv):
        code = main(argv + ["--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need seed >= 0, got -1\n"

    @pytest.mark.parametrize("cap", ["0"])
    def test_cap_zero_is_a_cap(self, capsys, cap):
        code = main(["d2", "--family", "--p", "2", "--n", "1", "--exact", "--cap", cap])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"cap exceeded: p^(2d) = 16 grade-1 pairs exceed d2 cap {cap}\n"

    @pytest.mark.parametrize("argv", [
        ["d1", "--table", "corpus:s3"], ["d2", "--table", "corpus:s3"],
        ["d2", "--family", "--p", "2", "--n", "1"],
    ], ids=["d1", "d2", "d2-family"])
    def test_negative_cap_is_two(self, capsys, argv):
        code = main(argv + ["--exact", "--cap", "-1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: need cap >= 0, got -1\n"

    @pytest.mark.parametrize("argv", [
        ["d1", "--exact"], ["d2", "--exact"], ["cover", "--n-bound", "1"],
    ], ids=["d1", "d2", "cover"])
    def test_family_with_table_is_two(self, capsys, argv):
        code = main(argv + ["--family", "--table", "corpus:s3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --family and --table exclude each other\n"

    @pytest.mark.parametrize("extra", [[], ["--mode", "sampled"], ["--minimal"]],
                             ids=["exhaustive", "sampled", "minimal"])
    def test_cover_bound_below_one_is_two(self, capsys, extra):
        code = main(["cover", "--table", "corpus:s3", "--n-bound", "0"] + extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: covering bound n must be >= 1\n"

    @pytest.mark.parametrize("argv, flags", [
        (["cover", "--table", "corpus:s3", "--n-bound", "1", "--minimal",
          "--s-file", "/no/such/file"], "--s-file and --minimal"),
        (["cover", "--table", "corpus:s3", "--n-bound", "1", "--minimal",
          "--mode", "sampled", "--samples", "5"], "--mode and --minimal"),
        (["cover", "--table", "corpus:s3", "--n-bound", "1", "--s-file", "F", "--s", "foo"],
         "--s and --s-file"),
        (["cover", "--family", "--n-bound", "8", "--samples", "3"],
         "--samples and --mode exhaustive"),
        (["d1", "--table", "corpus:s3", "--exact", "--p", "3"], "--p and --table"),
        (["d1", "--table", "corpus:s3", "--exact", "--form", "hyperbolic:3:1"],
         "--form and --table"),
        (["d2", "--table", "corpus:s3", "--exact", "--seed", "9"], "--seed and --exact"),
        (["d2", "--table", "corpus:s3", "--mc", "--samples", "5000", "--cap", "3"],
         "--cap and --mc"),
        (["d2", "--form", "hyperbolic:2:1", "--n", "3", "--exact"], "--n and --form"),
        (["bias", "--verify-quad", "--form", "hyperbolic:2:1", "--n", "2"], "--n and --form"),
        (["bias", "--trilinear-bound", "--p", "3", "--form", "hyperbolic:3:1"],
         "--p and --form"),
        # a usage error, not the cap of exact d2 at (2, 2)
        (["d2", "--family", "--p", "2", "--n", "2", "--exact", "--seed", "5"],
         "--seed and --exact"),
    ], ids=["minimal-s-file", "minimal-sampled", "s-file-s", "exhaustive-samples",
            "table-p", "table-form", "exact-seed", "mc-cap", "form-n", "bias-form-n",
            "form-p", "exact-seed-over-cap"])
    def test_unread_flag_is_two(self, capsys, argv, flags):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {flags} exclude each other\n"

    def test_probe_seed_is_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probe-class3", "--p", "2", "--n", "1", "--seed", "5"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "unrecognized arguments: --seed 5" in captured.err

    def test_bias_both_modes_is_two(self, capsys):
        code = main(["bias", "--verify-quad", "--trilinear-bound", "--p", "2", "--n", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: bias: pass only one of")

    @pytest.mark.parametrize("text", ["2 0\n", "2 -1\n1\n"])
    def test_form_dimension_below_one_is_two(self, capsys, tmp_path, text):
        form = tmp_path / "form.txt"
        form.write_text(text)
        code = main(["bias", "--verify-quad", "--form", str(form)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: form dimension must be >= 1\n"

    def test_series_engel_limit_below_one_is_two(self, capsys):
        code = main(["series", "--table", "corpus:c4", "--max-l", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: Engel limit max_l must be >= 1\n"

    @pytest.mark.parametrize("group", [["--table", "corpus:s3"], ["--family", "--p", "2", "--n", "1"]])
    @pytest.mark.parametrize("text", ["", "\n \n"])
    def test_empty_s_file_is_two(self, capsys, tmp_path, group, text):
        # zero balls cover nothing, not even the identity commutator
        s_file = tmp_path / "s.txt"
        s_file.write_text(text)
        code = main(["cover", *group, "--n-bound", "1", "--s-file", str(s_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --s-file holds no elements\n"

    @pytest.mark.parametrize("group, text, message", [
        (["--table", "corpus:s3"], "0\nabc\n",
         "line 2: invalid literal for int() with base 10: 'abc'"),
        (["--family", "--p", "2", "--n", "2"], "0 | 0 0 0 0 | 0 0 0 0\n",
         "line 1: element text must have 5 '|'-separated fields"),
        # a blank line still counts
        (["--family", "--p", "2", "--n", "2"],
         "\n0 | 1 0 0 0 | 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0 | 0 0 0 0 | 0\n",
         "line 2: expected 4 rows in r2 field"),
        (["--family", "--p", "2", "--n", "1"], "1 | 0 0 | 0 0 ; 0 0 | 0 0 | 0\n",
         "line 1: L1-part must have zero grade-0 component"),
        (["--family", "--p", "2", "--n", "1"], "0 | 3 0 | 0 0 ; 0 0 | 0 0 | 0\n",
         "line 1: digit 3 outside [0, 2)"),
        (["--family", "--p", "2", "--n", "1"], "0 | -1 0 | 0 0 ; 0 0 | 0 0 | 0\n",
         "line 1: digit -1 outside [0, 2)"),
        (["--table", "corpus:s3"], "99\n", "line 1: element index 99 outside [0, 6)"),
        (["--table", "corpus:s3"], "0\n-1\n", "line 2: element index -1 outside [0, 6)"),
    ], ids=["table-not-integer", "family-fields", "family-r2-rows", "family-c0",
            "family-digit-3", "family-digit-neg", "table-index-99", "table-index-neg"])
    def test_malformed_s_file_line_is_two(self, capsys, tmp_path, group, text, message):
        s_file = tmp_path / "s.txt"
        s_file.write_text(text)
        code = main(["cover", *group, "--n-bound", "2", "--s-file", str(s_file)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --s-file {message}\n"


class TestOutput:
    def test_json_deterministic_modulo_elapsed(self, capsys):
        _, a = run_cli(capsys, "d2", "--family", "--p", "2", "--n", "1", "--mc",
                       "--samples", "5000", "--seed", "7", "--threads", "1")
        _, b = run_cli(capsys, "d2", "--family", "--p", "2", "--n", "1", "--mc",
                       "--samples", "5000", "--seed", "7", "--threads", "1")
        assert strip_elapsed(json.loads(a)) == strip_elapsed(json.loads(b))

    def test_csv_format(self, capsys):
        code, out = run_cli(capsys, "d1", "--table", "corpus:q8", "--exact",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "schema,command,field,value"
        assert any("report.value_num,5" in ln for ln in lines)

    @pytest.mark.parametrize("argv", [
        ["series", "--table", "corpus:d4"],
        ["cover", "--table", "corpus:s3", "--n-bound", "1", "--minimal"],
    ], ids=["series", "cover-minimal"])
    def test_csv_rows_have_four_fields(self, capsys, argv):
        # list values hold commas, so they must come out quoted
        code, out = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["schema", "command", "field", "value"]
        assert any("," in row[3] for row in rows)
        assert all(len(row) == 4 for row in rows)

    def test_text_format(self, capsys):
        code, out = run_cli(capsys, "d1", "--table", "corpus:q8", "--exact",
                            "--format", "text")
        assert code == 0
        assert "report.value_den: 8" in out

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "d1", "--table", "corpus:q8", "--exact",
                            "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["report"]["value_num"] == 5

    def test_threads_recorded(self, capsys):
        _, out = run_cli(capsys, "family", "--p", "2", "--n", "1", "--threads", "3")
        assert json.loads(out)["threads"] == 3

    def test_threads_env(self, capsys, monkeypatch):
        monkeypatch.setenv("NILPROB_THREADS", "5")
        _, out = run_cli(capsys, "family", "--p", "2", "--n", "1")
        assert json.loads(out)["threads"] == 5


@pytest.mark.parametrize("module", ["nilprob", "nilprob.cli"])
def test_import_leaves_out_scipy(module):
    # scipy is a test oracle only: importing it would double start-up
    env = dict(os.environ, PYTHONPATH=str(Path(nilprob.__file__).resolve().parents[1]))
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == "[]\n"


def test_structure_commands_leave_out_numpy_ma():
    # np.unique imports numpy.ma (about 10 ms) on its first call, so the
    # series and neumann paths mark values in boolean arrays instead
    env = dict(os.environ, PYTHONPATH=str(Path(nilprob.__file__).resolve().parents[1]))
    argvs = [argv for argv in readme_cli_lines() if argv[0] in ("series", "neumann")]
    assert len(argvs) == 2
    code = ("import contextlib, io, sys\n"
            "from nilprob.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == "[]\n"


README =Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_lines():
    """Every `nilprob ...` line of README's CLI block, comments stripped."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.splitlines() if ln.startswith("nilprob ")]
    return [ln.split("#", 1)[0].split()[1:] for ln in lines]


def test_readme_cli_block_is_found():
    assert len(readme_cli_lines()) == 13


@pytest.mark.parametrize("argv", readme_cli_lines(), ids=lambda argv: " ".join(argv))
def test_readme_cli_lines_run(argv, capsys, monkeypatch):
    monkeypatch.chdir(README.parent)   # the README's paths are relative to the repo root
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["command"] == argv[0]
