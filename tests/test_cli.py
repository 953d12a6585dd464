import hashlib
import json

import pytest

from matgauss import cli
from matgauss.cli import main

from test_characters import over_order_field
from test_finite_field import assert_no_tables


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestEvalGl:
    def test_identity_with_trivial_characters(self, capsys):
        code, doc, _ = run_json(
            capsys, "eval-gl", "--p", "2", "--e", "1", "--n", "2",
            "--matrix", "[[1,0],[0,1]]", "--chi", "0", "--lambda", "1",
        )
        assert code == 0
        assert doc["command"] == "eval-gl"
        assert doc["case_label"] == "full-rank"
        assert doc["closed_form"]["abs"] == pytest.approx(2.0)
        assert doc["closed_form"]["coeffs"] == [2]
        assert doc["oracle"] is None
        assert doc["verified"] is None

    def test_check_attaches_oracle(self, capsys):
        code, doc, _ = run_json(
            capsys, "eval-gl", "--p", "3", "--n", "2",
            "--matrix", "[[1,0],[0,0]]", "--chi", "1", "--check",
        )
        assert code == 0
        assert doc["case_label"] == "vanishing"
        assert doc["verified"] is True
        assert doc["oracle"]["coeffs"] == doc["closed_form"]["coeffs"]

    def test_budget_skips_oracle_but_succeeds(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSS_SUMS_BUDGET", "10")
        code, doc, _ = run_json(
            capsys, "eval-gl", "--p", "3", "--n", "2",
            "--matrix", "[[1,0],[0,1]]", "--check",
        )
        assert code == 0
        assert doc["oracle"] is None
        assert "oracle skipped" in doc["note"]

    def test_trivial_lambda_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "eval-gl", "--p", "3", "--n", "2",
            "--matrix", "[[1,0],[0,1]]", "--lambda", "0",
        )
        assert code == 2
        assert "nontrivial" in err

    def test_malformed_matrix(self, capsys):
        for bad in ("[[1,0]", "[[1,0],[0]]", "[[1,0],[0,9]]", '[["a",0],[0,1]]'):
            code, _, err = run(
                capsys, "eval-gl", "--p", "3", "--n", "2", "--matrix", bad,
            )
            assert code == 2
            assert err.startswith("error:")

    def test_chi_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "eval-gl", "--p", "2", "--n", "2",
            "--matrix", "[[1,0],[0,1]]", "--chi", "1",
        )
        assert code == 2

    def test_oversized_value_ring_fails_before_the_dlog_table(self, capsys, monkeypatch):
        f = over_order_field(monkeypatch)
        code, _, err = run(
            capsys, "eval-gl", "--p", "2", "--e", "19", "--n", "2",
            "--matrix", "[[1,0],[0,1]]", "--chi", "1",
        )
        assert code == 2
        assert "exceeds the supported bound" in err
        assert_no_tables(f)


class TestEvalSl:
    @pytest.mark.parametrize("matrix", ["[[1,0],[0,1]]", "[[1,0],[0"])
    def test_oversized_value_ring_fails_before_the_dlog_table(self, capsys, monkeypatch, matrix):
        # the order error comes before the matrix is read, so it wins over a malformed one
        f = over_order_field(monkeypatch)
        code, _, err = run(
            capsys, "eval-sl", "--p", "2", "--e", "19", "--n", "2", "--matrix", matrix,
        )
        assert code == 2
        assert err == "error: order 1048574 exceeds the supported bound 1000000\n"
        assert_no_tables(f)

    def test_rank_one_value(self, capsys):
        code, doc, _ = run_json(
            capsys, "eval-sl", "--p", "3", "--n", "2",
            "--matrix", "[[1,0],[0,0]]", "--check",
        )
        assert code == 0
        assert doc["case_label"] == "sl-deficient"
        assert doc["closed_form"]["coeffs"] == [-3, 0]
        assert doc["verified"] is True

    def test_full_rank(self, capsys):
        code, doc, _ = run_json(
            capsys, "eval-sl", "--p", "2", "--e", "2", "--n", "2",
            "--matrix", "[[1,0],[0,1]]", "--check",
        )
        assert code == 0
        assert doc["case_label"] == "sl-full-rank"
        assert doc["verified"] is True

    def test_budget_skips_oracle_but_succeeds(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSS_SUMS_BUDGET", "10")
        code, doc, _ = run_json(
            capsys, "eval-sl", "--p", "3", "--n", "2",
            "--matrix", "[[1,0],[0,1]]", "--check",
        )
        assert code == 0
        assert doc["oracle"] is None
        assert doc["verified"] is None
        assert doc["note"].startswith("oracle skipped: ")
        assert doc["closed_form"]["coeffs"]


def test_eval_check_matches_the_verify_report(capsys):
    # eval-gl/eval-sl --check and verify both report through oracle_report, so
    # on diag(I_u, 0) each closed-vs-oracle report of verify is one eval's output
    code, grid, _ = run_json(
        capsys, "verify", "--max-n", "2", "--fields", "4", "--lambda", "3", "--samples", "0",
    )
    assert code == 0
    reports = [r for r in grid["reports"] if r["check"] == "closed-vs-oracle"]
    assert {(r["chi_index"], r["u"], r["n"]) for r in reports} == {
        (chi, u, n) for chi in (0, 1, None) for n in (1, 2) for u in range(n + 1)
    }
    for report in reports:
        argv = ["--p", "2", "--e", "2", "--n", str(report["n"]), "--lambda", "3",
                "--matrix", json.dumps(report["matrix"]), "--check"]
        if report["chi_index"] is None:
            argv = ["eval-sl", *argv]
        else:
            argv = ["eval-gl", *argv, "--chi", str(report["chi_index"])]
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0
        assert doc.pop("command") == argv[0]
        assert doc == report


class TestCountTrace:
    def test_all_betas(self, capsys):
        code, doc, _ = run_json(
            capsys, "count-trace", "--p", "3", "--n", "2", "--check",
        )
        assert code == 0
        got = {row["beta"]: (row["N_closed"], row["N_bruteforce"]) for row in doc["counts"]}
        assert got == {0: (18, 18), 1: (15, 15), 2: (15, 15)}
        assert doc["verified"] is True

    def test_single_beta_without_check(self, capsys):
        code, doc, _ = run_json(
            capsys, "count-trace", "--p", "2", "--n", "2", "--beta", "0",
        )
        assert code == 0
        assert doc["counts"] == [{"beta": 0, "N_closed": 4, "N_bruteforce": None}]
        assert doc["verified"] is None

    def test_dimension_past_the_matrix_bound_is_usage_error(self, capsys):
        # past the bound a count has too many digits to print: refuse before counting
        code, out, err = run(capsys, "count-trace", "--p", "2", "--n", "200")
        assert code == 2
        assert out == ""
        assert "dimension" in err


class TestVerify:
    def test_passing_run(self, capsys):
        code, doc, _ = run_json(
            capsys, "verify", "--max-n", "2", "--fields", "2,3,4,5", "--seed", "7",
            "--samples", "2",
        )
        assert code == 0
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["cells"] == len(doc["reports"])
        assert doc["summary"]["passed"] == doc["summary"]["cells"]

    def test_byte_identical_given_seed(self, capsys):
        argv = ["verify", "--max-n", "2", "--fields", "2,3", "--seed", "9", "--samples", "2"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_budget_exceeded_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GAUSS_SUMS_BUDGET", "100")
        code, _, err = run(capsys, "verify", "--max-n", "2", "--fields", "5")
        assert code == 2
        assert "budget" in err

    @pytest.mark.parametrize("argv", [
        ["--fields", "6"],
        ["--max-n", "1", "--fields", "3", "--samples", "-1"],
        ["--fields", ","],
    ], ids=["non-prime-power", "negative-samples", "no-fields"])
    def test_non_prime_power_field(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "eval-gl", "--p", "2", "--n", "2",
            "--matrix", "[[1,0],[0,1]]", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text())
        assert doc["command"] == "eval-gl"

    def test_missing_directory_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(
            capsys, "count-trace", "--p", "3", "--n", "2", "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not target.parent.exists()

    def test_unwritable_path_fails_before_the_work(self, capsys, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("verify ran its grid for an output it cannot write")

        monkeypatch.setattr(cli, "verify_grid", unreachable)
        target = tmp_path / "missing" / "out.json"
        code, out, err = run(
            capsys, "verify", "--max-n", "3", "--fields", "4", "--output", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


# the five reference commands and the sha256 of the JSON each writes
REFERENCE_OUTPUTS = {
    "verify-n2": (["verify", "--max-n", "2", "--fields", "2,3,4,5", "--seed", "7"],
                  "27faab46852f3e350dbfe958496905ceccc3477bd22beed21f42a8780915138c"),
    "verify-n3": (["verify", "--max-n", "3", "--fields", "2,3", "--seed", "1", "--samples", "2"],
                  "2e74bddb4414524f2443caf3e931eeb627050298049c90a235aaa8488092fef6"),
    "count-trace": (["count-trace", "--p", "3", "--n", "3", "--check"],
                    "288ddd877a4f1690b1bf938e07e2618d453f3e7e29511774c946ba50467aceab"),
    "eval-gl": (["eval-gl", "--p", "7", "--n", "2", "--matrix", "[[1,2],[3,4]]", "--chi", "1",
                 "--check"],
                "49fba4c5bf4ac85132b28731daed50615256f41200abc0c424772d016f41efd2"),
    "eval-sl": (["eval-sl", "--p", "5", "--n", "3", "--matrix", "[[1,2,0],[3,4,0],[0,0,0]]",
                 "--check"],
                "3a29bd045e48f0c13a2bc4c32d426e11e108918b11d309a807d3f4d615b0d259"),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_OUTPUTS))
def test_reference_output_is_unchanged(name, tmp_path):
    argv, digest = REFERENCE_OUTPUTS[name]
    target = tmp_path / "out.json"
    assert main(argv + ["--output", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_usage_error_exit_code(capsys):
    for argv in (
        ["no-such-command"],
        # --seed belongs to verify only: no other command samples
        ["eval-gl", "--p", "3", "--n", "2", "--matrix", "[[1,0],[0,1]]", "--seed", "1"],
        # timings come from the benchmark harness, not a subcommand
        ["bench", "--p", "3", "--n", "2"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
