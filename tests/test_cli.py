import json

import pytest

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

    def test_non_prime_power_field(self, capsys):
        code, _, err = run(capsys, "verify", "--fields", "6")
        assert code == 2


class TestBench:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "bench", "--p", "2", "--n", "2", "--repeat", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "operation,n,q,microseconds"
        ops = [line.split(",")[0] for line in lines[1:]]
        assert ops == [
            "gl_closed", "gl_bruteforce", "sl_closed", "sl_bruteforce",
            "kloosterman_dp", "kloosterman_enum", "count_bruteforce",
        ]
        for line in lines[1:]:
            _, n, q, us = line.split(",")
            assert (n, q) == ("2", "2")
            assert float(us) >= 0

    def test_every_repeat_walks_the_group_again(self, capsys, monkeypatch):
        # a repeat that read the member cache would time a lookup, not a walk
        from matgauss import matrix_fq

        walks = []
        real = matrix_fq._gl_blocks

        def counting(field, n):
            walks.append((field.q, n))
            return real(field, n)

        monkeypatch.setattr(matrix_fq, "_gl_blocks", counting)
        code, _, _ = run(capsys, "bench", "--p", "3", "--n", "2", "--repeat", "2")
        assert code == 0
        # gl_bruteforce, sl_bruteforce and count_bruteforce each walk
        # GL_2(F_3) once per repeat
        assert walks == [(3, 2)] * 6


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


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
