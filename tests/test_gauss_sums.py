import math
import random
from collections import Counter
from functools import lru_cache

import pytest

from matgauss import gauss_sums, matrix_fq
from matgauss.budget import EnumerationBudgetError
from matgauss.characters import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    classical_gauss_sum,
    value_ring,
)
from matgauss.finite_field import make_field
from matgauss.gauss_sums import (
    SumReport,
    count_trace_bruteforce,
    count_trace_closed,
    factor_prime_power,
    gl_gauss_bruteforce,
    gl_gauss_closed,
    gl_order,
    oracle_report,
    sl_gauss_bruteforce,
    sl_gauss_closed,
    sl_order,
    verify_grid,
)
from matgauss.matrix_fq import (
    MatrixFq,
    clear_member_cache,
    frobenius_product,
    random_invertible,
    random_rank_matrix,
)

from literal_groups import literal_gl, literal_sl
from test_characters import over_order_field
from test_finite_field import assert_no_tables


def setup_field(q, chi_index=0, twist=1):
    p, e = factor_prime_power(q)
    f = make_field(p, e)
    lam = AdditiveCharacter(f.element(twist))
    chi = MultiplicativeCharacter(f, chi_index)
    return f, chi, lam


class TestGlClosedForm:
    def test_one_by_one_reduces_to_classical_gauss_sum(self):
        for q in (3, 5, 7, 4):
            f, chi, lam = setup_field(q, chi_index=1)
            u_mat = MatrixFq.identity(f, 1)
            assert gl_gauss_closed(u_mat, chi, lam) == classical_gauss_sum(chi, lam)

    def test_trivial_chi_identity_2x2_over_f2(self):
        f, chi, lam = setup_field(2)
        val = gl_gauss_closed(MatrixFq.identity(f, 2), chi, lam)
        assert val == 2
        # oracle: N_0 - N_1 over the 6 matrices of GL_2(F_2)
        assert gl_gauss_bruteforce(MatrixFq.identity(f, 2), chi, lam) == 4 - 2

    def test_vanishing_case(self):
        f, chi, lam = setup_field(3, chi_index=1)
        u_mat = MatrixFq(f, [[1, 0], [0, 0]])
        assert gl_gauss_closed(u_mat, chi, lam).is_zero()
        assert gl_gauss_bruteforce(u_mat, chi, lam).is_zero()

    def test_zero_matrix_counts_group_with_trivial_characters(self):
        for q in (2, 3, 4):
            f, chi, _ = setup_field(q)
            lam0 = AdditiveCharacter(f.zero())
            total = gl_gauss_bruteforce(MatrixFq.zero(f, 2), chi, lam0)
            assert total == gl_order(f, 2)

    def test_full_rank_cases_agree_for_trivial_chi(self):
        # the two closed-form branches overlap at u = n, chi trivial,
        # where G(1, lambda) = -1 collapses the Gauss-sum power
        for q in (2, 3, 4, 5):
            f, chi, lam = setup_field(q)
            for n in (1, 2, 3):
                got = gl_gauss_closed(MatrixFq.identity(f, n), chi, lam)
                branch_two = (-1) ** n * q ** math.comb(n, 2)
                assert got == branch_two

    def test_trivial_lambda_rejected(self):
        f, chi, _ = setup_field(3)
        lam0 = AdditiveCharacter(f.zero())
        with pytest.raises(ValueError):
            gl_gauss_closed(MatrixFq.identity(f, 2), chi, lam0)
        with pytest.raises(ValueError):
            sl_gauss_closed(MatrixFq.identity(f, 2), lam0)

    def test_nontrivial_twists_also_verify(self):
        rng = random.Random("twists")
        for q, twist in [(3, 2), (5, 3), (4, 2)]:
            f, chi, lam = setup_field(q, chi_index=1, twist=twist)
            for u in range(3):
                u_mat = random_rank_matrix(f, 2, u, rng)
                assert gl_gauss_closed(u_mat, chi, lam) == gl_gauss_bruteforce(u_mat, chi, lam)
                assert sl_gauss_closed(u_mat, lam) == sl_gauss_bruteforce(u_mat, lam)

    @pytest.mark.parametrize("q", [243, 343, 625, 1024])
    def test_full_rank_past_enumeration_matches_the_untwisted_route(self, q):
        # conj(chi)(det U) * G(chi, lambda)^n, written out with n - 1 plain
        # products and a root power.  Besides characters of full order, the
        # trivial one and those of order 2, 3 and 4 make chi^k trivial at
        # some k < n and at k = n.
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        ring = value_ring(f)
        rng = random.Random(f"untwisted:{q}")
        full_order = [j for j in range(1, q - 1) if math.gcd(j, q - 1) == 1]
        low_order = [(q - 1) // r for r in (2, 3, 4) if (q - 1) % r == 0]
        for j in rng.sample(full_order, 3) + low_order + [0]:
            chi = MultiplicativeCharacter(f, j)
            lam = AdditiveCharacter(f.element(rng.randrange(1, q)))
            g = classical_gauss_sum(chi, lam)
            power = g
            for n in range(1, 6):
                u_mat = random_invertible(f, n, rng)
                root = ring.root_power(chi.conjugate().exponent(u_mat.det()))
                expected = q ** math.comb(n, 2) * (power * root)
                assert gl_gauss_closed(u_mat, chi, lam) == expected, (j, n)
                power = power * g


class TestSlClosedForm:
    def test_one_by_one_is_lambda_of_entry(self):
        for q in (2, 3, 5, 4):
            f, _, lam = setup_field(q)
            for c in range(1, f.q):
                u_mat = MatrixFq(f, [[c]])
                assert sl_gauss_closed(u_mat, lam) == lam(f.element(c))

    def test_full_rank_uses_kloosterman(self):
        from matgauss.characters import kloosterman

        f, _, lam = setup_field(3)
        got = sl_gauss_closed(MatrixFq.identity(f, 2), lam)
        assert got == 3 * kloosterman(lam, 2, f.one())
        assert got == sl_gauss_bruteforce(MatrixFq.identity(f, 2), lam)

    def test_rank_one_2x2_is_minus_q(self):
        for q in (2, 3):
            f, _, lam = setup_field(q)
            u_mat = MatrixFq(f, [[1, 0], [0, 0]])
            assert sl_gauss_closed(u_mat, lam) == -q
            # oracle: sum of lambda(x_11) over SL_2
            assert sl_gauss_bruteforce(u_mat, lam) == -q

    def test_zero_matrix_counts_group(self):
        for q in (2, 3, 4):
            f, _, _ = setup_field(q)
            lam0 = AdditiveCharacter(f.zero())
            assert sl_gauss_bruteforce(MatrixFq.zero(f, 2), lam0) == sl_order(f, 2)


@pytest.mark.parametrize("u", [3, 2])
@pytest.mark.parametrize("closed", [
    lambda U, chi, lam: gl_gauss_closed(U, chi, lam),
    lambda U, chi, lam: sl_gauss_closed(U, lam),
    lambda U, chi, lam: oracle_report(U, chi, lam, check=False),
    lambda U, chi, lam: oracle_report(U, None, lam, check=False),
], ids=["gl", "sl", "gl-report", "sl-report"])
def test_one_elimination_per_closed_form(u, closed, monkeypatch):
    # rank and det of U come from one elimination, shared by case and value
    f, chi, lam = setup_field(5, chi_index=1)
    U = random_rank_matrix(f, 3, u, random.Random(f"one-elimination:{u}"))
    calls = []
    eliminate = matrix_fq._eliminate

    def counted(field, work):
        calls.append(len(work))
        return eliminate(field, work)

    monkeypatch.setattr(matrix_fq, "_eliminate", counted)
    closed(U, chi, lam)
    assert calls == [3]


class TestOracleSums:
    """The oracles against the literal sum, written out with the characters.

    Each group is enumerated literally, every matrix filtered by det; per U
    the members are tallied by the pair (det X, U . X), and the sum of
    chi(det X) * lam(U . X) is taken over the tally, every term through the
    characters' own ``__call__``.
    """

    @pytest.mark.parametrize("q", [4, 8, 9])
    def test_every_character_on_full_and_deficient_u(self, q):
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        ring = value_ring(f)
        rng = random.Random(f"oracle-sums:{q}")
        twists = (0, 1, rng.randrange(2, q))
        for U in (random_rank_matrix(f, 2, 2, rng), random_rank_matrix(f, 2, 1, rng)):
            gl = Counter((det, frobenius_product(U, X)) for X, det in literal_gl(f, 2))
            sl = Counter(frobenius_product(U, X) for X in literal_sl(f, 2))
            assert sum(gl.values()) == gl_order(f, 2)
            assert sum(sl.values()) == sl_order(f, 2)
            for a in twists:
                lam = AdditiveCharacter(f.element(a))
                expected = ring.zero()
                for t, count in sl.items():
                    expected = expected + count * lam(t)
                assert sl_gauss_bruteforce(U, lam) == expected, (U, a)
                for j in range(q - 1):
                    chi = MultiplicativeCharacter(f, j)
                    expected = ring.zero()
                    for (d, t), count in gl.items():
                        expected = expected + count * chi(d) * lam(t)
                    assert gl_gauss_bruteforce(U, chi, lam) == expected, (U, j, a)


@lru_cache(maxsize=None)
def per_member_reference(q, n):
    """Test matrices U for GL_n(F_q) with every member tallied per U.

    The U are a full-rank one, a rank-deficient one and one whose last row
    is zero.  The members come from the literal enumeration.  Per U the GL
    members are tallied by (det X, U . X), with det X from elimination, and
    the SL members by U . X; the trace tally counts tr X.
    """
    p, e = factor_prime_power(q)
    f = make_field(p, e)
    rng = random.Random(f"block-oracles:{q}:{n}")
    deficient = random_rank_matrix(f, n, n - 1, rng)
    zero_last = [list(row) for row in random_rank_matrix(f, n, n, rng).rows]
    zero_last[-1] = [0] * n
    mats = (random_rank_matrix(f, n, n, rng), deficient, MatrixFq(f, zero_last))
    gl = [Counter((det, frobenius_product(U, X)) for X, det in literal_gl(f, n)) for U in mats]
    sl = [Counter(frobenius_product(U, X) for X in literal_sl(f, n)) for U in mats]
    traces = Counter(X.trace().enc for X, _det in literal_gl(f, n))
    return f, mats, gl, sl, traces, rng.randrange(1, q)


class TestBlockOracles:
    """The block-by-block oracles against a per-member sum, on both paths."""

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "streaming"])
    @pytest.mark.parametrize("q,n", [
        (2, 2), (3, 2), (4, 2), (5, 2), (8, 2), (9, 2), (2, 3), (3, 3), (5, 1),
    ])
    def test_against_the_per_member_sum(self, q, n, cached, monkeypatch):
        f, mats, gl, sl, traces, twist = per_member_reference(q, n)
        if not cached:
            monkeypatch.setattr(matrix_fq, "_MEMBER_CACHE_MAX_INTS", 0)
        clear_member_cache()
        ring = value_ring(f)
        lam = AdditiveCharacter(f.element(twist))
        for U, gl_tally, sl_tally in zip(mats, gl, sl):
            assert sum(gl_tally.values()) == gl_order(f, n)
            assert sum(sl_tally.values()) == sl_order(f, n)
            expected = ring.zero()
            for t, count in sl_tally.items():
                expected = expected + count * lam(t)
            assert sl_gauss_bruteforce(U, lam) == expected, U
            for j in range(q - 1):
                chi = MultiplicativeCharacter(f, j)
                expected = ring.zero()
                for (d, t), count in gl_tally.items():
                    expected = expected + count * chi(d) * lam(t)
                assert gl_gauss_bruteforce(U, chi, lam) == expected, (U, j)
        assert ((f, n) in matrix_fq._GL_CACHE) == cached
        for beta in f.elements():
            assert count_trace_bruteforce(f, n, beta) == traces[beta.enc], beta


class TestOrders:
    def test_formula_values(self):
        assert gl_order(make_field(2), 1) == 1
        assert gl_order(make_field(2), 3) == 168  # 7 * 6 * 4
        assert gl_order(make_field(3), 2) == 48  # 8 * 6
        assert sl_order(make_field(3), 2) == 24


class TestTraceCounts:
    def test_small_grid_against_enumeration(self):
        for q, n in [(2, 2), (3, 2), (2, 3), (5, 2), (4, 2)]:
            p, e = factor_prime_power(q)
            f = make_field(p, e)
            for beta in f.elements():
                assert count_trace_closed(f, n, beta) == count_trace_bruteforce(f, n, beta)

    def test_frozen_values(self):
        f2, f3 = make_field(2), make_field(3)
        assert count_trace_closed(f2, 2, f2.element(0)) == 4
        assert count_trace_closed(f2, 2, f2.element(1)) == 2
        assert count_trace_closed(f3, 2, f3.element(0)) == 18
        assert count_trace_closed(f3, 2, f3.element(1)) == 15
        assert count_trace_closed(f3, 2, f3.element(2)) == 15

    def test_one_by_one(self):
        for q in (2, 3, 5, 9):
            p, e = factor_prime_power(q)
            f = make_field(p, e)
            assert count_trace_closed(f, 1, f.zero()) == 0
            assert count_trace_closed(f, 1, f.one()) == 1

    @pytest.mark.parametrize("n", [0, -1])
    def test_both_routes_refuse_a_dimension_below_one(self, n):
        f = make_field(3)
        for count in (count_trace_closed, count_trace_bruteforce):
            with pytest.raises(ValueError, match="dimension must be >= 1"):
                count(f, n, f.zero())

    def test_closed_form_refuses_a_dimension_past_the_matrix_bound(self, monkeypatch):
        # |GL_n| grows like q^(n^2): refuse past the matrix bound before computing it
        def no_order(*args):
            raise AssertionError("counted before the dimension check")

        monkeypatch.setattr(gauss_sums, "gl_order", no_order)
        f = make_field(2)
        with pytest.raises(ValueError, match="dimension"):
            count_trace_closed(f, matrix_fq.MAX_DIMENSION + 1, f.zero())

    def test_partition_identity(self):
        for q, n in [(2, 2), (3, 2), (2, 3), (4, 2)]:
            p, e = factor_prime_power(q)
            f = make_field(p, e)
            total = sum(count_trace_bruteforce(f, n, b) for b in f.elements())
            assert total == gl_order(f, n)


def test_formula_identity_all_small_prime_powers():
    prime_powers = []
    for q in range(2, 65):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        prime_powers.append(q)
    for q in prime_powers:
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        for n in range(1, 7):
            n0 = count_trace_closed(f, n, f.zero())
            n1 = count_trace_closed(f, n, f.one())
            assert n0 >= 0 and n1 >= 0
            assert n0 + (q - 1) * n1 == gl_order(f, n)


class TestFactorPrimePower:
    def test_valid(self):
        assert factor_prime_power(2) == (2, 1)
        assert factor_prime_power(8) == (2, 3)
        assert factor_prime_power(49) == (7, 2)
        assert factor_prime_power(27) == (3, 3)

    def test_invalid(self):
        for bad in (1, 6, 12, 0, 100):
            with pytest.raises(ValueError):
                factor_prime_power(bad)

    def test_size_refused_before_trial_division(self, monkeypatch):
        # the trial division up to sqrt(q) would take over a second here
        def no_trial_division(n):
            raise AssertionError("factored before the size check")

        monkeypatch.setattr(gauss_sums, "distinct_prime_factors", no_trial_division)
        with pytest.raises(ValueError, match="exceeds the budget"):
            factor_prime_power(100000000000031)


class TestBudgets:
    def test_oracles_respect_budget(self, monkeypatch):
        monkeypatch.setenv("GAUSS_SUMS_BUDGET", "3")
        f, chi, lam = setup_field(2)
        u_mat = MatrixFq.identity(f, 2)
        with pytest.raises(EnumerationBudgetError):
            gl_gauss_bruteforce(u_mat, chi, lam)
        with pytest.raises(EnumerationBudgetError):
            sl_gauss_bruteforce(u_mat, lam)
        with pytest.raises(EnumerationBudgetError):
            count_trace_bruteforce(f, 2, f.zero())


class TestVerifyGrid:
    def test_small_grid_all_verified(self):
        reports = verify_grid(2, [2, 3], samples=2, seed=11)
        assert reports
        for r in reports:
            assert r.verified is True
        checks = {r.check for r in reports}
        assert checks == {"closed-vs-oracle", "scaling-invariance", "gl-sl-ratio"}
        labels = {r.case_label for r in reports}
        assert "full-rank" in labels and "sl-deficient" in labels

    def test_deterministic_given_seed(self):
        a = verify_grid(2, [3], samples=2, seed=5)
        b = verify_grid(2, [3], samples=2, seed=5)
        assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]

    def test_ratio_identity_reports(self):
        reports = verify_grid(2, [5], samples=1, seed=0)
        ratio = [r for r in reports if r.check == "gl-sl-ratio"]
        assert ratio
        for r in ratio:
            assert r.u < r.n
            assert r.verified

    def test_rejects_bad_twist(self):
        with pytest.raises(ValueError):
            verify_grid(1, [3], lambda_twist=0)

    def test_budget_propagates(self, monkeypatch):
        monkeypatch.setenv("GAUSS_SUMS_BUDGET", "1000")
        with pytest.raises(EnumerationBudgetError):
            verify_grid(3, [5], samples=1)

    def test_first_oracle_refuses_before_any_closed_form(self, monkeypatch):
        # verify_grid has no budget check of its own: the oracle's must come first
        def no_closed_form(*args):
            raise AssertionError("closed form evaluated before the budget check")

        monkeypatch.setenv("GAUSS_SUMS_BUDGET", "2")
        monkeypatch.setattr(gauss_sums, "_closed", no_closed_form)
        with pytest.raises(EnumerationBudgetError, match="budget"):
            verify_grid(1, [3])


def test_report_serialization_round_trip():
    reports = verify_grid(1, [3], samples=1, seed=3)
    doc = reports[0].to_json_dict()
    assert set(doc) == {
        "check", "case_label", "u", "n", "p", "e", "q", "chi_index",
        "lambda_twist", "matrix", "closed_form", "oracle", "verified", "note",
    }
    assert doc["verified"] is True
    assert isinstance(doc["matrix"][0][0], int)


def test_report_verified_is_none_without_oracle():
    f, chi, lam = setup_field(2)
    rep = SumReport(
        check="closed-vs-oracle", case_label="full-rank", u=2, n=2,
        p=2, e=1, q=2, chi_index=0, lambda_twist=1,
        matrix=((1, 0), (0, 1)),
        closed_form=gl_gauss_closed(MatrixFq.identity(f, 2), chi, lam),
        oracle=None,
    )
    assert rep.verified is None
    assert rep.to_json_dict()["oracle"] is None


def test_oracle_report_refuses_an_over_order_field_before_any_table(monkeypatch):
    # the rank of U would build the field's tables; the character comes first
    f = over_order_field(monkeypatch)
    with pytest.raises(ValueError, match="order 1048574 exceeds the supported bound"):
        oracle_report(MatrixFq.identity(f, 2), None, AdditiveCharacter(f.element(1)), check=False)
    assert_no_tables(f)
