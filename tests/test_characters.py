import copy
import math
import random

import pytest

from matgauss import finite_field
from matgauss.budget import EnumerationBudgetError
from matgauss.characters import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    _jacobi_tally,
    _kloosterman_levels,
    classical_gauss_sum,
    kloosterman,
    kloosterman_bruteforce,
    twisted_gauss_power,
    value_ring,
)
from matgauss.cyclotomic import get_ring
from matgauss.finite_field import make_field
from matgauss.gauss_sums import factor_prime_power

from test_finite_field import assert_no_tables

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


def field_and_chars(p, e, chi_index=1, twist=1):
    f = make_field(p, e)
    lam = AdditiveCharacter(f.element(twist))
    chi = MultiplicativeCharacter(f, chi_index if f.q > 2 else 0)
    return f, chi, lam


def over_order_field(monkeypatch):
    """F_(2^19), with every field table build made to fail: q = 2^19 is an
    accepted field, but its value ring's order m = 2 * (q - 1) = 1048574 is not."""
    def unreachable(field):
        raise AssertionError("field tables built for a field that cannot be evaluated")

    monkeypatch.setattr(finite_field, "_build_tables", unreachable)
    return make_field(2, 19)


class TestAdmission:
    """Constructing a character is the one place a field is admitted
    (``build_mult_table`` admits through it: tests/test_finite_field.py)."""

    @pytest.mark.parametrize("admit", [
        lambda f: AdditiveCharacter(f.element(1)),
        lambda f: MultiplicativeCharacter(f, 1),
    ], ids=["additive", "multiplicative"])
    def test_over_order_field_is_refused_before_any_table(self, monkeypatch, admit):
        f = over_order_field(monkeypatch)
        with pytest.raises(ValueError, match="order 1048574 exceeds the supported bound"):
            admit(f)
        assert_no_tables(f)


class TestValueSemantics:
    """Characters are immutable values: equal when built from equal
    arguments, hashed alike, and usable as cache keys."""

    def test_equal_twists_are_equal_and_hash_equal(self):
        f = make_field(3, 2)
        a, b = AdditiveCharacter(f.element(4)), AdditiveCharacter(make_field(3, 2).element(4))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != AdditiveCharacter(f.element(5))

    def test_field_and_index_decide_equality(self):
        f, g = make_field(5), make_field(7)
        chi = MultiplicativeCharacter(f, 2)
        assert chi == MultiplicativeCharacter(f, 2)
        assert hash(chi) == hash(MultiplicativeCharacter(f, 2))
        assert chi != MultiplicativeCharacter(f, 3)
        assert chi != MultiplicativeCharacter(g, 2)
        assert chi != AdditiveCharacter(f.element(2))

    @pytest.mark.parametrize("name", ["a", "field", "index", "other"])
    def test_attribute_assignment_raises(self, name):
        f = make_field(5)
        for char in (AdditiveCharacter(f.element(1)), MultiplicativeCharacter(f, 1)):
            with pytest.raises(AttributeError):
                setattr(char, name, 2)
            with pytest.raises(AttributeError):
                delattr(char, name)
        assert MultiplicativeCharacter(f, 1).index == 1

    def test_a_copy_is_an_equal_character(self):
        f = make_field(5)
        for char in (AdditiveCharacter(f.element(1)), MultiplicativeCharacter(f, 2)):
            dup = copy.copy(char)
            assert dup == char and type(dup) is type(char)

    def test_repr_names_the_class(self):
        f = make_field(5)
        assert repr(AdditiveCharacter(f.element(1))) == "AdditiveCharacter(a=F5(1))"
        assert repr(MultiplicativeCharacter(f, 2)) == (
            "MultiplicativeCharacter(field=Field(p=5, e=1), index=2)")

    def test_an_equal_twist_hits_the_kloosterman_cache(self):
        f = make_field(7)
        _kloosterman_levels.cache_clear()
        first = kloosterman(AdditiveCharacter(f.element(3)), 2, f.one())
        hits = _kloosterman_levels.cache_info().hits
        assert kloosterman(AdditiveCharacter(f.element(3)), 2, f.one()) == first
        assert _kloosterman_levels.cache_info().hits == hits + 1


class TestAdditiveCharacter:
    def test_value_at_zero_is_one(self):
        for p, e in SMALL_FIELDS:
            f = make_field(p, e)
            lam = AdditiveCharacter(f.element(1))
            assert lam(f.zero()) == 1

    def test_f2_sign_character(self):
        f = make_field(2)
        lam = AdditiveCharacter(f.element(1))
        assert lam(f.element(1)) == -1

    def test_f5_is_fifth_root_power(self):
        f = make_field(5)
        lam = AdditiveCharacter(f.element(1))
        m = value_ring(f).m  # 20
        assert lam(f.element(3)) == get_ring(m).root_power(3 * (f.q - 1))  # zeta_5^3 lifted

    @pytest.mark.parametrize("p,e", SMALL_FIELDS)
    def test_fully_multiplicative_over_addition(self, p, e):
        f = make_field(p, e)
        for twist in {1, f.q - 1}:
            lam = AdditiveCharacter(f.element(twist))
            for x in f.elements():
                for y in f.elements():
                    assert lam(x + y) == lam(x) * lam(y)

    @pytest.mark.parametrize("p,e", SMALL_FIELDS)
    def test_orthogonality(self, p, e):
        f = make_field(p, e)
        ring = value_ring(f)
        for a in f.elements():
            lam = AdditiveCharacter(a)
            total = ring.zero()
            for x in f.elements():
                total = total + lam(x)
            assert total == (f.q if a.is_zero() else 0)

    @pytest.mark.parametrize("p,e", [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
    def test_multiplicative_exhaustively_up_to_q_64(self, p, e):
        # values are single powers of zeta_m, so lam(x+y) = lam(x)lam(y)
        # is exactly the congruence of exponents mod m
        f = make_field(p, e)
        lam = AdditiveCharacter(f.element(1))
        m = value_ring(f).m
        exps = [lam.exponent(x) % m for x in f.elements()]
        add = f.add_enc
        for x in range(f.q):
            for y in range(f.q):
                assert exps[add(x, y)] == (exps[x] + exps[y]) % m


class TestMultiplicativeCharacter:
    def test_value_at_one_is_one(self):
        for p, e in SMALL_FIELDS:
            f = make_field(p, e)
            for j in range(f.q - 1):
                chi = MultiplicativeCharacter(f, j)
                assert chi(f.one()) == 1

    def test_trivial_character_is_constant(self):
        f = make_field(7)
        chi = MultiplicativeCharacter(f, 0)
        for x in f.elements():
            if x.enc:
                assert chi(x) == 1

    def test_quadratic_character_mod_five(self):
        f = make_field(5)
        chi = MultiplicativeCharacter(f, 2)
        assert chi(f.element(4)) == 1  # 4 = 2^2 is a QR mod 5
        assert chi(f.element(2)) == -1

    def test_evaluation_at_zero_raises(self):
        f = make_field(5)
        chi = MultiplicativeCharacter(f, 1)
        with pytest.raises(ZeroDivisionError):
            chi(f.zero())

    def test_index_out_of_range(self):
        f = make_field(5)
        with pytest.raises(ValueError):
            MultiplicativeCharacter(f, 4)
        with pytest.raises(ValueError):
            MultiplicativeCharacter(f, -1)

    @pytest.mark.parametrize("p,e", SMALL_FIELDS)
    def test_fully_multiplicative(self, p, e):
        f = make_field(p, e)
        nonzero = [x for x in f.elements() if x.enc]
        for j in {0, 1, f.q - 2} if f.q > 2 else {0}:
            chi = MultiplicativeCharacter(f, j)
            for x in nonzero:
                for y in nonzero:
                    assert chi(x * y) == chi(x) * chi(y)

    @pytest.mark.parametrize("p,e", SMALL_FIELDS)
    def test_orthogonality(self, p, e):
        f = make_field(p, e)
        ring = value_ring(f)
        for j in range(f.q - 1):
            chi = MultiplicativeCharacter(f, j)
            total = ring.zero()
            for x in f.elements():
                if x.enc:
                    total = total + chi(x)
            assert total == (f.q - 1 if j == 0 else 0)

    @pytest.mark.parametrize("p,e", [(5, 2), (3, 3), (2, 5), (7, 2), (2, 6)])
    def test_multiplicative_exhaustively_up_to_q_64(self, p, e):
        f = make_field(p, e)
        chi = MultiplicativeCharacter(f, 1)
        m = value_ring(f).m
        exps = [None] + [chi.exponent(f.element(x)) % m for x in range(1, f.q)]
        mul = f.mul_enc
        for x in range(1, f.q):
            for y in range(1, f.q):
                assert exps[mul(x, y)] == (exps[x] + exps[y]) % m

    def test_conjugate_inverts_values(self):
        f = make_field(7)
        for j in range(6):
            chi = MultiplicativeCharacter(f, j)
            bar = chi.conjugate()
            for x in f.elements():
                if x.enc:
                    assert chi(x) * bar(x) == 1


class TestClassicalGaussSum:
    def test_trivial_chi_nontrivial_lambda(self):
        for p, e in SMALL_FIELDS:
            f, _, lam = field_and_chars(p, e)
            chi0 = MultiplicativeCharacter(f, 0)
            assert classical_gauss_sum(chi0, lam) == -1

    def test_both_trivial(self):
        for p, e in [(2, 1), (3, 1), (2, 2)]:
            f = make_field(p, e)
            chi0 = MultiplicativeCharacter(f, 0)
            lam0 = AdditiveCharacter(f.zero())
            assert classical_gauss_sum(chi0, lam0) == f.q - 1

    def test_f3_quadratic(self):
        # two-term sum chi(1)lam(1) + chi(2)lam(2) = zeta_3 - zeta_3^2,
        # lifted to Z[zeta_6]: zeta_6^2 + zeta_6 = 2*zeta_6 - 1
        _, chi, lam = field_and_chars(3, 1)
        g = classical_gauss_sum(chi, lam)
        assert g == get_ring(6).root_power(2) + get_ring(6).root_power(1)
        assert g.abs_embed() == pytest.approx(math.sqrt(3))

    @pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 4)])
    def test_magnitude_is_sqrt_q_for_nontrivial_pairs(self, p, e):
        f = make_field(p, e)
        root_q = math.sqrt(f.q)
        for j in range(1, f.q - 1):
            chi = MultiplicativeCharacter(f, j)
            for twist in range(1, f.q):
                lam = AdditiveCharacter(f.element(twist))
                assert abs(classical_gauss_sum(chi, lam).abs_embed() - root_q) <= 1e-6 * root_q

    @pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 25, 27])
    def test_equals_the_literal_sum_for_every_character(self, q):
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        ring = value_ring(f)
        twist = random.Random(f"gauss:{q}").randrange(1, q)
        for a in {1, twist}:
            lam = AdditiveCharacter(f.element(a))
            for j in range(max(q - 1, 1)):
                chi = MultiplicativeCharacter(f, j)
                total = ring.zero()
                for x in f.elements():
                    if x.enc:
                        total = total + chi(x) * lam(x)
                assert classical_gauss_sum(chi, lam) == total, (q, a, j)

    @pytest.mark.parametrize("q", [4, 5, 8, 9])
    def test_twisting_lambda_by_b_multiplies_by_conj_chi_of_b(self, q):
        # conj(chi)(b) * G(chi, lambda_a) = G(chi, lambda_ab), which the GL
        # closed form uses to apply conj(chi)(det U)
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        for j in range(q - 1):
            chi = MultiplicativeCharacter(f, j)
            for a in range(1, q):
                g = classical_gauss_sum(chi, AdditiveCharacter(f.element(a)))
                for b in f.elements():
                    if b.enc:
                        twisted = AdditiveCharacter(f.element(a) * b)
                        assert chi.conjugate()(b) * g == classical_gauss_sum(chi, twisted), (j, a, b.enc)


def lifted_jacobi(f, j, k):
    """J(chi_j, chi_j^k) in Z[zeta_m], read from its tally of zeta_(q-1) powers."""
    counts = [0] * (f.p * (f.q - 1))
    counts[:: f.p] = _jacobi_tally(f, j, k)
    return value_ring(f).from_power_counts(counts)


class TestJacobiSums:
    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25, 27])
    def test_tally_equals_the_literal_sum(self, q):
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        ring = value_ring(f)
        one = f.one().enc
        for j in range(1, q - 1):
            chi = MultiplicativeCharacter(f, j)
            for k in {1, 2, q - 2}:
                psi = MultiplicativeCharacter(f, j * k % (q - 1))
                total = ring.zero()
                for x in f.elements():
                    if x.enc not in (0, one):
                        total = total + chi(x) * psi(f.element(f.sub_enc(one, x.enc)))
                assert lifted_jacobi(f, j, k) == total, (j, k)

    @pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 16, 25, 27])
    def test_norm_is_q(self, q):
        # J * conj(J) = q when chi, chi^k and chi^(k+1) are all nontrivial;
        # conj(J(chi, chi^k)) = J(conj chi, conj chi^k)
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        sub = get_ring(q - 1)
        for j in range(1, q - 1):
            for k in range(1, q - 1):
                if j * k % (q - 1) and j * (k + 1) % (q - 1):
                    jac = sub.from_power_counts(_jacobi_tally(f, j, k))
                    bar = sub.from_power_counts(_jacobi_tally(f, q - 1 - j, k))
                    assert jac * bar == q, (j, k)

    @pytest.mark.parametrize("q", [7, 9, 16, 25])
    def test_factors_a_product_of_gauss_sums(self, q):
        # G(chi) G(chi^k) = J(chi, chi^k) G(chi^(k+1)) for chi^(k+1) nontrivial
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        lam = AdditiveCharacter(f.element(random.Random(f"jacobi:{q}").randrange(1, q)))
        gauss = [classical_gauss_sum(MultiplicativeCharacter(f, j), lam) for j in range(q - 1)]
        for j in range(1, q - 1):
            for k in range(1, q - 1):
                if j * (k + 1) % (q - 1):
                    expected = lifted_jacobi(f, j, k) * gauss[j * (k + 1) % (q - 1)]
                    assert gauss[j] * gauss[j * k % (q - 1)] == expected, (j, k)


class TestTwistedGaussPower:
    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13])
    def test_every_character_against_repeated_products(self, q):
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        rng = random.Random(f"power:{q}")
        for j in range(max(q - 1, 1)):
            chi = MultiplicativeCharacter(f, j)
            lam = AdditiveCharacter(f.element(rng.randrange(1, q)))
            g = classical_gauss_sum(chi, lam)
            power = g
            for n in range(1, 6):
                y = f.element(rng.randrange(1, q))
                assert twisted_gauss_power(chi, lam, n, y) == chi.conjugate()(y) * power, (j, n)
                power = power * g

    def test_rejects_bad_arguments(self):
        f, chi, lam = field_and_chars(5, 1)
        with pytest.raises(ValueError):
            twisted_gauss_power(chi, lam, 0, f.one())
        with pytest.raises(ValueError):
            twisted_gauss_power(chi, lam, 2, f.zero())
        with pytest.raises(ValueError):
            twisted_gauss_power(chi, AdditiveCharacter(f.zero()), 2, f.one())
        with pytest.raises(ValueError):
            twisted_gauss_power(chi, lam, 2, make_field(7).one())


class TestKloosterman:
    def test_single_variable_reduces_to_lambda(self):
        for p, e in SMALL_FIELDS:
            f = make_field(p, e)
            lam = AdditiveCharacter(f.element(1))
            for y in f.elements():
                if y.enc:
                    assert kloosterman(lam, 1, y) == lam(y)

    def test_f2_two_variables(self):
        f = make_field(2)
        lam = AdditiveCharacter(f.element(1))
        assert kloosterman(lam, 2, f.one()) == 1  # lone term lam(1+1) = lam(0)

    def test_f3_two_variables(self):
        f = make_field(3)
        lam = AdditiveCharacter(f.element(1))
        # pairs with product 1: (1,1) and (2,2); lam(2) + lam(1) = -1
        assert kloosterman(lam, 2, f.one()) == -1

    def test_rejects_bad_arguments(self):
        f = make_field(3)
        lam = AdditiveCharacter(f.element(1))
        with pytest.raises(ValueError):
            kloosterman(lam, 0, f.one())
        with pytest.raises(ValueError):
            kloosterman(lam, 2, f.zero())
        with pytest.raises(ValueError):
            kloosterman_bruteforce(lam, 2, f.zero())

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dp_matches_enumeration(self, q, n):
        p, e = (q, 1) if q in (2, 3, 5, 7) else (2, 2)
        f = make_field(p, e)
        lam = AdditiveCharacter(f.element(1))
        for y in f.elements():
            if y.enc:
                assert kloosterman(lam, n, y) == kloosterman_bruteforce(lam, n, y)

    @pytest.mark.parametrize("q,max_n", [(8, 4), (9, 4), (16, 3), (25, 3), (27, 3)])
    def test_dp_matches_enumeration_on_extension_fields(self, q, max_n):
        p, e = factor_prime_power(q)
        f = make_field(p, e)
        twist = random.Random(f"kloosterman:{q}").randrange(2, q)
        for a in (1, twist):
            lam = AdditiveCharacter(f.element(a))
            for n in range(1, max_n + 1):
                for y in f.elements():
                    if y.enc:
                        assert kloosterman(lam, n, y) == kloosterman_bruteforce(lam, n, y), (
                            a, n, y.enc)

    def test_oversized_value_ring_fails_before_the_dlog_table(self, monkeypatch):
        f = over_order_field(monkeypatch)
        with pytest.raises(ValueError, match="exceeds the supported bound"):
            kloosterman(AdditiveCharacter(f.element(1)), 2, f.element(3))
        assert_no_tables(f)

    def test_enumeration_budget(self, monkeypatch):
        monkeypatch.setenv("GAUSS_SUMS_BUDGET", "10")
        f = make_field(7)
        lam = AdditiveCharacter(f.element(1))
        with pytest.raises(EnumerationBudgetError):
            kloosterman_bruteforce(lam, 3, f.one())

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
    def test_deligne_bound(self, q):
        from matgauss.gauss_sums import factor_prime_power

        p, e = factor_prime_power(q)
        f = make_field(p, e)
        lam = AdditiveCharacter(f.element(1))
        for n in range(1, 5):
            bound = n * q ** ((n - 1) / 2) + 1e-6
            for y in f.elements():
                if y.enc:
                    assert kloosterman(lam, n, y).abs_embed() <= bound
