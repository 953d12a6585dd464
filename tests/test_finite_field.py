import random

import pytest

from matgauss import build_mult_table, finite_field
from matgauss.finite_field import (
    Field,
    _poly_mulmod,
    _poly_powmod,
    is_prime,
    make_field,
)
from matgauss.gauss_sums import count_trace_closed, factor_prime_power


def brute_irreducible(coeffs, p):
    """Degree-2/3 irreducibility by root search; the oracle for modulus picks."""
    deg = len(coeffs) - 1
    assert deg in (2, 3)
    for r in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    return True


class TestConstruction:
    def test_prime_field(self):
        f = make_field(2, 1)
        assert f.q == 2
        assert [x.enc for x in f.elements()] == [0, 1]

    def test_f4_modulus_is_the_unique_irreducible_quadratic(self):
        f = make_field(2, 2)
        assert f.q == 4
        assert f.modulus == (1, 1, 1)  # x^2 + x + 1
        # oracle: exhaust all monic quadratics over F_2
        irreducibles = [
            (c0, c1, 1)
            for c0 in range(2)
            for c1 in range(2)
            if brute_irreducible([c0, c1, 1], 2)
        ]
        assert irreducibles == [(1, 1, 1)]

    def test_f9_modulus_is_first_irreducible_in_encoding_order(self):
        f = make_field(3, 2)
        assert f.modulus == (1, 0, 1)  # x^2 + 1
        assert brute_irreducible([1, 0, 1], 3)
        # nothing earlier in encoding order is irreducible
        assert not brute_irreducible([0, 0, 1], 3)

    def test_larger_extensions_have_irreducible_moduli(self):
        for p, e in [(2, 3), (2, 6), (3, 3), (5, 2), (7, 2)]:
            f = make_field(p, e)
            assert len(f.modulus) == e + 1
            assert f.modulus[-1] == 1
            if e <= 3:
                assert brute_irreducible(list(f.modulus), p)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            make_field(4, 1)
        with pytest.raises(ValueError):
            make_field(1, 1)
        with pytest.raises(ValueError):
            make_field(2, 0)
        with pytest.raises(ValueError):
            make_field(2, 25)  # 2^25 over the default budget

    @pytest.mark.parametrize("p,e", [(100000000000031, 1), (3, 10**7)])
    def test_size_refused_before_primality_and_power(self, p, e, monkeypatch):
        # raw CLI input: trial division up to sqrt(p), or 3^(10^7) itself,
        # would take seconds before the size check refused it
        def no_trial_division(n):
            raise AssertionError("is_prime ran before the size check")

        monkeypatch.setattr(finite_field, "is_prime", no_trial_division)
        with pytest.raises(ValueError, match="exceeds the budget"):
            make_field(p, e)

    def test_same_parameters_share_construction(self):
        assert make_field(3, 2) is make_field(3, 2)


class TestArithmetic:
    def test_f4_multiplication(self):
        f = make_field(2, 2)
        x = f.element(2)
        assert (x * x).enc == 3  # x^2 = x + 1 mod (x^2 + x + 1)

    def test_inverse_examples(self):
        f5 = make_field(5)
        assert f5.element(2).inv().enc == 3  # 2*3 = 6 = 1 mod 5
        for p, e in [(2, 1), (3, 1), (2, 2), (3, 2), (7, 1)]:
            f = make_field(p, e)
            assert f.one().inv() == f.one()

    def test_inverse_of_zero_raises(self):
        f = make_field(3)
        with pytest.raises(ZeroDivisionError):
            f.zero().inv()

    def test_mixed_fields_raise(self):
        a = make_field(3).element(1)
        b = make_field(5).element(1)
        with pytest.raises(ValueError):
            a + b

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)])
    def test_field_axioms_exhaustive(self, p, e):
        f = make_field(p, e)
        elems = list(f.elements())
        one = f.one()
        for x in elems:
            if x.enc:
                assert x * x.inv() == one
                assert x ** (f.q - 1) == one  # Lagrange
            assert (x ** f.q) == x
        for x in elems:
            for y in elems:
                assert x + y == y + x
                assert x * y == y * x
                # Frobenius is additive
                assert (x + y) ** p == x**p + y**p

    @pytest.mark.parametrize("p,e", [(2, 2), (3, 2), (2, 4), (5, 2)])
    def test_distributivity_exhaustive_pairs(self, p, e):
        f = make_field(p, e)
        elems = list(f.elements())
        z = elems[min(3, len(elems) - 1)]
        for x in elems:
            for y in elems:
                assert x * (y + z) == x * y + x * z


def digits(f, a):
    return [a // f.p**i % f.p for i in range(f.e)]


def from_digits(f, ds):
    return sum(d * f.p**i for i, d in enumerate(ds))


def ref_add(f, a, b):
    return from_digits(f, [(x + y) % f.p for x, y in zip(digits(f, a), digits(f, b))])


def ref_neg(f, a):
    return from_digits(f, [-x % f.p for x in digits(f, a)])


def ref_mul(f, a, b):
    return from_digits(f, _poly_mulmod(digits(f, a), digits(f, b), list(f.modulus), f.p))


def ref_pow(f, a, k):
    """a^k for k >= 0 by k polynomial products."""
    acc = 1
    for _ in range(k):
        acc = ref_mul(f, acc, a)
    return acc


def check_ops_against_definition(f, pairs):
    for a, b in pairs:
        assert f.add_enc(a, b) == ref_add(f, a, b)
        assert f.sub_enc(a, b) == ref_add(f, a, ref_neg(f, b))
        assert f.mul_enc(a, b) == ref_mul(f, a, b)


def check_unary_ops_against_definition(f, elems, exponents):
    for a in elems:
        assert f.neg_enc(a) == ref_neg(f, a)
        assert f.add_enc(a, f.neg_enc(a)) == 0
        if f.p == 2:
            assert f.add_enc(a, a) == 0
        for k in exponents:
            assert f.pow_enc(a, k) == ref_pow(f, a, k)
        if a:
            assert ref_mul(f, a, f.inv_enc(a)) == 1
            for k in (-1, -2, -5):
                assert ref_mul(f, f.pow_enc(a, k), ref_pow(f, a, -k)) == 1


class TestAgainstPolynomialDefinition:
    """The log/antilog/Zech tables against digit-wise sums and polynomial
    products; a wrong but self-consistent table would pass the axiom tests."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27, 31, 32])
    def test_every_pair(self, q):
        f = make_field(*factor_prime_power(q))
        elems = range(q)
        check_ops_against_definition(f, [(a, b) for a in elems for b in elems])
        check_unary_ops_against_definition(f, elems, (0, 1, 2, 3, 7, q - 1, q, 2 * q + 1))

    @pytest.mark.parametrize("q", [243, 1024])
    def test_seeded_pairs(self, q):
        f = make_field(*factor_prime_power(q))
        rng = random.Random(q)
        elems = [0, 1, q - 1] + [rng.randrange(q) for _ in range(40)]
        edges = elems[:3]
        pairs = [(a, b) for a in edges for b in elems] + [(b, a) for a in edges for b in elems]
        pairs += [(rng.randrange(q), rng.randrange(q)) for _ in range(400)]
        check_ops_against_definition(f, pairs)
        check_unary_ops_against_definition(f, elems, (0, 1, 2, 3, 7, 100))

    def test_zero_power(self):
        for q in (2, 9, 31):
            f = make_field(*factor_prime_power(q))
            assert f.pow_enc(0, 0) == 1
            assert f.pow_enc(0, 3) == 0
            with pytest.raises(ZeroDivisionError):
                f.pow_enc(0, -1)


class TestTrace:
    def test_trace_of_zero(self):
        for p, e in [(2, 2), (3, 2), (5, 1)]:
            f = make_field(p, e)
            assert f.trace_enc(f.zero().enc) == 0

    def test_trace_in_f4(self):
        f = make_field(2, 2)
        assert f.trace_enc(f.element(2).enc) == 1  # x + x^2 = 1

    def test_trace_identity_on_prime_field(self):
        f = make_field(7)
        for x in f.elements():
            assert f.trace_enc(x.enc) == x.enc

    @pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (3, 3), (5, 2), (7, 2)])
    def test_table_equals_the_sum_of_conjugates(self, p, e):
        # tr(x) = x + x^p + ... + x^(p^(e-1)), an element of the prime field
        f = make_field(p, e)
        for x in f.elements():
            total = f.zero()
            for i in range(e):
                total = total + x ** (p**i)
            assert f.trace_enc(x.enc) == total.enc

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
    def test_trace_additive_and_surjective(self, p, e):
        f = make_field(p, e)
        seen = set()
        elems = list(f.elements())
        for x in elems:
            seen.add(f.trace_enc(x.enc))
        assert seen == set(range(p))
        for x in elems[:16]:
            for y in elems:
                assert f.trace_enc((x + y).enc) == (f.trace_enc(x.enc) + f.trace_enc(y.enc)) % p


class TestMultTable:
    # the generator g is the antilog entry _exp[1], and _log is the dlog
    def test_f2_table(self):
        f = make_field(2)
        assert build_mult_table(f) is f
        assert f._exp[1] == 1
        assert f._log[1] == 0

    def test_f5_generator_and_dlog(self):
        f = make_field(5)
        assert build_mult_table(f) is f
        assert f._exp[1] == 2  # smallest primitive root mod 5
        assert f._log[4] == 2  # 2^2 = 4

    def test_f7_skips_non_generator(self):
        # 2 has order 3 mod 7 (2, 4, 1); 3 has order 6
        f = make_field(7)
        assert build_mult_table(f) is f
        assert f._exp[1] == 3

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (7, 1), (2, 2), (2, 4), (3, 2), (13, 1)])
    def test_dlog_round_trip(self, p, e):
        f = make_field(p, e)
        assert build_mult_table(f) is f
        g = f.element(f._exp[1])
        for x in f.elements():
            if x.enc:
                assert g ** f._log[x.enc] == x
        logs = [f._log[x] for x in range(1, f.q)]
        assert sorted(logs) == list(range(f.q - 1))

    def test_oversized_field_fails_before_the_dlog_table(self, monkeypatch):
        # q = 2^19 is an accepted field, but m = 2 * (q - 1) = 1048574 is not
        def unreachable(self, *args):
            raise AssertionError("dlog table work for a field that cannot be evaluated")

        f = make_field(2, 19)  # the modulus search itself uses _poly_powmod
        for name in ("mul_enc", "pow_enc"):
            monkeypatch.setattr(Field, name, unreachable)
        for name in ("_poly_mulmod", "_poly_powmod", "_build_tables"):
            monkeypatch.setattr(finite_field, name, unreachable)
        with pytest.raises(ValueError, match="order 1048574 exceeds the supported bound"):
            build_mult_table(f)
        assert_no_tables(f)

    def test_largest_field_and_its_trace_count_build_no_table(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("field tables built where no arithmetic is needed")

        monkeypatch.setattr(finite_field, "_build_tables", unreachable)
        f = make_field(2, 20)
        assert count_trace_closed(f, 2, f.zero()) > 0
        assert count_trace_closed(f, 3, f.one()) > 0
        assert_no_tables(f)


def assert_no_tables(f):
    # read the slots directly: a plain attribute read would build them
    for name in ("_exp", "_log", "_zech"):
        with pytest.raises(AttributeError):
            getattr(Field, name).__get__(f, Field)


def walked_tables(f):
    """Oracle: the antilog, log and Zech tables by one polynomial product by g per element."""
    p, q = f.p, f.q
    modulus = list(f.modulus)
    one = [1] + [0] * (f.e - 1)
    primes = [r for r in range(2, q) if (q - 1) % r == 0 and is_prime(r)]
    g = next(g for g in range(1, q)
             if all(_poly_powmod(digits(f, g), (q - 1) // r, modulus, p) != one for r in primes))
    exp, log, acc = [], [-1] * q, one
    for k in range(q - 1):
        enc = from_digits(f, acc)
        exp.append(enc)
        log[enc] = k
        acc = _poly_mulmod(acc, digits(f, g), modulus, p)
    assert acc == one
    zech = [log[from_digits(f, [(x + 1) % p] + digits(f, x)[1:])] for x in exp]
    return tuple(exp * 2), tuple(log), tuple(zech * 2)


@pytest.mark.parametrize("p,e", [(3, 5), (7, 3), (5, 4), (2, 10), (3, 7)])
def test_tables_equal_the_polynomial_walk(p, e):
    assert finite_field._build_tables(make_field(p, e)) == walked_tables(make_field(p, e))


class TestEnumeration:
    def test_orders(self):
        assert [x.enc for x in make_field(2).elements()] == [0, 1]
        assert [x.enc for x in make_field(3).elements()] == [0, 1, 2]
        f4 = make_field(2, 2)
        elems = list(f4.elements())
        assert [x.coeffs for x in elems] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_count(self):
        for p, e in [(2, 3), (3, 2), (5, 2)]:
            assert sum(1 for _ in make_field(p, e).elements()) == p**e


def test_is_prime_small_values():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
