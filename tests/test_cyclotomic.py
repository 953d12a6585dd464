import cmath
import math
import random
import tracemalloc

import pytest

from matgauss.cyclotomic import (
    CyclotomicInteger,
    CyclotomicRing,
    _mul_low,
    cyclotomic_polynomial,
    get_ring,
)

# little-endian coefficients of the first few cyclotomic polynomials,
# from the classical table
KNOWN_POLYNOMIALS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def naive_cyclotomic(m):
    """Oracle: divide x^m - 1 by the product of all proper-divisor factors,
    with exact integer long division."""
    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def div(a, b):
        a = list(a)
        q = [0] * (len(a) - len(b) + 1)
        for k in range(len(q) - 1, -1, -1):
            q[k], rem = divmod(a[k + len(b) - 1], b[-1])
            assert rem == 0
            for j, y in enumerate(b):
                a[k + j] -= q[k] * y
        assert not any(a)
        return q

    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = div(poly, list(naive_cyclotomic(d)))
    return tuple(poly)


def schoolbook_reduce(vec, m):
    """Oracle: long division of sum(vec[k] x^k) by Phi_m, with no folding."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    terms = [(j, c) for j, c in enumerate(phi[:d]) if c]
    rem = list(vec) + [0] * d
    for top in range(len(vec) - 1, d - 1, -1):
        c = rem[top]
        if c:
            for j, y in terms:
                rem[top - d + j] -= c * y
    return tuple(rem[:d])


def schoolbook_product(a, b, m):
    """Oracle: dense convolution, then long division by Phi_m."""
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return schoolbook_reduce(conv, m)


class TestCyclotomicPolynomial:
    @pytest.mark.parametrize("m,expected", sorted(KNOWN_POLYNOMIALS.items()))
    def test_known_table(self, m, expected):
        assert cyclotomic_polynomial(m) == expected

    @pytest.mark.parametrize("m", list(range(1, 31)) + [36, 60, 105])
    def test_against_naive_recursion(self, m):
        assert cyclotomic_polynomial(m) == naive_cyclotomic(m)

    def test_degree_is_euler_phi(self):
        phi = {1: 1, 2: 1, 6: 2, 12: 4, 30: 8, 100: 40, 210: 48}
        for m, expected in phi.items():
            assert len(cyclotomic_polynomial(m)) - 1 == expected

    def test_coefficient_beyond_one_appears_at_105(self):
        # the first m whose cyclotomic polynomial has a coefficient of size 2
        assert -2 in cyclotomic_polynomial(105)

    def test_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            cyclotomic_polynomial(0)
        with pytest.raises(ValueError):
            cyclotomic_polynomial(10**6 + 1)


def prime_factors(n):
    out, f = [], 2
    while n > 1:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return out


def euler_phi(n):
    primes = prime_factors(n)
    return n // math.prod(primes) * math.prod(f - 1 for f in primes)


def root_of_exact_order(m):
    """(l, r): the first prime l = 1 (mod m) and an r of multiplicative order m mod l."""
    primes = prime_factors(m)
    ell = next(
        ell for ell in range(m + 1, 10**9, m) if all(ell % f for f in range(2, math.isqrt(ell) + 1))
    )
    for a in range(2, ell):
        r = pow(a, (ell - 1) // m, ell)
        if all(pow(r, m // f, ell) != 1 for f in primes):
            return ell, r
    raise AssertionError("F_l^* is cyclic")


# the value rings m = p(q - 1) of every benchmark field (726 = 2 * 3 * 11^2),
# q = 2^16's, and the odd 105 and 1155 that reduce without the fold
PAST_NAIVE_ORDERS = [62, 105, 126, 336, 726, 930, 1155, 1332, 1806, 2046, 2394, 3120, 131070]


class TestPastTheNaiveOracle:
    @pytest.mark.parametrize("m", PAST_NAIVE_ORDERS)
    def test_monic_palindromic_of_degree_phi(self, m):
        poly = cyclotomic_polynomial(m)
        assert len(poly) - 1 == euler_phi(m)
        assert poly[-1] == 1
        assert poly == poly[::-1]

    @pytest.mark.parametrize("m", PAST_NAIVE_ORDERS)
    def test_vanishes_at_a_primitive_root_of_unity_mod_a_prime(self, m):
        ell, r = root_of_exact_order(m)
        value = 0
        for c in reversed(cyclotomic_polynomial(m)):
            value = (value * r + c) % ell
        assert value == 0

    @pytest.mark.parametrize("m", PAST_NAIVE_ORDERS)
    def test_inverse_series_has_the_length_a_reduction_reads(self, m):
        ring = CyclotomicRing(m)
        ring.from_power_counts([1])  # builds the inverse
        # a reduction divides at most m/2 terms (m even, after the fold by
        # zeta^(m/2) = -1) or m terms by Phi_m, whose degree is phi(m)
        n = (m // 2 if m % 2 == 0 else m) - euler_phi(m)
        assert len(ring._inverse) == n
        assert _mul_low(ring.polynomial, ring._inverse, n) == [1] + [0] * (n - 1)


class TestRootPowers:
    def test_power_zero_is_one(self):
        for m in (1, 2, 5, 12):
            assert get_ring(m).root_power(0) == 1

    def test_zeta_two_is_minus_one(self):
        assert get_ring(2).root_power(1) == -1

    def test_zeta_four_cubed(self):
        assert get_ring(4).root_power(3).coeffs == (0, -1)

    def test_full_cycle(self):
        for m in range(1, 25):
            assert get_ring(m).root_power(m) == 1
            assert get_ring(m).root_power(-1) == get_ring(m).root_power(m - 1)

    def test_all_powers_sum_to_zero(self):
        for m in range(2, 31):
            total = get_ring(m).zero()
            for k in range(m):
                total = total + get_ring(m).root_power(k)
            assert total.is_zero()

    @pytest.mark.parametrize("m", [7, 12, 30, 100, 360, 3660])
    def test_embedding_round_trip(self, m):
        rng = random.Random(f"roundtrip:{m}")
        ks = {0, 1, m - 1} | {rng.randrange(m) for _ in range(20)}
        for k in ks:
            v = get_ring(m).root_power(k)
            target = cmath.exp(2j * cmath.pi * k / m)
            total = sum(
                c * cmath.exp(2j * cmath.pi * i / m)
                for i, c in enumerate(v.coeffs)
                if c
            )
            assert abs(total - target) <= 1e-9


class TestRingArithmetic:
    def test_one_plus_minus_one(self):
        one = get_ring(4).one()
        assert (one + (-one)).is_zero()

    def test_cube_roots_sum(self):
        # 1 + zeta + zeta^2 = 0 for the third roots of unity
        assert get_ring(3).root_power(1) + get_ring(3).root_power(2) == -1

    def test_zeta4_squared(self):
        assert get_ring(4).root_power(1) * get_ring(4).root_power(1) == -1

    def test_mixed_orders_raise(self):
        with pytest.raises(ValueError):
            get_ring(4).root_power(1) + get_ring(6).root_power(1)
        with pytest.raises(ValueError):
            get_ring(4).root_power(1) * get_ring(6).root_power(1)

    def test_integer_promotion(self):
        v = get_ring(5).root_power(2)
        assert (v + 0) == v
        assert 3 * v == v + v + v
        assert (1 - v) + v == 1

    @pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 12])
    def test_ring_axioms_random(self, m):
        ring = get_ring(m)
        rng = random.Random(f"axioms:{m}")

        def rand():
            return ring.element([rng.randint(-9, 9) for _ in range(ring.degree)])

        for _ in range(40):
            a, b, c = rand(), rand(), rand()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_powers_match_repeated_multiplication(self):
        v = get_ring(12).root_power(5) + 2
        acc = get_ring(12).one()
        for k in range(6):
            assert v**k == acc
            acc = acc * v

    def test_power_makes_one_product_per_square_and_per_extra_bit(self, monkeypatch):
        calls = []
        mul = CyclotomicInteger.__mul__

        def counting(self, other):
            calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(CyclotomicInteger, "__mul__", counting)
        v = get_ring(12).root_power(5) + 2
        for k in range(10):
            calls.clear()
            v**k
            expected = k.bit_length() - 1 + bin(k).count("1") - 1 if k else 0
            assert len(calls) == expected, k

    @pytest.mark.parametrize("m", [4, 6, 12, 30])
    def test_abs_is_multiplicative(self, m):
        ring = get_ring(m)
        rng = random.Random(f"absmul:{m}")
        for _ in range(25):
            a = ring.element([rng.randint(-5, 5) for _ in range(ring.degree)])
            b = ring.element([rng.randint(-5, 5) for _ in range(ring.degree)])
            lhs = (a * b).abs_embed()
            rhs = a.abs_embed() * b.abs_embed()
            assert abs(lhs - rhs) <= 1e-6 * max(1.0, rhs)

    def test_abs_of_integers(self):
        assert get_ring(5).zero().abs_embed() == 0.0
        assert get_ring(5).from_int(-7).abs_embed() == pytest.approx(7.0)
        assert get_ring(8).from_int(3).abs_embed() == pytest.approx(3.0)


class TestPowerCounts:
    def test_counts_match_explicit_sum(self):
        ring = get_ring(12)
        rng = random.Random("counts")
        for _ in range(10):
            counts = [rng.randint(0, 4) for _ in range(12)]
            via_counts = ring.from_power_counts(counts)
            explicit = ring.zero()
            for k, c in enumerate(counts):
                explicit = explicit + c * get_ring(12).root_power(k)
            assert via_counts == explicit

    def test_indices_wrap_modulo_m(self):
        ring = get_ring(5)
        counts = [0] * 9
        counts[7] = 3  # zeta^7 = zeta^2
        assert ring.from_power_counts(counts) == 3 * get_ring(5).root_power(2)

    @pytest.mark.parametrize("m", [1, 2, 12, 105, 126])
    def test_fold_keeps_the_value_in_fewer_terms(self, m):
        ring = get_ring(m)
        rng = random.Random(f"fold:{m}")
        counts = [rng.randint(-9, 9) for _ in range(3 * m - 1)]
        folded = ring.fold(counts)
        assert len(folded) == (m // 2 if m % 2 == 0 else m)
        assert schoolbook_reduce(folded, m) == schoolbook_reduce(counts, m)


# Phi_105 has a coefficient -2; 930, 2046 and 3120 (the value rings of
# q = 31, 1024 and 625) have four distinct prime factors.  Every even order
# takes the fold by zeta^(m/2) = -1: at m = 2 and 4 it is the whole
# reduction (Phi_m = x^(m/2) + 1), while 12 and 1332 (the value ring of
# q = 37), divisible by 4, still divide by Phi_m after it.  The odd orders
# 1 and 105 skip the fold.
SCHOOLBOOK_ORDERS = [1, 2, 4, 12, 105, 930, 1332, 2046, 3120]
BIG = 10**12


class TestAgainstSchoolbook:
    @pytest.mark.parametrize("m", SCHOOLBOOK_ORDERS)
    def test_products(self, m):
        ring = get_ring(m)
        d = ring.degree
        rng = random.Random(f"schoolbook-mul:{m}")
        # random signs, every product coefficient at the slot bound, and
        # coefficients narrow enough for 8-byte machine slots
        pairs = [
            ([rng.randint(-BIG, BIG) for _ in range(d)], [rng.randint(-BIG, BIG) for _ in range(d)]),
            ([-BIG] * d, [BIG] * d),
            ([BIG] * d, [rng.choice((-1, 0, 1)) for _ in range(d)]),
        ]
        for a, b in pairs:
            assert (ring.element(a) * ring.element(b)).coeffs == schoolbook_product(a, b, m)

    @pytest.mark.parametrize("m", SCHOOLBOOK_ORDERS)
    def test_power_counts(self, m):
        ring = get_ring(m)
        rng = random.Random(f"schoolbook-counts:{m}")
        vectors = [
            [rng.randint(-BIG, BIG) for _ in range(m)],
            [-BIG] * m,
            [rng.randint(-BIG, BIG) for _ in range(2 * m + 3)],
        ]
        # lengths on either side of the fold by zeta^(m/2) = -1
        vectors += [[rng.randint(-BIG, BIG) for _ in range(m // 2 + k)] for k in (-1, 0, 1)]
        for counts in vectors:
            assert ring.from_power_counts(counts).coeffs == schoolbook_reduce(counts, m)

    def test_every_root_power(self):
        # on m = 12, zeta^k with k >= 6 goes through the fold by zeta^6 = -1
        for m in (12, 105):
            ring = get_ring(m)
            for k in range(m):
                unit = [0] * (k + 1)
                unit[k] = 1
                assert ring.root_power(k).coeffs == schoolbook_reduce(unit, m), (m, k)


def test_reduction_memory_is_linear_in_m():
    # the value ring of q = 61: m = 3660, phi(m) = 960
    ring = CyclotomicRing(3660)
    rng = random.Random("memory")
    counts = [rng.randrange(61) for _ in range(ring.m)]
    tracemalloc.start()
    try:
        root = ring.root_power(ring.m - 1)
        value = ring.from_power_counts(counts)
        value * root
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


@pytest.mark.parametrize("op", ["reduce", "add", "sub", "neg", "int-mul"])
def test_repeated_reductions_in_a_small_ring_keep_no_memory(op):
    # Z[zeta_30], degree 8, is the Jacobi sums' ring at q = 31; a value
    # tuple that CPython keeps on a free list once freed stays traced
    ring = CyclotomicRing(30)
    counts = list(range(30))
    v = ring.from_power_counts(counts)
    run = {
        "reduce": lambda: ring.from_power_counts(counts),
        "add": lambda: v + v,
        "sub": lambda: v - v,
        "neg": lambda: -v,
        "int-mul": lambda: 3 * v,  # q**C * value in every closed form
    }[op]
    run()
    tracemalloc.start()
    try:
        for _ in range(500):
            run()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 4096


def test_json_serialization_shape():
    v = get_ring(6).root_power(1) * 2 - 1
    doc = v.to_json_dict()
    assert doc["m"] == 6
    assert doc["coeffs"] == [-1, 2]
    assert doc["abs"] == pytest.approx(math.sqrt(3))
