"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to stream them).
The shared grid covers every (n, q) pair small enough for exhaustive
enumeration while still exercising extension fields and n = 3; exact checks
use cyclotomic-integer equality with zero tolerance, magnitude checks use the
stated floating-point tolerances and nothing looser.
"""

import math
import random
from contextlib import contextmanager

from matgauss.characters import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    classical_gauss_sum,
    kloosterman,
    kloosterman_bruteforce,
    value_ring,
)
from matgauss.finite_field import make_field
from matgauss.gauss_sums import (
    count_trace_bruteforce,
    count_trace_closed,
    factor_prime_power,
    gl_gauss_bruteforce,
    gl_gauss_closed,
    gl_order,
    sl_gauss_bruteforce,
    sl_gauss_closed,
    sl_order,
)
from matgauss.matrix_fq import (
    MatrixFq,
    canonical_rank_matrix,
    gl_blocks,
    random_invertible,
    random_matrix,
    random_rank_matrix,
)

from literal_groups import literal_gl, literal_sl

GRID = [(1, 2), (1, 3), (1, 5), (1, 7), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3)]
RANDOM_SAMPLES = 5


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        try:
            factor_prime_power(q)
        except ValueError:
            continue
        out.append(q)
    return out


PRIME_POWERS_64 = _prime_powers(64)
PRIME_POWERS_16 = _prime_powers(16)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


def grid_field(q):
    p, e = factor_prime_power(q)
    f = make_field(p, e)
    lam = AdditiveCharacter(f.element(1))
    chis = [MultiplicativeCharacter(f, 0)]
    if q > 2:
        chis.append(MultiplicativeCharacter(f, 1))
    return f, lam, chis


def rank_sample(f, n, u, tag):
    rng = random.Random(f"acceptance:{tag}:{f.q}:{n}:{u}")
    mats = [canonical_rank_matrix(f, n, u)]
    mats.extend(random_rank_matrix(f, n, u, rng) for _ in range(RANDOM_SAMPLES))
    return mats


def test_gl_closed_form_matches_enumeration_everywhere():
    with criterion("GL closed form equals the enumeration oracle on the full grid"):
        for n, q in GRID:
            f, lam, chis = grid_field(q)
            for u in range(n + 1):
                for U in rank_sample(f, n, u, "gl"):
                    for chi in chis:
                        assert gl_gauss_closed(U, chi, lam) == gl_gauss_bruteforce(U, chi, lam), (
                            n, q, u, chi.index, U.rows)


def test_sl_closed_form_matches_enumeration_everywhere():
    with criterion("SL closed form equals the enumeration oracle on the full grid"):
        for n, q in GRID:
            f, lam, _ = grid_field(q)
            for u in range(n + 1):
                for U in rank_sample(f, n, u, "sl"):
                    assert sl_gauss_closed(U, lam) == sl_gauss_bruteforce(U, lam), (
                        n, q, u, U.rows)
            # full-rank inputs covering every nonzero determinant, so the
            # Kloosterman factor K_n(lambda, d) is exercised for each d
            for d in range(1, q):
                U = MatrixFq(f, [[d if i == j == n - 1 else (1 if i == j else 0)
                                  for j in range(n)] for i in range(n)])
                assert U.det().enc == d
                assert sl_gauss_closed(U, lam) == sl_gauss_bruteforce(U, lam), (n, q, d)


def test_trace_counts_match_everywhere():
    with criterion("invertible-trace counts: formulas equal enumeration, plus the "
                   "order identity up to n = 6, q = 64"):
        for n, q in GRID:
            f, _, _ = grid_field(q)
            for beta in f.elements():
                assert count_trace_closed(f, n, beta) == count_trace_bruteforce(f, n, beta)
        f2, f3 = make_field(2), make_field(3)
        assert count_trace_closed(f2, 2, f2.element(0)) == 4
        assert count_trace_closed(f2, 2, f2.element(1)) == 2
        assert count_trace_closed(f3, 2, f3.element(0)) == 18
        assert count_trace_closed(f3, 2, f3.element(1)) == 15
        for q in PRIME_POWERS_64:
            p, e = factor_prime_power(q)
            f = make_field(p, e)
            for n in range(1, 7):
                n0 = count_trace_closed(f, n, f.zero())
                n1 = count_trace_closed(f, n, f.one())
                assert n0 >= 0 and n1 >= 0
                assert n0 + (q - 1) * n1 == gl_order(f, n)


def test_scaling_invariance_of_the_gl_sum():
    with criterion("scaling invariance: sum(U) = chi(det PQ) * sum(PUQ), "
                   "100 seeded triples per grid point"):
        for n, q in GRID:
            f, lam, chis = grid_field(q)
            ring = value_ring(f)
            rng = random.Random(f"acceptance:invariance:{q}:{n}")
            for _ in range(100):
                U = random_matrix(f, n, rng)
                P = random_invertible(f, n, rng)
                Q = random_invertible(f, n, rng)
                moved = P @ U @ Q
                det_pq = P.det() * Q.det()
                for chi in chis:
                    lhs = gl_gauss_bruteforce(U, chi, lam)
                    rhs = gl_gauss_bruteforce(moved, chi, lam)
                    if not chi.is_trivial:
                        rhs = rhs * ring.root_power(chi.exponent(det_pq))
                    assert lhs == rhs, (n, q, chi.index, U.rows)


def test_sl_sum_is_gl_sum_over_q_minus_one_below_full_rank():
    with criterion("rank-deficient ratio: (q-1) * SL sum equals the trivial-chi GL sum"):
        for n, q in GRID:
            f, lam, chis = grid_field(q)
            for u in range(n):
                for U in rank_sample(f, n, u, "ratio"):
                    assert (q - 1) * sl_gauss_closed(U, lam) == gl_gauss_closed(U, chis[0], lam), (
                        n, q, u)


def test_vanishing_below_full_rank_with_nontrivial_chi():
    with criterion("vanishing: nontrivial chi and rank deficit force an exactly zero sum"):
        for n, q in GRID:
            if q == 2:
                continue  # no nontrivial character
            f, lam, chis = grid_field(q)
            chi = chis[1]
            for u in range(n):
                for U in rank_sample(f, n, u, "vanish"):
                    assert gl_gauss_closed(U, chi, lam).is_zero()
                    assert gl_gauss_bruteforce(U, chi, lam).is_zero(), (n, q, u, U.rows)


def test_magnitudes_and_bounds():
    margin = 3.5  # dominates 1 / prod_(i>=1) (1 - 2^-i) ~ 3.4627
    with criterion("magnitudes: |G| = sqrt(q), the Kloosterman bound, the uniform "
                   "sum bounds with margin 3.5, and rank-one sharpness"):
        # classical Gauss sums: |G(chi, lambda)| = sqrt(q), both nontrivial
        for q in PRIME_POWERS_64:
            if q == 2:
                continue
            p, e = factor_prime_power(q)
            f = make_field(p, e)
            lam = AdditiveCharacter(f.element(1))
            root_q = math.sqrt(q)
            for j in range(1, q - 1):
                g = classical_gauss_sum(MultiplicativeCharacter(f, j), lam)
                assert abs(g.abs_embed() - root_q) <= 1e-6 * root_q, (q, j)

        # hyper-Kloosterman bound |K_n| <= n * q^((n-1)/2)
        for q in PRIME_POWERS_16:
            p, e = factor_prime_power(q)
            f = make_field(p, e)
            lam = AdditiveCharacter(f.element(1))
            for n in range(1, 5):
                bound = n * q ** ((n - 1) / 2) + 1e-6
                for y in f.elements():
                    if y.enc:
                        assert kloosterman(lam, n, y).abs_embed() <= bound, (q, n, y.enc)

        # uniform bounds over nonzero U: GL within margin * q^(n^2 - n);
        # SL within margin * q^(3/2) for n = 2 and margin * q^(n^2 - n - 1) for n = 3
        for n, q in GRID:
            f, lam, chis = grid_field(q)
            gl_cap = margin * q ** (n * n - n)
            if n == 1:
                sl_cap = margin
            elif n == 2:
                sl_cap = margin * q**1.5
            else:
                sl_cap = margin * q ** (n * n - n - 1)
            for u in range(1, n + 1):
                for U in rank_sample(f, n, u, "bounds"):
                    assert gl_gauss_bruteforce(U, chis[0], lam).abs_embed() <= gl_cap, (n, q, u)
                    assert sl_gauss_bruteforce(U, lam).abs_embed() <= sl_cap, (n, q, u)

        # sharpness: rank one attains q^C * prod_(i=1..n-1) (q^i - 1) exactly
        for n, q in GRID:
            f, lam, chis = grid_field(q)
            U = canonical_rank_matrix(f, n, 1)
            value = gl_gauss_bruteforce(U, chis[0], lam)
            target = q ** math.comb(n, 2) * math.prod(q**i - 1 for i in range(1, n))
            if n == 1:
                # full-rank 1x1 case: the sum is -conj(chi)(det U), absolute value 1
                assert abs(value.abs_embed() - target) <= 1e-9
            else:
                assert value == -target, (n, q)


def test_kloosterman_dp_against_direct_enumeration():
    with criterion("hyper-Kloosterman DP equals direct enumeration (q <= 7, n <= 3)"):
        for q in (2, 3, 4, 5, 7):
            p, e = factor_prime_power(q)
            f = make_field(p, e)
            lam = AdditiveCharacter(f.element(1))
            for n in (1, 2, 3):
                for y in f.elements():
                    if y.enc:
                        assert kloosterman(lam, n, y) == kloosterman_bruteforce(lam, n, y), (
                            q, n, y.enc)


def test_kloosterman_dp_matches_its_fourier_expansion():
    # K_n(lambda, y) = (1/(q-1)) sum_j conj(chi_j)(y) G(chi_j, lambda)^n, a
    # route that reaches past enumeration.  The identity holds for any
    # consistent trace table, so it checks the CRT indexing, the convolution
    # and the ring reduction; the tally itself is checked by the enumeration
    # oracle and by |G| = sqrt(q).
    with criterion("hyper-Kloosterman DP equals its Fourier expansion over F_q^* "
                   "(q in {64, 81, 128}, n <= 4) and meets the Deligne bound at q = 256"):
        for q in (64, 81, 128):
            p, e = factor_prime_power(q)
            f = make_field(p, e)
            ring = value_ring(f)
            rng = random.Random(f"acceptance:fourier:{q}")
            lam = AdditiveCharacter(f.element(rng.randrange(1, q)))
            chis = [MultiplicativeCharacter(f, j) for j in range(q - 1)]
            gauss = [classical_gauss_sum(chi, lam) for chi in chis]
            for n in (2, 3, 4):
                powers = [g**n for g in gauss]
                for y in map(f.element, rng.sample(range(1, q), 2)):
                    total = ring.zero()
                    for chi, g in zip(chis, powers):
                        total = total + chi.conjugate()(y) * g
                    quotient = []
                    for c in total.coeffs:
                        d, r = divmod(c, q - 1)
                        assert r == 0, (q, n, y.enc, c)
                        quotient.append(d)
                    assert kloosterman(lam, n, y) == ring.element(quotient), (q, n, y.enc)

        f = make_field(2, 8)
        lam = AdditiveCharacter(f.element(random.Random("acceptance:deligne").randrange(1, 256)))
        for n in range(1, 5):
            bound = n * 256 ** ((n - 1) / 2) + 1e-6
            for y in f.elements():
                if y.enc:
                    assert kloosterman(lam, n, y).abs_embed() <= bound, (n, y.enc)


def test_group_orders_match_iterators():
    with criterion("group orders: enumeration counts match the product formulas"):
        for n, q in GRID:
            f, _, _ = grid_field(q)
            dets = [d for _prefix, _tr, block in gl_blocks(f, n) for d in block]
            assert len(literal_gl(f, n)) == len(dets) - dets.count(0) == gl_order(f, n), (n, q)
            assert len(literal_sl(f, n)) == dets.count(1) == sl_order(f, n), (n, q)
