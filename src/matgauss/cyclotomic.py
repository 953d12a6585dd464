"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

A value is an integer vector in the power basis 1, zeta, ..., zeta^(phi(m)-1),
always reduced modulo the m-th cyclotomic polynomial Phi_m, so ring equality
is plain coefficient comparison.  Coefficients are Python ints and never
overflow, which matters because brute-force character sums can run over
groups with ~10^7 elements.

Character sums are most naturally accumulated as integer multiples of powers
zeta^k with 0 <= k < m; ``CyclotomicRing.from_power_counts`` turns such a
tally into a canonical value, and root powers and products reduce through it
too.  It needs O(m) memory: products are big-int products (Kronecker
substitution) and Phi_m is divided out through its power-series inverse.
Phi_m and that inverse are truncated sparse products of the Moebius factors
(1 - x^k)^(+-1), each one pass over the coefficients it changes.

A double-precision complex embedding is provided for magnitude checks only;
it is never used to decide equality.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
from array import array
from functools import lru_cache

MAX_ORDER = 10**6


def distinct_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending (empty for n <= 1)."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _moebius_series(m: int, n: int, inverse: bool = False) -> list[int]:
    """The first n coefficients of Phi_m, or of 1/Phi_m, as a power series (m > 1).

    Phi_m is the product over the squarefree divisors t of m of
    (1 - x^(m/t))^mu(t) (Arnold & Monagan, Math. Comp. 80, 2011), and a
    factor with m/t >= n is 1 modulo x^n, so only the others are applied:
    a product by 1 - x^k is one shifted subtraction and a quotient a running
    sum with stride k.  The inverse negates every exponent.  Products come
    first, so each step is the low part of a polynomial with small
    coefficients.
    """
    if not n:
        return []
    primes = distinct_prime_factors(m)
    mul_degrees: list[int] = []
    div_degrees: list[int] = []
    for mask in range(1 << len(primes)):
        k = m // math.prod(pr for i, pr in enumerate(primes) if mask >> i & 1)
        if k < n:
            odd = bin(mask).count("1") % 2 == 1
            (div_degrees if odd != inverse else mul_degrees).append(k)
    f = [1] + [0] * (n - 1)
    for k in sorted(mul_degrees):
        f[k:] = map(operator.sub, f[k:], f[: n - k])
    for k in sorted(div_degrees):
        if k * k < n:
            for r in range(k):
                f[r::k] = itertools.accumulate(f[r::k])
        else:
            for j in range(k, n, k):
                f[j : j + k] = map(operator.add, f[j : j + k], f[j - k : j])
    return f


def check_order(m: int) -> None:
    """Reject a ring order past MAX_ORDER."""
    if m > MAX_ORDER:
        raise ValueError(f"order {m} exceeds the supported bound {MAX_ORDER}")


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, little-endian."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"order must be a positive integer, got {m}")
    check_order(m)
    if m == 1:
        return (-1, 1)
    d = m
    for pr in distinct_prime_factors(m):
        d = d // pr * (pr - 1)
    # Phi_m is palindromic for m > 1: build its low half and mirror it
    low = _moebius_series(m, d // 2 + 1)
    return tuple(low + low[d - len(low) :: -1])


# array typecode of each machine-integer width in bytes; slots are
# little-endian, so other machines take the generic byte path
_MACHINE_TYPES = {array(code).itemsize: code for code in "qihb"} if sys.byteorder == "little" else {}


def _bias(n: int, w: int) -> int:
    """2^(8w-1), the sign bit of a w-byte slot, in each of n slots."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def _pack(v, w: int) -> int:
    """sum(v[i] * 2^(8wi)), built from v's w-byte two's-complement slots."""
    code = _MACHINE_TYPES.get(w)
    if code:
        raw = array(code, v).tobytes()
    else:
        raw = b"".join([c.to_bytes(w, "little", signed=True) for c in v])
    # flipping every sign bit turns each slot into its value plus the bias
    bias = _bias(len(v), w)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(x: int, n: int, w: int) -> list[int]:
    """The n lowest signed w-byte slots of x; the inverse of _pack."""
    bias = _bias(n, w)
    # with the bias added, no low slot borrows from the one above it
    low = (x + bias) & ((1 << (8 * w * n)) - 1)
    raw = (low ^ bias).to_bytes(w * n, "little")
    code = _MACHINE_TYPES.get(w)
    if code:
        return array(code, raw).tolist()
    return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, w * n, w)]


def _mul_low(a, b, n: int) -> list[int]:
    """The n lowest coefficients of the product of integer vectors a and b.

    Kronecker substitution: each vector becomes one big int, its value at
    x = 2^(8w) for a slot of w bytes that holds any product coefficient with
    its sign, and one big-int product replaces the convolution.
    """
    a, b = a[:n], b[:n]
    bound = max(map(abs, a), default=0) * max(map(abs, b), default=0) * min(len(a), len(b))
    if not bound:
        return [0] * n
    bits = bound.bit_length() + 1
    w = next((s for s in sorted(_MACHINE_TYPES) if 8 * s >= bits), (bits + 7) // 8)
    return _unpack(_pack(a, w) * _pack(b, w), n, w)


class CyclotomicRing:
    """Z[zeta_m]: its order, Phi_m and, from the first reduction on, Phi_m's inverse."""

    def __init__(self, m: int):
        self.m = m
        self.polynomial = cyclotomic_polynomial(m)
        self.degree = len(self.polynomial) - 1
        self._inverse: list[int] | None = None

    def __repr__(self):
        return f"CyclotomicRing({self.m})"

    def root_power(self, k: int) -> "CyclotomicInteger":
        """zeta_m^k, reduced into the power basis."""
        k %= self.m
        counts = [0] * (k + 1)
        counts[k] = 1
        return self.from_power_counts(counts)

    def from_int(self, value: int) -> "CyclotomicInteger":
        coeffs = [0] * self.degree
        coeffs[0] = value
        return CyclotomicInteger(self.m, tuple(coeffs))

    def zero(self) -> "CyclotomicInteger":
        return self.from_int(0)

    def one(self) -> "CyclotomicInteger":
        return self.from_int(1)

    def element(self, coeffs) -> "CyclotomicInteger":
        cs = tuple(coeffs)
        if len(cs) != self.degree:
            raise ValueError(f"expected {self.degree} coefficients, got {len(cs)}")
        return CyclotomicInteger(self.m, cs)

    def fold(self, counts) -> list[int]:
        """Power counts of the same value as counts, in fewer terms.

        Folding modulo x^m - 1 leaves at most m terms.  For even m,
        zeta^(m/2) = -1 (Phi_m divides x^(m/2) + 1), so a second fold
        subtracts the top half from the bottom half and leaves at most m/2.
        """
        m = self.m
        f = list(counts[:m])
        for start in range(m, len(counts), m):
            chunk = counts[start:start + m]
            f[: len(chunk)] = map(operator.add, f, chunk)
        if m % 2 == 0:
            top = f[m // 2:]
            del f[m // 2:]
            f[: len(top)] = map(operator.sub, f, top)
        return f

    def from_power_counts(self, counts) -> "CyclotomicInteger":
        """Exact value of sum(counts[k] * zeta^k); indices beyond m wrap.

        After ``fold``, at most m/2 terms are left for even m.  Reversed,
        the quotient of f by Phi_m is f's reversed top times the inverse of
        Phi_m's reversal, so at most m/2 - d of the inverse's terms are read,
        and the remainder needs only the d = phi(m) low coefficients of
        quotient * Phi_m.
        """
        m, d = self.m, self.degree
        f = self.fold(counts)
        f.extend([0] * (d - len(f)))
        if self._inverse is None:
            # the quotient has at most len(f) - d terms, and Phi_m is
            # palindromic for m > 1, so it is its own reversal (at m = 1 no
            # term is read); threads that race here compute the same list
            n = (m // 2 if m % 2 == 0 else m) - d
            self._inverse = _moebius_series(m, n, inverse=True)
        quot = _mul_low(f[: d - 1 : -1], self._inverse, len(f) - d)
        quot.reverse()
        low = _mul_low(quot, self.polynomial, d)
        # a list first (here and in the ring operations below): tuple() of a
        # map or generator builds its result by resizing, and CPython files
        # every such tuple of under 20 entries, once freed, on a free list
        # that then grows by one per call, up to 2000 entries
        return CyclotomicInteger(m, tuple(list(map(operator.sub, f[:d], low))))


@lru_cache(maxsize=32)
def get_ring(m: int) -> CyclotomicRing:
    return CyclotomicRing(m)


class CyclotomicInteger:
    """An element of Z[zeta_m] in canonical power-basis coordinates."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: tuple[int, ...]):
        self.m = m
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, CyclotomicInteger):
            if other.m != self.m:
                raise ValueError(
                    f"mixed root orders: zeta_{self.m} vs zeta_{other.m}"
                )
            return other
        if isinstance(other, int):
            return get_ring(self.m).from_int(other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CyclotomicInteger(
            self.m, tuple([a + b for a, b in zip(self.coeffs, rhs.coeffs)])
        )

    __radd__ = __add__

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return CyclotomicInteger(
            self.m, tuple([a - b for a, b in zip(self.coeffs, rhs.coeffs)])
        )

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self):
        return CyclotomicInteger(self.m, tuple([-a for a in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            return CyclotomicInteger(self.m, tuple([a * other for a in self.coeffs]))
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self.coeffs, rhs.coeffs
        return get_ring(self.m).from_power_counts(_mul_low(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined in Z[zeta_m]")
        if not k:
            return get_ring(self.m).one()
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        # the lowest set bit starts the result, so no product by one is paid
        result = base
        k >>= 1
        while k:
            base = base * base
            if k & 1:
                result = result * base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = get_ring(self.m).from_int(other)
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        return self.m == other.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.m, self.coeffs))

    def __repr__(self):
        return f"CyclotomicInteger(m={self.m}, coeffs={list(self.coeffs)})"

    def abs_embed(self) -> float:
        """|value| under zeta_m -> exp(2 pi i / m), in double precision."""
        m = self.m
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += c * cmath.exp(2j * cmath.pi * i / m)
        return abs(total)

    def to_json_dict(self) -> dict:
        return {"m": self.m, "coeffs": list(self.coeffs), "abs": self.abs_embed()}
