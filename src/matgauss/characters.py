"""Additive and multiplicative characters of F_q and their character sums.

All values for one field live in a single ring Z[zeta_m] with m = p*(q-1):
since gcd(p, q-1) = 1, zeta_p = zeta_m^(q-1) and zeta_(q-1) = zeta_m^p, so
additive and multiplicative character values mix without order lifting.

Each character value is a single power of zeta_m; characters therefore expose
``exponent(x)`` alongside the ring-valued evaluation, and whole sums are
tallied as counts of powers and reduced to canonical form once at the end.

The closed forms' sums index F_q^* by discrete log: x = g^s, with one
per-field table of tr(g^k), so chi_j(x) * lam_a(x) is zeta_m to the power
p*j*s + (q-1)*tr(g^(alpha+s)) for a = g^alpha, found without any field
operation.  The CRT split of Z/m into Z/(q-1) x Z/p makes the Kloosterman
recursion a cyclic convolution of length m (see ``_kloosterman_levels``).
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache

from .budget import check_budget
from .cyclotomic import CyclotomicInteger, CyclotomicRing, _mul_low, get_ring
from .finite_field import Field, FieldElement, MultGroupTable, build_mult_table, linear_table


def value_ring(field: Field) -> CyclotomicRing:
    """The ring Z[zeta_m], m = p*(q-1), holding every character sum."""
    return get_ring(field.p * (field.q - 1))


@dataclass(frozen=True)
class AdditiveCharacter:
    """x -> zeta_p^(tr(a*x)); nontrivial exactly when the twist a is nonzero."""

    a: FieldElement

    @property
    def field(self) -> Field:
        return self.a.field

    @property
    def is_trivial(self) -> bool:
        return self.a.enc == 0

    def exponent(self, x: FieldElement) -> int:
        """k with value zeta_m^k, m = p*(q-1)."""
        f = self.field
        t = f.trace_enc(f.mul_enc(self.a.enc, x.enc))
        return t * (f.q - 1)

    def __call__(self, x: FieldElement) -> CyclotomicInteger:
        if x.field != self.field:
            raise ValueError("argument from a different field")
        return value_ring(self.field).root_power(self.exponent(x))


@dataclass(frozen=True)
class MultiplicativeCharacter:
    """x -> zeta_(q-1)^(index * dlog(x)) on F_q^*; index 0 is the trivial one."""

    table: MultGroupTable
    index: int

    def __post_init__(self):
        q = self.table.field.q
        if not 0 <= self.index < max(q - 1, 1):
            raise ValueError(f"character index {self.index} out of range [0, {q - 1})")

    @property
    def field(self) -> Field:
        return self.table.field

    @property
    def is_trivial(self) -> bool:
        return self.index == 0

    def conjugate(self) -> "MultiplicativeCharacter":
        q = self.field.q
        return MultiplicativeCharacter(self.table, (q - 1 - self.index) % (q - 1))

    def exponent(self, x: FieldElement) -> int:
        if x.enc == 0:
            raise ZeroDivisionError("multiplicative character is undefined at zero")
        f = self.field
        return f.p * (self.index * self.table.dlog[x.enc] % (f.q - 1))

    def __call__(self, x: FieldElement) -> CyclotomicInteger:
        if x.field != self.field:
            raise ValueError("argument from a different field")
        return value_ring(self.field).root_power(self.exponent(x))


def _trace_table(field: Field, c: int) -> list[int]:
    """tr(c * x) for every x in F_q, indexed by the encoding of x."""
    # the trace is F_p-linear in the digits of x; digit i weighs tr(c * x^i)
    p = field.p
    return linear_table(p, [field.trace_enc(field.mul_enc(c, p**i)) for i in range(field.e)])


@lru_cache(maxsize=64)
def _log_traces(table: MultGroupTable) -> tuple[int, ...]:
    """tr(g^k) for k in [0, q-1), g the table's generator."""
    field = table.field
    by_enc = _trace_table(field, 1)
    out = [0] * (field.q - 1)
    for enc, k in enumerate(table.dlog[1:], 1):
        out[k] = by_enc[enc]
    return tuple(out)


def _log_tally(table: MultGroupTable, lam: AdditiveCharacter, j: int) -> list[int]:
    """Power counts of sum over nonzero x of chi_j(x) * lam(x), indexed by dlog.

    x = g^s contributes zeta_m^(p*j*s + (q-1)*tr(a*g^s)); for a = g^alpha the
    trace is entry alpha + s of the trace table, so no field operation runs.
    """
    field = table.field
    q1 = field.q - 1
    m = field.p * q1
    if lam.is_trivial:
        traces = (0,) * q1
    else:
        alpha = table.dlog[lam.a.enc]
        traces = _log_traces(table)
        traces = traces[alpha:] + traces[:alpha]
    step = field.p * j
    counts = [0] * m
    for s, t in enumerate(traces):
        counts[(step * s + q1 * t) % m] += 1
    return counts


def classical_gauss_sum(chi: MultiplicativeCharacter, lam: AdditiveCharacter) -> CyclotomicInteger:
    """sum over nonzero x of chi(x) * lam(x), exactly."""
    field = chi.field
    if field != lam.field:
        raise ValueError("characters live on different fields")
    ring = value_ring(field)
    return ring.from_power_counts(_log_tally(chi.table, lam, chi.index))


@lru_cache(maxsize=64)
def _kloosterman_levels(lam: AdditiveCharacter, n: int) -> tuple[int, ...]:
    """Power counts c_k of the sum over all n-tuples of nonzero x_i of
    zeta_m^k, k = p * sum(dlog x_i) + (q-1) * sum(tr(a * x_i)) mod m.

    Since gcd(p, q-1) = 1, k = p*s + (q-1)*t identifies Z/m with
    Z/(q-1) x Z/p: s is the dlog of the tuple's product and t its additive
    exponent.  Level 1 is the tally of chi_1 * lam, with one count per s.
    Multiplying generating polynomials modulo x^m - 1 adds both parts at
    once, so level n is level n-1 times level 1: one Kronecker product and a
    fold.  K_n(lam, y) is the slice s = dlog(y).
    """
    if n == 1:
        return tuple(_log_tally(build_mult_table(lam.field), lam, 1))
    first = _kloosterman_levels(lam, 1)
    m = len(first)
    prod = _mul_low(_kloosterman_levels(lam, n - 1), first, 2 * m - 1)
    out = prod[:m]
    out[: m - 1] = map(operator.add, out, prod[m:])
    return tuple(out)


def kloosterman(lam: AdditiveCharacter, n: int, y: FieldElement) -> CyclotomicInteger:
    """Hyper-Kloosterman sum over n-tuples of product y, via the DP recursion."""
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    if y.enc == 0:
        raise ValueError("Kloosterman sums need a nonzero product target")
    field = lam.field
    if y.field != field:
        raise ValueError("argument from a different field")
    ring = value_ring(field)
    q1 = field.q - 1
    base = field.p * build_mult_table(field).dlog[y.enc]
    level = _kloosterman_levels(lam, n)
    # the count at p*dlog(y) + (q-1)*t is the coefficient of zeta_p^t
    counts = [0] * ((field.p - 1) * q1 + 1)
    counts[::q1] = [level[(base + q1 * t) % ring.m] for t in range(field.p)]
    return ring.from_power_counts(counts)


def kloosterman_bruteforce(
    lam: AdditiveCharacter, n: int, y: FieldElement, budget: int | None = None
) -> CyclotomicInteger:
    """Oracle for the DP: enumerate all (q-1)^(n-1) tuples directly."""
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    if y.enc == 0:
        raise ValueError("Kloosterman sums need a nonzero product target")
    field = lam.field
    if y.field != field:
        raise ValueError("argument from a different field")
    q = field.q
    check_budget((q - 1) ** (n - 1), budget, "hyper-Kloosterman enumeration")
    ring = value_ring(field)
    m = ring.m
    # the additive exponents come from lam itself, not the DP's trace table
    exps = [0] + [lam.exponent(FieldElement(field, x)) % m for x in range(1, q)]
    dlog = build_mult_table(field).dlog
    antilog = [0] * (q - 1)
    for x in range(1, q):
        antilog[dlog[x]] = x
    target = dlog[y.enc]
    counts = [0] * m
    for tup in itertools.product(range(1, q), repeat=n - 1):
        s = 0
        k = 0
        for x in tup:
            s += dlog[x]
            k += exps[x]
        last = antilog[(target - s) % (q - 1)]
        counts[(k + exps[last]) % m] += 1
    return ring.from_power_counts(counts)


def clear_character_caches() -> None:
    _kloosterman_levels.cache_clear()
    _log_traces.cache_clear()
