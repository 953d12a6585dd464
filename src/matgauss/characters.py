"""Additive and multiplicative characters of F_q and their character sums.

All values for one field live in a single ring Z[zeta_m] with m = p*(q-1):
since gcd(p, q-1) = 1, zeta_p = zeta_m^(q-1) and zeta_(q-1) = zeta_m^p, so
additive and multiplicative character values mix without order lifting.

Each character value is a single power of zeta_m; characters therefore expose
``exponent(x)`` alongside the ring-valued evaluation, and whole sums are
tallied as counts of powers and reduced to canonical form once at the end.

The closed forms' sums index F_q^* by discrete log: x = g^s, read through
the field's antilog and trace tables, so chi_j(x) * lam_a(x) is zeta_m to
the power p*j*s + (q-1)*tr(g^(alpha+s)) for a = g^alpha, one ``_tally``
with no field operation.  The CRT split of Z/m into Z/(q-1) x Z/p makes the
Kloosterman recursion a cyclic convolution of length m (see
``_kloosterman_levels``).
Jacobi sums J(chi, chi^k) read log(1 - g^s) off the Zech table the same way
and live in Z[zeta_(q-1)]; ``twisted_gauss_power`` builds G(chi)^n from them
with one reduction in each ring (``classical_gauss_sum`` and ``**`` remain
as the check).
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


def _trace_table(field: Field, c: int) -> list[int] | tuple[int, ...]:
    """tr(c * x) for every x in F_q, indexed by the encoding of x."""
    if c == 1:
        return field._trace
    # the trace is F_p-linear in the digits of x; digit i weighs tr(c * x^i)
    p = field.p
    return linear_table(p, [field.trace_enc(field.mul_enc(c, p**i)) for i in range(field.e)])


def _twisted_traces(table: MultGroupTable, lam: AdditiveCharacter) -> list[int] | tuple[int, ...]:
    """tr(a * g^s) for s in [0, q-1), lam = lam_a: for a = g^alpha, the
    trace of antilog entry alpha + s (the antilog table is stored twice over,
    so the slice never wraps), and no field operation runs."""
    field = table.field
    if lam.is_trivial:
        return (0,) * (field.q - 1)
    alpha, trace = table.dlog[lam.a.enc], field._trace
    return [trace[x] for x in field._exp[alpha : alpha + field.q - 1]]


def _tally(values, step: int, weight: int, size: int, start: int = 0) -> list[int]:
    """Power counts of the terms x = g^s, s = start, start + 1, ..., each
    adding one count at (step*s + weight*v) mod size, v its entry of values."""
    counts = [0] * size
    for s, v in enumerate(values, start):
        counts[(step * s + weight * v) % size] += 1
    return counts


def _log_tally(table: MultGroupTable, lam: AdditiveCharacter, j: int) -> list[int]:
    """Power counts of sum over nonzero x of chi_j(x) * lam(x), indexed by dlog.

    x = g^s contributes zeta_m^(p*j*s + (q-1)*tr(a*g^s)).
    """
    p, q1 = table.field.p, table.field.q - 1
    return _tally(_twisted_traces(table, lam), p * j, q1, p * q1)


def classical_gauss_sum(chi: MultiplicativeCharacter, lam: AdditiveCharacter) -> CyclotomicInteger:
    """sum over nonzero x of chi(x) * lam(x), exactly."""
    field = chi.field
    if field != lam.field:
        raise ValueError("characters live on different fields")
    ring = value_ring(field)
    return ring.from_power_counts(_log_tally(chi.table, lam, chi.index))


def _jacobi_tally(field: Field, j: int, k: int) -> list[int]:
    """Power counts of zeta_(q-1) in J(chi_j, chi_j^k).

    J(chi, psi) = sum over x != 0, 1 of chi(x) * psi(1 - x).  For x = g^s,
    1 - x = 1 + g^(s + log(-1)), so log(1 - x) is a Zech entry and the term
    is zeta_(q-1)^(j*s + j*k*log(1 - x)), found without any field operation.
    """
    h, q1 = field._log_neg_one, field.q - 1
    return _tally(field._zech[h + 1 : h + q1], j, j * k, q1, start=1)


def twisted_gauss_power(chi: MultiplicativeCharacter, lam: AdditiveCharacter, n: int,
                        y: FieldElement) -> CyclotomicInteger:
    """conj(chi)(y) * G(chi, lam)^n for nonzero y and nontrivial lam, n >= 1.

    Jacobi sums factor the power: G(chi) G(chi^k) = J(chi, chi^k) G(chi^(k+1))
    while chi^(k+1) is nontrivial, and G(chi) G(conj chi) = chi(-1) q (Berndt,
    Evans & Williams, *Gauss and Jacobi Sums*, ch. 2).  So G(chi)^n is
    c * G(chi^n), or c alone when chi^n is trivial, with c a product of
    Jacobi sums and integers.  The Jacobi sums live in Z[zeta_(q-1)], whose
    degree is phi(m)/(p-1): c is multiplied there without a reduction and
    reduced once.

    G(chi^n) is sum over t < p of zeta_p^t * A_t, each A_t in Z[zeta_(q-1)],
    and zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)), so c * G(chi^n) is the
    p - 1 products c * (A_t - A_(p-1)): one Kronecker product of c with those
    blocks laid end to end.  Product t lands at zeta_m^(p*i + (q-1)*t),
    shifted by the twist conj(chi)(y), and the whole is reduced once in
    Z[zeta_m].  (Placing c at every p-th power of zeta_m instead, times the
    folded tally of G(chi^n), spreads c over p times the terms: the closed
    form then takes about twice the time at q = 3^10.)
    """
    field = chi.field
    if lam.field != field or y.field != field:
        raise ValueError("arguments from different fields")
    if n < 1 or not y.enc or lam.is_trivial:
        raise ValueError("needs n >= 1, a nonzero y and a nontrivial additive character")
    ring = value_ring(field)
    if chi.is_trivial:
        return ring.from_int((-1) ** n)  # G(1, lam) = -1
    p, q1 = field.p, field.q - 1
    j = chi.index
    sub = get_ring(q1)
    # G(chi)^k = scale * c * G(chi^k), with c the Jacobi product as folded
    # power counts of zeta_(q-1) (None while it is 1) and G(chi^k) read as 1
    # when chi^k is trivial, so that a trivial chi^k changes neither
    scale = 1
    c = None
    for k in range(1, n):
        if not j * k % q1:
            continue
        if not j * (k + 1) % q1:
            scale *= (-1 if j * field._log_neg_one % q1 else 1) * field.q
            continue
        jac = sub.fold(_jacobi_tally(field, j, k))
        c = jac if c is None else sub.fold(_mul_low(c, jac, len(c) + len(jac) - 1))
    c = [scale] if c is None else [scale * v for v in sub.from_power_counts(c).coeffs]
    jn = j * n % q1
    if jn:
        # x = g^s adds zeta_(q-1)^u * zeta_p^t, u = jn*s, counted at
        # p*(u mod (q-1)) + t = (p*jn*s + t) mod p(q-1), since t < p
        tally = _tally(_twisted_traces(chi.table, lam), p * jn, 1, p * q1)
        if q1 % 2 == 0:  # zeta_(q-1)^(q1/2) = -1
            half = p * q1 // 2
            tally = list(map(operator.sub, tally[:half], tally[half:]))
        last = tally[p - 1 :: p]
        blocks = [list(map(operator.sub, tally[t::p], last)) for t in range(p - 1)]
    else:
        blocks = [[1]]
    width = len(c) + len(blocks[0]) - 1
    packed = [0] * (width * len(blocks))
    for t, b in enumerate(blocks):
        packed[width * t : width * t + len(b)] = b
    packed = _mul_low(c, packed, len(packed))
    # p*i + (q-1)*t are distinct for t < p, since gcd(p, q-1) = 1
    shift = p * (-j * chi.table.dlog[y.enc] % q1)
    counts = [0] * (shift + q1 * (len(blocks) - 1) + p * width)
    for t in range(len(blocks)):
        start = shift + q1 * t
        counts[start : start + p * width : p] = packed[width * t : width * t + width]
    return ring.from_power_counts(counts)


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


def _kloosterman_field(lam: AdditiveCharacter, n: int, y: FieldElement) -> Field:
    """The field of a Kloosterman sum's arguments, once they are checked."""
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    if y.enc == 0:
        raise ValueError("Kloosterman sums need a nonzero product target")
    field = lam.field
    if y.field != field:
        raise ValueError("argument from a different field")
    return field


def kloosterman(lam: AdditiveCharacter, n: int, y: FieldElement) -> CyclotomicInteger:
    """Hyper-Kloosterman sum over n-tuples of product y, via the DP recursion."""
    field = _kloosterman_field(lam, n, y)
    ring = value_ring(field)
    q1 = field.q - 1
    base = field.p * build_mult_table(field).dlog[y.enc]
    level = _kloosterman_levels(lam, n)
    # the count at p*dlog(y) + (q-1)*t is the coefficient of zeta_p^t
    counts = [0] * ((field.p - 1) * q1 + 1)
    counts[::q1] = [level[(base + q1 * t) % ring.m] for t in range(field.p)]
    return ring.from_power_counts(counts)


def kloosterman_bruteforce(lam: AdditiveCharacter, n: int, y: FieldElement) -> CyclotomicInteger:
    """Oracle for the DP: enumerate all (q-1)^(n-1) tuples directly."""
    field = _kloosterman_field(lam, n, y)
    q = field.q
    check_budget((q - 1) ** (n - 1), "hyper-Kloosterman enumeration")
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
