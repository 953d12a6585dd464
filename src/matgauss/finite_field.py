"""Finite fields F_q with q = p^e, built deterministically.

Elements are polynomials over F_p modulo a fixed monic irreducible polynomial
of degree e.  An element with little-endian coefficients (c_0, ..., c_{e-1})
has the canonical integer encoding sum(c_i * p**i); every piece of I/O in this
package speaks that encoding.  The modulus is the first irreducible monic
polynomial of degree e in encoding order, so two constructions of F_{p^e}
always agree, and the multiplicative generator is the first element (again in
encoding order) of full order, which makes character indexing reproducible.

Arithmetic reads log, antilog and Zech tables, one path for every p and e
(see ``Field``); the characters read the same log table as their discrete
log, and decide themselves which fields their values can live on.  The
tables are built by walking x -> g * x through a table of that F_p-linear
map, made in one pass over F_q by int operations on packed digits, so the
polynomial helpers serve only the modulus and generator searches and the
map's e columns.  The trace, also F_p-linear, is tabulated by the same
routine from its values on the digits, with one output digit in place of e.
"""

from __future__ import annotations

import operator
import sys
from array import array
from collections.abc import Iterator
from functools import lru_cache

from .cyclotomic import distinct_prime_factors

DEFAULT_MAX_Q = 2**20


def is_prime(n: int) -> bool:
    """Primality by ``distinct_prime_factors``, the package's one trial
    division; adequate for the p <= DEFAULT_MAX_Q that fields allow."""
    return n >= 2 and distinct_prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# Polynomials over F_p as little-endian coefficient lists.


def _poly_trim(a: list[int]) -> list[int]:
    k = len(a)
    while k > 0 and a[k - 1] == 0:
        k -= 1
    return a[:k]


def _poly_mulmod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """a*b mod (modulus, p); modulus is monic, result has len(modulus)-1 slots."""
    e = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1 or 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    for k in range(len(prod) - 1, e - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            off = k - e
            for j in range(e):
                mj = modulus[j]
                if mj:
                    prod[off + j] = (prod[off + j] - c * mj) % p
    out = prod[:e]
    out.extend([0] * (e - len(out)))
    return out


def _poly_powmod(a: list[int], k: int, modulus: list[int], p: int) -> list[int]:
    e = len(modulus) - 1
    result = [1] + [0] * (e - 1)
    base = list(a)
    while k:
        if k & 1:
            result = _poly_mulmod(result, base, modulus, p)
        k >>= 1
        if k:
            base = _poly_mulmod(base, base, modulus, p)
    return result


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over F_p; b must be nonzero."""
    a = [c % p for c in a]
    b = _poly_trim([c % p for c in b])
    db = len(b) - 1
    inv_lead = pow(b[db], -1, p)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k]
        if c:
            f = c * inv_lead % p
            off = k - db
            for j in range(db + 1):
                a[off + j] = (a[off + j] - f * b[j]) % p
    return _poly_trim(a)


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_mod(a, b, p)
    return a


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    Uses the classic criterion: x^(p^e) == x mod poly, and for every prime
    r | e the polynomial gcd(x^(p^(e/r)) - x, poly) is constant.
    """
    e = len(poly) - 1
    if e < 2:  # linear
        return True
    x = [0, 1] + [0] * (e - 2)

    def frobenius_power(steps: int) -> list[int]:
        t = list(x)
        for _ in range(steps):
            t = _poly_powmod(t, p, poly, p)
        return t

    if _poly_trim(frobenius_power(e)) != [0, 1]:
        return False
    for r in distinct_prime_factors(e):
        t = frobenius_power(e // r)
        diff = [(ti - xi) % p for ti, xi in zip(t, x)]
        if len(_poly_trim(_poly_gcd(diff, poly, p))) - 1 != 0:
            return False
    return True


def _first_irreducible(p: int, e: int) -> tuple[int, ...]:
    """First monic irreducible degree-e polynomial in encoding order."""
    for k in range(p**e):
        coeffs = []
        v = k
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        cand = coeffs + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class Field:
    """The finite field with q = p**e elements; immutable and shareable.

    With g the canonical generator, ``_exp[k]`` = g^k, stored twice over so a
    sum of two logs needs no reduction; ``_log`` inverts it, -1 at zero; and
    the Zech log ``_zech[k]`` = log(1 + g^k), -1 where 1 + g^k = 0, also twice
    over so any difference of two logs indexes it; and ``_trace[x]`` = tr(x).
    A new field is an ``_UnbuiltField``, which builds them on first
    arithmetic.
    """

    __slots__ = ("p", "e", "q", "modulus", "_hash", "_log_neg_one",
                 "_trace", "_exp", "_log", "_zech")

    def __new__(cls, p: int, e: int, modulus: tuple[int, ...]):
        return object.__new__(_UnbuiltField)

    def __init__(self, p: int, e: int, modulus: tuple[int, ...]):
        self.p = p
        self.e = e
        self.q = p**e
        self.modulus = tuple(modulus)
        self._hash = hash((p, self.modulus))
        # -1 = g^((q-1)/2) for odd p; -1 = 1 in characteristic 2
        self._log_neg_one = 0 if p == 2 else (self.q - 1) // 2

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return self.p == other.p and self.modulus == other.modulus

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"

    # -- element constructors ------------------------------------------------

    def element(self, encoding: int) -> "FieldElement":
        return FieldElement(self, encoding)

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def elements(self) -> Iterator["FieldElement"]:
        """All q elements, zero first, in encoding order."""
        for k in range(self.q):
            yield FieldElement(self, k)

    # -- encoding codecs -----------------------------------------------------

    def enc_to_coeffs(self, enc: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(enc % p)
            enc //= p
        return tuple(out)

    # -- encoding-level arithmetic --------------------------------------------
    # Integers in [0, q); these are the hot-loop primitives.
    # g^la + g^lb = g^(la + zech[lb - la]).

    def add_enc(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg_enc(self, a: int) -> int:
        return self._exp[self._log[a] + self._log_neg_one] if a else 0

    def sub_enc(self, a: int, b: int) -> int:
        """a - b, the Zech step of ``add_enc`` on log(-b) = log b + log(-1)."""
        if not b:
            return a
        log = self._log
        lb = log[b] + self._log_neg_one
        if not a:
            return self._exp[lb]
        la = log[a]
        z = self._zech[lb - la]
        return self._exp[la + z] if z >= 0 else 0

    def mul_enc(self, a: int, b: int) -> int:
        if a and b:
            log = self._log
            return self._exp[log[a] + log[b]]
        return 0

    def inv_enc(self, a: int) -> int:
        if not a:
            raise ZeroDivisionError("inversion of zero field element")
        return self._exp[-self._log[a]]

    def pow_enc(self, a: int, k: int) -> int:
        if a:
            return self._exp[self._log[a] * k % (self.q - 1)]
        if k < 0:
            raise ZeroDivisionError("inversion of zero field element")
        return 0 if k else 1

    def trace_enc(self, a: int) -> int:
        """Trace down to F_p, as an integer in [0, p)."""
        return self._trace[a]

    def _compute_trace_basis(self) -> tuple[int, ...]:
        """tr(x^i) = sum of (x^i)^(p^j) for i < e; the trace is F_p-linear."""
        basis = []
        for i in range(self.e):
            acc = 0
            for j in range(self.e):
                acc = self.add_enc(acc, self.pow_enc(self.p**i, self.p**j))
            if acc >= self.p:
                raise AssertionError("trace left the prime subfield")
            basis.append(acc)
        return tuple(basis)


class _UnbuiltField(Field):
    """A Field before its first arithmetic, which makes it a plain Field.

    Only this class has ``__getattr__``, which would cost every attribute
    read the interpreter's fast path: about twice the time per operation.
    """

    __slots__ = ()

    def __getattr__(self, name):
        # reached only for an unset slot
        if name not in ("_exp", "_log", "_zech", "_trace"):
            raise AttributeError(name)
        self._exp, self._log, self._zech = _build_tables(self)
        self.__class__ = Field
        # the trace is the one-digit image of x -> sum(x_i * tr(x^i))
        self._trace = tuple(_digitwise_table(self.p, [[t] for t in self._compute_trace_basis()]))
        return getattr(self, name)


def _digitwise_table(p: int, columns: list[list[int]]) -> list[int]:
    """The F_p-linear map x -> sum(x_i * columns[i]) on F_q, q = p^len(columns),
    each column the digits of an image (e for x -> g * x, one for the
    trace), as encodings indexed by the encoding of x.

    The table doubles over the digits of x: the entries for x < p^(i+1) are
    the p copies of those for x < p^i, the d-th plus d * columns[i].  An
    entry packs its digits k bits apart into a fixed slot of one int, so
    that a step is a few int operations over all its slots at once.  At
    p = 2 (k = 1) the digit-wise sum is xor and the slot is the encoding.
    At odd p a plain add leaves each digit below 2p - 1 <= 2^(k-1); adding
    2^(k-1) - p to every digit sets bit k-1 exactly where a digit reached p,
    and those digits then lose p without a borrow.  The slots are finally
    read back as encodings, sum(d_j * p^j), over all slots at once too.
    """
    e = len(columns[0])  # output digits
    k = 1 if p == 2 else (2 * p - 2).bit_length() + 1
    size = 4 if k * e <= 32 else 8  # bytes a slot; encodings are below 2^20
    typecode, order = ("I" if size == 4 else "Q"), sys.byteorder

    def slots(value: int, count: int) -> int:
        return int.from_bytes(value.to_bytes(size, order) * count, order)

    def every_digit(value: int) -> int:
        return sum(value << k * j for j in range(e))

    def multiples(column: list[int]) -> list[int]:
        # d * column for d < p, packed
        out = [0] * p
        for j, c in enumerate(column):
            out = list(map(operator.add, out, [d * c % p << k * j for d in range(p)]))
        return out

    half = 1 << (k - 1)
    packed, n = int.from_bytes(array(typecode, multiples(columns[0])), order), p
    for column in columns[1:]:
        copies = int.from_bytes(packed.to_bytes(n * size, order) * p, order)
        steps = b"".join(v.to_bytes(size, order) * n for v in multiples(column))
        n *= p
        if p == 2:
            packed = copies ^ int.from_bytes(steps, order)
        else:
            packed = copies + int.from_bytes(steps, order)
            reached = (packed + slots(every_digit(half - p), n)) & slots(every_digit(half), n)
            packed -= (reached >> (k - 1)) * p
    if p > 2:
        low, enc = slots((1 << k) - 1, n), 0
        for j in reversed(range(e)):
            enc = enc * p + (packed >> k * j & low)
        packed = enc
    return array(typecode, packed.to_bytes(n * size, order)).tolist()


def _build_tables(field: Field) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The antilog, log and Zech tables of F_q, by walking x -> g * x.

    The generator g is the first element in encoding order of full order,
    i.e. with g^((q-1)/r) != 1 for every prime r dividing q-1.  Multiplying
    by g is F_p-linear in the digits, so it is tabulated over F_q in one
    pass from the columns g * x^i (``_digitwise_table``), and the walk is
    one lookup per step.
    """
    p, e, q = field.p, field.e, field.q
    modulus = list(field.modulus)
    one = [1] + [0] * (e - 1)
    factors = distinct_prime_factors(q - 1)
    for g in range(1, q):
        digits = list(field.enc_to_coeffs(g))
        if all(_poly_powmod(digits, (q - 1) // r, modulus, p) != one for r in factors):
            break
    else:
        raise RuntimeError("no generator found")  # unreachable: F_q^* is cyclic
    times_g = _digitwise_table(p, [_poly_mulmod(digits, [0] * i + [1], modulus, p)
                                   for i in range(e)])
    exp = [0] * (q - 1)
    log = [-1] * q
    enc = 1
    for k in range(q - 1):
        exp[k] = enc
        log[enc] = k
        enc = times_g[enc]
    if enc != 1:
        raise AssertionError("generator order is not q - 1")
    del times_g  # freed before the tuples below, which are the peak of memory
    # 1 + x differs from x only in its constant digit
    zech = [log[x - x % p + (x + 1) % p] for x in exp]
    return tuple(exp * 2), tuple(log), tuple(zech * 2)


class FieldElement:
    """An element of a Field, identified by its canonical integer encoding."""

    __slots__ = ("field", "enc")

    def __init__(self, field: Field, enc: int):
        enc = operator.index(enc)
        if not 0 <= enc < field.q:
            raise ValueError(f"encoding {enc} out of range for F_{field.q}")
        self.field = field
        self.enc = enc

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.enc_to_coeffs(self.enc)

    def is_zero(self) -> bool:
        return self.enc == 0

    def __bool__(self):
        return self.enc != 0

    def _same_field(self, other: "FieldElement") -> Field:
        f = self.field
        if f is not other.field and f != other.field:
            raise ValueError("elements of different fields")
        return f

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self._same_field(other)
        return FieldElement(f, f.add_enc(self.enc, other.enc))

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self._same_field(other)
        return FieldElement(f, f.sub_enc(self.enc, other.enc))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg_enc(self.enc))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self._same_field(other)
        return FieldElement(f, f.mul_enc(self.enc, other.enc))

    def __truediv__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        f = self._same_field(other)
        return FieldElement(f, f.mul_enc(self.enc, f.inv_enc(other.enc)))

    def inv(self) -> "FieldElement":
        return FieldElement(self.field, self.field.inv_enc(self.enc))

    def __pow__(self, k: int):
        return FieldElement(self.field, self.field.pow_enc(self.enc, k))

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.enc == other.enc and self.field == other.field

    def __hash__(self):
        return hash((self.enc, self.field._hash))

    def __repr__(self):
        return f"F{self.field.q}({self.enc})"


@lru_cache(maxsize=None)
def _make_field_cached(p: int, e: int) -> Field:
    return Field(p, e, _first_irreducible(p, e))


def make_field(p: int, e: int = 1) -> Field:
    """Construct F_{p^e} with the deterministic modulus choice.

    Raises ValueError for non-prime p, e < 1, or p**e beyond DEFAULT_MAX_Q.
    The size is checked before the primality test and before p**e is
    computed.  No table is built here; see ``Field``.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"p must be prime, got {p}")
    if not isinstance(e, int) or e < 1:
        raise ValueError(f"extension degree must be >= 1, got {e}")
    if p > DEFAULT_MAX_Q or e > DEFAULT_MAX_Q.bit_length() or p**e > DEFAULT_MAX_Q:
        raise ValueError(f"field size {p}^{e} exceeds the budget of {DEFAULT_MAX_Q}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return _make_field_cached(p, e)
