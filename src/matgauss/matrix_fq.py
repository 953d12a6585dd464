"""Square matrices over F_q.

Provides det and rank (one elimination), trace, partial trace, the
entrywise (Frobenius) product, and exhaustive enumeration of GL_n through
``gl_blocks``.

Enumeration walks GL_n row by row, in lexicographic order of the flattened
entry encodings: each (n-1)-row prefix gets its cofactor vector w once, and
det(X) = <w, x> is tabulated over every last row x, so no candidate needs an
elimination.  A group is a list of blocks (prefix, prefix trace, dets), one per
independent prefix, with dets[k] = det(X) for the k-th last row; groups under
a size cap keep their blocks in a cache.  ``gl_blocks`` is the one
enumeration interface: the brute-force oracles, the trace count and SL_n (the
members with det 1) all read the blocks directly.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator

from .budget import check_budget
from .finite_field import Field, FieldElement

__all__ = [
    "MatrixFq",
    "frobenius_product",
    "gl_blocks",
    "gl_members",
    "clear_member_cache",
    "canonical_rank_matrix",
    "random_matrix",
    "random_invertible",
    "random_rank_matrix",
]

MAX_DIMENSION = 8

# cap (in stored ints) on the cached blocks of one group: q^(n(n-1)) prefixes
# of n(n-1) entries plus q^n dets each, about q^(n*n) ints.  Measured with
# tracemalloc, GL_3(F_5) (2.0e6 ints) retains 17.9 MB and GL_2(F_29)
# (7.1e5 ints) 5.8 MB, about 9 bytes an int, so a cached group stays
# under about 36 MB.
_MEMBER_CACHE_MAX_INTS = 4_000_000

_GL_CACHE: dict[tuple[Field, int], tuple] = {}


class MatrixFq:
    """An n x n matrix over a finite field, stored as encoded entries."""

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable]):
        norm: list[tuple[int, ...]] = []
        for row in rows:
            out = []
            for x in row:
                if isinstance(x, FieldElement):
                    if x.field != field:
                        raise ValueError("matrix entries from a different field")
                    out.append(x.enc)
                else:
                    enc = int(x)
                    if not 0 <= enc < field.q:
                        raise ValueError(f"entry encoding {enc} out of range for F_{field.q}")
                    out.append(enc)
            norm.append(tuple(out))
        n = len(norm)
        if not 1 <= n <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {n}")
        if any(len(r) != n for r in norm):
            raise ValueError("matrix must be square")
        self.field = field
        self.n = n
        self.rows = tuple(norm)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, field: Field, n: int) -> "MatrixFq":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, field: Field, n: int) -> "MatrixFq":
        return cls(field, [[0] * n for _ in range(n)])

    # -- basic accessors --------------------------------------------------------

    def __getitem__(self, ij) -> FieldElement:
        i, j = ij
        return FieldElement(self.field, self.rows[i][j])

    def to_int_rows(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def __eq__(self, other):
        if not isinstance(other, MatrixFq):
            return NotImplemented
        return self.field == other.field and self.rows == other.rows

    def __hash__(self):
        return hash((self.field, self.rows))

    def __repr__(self):
        return f"MatrixFq(F{self.field.q}, {self.to_int_rows()})"

    # -- arithmetic -------------------------------------------------------------

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        if self.field != other.field or self.n != other.n:
            raise ValueError("matrix product needs matching fields and dimensions")
        f = self.field
        mul, add = f.mul_enc, f.add_enc
        n = self.n
        a, b = self.rows, other.rows
        out = []
        for i in range(n):
            ai = a[i]
            row = []
            for j in range(n):
                s = 0
                for k in range(n):
                    x = ai[k]
                    y = b[k][j]
                    if x and y:
                        s = add(s, mul(x, y))
                row.append(s)
            out.append(row)
        return MatrixFq(f, out)

    def trace(self) -> FieldElement:
        return self.partial_trace(self.n)

    def partial_trace(self, u: int) -> FieldElement:
        """Sum of the first u diagonal entries."""
        if not 0 <= u <= self.n:
            raise ValueError(f"partial trace length {u} out of range [0, {self.n}]")
        f = self.field
        s = 0
        for i in range(u):
            s = f.add_enc(s, self.rows[i][i])
        return FieldElement(f, s)

    def det(self) -> FieldElement:
        return FieldElement(self.field, _eliminate(self.field, [list(r) for r in self.rows])[1])

    def rank(self) -> int:
        return _eliminate(self.field, [list(r) for r in self.rows])[0]


def _eliminate(field: Field, work: list[list[int]]) -> tuple[int, int]:
    """(rank, det) of a scratch row list (consumed) by Gaussian elimination.

    det is 0 below full rank.  The last pivot of a full-rank matrix only
    scales det, so it is never inverted.
    """
    n = len(work)
    mul, sub, inv, neg = field.mul_enc, field.sub_enc, field.inv_enc, field.neg_enc
    r = 0
    det = 1
    for col in range(n):
        for piv in range(r, n):
            if work[piv][col]:
                break
        else:
            det = 0
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            det = neg(det)
        prow = work[r]
        pv = prow[col]
        det = mul(det, pv)
        r += 1
        if r == n:
            break
        pinv = inv(pv)
        for i in range(r, n):
            wi = work[i]
            fac = wi[col]
            if fac:
                fac = mul(fac, pinv)
                for j in range(col + 1, n):
                    wi[j] = sub(wi[j], mul(fac, prow[j]))
    return r, det


def frobenius_product(u: MatrixFq, v: MatrixFq) -> FieldElement:
    """Entrywise product summed over all positions; equals tr(u^t v)."""
    if u.field != v.field or u.n != v.n:
        raise ValueError("frobenius product needs matching fields and dimensions")
    f = u.field
    mul, add = f.mul_enc, f.add_enc
    s = 0
    for ru, rv in zip(u.rows, v.rows):
        for x, y in zip(ru, rv):
            if x and y:
                s = add(s, mul(x, y))
    return FieldElement(f, s)


def canonical_rank_matrix(field: Field, n: int, u: int) -> MatrixFq:
    """diag(I_u, 0): the canonical matrix of rank u."""
    if not 0 <= u <= n:
        raise ValueError(f"rank {u} out of range [0, {n}]")
    return MatrixFq(field, [[1 if i == j and i < u else 0 for j in range(n)] for i in range(n)])


# ---------------------------------------------------------------------------
# Exhaustive enumeration.


def _gl_blocks(field: Field, n: int) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """GL_n(F_q) walked row by row: one block per independent (n-1)-row prefix.

    A block is (prefix, prefix trace, dets), where dets[k] is det(X) for the
    k-th last row x in ``itertools.product`` order, 0 where X is singular.
    Prefixes come in lexicographic order, and so, block by block, do the
    members of ``gl_blocks``.  The signed (n-1)-minors of a prefix form
    its cofactor vector w, with det(X) = <w, x> for every last row x; w = 0
    exactly when the prefix rows are dependent, and then the prefix is
    skipped.  The prefix trace is the sum of the first n - 1 diagonal
    entries, so tr(X) adds x[n-1] to it.
    """
    q = field.q
    mul, add, neg = field.mul_enc, field.add_enc, field.neg_enc
    # addition table; a 1 x 1 walk (whose q may be large) reads only row 0
    adds = [[add(a, b) for b in range(q)] for a in range(q if n > 1 else 1)]
    for prefix in itertools.product(range(q), repeat=(n - 1) * n):
        rows = [prefix[i * n:(i + 1) * n] for i in range(n - 1)]
        w = [_eliminate(field, [list(r[:j] + r[j + 1:]) for r in rows])[1] for j in range(n)]
        if not any(w):
            continue
        # <w, x> over F_q^n, one coordinate at a time, x[0] the most significant
        dets = [0]
        for j, wj in enumerate(w):
            if (n - 1 + j) % 2:
                wj = neg(wj)
            scaled = [mul(wj, c) for c in range(q)]
            dets = [row[s] for row in map(adds.__getitem__, dets) for s in scaled]
        tr = 0
        for i in range(n - 1):
            tr = adds[tr][rows[i][i]]
        yield prefix, tr, tuple(dets)


def gl_blocks(field: Field, n: int):
    """The blocks of ``_gl_blocks``, cached for groups under the cap.

    The enumeration budget still counts all q^(n*n) candidates.  A cached
    group comes back as a tuple, which callers must treat as read-only; a
    larger one is walked afresh on every call.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    q = field.q
    check_budget(q ** (n * n), f"enumerating GL_{n}(F_{q})")
    key = (field, n)
    hit = _GL_CACHE.get(key)
    if hit is not None:
        return hit
    walk = _gl_blocks(field, n)
    head = n * (n - 1)
    if q**head * (head + q**n) <= _MEMBER_CACHE_MAX_INTS:
        data = tuple(walk)
        _GL_CACHE[key] = data
        return data
    return walk


def gl_members(field: Field, n: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Compact GL_n(F_q) stream: (flat entries, det encoding, trace encoding).

    Yields each invertible matrix exactly once, in lexicographic order of the
    flattened entry encodings, by flattening ``gl_blocks``.  A group under
    the cap is walked into the cache when this is called, not when the
    stream is first read.  Nothing in the package reads it: it stays only
    for the benchmark's traced round (perfbench's ``matrix_fq.gl_members``
    span) until that span times ``gl_blocks`` instead.
    """
    return _flatten(field, n, gl_blocks(field, n))


def _flatten(field: Field, n: int, blocks) -> Iterator[tuple[tuple[int, ...], int, int]]:
    q, add = field.q, field.add_enc
    last_rows = list(itertools.product(range(q), repeat=n))
    cycles = q ** (n - 1)
    for prefix, tr, dets in blocks:
        # x[n-1] cycles fastest through the last rows
        traces = [add(tr, c) for c in range(q)] * cycles
        for x, d, t in zip(last_rows, dets, traces):
            if d:
                yield prefix + x, d, t


def clear_member_cache() -> None:
    _GL_CACHE.clear()


# ---------------------------------------------------------------------------
# Seeded random sampling.


def random_matrix(field: Field, n: int, rng: random.Random) -> MatrixFq:
    q = field.q
    return MatrixFq(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])


def random_invertible(field: Field, n: int, rng: random.Random) -> MatrixFq:
    """Uniform over GL_n by rejection sampling from all matrices."""
    while True:
        cand = random_matrix(field, n, rng)
        if cand.det().enc:
            return cand


def random_rank_matrix(field: Field, n: int, u: int, rng: random.Random) -> MatrixFq:
    """A random matrix of exact rank u: P @ diag(I_u, 0) @ Q."""
    core = canonical_rank_matrix(field, n, u)
    return random_invertible(field, n, rng) @ core @ random_invertible(field, n, rng)
