"""Gauss sums over GL_n and SL_n of a finite field: closed forms, exhaustive
oracles, and invertible-matrix trace counts.

With lambda a nontrivial additive character, u = rank(U) and C = n(n-1)/2,
the closed forms are

  GL, full rank:     conj(chi)(det U) * q^C * G(chi, lambda)^n
  GL, trivial chi:   (-1)^u * q^C * prod_(i=1..n-u) (q^i - 1)
  GL, otherwise:     0                      (u < n, chi nontrivial)
  SL, full rank:     q^C * K_n(lambda, det U)
  SL, rank deficit:  (-1)^u * q^C * prod_(i=2..n-u) (q^i - 1)

where G is the classical Gauss sum and K_n the hyper-Kloosterman sum.  One
private ``_closed`` decides this case analysis for both groups: it checks
the arguments, eliminates U once for its rank and det, and evaluates the
case.  The GL full-rank value comes from ``characters.twisted_gauss_power``,
which factors G^n through Jacobi sums; n - 1 ring products of G, the route
the tests check it by, would cost a reduction in Z[zeta_m] each.

The trace count follows from the same sums: summing lambda(a (tr X - beta))
over a in F_q and X in GL_n gives q N(beta) = |GL_n| + sum_(a != 0)
lambda(-a beta) S(aI), where S(aI), the trivial-chi GL sum at U = aI, is
(-1)^n q^C.

Each closed form is paired with a literal sum over the enumerated group;
``oracle_report`` runs both for one matrix, and ``verify_grid`` runs it plus
the scaling-invariance and GL/SL ratio identities over a whole parameter grid.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields, replace
from itertools import compress
from operator import getitem

from . import matrix_fq
from .characters import (
    AdditiveCharacter,
    MultiplicativeCharacter,
    _trace_table,
    kloosterman,
    twisted_gauss_power,
    value_ring,
)
from .cyclotomic import CyclotomicInteger
from .finite_field import DEFAULT_MAX_Q, Field, FieldElement, make_field
from .matrix_fq import (
    MatrixFq,
    canonical_rank_matrix,
    gl_blocks,
    random_invertible,
    random_matrix,
    random_rank_matrix,
)

CASE_FULL_RANK = "full-rank"
CASE_TRIVIAL_CHI = "trivial-chi"
CASE_VANISHING = "vanishing"
CASE_SL_FULL_RANK = "sl-full-rank"
CASE_SL_DEFICIENT = "sl-deficient"

CHECK_ORACLE = "closed-vs-oracle"
CHECK_INVARIANCE = "scaling-invariance"
CHECK_RATIO = "gl-sl-ratio"


@dataclass
class SumReport:
    """One verified (or verifiable) sum evaluation.

    For ``closed-vs-oracle`` checks, ``closed_form`` holds the closed-form
    value and ``oracle`` the enumeration value.  For identity checks both
    slots hold the two sides being compared (the transformed side first).
    """

    check: str
    case_label: str
    u: int
    n: int
    p: int
    e: int
    q: int
    chi_index: int | None
    lambda_twist: int
    matrix: tuple[tuple[int, ...], ...]
    closed_form: CyclotomicInteger
    oracle: CyclotomicInteger | None
    note: str = ""

    @property
    def verified(self) -> bool | None:
        if self.oracle is None:
            return None
        return self.closed_form == self.oracle

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["matrix"] = [list(row) for row in self.matrix]
        for key in ("closed_form", "oracle"):
            if doc[key] is not None:
                doc[key] = doc[key].to_json_dict()
        doc["verified"] = self.verified
        return doc


def _case(u: int, n: int, chi: MultiplicativeCharacter | None) -> str:
    """The closed form's case at rank u: the SL sum's when chi is None."""
    if chi is None:
        return CASE_SL_FULL_RANK if u == n else CASE_SL_DEFICIENT
    if u == n:
        return CASE_FULL_RANK
    return CASE_TRIVIAL_CHI if chi.is_trivial else CASE_VANISHING


def _require_shared_field(U: MatrixFq, lam: AdditiveCharacter,
                          chi: MultiplicativeCharacter | None) -> Field:
    f = U.field
    if lam.field != f:
        raise ValueError("additive character from a different field")
    if chi is not None and chi.field != f:
        raise ValueError("multiplicative character from a different field")
    return f


def _q_product(q: int, lo: int, hi: int) -> int:
    """prod_(i=lo..hi) (q^i - 1), 1 for an empty range."""
    out = 1
    for i in range(lo, hi + 1):
        out *= q**i - 1
    return out


def gl_order(field: Field, n: int) -> int:
    """|GL_n(F_q)| = q^C * prod_(i=1..n) (q^i - 1), C = n(n-1)/2."""
    return field.q ** math.comb(n, 2) * _q_product(field.q, 1, n)


def sl_order(field: Field, n: int) -> int:
    return field.q ** math.comb(n, 2) * _q_product(field.q, 2, n)


# ---------------------------------------------------------------------------
# Closed forms.


def _closed(U: MatrixFq, chi: MultiplicativeCharacter | None,
            lam: AdditiveCharacter) -> tuple[str, int, CyclotomicInteger]:
    """(case, rank of U, value) of the closed form of the GL sum at U, or of
    the SL sum when chi is None; one elimination gives rank and det."""
    f = _require_shared_field(U, lam, chi)
    if lam.is_trivial:
        raise ValueError("the closed form requires a nontrivial additive character")
    n = U.n
    u, det = matrix_fq._eliminate(f, [list(r) for r in U.rows])
    case = _case(u, n, chi)
    qc = f.q ** math.comb(n, 2)
    if case == CASE_FULL_RANK:
        value = qc * twisted_gauss_power(chi, lam, n, FieldElement(f, det))
    elif case == CASE_SL_FULL_RANK:
        value = qc * kloosterman(lam, n, FieldElement(f, det))
    elif case == CASE_VANISHING:
        value = value_ring(f).zero()
    else:  # rank-deficient, chi trivial or the SL sum
        lo = 2 if chi is None else 1
        value = value_ring(f).from_int((-1) ** u * qc * _q_product(f.q, lo, n - u))
    return case, u, value


def gl_gauss_closed(U: MatrixFq, chi: MultiplicativeCharacter,
                    lam: AdditiveCharacter) -> CyclotomicInteger:
    """Closed form of sum over GL_n of chi(det X) * lambda(U . X)."""
    return _closed(U, chi, lam)[2]


def sl_gauss_closed(U: MatrixFq, lam: AdditiveCharacter) -> CyclotomicInteger:
    """Closed form of sum over SL_n of lambda(U . X)."""
    return _closed(U, None, lam)[2]


# ---------------------------------------------------------------------------
# Brute-force oracles.


def _character_sum(blocks, U: MatrixFq, chi: MultiplicativeCharacter | None,
                   lam: AdditiveCharacter) -> CyclotomicInteger:
    """Literal sum of chi(det X) * lambda(U . X) over a group's blocks.

    With chi None the sum runs over SL_n: only the members with det X = 1.
    lambda(U . X) splits by rows, so each block's prefix adds one exponent E
    and the k-th last row adds L[k]; every member then adds its own term.
    """
    f = U.field
    ring = value_ring(f)
    m = ring.m
    q1 = f.q - 1
    head = U.n * (U.n - 1)
    # lambda_a(U . X) = zeta_p^tr((aU) . X) and the trace is F_p-linear, so
    # entry i adds (q-1) * tr(aU_i * x_i) to the exponent: one table per entry
    a = lam.a.enc
    tables = [[q1 * t for t in _trace_table(f, f.mul_enc(a, u))] for row in U.rows for u in row]
    # the last row's exponents in itertools.product order, x[0] the most significant
    last = [0]
    for table in tables[head:]:
        last = [e + t for e in last for t in table]
    last = [e % m for e in last]
    counts = [0] * (3 * m)  # E + L[k] + det exponent < 3m; from_power_counts wraps
    if chi is None:
        for prefix, _tr, dets in blocks:
            e = sum(map(getitem, tables, prefix)) % m
            for k in compress(last, map((1).__eq__, dets)):
                counts[e + k] += 1
    else:
        det_exps = [f.p * (chi.index * k % q1) for k in f._log]  # all 0 for a trivial chi
        for prefix, _tr, dets in blocks:
            e = sum(map(getitem, tables, prefix)) % m
            for k, d in zip(last, dets):
                if d:
                    counts[e + k + det_exps[d]] += 1
    return ring.from_power_counts(counts)


def _oracle(U: MatrixFq, chi: MultiplicativeCharacter | None,
            lam: AdditiveCharacter) -> CyclotomicInteger:
    """Literal sum over GL_n at U, over SL_n when chi is None."""
    f = _require_shared_field(U, lam, chi)
    return _character_sum(gl_blocks(f, U.n), U, chi, lam)


def gl_gauss_bruteforce(U: MatrixFq, chi: MultiplicativeCharacter,
                        lam: AdditiveCharacter) -> CyclotomicInteger:
    """Literal sum over all of GL_n; the oracle for gl_gauss_closed.

    Unlike the closed form, this accepts a trivial lambda (it is just a sum).
    """
    return _oracle(U, chi, lam)


def sl_gauss_bruteforce(U: MatrixFq, lam: AdditiveCharacter) -> CyclotomicInteger:
    """Literal sum over all of SL_n; the oracle for sl_gauss_closed."""
    return _oracle(U, None, lam)


# ---------------------------------------------------------------------------
# Counting invertible matrices by trace.


def count_trace_closed(field: Field, n: int, beta: FieldElement) -> int:
    """Number of X in GL_n(F_q) with tr X = beta, by the closed formulas.

    q N(beta) = |GL_n| + (-1)^n q^C sum_(a != 0) lambda(-a beta), the
    trivial-chi GL sums at U = aI (see the module docstring), and that
    character sum is q - 1 at beta = 0 and -1 elsewhere.  The division is
    exact in the integers; this is asserted rather than assumed.  n is
    bounded as every matrix's dimension is, before any arithmetic.
    """
    if not 1 <= n <= matrix_fq.MAX_DIMENSION:
        raise ValueError(f"dimension must be >= 1 and <= {matrix_fq.MAX_DIMENSION}, got {n}")
    if beta.field != field:
        raise ValueError("trace value from a different field")
    q = field.q
    twists = q - 1 if beta.enc == 0 else -1
    count, rem = divmod(gl_order(field, n) + (-1) ** n * q ** math.comb(n, 2) * twists, q)
    if rem:
        raise ArithmeticError("trace-count formula did not divide exactly")
    if count < 0:
        raise ArithmeticError("trace-count formula went negative")
    return count


def count_trace_bruteforce(field: Field, n: int, beta: FieldElement) -> int:
    """Direct count over the GL_n enumeration; the oracle for the formulas."""
    if beta.field != field:
        raise ValueError("trace value from a different field")
    # tr X is the prefix trace plus x[n-1], and x[n-1] = c exactly at the
    # last rows k = c mod q, of which q^(n-1) - (singular ones) are members
    q = field.q
    width = q ** (n - 1)
    return sum(width - dets[field.sub_enc(beta.enc, tr)::q].count(0)
               for _prefix, tr, dets in gl_blocks(field, n))


# ---------------------------------------------------------------------------
# Grid verification.


def oracle_report(U: MatrixFq, chi: MultiplicativeCharacter | None,
                  lam: AdditiveCharacter, check: bool = True) -> SumReport:
    """The closed form of the GL sum at U (the SL sum when chi is None), and
    when ``check`` is set the oracle beside it.  The oracle runs first, so a
    check over the enumeration budget raises before any closed-form work."""
    oracle = _oracle(U, chi, lam) if check else None
    case, u, closed = _closed(U, chi, lam)
    return SumReport(check=CHECK_ORACLE, case_label=case, closed_form=closed,
                     oracle=oracle, **_report_stub(U, chi, lam, u))


def factor_prime_power(q: int) -> tuple[int, int]:
    """Split a prime power q into (p, e); rejects anything else."""
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"field size must be an integer >= 2, got {q}")
    if q > DEFAULT_MAX_Q:
        raise ValueError(f"field size {q} exceeds the budget of {DEFAULT_MAX_Q}")
    p = next((f for f in range(2, math.isqrt(q) + 1) if q % f == 0), q)
    e = 0
    rest = q
    while rest % p == 0:
        rest //= p
        e += 1
    if rest != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def verify_grid(max_n: int, field_sizes, *, samples: int = 5, seed: int = 0,
                lambda_twist: int = 1) -> list[SumReport]:
    """Closed form vs oracle (GL and SL) across a grid, plus identities.

    For each field size q and dimension n <= max_n, every rank u gets the
    canonical diag(I_u, 0) plus ``samples`` seeded random rank-u matrices;
    chi ranges over the trivial character and, when it exists, index 1.
    Scaling invariance (with random invertible P, Q) and the (q-1) ratio
    between the SL and trivial-chi GL sums are checked as extra reports.

    Every report must come back verified; a failing one is a bug in the
    closed forms, the oracles, or the arithmetic underneath.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    reports: list[SumReport] = []
    for q in sorted(set(int(v) for v in field_sizes)):
        p, e = factor_prime_power(q)
        fld = make_field(p, e)
        if not 0 < lambda_twist < q:
            raise ValueError(f"lambda twist {lambda_twist} out of range [1, {q})")
        lam = AdditiveCharacter(fld.element(lambda_twist))
        chis = [MultiplicativeCharacter(fld, 0)]
        if q > 2:
            chis.append(MultiplicativeCharacter(fld, 1))
        for n in range(1, max_n + 1):
            rng = random.Random(f"{seed}:verify:{q}:{n}")
            for u in range(n + 1):
                mats = [canonical_rank_matrix(fld, n, u)]
                mats.extend(random_rank_matrix(fld, n, u, rng) for _ in range(samples))
                for U in mats:
                    cells = [oracle_report(U, chi, lam) for chi in (*chis, None)]
                    reports.extend(cells)
                    if u < n:
                        reports.append(_ratio_report(cells[0], cells[-1]))
            for chi in chis:
                for _ in range(samples):
                    reports.append(_invariance_report(fld, n, chi, lam, rng))
    return reports


def _report_stub(U: MatrixFq, chi: MultiplicativeCharacter | None,
                 lam: AdditiveCharacter, u: int) -> dict:
    f = U.field
    return {
        "u": u,
        "n": U.n,
        "p": f.p,
        "e": f.e,
        "q": f.q,
        "chi_index": chi.index if chi is not None else None,
        "lambda_twist": lam.a.enc,
        "matrix": U.rows,
    }


def _ratio_report(gl: SumReport, sl: SumReport) -> SumReport:
    """(q-1) times the SL closed form against the trivial-chi GL one, both
    read off the oracle reports at the same U."""
    return replace(
        gl,
        check=CHECK_RATIO,
        case_label=CASE_SL_DEFICIENT,
        closed_form=(gl.q - 1) * sl.closed_form,
        oracle=gl.closed_form,
        note="(q-1) * SL sum vs trivial-chi GL sum, rank-deficient case",
    )


def _invariance_report(fld, n, chi, lam, rng) -> SumReport:
    U = random_matrix(fld, n, rng)
    P = random_invertible(fld, n, rng)
    Q = random_invertible(fld, n, rng)
    u = U.rank()
    direct = gl_gauss_bruteforce(U, chi, lam)
    moved = gl_gauss_bruteforce(P @ U @ Q, chi, lam)
    if not chi.is_trivial:
        det_pq = (P @ Q).det()
        moved = moved * value_ring(fld).root_power(chi.exponent(det_pq))
    return SumReport(
        check=CHECK_INVARIANCE,
        case_label=_case(u, n, chi),
        closed_form=moved,
        oracle=direct,
        note="chi(det PQ) * sum(PUQ) vs sum(U), random invertible P, Q",
        **_report_stub(U, chi, lam, u),
    )
