"""Requests of the benchmark workloads: generation, evaluation and exact checks.

``Workload.next_round`` draws one round of the mix in ``mix.py`` from the
seeded generator.  ``evaluate`` makes the direct library call a user would
make; ``evaluate_traced`` makes the same public calls the closed form or
oracle makes, one span each.  ``Checker`` judges a result without trusting the
code path that produced it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import mix
from matgauss import (
    AdditiveCharacter,
    CyclotomicInteger,
    MultiplicativeCharacter,
    classical_gauss_sum,
    clear_character_caches,
    clear_member_cache,
    count_trace_bruteforce,
    count_trace_closed,
    get_ring,
    gl_gauss_bruteforce,
    gl_gauss_closed,
    gl_members,
    is_prime,
    kloosterman,
    kloosterman_bruteforce,
    random_invertible,
    random_matrix,
    random_rank_matrix,
    sl_gauss_bruteforce,
    sl_gauss_closed,
    value_ring,
)
from matgauss.finite_field import distinct_prime_factors

# relative tolerance of the acceptance suite's magnitude checks
MAGNITUDE_RTOL = 1e-6


@dataclass
class Request:
    kind: str  # sl, gl, oracle; or a part of an oracle request: oracle-gl, oracle-sl, oracle-count
    cell: str  # label naming the kind, q and n
    case: str
    field: object
    n: int
    U: object = None
    lam: AdditiveCharacter | None = None
    chi: MultiplicativeCharacter | None = None
    beta: object = None
    dp_hit: bool = False  # SL: (field, lambda, n) already evaluated this round
    parts: tuple = ()  # oracle: the closed form vs oracle checks it makes on one group


class Workload:
    """One workload's seeded request stream over fields built during set-up."""

    def __init__(self, name: str, seed: int, fields: dict, tables: dict, smoke: bool = False):
        if name not in mix.WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.smoke = smoke
        self.fields = fields
        self.tables = tables
        self.rng = random.Random(f"{seed}:{name}")
        self.pairs = {}
        self.turns = {}

    def next_round(self, traced: bool = False) -> list[Request]:
        """One round of the mix; ``traced`` appends the traced-only cells."""
        make = {"kloosterman-sl": self._sl_block, "gauss-gl": self._gl_block,
                "oracle-check": self._oracle_block}[self.name]
        return [req for block in mix.blocks(self.name, self.smoke, traced) for req in make(*block)]

    def _gl_pair(self, pe, cell):
        """The next (chi, lambda) pair of one cell of field ``pe``.

        A cell is the field's full-rank requests on one n, or its extra
        request's case.  A field's pairs are drawn on its first use, with distinct characters;
        a field with at most GL_PAIRS_PER_FIELD characters of full order gets
        all of them, in seeded order.  Each cell takes the pairs in turn, so
        over the rounds it meets every pair of its field.
        """
        if pe not in self.pairs:
            f = self.fields[pe]
            q = f.q
            full_order = [j for j in range(1, q - 1) if math.gcd(j, q - 1) == 1]
            chosen = self.rng.sample(full_order, min(mix.GL_PAIRS_PER_FIELD, len(full_order)))
            self.pairs[pe] = [
                (MultiplicativeCharacter(self.tables[pe], j), AdditiveCharacter(f.element(self.rng.randrange(1, q))))
                for j in chosen
            ]
        turn = self.turns.get((pe, cell), 0)
        self.turns[(pe, cell)] = turn + 1
        pairs = self.pairs[pe]
        return pairs[turn % len(pairs)]

    def _sl_block(self, pe, dims, reuse_dims) -> list[Request]:
        f = self.fields[pe]
        rng = self.rng
        # distinct twists: no cold request may find another's DP levels cached
        twists = rng.sample(range(1, f.q), len(dims))
        out = []
        cold = {}
        for n, a in zip(dims, twists):
            U = random_invertible(f, n, rng)
            lam = AdditiveCharacter(f.element(a))
            cold.setdefault(n, (U, lam))
            out.append(Request("sl", f"sl q={f.q} n={n}", "cold", f, n, U, lam))
        for n in reuse_dims:
            U0, lam = cold[n]
            det0 = U0.det()
            U = random_invertible(f, n, rng)
            while U.det() == det0:
                U = random_invertible(f, n, rng)
            out.append(Request("sl", f"sl q={f.q} n={n}", "reuse", f, n, U, lam, dp_hit=True))
        return out

    def _gl_block(self, pe, dims, extra) -> list[Request]:
        f = self.fields[pe]
        rng = self.rng
        out = []
        for n in dims:
            chi, lam = self._gl_pair(pe, n)
            U = random_invertible(f, n, rng)
            out.append(Request("gl", f"gl q={f.q} n={n}", "full-rank", f, n, U, lam, chi))
        if extra is None:
            return out
        case, n, u = extra
        chi, lam = self._gl_pair(pe, case)
        if case != "vanishing":
            chi = MultiplicativeCharacter(self.tables[pe], 0)
        U = random_rank_matrix(f, n, u, rng)
        out.append(Request("gl", f"gl q={f.q} n={n}", case, f, n, U, lam, chi))
        return out

    def _oracle_block(self, pe, n, kinds, repeats) -> list[Request]:
        f = self.fields[pe]
        q = f.q
        rng = self.rng
        out = []
        for i in range(repeats):
            parts = []
            for kind in kinds:
                cell = f"oracle-{kind} q={q} n={n}"
                if kind == "count":
                    beta = f.element(rng.randrange(q))
                    parts.append(Request("oracle-count", cell, "count", f, n, beta=beta))
                    continue
                lam = AdditiveCharacter(f.element(rng.randrange(1, q)))
                if kind == "gl":
                    chi = MultiplicativeCharacter(self.tables[pe], rng.randrange(1, q - 1) if q > 2 else 0)
                    U = random_invertible(f, n, rng)
                    parts.append(Request("oracle-gl", cell, "full-rank", f, n, U, lam, chi))
                else:
                    U = random_matrix(f, n, rng)
                    parts.append(Request("oracle-sl", cell, "any-rank", f, n, U, lam))
            out.append(Request("oracle", f"oracle q={q} n={n}", "first" if i == 0 else "repeat",
                               f, n, parts=tuple(parts)))
        return out


def reset_caches(fields) -> None:
    """Empty the request-level caches, keeping the state set-up leaves.

    Every round starts like the first: DP levels, member lists and reduction
    rows are rebuilt inside the requests, so rounds cost the same and the
    number of rounds a run fits does not change its metrics.
    """
    clear_character_caches()
    clear_member_cache()
    get_ring.cache_clear()
    for f in fields:
        value_ring(f)


def evaluate(req: Request):
    """The direct library calls; oracle parts return (closed form, oracle)."""
    kind = req.kind
    if kind == "oracle":
        return [evaluate(part) for part in req.parts]
    if kind == "sl":
        return sl_gauss_closed(req.U, req.lam)
    if kind == "gl":
        return gl_gauss_closed(req.U, req.chi, req.lam)
    if kind == "oracle-gl":
        return gl_gauss_closed(req.U, req.chi, req.lam), gl_gauss_bruteforce(req.U, req.chi, req.lam)
    if kind == "oracle-sl":
        return sl_gauss_closed(req.U, req.lam), sl_gauss_bruteforce(req.U, req.lam)
    if kind == "oracle-count":
        return (count_trace_closed(req.field, req.n, req.beta),
                count_trace_bruteforce(req.field, req.n, req.beta))
    raise ValueError(f"unknown request kind {kind!r}")


def evaluate_closed(req: Request):
    """The closed forms alone, as direct calls."""
    if req.kind == "oracle":
        return [evaluate_closed(part) for part in req.parts]
    if req.kind in ("sl", "oracle-sl"):
        return sl_gauss_closed(req.U, req.lam)
    if req.kind in ("gl", "oracle-gl"):
        return gl_gauss_closed(req.U, req.chi, req.lam)
    return count_trace_closed(req.field, req.n, req.beta)


def evaluate_traced(req: Request, tracer):
    """``evaluate`` split into the public calls it makes, one span each."""
    kind = req.kind
    if kind == "sl":
        return _sl_traced(req, tracer)
    if kind == "gl":
        return _gl_traced(req, tracer)
    with tracer.span("matrix_fq.gl_members"):
        gl_members(req.field, req.n)
    return [_oracle_part_traced(part, tracer) for part in req.parts]


def closed_forms(value):
    """The closed-form part of an ``evaluate`` result."""
    return [closed for closed, _oracle in value] if isinstance(value, list) else value


def _oracle_part_traced(req: Request, tracer):
    kind = req.kind
    if kind == "oracle-gl":
        closed = _gl_traced(req, tracer)
        with tracer.span("gauss_sums.gl_gauss_bruteforce"):
            return closed, gl_gauss_bruteforce(req.U, req.chi, req.lam)
    if kind == "oracle-sl":
        closed = _sl_traced(req, tracer)
        with tracer.span("gauss_sums.sl_gauss_bruteforce"):
            return closed, sl_gauss_bruteforce(req.U, req.lam)
    with tracer.span("gauss_sums.count_trace_closed"):
        closed = count_trace_closed(req.field, req.n, req.beta)
    with tracer.span("gauss_sums.count_trace_bruteforce"):
        return closed, count_trace_bruteforce(req.field, req.n, req.beta)


def _sl_traced(req: Request, tracer):
    # sl_gauss_closed: rank, det, Kloosterman DP, times q^C
    with tracer.span("matrix_fq.rank"):
        u = req.U.rank()
    if u < req.n:
        with tracer.span("gauss_sums.sl_gauss_closed"):
            return sl_gauss_closed(req.U, req.lam)
    with tracer.span("matrix_fq.det"):
        y = req.U.det()
    with tracer.span("characters.kloosterman"):
        k = kloosterman(req.lam, req.n, y)
    with tracer.span("cyclotomic.mul"):
        return req.field.q ** math.comb(req.n, 2) * k


def _gl_traced(req: Request, tracer):
    # gl_gauss_closed: rank, G(chi, lambda), G^n, det, conj(chi)(det U), products
    with tracer.span("matrix_fq.rank"):
        u = req.U.rank()
    if u < req.n:
        with tracer.span("gauss_sums.gl_gauss_closed"):
            return gl_gauss_closed(req.U, req.chi, req.lam)
    with tracer.span("characters.classical_gauss_sum"):
        g = classical_gauss_sum(req.chi, req.lam)
    with tracer.span("cyclotomic.pow"):
        val = g ** req.n
    if not req.chi.is_trivial:
        with tracer.span("matrix_fq.det"):
            d = req.U.det()
        with tracer.span("cyclotomic.root_power"):
            root = value_ring(req.field).root_power(req.chi.conjugate().exponent(d))
        with tracer.span("cyclotomic.mul"):
            val = val * root
    with tracer.span("cyclotomic.mul"):
        return req.field.q ** math.comb(req.n, 2) * val


class ModularImage:
    """The ring map Z[zeta_m] -> F_l sending zeta to r, for a prime l = 1 (mod m).

    r has order exactly m, so it is a root of Phi_m mod l and the map is a
    homomorphism: an identity between cyclotomic integers must hold in its
    image, and a value off in any coefficient fails it unless l happens to
    divide the error (l > 10^9).  Evaluating costs O(phi(m)), against
    O(phi(m)^2) for the same identity in the ring.
    """

    def __init__(self, m: int):
        l = (10**9 // m + 1) * m + 1
        while not is_prime(l):
            l += m
        primes = distinct_prime_factors(m)
        for g in range(2, l):
            r = pow(g, (l - 1) // m, l)
            if all(pow(r, m // p, l) != 1 for p in primes):
                break
        self.l = l
        self.r = r
        self.r_inv = pow(r, -1, l)

    def image(self, value: CyclotomicInteger, conjugate: bool = False) -> int:
        """Image of value, or of its complex conjugate (zeta -> zeta^-1)."""
        r = self.r_inv if conjugate else self.r
        acc = 0
        for c in reversed(value.coeffs):
            acc = (acc * r + c) % self.l
        return acc


class Checker:
    """Exact checks of request results; returns None or what failed.

    Each check uses a route independent of the closed form's code path: the
    enumeration oracles, the Gauss sum identity G(chi) G(conj chi) =
    chi(-1) q, the norm q^(2C+n) of a full-rank GL value (exact in a
    ``ModularImage``), and the Deligne bound on Kloosterman sums.
    """

    def __init__(self):
        self._gauss_pairs: dict[tuple, bool] = {}
        self._images: dict[int, ModularImage] = {}

    def __call__(self, req: Request, value) -> str | None:
        try:
            if req.kind == "sl":
                return self._sl(req, value)
            if req.kind == "gl":
                return self._gl(req, value)
            for part, (closed, oracle) in zip(req.parts, value, strict=True):
                if closed != oracle:
                    return f"{part.cell}: closed form differs from the enumeration oracle"
            return None
        except Exception as exc:  # a malformed value is a failed request
            return f"check raised {type(exc).__name__}: {exc}"

    def _sl(self, req: Request, value) -> str | None:
        q, n = req.field.q, req.n
        scale = q ** math.comb(n, 2)
        if (q - 1) ** (n - 1) <= mix.KLOOSTERMAN_BRUTE_MAX:
            if value != scale * kloosterman_bruteforce(req.lam, n, req.U.det()):
                return "differs from q^C * kloosterman_bruteforce"
        bound = scale * n * q ** ((n - 1) / 2)
        if value.abs_embed() > bound * (1 + MAGNITUDE_RTOL):
            return "exceeds the Deligne bound q^C * n * q^((n-1)/2)"
        return None

    def _gl(self, req: Request, value) -> str | None:
        f, n, chi = req.field, req.n, req.chi
        q = f.q
        c2 = math.comb(n, 2)
        if req.case == "vanishing":
            return None if value.is_zero() else "rank-deficient nontrivial-chi sum is not 0"
        if req.case == "trivial-full":
            # G(trivial, lambda) = -1
            return None if value == (-1) ** n * q**c2 else "differs from (-1)^n q^C"
        if req.case == "trivial-deficient":
            if value != (q - 1) * sl_gauss_closed(req.U, req.lam):
                return "differs from (q-1) times the SL sum"
            return None
        key = (q, chi.index, req.lam.a.enc)
        if key not in self._gauss_pairs:
            ring = value_ring(f)
            lhs = classical_gauss_sum(chi, req.lam) * classical_gauss_sum(chi.conjugate(), req.lam)
            chi_minus_one = ring.root_power(chi.exponent(f.element(f.neg_enc(1))))
            self._gauss_pairs[key] = lhs == chi_minus_one * q
        if not self._gauss_pairs[key]:
            return "G(chi) G(conj chi) != chi(-1) q"
        target = q ** (c2 + n / 2)
        if abs(value.abs_embed() - target) > MAGNITUDE_RTOL * target:
            return "|value| differs from q^C q^(n/2)"
        image = self._images.get(value.m)
        if image is None:
            image = self._images[value.m] = ModularImage(value.m)
        norm = image.image(value) * image.image(value, conjugate=True) % image.l
        if norm != pow(q, 2 * c2 + n, image.l):
            return "value * conj(value) != q^(2C+n)"
        return None


def corrupt(value):
    """The value with one coefficient off by one; used to test the checks."""
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    if isinstance(value, tuple):
        return (corrupt(value[0]),) + value[1:]
    if isinstance(value, CyclotomicInteger):
        return CyclotomicInteger(value.m, (value.coeffs[0] + 1,) + value.coeffs[1:])
    return value + 1
