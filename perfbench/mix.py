"""Static request mixes of the benchmark workloads.

Nothing here imports matgauss, so the set-up probe can time that import.

A round is one pass over a workload's mix: a list of blocks, one per field
(or per group for ``oracle-check``), in the order below; the traced round
appends the workload's *_TRACE_BLOCKS.  The seed draws matrices, character
indices and lambda twists, never the fields, dimensions, cases or order, so
it does not change what a run costs.

Fields are written as (p, e).
"""

WORKLOADS = ("kloosterman-sl", "gauss-gl", "oracle-check")

# A round is sized to a second or a few, so a run fits about ten rounds or
# more and every cell is measured many times with freshly drawn inputs.
# Cells that take a second or more per request would leave a run only a few
# rounds; they are the *_TRACE_BLOCKS, which only the traced round adds to
# the mix, so the traced run still times them and splits them by layer.

# kloosterman-sl: (field, n of each cold request, n of each request that
# reuses the first cold request's (field, lambda, n) with a new det U).  Cold
# requests of one field get distinct twists, so each one runs the DP.  5 of
# the 22 requests reuse, about one in four.  q=31, n=3 has four cold
# requests, with 9 cheaper and 9 dearer ones around them, so the median
# latency falls in the middle of that cell's samples.  The slowest cell,
# q=64, n=2, has two cold requests, so the tail falls among like requests.
# Traced round only: q=61, n=2 (0.7 s) and the ROADMAP baseline row q=128,
# n=3 (4 s).  Left out: q=81 (0.6 and 1.1 s), q=125 (1.6 and 2.8 s), q=128,
# n=2 and q=61, n=3.
SL_BLOCKS = (
    ((31, 1), (2, 2, 3, 3, 3, 3), (3,)),
    ((37, 1), (2, 3), (2,)),
    ((43, 1), (2, 3), ()),
    ((2, 5), (2, 2, 3), (3,)),
    ((7, 2), (2, 3), (3,)),
    ((2, 6), (2, 2), (2,)),
)
SL_TRACE_BLOCKS = (
    ((61, 1), (2,), ()),
    ((2, 7), (3,), (3,)),
)
SL_SMOKE_BLOCKS = (
    ((31, 1), (2, 3), (3,)),
    ((2, 5), (2,), (2,)),
)

# gauss-gl: (field, n of each full-rank request with a nontrivial character
# of full order q - 1, extra request as (case, n, rank of U) or None).  The
# extras give 2 vanishing, 2 trivial-chi full-rank and 2 trivial-chi
# rank-deficient requests among the 28 of a round.  q=43, n=2 has four
# requests, with 12 cheaper and 12 dearer ones around them, so the median
# latency falls in the middle of that cell's samples (q=343, n=4 has two
# requests to make it 12).  Characters of full order keep the ring
# arithmetic, and so the cost, alike for every seed; lower-order characters
# give sparser Gauss sums.  Traced round only: n=4 on q=2048
# (degree 1936, the largest ring) and the ROADMAP baseline row q=2187, n=4,
# about 1.9 s each.  Left out: q=61 (0.24-0.37 s, a lone slowest cell) and
# n=2, 3 on q=2048 and q=2187 (1.2-2 s each).
GL_BLOCKS = (
    ((31, 1), (2, 3, 4), ("vanishing", 3, 2)),
    ((43, 1), (2, 2, 2, 2, 3, 4), ("trivial-full", 3, 3)),
    ((3, 5), (2, 3, 4), ("trivial-deficient", 4, 2)),
    ((7, 3), (2, 3, 4, 4), ("vanishing", 3, 2)),
    ((5, 4), (2, 3, 4), ("trivial-full", 3, 3)),
    ((2, 10), (2, 3, 4), ("trivial-deficient", 4, 2)),
)
GL_TRACE_BLOCKS = (
    ((2, 11), (4,), None),
    ((3, 7), (4,), None),
)
GL_SMOKE_BLOCKS = (
    ((31, 1), (2, 3), ("vanishing", 3, 2)),
    ((3, 5), (2, 3), ("trivial-full", 3, 3)),
    ((7, 1), (2, 3), ("trivial-deficient", 4, 2)),
)
# (chi, lambda) pairs drawn per field and run, with distinct characters;
# each cell takes them in turn, so the Gauss sum identity is checked once
# per pair rather than per request, and a cell's cost averages over the
# pairs (the density of G(chi), and so the cost of its powers, depends on
# the character).  q=31 and q=43 have 8 and 12 characters of full order, so
# every run uses all of them, in seeded order, and the median, which falls
# on q=43, n=2, does not depend on which characters the seed draws.
GL_PAIRS_PER_FIELD = 12

# oracle-check: (field, n, checks per request, requests).  A request checks
# the closed forms of one group against its enumeration oracles, one call
# each: gl_gauss_bruteforce, sl_gauss_bruteforce, count_trace_bruteforce.
# Every group here fits the member cache, so its first request enumerates
# and the others read the cache.  Traced round only: GL_2(F_16) (0.9 s first
# request) and one GL check on GL_2(F_29) (682 080 members, about 4.8 s),
# which is over the cache cap and streams on every call, so the traced run
# covers both sides of that choice.  Left out: GL_2(F_27) and GL_3(F_4)
# (about 5 s per first request) and GL_3(F_5) (about 14.6 s per oracle sum).
_ALL_CHECKS = ("gl", "sl", "count")
ORACLE_BLOCKS = (
    ((5, 1), 2, _ALL_CHECKS, 4),
    ((7, 1), 2, _ALL_CHECKS, 4),
    ((2, 3), 2, _ALL_CHECKS, 4),
    ((3, 2), 2, _ALL_CHECKS, 4),
    ((11, 1), 2, _ALL_CHECKS, 4),
    ((13, 1), 2, _ALL_CHECKS, 4),
    ((2, 1), 3, _ALL_CHECKS, 4),
    ((3, 1), 3, _ALL_CHECKS, 4),
)
ORACLE_TRACE_BLOCKS = (
    ((2, 4), 2, _ALL_CHECKS, 2),
    ((29, 1), 2, ("gl",), 1),
)
ORACLE_SMOKE_BLOCKS = (
    ((5, 1), 2, _ALL_CHECKS, 2),
    ((2, 2), 2, _ALL_CHECKS, 2),
    ((2, 1), 3, _ALL_CHECKS, 2),
)

# Field whose block supplies the requests replayed through the CLI.
CLI_FIELD = {"kloosterman-sl": (31, 1), "gauss-gl": (31, 1), "oracle-check": (5, 1)}

# Kloosterman sums are compared against kloosterman_bruteforce when the
# enumeration has at most this many tuples: every SL cell above but the
# traced q=128, n=3 (16 129 tuples, about 0.7 s per check).
KLOOSTERMAN_BRUTE_MAX = 10_000


# workload: (mix, cells only the traced round adds, smoke mix)
_BLOCKS = {
    "kloosterman-sl": (SL_BLOCKS, SL_TRACE_BLOCKS, SL_SMOKE_BLOCKS),
    "gauss-gl": (GL_BLOCKS, GL_TRACE_BLOCKS, GL_SMOKE_BLOCKS),
    "oracle-check": (ORACLE_BLOCKS, ORACLE_TRACE_BLOCKS, ORACLE_SMOKE_BLOCKS),
}


def blocks(workload: str, smoke: bool = False, traced: bool = False) -> tuple:
    """The blocks of one round: the smoke mix, or the mix plus, when traced,
    the cells only the traced round runs."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}")
    mix, trace_only, smoke_mix = _BLOCKS[workload]
    if smoke:
        return smoke_mix
    return mix + trace_only if traced else mix


def fields(workload: str, smoke: bool = False, traced: bool = False) -> list[tuple[int, int]]:
    """Every (p, e) the round's requests use, in mix order."""
    out = []
    for block in blocks(workload, smoke, traced):
        if block[0] not in out:
            out.append(block[0])
    return out
