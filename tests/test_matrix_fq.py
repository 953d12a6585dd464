import gc
import itertools
import random
import tracemalloc
from functools import lru_cache

import pytest

from matgauss import matrix_fq
from matgauss.budget import EnumerationBudgetError
from matgauss.finite_field import Field, make_field
from matgauss.matrix_fq import (
    MatrixFq,
    clear_member_cache,
    frobenius_product,
    gl_blocks,
    gl_members,
    random_invertible,
    random_rank_matrix,
)

from literal_groups import literal_gl, literal_sl, walked_members


def order_gl(q, n):
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


class TestBasics:
    def test_construction_from_elements_and_ints(self):
        f = make_field(3)
        a = MatrixFq(f, [[1, 2], [0, 1]])
        b = MatrixFq(f, [[f.element(1), f.element(2)], [f.element(0), f.element(1)]])
        assert a == b
        assert a[0, 1].enc == 2

    def test_rejects_bad_shapes_and_entries(self):
        f = make_field(3)
        with pytest.raises(ValueError):
            MatrixFq(f, [[1, 2], [0]])
        with pytest.raises(ValueError):
            MatrixFq(f, [[5, 0], [0, 1]])
        with pytest.raises(ValueError):
            MatrixFq(f, [[make_field(5).element(1), f.element(0)],
                         [f.element(0), f.element(1)]])

    def test_matmul_against_by_hand(self):
        f = make_field(5)
        a = MatrixFq(f, [[1, 2], [3, 4]])
        b = MatrixFq(f, [[0, 1], [2, 3]])
        assert (a @ b).to_int_rows() == [[4, 2], [3, 0]]  # computed mod 5

    def test_trace_and_partial_trace(self):
        f = make_field(5)
        x = MatrixFq(f, [[1, 2, 3], [4, 4, 1], [0, 2, 3]])
        assert x.partial_trace(0).enc == 0
        assert x.partial_trace(1).enc == 1
        assert x.partial_trace(2).enc == 0
        assert x.trace() == x.partial_trace(3)
        with pytest.raises(ValueError):
            x.partial_trace(4)


class TestFrobeniusProduct:
    def test_zero_matrix(self):
        f = make_field(3)
        u = MatrixFq(f, [[1, 2], [0, 1]])
        assert frobenius_product(u, MatrixFq.zero(f, 2)).enc == 0

    def test_identity_with_itself(self):
        for p, n in [(2, 2), (3, 3), (5, 4)]:
            f = make_field(p)
            i_n = MatrixFq.identity(f, n)
            assert frobenius_product(i_n, i_n).enc == n % p

    def test_worked_example_mod_three(self):
        f = make_field(3)
        u = MatrixFq(f, [[1, 2], [0, 1]])
        v = MatrixFq(f, [[2, 1], [1, 1]])
        # 1*2 + 2*1 + 0*1 + 1*1 = 5 = 2 mod 3
        assert frobenius_product(u, v).enc == 2

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_equals_trace_of_transpose_product(self, p, e):
        f = make_field(p, e)
        rng = random.Random(f"frob:{p}:{e}")
        for n in (2, 3):
            for _ in range(20):
                u = MatrixFq(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])
                x = MatrixFq(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])
                u_t = MatrixFq(f, zip(*u.rows))
                assert frobenius_product(u, x) == (u_t @ x).trace()
                assert frobenius_product(u, x) == frobenius_product(x, u)


class TestDetAndRank:
    def test_det_identity(self):
        for p, e, n in [(2, 1, 2), (3, 1, 3), (2, 2, 2)]:
            f = make_field(p, e)
            assert MatrixFq.identity(f, n).det() == f.one()

    def test_det_example_f2(self):
        f = make_field(2)
        assert MatrixFq(f, [[0, 1], [1, 1]]).det().enc == 1

    def test_det_multiplicative(self):
        rng = random.Random("detmul")
        for p, e in [(3, 1), (5, 1), (2, 2)]:
            f = make_field(p, e)
            for n in (2, 3):
                for _ in range(15):
                    a = MatrixFq(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])
                    b = MatrixFq(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])
                    assert (a @ b).det() == a.det() * b.det()

    def test_rank_examples(self):
        f = make_field(2)
        assert MatrixFq.zero(f, 3).rank() == 0
        assert MatrixFq.identity(f, 3).rank() == 3
        assert MatrixFq(f, [[1, 1], [1, 1]]).rank() == 1

    def test_rank_invariances(self):
        rng = random.Random("rank")
        for p, e in [(2, 1), (3, 1), (2, 2)]:
            f = make_field(p, e)
            for n in (2, 3):
                for _ in range(15):
                    u = MatrixFq(f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)])
                    assert u.rank() == MatrixFq(f, zip(*u.rows)).rank()
                    pm = random_invertible(f, n, rng)
                    qm = random_invertible(f, n, rng)
                    assert (pm @ u @ qm).rank() == u.rank()


def leibniz_det(f, rows):
    """det by the Leibniz expansion, through FieldElement ops only."""
    k = len(rows)
    total = f.zero()
    for perm in itertools.permutations(range(k)):
        term = f.one()
        for i, j in enumerate(perm):
            term = term * f.element(rows[i][j])
        inversions = sum(perm[a] > perm[b] for a in range(k) for b in range(a + 1, k))
        total = total - term if inversions % 2 else total + term
    return total


def minor_rank(f, rows):
    """The largest k with a nonzero k x k minor."""
    n = len(rows)
    for k in range(n, 0, -1):
        for rs in itertools.combinations(range(n), k):
            for cs in itertools.combinations(range(n), k):
                if leibniz_det(f, [[rows[i][j] for j in cs] for i in rs]):
                    return k
    return 0


class TestEliminate:
    """``_eliminate`` (and so det and rank) against the Leibniz and minor references."""

    def check(self, f, rows):
        det = leibniz_det(f, rows)
        rank = minor_rank(f, rows)
        assert matrix_fq._eliminate(f, [list(r) for r in rows]) == (rank, det.enc)
        mat = MatrixFq(f, rows)
        assert mat.det() == det
        assert mat.rank() == rank

    @pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 1, 3)])
    def test_every_small_matrix(self, p, e, n):
        f = make_field(p, e)
        for flat in itertools.product(range(f.q), repeat=n * n):
            self.check(f, [flat[i * n:(i + 1) * n] for i in range(n)])

    @pytest.mark.parametrize("p,e", [(2, 2), (5, 1)])
    @pytest.mark.parametrize("n", [3, 4])
    def test_seeded(self, p, e, n):
        f = make_field(p, e)
        rng = random.Random(f"eliminate:{p}:{e}:{n}")
        for k in range(40):
            rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(n)]
            if k % 2:
                # no pivot in the first column: elimination carries on past it
                for row in rows:
                    row[0] = 0
            self.check(f, rows)
        for u in range(n + 1):
            for _ in range(3):
                self.check(f, random_rank_matrix(f, n, u, rng).to_int_rows())


class TestEnumeration:
    """The members that ``gl_blocks`` lists against the literal enumeration."""

    def test_gl_counts(self):
        for p, n, order in [(2, 2, 6), (2, 3, 168), (3, 2, 48)]:
            f = make_field(p)
            assert len(walked_members(f, n)) == len(literal_gl(f, n)) == order

    def test_sl_counts(self):
        for p, order in [(3, 24), (2, 6)]:  # SL = GL over F_2
            f = make_field(p)
            walked = [x for x, d in walked_members(f, 2) if d == 1]
            assert len(walked) == len(literal_sl(f, 2)) == order

    @pytest.mark.parametrize("q,p,e,n", [(2, 2, 1, 2), (3, 3, 1, 2), (4, 2, 2, 2), (2, 2, 1, 3)])
    def test_members_unique_invertible_and_complete(self, q, p, e, n):
        f = make_field(p, e)
        walked = walked_members(f, n)
        assert all(x.det().enc == d != 0 for x, d in walked)
        assert len(set(x for x, _d in walked)) == len(walked) == order_gl(q, n)
        assert [x for x, _d in walked] == [x for x, _det in literal_gl(f, n)]

    def test_sl_is_det_one_slice(self):
        f = make_field(3)
        members = literal_sl(f, 2)
        assert all(m.det() == f.one() for m in members)
        assert len(members) == order_gl(3, 2) // 2
        assert [x for x, d in walked_members(f, 2) if d == 1] == members

    @pytest.mark.parametrize("n", [0, -1])
    def test_dimension_below_one_refused(self, n):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            gl_blocks(make_field(3), n)

    @pytest.mark.parametrize("p,n,budget", [(5, 3, "1000"), (7, 2, "10")])
    def test_budget_enforced(self, monkeypatch, p, n, budget):
        # the budget is checked when gl_blocks is called, before any block
        monkeypatch.setenv("GAUSS_SUMS_BUDGET", budget)
        with pytest.raises(EnumerationBudgetError):
            gl_blocks(make_field(p), n)


@lru_cache(maxsize=None)
def reference_members(p, e, n):
    """GL_n(F_q) from the literal enumeration as (flat entries, det, trace)."""
    f = make_field(p, e)
    return tuple((sum(x.rows, ()), det.enc, x.trace().enc) for x, det in literal_gl(f, n))


class TestRowWalk:
    """The member stream against a filter over all q^(n*n) candidates."""

    @pytest.mark.parametrize("cached", [True, False], ids=["cached", "streaming"])
    @pytest.mark.parametrize("p,e,n", [
        (2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (7, 1, 2), (2, 3, 2), (3, 2, 2),
        (2, 1, 3), (3, 1, 3), (2, 1, 4), (5, 1, 1), (2, 3, 1),
    ])
    def test_matches_the_filtered_product(self, p, e, n, cached, monkeypatch):
        if not cached:
            monkeypatch.setattr(matrix_fq, "_MEMBER_CACHE_MAX_INTS", 0)
        f = make_field(p, e)
        clear_member_cache()
        members = gl_members(f, n)
        # the call itself fills the block cache, before the stream is read
        assert isinstance(matrix_fq._GL_CACHE.get((f, n)), tuple) == cached
        assert ((f, n) in matrix_fq._GL_CACHE) == cached
        expected = reference_members(p, e, n)
        assert tuple(members) == expected
        assert len(expected) == order_gl(f.q, n)


class TestBlockCache:
    def test_cached_group_retains_under_a_megabyte(self):
        # one block per independent prefix: (prefix, trace, q^n dets), not
        # one (flat, det, trace) tuple per member (3.6 MB for this group)
        f = make_field(13)
        f.mul_enc(2, 3)  # the field's own tables are not the cache's
        clear_member_cache()
        gc.collect()
        tracemalloc.start()
        try:
            gl_members(f, 2)
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(matrix_fq._GL_CACHE[(f, 2)], tuple)
        assert retained < 1_000_000
        clear_member_cache()


def test_det_does_not_invert_the_last_pivot(monkeypatch):
    f = make_field(31)
    calls = []
    real = Field.inv_enc

    def counting(self, a):
        calls.append(a)
        return real(self, a)

    monkeypatch.setattr(Field, "inv_enc", counting)
    rows = [[0, 3, 5], [7, 1, 2], [4, 9, 11]]  # the first column needs a swap
    det = MatrixFq(f, rows).det().enc
    (a, b, c), (d, e, g), (h, i, j) = rows
    assert det == (a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)) % 31
    assert len(calls) == 2
    calls.clear()
    assert MatrixFq(f, rows).rank() == 3
    assert len(calls) == 2


class TestRandomSampling:
    def test_random_rank_matrix_has_exact_rank(self):
        rng = random.Random("ranks")
        for p, e in [(2, 1), (3, 1), (2, 2)]:
            f = make_field(p, e)
            for n in (1, 2, 3):
                for u in range(n + 1):
                    for _ in range(10):
                        assert random_rank_matrix(f, n, u, rng).rank() == u

    def test_seeded_reproducibility(self):
        f = make_field(5)
        a = random_invertible(f, 3, random.Random("fixed"))
        b = random_invertible(f, 3, random.Random("fixed"))
        assert a == b
