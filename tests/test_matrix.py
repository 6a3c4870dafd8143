import random
from fractions import Fraction

import pytest

from daectrl.matrix import (
    RatMatrix,
    bareiss,
    enumerate_selections,
    hconcat,
    rank_by_minors,
)

from oracles import cofactor_det

M = RatMatrix.from_rows


def random_matrix(rng, rows, cols, lo=-5, hi=5):
    return RatMatrix(rows, cols, [rng.randint(lo, hi) for _ in range(rows * cols)])


def random_rational_matrix(rng, rows, cols, den=100):
    return RatMatrix(rows, cols, [Fraction(rng.randint(-9, 9), rng.randint(1, den))
                                  for _ in range(rows * cols)])


class TestConstruction:
    def test_entry_count_checked(self):
        with pytest.raises(ValueError):
            RatMatrix(2, 2, [1, 2, 3])

    def test_zero_dimensions_ok(self):
        z = RatMatrix(3, 0, ())
        assert z.rows == 3 and z.cols == 0
        assert RatMatrix(0, 4, ()).rank() == 0

    def test_string_entries(self):
        m = M([["1/2", "-3/7"]])
        assert m[0, 0] == Fraction(1, 2) and m[0, 1] == Fraction(-3, 7)


class TestHconcat:
    def test_scalars(self):
        assert hconcat([M([[1]]), M([[2]]), M([[3]])]) == M([[1, 2, 3]])

    def test_empty_block_noop(self):
        assert hconcat([RatMatrix.identity(2), RatMatrix(2, 0, ())]) == RatMatrix.identity(2)

    def test_columns_to_identity(self):
        e1, e2 = M([[1], [0]]), M([[0], [1]])
        assert hconcat([e1, e2]) == RatMatrix.identity(2)

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            hconcat([RatMatrix.identity(2), RatMatrix.identity(3)])


class TestSubmatrix:
    def test_identity_block(self):
        assert RatMatrix.identity(3).submatrix((0, 1), (0, 1)) == RatMatrix.identity(2)

    def test_kalman_pattern(self):
        # [e1, 0, e2, 0, e3, 0] picks down to the 3x3 identity
        m = M([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]])
        assert m.submatrix((0, 1, 2), (0, 2, 4)) == RatMatrix.identity(3)

    def test_empty_picks(self):
        s = RatMatrix.identity(3).submatrix((), ())
        assert s.rows == 0 and s.cols == 0

    def test_bad_picks(self):
        with pytest.raises(ValueError):
            RatMatrix.identity(3).submatrix((1, 1), (0, 1))
        with pytest.raises(ValueError):
            RatMatrix.identity(3).submatrix((0, 3), (0, 1))


class TestDet:
    def test_identity(self):
        assert RatMatrix.identity(4).det() == 1

    def test_empty_product(self):
        assert RatMatrix(0, 0, ()).det() == 1

    def test_proportional_rows(self):
        assert M([[1, 2], [2, 4]]).det() == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            M([[1, 2, 3]]).det()

    def test_agrees_with_cofactor_oracle(self):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n)
            assert m.det() == cofactor_det(m.to_lists())

    def test_minor(self):
        m = M([[1, 2], [3, 4]])
        assert m.minor((0, 1), (0, 1)) == -2
        assert m.minor((), ()) == 1  # degree-0 minor is the empty product
        assert RatMatrix.identity(3).minor((0, 1), (0, 1)) == 1
        with pytest.raises(ValueError):
            m.minor((0,), (0, 1))


class TestRank:
    def test_identity_block(self):
        assert hconcat([RatMatrix.identity(2), RatMatrix.zero(2, 3)]).rank() == 2

    def test_kalman_block(self):
        m = M([[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 1, 0]])
        assert m.rank() == 3

    def test_zero_matrix(self):
        assert RatMatrix.zero(3, 4).rank() == 0

    def test_agrees_with_minor_oracle(self):
        rng = random.Random(22)
        for _ in range(150):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(rng, r, c, -3, 3)
            assert m.rank() == rank_by_minors(m)

    def test_invariance_under_row_ops(self):
        rng = random.Random(23)
        for _ in range(50):
            m = random_matrix(rng, 3, 4)
            rows = m.to_lists()
            rng.shuffle(rows)
            i = rng.randrange(3)
            rows[i] = [Fraction(7, 3) * x for x in rows[i]]
            assert RatMatrix.from_rows(rows).rank() == m.rank()


class TestIntegerElimination:
    """rank and det scale each row to integers and run `bareiss`; checked
    against the brute-force minor rank and the cofactor determinant."""

    def test_denominators(self):
        rng = random.Random(26)
        for _ in range(150):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = random_rational_matrix(rng, r, c)
            assert m.rank() == rank_by_minors(m)
            if r == c:
                assert m.det() == cofactor_det(m.to_lists())

    def test_rank_deficient(self):
        rng = random.Random(27)
        for _ in range(80):
            r, k, c = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 4)
            m = random_rational_matrix(rng, r, k, 7) @ random_rational_matrix(rng, k, c, 7)
            assert m.rank() == rank_by_minors(m) <= k
            if r == c:
                assert m.det() == cofactor_det(m.to_lists())
                if k < r:
                    assert m.det() == 0

    def test_zero_rows_and_columns(self):
        m = M([[0, 0, 0], ["1/2", 0, "-3/4"], [0, 0, 0], ["-1/3", 0, "5/7"]])
        assert m.rank() == rank_by_minors(m) == 2
        for sq in (M([[0, 0], ["1/2", 3]]), M([[0, "1/2"], [0, 3]]), RatMatrix.zero(3, 3)):
            assert sq.det() == cofactor_det(sq.to_lists()) == 0
            assert sq.rank() == rank_by_minors(sq)
        # a zero leading column forces the first row exchange
        m = M([[0, 1, 2], [0, 3, "1/4"], ["2/3", 0, 5]])
        assert m.det() == cofactor_det(m.to_lists()) and m.rank() == 3

    def test_empty_shapes(self):
        for k in range(4):
            assert RatMatrix(0, k, ()).rank() == 0
            assert RatMatrix(k, 0, ()).rank() == 0
            assert rank_by_minors(RatMatrix(k, 0, ())) == 0
        assert RatMatrix(0, 0, ()).det() == 1 == cofactor_det([])

    def test_negative_entries(self):
        m = M([[-2, "-1/3"], ["-5/2", -7]])
        assert m.det() == Fraction(79, 6) == cofactor_det(m.to_lists())
        assert m.rank() == 2
        assert M([[-1, "-2/3"], [-3, -2]]).rank() == 1
        assert M([[-1, "-2/3"], [-3, -2]]).det() == 0

    def test_exchange_signs(self):
        assert M([[0, 1], [1, 0]]).det() == -1
        assert M([[0, 1, 0], [0, 0, 1], [1, 0, 0]]).det() == 1
        assert M([[0, 0, "1/2"], [0, 3, 0], [-2, 0, 0]]).det() == 3

    def test_leading_principal_minors_without_exchange(self):
        rng = random.Random(28)
        stopped = 0
        for _ in range(150):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            want = [cofactor_det([r[:k] for r in rows[:k]]) for k in range(1, n + 1)]
            got = list(bareiss([list(r) for r in rows], exchange=False))
            if 0 in want:
                want = want[:want.index(0) + 1]
                stopped += 1
            assert got == want
        assert stopped > 10  # the early stop is exercised


class TestKernel:
    def test_identity_zero_block(self):
        e = hconcat([RatMatrix.identity(2), RatMatrix.zero(2, 2)])
        k = e.kernel_basis()
        assert k.to_lists() == [[0, 0], [0, 0], [1, 0], [0, 1]]

    def test_full_rank_gives_empty(self):
        k = RatMatrix.identity(3).kernel_basis()
        assert k.rows == 3 and k.cols == 0

    def test_zero_matrix_gives_identity(self):
        assert RatMatrix.zero(2, 3).kernel_basis() == RatMatrix.identity(3)

    def test_rank_nullity_and_exact_annihilation(self):
        rng = random.Random(24)
        for _ in range(100):
            r, c = rng.randint(1, 4), rng.randint(1, 5)
            m = random_matrix(rng, r, c, -4, 4)
            k = m.kernel_basis()
            assert k.cols == c - m.rank()
            assert (m @ k).is_zero()
            assert k.rank() == k.cols


class TestSelections:
    def test_counts(self):
        assert len(enumerate_selections(2, 2, 1)) == 4
        assert len(enumerate_selections(3, 3, 3)) == 1
        assert len(enumerate_selections(2, 3, 2)) == 3

    def test_lexicographic_and_deterministic(self):
        sels = enumerate_selections(2, 3, 2)
        assert sels == [((0, 1), (0, 1)), ((0, 1), (0, 2)), ((0, 1), (1, 2))]

    def test_too_large(self):
        with pytest.raises(ValueError):
            enumerate_selections(2, 3, 3)


def test_inverse():
    rng = random.Random(25)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        if m.det() == 0:
            with pytest.raises(ValueError):
                m.inverse()
            continue
        assert m @ m.inverse() == RatMatrix.identity(n)
