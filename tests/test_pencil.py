import random
from fractions import Fraction

import pytest

from daectrl.algebra import ONE, Poly
from daectrl.matrix import RatMatrix
from daectrl.pencil import (
    PolyMatrix,
    build_pencil,
    generic_rank,
    minor_gcd,
    rank_attained,
)

from oracles import cofactor_det, cofactor_minor_gcd

M = RatMatrix.from_rows


def P(*asc):
    return Poly(list(asc))


def pm_from(rows):
    nr, nc = len(rows), len(rows[0])
    return PolyMatrix(nr, nc, [e for row in rows for e in row])


def random_poly_matrix(rng, rows, cols, max_deg=2):
    ents = []
    for _ in range(rows * cols):
        ents.append(Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, max_deg + 1))]))
    return PolyMatrix(rows, cols, ents)


class TestBuildEval:
    def test_scalar_pencil(self):
        pm = build_pencil(M([[1]]), M([[2]]), M([[3]]))
        assert pm.rows == 1 and pm.cols == 2
        assert pm[0, 0] == P(-2, 1) and pm[0, 1] == P(3)

    def test_degenerate_e(self):
        pm = build_pencil(M([[0]]), M([[1]]), M([[1]]))
        assert pm[0, 0] == P(-1) and pm[0, 1] == P(1)

    def test_x_identity(self):
        pm = build_pencil(RatMatrix.identity(2), RatMatrix.zero(2, 2), RatMatrix.zero(2, 1))
        assert pm[0, 0] == P(0, 1) and pm[1, 1] == P(0, 1)
        assert pm[0, 1].is_zero() and pm[0, 2].is_zero()

    def test_eval(self):
        pm = pm_from([[P(-2, 1), P(3)]])
        assert pm.eval(2).to_lists() == [[0, 3]]
        assert pm.eval(0).to_lists() == [[-2, 3]]
        assert pm.eval(Fraction(1, 2))[0, 0] == Fraction(-3, 2)


class TestGenericRank:
    def test_scalar(self):
        assert generic_rank(pm_from([[P(-2, 1), P(3)]])) == 1

    def test_regular_ode_pencil(self):
        rng = random.Random(31)
        for _ in range(20):
            A = RatMatrix(2, 2, [rng.randint(-4, 4) for _ in range(4)])
            B = RatMatrix(2, 1, [rng.randint(-4, 4) for _ in range(2)])
            pm = build_pencil(RatMatrix.identity(2), A, B)
            assert generic_rank(pm) == 2  # det(xI - A) is never the zero polynomial

    def test_zero_matrix(self):
        assert generic_rank(pm_from([[Poly()] * 3, [Poly()] * 3])) == 0

    def test_dominates_pointwise_rank(self):
        rng = random.Random(32)
        for _ in range(40):
            pm = random_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
            g = generic_rank(pm)
            drops = 0
            for _ in range(20):
                x0 = Fraction(rng.randint(-30, 30), rng.randint(1, 10))
                r = pm.eval(x0).rank()
                assert r <= g
                drops += r < g
            # equality holds at all but finitely many points
            assert drops <= pm.max_degree * min(pm.rows, pm.cols)


class TestMinorGcd:
    def test_coprime_minors(self):
        assert minor_gcd(pm_from([[P(-2, 1), P(3)]]), 1) == P(1)

    def test_single_entry(self):
        g = minor_gcd(pm_from([[P(-2, 1), Poly()]]), 1)
        assert g == P(-2, 1)

    def test_repeated_diagonal(self):
        pm = pm_from([[P(-1, 1), Poly()], [Poly(), P(-1, 1)]])
        assert minor_gcd(pm, 2) == P(1, -2, 1)

    def test_above_generic_rank_is_zero(self):
        rng = random.Random(33)
        for _ in range(30):
            pm = random_poly_matrix(rng, 2, 3, max_deg=1)
            g = generic_rank(pm)
            if g < 2:
                assert minor_gcd(pm, g + 1).is_zero()

    def test_r_too_large(self):
        with pytest.raises(ValueError):
            minor_gcd(pm_from([[P(1)]]), 2)

    def test_matches_hand_gcd_on_2x2(self):
        rng = random.Random(34)
        for _ in range(30):
            pm = random_poly_matrix(rng, 2, 2, max_deg=1)
            det = cofactor_det([[pm[0, 0], pm[0, 1]], [pm[1, 0], pm[1, 1]]], ONE)
            assert minor_gcd(pm, 2) == det.monic()


def random_rational(rng, rows, cols, den=100):
    return RatMatrix(rows, cols, [Fraction(rng.randint(-9, 9), rng.randint(1, den))
                                  for _ in range(rows * cols)])


def assert_matches_oracle(pm):
    for r in range(min(pm.rows, pm.cols) + 1):
        assert minor_gcd(pm, r) == cofactor_minor_gcd(pm, r), (pm.entries, r)


class TestMinorGcdDifferential:
    """Evaluation-interpolation against the gcd of cofactor-expanded minors,
    at every order r."""

    def test_random_pencils(self):
        rng = random.Random(37)
        for _ in range(40):
            l, n, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
            assert_matches_oracle(build_pencil(
                random_rational(rng, l, n), random_rational(rng, l, n),
                random_rational(rng, l, m)))

    def test_structured_pencils(self):
        # share a root: row 0 of A is 3 times row 0 of E, row 0 of B is zero
        rng = random.Random(38)
        for _ in range(20):
            l, n, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
            E, A, B = (random_rational(rng, l, k, 9) for k in (n, n, m))
            A = RatMatrix.from_rows([[3 * e for e in E.row(0)]] + A.to_lists()[1:], n)
            B = RatMatrix.from_rows([[0] * m] + B.to_lists()[1:], m)
            assert_matches_oracle(build_pencil(E, A, B))

    def test_higher_degree_entries(self):
        rng = random.Random(39)
        for _ in range(25):
            rows, cols = rng.randint(1, 3), rng.randint(1, 4)
            pm = PolyMatrix(rows, cols, [
                Poly([Fraction(rng.randint(-3, 3), rng.randint(1, 12))
                      for _ in range(rng.randint(0, 3))])
                for _ in range(rows * cols)])
            assert_matches_oracle(pm)

    def test_e_zero(self):
        rng = random.Random(40)
        for _ in range(15):
            l, n, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
            pm = build_pencil(RatMatrix.zero(l, n), random_rational(rng, l, n),
                              random_rational(rng, l, m))
            assert pm.max_degree == 0
            assert_matches_oracle(pm)
            for r in range(min(l, n + m) + 1):
                assert minor_gcd(pm, r).is_constant()

    def test_zero_pencil(self):
        pm = build_pencil(RatMatrix.zero(3, 2), RatMatrix.zero(3, 2), RatMatrix.zero(3, 2))
        assert_matches_oracle(pm)
        assert minor_gcd(pm, 0) == ONE
        for r in (1, 2, 3):
            assert minor_gcd(pm, r).is_zero()

    def test_above_generic_rank(self):
        rng = random.Random(41)
        seen = 0
        for _ in range(40):
            l, n, m = rng.randint(2, 4), rng.randint(1, 3), 1
            # rank-1 E and A and a zero B keep the generic rank below l
            u = random_rational(rng, l, 1, 9)
            E = u @ random_rational(rng, 1, n, 9)
            A = u @ random_rational(rng, 1, n, 9)
            pm = build_pencil(E, A, RatMatrix.zero(l, m))
            g = generic_rank(pm)
            for r in range(g + 1, min(l, n + m) + 1):
                assert minor_gcd(pm, r).is_zero() and cofactor_minor_gcd(pm, r).is_zero()
                seen += 1
        assert seen > 20


def everywhere(pm, d):
    return rank_attained(minor_gcd(pm, d))


def on_closed_rhp(pm, d):
    return rank_attained(minor_gcd(pm, d), closed_rhp=True)


class TestQuantifiedRank:
    def test_everywhere(self):
        assert everywhere(pm_from([[P(-2, 1), P(3)]]), 1)
        assert not everywhere(pm_from([[P(-2, 1), Poly()]]), 1)
        xI2_0 = pm_from([[P(0, 1), Poly(), Poly()], [Poly(), P(0, 1), Poly()]])
        assert not everywhere(xI2_0, 2)  # gcd of minors is x^2
        assert everywhere(xI2_0, 0)
        assert not everywhere(pm_from([[Poly(), Poly()]]), 1)  # zero gcd

    def test_closed_rhp(self):
        assert not on_closed_rhp(pm_from([[P(-2, 1), Poly()]]), 1)  # drop at +2
        assert on_closed_rhp(pm_from([[P(2, 1), Poly()]]), 1)       # drop at -2
        assert not on_closed_rhp(pm_from([[P(0, 0, 1), Poly()]]), 1)  # drop at 0
        assert not on_closed_rhp(pm_from([[Poly(), Poly()]]), 1)  # rank 0 everywhere

    def test_everywhere_implies_rhp(self):
        rng = random.Random(35)
        for _ in range(40):
            pm = random_poly_matrix(rng, rng.randint(1, 3), rng.randint(1, 4), max_deg=1)
            for d in range(min(pm.rows, pm.cols) + 1):
                if everywhere(pm, d):
                    assert on_closed_rhp(pm, d)

    def test_drop_points_are_gcd_roots(self):
        # a degree-1 minor gcd has one exact rational root; the rank must
        # actually drop below d there
        rng = random.Random(36)
        checked = 0
        while checked < 25:
            pm = random_poly_matrix(rng, 2, 3, max_deg=1)
            d = generic_rank(pm)
            if d == 0:
                continue
            g = minor_gcd(pm, d)
            if g.degree != 1:
                continue
            root = -g.coeffs[0] / g.coeffs[1]
            assert pm.eval(root).rank() < d
            checked += 1
