import random
from fractions import Fraction

import pytest

from daectrl.algebra import (
    Poly,
    hurwitz_stable,
    poly_eval,
    poly_gcd,
    resultant,
    sylvester,
)

from oracles import roots_float


def P(*asc):
    return Poly(list(asc))


# x^3 + 5x^2 - 6 and -2x^5 - 2x^4 + 6x^3 + 9x, the worked resultant pair
P_CUBIC = P(-6, 0, 5, 1)
Q_QUINTIC = P(0, 9, 0, 6, -2, -2)


class TestPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0) == P(1, 2)

    def test_zero_degree_is_minus_infinity(self):
        assert Poly().degree == float("-inf")
        assert Poly().degree < 0
        assert P(5).degree == 0

    def test_eval(self):
        assert poly_eval(P_CUBIC, 1) == 0
        assert poly_eval(P_CUBIC, 0) == -6
        assert poly_eval(Poly(), 7) == 0
        assert poly_eval(P(Fraction(1, 2), 1), Fraction(1, 3)) == Fraction(5, 6)

    def test_arithmetic(self):
        a, b = P(1, 2), P(3, 0, 1)
        assert a + b == P(4, 2, 1)
        assert a * b == P(3, 6, 1, 2)
        assert a - a == Poly()

    def test_divmod_exact(self):
        q, r = P(-1, 0, 1).divmod(P(-1, 1))
        assert q == P(1, 1) and r.is_zero()


class TestGcd:
    def test_shared_factor(self):
        assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)

    def test_coprime(self):
        assert poly_gcd(P(1, 1), P(2, 1)) == P(1)

    def test_zero_arguments(self):
        assert poly_gcd(Poly(), P(3, 3)) == P(1, 1)
        assert poly_gcd(Poly(), Poly()).is_zero()

    def test_monic_and_divides(self):
        rng = random.Random(11)
        for _ in range(200):
            p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
            q = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
            g = poly_gcd(p, q)
            if g.is_zero():
                assert p.is_zero() and q.is_zero()
                continue
            assert g.coeffs[-1] == 1
            for f in (p, q):
                _, rem = f.divmod(g)
                assert rem.is_zero()


class TestSylvesterResultant:
    def test_8x8_layout(self):
        S = sylvester(P_CUBIC, Q_QUINTIC)
        expected = [
            [-6, 0, 0, 0, 0, 0, 0, 0],
            [0, -6, 0, 0, 0, 9, 0, 0],
            [5, 0, -6, 0, 0, 0, 9, 0],
            [1, 5, 0, -6, 0, 6, 0, 9],
            [0, 1, 5, 0, -6, -2, 6, 0],
            [0, 0, 1, 5, 0, -2, -2, 6],
            [0, 0, 0, 1, 5, 0, -2, -2],
            [0, 0, 0, 0, 1, 0, 0, -2],
        ]
        assert S.to_lists() == [[Fraction(x) for x in row] for row in expected]

    def test_known_resultant_value(self):
        assert resultant(P_CUBIC, Q_QUINTIC) == 750222

    def test_constant_times_quintic(self):
        S = sylvester(P(2), Q_QUINTIC)
        assert S.rows == S.cols == 5
        assert resultant(P(2), Q_QUINTIC) == 32

    def test_two_constants_empty_matrix(self):
        S = sylvester(P(4), P(9))
        assert S.rows == S.cols == 0
        assert resultant(P(4), P(9)) == 1

    def test_common_root_gives_zero(self):
        assert resultant(P(-1, 1), P(-1, 0, 1)) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            sylvester(Poly(), P(1, 1))
        with pytest.raises(ValueError):
            resultant(P(1, 1), Poly())

    def test_resultant_gcd_law(self):
        rng = random.Random(3)
        for _ in range(300):
            p = Poly([rng.randint(-10, 10) for _ in range(rng.randint(1, 7))])
            q = Poly([rng.randint(-10, 10) for _ in range(rng.randint(1, 7))])
            if p.is_zero() or q.is_zero():
                continue
            assert (resultant(p, q) == 0) == (poly_gcd(p, q).degree >= 1)

    def test_swap_sign_law(self):
        rng = random.Random(4)
        for _ in range(100):
            p = Poly([rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
            q = Poly([rng.randint(-6, 6) for _ in range(rng.randint(2, 5))])
            if p.is_zero() or q.is_zero():
                continue
            sign = -1 if (p.degree * q.degree) % 2 else 1
            assert resultant(p, q) == sign * resultant(q, p)


class TestHurwitz:
    def test_simple_cases(self):
        assert hurwitz_stable(P(1, 1))           # root -1
        assert not hurwitz_stable(P(-1, 1))      # root +1
        assert not hurwitz_stable(P(1, 0, 1))    # roots +-i, zero coefficient
        assert not hurwitz_stable(P_CUBIC)       # p(1) = 0
        assert hurwitz_stable(P(7))              # no roots
        assert hurwitz_stable(P(2, 3, 1))        # (x+1)(x+2)

    def test_negative_leading_ok_when_all_negative(self):
        # -(x+1)(x+2): same root set, all coefficients negative
        assert hurwitz_stable(P(-2, -3, -1))

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_stable(Poly())

    def test_agrees_with_root_oracle(self):
        rng = random.Random(9)
        checked = 0
        while checked < 300:
            p = Poly([rng.randint(-10, 10) for _ in range(rng.randint(2, 7))])
            if p.is_zero() or p.is_constant():
                continue
            worst = max(r.real for r in roots_float(p))
            if abs(worst) < 1e-6:
                continue  # margin case, skip
            assert hurwitz_stable(p) == (worst < 0), f"{p} worst={worst}"
            checked += 1


class TestRootsFloat:
    def test_quadratic(self):
        rs = sorted(r.real for r in roots_float(P(-1, 0, 1)))
        assert abs(rs[0] + 1) < 1e-9 and abs(rs[1] - 1) < 1e-9

    def test_linear(self):
        (r,) = roots_float(P(2, 1))
        assert abs(r + 2) < 1e-12

    def test_cubic_contains_one(self):
        assert any(abs(r - 1) < 1e-9 for r in roots_float(P_CUBIC))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            roots_float(P(3))


def test_serialization_round_trip():
    p = Poly([Fraction(-3, 7), 5, Fraction(1, 2)])
    assert p.to_strings() == ["-3/7", "5", "1/2"]
    assert Poly.from_strings(p.to_strings()) == p
