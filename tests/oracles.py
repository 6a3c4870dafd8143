"""Independent oracles for cross-checking the exact routines in tests.

Cofactor expansion computes determinants and pencil minors by a route that
shares nothing with the integer Bareiss kernel. The numpy root finder is
floating point: nothing here may reach a verdict, and numpy is a test-only
dependency.
"""

from fractions import Fraction

from daectrl.algebra import ONE, Poly, poly_gcd
from daectrl.matrix import enumerate_selections


def cofactor_det(rows, one=Fraction(1)):
    """Determinant of a square list of rows by cofactor expansion along the
    first row, r! terms. Entries need only +, - and * (Fractions or Polys);
    `one` is the empty product, the determinant of the 0x0 matrix."""
    if not rows:
        return one
    total = one - one
    for j, a in enumerate(rows[0]):
        if a:
            term = a * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]], one)
            total = total - term if j % 2 else total + term
    return total


def cofactor_minor_gcd(pm, r):
    """Monic gcd of every order-r minor of a PolyMatrix, each expanded by
    cofactors; zero when all of them vanish."""
    g = Poly()
    for rp, cp in enumerate_selections(pm.rows, pm.cols, r):
        g = poly_gcd(g, cofactor_det([[pm[i, j] for j in cp] for i in rp], ONE))
    return g


def roots_float(p):
    """Approximate complex roots of a Poly via numpy."""
    import numpy as np

    if p.is_zero() or p.is_constant():
        raise ValueError("roots_float needs degree >= 1")
    desc = [float(c) for c in reversed(p.coeffs)]
    return [complex(r) for r in np.roots(desc)]
