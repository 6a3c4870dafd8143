"""Polynomial matrices and the system pencil [xE - A, B].

Rank over the rational-function field is decided by exact evaluation at
more points than the degree of any minor; rank conditions quantified over
the complex plane (or its closed right half) are reduced to the gcd of all
order-r minors plus the Hurwitz test. No complex arithmetic anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .algebra import ONE, Poly, hurwitz_stable, poly_eval, poly_gcd
from .matrix import RatMatrix, enumerate_selections


class PolyMatrix:
    """Immutable dense matrix of Poly, row-major storage."""

    __slots__ = ("rows", "cols", "entries", "max_degree")

    def __init__(self, rows: int, cols: int, entries: Sequence[Poly]):
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count mismatch")
        deg = 0
        for e in entries:
            if not e.is_zero():
                deg = max(deg, len(e.coeffs) - 1)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "max_degree", deg)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def eval(self, x0) -> RatMatrix:
        """Entrywise exact evaluation at a rational point."""
        return RatMatrix(
            self.rows, self.cols, [poly_eval(e, x0) for e in self.entries]
        )

    def submatrix(self, row_pick, col_pick) -> "PolyMatrix":
        return PolyMatrix(
            len(row_pick), len(col_pick),
            [self[i, j] for i in row_pick for j in col_pick],
        )

    def det(self) -> Poly:
        """Determinant over Q[x] by cofactor expansion along the first row.

        Fine at pencil scale (order <= 6); det of the 0x0 matrix is 1.
        """
        n = self.rows
        if n != self.cols:
            raise ValueError("determinant of non-square polynomial matrix")
        if n == 0:
            return ONE
        if n == 1:
            return self[0, 0]
        acc = Poly()
        rest_rows = tuple(range(1, n))
        for j in range(n):
            a = self[0, j]
            if a.is_zero():
                continue
            cols = tuple(c for c in range(n) if c != j)
            cof = self.submatrix(rest_rows, cols).det()
            term = a * cof
            acc = acc + term if j % 2 == 0 else acc - term
        return acc


def build_pencil(E: RatMatrix, A: RatMatrix, B: RatMatrix) -> PolyMatrix:
    """The l x (n + m) polynomial matrix [xE - A, B]."""
    if E.rows != A.rows or E.cols != A.cols or B.rows != E.rows:
        raise ValueError("pencil block dimensions disagree")
    l, n = E.rows, E.cols
    entries = []
    for i in range(l):
        for j in range(n):
            entries.append(Poly([-A[i, j], E[i, j]]))
        for j in range(B.cols):
            entries.append(Poly([B[i, j]]))
    return PolyMatrix(l, n + B.cols, entries)


def generic_rank(PM: PolyMatrix) -> int:
    """Rank over the rational-function field.

    Every minor is a polynomial of degree at most max_degree * min(rows,
    cols), so evaluating at one more point than that bound and taking the
    maximum rank is exact: a nonzero minor cannot vanish at all of them.
    Evaluation stops once the rank is full, which for a generic pencil is
    at the first point.
    """
    full = min(PM.rows, PM.cols)
    if full == 0:
        return 0
    best = 0
    for x0 in range(PM.max_degree * full + 1):
        best = max(best, PM.eval(Fraction(x0)).rank())
        if best == full:
            break
    return best


def minor_gcd(PM: PolyMatrix, r: int) -> Poly:
    """Monic gcd over Q[x] of all order-r minors.

    Returns the zero polynomial when every order-r minor vanishes
    identically; stops early once the running gcd becomes a nonzero
    constant (all further gcds stay constant).
    """
    if r > min(PM.rows, PM.cols):
        raise ValueError(f"minor order {r} exceeds min({PM.rows}, {PM.cols})")
    if r == 0:
        return ONE
    g = Poly()
    for rp, cp in enumerate_selections(PM.rows, PM.cols, r):
        m = PM.submatrix(rp, cp).det()
        if m.is_zero():
            continue
        g = poly_gcd(g, m)
        if g.is_constant() and not g.is_zero():
            return ONE
    return g


def rank_attained(drop: Poly, closed_rhp: bool = False) -> bool:
    """Whether a pencil keeps rank d at every complex lambda (every lambda
    with Re >= 0 when closed_rhp), given drop = minor_gcd(PM, d).

    The rank falls below d exactly at the roots of the gcd of the order-d
    minors: a zero gcd means everywhere, a nonzero constant nowhere, and
    otherwise the half-plane condition is the Hurwitz test on the gcd.
    """
    if drop.is_zero():
        return False
    return drop.is_constant() or (closed_rhp and hurwitz_stable(drop))
