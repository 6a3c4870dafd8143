"""Polynomial matrices and the system pencil [xE - A, B].

Rank over the rational-function field is decided by exact evaluation at
more points than the degree of any minor; rank conditions quantified over
the complex plane (or its closed right half) are reduced to the gcd of all
order-r minors plus the Hurwitz test. Each minor is computed by
evaluation and interpolation: integer determinants at the points 0..D from
the shared `matrix.bareiss` kernel, then Newton forward differences, so a
minor of order r costs polynomial time rather than r! cofactor terms. No
complex arithmetic anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .algebra import ONE, Poly, hurwitz_stable, poly_eval, poly_gcd
from .matrix import RatMatrix, clear_denominators, enumerate_selections, integer_det


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

    Each row is scaled to integer coefficients, which multiplies every
    minor by a nonzero constant and leaves the monic gcd alone. A minor's
    degree is at most the sum d of its columns' degrees, so the integer
    pencil is evaluated once at x = 0..D for the largest such d, and each
    minor is d + 1 integer determinants, interpolated to d! times itself.
    """
    if r > min(PM.rows, PM.cols):
        raise ValueError(f"minor order {r} exceeds min({PM.rows}, {PM.cols})")
    if r == 0:
        return ONE
    deg = [max(0, *(len(PM[i, j].coeffs) - 1 for i in range(PM.rows)))
           for j in range(PM.cols)]
    points = _integer_points(PM, sum(sorted(deg)[-r:]))
    g = Poly()
    for rp, cp in enumerate_selections(PM.rows, PM.cols, r):
        d = sum(deg[j] for j in cp)
        values = [integer_det([[M[i][j] for j in cp] for i in rp]) for M in points[:d + 1]]
        if not any(values):
            continue
        g = poly_gcd(g, Poly(_interpolate(values)))
        if g.is_constant() and not g.is_zero():
            return ONE
    return g


def _integer_points(PM: PolyMatrix, D: int):
    """PM at x = 0..D as integer matrices (lists of rows), each row of PM
    first scaled by the lcm of its coefficient denominators."""
    rows = []
    for i in range(PM.rows):
        row = PM.entries[i * PM.cols:(i + 1) * PM.cols]
        ints = iter(clear_denominators(c for e in row for c in e.coeffs)[0])
        rows.append([[next(ints) for _ in e.coeffs] for e in row])
    return [[[sum(c * x ** k for k, c in enumerate(e)) for e in row] for row in rows]
            for x in range(D + 1)]


def _interpolate(values):
    """D! p as ascending integer coefficients, from values = p(0..D) of a
    polynomial p of degree at most D: the Newton forward-difference form
    p(x) = sum_k (Delta^k p)(0) x(x-1)...(x-k+1) / k!."""
    D = len(values) - 1
    out = [0] * (D + 1)
    falling = [1]
    for k in range(D + 1):
        w = factorial(D) // factorial(k) * values[0]
        for j, c in enumerate(falling):
            out[j] += w * c
        values = [b - a for a, b in zip(values, values[1:])]
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
    return out


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
