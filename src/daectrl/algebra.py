"""Exact univariate polynomial algebra over the rationals.

Coefficients are `fractions.Fraction`; everything in here is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

NEG_INF = float("-inf")

Scalar = Union[int, Fraction, str]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class Poly:
    """Univariate polynomial; coefficient i belongs to x**i.

    Immutable. The coefficient tuple carries no trailing zeros; the zero
    polynomial has an empty tuple and degree -inf.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self):
        """Degree, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c: Scalar) -> "Poly":
        c = _frac(c)
        return Poly([c * a for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(1 / self.coeffs[-1])

    def divmod(self, other: "Poly"):
        """Exact polynomial long division; other must be nonzero."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = len(other.coeffs) - 1
        lead = other.coeffs[-1]
        if len(rem) <= d:
            return Poly(), self
        quo = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            q = rem[i] / lead
            if q == 0:
                continue
            quo[i - d] = q
            for j, b in enumerate(other.coeffs):
                rem[i - d + j] -= q * b
        return Poly(quo), Poly(rem[:d])

    def __repr__(self) -> str:
        return f"Poly({[str(c) for c in self.coeffs]})"

    @staticmethod
    def constant(c: Scalar) -> "Poly":
        return Poly([c])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    def to_strings(self):
        """Serialize as ascending-degree rational strings."""
        return [str(c) for c in self.coeffs]

    @staticmethod
    def from_strings(strs: Sequence[str]) -> "Poly":
        return Poly([Fraction(s) for s in strs])


ZERO = Poly()
ONE = Poly([1])


def poly_eval(p: Poly, x0: Scalar) -> Fraction:
    """Exact Horner evaluation."""
    x0 = _frac(x0)
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x0 + c
    return acc


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    a, b = p, q
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


def sylvester(p: Poly, q: Poly):
    """Sylvester matrix of two nonzero polynomials.

    Layout: deg(q) shifted coefficient columns of p followed by deg(p)
    shifted columns of q, coefficients ascending down each column with the
    constant term topmost.
    """
    from .matrix import RatMatrix

    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of zero polynomial undefined")
    n, m = len(p.coeffs) - 1, len(q.coeffs) - 1
    size = n + m
    entries = [[Fraction(0)] * size for _ in range(size)]
    for j in range(m):  # p columns, shifted down by j
        for i, c in enumerate(p.coeffs):
            entries[i + j][j] = c
    for j in range(n):  # q columns
        for i, c in enumerate(q.coeffs):
            entries[i + j][m + j] = c
    return RatMatrix.from_rows(entries) if size else RatMatrix.empty(0, 0)


def resultant(p: Poly, q: Poly) -> Fraction:
    """Determinant of the Sylvester matrix; 1 for two nonzero constants."""
    return sylvester(p, q).det()


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def hurwitz_matrix(p: Poly):
    """The n-by-n Hurwitz matrix with rows alternating odd/even coefficient
    slices: entry (i, j) is p_{2j - i} (1-based), zero when out of range."""
    from .matrix import RatMatrix

    n = len(p.coeffs) - 1
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            k = 2 * j - i
            row.append(p.coeffs[k] if 0 <= k <= n else Fraction(0))
        rows.append(row)
    return RatMatrix.from_rows(rows) if n else RatMatrix.empty(0, 0)


def hurwitz_stable(p: Poly) -> bool:
    """Exact test that every complex root lies in the open left half-plane.

    All coefficients must share one strict sign; after normalizing that
    sign to positive, every leading principal minor of the Hurwitz matrix
    must be positive. (Without the normalization an all-negative stable
    polynomial fails the even-degree minors, since a degree-d minor scales
    by (-1)^d under negation while the root set does not move.)
    A nonzero constant is stable (no roots).
    """
    if p.is_zero():
        raise ValueError("hurwitz_stable undefined for the zero polynomial")
    if p.is_constant():
        return True
    s0 = _sign(p.coeffs[0])
    if any(_sign(c) != s0 for c in p.coeffs):
        return False
    H = hurwitz_matrix(p if s0 > 0 else -p)
    n = H.rows
    for d in range(1, n + 1):
        sel = tuple(range(d))
        if H.submatrix(sel, sel).det() <= 0:
            return False
    return True
