"""Dense exact rational matrices and the one integer elimination kernel.

`bareiss` is fraction-free elimination over the integers. Determinant and
rank scale each row to integers by the lcm of its denominators and run it;
the pencil minors and the Hurwitz minors use it too. Kernel bases come
from a reduced row-echelon form with deterministic leftmost-nonzero
pivoting. Zero-row and zero-column matrices are first-class citizens.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

Scalar = Union[int, Fraction, str]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class RatMatrix:
    """Immutable dense matrix of Fractions, row-major storage."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        entries = tuple(_frac(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"entry count {len(entries)} != {rows}x{cols}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Scalar]], cols: int = None) -> "RatMatrix":
        nr = len(rows)
        if nr == 0:
            return RatMatrix(0, 0 if cols is None else cols, ())
        nc = len(rows[0])
        flat = []
        for r in rows:
            if len(r) != nc:
                raise ValueError("ragged rows")
            flat.extend(r)
        return RatMatrix(nr, nc, flat)

    @staticmethod
    def empty(rows: int, cols: int) -> "RatMatrix":
        if rows and cols:
            raise ValueError("empty() needs a zero dimension")
        return RatMatrix(rows, cols, ())

    @staticmethod
    def zero(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(rows, cols, [0] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, ij: Tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Tuple[Fraction, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_lists(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum((ri[k] * other[k, j] for k in range(self.cols)), Fraction(0)))
        return RatMatrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def submatrix(self, row_pick: Sequence[int], col_pick: Sequence[int]) -> "RatMatrix":
        row_pick = tuple(row_pick)
        col_pick = tuple(col_pick)
        _check_pick(row_pick, self.rows, "row")
        _check_pick(col_pick, self.cols, "column")
        return RatMatrix(
            len(row_pick), len(col_pick),
            [self[i, j] for i in row_pick for j in col_pick],
        )

    def _integer_rows(self):
        """Each row times the lcm of its denominators, as lists of integers,
        and the product of those positive row scales."""
        rows = [clear_denominators(self.row(i)) for i in range(self.rows)]
        return [ints for ints, _ in rows], prod(s for _, s in rows)

    def det(self) -> Fraction:
        """Exact determinant: `bareiss` on the row-scaled integer matrix,
        divided by the row scales. det of the 0x0 matrix is 1."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        rows, scale = self._integer_rows()
        return Fraction(integer_det(rows), scale)

    def minor(self, row_pick: Sequence[int], col_pick: Sequence[int]) -> Fraction:
        if len(row_pick) != len(col_pick):
            raise ValueError("minor needs equally sized picks")
        return self.submatrix(row_pick, col_pick).det()

    def rank(self) -> int:
        """Exact rank: the pivot count of `bareiss` on the row-scaled
        integer matrix (a positive row scale leaves the rank unchanged)."""
        return sum(1 for _ in bareiss(self._integer_rows()[0]))

    def rref(self):
        """Reduced row-echelon form; returns (rows as lists, pivot columns)."""
        m = self.to_lists()
        nr, nc = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(nc):
            if r == nr:
                break
            piv = next((i for i in range(r, nr) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = 1 / m[r][c]
            m[r] = [x * inv for x in m[r]]
            for i in range(nr):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
        return m, pivots

    def inverse(self) -> "RatMatrix":
        """Exact inverse of a square nonsingular matrix."""
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = RatMatrix(
            n, 2 * n,
            [x for i in range(n)
             for x in list(self.row(i)) + [1 if j == i else 0 for j in range(n)]],
        )
        m, pivots = aug.rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RatMatrix(n, n, [m[i][n + j] for i in range(n) for j in range(n)])

    def kernel_basis(self) -> "RatMatrix":
        """Basis of the right kernel, one column per free variable.

        The free variable of each basis column is set to 1 and pivot
        variables are read off the reduced echelon form, so the result is
        deterministic and has full column rank cols - rank.
        """
        m, pivots = self.rref()
        nc = self.cols
        free = [c for c in range(nc) if c not in pivots]
        if not free:
            return RatMatrix(nc, 0, ())
        cols = []
        for f in free:
            v = [Fraction(0)] * nc
            v[f] = Fraction(1)
            for r, c in enumerate(pivots):
                v[c] = -m[r][f]
            cols.append(v)
        return RatMatrix(nc, len(cols), [cols[j][i] for i in range(nc) for j in range(len(cols))])


def clear_denominators(values: Iterable[Fraction]) -> Tuple[List[int], int]:
    """The values times the lcm of their denominators, and that lcm (1 for
    no values)."""
    values = list(values)
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


def bareiss(m: List[List[int]], exchange: bool = True) -> Iterator[int]:
    """Fraction-free elimination of the integer rows m, in place; yields the
    signed pivots (Bareiss, Math. Comp. 1968).

    Columns are taken left to right. With exchange, the first nonzero entry
    of a column at or below the current row is brought up by a row exchange
    and a column without one is skipped, so the number of pivots is the
    rank. Each yielded value is the pivot times the sign of the exchanges
    so far: for a nonsingular square matrix the last one is its
    determinant. Without exchange, pivot k is the leading principal minor
    of order k + 1; elimination stops after yielding the first zero one.
    Every division is exact in Z.
    """
    nr = len(m)
    nc = len(m[0]) if m else 0
    r, prev, sign = 0, 1, 1
    for c in range(nc):
        if r == nr:
            return
        if m[r][c] == 0:
            if not exchange:
                yield 0
                return
            piv = next((i for i in range(r + 1, nr) if m[i][c] != 0), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        pivot_row = m[r]
        p = pivot_row[c]
        tail = pivot_row[c + 1:]
        for i in range(r + 1, nr):
            row = m[i]
            f = row[c]
            row[c + 1:] = [(a * p - f * b) // prev for a, b in zip(row[c + 1:], tail)]
        prev = p
        r += 1
        yield sign * p


def integer_det(m: List[List[int]]) -> int:
    """Determinant of the square integer rows m (consumed) by `bareiss`;
    1 for no rows."""
    pivots = [1] + list(bareiss(m))
    return pivots[-1] if len(pivots) == len(m) + 1 else 0


def _check_pick(pick: Tuple[int, ...], bound: int, what: str) -> None:
    for a, b in zip(pick, pick[1:]):
        if a >= b:
            raise ValueError(f"{what} pick not strictly increasing: {pick}")
    if pick and not (0 <= pick[0] and pick[-1] < bound):
        raise ValueError(f"{what} pick out of range 0..{bound - 1}: {pick}")


def hconcat(blocks: Iterable[RatMatrix]) -> RatMatrix:
    """Concatenate blocks left to right; all must share the row count."""
    blocks = list(blocks)
    if not blocks:
        raise ValueError("hconcat of no blocks")
    nr = blocks[0].rows
    for b in blocks:
        if b.rows != nr:
            raise ValueError(f"row counts differ: {[x.rows for x in blocks]}")
    out = []
    for i in range(nr):
        for b in blocks:
            out.extend(b.row(i))
    return RatMatrix(nr, sum(b.cols for b in blocks), out)


def enumerate_selections(rows: int, cols: int, d: int):
    """All C(rows, d) * C(cols, d) square index selections, lexicographic."""
    if d > min(rows, cols):
        raise ValueError(f"selection order {d} exceeds min({rows}, {cols})")
    return [
        (rp, cp)
        for rp in combinations(range(rows), d)
        for cp in combinations(range(cols), d)
    ]


def rank_by_minors(M: RatMatrix) -> int:
    """Brute-force rank: largest order of a nonvanishing minor. Oracle only."""
    for d in range(min(M.rows, M.cols), 0, -1):
        for rp, cp in enumerate_selections(M.rows, M.cols, d):
            if M.minor(rp, cp) != 0:
                return d
    return 0


def parse_matrix(rows: Sequence[Sequence[Union[str, int]]]) -> RatMatrix:
    """Build a matrix from a list of rows, each a list of rational strings
    like "-3/7" or "5" or of integers.

    Anything else is rejected rather than guessed at: a row given as a
    string (which would split into digits), a boolean, or a float (which
    would be read as its binary expansion).
    """
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("a matrix must be a list of rows, each a list of entries")
    return RatMatrix.from_rows([[_parse_entry(x) for x in row] for row in rows])


def _parse_entry(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (str, int)):
        raise ValueError(f"entry {x!r} is neither a rational string nor an integer")
    return Fraction(x)


def matrix_to_strings(M: RatMatrix):
    return [[str(x) for x in M.row(i)] for i in range(M.rows)]
