"""Concept predicates for linear differential-algebraic systems (E, A, B).

Eight DAE controllability/stabilizability concepts plus the classical
Kalman test for square ODE systems, together with the closed-form table
saying for which dimensions (l, n, m) each concept is generic. The eight
DAE concepts are decided exactly, as formulas over one shared analysis of
the triple: block ranks and the pencil's rank certificate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Union

from .algebra import Poly
from .matrix import RatMatrix, hconcat, parse_matrix
from .pencil import PolyMatrix, build_pencil, generic_rank, minor_gcd, rank_attained

AS_WRITTEN = "as-written"
WITH_E = "with-e"


class Concept(enum.Enum):
    FREELY_INITIALIZABLE = "freely_initializable"
    IMPULSE_CONTROLLABLE = "impulse_controllable"
    COMPLETELY_CONTROLLABLE = "completely_controllable"
    BEHAVIOURALLY_CONTROLLABLE = "behaviourally_controllable"
    STRONGLY_CONTROLLABLE = "strongly_controllable"
    COMPLETELY_STABILIZABLE = "completely_stabilizable"
    STRONGLY_STABILIZABLE = "strongly_stabilizable"
    BEHAVIOURALLY_STABILIZABLE = "behaviourally_stabilizable"
    ODE_CONTROLLABLE = "ode_controllable"


DAE_CONCEPTS = [c for c in Concept if c is not Concept.ODE_CONTROLLABLE]


@dataclass(frozen=True)
class DaeTriple:
    """A system (E, A, B) with E, A of shape l x n and B of shape l x m."""

    E: RatMatrix
    A: RatMatrix
    B: RatMatrix

    def __post_init__(self):
        if self.E.rows != self.A.rows or self.E.cols != self.A.cols:
            raise ValueError("E and A must share dimensions")
        if self.B.rows != self.E.rows:
            raise ValueError("B row count must match E")
        if min(self.E.rows, self.E.cols, self.B.cols) < 1:
            raise ValueError("l, n, m must all be at least 1")

    @property
    def l(self) -> int:
        return self.E.rows

    @property
    def n(self) -> int:
        return self.E.cols

    @property
    def m(self) -> int:
        return self.B.cols

    @staticmethod
    def from_strings(obj) -> "DaeTriple":
        if not isinstance(obj, dict):
            raise ValueError("a triple must be an object with blocks E, A, B")
        for key in ("E", "A", "B"):
            if key not in obj:
                raise ValueError(f"missing block {key!r}")
        try:
            E = parse_matrix(obj["E"])
            A = parse_matrix(obj["A"])
            B = parse_matrix(obj["B"])
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise ValueError(f"bad matrix data: {exc}") from exc
        if (E.rows, E.cols) != (A.rows, A.cols):
            raise ValueError("dimension error in block A: must match E")
        if B.rows != E.rows:
            raise ValueError("dimension error in block B: row count must match E")
        return DaeTriple(E, A, B)


@dataclass
class ConceptReport:
    concept: Concept
    verdict: bool
    ranks: Dict[str, int] = field(default_factory=dict)
    drop_polynomial: Optional[Poly] = None


class SystemInvariants:
    """The invariants of one triple that every DAE concept is a formula over.

    Four block ranks (Z spans ker E), the generic rank g of the pencil
    [xE - A, B] and the monic gcd of its order-g minors, whose roots are
    exactly where the pencil drops below rank g. Each is computed on first
    use and at most once, so one analysis serves every concept, and the
    rank-only concepts never build the pencil.
    """

    def __init__(self, t: DaeTriple):
        self.t = t

    @cached_property
    def AZ(self) -> RatMatrix:
        return self.t.A @ self.t.E.kernel_basis()

    @cached_property
    def r_eb(self) -> int:
        return hconcat([self.t.E, self.t.B]).rank()

    @cached_property
    def r(self) -> int:
        """rk [E, A, B]."""
        return hconcat([self.t.E, self.t.A, self.t.B]).rank()

    @cached_property
    def r_eazb(self) -> int:
        return hconcat([self.t.E, self.AZ, self.t.B]).rank()

    @cached_property
    def r_azb(self) -> int:
        return hconcat([self.AZ, self.t.B]).rank()

    @cached_property
    def pencil(self) -> PolyMatrix:
        return build_pencil(self.t.E, self.t.A, self.t.B)

    @cached_property
    def g(self) -> int:
        return generic_rank(self.pencil)

    @cached_property
    def drop(self) -> Poly:
        return minor_gcd(self.pencil, self.g)

    @property
    def everywhere(self) -> bool:
        """The pencil has rank g at every complex lambda."""
        return rank_attained(self.drop)

    @cached_property
    def on_rhp(self) -> bool:
        """The pencil has rank g at every lambda with Re >= 0."""
        return rank_attained(self.drop, closed_rhp=True)

    @property
    def drop_at_r(self) -> Optional[Poly]:
        """The drop polynomial if g = rk [E, A, B], else None: the complete
        and strong concepts need rank r at every lambda, which g < r rules out."""
        return self.drop if self.g == self.r else None


def analyse(t: Union[DaeTriple, SystemInvariants]) -> SystemInvariants:
    """The analysis of a triple; an analysis is returned as is. Every
    predicate below takes either, so several concepts can share one."""
    return t if isinstance(t, SystemInvariants) else SystemInvariants(t)


def freely_initializable(t) -> ConceptReport:
    """rk [E, B] = rk [E, A, B]."""
    i = analyse(t)
    ranks = {"rk[E,B]": i.r_eb, "rk[E,A,B]": i.r}
    return ConceptReport(Concept.FREELY_INITIALIZABLE, i.r_eb == i.r, ranks)


def impulse_controllable(t) -> ConceptReport:
    """rk [E, A, B] = rk [E, AZ, B] with im Z = ker E."""
    i = analyse(t)
    ranks = {"rk[E,A,B]": i.r, "rk[E,AZ,B]": i.r_eazb}
    return ConceptReport(Concept.IMPULSE_CONTROLLABLE, i.r == i.r_eazb, ranks)


def completely_controllable(t) -> ConceptReport:
    """rk [E, A, B] = rk [E, B] = rk [lambda E - A, B] for all complex lambda."""
    i = analyse(t)
    ranks = {"rk[E,A,B]": i.r, "rk[E,B]": i.r_eb, "generic_pencil_rank": i.g}
    ok = i.r_eb == i.r and i.g == i.r and i.everywhere
    return ConceptReport(Concept.COMPLETELY_CONTROLLABLE, ok, ranks, i.drop_at_r)


def behaviourally_controllable(t) -> ConceptReport:
    """Generic pencil rank is attained at every complex lambda."""
    i = analyse(t)
    ranks = {"generic_pencil_rank": i.g}
    return ConceptReport(Concept.BEHAVIOURALLY_CONTROLLABLE, i.everywhere, ranks, i.drop)


def strongly_controllable(t, variant: str = AS_WRITTEN) -> ConceptReport:
    """rk [E, A, B] = rk [AZ, B] = rk [lambda E - A, B] for all lambda.

    variant "as-written" uses [AZ, B] for the middle block; "with-e"
    uses [E, AZ, B] (the form the strong-stabilizability criterion uses).
    """
    if variant not in (AS_WRITTEN, WITH_E):
        raise ValueError(f"unknown variant {variant!r}")
    i = analyse(t)
    mid, r_mid = ("rk[AZ,B]", i.r_azb) if variant == AS_WRITTEN else ("rk[E,AZ,B]", i.r_eazb)
    ranks = {"rk[E,A,B]": i.r, mid: r_mid, "generic_pencil_rank": i.g}
    ok = r_mid == i.r and i.g == i.r and i.everywhere
    return ConceptReport(Concept.STRONGLY_CONTROLLABLE, ok, ranks, i.drop_at_r)


def completely_stabilizable(t) -> ConceptReport:
    """Complete controllability with lambda restricted to Re >= 0."""
    i = analyse(t)
    ranks = {"rk[E,A,B]": i.r, "rk[E,B]": i.r_eb, "generic_pencil_rank": i.g}
    ok = i.r_eb == i.r and i.g == i.r and i.on_rhp
    return ConceptReport(Concept.COMPLETELY_STABILIZABLE, ok, ranks, i.drop_at_r)


def strongly_stabilizable(t) -> ConceptReport:
    """rk [E, A, B] = rk [E, AZ, B] = rk [lambda E - A, B] on Re >= 0."""
    i = analyse(t)
    ranks = {"rk[E,A,B]": i.r, "rk[E,AZ,B]": i.r_eazb, "generic_pencil_rank": i.g}
    ok = i.r_eazb == i.r and i.g == i.r and i.on_rhp
    return ConceptReport(Concept.STRONGLY_STABILIZABLE, ok, ranks, i.drop_at_r)


def behaviourally_stabilizable(t) -> ConceptReport:
    """Generic pencil rank is attained at every lambda with Re >= 0."""
    i = analyse(t)
    ranks = {"generic_pencil_rank": i.g}
    return ConceptReport(Concept.BEHAVIOURALLY_STABILIZABLE, i.on_rhp, ranks, i.drop)


def kalman_controllable(A: RatMatrix, B: RatMatrix) -> ConceptReport:
    """Kalman criterion: rk [B, AB, ..., A^(n-1) B] = n."""
    if A.rows != A.cols:
        raise ValueError("Kalman test needs a square A")
    if B.rows != A.rows:
        raise ValueError("B row count must match A")
    n = A.rows
    blocks = []
    cur = B
    for _ in range(n):
        blocks.append(cur)
        cur = A @ cur
    r = hconcat(blocks).rank()
    return ConceptReport(
        Concept.ODE_CONTROLLABLE, r == n, {"rk[B,AB,...]": r, "n": n}
    )


def evaluate(concept: Concept, t, strong_variant: str = AS_WRITTEN) -> ConceptReport:
    """Run one concept predicate on a triple or on its analysis."""
    if concept is Concept.ODE_CONTROLLABLE:
        t = analyse(t).t
        if t.l != t.n:
            raise ValueError("ODE controllability needs l = n (square A)")
        return kalman_controllable(t.A, t.B)
    if concept is Concept.STRONGLY_CONTROLLABLE:
        return strongly_controllable(t, strong_variant)
    return _PREDICATES[concept](t)


_PREDICATES = {
    Concept.FREELY_INITIALIZABLE: freely_initializable,
    Concept.IMPULSE_CONTROLLABLE: impulse_controllable,
    Concept.COMPLETELY_CONTROLLABLE: completely_controllable,
    Concept.BEHAVIOURALLY_CONTROLLABLE: behaviourally_controllable,
    Concept.COMPLETELY_STABILIZABLE: completely_stabilizable,
    Concept.STRONGLY_STABILIZABLE: strongly_stabilizable,
    Concept.BEHAVIOURALLY_STABILIZABLE: behaviourally_stabilizable,
}


def genericity_predicted(concept: Concept, l: int, n: int, m: int) -> bool:
    """Closed-form table: is the concept generic on systems of size (l, n, m)?"""
    if min(l, n, m) < 1:
        raise ValueError("dimensions must be at least 1")
    if concept is Concept.FREELY_INITIALIZABLE:
        return l <= n + m
    if concept is Concept.IMPULSE_CONTROLLABLE:
        return l <= n + m
    if concept is Concept.COMPLETELY_CONTROLLABLE:
        return l < n + m
    if concept is Concept.BEHAVIOURALLY_CONTROLLABLE:
        return l != n + m
    if concept is Concept.STRONGLY_CONTROLLABLE:
        return (n <= l <= m or (l < n and 2 * l <= n + m)) and l != n + m
    if concept is Concept.COMPLETELY_STABILIZABLE:
        return l < n + m
    if concept is Concept.STRONGLY_STABILIZABLE:
        return l < n + m
    if concept is Concept.BEHAVIOURALLY_STABILIZABLE:
        return l != n + m
    if concept is Concept.ODE_CONTROLLABLE:
        return True
    raise ValueError(concept)
