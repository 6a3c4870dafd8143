"""Seeded Monte Carlo genericity surveys over dimension grids.

Sampling is counter-based: each trial derives its own generator from
(seed, dimensions, stream index), so results are a pure function of the
configuration and independent of execution order or worker count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .criteria import (
    AS_WRITTEN,
    WITH_E,
    Concept,
    DAE_CONCEPTS,
    DaeTriple,
    SystemInvariants,
    evaluate,
    genericity_predicted,
    strongly_controllable,
)
from .gauss import apply_T, backsub_kernel
from .matrix import RatMatrix, hconcat, rank_by_minors


@dataclass(frozen=True)
class SampleSpec:
    seed: int
    trials: int
    # Numerators uniform on [-bound, bound], denominators on [1, bound].
    bound: int = 100

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.bound < 1:
            raise ValueError("bound must be >= 1")


@dataclass(frozen=True)
class FrequencyRow:
    concept: Concept
    dims: Tuple[int, int, int]
    trials: int
    hits: int
    predicted_generic: bool

    @property
    def frequency(self) -> Fraction:
        return Fraction(self.hits, self.trials)

    @property
    def agrees(self) -> bool:
        """Empirical frequency matches the genericity prediction: near-1
        frequency iff the concept is predicted generic at these dims."""
        return (self.frequency >= 1 - Fraction(1, self.trials)) == self.predicted_generic


@dataclass(frozen=True)
class RunConfig:
    lmax: int
    nmax: int
    mmax: int
    spec: SampleSpec
    concepts: Sequence[Concept] = tuple(DAE_CONCEPTS)
    strong_variant: str = AS_WRITTEN
    output_format: str = "csv"

    def __post_init__(self):
        if not self.concepts:
            raise ValueError("no concepts selected")
        if min(self.lmax, self.nmax, self.mmax) < 1:
            raise ValueError("grid bounds must be >= 1")


def _trial_rng(spec: SampleSpec, l: int, n: int, m: int, stream: int) -> random.Random:
    key = f"{spec.seed}:{l}:{n}:{m}:{stream}".encode()
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _draw(rng: random.Random, spec: SampleSpec) -> Fraction:
    num = rng.randint(-spec.bound, spec.bound)
    den = rng.randint(1, spec.bound)
    return Fraction(num, den)


def sample_triple(spec: SampleSpec, l: int, n: int, m: int, stream: int) -> DaeTriple:
    """Deterministic random triple: same arguments, same triple, always."""
    rng = _trial_rng(spec, l, n, m, stream)
    E = RatMatrix(l, n, [_draw(rng, spec) for _ in range(l * n)])
    A = RatMatrix(l, n, [_draw(rng, spec) for _ in range(l * n)])
    B = RatMatrix(l, m, [_draw(rng, spec) for _ in range(l * m)])
    return DaeTriple(E, A, B)


def _tally(
    concepts: Sequence[Concept], l: int, n: int, m: int, spec: SampleSpec, strong_variant: str
) -> Dict[Concept, int]:
    """Hits per concept at (l, n, m): each triple is sampled and analysed
    once, and every concept is decided from that one analysis."""
    hits = dict.fromkeys(concepts, 0)
    for stream in range(spec.trials if hits else 0):
        inv = SystemInvariants(sample_triple(spec, l, n, m, stream))
        for concept in hits:
            hits[concept] += evaluate(concept, inv, strong_variant).verdict
    return hits


def estimate_frequency(
    concept: Concept,
    l: int,
    n: int,
    m: int,
    spec: SampleSpec,
    strong_variant: str = AS_WRITTEN,
) -> FrequencyRow:
    """Empirical frequency of the concept over seeded random triples."""
    hits = _tally([concept], l, n, m, spec, strong_variant)[concept]
    return FrequencyRow(
        concept, (l, n, m), spec.trials, hits, genericity_predicted(concept, l, n, m)
    )


def run_survey(config: RunConfig) -> List[FrequencyRow]:
    """All (concept, l, n, m) cells of the grid, in deterministic order:
    concept-major, then l, n, m ascending; ODE cells only where l = n."""
    grid = range(1, config.lmax + 1), range(1, config.nmax + 1), range(1, config.mmax + 1)
    hits = {}
    for l, n, m in product(*grid):
        concepts = [c for c in config.concepts if c is not Concept.ODE_CONTROLLABLE or l == n]
        hits[l, n, m] = _tally(concepts, l, n, m, config.spec, config.strong_variant)
    return [
        FrequencyRow(concept, d, config.spec.trials, h[concept], genericity_predicted(concept, *d))
        for concept in config.concepts
        for d, h in hits.items()
        if concept in h
    ]


CSV_COLUMNS = [
    "concept", "l", "n", "m", "trials", "hits",
    "frequency", "predicted_generic", "agrees",
]


def rows_to_csv(rows: Sequence[FrequencyRow]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in rows:
        w.writerow([
            r.concept.value, *r.dims, r.trials, r.hits,
            f"{float(r.frequency):.6f}",
            str(r.predicted_generic).lower(),
            str(r.agrees).lower(),
        ])
    return buf.getvalue()


def rows_to_json(rows: Sequence[FrequencyRow]) -> str:
    return json.dumps(
        [
            {
                "concept": r.concept.value,
                "l": r.dims[0],
                "n": r.dims[1],
                "m": r.dims[2],
                "trials": r.trials,
                "hits": r.hits,
                "frequency": str(r.frequency),
                "predicted_generic": r.predicted_generic,
                "agrees": r.agrees,
            }
            for r in rows
        ],
        indent=2,
    )


def write_survey(config: RunConfig, path: str) -> List[FrequencyRow]:
    rows = run_survey(config)
    text = rows_to_csv(rows) if config.output_format == "csv" else rows_to_json(rows)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write survey output to {path}: {exc}") from exc
    return rows


@dataclass
class CrossValidationReport:
    elimination_rank: int
    minor_rank: Optional[int]
    kernel_checked: bool
    kernel_agrees: Optional[bool]
    strong_as_written: bool
    strong_with_e: bool
    discrepancies: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def cross_validate(t: DaeTriple) -> CrossValidationReport:
    """Check one triple along independent routes.

    Compares elimination rank to brute-force minor rank (small dims only),
    the staircase kernel construction to the echelon kernel basis when the
    former applies, and the two strong-controllability variants.
    """
    discrepancies = []
    inv = SystemInvariants(t)
    eab = hconcat([t.E, t.A, t.B])
    r_elim = inv.r
    r_minor = None
    if max(eab.rows, eab.cols) <= 8 and min(eab.rows, eab.cols) <= 4:
        r_minor = rank_by_minors(eab)
        if r_minor != r_elim:
            discrepancies.append(
                f"rank mismatch: elimination {r_elim} vs minors {r_minor}"
            )

    kernel_checked = False
    kernel_agrees = None
    if t.l < t.n:
        _, rep = apply_T(t.E)
        if rep.in_domain_t_prime:
            kernel_checked = True
            Zp = backsub_kernel(t.E)
            Zb = t.E.kernel_basis()
            same_span = (
                (t.E @ Zp).is_zero()
                and Zp.rank() == Zb.cols
                and hconcat([Zp, Zb]).rank() == Zb.cols
            )
            kernel_agrees = same_span
            if not same_span:
                discrepancies.append("kernel span mismatch between constructions")

    sc_a = strongly_controllable(inv, AS_WRITTEN).verdict
    sc_e = strongly_controllable(inv, WITH_E).verdict
    if sc_a != sc_e:
        discrepancies.append(
            f"strong-controllability variants disagree: as-written={sc_a}, with-e={sc_e}"
        )

    return CrossValidationReport(
        elimination_rank=r_elim,
        minor_rank=r_minor,
        kernel_checked=kernel_checked,
        kernel_agrees=kernel_agrees,
        strong_as_written=sc_a,
        strong_with_e=sc_e,
        discrepancies=discrepancies,
    )


__all__ = [
    "SampleSpec", "FrequencyRow", "RunConfig", "sample_triple",
    "estimate_frequency", "run_survey", "write_survey", "cross_validate",
    "CrossValidationReport", "rows_to_csv", "rows_to_json",
    "CSV_COLUMNS",
]
