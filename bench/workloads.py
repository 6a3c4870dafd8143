"""The benchmark's three workloads.

Each workload turns (seed, op index) into the input of one operation,
runs the operation through daectrl's public entry point, and checks the
output with rules that need no golden file, so that they hold on any seed.
`check_reference` adds one comparison against outputs recorded from the
seed commit (reference.json).

Importing this module imports daectrl from the checkout's own `src`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import daectrl  # noqa: E402
from daectrl import cli, experiment  # noqa: E402
from daectrl.algebra import Poly, poly_eval  # noqa: E402
from daectrl.criteria import DAE_CONCEPTS, Concept, DaeTriple  # noqa: E402
from daectrl.matrix import RatMatrix, matrix_to_strings  # noqa: E402

# Inputs are made with this module's own reference to sample_triple, which
# the tracer does not patch: on the check workloads input generation is the
# benchmark's work, not the program's.
from daectrl.experiment import RunConfig, SampleSpec, sample_triple  # noqa: E402

if not Path(daectrl.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"daectrl imported from {daectrl.__file__}, not from {SRC}")

DEFAULT_SEED = 42
REFERENCE = Path(__file__).resolve().parent / "reference.json"

CC = Concept.COMPLETELY_CONTROLLABLE.value
CS = Concept.COMPLETELY_STABILIZABLE.value
FI = Concept.FREELY_INITIALIZABLE.value
BC = Concept.BEHAVIOURALLY_CONTROLLABLE.value
BS = Concept.BEHAVIOURALLY_STABILIZABLE.value
SC = Concept.STRONGLY_CONTROLLABLE.value
SS = Concept.STRONGLY_STABILIZABLE.value
IC = Concept.IMPULSE_CONTROLLABLE.value

# a => b for every triple, so per survey cell hits(a) <= hits(b).
IMPLICATIONS = [(CC, CS), (CS, FI), (CC, BC), (BC, BS), (SC, SS), (SS, IC)]
PENCIL_CONCEPTS = {CC, BC, SC, CS, SS, BS}
CONCEPT_ORDER = [c.value for c in DAE_CONCEPTS]


class Survey:
    """`run_survey` over l, n, m in 1..3, all eight DAE concepts, bound 100.

    One operation is one survey of TRIALS trials per cell with its own
    sampling seed; the output check counts one operation per survey cell.
    """

    name = "survey-grid3"
    TRIALS = 2
    GRID = 3
    # Highest percentile with at least ten inputs beyond it at a 36 s run
    # (about 40 surveys a pass on a 2-core VM), with a margin.
    tail = 0.70
    trace_ops = 8

    cells_per_op = len(DAE_CONCEPTS) * GRID ** 3
    triples_per_op = GRID ** 3 * TRIALS

    def __init__(self, seed, workdir):
        self.seed = seed

    def prepare(self, i, grid=GRID):
        # Op -1 is the warm-up; it draws from streams no timed op uses.
        return RunConfig(grid, grid, grid, SampleSpec(self.seed * 100_000 + i, self.TRIALS))

    def warm_up(self):
        self.run(self.prepare(-1, grid=2))

    def run(self, config):
        return experiment.run_survey(config)

    def summary(self, rows):
        return [[r.concept.value, *r.dims, r.trials, r.hits] for r in rows]

    def check(self, rows):
        """(number of failed cells, a message per failure)."""
        summary = self.summary(rows)
        hits = {(c, l, n, m): h for c, l, n, m, _, h in summary}
        dims = [(l, n, m) for l in range(1, self.GRID + 1)
                for n in range(1, self.GRID + 1) for m in range(1, self.GRID + 1)]
        if len(summary) != self.cells_per_op or set(hits) != {
                (c, *d) for c in CONCEPT_ORDER for d in dims}:
            return self.cells_per_op, ["survey rows do not cover the grid once"]
        failed, problems = set(), []
        for c, l, n, m, trials, h in summary:
            if trials != self.TRIALS or not 0 <= h <= trials:
                failed.add((c, l, n, m))
                problems.append(f"{c} at {(l, n, m)}: {h} hits of {trials}")
        for d in dims:
            for a, b in IMPLICATIONS:
                if hits[(a, *d)] > hits[(b, *d)]:
                    failed |= {(a, *d), (b, *d)}
                    problems.append(f"at {d}: {a} hits {hits[(a, *d)]} > {b} hits {hits[(b, *d)]}")
        return len(failed), problems


class Check:
    """`daectrl check --format json` on one triple per operation, in process.
    Subclasses set `name`, `dims`, `tail` and `trace_ops`."""

    cells_per_op = 1
    triples_per_op = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def triple(self, stream, dims=None):
        l, n, m = dims or self.dims
        return sample_triple(SampleSpec(self.seed, 1), l, n, m, stream)

    def prepare(self, i, dims=None):
        path = self.workdir / f"{self.name}-{i}.json"
        t = self.triple(i, dims)
        with open(path, "w") as fh:
            json.dump({k: matrix_to_strings(getattr(t, k)) for k in "EAB"}, fh)
        return ["check", "--format", "json", "--input", str(path)]

    def warm_up(self):
        # Op -1 is the warm-up, on a smaller triple than any timed op.
        l, n, m = self.dims
        self.run(self.prepare(-1, dims=(l - 2, n - 2, m - 1)))

    def run(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def summary(self, out):
        code, text = out
        if code != 0:
            raise ValueError(f"check exited {code}")
        return [{k: r[k] for k in ("concept", "verdict", "ranks", "drop_polynomial")}
                for r in json.loads(text)]

    def check(self, out):
        try:
            reports = self.summary(out)
        except (ValueError, KeyError, TypeError) as exc:
            return 1, [f"unreadable check output: {exc}"]
        verdict = {r["concept"]: r["verdict"] for r in reports}
        if [r["concept"] for r in reports] != CONCEPT_ORDER:
            return 1, [f"concepts {list(verdict)}"]
        problems = [f"{a} holds but {b} does not"
                    for a, b in IMPLICATIONS if verdict[a] and not verdict[b]]
        problems += self.known_answer(reports, verdict)
        return int(bool(problems)), problems

    def known_answer(self, reports, verdict):
        return []


class CheckDrop(Check):
    """ROADMAP worst-case family at (5, 5, 3): row 0 of A is 3 x row 0 of E
    and row 0 of B is zero, so x - 3 divides every order-5 pencil minor."""

    name = "check-drop"
    dims = (5, 5, 3)
    # About 8 inputs a pass at a 36 s run: too few for any percentile
    # above the median to have ten beyond it, so the tail is the median.
    tail = 0.50
    trace_ops = 6

    def triple(self, stream, dims=None):
        t = super().triple(stream, dims)
        n, m = t.n, t.m
        A = list(t.A.entries)
        A[:n] = [3 * e for e in t.E.row(0)]
        B = [Fraction(0)] * m + list(t.B.entries[m:])
        return DaeTriple(t.E, RatMatrix(t.l, n, A), RatMatrix(t.l, m, B))

    def known_answer(self, reports, verdict):
        problems = [f"{c} answered yes despite the drop at x = 3"
                    for c in sorted(PENCIL_CONCEPTS) if verdict[c]]
        for r in reports:
            if r["drop_polynomial"] is not None:
                p = Poly.from_strings(r["drop_polynomial"])
                if p.is_zero() or poly_eval(p, 3) != 0:
                    problems.append(f"{r['concept']}: drop polynomial {p} is not zero at 3")
        return problems


class CheckGeneric(Check):
    """Plain random triples at (6, 6, 3): the pencil minors have gcd 1, so
    minor_gcd stops after two minors."""

    name = "check-generic"
    dims = (6, 6, 3)
    # About 15 inputs a pass at a 36 s run: none above the median has ten
    # beyond it, so the tail is the median.
    tail = 0.50
    trace_ops = 12


WORKLOADS = {w.name: w for w in (Survey, CheckDrop, CheckGeneric)}


def check_reference(workload_cls, workdir):
    """Op 0 of the default seed, compared with the output the seed commit
    gave for it. Returns a list of problems, empty when they agree."""
    wl = workload_cls(DEFAULT_SEED, workdir)
    out = wl.run(wl.prepare(0))
    want = json.loads(REFERENCE.read_text())[wl.name]
    got = json.loads(json.dumps(wl.summary(out)))
    if got != want:
        return [f"default-seed output differs from {REFERENCE.name}"]
    return []
