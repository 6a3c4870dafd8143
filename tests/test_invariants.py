"""The shared per-triple analysis against independent oracles.

Block ranks are checked against brute-force minors, the generic pencil
rank and the drop polynomial against sympy (when installed), and the eight
verdicts against the implications that hold between the concepts. The last
tests check that the analysis computes each pencil invariant at most once
and never touches the pencil for concepts that do not need it.
"""

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

import daectrl.criteria as criteria
import daectrl.pencil as pencil
from daectrl.cli import main
from daectrl.criteria import (
    AS_WRITTEN,
    DAE_CONCEPTS,
    WITH_E,
    Concept,
    DaeTriple,
    SystemInvariants,
    evaluate,
)
from daectrl.experiment import RunConfig, SampleSpec, run_survey
from daectrl.matrix import RatMatrix, hconcat, rank_by_minors


def structured_triple(rng, l, n, m):
    """A small triple with the degeneracies random rationals never show:
    sparse and zero blocks, repeated rows, and rows of A that are a multiple
    of the same row of E (a rank drop of the pencil at that multiple)."""

    def block(r, c):
        kind = rng.choice(["sparse", "sparse", "dense", "zero", "repeated"])
        if kind == "zero":
            return [[0] * c for _ in range(r)]
        rows = [
            [0 if kind == "sparse" and rng.random() < 0.5 else rng.randint(-2, 2)
             for _ in range(c)]
            for _ in range(r)
        ]
        if kind == "repeated" and r > 1:
            rows[-1] = list(rows[0])
        return rows

    E, A, B = block(l, n), block(l, n), block(l, m)
    if rng.random() < 0.3:
        k = rng.randrange(l)
        c = rng.choice([-2, -1, 1, 3])
        A[k] = [c * x for x in E[k]]
        B[k] = [0] * m
    return DaeTriple(*(RatMatrix.from_rows(X) for X in (E, A, B)))


def random_triple(rng, l, n, m):
    def mat(r, c):
        return RatMatrix(r, c, [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                for _ in range(r * c)])

    return DaeTriple(mat(l, n), mat(l, n), mat(l, m))


def triples(seed, count):
    rng = random.Random(seed)
    for k in range(count):
        l, n, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        yield (structured_triple if k % 2 else random_triple)(rng, l, n, m)


class TestBlockRanks:
    def test_against_minor_oracle(self):
        for t in triples(61, 80):
            inv = SystemInvariants(t)
            Z = t.E.kernel_basis()
            assert (t.E @ Z).is_zero() and Z.cols == t.n - t.E.rank()
            AZ = t.A @ Z
            assert inv.r_eb == rank_by_minors(hconcat([t.E, t.B]))
            assert inv.r == rank_by_minors(hconcat([t.E, t.A, t.B]))
            assert inv.r_eazb == rank_by_minors(hconcat([t.E, AZ, t.B]))
            assert inv.r_azb == rank_by_minors(hconcat([AZ, t.B]))


class TestPencilInvariants:
    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def q(f):
            return sympy.Rational(f.numerator, f.denominator)

        for t in triples(62, 60):
            P = sympy.Matrix(t.l, t.n + t.m, lambda i, j: (
                x * q(t.E[i, j]) - q(t.A[i, j]) if j < t.n else q(t.B[i, j - t.n])
            ))
            minors = {}
            for d in range(1, min(P.rows, P.cols) + 1):
                minors[d] = [
                    sympy.expand(P.extract(list(rp), list(cp)).det())
                    for rp in combinations(range(P.rows), d)
                    for cp in combinations(range(P.cols), d)
                ]
            want_g = max([d for d, ms in minors.items() if any(mi != 0 for mi in ms)],
                         default=0)
            inv = SystemInvariants(t)
            assert inv.g == want_g
            if want_g == 0:
                want_drop = [Fraction(1)]
            else:
                gcd = sympy.Poly(sympy.gcd_list(minors[want_g]), x).monic()
                want_drop = [Fraction(int(c.p), int(c.q)) for c in reversed(gcd.all_coeffs())]
            assert list(inv.drop.coeffs) == want_drop, t


# a => b for every triple (the strong concepts in the with-e variant).
IMPLICATIONS = [
    (Concept.COMPLETELY_CONTROLLABLE, Concept.COMPLETELY_STABILIZABLE),
    (Concept.COMPLETELY_STABILIZABLE, Concept.FREELY_INITIALIZABLE),
    (Concept.COMPLETELY_STABILIZABLE, Concept.STRONGLY_STABILIZABLE),
    (Concept.COMPLETELY_CONTROLLABLE, Concept.BEHAVIOURALLY_CONTROLLABLE),
    (Concept.BEHAVIOURALLY_CONTROLLABLE, Concept.BEHAVIOURALLY_STABILIZABLE),
    (Concept.STRONGLY_CONTROLLABLE, Concept.STRONGLY_STABILIZABLE),
    (Concept.STRONGLY_STABILIZABLE, Concept.IMPULSE_CONTROLLABLE),
    (Concept.COMPLETELY_STABILIZABLE, Concept.BEHAVIOURALLY_STABILIZABLE),
]


class TestVerdicts:
    def test_implication_chains(self):
        for t in triples(63, 120):
            inv = SystemInvariants(t)
            verdict = {c: evaluate(c, inv, WITH_E).verdict for c in DAE_CONCEPTS}
            for a, b in IMPLICATIONS:
                assert verdict[b] or not verdict[a], (a, b, t)

    def test_shared_analysis_matches_fresh_analyses(self):
        for t in triples(64, 40):
            inv = SystemInvariants(t)
            for variant in (AS_WRITTEN, WITH_E):
                for c in DAE_CONCEPTS:
                    shared = evaluate(c, inv, variant)
                    fresh = evaluate(c, DaeTriple(t.E, t.A, t.B), variant)
                    assert shared == fresh, (c, variant, t)


def counting(monkeypatch, name):
    calls = []
    fn = getattr(criteria, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(criteria, name, wrapper)
    return calls


def raising(*args):
    raise AssertionError("the pencil was touched")


def triple_file(tmp_path, t):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps({
        k: [[str(v) for v in getattr(t, k).row(i)] for i in range(t.l)] for k in "EAB"
    }))
    return str(path)


class TestLaziness:
    def test_check_analyses_the_pencil_once(self, tmp_path, capsys, monkeypatch):
        ranks = counting(monkeypatch, "generic_rank")
        gcds = counting(monkeypatch, "minor_gcd")
        t = random_triple(random.Random(65), 3, 3, 2)
        assert main(["check", "--input", triple_file(tmp_path, t)]) == 0
        assert capsys.readouterr().out.count(": ") == len(DAE_CONCEPTS)
        assert (len(ranks), len(gcds)) == (1, 1)

    def test_survey_analyses_each_triple_once(self, monkeypatch):
        ranks = counting(monkeypatch, "generic_rank")
        spec = SampleSpec(seed=5, trials=3)
        rows = run_survey(RunConfig(2, 2, 2, spec))
        assert len(rows) == len(DAE_CONCEPTS) * 8
        assert len(ranks) == 8 * spec.trials

    def test_rank_concepts_never_touch_the_pencil(self, tmp_path, capsys, monkeypatch):
        for name in ("build_pencil", "generic_rank", "minor_gcd"):
            monkeypatch.setattr(criteria, name, raising)
            monkeypatch.setattr(pencil, name, raising)
        concepts = [Concept.FREELY_INITIALIZABLE, Concept.IMPULSE_CONTROLLABLE]
        t = random_triple(random.Random(66), 2, 3, 1)
        argv = ["check", "--input", triple_file(tmp_path, t),
                "--concepts", ",".join(c.value for c in concepts)]
        assert main(argv) == 0
        assert capsys.readouterr().out.count(": yes") == 2
        rows = run_survey(RunConfig(2, 2, 2, SampleSpec(seed=5, trials=2), concepts=concepts))
        assert [r.concept for r in rows] == [c for c in concepts for _ in range(8)]
