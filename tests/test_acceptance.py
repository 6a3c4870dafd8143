"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import time
from fractions import Fraction

from daectrl.algebra import Poly, hurwitz_stable, poly_gcd, resultant, sylvester
from daectrl.criteria import (
    AS_WRITTEN,
    Concept,
    DaeTriple,
    evaluate,
    kalman_controllable,
)
from daectrl.experiment import RunConfig, SampleSpec, estimate_frequency, write_survey
from daectrl.gauss import apply_T, backsub_kernel
from oracles import roots_float
from daectrl.matrix import RatMatrix, hconcat, rank_by_minors

SEED = 42
TRIALS = 200
BOUND = 100


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{criterion}]"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


def P(*asc):
    return Poly(list(asc))


P_CUBIC = P(-6, 0, 5, 1)
Q_QUINTIC = P(0, 9, 0, 6, -2, -2)


def test_criterion_01_resultant_exactness():
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
    matrix_ok = sylvester(P_CUBIC, Q_QUINTIC).to_lists() == [
        [Fraction(x) for x in row] for row in expected
    ]
    resultant(P_CUBIC, Q_QUINTIC)  # warm up before timing
    best = min(_timed_resultant() for _ in range(5))
    value_ok = resultant(P_CUBIC, Q_QUINTIC) == 750222
    report(
        "1 resultant exactness",
        matrix_ok and value_ok and best < 1e-3,
        f"value ok={value_ok}, matrix ok={matrix_ok}, best time {best * 1e6:.0f}us",
    )


def _timed_resultant():
    start = time.perf_counter()
    resultant(P_CUBIC, Q_QUINTIC)
    return time.perf_counter() - start


def test_criterion_02_resultant_edge_cases():
    powers_ok = all(resultant(P(a), Q_QUINTIC) == a**5 for a in (1, 2, 3))
    consts_ok = resultant(P(4), P(9)) == 1
    report("2 resultant edge cases", powers_ok and consts_ok)


def test_criterion_03_resultant_gcd_law():
    rng = random.Random(1003)
    start = time.perf_counter()
    mismatches = 0
    pairs = 0
    while pairs < 1000:
        p = Poly([rng.randint(-10, 10) for _ in range(rng.randint(1, 7))])
        q = Poly([rng.randint(-10, 10) for _ in range(rng.randint(1, 7))])
        if p.is_zero() or q.is_zero():
            continue
        pairs += 1
        if (resultant(p, q) == 0) != (poly_gcd(p, q).degree >= 1):
            mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        "3 resultant-gcd law",
        mismatches == 0 and elapsed < 10,
        f"{pairs} pairs, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_04_hurwitz_root_oracle():
    rng = random.Random(1004)
    mismatches = 0
    checked = 0
    while checked < 500:
        p = Poly([rng.randint(-10, 10) for _ in range(rng.randint(2, 7))])
        if p.is_zero() or p.is_constant():
            continue
        real_parts = [r.real for r in roots_float(p)]
        if any(abs(re) < 1e-6 for re in real_parts):
            continue  # margin case, filtered per the criterion
        checked += 1
        if hurwitz_stable(p) != (max(real_parts) < -1e-6):
            mismatches += 1
    report("4 hurwitz vs root oracle", mismatches == 0, f"500 checked, {mismatches} mismatches")


def test_criterion_05_rank_oracle():
    rng = random.Random(1005)
    bad = 0
    for _ in range(300):
        r, c = rng.randint(1, 4), rng.randint(1, 5)
        m = RatMatrix(r, c, [rng.randint(-6, 6) for _ in range(r * c)])
        if m.rank() != rank_by_minors(m):
            bad += 1
    report("5 rank oracle", bad == 0, f"300 matrices, {bad} mismatches")


def test_criterion_06_kernel_fidelity():
    rng = random.Random(1006)
    shapes = [(1, 2), (2, 3), (3, 5)]
    bad = 0
    for i in range(100):
        l, n = shapes[i % 3]
        while True:
            E = RatMatrix(
                l, n,
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(l * n)],
            )
            _, rep = apply_T(E)
            if rep.in_domain_t_prime:
                break
        Z = backsub_kernel(E)
        Zb = E.kernel_basis()
        ok = (
            (E @ Z).is_zero()
            and Z.cols == n - l
            and Z.rank() == n - l
            and hconcat([Z, Zb]).rank() == Zb.rank() == Z.rank()
        )
        bad += not ok
    # fixed point: Z([I_l, 0]) = [0; I_{n-l}] exactly
    exact_ok = True
    for l, n in shapes:
        EI = hconcat([RatMatrix.identity(l), RatMatrix.zero(l, n - l)])
        want = RatMatrix.from_rows(
            RatMatrix.zero(l, n - l).to_lists() + RatMatrix.identity(n - l).to_lists()
        )
        exact_ok &= backsub_kernel(EI) == want
    report("6 kernel fidelity", bad == 0 and exact_ok, f"100 random E, {bad} failures")


def test_criterion_07_kalman_shift_instance():
    ok_fixed = True
    for n in range(2, 7):
        A = RatMatrix(n, n, [
            1 if (i == 0 and j == n - 1) or (i == j + 1) else 0
            for i in range(n) for j in range(n)
        ])
        B = RatMatrix(n, 2, [1 if (i, j) == (0, 0) else 0 for i in range(n) for j in range(2)])
        ok_fixed &= kalman_controllable(A, B).verdict
    spec = SampleSpec(seed=SEED, trials=TRIALS, bound=BOUND)
    row = estimate_frequency(Concept.ODE_CONTROLLABLE, 3, 3, 2, spec)
    freq_ok = row.frequency >= Fraction(199, 200)
    report(
        "7 kalman shift instance",
        ok_fixed and freq_ok,
        f"fixed systems ok={ok_fixed}, MC hits={row.hits}/{row.trials}",
    )


GENERIC_CELLS = [
    (Concept.FREELY_INITIALIZABLE, [(1, 1, 1), (2, 1, 1), (2, 2, 1)]),
    (Concept.IMPULSE_CONTROLLABLE, [(1, 1, 1), (2, 1, 1), (2, 2, 1)]),
    (Concept.COMPLETELY_CONTROLLABLE, [(1, 1, 1), (1, 2, 2), (2, 2, 1)]),
    (Concept.COMPLETELY_STABILIZABLE, [(1, 1, 1), (1, 2, 2), (2, 2, 1)]),
    (Concept.STRONGLY_STABILIZABLE, [(1, 1, 1), (1, 2, 2), (2, 2, 1)]),
    (Concept.BEHAVIOURALLY_CONTROLLABLE, [(1, 1, 1), (3, 1, 1), (1, 2, 2)]),
    (Concept.BEHAVIOURALLY_STABILIZABLE, [(1, 1, 1), (3, 1, 1), (1, 2, 2)]),
    (Concept.STRONGLY_CONTROLLABLE, [(2, 2, 2), (2, 2, 3), (1, 2, 1), (2, 3, 1)]),
]

NULL_CELLS = [
    (Concept.FREELY_INITIALIZABLE, [(3, 1, 1), (4, 1, 2)]),
    (Concept.IMPULSE_CONTROLLABLE, [(3, 1, 1), (4, 1, 2)]),
    (Concept.COMPLETELY_CONTROLLABLE, [(2, 1, 1), (3, 1, 1)]),
    (Concept.BEHAVIOURALLY_CONTROLLABLE, [(2, 1, 1), (3, 2, 1)]),
    (Concept.STRONGLY_CONTROLLABLE, [(3, 2, 2), (3, 4, 1)]),
    (Concept.STRONGLY_STABILIZABLE, [(3, 1, 1)]),
]


def test_criterion_08_generic_cells():
    spec = SampleSpec(seed=SEED, trials=TRIALS, bound=BOUND)
    failures = []
    for concept, cells in GENERIC_CELLS:
        for (l, n, m) in cells:
            start = time.perf_counter()
            row = estimate_frequency(concept, l, n, m, spec, AS_WRITTEN)
            elapsed = time.perf_counter() - start
            if row.frequency < Fraction(199, 200) or elapsed >= 60:
                failures.append((concept.value, (l, n, m), row.hits, f"{elapsed:.1f}s"))
    report("8 genericity survey, generic cells", not failures, f"failures={failures}")


def test_criterion_09_null_cells():
    spec = SampleSpec(seed=SEED, trials=TRIALS, bound=BOUND)
    failures = []
    for concept, cells in NULL_CELLS:
        for (l, n, m) in cells:
            row = estimate_frequency(concept, l, n, m, spec, AS_WRITTEN)
            if row.frequency > Fraction(1, 200):
                failures.append((concept.value, (l, n, m), row.hits))
    report("9 genericity survey, null cells", not failures, f"failures={failures}")


def test_criterion_10_boundary_cells():
    spec = SampleSpec(seed=SEED, trials=2000, bound=BOUND)
    freqs = {}
    ok = True
    for concept in (
        Concept.COMPLETELY_STABILIZABLE,
        Concept.STRONGLY_STABILIZABLE,
        Concept.BEHAVIOURALLY_STABILIZABLE,
    ):
        row = estimate_frequency(concept, 2, 1, 1, spec)
        freqs[concept.value] = float(row.frequency)
        ok &= Fraction(2, 5) < row.frequency < Fraction(3, 5)
    report("10 boundary positive-measure cells", ok, f"frequencies={freqs}")


def test_criterion_11_invariance_suites():
    rng = random.Random(1011)

    def rand_mat(r, c):
        return RatMatrix(r, c, [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(r * c)])

    def rand_invertible(k):
        while True:
            m = rand_mat(k, k)
            if m.det() != 0:
                return m

    concepts = [c for c in Concept if c is not Concept.ODE_CONTROLLABLE]
    violations = 0

    # basis invariance of the Z-dependent ranks
    done = 0
    while done < 50:
        l, n, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        t = DaeTriple(rand_mat(l, n), rand_mat(l, n), rand_mat(l, m))
        Z = t.E.kernel_basis()
        if Z.cols == 0:
            continue
        ZU = Z @ rand_invertible(Z.cols)
        if hconcat([t.A @ Z, t.B]).rank() != hconcat([t.A @ ZU, t.B]).rank():
            violations += 1
        if hconcat([t.E, t.A @ Z, t.B]).rank() != hconcat([t.E, t.A @ ZU, t.B]).rank():
            violations += 1
        done += 1

    # system-equivalence invariance under random (S, T)
    for _ in range(50):
        l, n, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
        t = DaeTriple(rand_mat(l, n), rand_mat(l, n), rand_mat(l, m))
        S, T = rand_invertible(l), rand_invertible(n)
        t2 = DaeTriple(S @ t.E @ T, S @ t.A @ T, S @ t.B)
        for c in concepts:
            if evaluate(c, t).verdict != evaluate(c, t2).verdict:
                violations += 1

    report("11 invariance suites", violations == 0, f"{violations} violations")


def test_criterion_12_survey_determinism(tmp_path):
    cfg = RunConfig(2, 2, 2, SampleSpec(seed=SEED, trials=25))
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    write_survey(cfg, str(p1))
    write_survey(cfg, str(p2))
    same = p1.read_bytes() == p2.read_bytes()
    report("12 survey determinism", same)
