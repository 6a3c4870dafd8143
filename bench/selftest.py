"""Tests of the benchmark itself: tracer call counts, determinism, output
checks, and the result format. Takes about two minutes:

    python3 bench/selftest.py

The expected call counts are derived from the inputs and from how the
program computes its verdicts at the commit that defined the benchmark
(eight analyses per triple, cofactor minors). A change that alters that
call structure on purpose changes these expectations with it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from math import comb
from pathlib import Path

import run
import tracer
import workloads
from daectrl.experiment import FrequencyRow
from daectrl.criteria import Concept

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# Block ranks the eight predicates take per triple, besides generic_rank's:
# two each for all but the two behavioural concepts.
BLOCK_RANKS_PER_TRIPLE = 12


def traced(wl, ops, path):
    """Run ops 0..ops-1 traced and return the table derived from the file."""
    with tracer.Tracer() as tr:
        tally = run.run_ops(wl, count=ops)
    assert tally.failed == 0
    tr.write(path, {"triples": ops * wl.triples_per_op,
                    "untraced_s": 1.0, "traced_s": 1.0})
    assert tr.missing == [], tr.missing
    return {k: v for k, (v, _) in tracer.layer_metrics(path).items()}


def evaluation_points(t):
    """generic_rank's evaluation count for the pencil of triple t."""
    degree = 0 if t.E.is_zero() else 1
    return degree * min(t.l, t.n + t.m) + 1


def run_bench(*args, cwd=run.ROOT, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )


class TracedCounts(unittest.TestCase):
    """A wrapper that misses calls records zero; these counts catch it."""

    @classmethod
    def setUpClass(cls):
        cls.work = run.WORK / f"selftest-{os.getpid()}"
        cls.work.mkdir(parents=True, exist_ok=True)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_survey(self):
        wl = workloads.Survey(7, self.work)
        ops = 2
        m = traced(wl, ops, self.work / "survey.jsonl")
        grid = range(1, wl.GRID + 1)
        triples = [workloads.sample_triple(wl.prepare(i).spec, l, n, mm, s)
                   for i in range(ops) for l in grid for n in grid for mm in grid
                   for s in range(wl.TRIALS)]
        self.assertEqual(len(triples), ops * wl.triples_per_op)
        points = sum(6 * evaluation_points(t) for t in triples)
        self.assertEqual(m["experiment.run_survey.calls"], ops)
        self.assertEqual(m["experiment.sample_triple.calls"], 8 * len(triples))
        self.assertEqual(m["experiment.samples_per_triple"], 8)
        self.assertEqual(m["criteria.evaluate.calls"], 8 * len(triples))
        self.assertEqual(m["pencil.generic_rank.calls"], 6 * len(triples))
        self.assertEqual(m["criteria.generic_rank_per_triple"], 6)
        self.assertEqual(m["pencil.PolyMatrix.eval.calls"], points)
        self.assertEqual(m["matrix.rank.calls"], BLOCK_RANKS_PER_TRIPLE * len(triples) + points)
        self.assertEqual(m["matrix.kernel_basis.calls"], 3 * len(triples))
        self.assertEqual(m["pencil.minors_enumerated"], m["pencil.PolyMatrix.det.calls"])
        self.assertGreater(m["pencil.minor_gcd.calls"], 0)
        self.assertGreater(m["algebra.poly_gcd.calls"], 0)
        self.assertGreater(m["algebra.hurwitz_stable.calls"], 0)
        self.assertGreater(m["matrix.det.calls"], 0)
        self.assertEqual(m["cli.main.calls"], 0)

    def check_counts(self, wl, ops, m):
        triples = [wl.triple(i) for i in range(ops)]
        points = sum(6 * evaluation_points(t) for t in triples)
        self.assertEqual(m["cli.main.calls"], ops)
        self.assertEqual(m["criteria.evaluate.calls"], 8 * ops)
        self.assertEqual(m["pencil.generic_rank.calls"], 6 * ops)
        self.assertEqual(m["pencil.minor_gcd.calls"], 6 * ops)
        self.assertEqual(m["criteria.minor_gcd_per_triple"], 6)
        self.assertEqual(m["pencil.PolyMatrix.eval.calls"], points)
        self.assertEqual(m["matrix.rank.calls"], BLOCK_RANKS_PER_TRIPLE * ops + points)
        self.assertEqual(m["matrix.kernel_basis.calls"], 3 * ops)
        self.assertEqual(m["experiment.sample_triple.calls"], 0)
        self.assertEqual(m["experiment.run_survey.calls"], 0)
        self.assertGreater(m["pencil.minor.max_bits"], 0)

    def test_check_drop(self):
        wl = workloads.CheckDrop(7, self.work)
        ops = 1
        m = traced(wl, ops, self.work / "drop.jsonl")
        self.check_counts(wl, ops, m)
        l, n, mm = wl.dims
        minors = comb(l, l) * comb(n + mm, l)
        self.assertEqual(minors, 56)
        # x - 3 divides every minor, so no early exit: all 56 per call.
        self.assertEqual(m["pencil.minors_enumerated"], 6 * ops * minors)
        self.assertEqual(m["pencil.PolyMatrix.det.calls"], 6 * ops * minors)
        self.assertEqual(m["pencil.minors_enumerated_ratio"], 1.0)
        self.assertEqual(m["algebra.hurwitz_stable.calls"], 6 * ops)

    def test_check_generic(self):
        wl = workloads.CheckGeneric(7, self.work)
        ops = 1
        m = traced(wl, ops, self.work / "generic.jsonl")
        self.check_counts(wl, ops, m)
        l, n, mm = wl.dims
        # gcd 1 after the second minor: two minors per minor_gcd call.
        self.assertEqual(m["pencil.minors_enumerated"], 2 * 6 * ops)
        self.assertAlmostEqual(m["pencil.minors_enumerated_ratio"],
                               2 / (comb(l, l) * comb(n + mm, l)))
        self.assertEqual(m["algebra.hurwitz_stable.calls"], 0)


class ResultFormat(unittest.TestCase):
    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        return res

    def test_traced_counts_repeat_and_match_benchmark_json(self):
        """Two traced runs with one seed, in interpreters with different
        hash seeds, report identical counts; names and units are the ones
        BENCHMARK.json lists."""
        declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                runs = []
                for hash_seed in ("1", "2"):
                    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
                    res = self.result(run_bench("--workload", name, "--seed", "5",
                                                "--seconds", "1", "--trace", "1", env=env))
                    metrics = res["metrics"]
                    self.assertEqual({k: v["unit"] for k, v in metrics.items()}, declared)
                    runs.append({k: v["value"] for k, v in metrics.items()
                                 if v["unit"] != "s" and k != "trace.overhead_ratio"})
                self.assertEqual(runs[0], runs[1])
                self.assertGreater(runs[0]["criteria.evaluate.calls"], 0)

    def test_end_to_end_metrics_match_benchmark_json(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        res = self.result(run_bench("--workload", "check-generic", "--seed", "5",
                                    "--seconds", "1", "--trace", "0"))
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, declared)
        self.assertTrue(all(v["value"] > 0 for v in res["metrics"].values()))

    def test_fails_without_the_program(self):
        bare = run.WORK / f"bare-{os.getpid()}"
        try:
            (bare / "bench").mkdir(parents=True)
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            for f in run.HERE.iterdir():
                if f.is_file():
                    shutil.copy(f, bare / "bench")
            proc = run_bench("--workload", "check-drop", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


class OutputChecks(unittest.TestCase):
    """The checks reject wrong answers, not only crashes."""

    reference = json.loads(workloads.REFERENCE.read_text())

    def test_survey_implications(self):
        wl = workloads.Survey(workloads.DEFAULT_SEED, None)

        def rows(edit=None):
            out = []
            for c, l, n, m, trials, hits in self.reference[wl.name]:
                if edit and (c, l, n, m) == edit[0]:
                    hits = edit[1]
                out.append(FrequencyRow(Concept(c), (l, n, m), trials, hits, True))
            return out

        self.assertEqual(wl.check(rows()), (0, []))
        # Freely initializable is implied only by completely stabilizable,
        # so zeroing it where the latter has hits fails exactly those two.
        cell = next((l, n, m) for c, l, n, m, _, h in self.reference[wl.name]
                    if c == workloads.CS and h > 0)
        failed, _ = wl.check(rows(((workloads.FI, *cell), 0)))
        self.assertEqual(failed, 2)
        failed, _ = wl.check(rows()[:-1])
        self.assertEqual(failed, wl.cells_per_op)

    def test_check_drop_known_answer(self):
        wl = workloads.CheckDrop(workloads.DEFAULT_SEED, None)
        good = self.reference[wl.name]
        self.assertEqual(wl.check((0, json.dumps(good))), (0, []))

        def edited(concept, key, value):
            out = json.loads(json.dumps(good))
            next(r for r in out if r["concept"] == concept)[key] = value
            return 0, json.dumps(out)

        self.assertEqual(wl.check(edited(workloads.BC, "verdict", True))[0], 1)
        self.assertEqual(wl.check(edited(workloads.BC, "drop_polynomial", ["-2", "1"]))[0], 1)
        self.assertEqual(wl.check((2, ""))[0], 1)


if __name__ == "__main__":
    unittest.main()
