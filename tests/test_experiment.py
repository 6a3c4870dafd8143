import json

import pytest

from daectrl.cli import main
from daectrl.criteria import Concept, DaeTriple
from daectrl.experiment import (
    RunConfig,
    SampleSpec,
    cross_validate,
    estimate_frequency,
    rows_to_csv,
    run_survey,
    sample_triple,
    write_survey,
)
from daectrl.matrix import RatMatrix, hconcat

SPEC = SampleSpec(seed=42, trials=50, bound=100)


class TestSampling:
    def test_deterministic(self):
        a = sample_triple(SPEC, 2, 3, 1, 7)
        b = sample_triple(SPEC, 2, 3, 1, 7)
        assert a == b

    def test_shapes(self):
        t = sample_triple(SPEC, 2, 3, 1, 0)
        assert (t.E.rows, t.E.cols) == (2, 3)
        assert (t.A.rows, t.A.cols) == (2, 3)
        assert (t.B.rows, t.B.cols) == (2, 1)

    def test_streams_distinct(self):
        draws = [sample_triple(SPEC, 2, 2, 1, i) for i in range(100)]
        assert len({(d.E, d.A, d.B) for d in draws}) == 100

    def test_bound_respected(self):
        t = sample_triple(SPEC, 2, 2, 2, 3)
        for m in (t.E, t.A, t.B):
            for x in m.entries:
                assert abs(x) <= SPEC.bound

    def test_denominators_within_bound(self):
        spec = SampleSpec(seed=1, trials=5, bound=7)
        t = sample_triple(spec, 2, 2, 1, 0)
        assert t == sample_triple(spec, 2, 2, 1, 0)
        for m in (t.E, t.A, t.B):
            assert all(x.denominator <= spec.bound for x in m.entries)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(seed=1, trials=0)
        with pytest.raises(ValueError):
            SampleSpec(seed=1, trials=1, bound=0)
        with pytest.raises(TypeError):  # rational-uniform is the only distribution
            SampleSpec(seed=1, trials=1, distribution="uniform-float")


class TestFrequency:
    def test_generic_cell(self):
        row = estimate_frequency(Concept.FREELY_INITIALIZABLE, 1, 1, 1, SPEC)
        assert row.hits == row.trials
        assert row.predicted_generic and row.agrees

    def test_null_cell(self):
        row = estimate_frequency(Concept.FREELY_INITIALIZABLE, 3, 1, 1, SPEC)
        assert row.hits == 0
        assert not row.predicted_generic and row.agrees

    def test_hits_match_sequential_recount(self):
        from daectrl.criteria import evaluate

        row = estimate_frequency(Concept.COMPLETELY_CONTROLLABLE, 2, 2, 1, SPEC)
        recount = sum(
            evaluate(Concept.COMPLETELY_CONTROLLABLE, sample_triple(SPEC, 2, 2, 1, i)).verdict
            for i in range(SPEC.trials)
        )
        assert row.hits == recount


class TestSurvey:
    def test_row_count(self):
        cfg = RunConfig(2, 2, 2, SampleSpec(seed=1, trials=3))
        rows = run_survey(cfg)
        assert len(rows) == 8 * 8  # 8 DAE concepts x 2x2x2 grid

    def test_empty_concepts_rejected(self):
        with pytest.raises(ValueError, match="no concepts"):
            RunConfig(1, 1, 1, SampleSpec(seed=1, trials=1), concepts=())

    def test_deterministic_csv(self, tmp_path):
        cfg = RunConfig(2, 2, 1, SampleSpec(seed=5, trials=5))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_survey(cfg, str(p1))
        write_survey(cfg, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_columns(self):
        cfg = RunConfig(
            1, 1, 1, SampleSpec(seed=1, trials=4),
            concepts=(Concept.FREELY_INITIALIZABLE,),
        )
        text = rows_to_csv(run_survey(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == "concept,l,n,m,trials,hits,frequency,predicted_generic,agrees"
        fields = lines[1].split(",")
        assert fields[0] == "freely_initializable"
        assert fields[1:4] == ["1", "1", "1"]
        assert fields[6] == "1.000000"
        assert fields[7] == "true" and fields[8] == "true"

    def test_ode_cells_only_square(self):
        cfg = RunConfig(
            2, 2, 1, SampleSpec(seed=1, trials=2),
            concepts=(Concept.ODE_CONTROLLABLE,),
        )
        rows = run_survey(cfg)
        assert all(r.dims[0] == r.dims[1] for r in rows)
        assert len(rows) == 2  # (1,1,1) and (2,2,1)


class TestCrossValidate:
    def test_staircase_e(self):
        E = hconcat([RatMatrix.identity(2), RatMatrix.zero(2, 1)])
        t = DaeTriple(E, RatMatrix.zero(2, 3), RatMatrix.identity(2))
        rep = cross_validate(t)
        assert rep.kernel_checked and rep.kernel_agrees
        assert rep.ok

    def test_zero_e_skips_staircase(self):
        t = DaeTriple(
            RatMatrix.zero(2, 3), RatMatrix.zero(2, 3), RatMatrix.zero(2, 1)
        )
        rep = cross_validate(t)
        assert not rep.kernel_checked
        assert rep.minor_rank == 0 and rep.elimination_rank == 0

    def test_random_triple(self):
        t = sample_triple(SPEC, 3, 3, 2, 11)
        rep = cross_validate(t)
        assert rep.minor_rank == rep.elimination_rank


class TestCli:
    def triple_file(self, tmp_path, obj):
        p = tmp_path / "triple.json"
        p.write_text(json.dumps(obj))
        return str(p)

    def test_check_text(self, tmp_path, capsys):
        path = self.triple_file(
            tmp_path, {"E": [["1"]], "A": [["-1"]], "B": [["1"]]}
        )
        rc = main(["check", "--input", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "completely_controllable: yes" in out

    def test_check_json(self, tmp_path, capsys):
        path = self.triple_file(
            tmp_path, {"E": [["1"]], "A": [["2"]], "B": [["0"]]}
        )
        rc = main(["check", "--input", path, "--format", "json",
                   "--concepts", "completely_stabilizable"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == [
            {
                "concept": "completely_stabilizable",
                "verdict": False,
                "ranks": {"rk[E,A,B]": 1, "rk[E,B]": 1, "generic_pencil_rank": 1},
                "drop_polynomial": ["-2", "1"],
            }
        ]

    def test_check_dimension_error_exit_2(self, tmp_path, capsys):
        path = self.triple_file(
            tmp_path, {"E": [["1"]], "A": [["1", "2"]], "B": [["1"]]}
        )
        assert main(["check", "--input", path]) == 2

    def test_check_parse_error_exit_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["check", "--input", str(p)]) == 2

    @pytest.mark.parametrize(
        "E",
        [
            ["12"],  # a row given as a string, not split into "1", "2"
            [[True, "2"]],  # a JSON boolean, not read as 1
            [[0.1, "2"]],  # a JSON float, not read as its binary expansion
        ],
        ids=["string_row", "boolean", "float"],
    )
    def test_check_malformed_entry_exit_2(self, tmp_path, capsys, E):
        path = self.triple_file(tmp_path, {"E": E, "A": [["1", "2"]], "B": [["1"]]})
        assert main(["check", "--input", path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_check_non_object_exit_2(self, tmp_path, capsys):
        path = self.triple_file(tmp_path, 5)
        assert main(["check", "--input", path]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_check_integer_entries_accepted(self, tmp_path, capsys):
        path = self.triple_file(tmp_path, {"E": [[1, 0]], "A": [["-1", 2]], "B": [[1]]})
        assert main(["check", "--input", path]) == 0
        assert "freely_initializable: yes" in capsys.readouterr().out

    def test_check_unknown_concept_exit_2(self, tmp_path):
        path = self.triple_file(
            tmp_path, {"E": [["1"]], "A": [["1"]], "B": [["1"]]}
        )
        assert main(["check", "--input", path, "--concepts", "nonsense"]) == 2

    def test_survey_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        rc = main([
            "survey", "--lmax", "1", "--nmax", "1", "--mmax", "1",
            "--trials", "5", "--seed", "3", "--out", str(out),
            "--concepts", "freely_initializable,impulse_controllable",
        ])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3

    def test_survey_json_format(self, tmp_path):
        out = tmp_path / "rows.json"
        rc = main([
            "survey", "--lmax", "1", "--nmax", "1", "--mmax", "1",
            "--trials", "5", "--seed", "3", "--out", str(out),
            "--format", "json", "--concepts", "freely_initializable",
        ])
        assert rc == 0
        rows = json.loads(out.read_text())
        assert rows[0]["concept"] == "freely_initializable"
        assert rows[0]["frequency"] == "1"

    def test_validate(self, tmp_path, capsys):
        path = self.triple_file(
            tmp_path,
            {"E": [["1", "0", "0"], ["0", "1", "0"]],
             "A": [["0", "0", "1"], ["0", "0", "0"]],
             "B": [["1"], ["0"]]},
        )
        rc = main(["validate", "--input", path])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all cross-checks passed" in out
