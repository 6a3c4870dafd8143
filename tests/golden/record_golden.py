"""Record the golden outputs that tests/test_golden.py compares against.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python tests/golden/record_golden.py

It rewrites check_outputs.json (the stdout of `daectrl check` for every
fixture in fixtures.json, both strong variants, both formats) and the four
grid-3 survey files survey_<variant>.<format>. Re-record only for an
intended output change, and say so in CHANGES.md.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from daectrl import cli
from daectrl.criteria import Concept

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures.json"
CHECK_OUTPUTS = HERE / "check_outputs.json"
VARIANTS = ("as-written", "with-e")
CHECK_FORMATS = ("json", "text")
SURVEY_FORMATS = ("csv", "json")
# Every concept, ODE included, so the l != n skip is covered too.
CONCEPTS = ",".join(c.value for c in Concept)
SURVEY_ARGS = ["--lmax", "3", "--nmax", "3", "--mmax", "3",
               "--trials", "5", "--seed", "42"]


def run_cli(argv):
    """(exit code, stdout) of one in-process `daectrl` call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_key(name, variant, fmt):
    return f"{name} {variant} {fmt}"


def check_output(triple_path, variant, fmt):
    return run_cli(["check", "--input", str(triple_path), "--concepts", CONCEPTS,
                    "--strong-variant", variant, "--format", fmt])


def survey_path(variant, fmt):
    return HERE / f"survey_{variant}.{fmt}"


def survey_output(out_path, variant, fmt):
    code, _ = run_cli(["survey", *SURVEY_ARGS, "--strong-variant", variant,
                       "--format", fmt, "--out", str(out_path)])
    return code, Path(out_path).read_text()


def main():
    fixtures = json.loads(FIXTURES.read_text())
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, triple in fixtures.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(triple))
            for variant in VARIANTS:
                for fmt in CHECK_FORMATS:
                    code, text = check_output(path, variant, fmt)
                    if code != 0:
                        print(f"check {name} exited {code}", file=sys.stderr)
                        return 1
                    outputs[check_key(name, variant, fmt)] = text
        for variant in VARIANTS:
            for fmt in SURVEY_FORMATS:
                code, text = survey_output(Path(tmp) / "survey", variant, fmt)
                if code != 0:
                    print(f"survey exited {code}", file=sys.stderr)
                    return 1
                survey_path(variant, fmt).write_text(text)
    CHECK_OUTPUTS.write_text(json.dumps(outputs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
