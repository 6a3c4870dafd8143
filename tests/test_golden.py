"""Byte-identity of `check` and `survey` output against recorded files.

The files in tests/golden/ were written by tests/golden/record_golden.py
before the concept verdicts were moved onto one shared analysis per
triple; any change in the bytes a user sees fails here.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import record_golden as record  # noqa: E402

FIXTURES = json.loads(record.FIXTURES.read_text())
CHECK_OUTPUTS = json.loads(record.CHECK_OUTPUTS.read_text())


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("variant", record.VARIANTS)
@pytest.mark.parametrize("fmt", record.CHECK_FORMATS)
def test_check_output(tmp_path, name, variant, fmt):
    path = tmp_path / "triple.json"
    path.write_text(json.dumps(FIXTURES[name]))
    code, text = record.check_output(path, variant, fmt)
    assert code == 0
    assert text == CHECK_OUTPUTS[record.check_key(name, variant, fmt)]


@pytest.mark.parametrize("variant", record.VARIANTS)
@pytest.mark.parametrize("fmt", record.SURVEY_FORMATS)
def test_survey_output(tmp_path, variant, fmt):
    code, text = record.survey_output(tmp_path / "survey", variant, fmt)
    assert code == 0
    assert text == record.survey_path(variant, fmt).read_text()
