import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

SURVEY = Path(__file__).resolve().parents[1] / "scripts" / "stabilizer_survey.py"


@pytest.fixture
def survey(monkeypatch):
    spec = importlib.util.spec_from_file_location("stabilizer_survey", SURVEY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [str(SURVEY), "--count", "20"])
    return module


def test_stabilizer_survey_smoke(survey, capsys):
    assert survey.main() == 0
    out, err = capsys.readouterr()
    assert out.startswith("samples: 20  strict: ") and err == ""


def test_stabilizer_survey_counts_mismatches(survey, capsys, monkeypatch):
    real = survey.stabilizer_structure

    def with_extra_order(ws, strata):
        st = real(ws, strata)
        return replace(st, finite_orders=st.finite_orders + (97,))

    monkeypatch.setattr(survey, "stabilizer_structure", with_extra_order)
    assert survey.main() == 1
    lines = capsys.readouterr().err.splitlines()
    mismatches = [line for line in lines if line.startswith("mismatch: ")]
    assert len(mismatches) >= 3 * 20  # every stratum of every sample
    assert lines[-1] == f"{len(mismatches)} strata disagree with |c_i|"
