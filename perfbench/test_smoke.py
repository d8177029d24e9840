"""Smoke test of the benchmark itself, on a tiny op list.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that no op fails, and that two traced runs with one seed count the same work.
"""

import json
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

TINY = {
    "compare": {"compare/cp3-reduction/equiv": 1, "compare/local-model-4/flip": 1},
    "validate": {"validate/local-model-4": 1, "validate/f3/flip": 1},
    "reduce": {"reduce/simplex/search": 1, "reduce/cube3/conj": 1},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUPS", 2)
    for workload, kinds in TINY.items():
        monkeypatch.setitem(run.WORKLOADS, workload, dict(run.WORKLOADS[workload], kinds=kinds))
    return tmp_path


def bench(capsys, workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    info = next(json.loads(line) for line in lines if line.startswith('{"output_digest"'))
    return result, info


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_metrics(tiny, capsys, workload):
    result, info = bench(capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    again, info_again = bench(capsys, workload, 0)
    assert info_again["verdict_digest"] == info["verdict_digest"]
    assert info["provenance"]["seed"] == 3 and info["provenance"]["ops"] == 2


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat(tiny, capsys, workload):
    first, _ = bench(capsys, workload, 1)
    second, _ = bench(capsys, workload, 1)
    assert first["correct"] and first["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    exact = [k for k in want if k.endswith(".calls") or k in ("classify.gauges_tried", "io.bytes_read", "io.bytes_written", "trace.spans")]
    assert {k: first["metrics"][k]["value"] for k in exact} == {k: second["metrics"][k]["value"] for k in exact}
    assert first["metrics"]["trace.spans"]["value"] > 0
