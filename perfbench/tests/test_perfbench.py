"""Self-tests of the benchmark, on workloads shrunk to a few graphs.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload to a handful of graphs and keep files in tmp."""
    monkeypatch.setattr(workloads, "LARGE_SPARSE", 2)
    monkeypatch.setattr(workloads, "LARGE_DENSE_N", (12,))
    monkeypatch.setattr(workloads, "SMALL_ACCEPTED_N", (6, 7))
    monkeypatch.setattr(workloads, "SMALL_REJECTED_N", (7,) * 9)  # three of each family
    monkeypatch.setattr(workloads, "MIXED_GRAPHS", 6)
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_IMPORTS", 2)


def run_bench(capsys, workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    assert run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.01", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    _, result = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_add_up_to_request_time(tiny, capsys, workload):
    _, result = run_bench(capsys, workload, 1)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    layer_sum = sum(metrics[name] for name in run.LAYER_TIMES)
    assert layer_sum == pytest.approx(metrics["trace.request_s"], rel=1e-9)
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0, rel=1e-9)


def test_counts_repeat_exactly_for_one_seed(tiny, capsys):
    counts = []
    for _ in range(2):
        _, result = run_bench(capsys, "certify-small", 1)
        counts.append({name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["spanning.trees"] > 0 and counts[0]["polynomials.arith_calls"] > 0


def corrupt_verdict(response: tuple[int | None, str]) -> tuple[int | None, str]:
    code, out = response
    report = json.loads(out)
    report["verdict"] = "corrupted"
    return code, json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_corrupted_verdict_counts_as_failed(tiny, capsys, monkeypatch):
    original = run.call_cli
    monkeypatch.setattr(run, "call_cli", lambda argv: corrupt_verdict(original(argv)))
    _, result = run_bench(capsys, "reject-mixed", 1)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["failed_frac"]["value"] == 1.0


def test_one_corrupted_response_fails_only_its_request(tiny):
    requests, _ = workloads.build("accept-large", 4, run.WORKDIR)
    target = requests[0].argv

    def call(argv):
        response = run.call_cli(argv)
        return corrupt_verdict(response) if argv == target else response

    responses = run.Responses(requests)
    loop = run.closed_loop(responses, 0.01, call)
    failures = responses.failures(loop.outcomes)
    assert len(failures) == loop.passes
    assert all("corrupted" in reason for reason in failures)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        first, digest = workloads.build(workload, 7, tmp_path / "a")
        again, same = workloads.build(workload, 7, tmp_path / "b")
        _, other = workloads.build(workload, 8, tmp_path / "c")
        assert digest == same != other
        assert [(r.command, r.graph) for r in first] == [(r.command, r.graph) for r in again]


def test_meta_records_what_was_measured(tiny, capsys):
    meta, _ = run_bench(capsys, "reject-mixed", 0)
    assert len(meta["input_sha256"]) == 64 and len(meta["source_sha256"]) == 64
    assert meta["nproc"] >= 1 and meta["python"]
    assert meta["samples"][0] == meta["passes"][0] * meta["requests_per_pass"]


def test_scaled_latencies_ignore_a_machine_slowed_alike():
    """A stretch where requests and calibrations both run slower leaves the
    scaled latencies unchanged; a slower program on the same machine moves
    them in proportion."""
    latencies = [[0.010, 0.020, 0.040, 0.080]] * 3
    calibrations = [[speed.REFERENCE_S] * 4] * 3
    base = run.Loop(latencies, calibrations)
    slowed = [[1.5 * x for x in row] for row in latencies]
    machine = run.Loop(slowed, [[1.5 * x for x in row] for row in calibrations])
    program = run.Loop(slowed, calibrations)
    assert base.request_latencies() == pytest.approx([0.010, 0.020, 0.040, 0.080])
    assert machine.request_latencies() == pytest.approx(base.request_latencies())
    assert machine.throughput == pytest.approx(base.throughput) == pytest.approx(4 / 0.150)
    assert program.throughput == pytest.approx(base.throughput / 1.5)


def test_calibration_is_fixed_work():
    assert speed.calibrate() == speed.calibrate()
    assert 0 < speed.timed_calibration() < 1


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "reject-mixed", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
