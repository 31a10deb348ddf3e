"""The benchmark's own tests (quick mode; a few seconds each).

    python3 -m pytest perfbench/test_perfbench.py -q

They check that every metric BENCHMARK.json names is emitted with its
unit, that corrupted outputs trip the correctness checks, and that the
schedules are pure functions of the seed.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import common
import schedule
import worker
from metrics import PER_LAYER
from run import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_quick(workload: str, seed: int = 3, trace: int = 0):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--quick"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(entry) for entry in PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    record, result = run_quick(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in section]
    for metric in section:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        # Quick runs release too little for a nonzero FNR to be certain.
        if not trace and metric["name"] != "fnr":
            assert reported["value"] > 0, metric["name"]
    assert record["environment"]["cpu_count"] >= 1
    assert len(record["calibration_ms"]) == 2
    assert record["samples"]["releases"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_the_work(workload):
    first, first_result = run_quick(workload, seed=5)
    second, second_result = run_quick(workload, seed=5)
    assert first["digest"] == second["digest"]
    assert first["samples"] == second["samples"]
    assert (
        first_result["metrics"]["eps_per_request"]
        == second_result["metrics"]["eps_per_request"]
    )


def test_schedules_are_pure_functions_of_the_seed():
    assert schedule.warm_schedule(7, 20) == schedule.warm_schedule(7, 20)
    assert schedule.warm_schedule(7, 20) != schedule.warm_schedule(8, 20)
    ingest = lambda seed: schedule.ingest_schedule(  # noqa: E731
        seed, 4, 1000, 10, (200, 150, 100)
    )
    assert ingest(7) == ingest(7) and ingest(7) != ingest(8)
    service = lambda seed: schedule.service_schedule(seed, 300, 8124)  # noqa
    assert service(7) == service(7) and service(7) != service(8)
    ops = [request["op"] for request in service(7)[:100]]
    mix = dict(schedule.SERVICE_MIX)
    assert ops.count("ingest") == mix["ingest"]
    assert ops.count("release") == mix["fresh"] + mix["dominated"]


class _Args:
    workload = "warm_release"
    seed = 4
    seconds = 1.0
    trace = 0
    quick = True
    setup_only = False


def _warm_outcome(monkeypatch, corrupt):
    """Run quick warm_release in this process with ``corrupt`` applied
    to every release result; returns the problems it reported."""
    from repro.engine.session import PrivBasisSession

    release = PrivBasisSession.release

    def corrupted(self, *args, **kwargs):
        return corrupt(release(self, *args, **kwargs))

    workload = worker.WarmRelease(_Args())
    workload.setup()
    monkeypatch.setattr(PrivBasisSession, "release", corrupted)
    workload.run()
    return workload.problems


def test_clean_outputs_pass(monkeypatch):
    assert _warm_outcome(monkeypatch, lambda result: result) == []


def test_a_dropped_itemset_is_caught(monkeypatch):
    def drop(result):
        result.itemsets = result.itemsets[:-1]
        return result

    assert any("wanted" in p for p in _warm_outcome(monkeypatch, drop))


def test_a_non_repeating_release_is_caught(monkeypatch):
    import dataclasses

    import numpy as np

    noise = np.random.default_rng()

    def jitter(result):
        first = result.itemsets[0]
        result.itemsets[0] = dataclasses.replace(
            first, noisy_frequency=first.noisy_frequency + noise.random()
        )
        return result

    problems = _warm_outcome(monkeypatch, jitter)
    assert any("did not repeat" in p for p in problems)


def test_release_checks_flag_bad_entries():
    entries = [((1, 2), 0.5), ((1, 2), 0.4), ((3, 1), 0.3), ((9,), math.nan)]
    problems = common.release_problems(entries, 5, 9)
    assert any("wanted 5" in p for p in problems)
    assert any("twice" in p for p in problems)
    assert any("sorted" in p for p in problems)
    assert any("vocabulary" in p for p in problems)


def test_a_charged_reuse_hit_is_caught():
    from service_mixed import ServiceMixed

    workload = ServiceMixed.__new__(ServiceMixed)
    workload.problems = []
    workload.base = type("Base", (), {"num_items": 200})()
    stored = {"a0": {(50, 0.5)}}
    charged = {"a0": 0.0}
    body = {
        "epsilon": 0.25,
        "snapshot_version": 0,
        "itemsets": [{"items": [i], "noisy_frequency": 0.1} for i in range(40)],
        "reuse": {"hit": True, "epsilon_charged": 0.25},
    }
    request = {"tenant": "a0", "k": 40, "epsilon": 0.25}
    workload._check_release(0, request, body, 0, stored, charged, [], [], [])
    assert any("charged 0.25" in p for p in workload.problems)
    body["reuse"] = {"hit": False}
    workload.problems = []
    workload._check_release(1, request, body, 0, stored, charged, [], [], [])
    assert any("dominance model" in p for p in workload.problems)


def test_run_refuses_without_the_program(tmp_path):
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in HERE.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm_release",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
