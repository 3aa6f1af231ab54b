"""Schema smoke test for s2bench (not collected by tier-1: its
``testpaths`` is ``tests``).  Run it with

    python3 -m pytest benchmarks/s2bench/test_smoke.py -q

``--smoke`` shrinks every workload to FatTree k=4 / DCN x1 and a
one-second loop; the four untraced runs finish in well under 30 s.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]
# Counts that depend only on the inputs.  Excluded: wall-clock-driven
# ones (telemetry frames, sample counts, wire bytes with heartbeats) and
# ``bdd.ops``, which on the DCN moves by ~0.1 % between identical runs
# even under a fixed hash seed (measured 87 522 / 87 554 / 87 631) — it
# is checked to 1 % instead, and a claim on it must allow for that.
EXACT_COUNTS = [
    m["name"] for m in CONTRACT["per_layer"]
    if m["unit"] in ("count", "bytes")
    and not m["name"].startswith(("obs.", "op.", "setup."))
    and m["name"] not in ("transport.wire_bytes", "bdd.ops")
]


def run(workload: str, tmp_path, *extra: str) -> dict:
    completed = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "__main__.py"),
            "--workload", workload, "--smoke", "--seed", "3",
            "--out-dir", str(tmp_path), *extra,
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def check_shape(result: dict, listed: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert UNIT.match(metric["unit"]) and metric["unit"] == units[name]
        assert isinstance(metric["value"], float), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_record(workload, tmp_path):
    result = run(workload, tmp_path, "--trace", "0")
    check_shape(result, CONTRACT["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, f"{name} must never be 0"
    with open(tmp_path / f"inputs_{workload}.json") as handle:
        assert json.load(handle)["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_record_and_exact_counts(workload, tmp_path):
    first = run(workload, tmp_path, "--trace", "1")
    check_shape(first, CONTRACT["per_layer"])
    assert first["correct"]
    with open(tmp_path / f"trace_{workload}.json") as handle:
        trace = json.load(handle)
    assert trace["spans"] and {"name", "start", "end", "parent", "op"} <= set(
        trace["spans"][0]
    )
    second = run(workload, tmp_path, "--trace", "1")
    for name in EXACT_COUNTS:
        assert (
            first["metrics"][name]["value"] == second["metrics"][name]["value"]
        ), f"{name} did not repeat exactly"
    ops = [r["metrics"]["bdd.ops"]["value"] for r in (first, second)]
    assert abs(ops[0] - ops[1]) <= 0.01 * max(ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_planted_wrong_verdict_is_caught(workload, tmp_path):
    result = run(workload, tmp_path, "--inject-wrong-verdict")
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_contract_limits():
    assert CONTRACT["paths"] == ["benchmarks/s2bench"]
    assert 1 <= CONTRACT["run_seconds"] <= 60
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in CONTRACT["end_to_end"]
    )
    names = [
        m["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for m in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 <= m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in CONTRACT["workloads"])
