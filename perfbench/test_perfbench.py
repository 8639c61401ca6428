"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _bench(*args: str) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    def digest(seed: int, name: str) -> str:
        (tmp_path / name).mkdir()
        return workloads.make_inputs(workload, seed, tmp_path / name)["input_sha256"]

    first = digest(3, "a")
    assert digest(3, "b") == first
    if workload != "pairs-local":  # its inputs all come from workloads.FIXED_STREAM
        assert digest(4, "c") != first


def test_same_seed_same_deterministic_metrics(tmp_path):
    """Quality metrics and method counts repeat exactly for one seed."""
    cli = run.import_dirmetric()
    manifest = workloads.make_inputs("pairs-local", 5, tmp_path)
    quick = {"interval-8-12", "two-arm-8-reversed", "open-book-3-4", "hollow-square-2-3", "near-0-n8", "near-1-n9"}
    ops = [op for op in manifest["ops"] if op["pair"] in quick]
    runner = run.Runner(cli, "pairs-local", tmp_path)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        outcomes = []
        for _ in range(2):
            tracer = tracing.Tracer()
            recs = runner.run_pass(ops, tracer)
            assert all(not r["problems"] for r in recs)
            outcomes.append((run.quality(ops, recs), tracer.counts, [r["sha256"] for r in recs]))
    finally:
        os.chdir(cwd)
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]["distances.gh.calls"] == len(ops) // 3


def test_printed_metrics_match_benchmark_json():
    spec = _spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _bench("--workload", "pairs-exact", "--seed", "1", "--seconds", "1", "--trace", str(trace))
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_json_is_well_formed():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in spec["workloads"])
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert {name: m["unit"] for name, m in e2e.items()} == run.E2E_UNITS
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 and m["better"] in ("lower", "higher") for m in e2e.values())


def test_fails_without_a_program(tmp_path):
    """In a directory with only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_children():
    T = tracing.Tracer()
    T.spans = [
        {"op": 0, "name": "op", "parent": None, "start": 0.0, "end": 10.0},
        {"op": 0, "name": "fileio.load", "parent": 0, "start": 1.0, "end": 3.0},
        {"op": 0, "name": "verify.square_identity", "parent": 0, "start": 3.0, "end": 9.0},
        {"op": 0, "name": "spaces.zigzag", "parent": 2, "start": 4.0, "end": 8.0},
    ]
    m = tracing.pass_metrics(T)
    assert m["cli.glue_s"] == 2.0
    assert m["fileio.self_s"] == 2.0
    assert m["verify.self_s"] == 2.0 and m["verify.square_identity_s"] == 6.0
    assert m["spaces.self_s"] == 4.0
    assert m["trace.coverage"] == 0.8
