"""The benchmark's own tests: smoke runs, error counting, trace identity.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def _smoke(workload, trace, *extra):
    out = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--size", "tiny", *extra)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.fixture
def in_process(monkeypatch):
    """Run the benchmark in this process (so a test can inject faults),
    restoring the environment and import path it changes."""
    monkeypatch.setattr(sys, "path", [str(ROOT / "src"), str(ROOT),
                                      *sys.path])
    saved = dict(os.environ)
    from perfbench import run

    def go(*args):
        return run.run(["--seed", "3", "--seconds", "0", "--size", "tiny",
                        *args])

    try:
        yield go
    finally:
        os.environ.clear()
        os.environ.update(saved)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    result, lines = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        assert f"{metric['name']} = " in "\n".join(lines)
    assert any(line.startswith("error_rate = 0 ") for line in lines)
    if not trace:
        for metric in BENCHMARK["end_to_end"]:
            if metric["name"] not in ("cpi_err_mean_pct", "cpi_err_max_pct"):
                assert result["metrics"][metric["name"]]["value"] > 0


def _wrong_fast_engine(monkeypatch):
    from repro.simulator import engine

    real = engine.run_fast

    def off_by_one(*args, **kwargs):
        result = real(*args, **kwargs)
        return dataclasses.replace(result, cycles=result.cycles + 1)

    monkeypatch.setattr(engine, "run_fast", off_by_one)


def _wrong_payload(monkeypatch):
    from repro.service.client import ServiceClient

    real = ServiceClient.request

    def skewed(self, op, params=None, timeout=None):
        response = real(self, op, params, timeout)
        if op == "model" and response.get("ok"):
            response["result"]["cpi"] *= 1.01
        return response

    monkeypatch.setattr(ServiceClient, "request", skewed)


@pytest.mark.parametrize("workload,inject", [
    ("validate_cold", _wrong_fast_engine),
    ("service_closed", _wrong_payload),
])
def test_injected_wrong_result_counts_in_error_rate(
        in_process, monkeypatch, capsys, workload, inject):
    inject(monkeypatch)
    result = in_process("--workload", workload, "--trace", "0")
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]
    out = capsys.readouterr().out
    rate = float(re.search(r"^error_rate = (\S+) ", out, re.M).group(1))
    assert rate > 0


def test_service_draws_more_misses_than_the_machine_grid_holds(
        in_process, monkeypatch, capsys):
    from perfbench import workloads

    # one machine: every miss of a benchmark after its first needs a new
    # epoch
    monkeypatch.setattr(workloads, "MISS_MACHINES",
                        workloads.MISS_MACHINES[:1])
    machines = list(itertools.islice(
        workloads.miss_machines(random.Random(1)), 9))
    assert len({json.dumps(m, sort_keys=True) for m in machines}) == 9
    result = in_process("--workload", "service_closed", "--trace", "0")
    assert result["correct"]
    out = capsys.readouterr().out
    misses = int(re.search(r" (\d+) misses in ", out).group(1))
    assert misses > 2 * len(workloads.MISS_MACHINES)  # two benchmarks


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_are_bit_identical(in_process, workload):
    plain = in_process("--workload", workload, "--trace", "0")
    traced = in_process("--workload", workload, "--trace", "1")
    assert plain["correct"] and traced["correct"]
    assert plain["digest"] == traced["digest"]


def test_cpi_error_matches_repro_compare(tmp_path):
    result, _ = _smoke("validate_cold", 0)
    env = {n: v for n, v in os.environ.items() if not n.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), REPRO_CACHE_DIR=str(tmp_path))
    compare = subprocess.run(
        [sys.executable, "-m", "repro", "compare", "gzip", "mcf",
         "--length", "2000"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=300, check=True)
    mean = float(re.search(r"mean \|error\| ([\d.]+)%",
                           compare.stdout).group(1))
    got = result["metrics"]["cpi_err_mean_pct"]["value"]
    assert got == pytest.approx(mean, abs=0.05)


def test_held_out_workload_seed_changes_the_validation_data():
    default, _ = _smoke("validate_cold", 0)
    held_out, _ = _smoke("validate_cold", 0, "--workload-seed", "12345")
    assert held_out["correct"]
    assert (held_out["metrics"]["cpi_err_mean_pct"]["value"]
            != default["metrics"]["cpi_err_mean_pct"]["value"])


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                   "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
