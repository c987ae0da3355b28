"""Self-test of the benchmark: every workload at reduced size emits every
metric with its unit and passes its output checks, BENCHMARK.json agrees with
the code, the tracer restores what it wraps, and a directory without the
program fails cleanly.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def results(request):
    out = {}
    for trace in (0, 1):
        proc = _bench("--workload", request.param, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return request.param, out


def test_every_metric_with_unit_and_checks_pass(results):
    _, out = results
    expected = {0: dict(run.END_TO_END), 1: {n: u for n, u, _ in tracer.PER_LAYER}}
    for trace, res in out.items():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert {n: m["unit"] for n, m in res["metrics"].items()} == expected[trace]
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    assert all(m["value"] > 0 for m in out[0]["metrics"].values())


def test_workload_exercises_its_layers(results):
    workload, out = results
    layer = {n: m["value"] for n, m in out[1]["metrics"].items()}
    assert layer["tracing.traced_wall_s"] > 0
    if workload == "presets-quick":
        for name in ("assignment.murty_iter.assignments", "detectors.iterative_sd_detect.calls",
                     "detectors.bb_detect.calls", "analysis.monte_carlo_ber.blocks.rc",
                     "cli.run_scenario.self_s", "scenarios.parse_scenario.s",
                     "channel.build_channel.s"):
            assert layer[name] > 0, name
        assert 0 < layer["detectors.iterative_sd_detect.member_hit_ratio"] <= 1
        assert layer["assignment.murty_iter.assignments"] >= (
            layer["detectors.iterative_sd_detect.calls"]
            * layer["detectors.iterative_sd_detect.iterations_mean"])
    elif workload == "coherent-m16":
        for name in ("detectors.ml.decode_s", "analysis.monte_carlo_ber.thread_speedup.ml",
                     "analysis.ber_union_bound.s.combined32-M16"):
            assert layer[name] > 0, name
        assert layer["assignment.murty_iter.assignments"] == 0
    else:
        # reduced design: L = 5 weights 1-4 and L = 6 weight 1
        assert layer["codebook.enumerate_weight_w.entries"] == 120 + 2040 + 2040 + 120 + 720
        for book in tracer.BOUND_BOOKS:
            for M in (1, 4):
                assert layer[f"analysis.ber_union_bound.s.{book}-M{M}"] > 0, (book, M)
        assert layer["analysis.monte_carlo_ber.blocks.ml"] == 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(t) for t in tracer.PER_LAYER]


def test_tracer_restores_every_attribute():
    targets = [t[:2] for t in tracer.TARGETS + tracer.GENERATOR_TARGETS]
    originals = {t: getattr(importlib.import_module(t[0]), t[1]) for t in targets}
    with pytest.raises(KeyError):
        with tracer.Tracer():
            for (mod, attr), fn in originals.items():
                assert getattr(importlib.import_module(mod), attr) is not fn
            raise KeyError("leave the block early")
    for (mod, attr), fn in originals.items():
        assert getattr(importlib.import_module(mod), attr) is fn


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_out"))
    proc = _bench("--workload", "design", cwd=tmp_path,
                  script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
