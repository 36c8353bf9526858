"""Tests of the benchmark harness itself (not of the repro package).

Run with ``python3 -m pytest -q e2ebench/tests`` from the root of a
checkout.  The smoke tests run every workload at ``--scale ci``.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import compare
import layers
import run
from schedule import HOT_SET_SIZE, hot_set, make_schedule
from tracing import Span, covered, layer_self_times, self_times

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Wall-clock ceiling for one ci-scale smoke run on a 2-CPU host.
SMOKE_LIMIT_S = 90.0


# -- request schedule ----------------------------------------------------------


def test_schedule_is_deterministic_for_a_seed():
    assert make_schedule(7, 200) == make_schedule(7, 200)
    assert hot_set(7) == hot_set(7)


def test_schedule_changes_with_the_seed():
    assert make_schedule(7, 200) != make_schedule(8, 200)


def test_schedule_mix():
    schedule = make_schedule(3, 500)
    lanes = [r.lane for r in schedule]
    assert lanes.count("analytical") == 200
    assert lanes.count("hit") == 200
    assert lanes.count("miss") == 100
    hot = hot_set(3)
    assert len(hot) == HOT_SET_SIZE
    assert all(r.body in hot for r in schedule if r.lane == "hit")
    misses = [json.dumps(r.body, sort_keys=True) for r in schedule if r.lane == "miss"]
    assert not {json.dumps(b, sort_keys=True) for b in hot} & set(misses)


def test_misses_draw_each_kernel_regime_equally():
    from tracing import _family

    for seed in (11, 12):
        misses = [r.body["strategy"] for r in make_schedule(seed, 600) if r.lane == "miss"]
        counts = [sum(_family(m) == f for m in misses) for f in ("analytic", "lockstep", "two_phase")]
        assert max(counts) - min(counts) <= 1, counts


def test_schedule_bodies_parse():
    from repro.serve.protocol import AnalyticalQuery, CellSpec

    for request in make_schedule(5, 100):
        if request.lane == "analytical":
            AnalyticalQuery.parse(request.body)
        else:
            CellSpec.parse(request.body)


# -- metric names ------------------------------------------------------------------


def test_end_to_end_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS


def test_per_layer_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == layers.PER_LAYER_UNITS


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


# -- percentiles -------------------------------------------------------------------


def test_percentile_is_harrell_davis():
    assert layers.percentile([], 50) == 0.0
    assert layers.percentile([4.0], 90) == 4.0
    assert layers.percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)
    many = list(range(1, 1002))
    assert layers.percentile(many, 50) == pytest.approx(501.0)
    assert layers.percentile(many, 90) == pytest.approx(901.0, rel=1e-3)


# -- speed calibration -------------------------------------------------------------


def test_speed_probe_scales_to_the_reference():
    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    for _ in range(3):
        probe.tick()
    assert len(probe.samples) == 3
    assert probe.spent_cpu == pytest.approx(sum(probe.samples))
    assert probe.scale() == pytest.approx(REFERENCE_S / probe.median_s())
    probe.samples = [2 * REFERENCE_S, REFERENCE_S, 4 * REFERENCE_S]
    assert probe.scale() == pytest.approx(0.5)


# -- self-time arithmetic ----------------------------------------------------------


def _tree():
    # generate [0, 10] has children cell [1, 4] and cell [3, 6] (overlapping,
    # as spans from two threads can be) and write [8, 9]; cell [1, 4] has a
    # batch child [1.5, 3.5].
    return [
        Span(1, "experiments.generate", 0.0, 10.0, None, "r"),
        Span(2, "experiments.cell", 1.0, 4.0, 1, "r"),
        Span(3, "experiments.cell", 3.0, 6.0, 1, "r"),
        Span(4, "experiments.write_csv", 8.0, 9.0, 1, "r"),
        Span(5, "simulator.batch", 1.5, 3.5, 2, "r"),
    ]


def test_covered_merges_and_clips():
    assert covered([(1, 4), (3, 6), (8, 9)], 0, 10) == pytest.approx(6.0)
    assert covered([(-5, 2), (9, 20)], 0, 10) == pytest.approx(3.0)
    assert covered([], 0, 10) == 0.0


def test_self_times_on_a_synthetic_tree():
    own = self_times(_tree())
    assert own[1] == pytest.approx(10.0 - 6.0)  # union of [1,6] and [8,9]
    assert own[2] == pytest.approx(3.0 - 2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert own[5] == pytest.approx(2.0)


def test_layer_self_times_sum_per_layer():
    by_layer = layer_self_times(_tree())
    assert by_layer == {
        "experiments": pytest.approx(4.0 + 1.0 + 3.0 + 1.0),
        "simulator": pytest.approx(2.0),
    }


def test_layer_metrics_on_a_synthetic_tree():
    metrics = layers.layer_metrics(_tree_with_attrs(), traced_wall_s=12.0, untraced_wall_s=11.0)
    assert set(metrics) == set(layers.PER_LAYER_UNITS)
    assert metrics["experiments.cells"] == 2
    assert metrics["experiments.self_s"] == pytest.approx(4.0)
    assert metrics["simulator.lockstep_s"] == pytest.approx(2.0)
    assert metrics["simulator.replicates_per_call"] == 5
    assert metrics["trace.overhead_s"] == pytest.approx(1.0)
    # Spans beneath generate cover [1, 6] and [8, 9] of the 12 s traced.
    assert metrics["trace.coverage"] == pytest.approx(6.0 / 12.0)


def _tree_with_attrs():
    spans = _tree()
    spans[4].attrs = {"strategy": "DynamicOuter", "family": "lockstep", "dynamic_speed": False, "replicates": 5}
    return spans


# -- compare -----------------------------------------------------------------------


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.2]
    assert compare.verdict(steady, steady, 0.1, "lower") == "same"
    assert compare.verdict(steady, [v * 1.5 for v in steady], 0.1, "lower") == "worse"
    assert compare.verdict(steady, [v * 1.5 for v in steady], 0.1, "higher") == "better"
    noisy = [5.0, 10.0, 15.0, 20.0, 8.0]
    assert compare.verdict(steady, noisy, 0.1, "lower") == "unresolved"


# -- the command itself ------------------------------------------------------------


def _run(args, cwd=ROOT):
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "e2ebench" / "run.py"), *args],
        cwd=str(cwd),
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done, time.monotonic() - start


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_ci_smoke_run(workload, trace):
    done, elapsed = _run(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--scale", "ci"])
    assert done.returncode == 0, done.stdout + done.stderr
    assert elapsed < SMOKE_LIMIT_S
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    key = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f"{name} = " in done.stdout
    if trace == "1" and workload.startswith("figures"):
        assert result["metrics"]["simulator.scalar_calls"]["value"] == 0
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done, _ = _run(["--workload", "figures_matrix", "--seed", "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
