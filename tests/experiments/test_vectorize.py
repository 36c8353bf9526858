"""Vectorized-engine wiring through the runner, parallel and bench layers.

The engine-level equivalence lives in ``tests/simulator/test_batch.py``;
here we pin the plumbing: ``vectorize`` mode resolution, bit-identical
summaries/snapshots across engine selections, cache coherence across
modes, the per-worker chunking default, warm-pool reuse, and the bench
suite's scaling workloads and derived metrics, and the small-batch rule
that sends lockstep batches of few replicates to the scalar loop.
"""

import numpy as np
import pytest

import repro.experiments.parallel as parallel_module
import repro.experiments.runner as runner_module
from repro.experiments.bench import _derive_metrics, _engine_params, build_suite
from repro.experiments.figures import _engine_meta, fig06
from repro.experiments.parallel import (
    FixedPlatformSpec,
    RepJob,
    ScenarioPlatformSpec,
    StrategySpec,
    UniformPlatformSpec,
    _chunk_indices,
    parallel_average_normalized_comm,
    shutdown_pool,
)
from repro.experiments.runner import average_normalized_comm, resolve_vectorize
from repro.obs.sink import RecordingSink
from repro.platform.speeds import DynamicSpeedModel, StaticSpeedModel
from repro.simulator.batch import LOCKSTEP_MIN_REPLICATES, steps_in_lockstep
from repro.simulator.vector_kernels import Phase1Prefix, kernel_for
from repro.store.cache import ResultStore
from repro.utils.rng import spawn_seed_sequences


@pytest.fixture
def cell():
    return StrategySpec("RandomMatrix", 6), UniformPlatformSpec(10)


class TestRunnerVectorize:
    def test_modes_bit_identical(self, cell):
        strategy, platform = cell
        scalar = average_normalized_comm(strategy, platform, 6, 5, seed=2, vectorize=False)
        vector = average_normalized_comm(strategy, platform, 6, 5, seed=2, vectorize=True)
        auto = average_normalized_comm(strategy, platform, 6, 5, seed=2)
        assert scalar == vector == auto

    def test_sink_snapshots_bit_identical(self, cell):
        strategy, platform = cell
        scalar_sink, vector_sink = RecordingSink(), RecordingSink()
        average_normalized_comm(
            strategy, platform, 6, 4, seed=3, vectorize=False, sink=scalar_sink
        )
        average_normalized_comm(
            strategy, platform, 6, 4, seed=3, vectorize=True, sink=vector_sink
        )
        assert scalar_sink.snapshot() == vector_sink.snapshot()

    def test_auto_falls_back_for_fast_path_ineligible_strategy(self, cell):
        # collect_ids needs per-task id lists the kernels do not build, so
        # "auto" must transparently run the scalar loop.
        _, platform = cell
        strategy = StrategySpec("RandomOuter", 6, collect_ids=True)
        scalar = average_normalized_comm(strategy, platform, 6, 3, seed=1, vectorize=False)
        auto = average_normalized_comm(strategy, platform, 6, 3, seed=1)
        assert scalar == auto

    def test_true_requires_the_fast_path(self, cell):
        _, platform = cell
        with pytest.raises(ValueError, match="no vector kernel"):
            average_normalized_comm(
                StrategySpec("RandomOuter", 6, collect_ids=True),
                platform,
                6,
                3,
                vectorize=True,
            )

    def test_invalid_mode_rejected(self, cell):
        strategy, platform = cell
        with pytest.raises(ValueError, match="vectorize"):
            average_normalized_comm(strategy, platform, 6, 3, vectorize="yes")

    def test_cache_coherent_across_modes(self, cell, tmp_path):
        strategy, platform = cell
        store = ResultStore(str(tmp_path))
        scalar = average_normalized_comm(
            strategy, platform, 6, 4, seed=5, vectorize=False, cache=store
        )
        hit = average_normalized_comm(
            strategy, platform, 6, 4, seed=5, vectorize=True, cache=store
        )
        assert scalar == hit
        assert store.counts.hits == 1


#: Cells that step in lockstep: the four Dynamic* strategies on static
#: speeds, and the analytic RandomOuter/SortedOuter under dyn.* models.
LOCKSTEP_CELLS = [
    (StrategySpec("DynamicOuter", 8), UniformPlatformSpec(5), 8),
    (StrategySpec("DynamicMatrix", 4), UniformPlatformSpec(5), 4),
    (StrategySpec("DynamicOuter2Phases", 8), UniformPlatformSpec(5), 8),
    (StrategySpec("DynamicMatrix2Phases", 4), UniformPlatformSpec(5), 4),
    (StrategySpec("RandomOuter", 8), ScenarioPlatformSpec("dyn.5", 5), 8),
    (StrategySpec("RandomOuter", 8), ScenarioPlatformSpec("dyn.20", 5), 8),
    (StrategySpec("SortedOuter", 8), ScenarioPlatformSpec("dyn.5", 5), 8),
    (StrategySpec("SortedOuter", 8), ScenarioPlatformSpec("dyn.20", 5), 8),
]
CELL_IDS = [f"{s.name}-{getattr(pl, 'scenario', 'unif')}" for s, pl, _ in LOCKSTEP_CELLS]
REPS = (1, 5, 15, 16, 20)


@pytest.fixture
def engine_calls(monkeypatch):
    """Count kernel runs and scalar runs the runner makes, by kind."""
    calls = {"kernel": 0, "scalar": 0}
    for kernel_type in {type(kernel_for(strategy())) for strategy, _, _ in LOCKSTEP_CELLS}:

        def counted_run(self, prototype, ctx, _real=kernel_type.run):
            calls["kernel"] += 1
            return _real(self, prototype, ctx)

        monkeypatch.setattr(kernel_type, "run", counted_run)
    real_simulate = runner_module.simulate

    def counted_simulate(*args, **kwargs):
        calls["scalar"] += 1
        return real_simulate(*args, **kwargs)

    monkeypatch.setattr(runner_module, "simulate", counted_simulate)
    return calls


class TestSmallBatchRule:
    def test_replicate_counts_straddle_the_constant(self):
        # The coverage below must exercise both sides of the rule.
        assert min(REPS) < LOCKSTEP_MIN_REPLICATES <= max(REPS)
        assert LOCKSTEP_MIN_REPLICATES in REPS

    def test_steps_in_lockstep(self):
        for name in ("DynamicOuter", "DynamicMatrix", "DynamicOuter2Phases", "DynamicMatrix2Phases"):
            assert steps_in_lockstep(StrategySpec(name, 6)())
        for name in ("RandomOuter", "SortedMatrix", "MapReduceOuter"):
            strategy = StrategySpec(name, 6)()
            assert not steps_in_lockstep(strategy)
            assert not steps_in_lockstep(strategy, [None, StaticSpeedModel()])
            assert steps_in_lockstep(strategy, [None, DynamicSpeedModel(0.05)])
        # No kernel, no lockstep: the batch engine falls back on its own.
        assert not steps_in_lockstep(StrategySpec("RandomOuter", 6, collect_ids=True)())

    @pytest.mark.parametrize("reps", REPS)
    @pytest.mark.parametrize("cell", LOCKSTEP_CELLS, ids=CELL_IDS)
    def test_modes_bit_identical(self, cell, reps):
        strategy, platform, n = cell
        results = []
        for vectorize in (False, True, "auto"):
            sink = RecordingSink()
            summary = average_normalized_comm(
                strategy, platform, n, reps, seed=11, vectorize=vectorize, sink=sink
            )
            results.append((summary, sink.snapshot()))
        assert results[0] == results[1] == results[2]

    @pytest.mark.parametrize("reps", REPS)
    @pytest.mark.parametrize("cell", LOCKSTEP_CELLS, ids=CELL_IDS)
    def test_auto_routes_by_replicate_count(self, cell, reps, engine_calls):
        strategy, platform, n = cell
        average_normalized_comm(strategy, platform, n, reps, seed=3)
        if reps < LOCKSTEP_MIN_REPLICATES:
            assert engine_calls == {"kernel": 0, "scalar": reps}
        else:
            assert engine_calls["kernel"] >= 1
            assert engine_calls["scalar"] == 0

    @pytest.mark.parametrize("cell", LOCKSTEP_CELLS, ids=CELL_IDS)
    def test_true_runs_the_kernel_at_one_replicate(self, cell, engine_calls):
        strategy, platform, n = cell
        average_normalized_comm(strategy, platform, n, 1, seed=3, vectorize=True)
        assert engine_calls == {"kernel": 1, "scalar": 0}

    def test_static_analytic_batches_keep_the_kernel(self, cell, engine_calls):
        strategy, platform = cell
        average_normalized_comm(strategy, platform, 6, 1, seed=3)
        assert engine_calls == {"kernel": 1, "scalar": 0}

    def test_prefix_sweep_keeps_the_kernel(self, engine_calls):
        # A β sweep with a Phase1Prefix handle stays on the kernel at R=5
        # and still saves snapshots for the next cell to resume from.
        speeds = np.linspace(10.0, 100.0, 5)
        prefix = Phase1Prefix()
        betas = (1.0, 2.0, 3.0)
        with_prefix = [
            average_normalized_comm(
                StrategySpec("DynamicOuter2Phases", 8, beta=beta),
                FixedPlatformSpec(speeds),
                8,
                5,
                seed=4,
                prefix=prefix,
            )
            for beta in betas
        ]
        assert len(prefix) == 5
        assert engine_calls == {"kernel": len(betas), "scalar": 0}
        scalar = [
            average_normalized_comm(
                StrategySpec("DynamicOuter2Phases", 8, beta=beta),
                FixedPlatformSpec(speeds),
                8,
                5,
                seed=4,
                vectorize=False,
            )
            for beta in betas
        ]
        assert with_prefix == scalar

    @pytest.mark.parametrize("reps", (5, 20))
    @pytest.mark.parametrize("cell", LOCKSTEP_CELLS[::3], ids=CELL_IDS[::3])
    def test_parallel_matches_serial(self, cell, reps):
        strategy, platform, n = cell
        sink_serial, sink_parallel = RecordingSink(), RecordingSink()
        serial = average_normalized_comm(strategy, platform, n, reps, seed=6, sink=sink_serial)
        try:
            par = parallel_average_normalized_comm(
                strategy, platform, n, reps, seed=6, workers=2, sink=sink_parallel
            )
        finally:
            shutdown_pool()
        assert serial == par
        assert sink_serial.snapshot() == sink_parallel.snapshot()

    def test_parallel_chunks_apply_the_rule(self, engine_calls):
        strategy, platform, n = LOCKSTEP_CELLS[0]
        seeds = spawn_seed_sequences(0, LOCKSTEP_MIN_REPLICATES)
        auto = RepJob(strategy, platform, n, seeds, vectorize="auto")
        forced = RepJob(strategy, platform, n, seeds, vectorize=True)
        chunk = list(range(LOCKSTEP_MIN_REPLICATES - 1))
        assert auto.run(chunk) == forced.run(chunk)
        assert engine_calls == {"kernel": 1, "scalar": len(chunk)}
        auto.run(list(range(LOCKSTEP_MIN_REPLICATES)))
        assert engine_calls["kernel"] == 2

    def test_routed_cell_is_a_cache_hit_under_true(self, tmp_path, engine_calls):
        strategy, platform, n = LOCKSTEP_CELLS[0]
        store = ResultStore(str(tmp_path))
        routed = average_normalized_comm(strategy, platform, n, 5, seed=8, cache=store)
        assert engine_calls == {"kernel": 0, "scalar": 5}
        hit = average_normalized_comm(
            strategy, platform, n, 5, seed=8, vectorize=True, cache=store
        )
        assert hit == routed
        assert store.counts.hits == 1
        assert engine_calls == {"kernel": 0, "scalar": 5}


class TestSmallBatchLabels:
    def test_resolve_vectorize_reason(self):
        spec = StrategySpec("DynamicOuter", 6)
        below, at = LOCKSTEP_MIN_REPLICATES - 1, LOCKSTEP_MIN_REPLICATES
        assert resolve_vectorize("auto", spec) == (True, None)
        assert resolve_vectorize("auto", spec, below) == (False, "small-batch")
        assert resolve_vectorize("auto", spec, at) == (True, None)
        assert resolve_vectorize(True, spec, 1) == (True, None)
        assert resolve_vectorize(False, spec, 1) == (False, "forced")
        assert resolve_vectorize("auto", spec, below, prefix=Phase1Prefix()) == (True, None)
        random_outer = StrategySpec("RandomOuter", 6)
        assert resolve_vectorize("auto", random_outer, 1) == (True, None)
        dynamic = [DynamicSpeedModel(0.05)]
        assert resolve_vectorize("auto", random_outer, 1, speed_models=dynamic) == (
            False,
            "small-batch",
        )

    def test_figure_engine_meta(self):
        meta = _engine_meta(("RandomOuter", "DynamicOuter"), 6, 5)
        assert meta == {"RandomOuter": "vectorized", "DynamicOuter": "scalar (small-batch)"}
        meta = _engine_meta(("DynamicOuter2Phases",), 6, 5, prefixed=("DynamicOuter2Phases",))
        assert meta == {"DynamicOuter2Phases": "vectorized"}
        meta = _engine_meta(("RandomOuter",), 6, 5, dynamic_speeds=True)
        assert meta == {"RandomOuter": "vectorized; dyn.*: scalar (small-batch)"}
        assert fig06("ci").meta["engine"] == {
            "DynamicOuter2Phases": "vectorized",
            "DynamicOuter": "scalar (small-batch)",
        }

    def test_bench_engine_params(self):
        spec = StrategySpec("DynamicMatrix2Phases", 6)
        assert _engine_params(spec, "auto", 4) == {
            "engine": "scalar",
            "vectorize_fallback": "small-batch",
        }
        assert _engine_params(spec, "auto", 64) == {"engine": "vectorized"}
        assert _engine_params(spec, True, 1) == {"engine": "vectorized"}


class TestParallelVectorize:
    def test_job_run_respects_index_order_when_vectorized(self, cell):
        strategy, platform = cell
        job = RepJob(
            strategy, platform, 6, spawn_seed_sequences(0, 4), vectorize=True
        )
        forward = job.run([0, 1, 2, 3])
        assert job.run([3, 2, 1, 0]) == forward[::-1]
        scalar_job = RepJob(
            strategy, platform, 6, spawn_seed_sequences(0, 4), vectorize=False
        )
        assert scalar_job.run([0, 1, 2, 3]) == forward

    def test_parallel_matches_serial_with_vectorize(self, cell):
        strategy, platform = cell
        serial = average_normalized_comm(strategy, platform, 6, 5, seed=4, vectorize=False)
        par = parallel_average_normalized_comm(
            strategy, platform, 6, 5, seed=4, workers=2, vectorize="auto"
        )
        assert serial == par

    def test_warm_pool_is_reused_across_calls(self, cell):
        strategy, platform = cell
        try:
            parallel_average_normalized_comm(strategy, platform, 6, 4, seed=1, workers=2)
            first = parallel_module._POOL
            parallel_average_normalized_comm(strategy, platform, 6, 4, seed=2, workers=2)
            assert parallel_module._POOL is first
            assert first is not None
        finally:
            shutdown_pool()
        assert parallel_module._POOL is None

    def test_default_chunking_is_one_chunk_per_worker(self):
        assert _chunk_indices(10, 3, None) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert _chunk_indices(8, 4, None) == [[0, 1], [2, 3], [4, 5], [6, 7]]
        assert _chunk_indices(3, 8, None) == [[0], [1], [2]]


class TestBenchScaling:
    def test_scaling_suite_shape(self):
        names = [wl.name for wl in build_suite("scaling")]
        for reps in (1, 4, 16, 64):
            for engine in ("serial", "vectorized", "parallel4"):
                assert f"scaling_reps{reps:02d}_{engine}" in names
        for prefix in ("lockstep_outer", "lockstep_matrix2p"):
            for reps in (1, 4, 16, 64):
                for engine in ("serial", "vectorized"):
                    assert f"{prefix}_reps{reps:02d}_{engine}" in names
        assert "twophase_beta_sweep_serial" in names
        assert "twophase_beta_sweep_vectorized" in names
        assert len(names) == 30

    def test_scaling_suite_records_engine_params(self):
        by_name = {wl.name: wl for wl in build_suite("scaling")}
        assert by_name["scaling_reps04_vectorized"].params["engine"] == "vectorized"
        for reps in (1, 4, 16, 64):
            # parallel4 measures processes alone: the scalar engine in 4 workers.
            par = by_name[f"scaling_reps{reps:02d}_parallel4"].params
            assert (par["workers"], par["vectorize"], par["engine"]) == (4, False, "scalar")
            assert par["vectorize_fallback"] == "forced"
        assert by_name["twophase_beta_sweep_vectorized"].params["engine"] == "vectorized"
        serial = by_name["twophase_beta_sweep_serial"].params
        assert serial["engine"] == "scalar"
        assert serial["vectorize_fallback"] == "forced"

    def test_derive_metrics_two_phase_beta_sweep_speedup(self):
        entries = {
            "twophase_beta_sweep_serial": self._entry(6.0),
            "twophase_beta_sweep_vectorized": self._entry(1.0),
        }
        derived = _derive_metrics(entries, cpu_count=4)
        assert derived["twophase_beta_sweep_speedup"] == 6.0

    def test_quick_suite_has_vectorized_workload(self):
        names = [wl.name for wl in build_suite("quick")]
        assert "replicate_sweep_vectorized" in names

    @staticmethod
    def _entry(median):
        return {"seconds": {"median": median}}

    def test_derive_metrics_speedups(self):
        entries = {
            "replicate_sweep_serial": self._entry(4.0),
            "replicate_sweep_parallel4": self._entry(2.0),
            "replicate_sweep_vectorized": self._entry(0.5),
        }
        derived = _derive_metrics(entries, cpu_count=4)
        assert derived["replicate_sweep_speedup"] == 2.0
        assert derived["parallel_speedup_ok"] is True
        assert derived["replicate_sweep_vectorized_speedup"] == 8.0

    def test_derive_metrics_flags_parallel_loss_on_multicore(self):
        entries = {
            "replicate_sweep_serial": self._entry(2.0),
            "replicate_sweep_parallel4": self._entry(4.0),
        }
        assert _derive_metrics(entries, cpu_count=4)["parallel_speedup_ok"] is False
        # A single-CPU machine cannot measure parallelism: say so.
        assert _derive_metrics(entries, cpu_count=1)["parallel_speedup_ok"] == "unmeasured"
        assert _derive_metrics(entries, cpu_count=None)["parallel_speedup_ok"] == "unmeasured"

    def test_derive_metrics_scaling_curve(self):
        entries = {}
        for reps in (1, 4, 16, 64):
            entries[f"scaling_reps{reps:02d}_serial"] = self._entry(1.0 * reps)
            entries[f"scaling_reps{reps:02d}_vectorized"] = self._entry(0.2 * reps)
            entries[f"scaling_reps{reps:02d}_parallel4"] = self._entry(0.5 * reps)
        curve = _derive_metrics(entries, cpu_count=4)["scaling_curve"]
        assert [row["reps"] for row in curve] == [1, 4, 16, 64]
        for row in curve:
            assert row["vectorized_speedup"] == pytest.approx(5.0)
            assert row["parallel_speedup"] == pytest.approx(2.0)

    def test_derive_metrics_empty(self):
        assert _derive_metrics({}, cpu_count=4) == {}
