"""Phase-1 prefix reuse across a two-phase threshold sweep.

A :class:`~repro.simulator.vector_kernels.Phase1Prefix` lets the cells of
a β / ``phase1_fraction`` sweep resume each replicate's phase 1 from the
pop where an earlier cell met its threshold.  The contract is that it
changes runtime only: every cell's results stay bit-identical to a
handle-less batch run and to the scalar oracle, in any cell order, with
any replicate chunking and with cache hits in between — and the handle
stays inert wherever it cannot apply.
"""

import random

import pytest

from repro.core.strategies.registry import make_strategy
from repro.experiments import figures, io
from repro.experiments.parallel import FixedPlatformSpec, ScenarioPlatformSpec, StrategySpec
from repro.experiments.runner import average_normalized_comm, collect_planned_cells
from repro.obs.sink import RecordingSink
from repro.platform import Platform, uniform_speeds
from repro.simulator import Phase1Prefix, simulate, simulate_batch
from repro.simulator import batch as batch_module
from repro.simulator.vector_kernels import Phase1Prefix as KernelPhase1Prefix
from repro.store.cache import ResultStore
from repro.utils.rng import spawn_rngs

CASES = [
    # (strategy, n, p, threshold keyword, grid)
    ("DynamicOuter2Phases", 12, 6, "beta", [0.0, 0.5, 1.0, 1.75, 2.5, 4.0, 8.0]),
    ("DynamicOuter2Phases", 12, 6, "phase1_fraction", [0.0, 0.3, 0.6, 0.9, 0.99, 1.0]),
    ("DynamicMatrix2Phases", 5, 5, "beta", [0.0, 0.5, 1.0, 2.0, 3.5, 6.0]),
    ("DynamicMatrix2Phases", 5, 5, "phase1_fraction", [0.0, 0.4, 0.8, 0.95, 1.0]),
]
ORDERS = ["ascending", "descending", "shuffled"]
REPS = 3


def _ordered(grid, order):
    # Ascending β / fraction means ever smaller thresholds.
    if order == "ascending":
        return list(grid)
    if order == "descending":
        return list(reversed(grid))
    shuffled = list(grid)
    random.Random(7).shuffle(shuffled)
    return shuffled


def _fingerprint(result):
    return (
        result.total_blocks,
        result.n_assignments,
        result.makespan,
        result.per_worker_blocks.tolist(),
        result.per_worker_tasks.tolist(),
    )


def _platform(p, seed=3):
    return Platform(uniform_speeds(p, 10, 100, rng=seed))


def _batch(name, n, platform, kwargs, seed, **extra):
    gens = spawn_rngs(seed, REPS)
    results = simulate_batch(
        lambda: make_strategy(name, n, **kwargs), [platform] * REPS, rngs=gens, **extra
    )
    return [_fingerprint(r) for r in results], [g.bit_generator.state for g in gens]


def _scalar(name, n, platform, kwargs, seed):
    gens = spawn_rngs(seed, REPS)
    results = [simulate(make_strategy(name, n, **kwargs), platform, rng=g) for g in gens]
    return [_fingerprint(r) for r in results], [g.bit_generator.state for g in gens]


class _ResumeSpy:
    """Counts snapshot lookups that let a replicate resume."""

    def __init__(self, monkeypatch):
        self.hits = 0
        original = KernelPhase1Prefix._resume

        def spy(handle, key, threshold):
            snap = original(handle, key, threshold)
            self.hits += snap is not None
            return snap

        monkeypatch.setattr(KernelPhase1Prefix, "_resume", spy)


class TestKernelEquivalence:
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("name,n,p,keyword,grid", CASES)
    def test_sweep_matches_handleless_and_scalar(self, name, n, p, keyword, grid, order):
        platform = _platform(p)
        prefix = Phase1Prefix()
        for value in _ordered(grid, order):
            kwargs = {keyword: value}
            got = _batch(name, n, platform, kwargs, 11, prefix=prefix)
            assert got == _batch(name, n, platform, kwargs, 11)
            assert got == _scalar(name, n, platform, kwargs, 11)

    @pytest.mark.parametrize("name,n,p,keyword,grid", CASES)
    def test_replicate_chunks_resume_exactly(self, name, n, p, keyword, grid):
        # A one-byte budget runs every replicate in its own kernel call.
        platform = _platform(p)
        prefix = Phase1Prefix()
        for value in _ordered(grid, "shuffled"):
            kwargs = {keyword: value}
            got = _batch(name, n, platform, kwargs, 5, prefix=prefix, memory_budget_bytes=1)
            assert got == _scalar(name, n, platform, kwargs, 5)

    def test_ascending_sweep_resumes_every_replicate(self, monkeypatch):
        spy = _ResumeSpy(monkeypatch)
        platform = _platform(6)
        prefix = Phase1Prefix()
        betas = [0.5, 1.0, 2.0, 3.0]
        for beta in betas:
            _batch("DynamicOuter2Phases", 12, platform, {"beta": beta}, 11, prefix=prefix)
        assert spy.hits == REPS * (len(betas) - 1)
        assert len(prefix) == REPS
        assert prefix.nbytes > 0

    def test_larger_threshold_starts_fresh(self, monkeypatch):
        spy = _ResumeSpy(monkeypatch)
        platform = _platform(6)
        prefix = Phase1Prefix()
        for beta in (3.0, 2.0, 1.0):
            _batch("DynamicOuter2Phases", 12, platform, {"beta": beta}, 11, prefix=prefix)
        assert spy.hits == 0

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 12},
            {"platform_seed": 4},
            {"n": 11},
            {"name": "DynamicMatrix2Phases", "n": 4},
        ],
    )
    def test_key_mismatch_starts_fresh(self, monkeypatch, change):
        spy = _ResumeSpy(monkeypatch)
        prefix = Phase1Prefix()
        _batch("DynamicOuter2Phases", 12, _platform(6), {"beta": 0.5}, 11, prefix=prefix)
        name = change.get("name", "DynamicOuter2Phases")
        n = change.get("n", 12)
        platform = _platform(6, seed=change.get("platform_seed", 3))
        seed = change.get("seed", 11)
        got = _batch(name, n, platform, {"beta": 2.0}, seed, prefix=prefix)
        assert spy.hits == 0
        assert got == _scalar(name, n, platform, {"beta": 2.0}, seed)

    def test_trace_and_dynamic_speeds_leave_handle_empty(self):
        prefix = Phase1Prefix()
        _batch(
            "DynamicOuter2Phases", 12, _platform(6), {"beta": 1.0}, 11,
            prefix=prefix, collect_trace=True,
        )
        _batch(
            "DynamicOuter2Phases", 12, _platform(6), {"beta": 1.0}, 11,
            prefix=prefix, sinks=[RecordingSink() for _ in range(REPS)],
        )
        assert len(prefix) == 0


class TestRunnerPlumbing:
    N, P = 12, 6

    def _factory(self):
        return FixedPlatformSpec(_platform(self.P).speeds)

    def _cell(self, beta, **kwargs):
        strategy = StrategySpec("DynamicOuter2Phases", self.N, beta=beta)
        return average_normalized_comm(strategy, self._factory(), self.N, REPS, seed=9, **kwargs)

    @pytest.mark.parametrize("order", ORDERS)
    def test_cached_cells_and_small_budget(self, tmp_path, monkeypatch, order):
        betas = [0.25, 0.75, 1.5, 2.5, 4.0]
        cached = ResultStore(str(tmp_path / "store"))
        for beta in betas[1::2]:
            self._cell(beta, cache=cached)
        monkeypatch.setattr(batch_module, "DEFAULT_MEMORY_BUDGET_BYTES", 1)
        prefix = Phase1Prefix()
        for beta in _ordered(betas, order):
            got = self._cell(beta, cache=cached, prefix=prefix)
            assert got == self._cell(beta)
            assert got == self._cell(beta, vectorize=False)

    def test_cache_hit_leaves_handle_untouched(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        self._cell(1.0, cache=store)
        prefix = Phase1Prefix()
        self._cell(1.0, cache=store, prefix=prefix)
        assert len(prefix) == 0

    def test_inert_where_it_cannot_apply(self):
        prefix = Phase1Prefix()
        self._cell(1.0, vectorize=False, prefix=prefix)
        self._cell(1.0, workers=2, prefix=prefix)
        self._cell(1.0, sink=RecordingSink(), prefix=prefix)
        with collect_planned_cells() as planned:
            self._cell(1.0, prefix=prefix)
        assert len(planned) == 1
        dynamic = ScenarioPlatformSpec("dyn.5", self.P)
        strategy = StrategySpec("DynamicOuter2Phases", self.N, beta=1.0)
        average_normalized_comm(strategy, dynamic, self.N, REPS, seed=9, prefix=prefix)
        assert len(prefix) == 0
        # The sweep's own cells still fill it.
        self._cell(1.0, prefix=prefix)
        assert len(prefix) == REPS


@pytest.mark.parametrize("figure_id", ["fig02", "fig06", "fig11"])
def test_ci_figures_unchanged_without_handle(monkeypatch, figure_id):
    with_handle = io.figure_to_rows(figures.generate(figure_id, scale="ci", seed=2014))
    monkeypatch.setattr(figures, "Phase1Prefix", lambda: None)
    without = io.figure_to_rows(figures.generate(figure_id, scale="ci", seed=2014))
    assert with_handle == without


def test_snapshot_bytes_per_replicate():
    # Matrix snapshot: the n^3 bitmap, (3, p, n) int64 unknown and order
    # buffers, (3, p) counts and the (p,) queue/accumulator rows.
    n, p = 4, 5
    platform = _platform(p)
    prefix = Phase1Prefix()
    _batch("DynamicMatrix2Phases", n, platform, {"beta": 1.0}, 11, prefix=prefix)
    expected = n**3 + 2 * 3 * p * n * 8 + 3 * p * 8 + 4 * p * 8 + 4 * 8 + 8
    assert prefix.nbytes == REPS * expected
