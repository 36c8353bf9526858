"""Vectorized multi-replicate engine: R runs of one cell in lockstep.

:func:`simulate_batch` runs R replicates of the same (strategy
configuration, platform) cell and returns one
:class:`~repro.simulator.results.SimulationResult` per replicate —
**bit-identical** to R separate :func:`repro.simulator.simulate` calls
with the same generators.  When the strategy's exact type has a vector
kernel (see :mod:`repro.simulator.vector_kernels`), the replicates
advance together over (R, p) / (R, n, ·) numpy arrays; otherwise each
replicate transparently falls back to the scalar engine.
:func:`fallback_reason` names the first reason a batch cannot take the
fast path (``None`` when it can), and sweep runners record it so a
silent scalar fallback is visible in bench/report output.

Dynamic speed models no longer force the fallback: kernels replay
``model.duration`` per event on the replicate's own stream (see
:func:`~repro.simulator.vector_kernels._event_durations`), so ``dyn.*``
heterogeneity sweeps vectorize too.  Only strategy subclasses without a
kernel, per-task id collection, mixed worker counts, or custom/shared
model instances still drop to the scalar loop.

A batch that steps in lockstep (:func:`steps_in_lockstep`) is slower
than R scalar runs below :data:`LOCKSTEP_MIN_REPLICATES` replicates.
:func:`simulate_batch` still runs the kernel when called; the sweep
runner's ``vectorize="auto"`` sends such batches to the scalar loop.

Large batches are sliced along the replicate axis: each kernel reports a
per-replicate working-set estimate and :func:`simulate_batch` runs
``ceil(R / chunk)`` kernel invocations whose state fits
*memory_budget_bytes* (default 256 MiB).  Chunking is invisible in the
results — replicates never interact, so slicing the batch is exact, not
approximate.

The scalar engine stays the oracle: nothing here changes simulation
semantics, RNG consumption or float operand order, which is what keeps
store cache entries, pinned fingerprints and recorded experiments valid
across the two code paths.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Set, Type, Union

import numpy as np

from repro.core.strategies.base import Strategy
from repro.obs.sink import MetricsSink
from repro.platform.platform import Platform
from repro.platform.speeds import DynamicSpeedModel, SpeedModel, StaticSpeedModel
from repro.simulator.engine import simulate
from repro.simulator.results import SimulationResult
from repro.simulator.trace import AssignmentRecord, Trace
from repro.simulator.vector_kernels import BatchContext, KernelRun, Phase1Prefix, kernel_for
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "DEFAULT_MEMORY_BUDGET_BYTES",
    "LOCKSTEP_MIN_REPLICATES",
    "fallback_reason",
    "has_vector_kernel",
    "simulate_batch",
    "steps_in_lockstep",
]

#: Default ceiling on kernel working-set bytes per batch; replicate
#: chunks are sized so paper-scale (R, n, n, n) bitmaps stay in RAM.
DEFAULT_MEMORY_BUDGET_BYTES = 256 * 1024 * 1024

#: Replicate count from which ``vectorize="auto"`` in
#: :mod:`repro.experiments.runner` runs a batch that steps in lockstep
#: (:func:`steps_in_lockstep`) on its kernel; smaller batches run the
#: scalar loop.  Below the crossover each lockstep step pays numpy
#: dispatch for only a handful of rows, and R scalar runs are faster.
#: Measured by the DynamicOuter and DynamicMatrix2Phases rows of the
#: ``repro-bench --suite scaling`` record
#: ``results/BENCH_20261018T024005Z.json`` (2-CPU host): the kernel ran at
#: 0.10x / 0.29x / 0.90x / 1.84x the scalar loop's speed at R = 1 / 4 /
#: 16 / 64 on DynamicOuter (n=100, p=100), and 0.21x / 0.64x / 1.75x /
#: 2.35x on DynamicMatrix2Phases (n=40, p=100).  The two crossovers lie
#: on either side of 16.
LOCKSTEP_MIN_REPLICATES = 16


def has_vector_kernel(strategy: Union[Strategy, Type[Strategy]]) -> bool:
    """True when *strategy*'s exact type has a vectorized batch kernel."""
    return kernel_for(strategy) is not None


def steps_in_lockstep(
    strategy: Union[Strategy, Type[Strategy]],
    speed_models: Optional[Sequence[Optional[SpeedModel]]] = None,
) -> bool:
    """Whether a batch of *strategy* advances one event per kernel step.

    True for the Dynamic* and two-phase kernels under any speed model,
    and for every kernel when some replicate has a
    :class:`~repro.platform.speeds.DynamicSpeedModel`, whose per-event
    draws make the schedule history-dependent.  False for the analytic
    kernels under static speeds, and for strategies without a kernel.
    """
    kernel = kernel_for(strategy)
    if kernel is None:
        return False
    return kernel.lockstep or any(
        isinstance(model, DynamicSpeedModel) for model in speed_models or ()
    )


def fallback_reason(
    strategy: Union[Strategy, Type[Strategy]],
    platforms: Optional[Sequence[Platform]] = None,
    speed_models: Optional[Sequence[Optional[SpeedModel]]] = None,
) -> Optional[str]:
    """Why a batch of *strategy* would fall back to the scalar engine.

    Returns ``None`` when the vectorized fast path applies, else the
    first blocking reason:

    ``"no-kernel"``
        The exact strategy type has no vector kernel (e.g. a user
        subclass — the registry never matches subclasses, since they may
        change semantics).
    ``"collect-ids"``
        Per-task id collection is a scalar-trace feature.
    ``"mixed-p"``
        Replicate platforms disagree on the worker count, so (R, p)
        state has no common shape.
    ``"custom-speed-model"``
        A speed model other than the static/dynamic library models; only
        those two have kernel-side replay contracts.
    ``"shared-speed-model"``
        One dynamic model instance serving several replicates — its
        internal state would interleave streams, which only sequential
        scalar runs order correctly.

    Sweep metadata records this string so ``vectorize="auto"`` fallbacks
    are visible rather than silent.
    """
    if kernel_for(strategy) is None:
        return "no-kernel"
    collect_ids = strategy.collect_ids if isinstance(strategy, Strategy) else False
    if collect_ids:
        return "collect-ids"
    if platforms is not None:
        if not platforms:
            return "mixed-p"
        p0 = platforms[0].p
        if any(pl.p != p0 for pl in platforms):
            return "mixed-p"
    if speed_models is not None:
        seen_dynamic: Set[int] = set()
        for model in speed_models:
            if model is None or type(model) is StaticSpeedModel:
                continue
            if type(model) is not DynamicSpeedModel:
                return "custom-speed-model"
            if id(model) in seen_dynamic:
                return "shared-speed-model"
            seen_dynamic.add(id(model))
    return None


def _supports_fast_path(
    prototype: Strategy,
    platforms: Sequence[Platform],
    models: Sequence[Optional[SpeedModel]],
) -> bool:
    """Whether the whole batch can run on the vectorized kernel."""
    return fallback_reason(prototype, platforms, models) is None


def _replay_run(
    run: KernelRun,
    prototype: Strategy,
    platform: Platform,
    collect_trace: bool,
    sink: Optional[MetricsSink],
) -> SimulationResult:
    """Fold one kernel run into a SimulationResult, replaying sink/trace.

    Events are replayed in pop order with the same scalar types the
    engine's loop would pass, so sink snapshots and traces are
    indistinguishable from a serial run's.
    """
    if sink is not None:
        sink.on_run_start(
            prototype.name,
            prototype.kernel,
            prototype.n,
            platform.p,
            [float(s) for s in platform.relative_speeds],
        )
    trace: Optional[Trace] = Trace() if collect_trace else None
    if run.events is not None:
        for now, worker, blocks, tasks, duration, phase in run.events:
            if trace is not None:
                trace.append(
                    AssignmentRecord(
                        time=now,
                        worker=worker,
                        blocks=blocks,
                        tasks=tasks,
                        duration=duration,
                        phase=phase,
                        task_ids=None,
                    )
                )
            if sink is not None:
                sink.on_assignment(now, worker, blocks, tasks, duration, phase)
    total_blocks = int(run.per_worker_blocks.sum())
    total_tasks = int(run.per_worker_tasks.sum())
    if sink is not None:
        sink.on_run_end(run.makespan, total_blocks, total_tasks, run.n_assignments)
    return SimulationResult(
        total_blocks=total_blocks,
        per_worker_blocks=run.per_worker_blocks,
        per_worker_tasks=run.per_worker_tasks,
        makespan=run.makespan,
        n_assignments=run.n_assignments,
        strategy_name=prototype.name,
        trace=trace,
    )


def simulate_batch(
    strategy_factory: Callable[[], Strategy],
    platforms: Sequence[Platform],
    *,
    rngs: Sequence[SeedLike],
    speed_models: Optional[Sequence[Optional[SpeedModel]]] = None,
    collect_trace: bool = False,
    sinks: Optional[Sequence[Optional[MetricsSink]]] = None,
    memory_budget_bytes: Optional[int] = None,
    prefix: Optional[Phase1Prefix] = None,
) -> List[SimulationResult]:
    """Run R replicates of one strategy cell, vectorized when possible.

    Parameters
    ----------
    strategy_factory:
        Zero-argument callable building a fresh strategy instance; called
        once for configuration on the fast path and once per replicate on
        the scalar fallback.
    platforms:
        One platform per replicate (typically R draws of the same spec).
    rngs:
        One seed/generator per replicate; each replicate consumes its
        stream exactly as a scalar :func:`~repro.simulator.simulate` call
        would.
    speed_models:
        Optional per-replicate speed models; ``None`` entries default to
        static speeds.  Static and dynamic library models vectorize;
        custom model classes (or one dynamic instance shared between
        replicates) force the scalar fallback — see
        :func:`fallback_reason`.
    collect_trace:
        Attach an :class:`~repro.simulator.trace.AssignmentRecord` trace
        to every result.
    sinks:
        Optional per-replicate metrics sinks; events are replayed to each
        in the replicate's own pop order, yielding snapshots bit-identical
        to serial runs.
    memory_budget_bytes:
        Ceiling on the kernel's replicate-scaled working set; the batch
        is sliced along R into chunks that fit (replicates never
        interact, so slicing is exact).  ``None`` uses
        :data:`DEFAULT_MEMORY_BUDGET_BYTES`.
    prefix:
        Optional :class:`~repro.simulator.vector_kernels.Phase1Prefix`
        shared by the cells of a two-phase threshold sweep: replicates
        resume phase 1 from a matching snapshot instead of from scratch.
        Results are unchanged; the handle is ignored on the scalar
        fallback, by non-two-phase kernels, and under dynamic speeds,
        traces or sinks.

    Returns
    -------
    list of SimulationResult
        One per replicate, in input order, bit-identical to the scalar
        engine's output for the same inputs.
    """
    R = len(platforms)
    if len(rngs) != R:
        raise ValueError(f"got {len(rngs)} rngs for {R} platforms")
    models: Sequence[Optional[SpeedModel]]
    if speed_models is None:
        models = [None] * R
    elif len(speed_models) != R:
        raise ValueError(f"got {len(speed_models)} speed models for {R} platforms")
    else:
        models = speed_models
    sink_list: Sequence[Optional[MetricsSink]]
    if sinks is None:
        sink_list = [None] * R
    elif len(sinks) != R:
        raise ValueError(f"got {len(sinks)} sinks for {R} platforms")
    else:
        sink_list = sinks
    if R == 0:
        return []
    if memory_budget_bytes is not None and memory_budget_bytes <= 0:
        raise ValueError(f"memory_budget_bytes must be positive, got {memory_budget_bytes}")

    generators = [as_generator(rng) for rng in rngs]
    prototype = strategy_factory()
    if not _supports_fast_path(prototype, platforms, models):
        return [
            simulate(
                strategy_factory(),
                platforms[r],
                rng=generators[r],
                speed_model=models[r],
                collect_trace=collect_trace,
                sink=sink_list[r],
            )
            for r in range(R)
        ]

    # Observable-state parity with the scalar engine: every model reset
    # runs up front (resets draw nothing, so chunk boundaries cannot
    # reorder stream consumption).
    for r in range(R):
        model = models[r]
        if model is not None:
            model.reset(platforms[r], generators[r])
    speeds = np.stack([np.asarray(pl.speeds, dtype=np.float64) for pl in platforms])
    want_events = collect_trace or any(s is not None for s in sink_list)
    kernel = kernel_for(prototype)
    assert kernel is not None  # _supports_fast_path checked
    budget = DEFAULT_MEMORY_BUDGET_BYTES if memory_budget_bytes is None else memory_budget_bytes
    per_rep = max(1, int(kernel.bytes_per_replicate(prototype, platforms[0].p)))
    chunk = max(1, budget // per_rep)
    runs: List[KernelRun] = []
    for lo in range(0, R, chunk):
        hi = min(R, lo + chunk)
        ctx = BatchContext(
            platforms=platforms[lo:hi],
            speeds=speeds[lo:hi],
            generators=generators[lo:hi],
            models=models[lo:hi],
            want_events=want_events,
            prefix=prefix,
        )
        runs.extend(kernel.run(prototype, ctx))
    return [
        _replay_run(runs[r], prototype, platforms[r], collect_trace, sink_list[r])
        for r in range(R)
    ]
