"""Speed distributions and dynamic speed models from the paper's evaluation.

Distributions (how base speeds are drawn):

* ``uniform_speeds(p, low, high)`` — the default setting of Figures 1, 4, 5,
  9, 10: speeds uniform in ``[10, 100]``;
* ``heterogeneity_speeds(p, h)`` — Figure 7: speeds uniform in
  ``[100 - h, 100 + h]`` for a heterogeneity level ``h`` in ``[0, 100)``;
* ``set_speeds(p, values)`` — Figure 8's ``set.3`` / ``set.5``: each worker
  draws its speed uniformly from a small set of speed classes.

Dynamic models (how speeds evolve *during* a run):

* :class:`StaticSpeedModel` — speeds never change (all figures except 8);
* :class:`DynamicSpeedModel` — Figure 8's ``dyn.5`` / ``dyn.20``: after each
  task a worker's speed changes by a uniformly random relative amount of up
  to ``jitter`` (5 % or 20 %).

:func:`make_scenario` builds the six named Figure-8 scenarios.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.platform.platform import Platform
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_nonnegative_int, check_positive, check_positive_int

__all__ = [
    "uniform_speeds",
    "heterogeneity_speeds",
    "set_speeds",
    "SpeedModel",
    "StaticSpeedModel",
    "DynamicSpeedModel",
    "make_scenario",
    "SCENARIO_NAMES",
]

# Floor below which a dynamic speed is clamped; the multiplicative random
# walk of dyn.* has a slight downward log-drift, and a speed of exactly zero
# would deadlock the demand-driven loop.
_SPEED_FLOOR = 1e-9


def uniform_speeds(p: int, low: float = 10.0, high: float = 100.0, *, rng: SeedLike = None) -> np.ndarray:
    """Draw *p* speeds uniformly in ``[low, high]`` (paper default [10, 100])."""
    p = check_positive_int("p", p)
    low = check_positive("low", low)
    high = check_positive("high", high)
    if high < low:
        raise ValueError(f"high ({high}) must be >= low ({low})")
    return as_generator(rng).uniform(low, high, size=p)


def heterogeneity_speeds(p: int, h: float, *, rng: SeedLike = None) -> np.ndarray:
    """Figure 7 distribution: speeds uniform in ``[100 - h, 100 + h]``.

    ``h = 0`` yields a perfectly homogeneous platform; ``h`` close to 100
    yields a large ratio between the slowest and fastest workers.
    """
    p = check_positive_int("p", p)
    h = float(h)
    if not 0.0 <= h < 100.0:
        raise ValueError(f"heterogeneity h must lie in [0, 100), got {h}")
    if h == 0.0:
        return np.full(p, 100.0)
    return as_generator(rng).uniform(100.0 - h, 100.0 + h, size=p)


def set_speeds(p: int, values: Sequence[float], *, rng: SeedLike = None) -> np.ndarray:
    """Each worker draws its speed uniformly from the class set *values*."""
    p = check_positive_int("p", p)
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if np.any(vals <= 0) or not np.all(np.isfinite(vals)):
        raise ValueError("speed classes must be positive and finite")
    return as_generator(rng).choice(vals, size=p)


class SpeedModel:
    """How long a batch of tasks takes on a worker, given platform speeds.

    The engine calls :meth:`duration` once per assignment.  Implementations
    must be consistent with demand-driven load balancing: duration is the
    time to process ``n_tasks`` block tasks at the worker's current speed.
    """

    def reset(self, platform: Platform, rng: np.random.Generator) -> None:
        """Bind to a platform at the start of a simulation run."""
        raise NotImplementedError

    def duration(self, worker: int, n_tasks: int) -> float:
        """Time for *worker* to process *n_tasks* tasks (0 tasks -> 0 time)."""
        raise NotImplementedError

    def current_speed(self, worker: int) -> float:
        """The worker's instantaneous speed (for introspection/tests)."""
        raise NotImplementedError


class StaticSpeedModel(SpeedModel):
    """Constant speeds: ``duration = n_tasks / s_k``."""

    def __init__(self) -> None:
        self._speeds: np.ndarray | None = None

    def reset(self, platform: Platform, rng: np.random.Generator) -> None:
        self._speeds = platform.speeds

    def duration(self, worker: int, n_tasks: int) -> float:
        if self._speeds is None:
            raise RuntimeError("speed model used before reset()")
        n_tasks = check_nonnegative_int("n_tasks", n_tasks)
        return n_tasks / float(self._speeds[worker])

    def current_speed(self, worker: int) -> float:
        if self._speeds is None:
            raise RuntimeError("speed model used before reset()")
        return float(self._speeds[worker])


class DynamicSpeedModel(SpeedModel):
    """Per-task multiplicative speed perturbation (Figure 8, dyn.5 / dyn.20).

    After computing each task, a worker's speed is multiplied by
    ``1 + u`` with ``u`` uniform in ``[-jitter, +jitter]``.  The duration of
    an assignment of ``m`` tasks is the exact sum ``sum_t 1 / s_t`` over the
    evolving per-task speeds, computed vectorized with a cumulative product.
    """

    def __init__(self, jitter: float) -> None:
        jitter = float(jitter)
        if not 0.0 < jitter < 1.0:
            raise ValueError(f"jitter must lie in (0, 1), got {jitter}")
        self.jitter = jitter
        self._speeds: np.ndarray | None = None
        self._rng: np.random.Generator | None = None

    def reset(self, platform: Platform, rng: np.random.Generator) -> None:
        self._speeds = platform.speeds.copy()
        self._rng = rng

    def duration(self, worker: int, n_tasks: int) -> float:
        if self._speeds is None or self._rng is None:
            raise RuntimeError("speed model used before reset()")
        n_tasks = check_nonnegative_int("n_tasks", n_tasks)
        if n_tasks == 0:
            return 0.0
        s0 = self._speeds[worker]
        if n_tasks == 1:
            # The array path below with one task, without its array
            # overhead: one draw, the same value and the same stream state.
            self._speeds[worker] = max(
                s0 * (1.0 + self._rng.uniform(-self.jitter, self.jitter)), _SPEED_FLOOR
            )
            return float(1.0 / max(s0, _SPEED_FLOOR))
        # Speed while computing task t is s0 * prod(factors[:t]); the change
        # happens *after* each task, so the first task runs at s0.
        factors = 1.0 + self._rng.uniform(-self.jitter, self.jitter, size=n_tasks)
        cum = np.cumprod(factors)
        per_task_speeds = np.empty(n_tasks)
        per_task_speeds[0] = s0
        if n_tasks > 1:
            per_task_speeds[1:] = s0 * cum[:-1]
        np.maximum(per_task_speeds, _SPEED_FLOOR, out=per_task_speeds)
        self._speeds[worker] = max(s0 * cum[-1], _SPEED_FLOOR)
        return float(np.sum(1.0 / per_task_speeds))

    def current_speed(self, worker: int) -> float:
        if self._speeds is None:
            raise RuntimeError("speed model used before reset()")
        return float(self._speeds[worker])


# -- named Figure-8 scenarios ---------------------------------------------

_ScenarioFactory = Callable[[int, np.random.Generator], Tuple[np.ndarray, SpeedModel]]


def _scenarios() -> Dict[str, _ScenarioFactory]:
    return {
        "unif.1": lambda p, rng: (uniform_speeds(p, 80, 120, rng=rng), StaticSpeedModel()),
        "unif.2": lambda p, rng: (uniform_speeds(p, 50, 150, rng=rng), StaticSpeedModel()),
        "set.3": lambda p, rng: (set_speeds(p, (80, 100, 150), rng=rng), StaticSpeedModel()),
        "set.5": lambda p, rng: (set_speeds(p, (40, 80, 100, 150, 200), rng=rng), StaticSpeedModel()),
        "dyn.5": lambda p, rng: (uniform_speeds(p, 80, 120, rng=rng), DynamicSpeedModel(0.05)),
        "dyn.20": lambda p, rng: (uniform_speeds(p, 80, 120, rng=rng), DynamicSpeedModel(0.20)),
    }


SCENARIO_NAMES: Tuple[str, ...] = tuple(_scenarios().keys())


def make_scenario(name: str, p: int, *, rng: SeedLike = None) -> Tuple[Platform, SpeedModel]:
    """Instantiate one of the six named Figure-8 heterogeneity scenarios.

    Returns a ``(platform, speed_model)`` pair ready to pass to
    :func:`repro.simulator.simulate`.
    """
    factories = _scenarios()
    if name not in factories:
        raise ValueError(f"unknown scenario {name!r}; choose from {sorted(factories)}")
    speeds, model = factories[name](check_positive_int("p", p), as_generator(rng))
    return Platform(speeds), model
