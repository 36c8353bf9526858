"""Seeded request schedule for the ``serve_mixed`` workload.

The schedule is a pure function of ``(seed, requests)``: the benchmark
generates it before the service starts, and the service only ever sees
the request bodies.  Three lanes:

* ``analytical`` (40%) — ``/v1/analytical`` queries over varied ``p``
  (ratio, optimal β, lower bound and speed-agnostic β, both kernels);
* ``hit`` (40%) — ``/v1/cell`` requests for a small hot set of cells
  that set-up computes before the load starts;
* ``miss`` (20%) — ``/v1/cell`` requests for cells nobody asked for
  before.  The three kernel regimes of docs/VECTORIZATION.md
  (analytic, lockstep, two-phase) each take a third of them, in seeded
  order, and each miss draws a strategy of its regime.

One client sends the list in a closed loop.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

import numpy as np

__all__ = ["HOT_SET_SIZE", "Request", "hot_set", "make_schedule"]

#: Cells pre-warmed during set-up and requested by the ``hit`` lane.
HOT_SET_SIZE = 16

_OUTER = ("RandomOuter", "SortedOuter", "DynamicOuter", "DynamicOuter2Phases", "MapReduceOuter")
_MATRIX = ("RandomMatrix", "SortedMatrix", "DynamicMatrix", "DynamicMatrix2Phases", "MapReduceMatrix")
#: Strategies of each kernel regime.  The misses are dealt the regimes in
#: equal shares, in seeded order, and each then draws a strategy of its
#: regime, so each regime is a third of the misses whatever its strategy
#: count and whatever the seed.  A uniform draw over the ten strategies
#: would make six in ten misses analytic cells of a few milliseconds, and
#: put the miss p50 on the edge between cheap and event-driven cells,
#: where it jumps with each seed's draw.
_REGIMES = (
    ("RandomOuter", "SortedOuter", "MapReduceOuter", "RandomMatrix", "SortedMatrix", "MapReduceMatrix"),
    ("DynamicOuter", "DynamicMatrix"),
    ("DynamicOuter2Phases", "DynamicMatrix2Phases"),
)


class Request(NamedTuple):
    """One request of the client's closed loop."""

    lane: str
    path: str
    body: Dict[str, Any]


def _cell(rng: np.random.Generator, name: str, *, small: bool) -> Dict[str, Any]:
    outer = name.endswith("Outer") or name == "DynamicOuter2Phases"
    if small:
        n = int(rng.integers(16, 25)) if outer else int(rng.integers(6, 10))
        p = int(rng.integers(4, 12))
        reps = 2
    else:
        n = int(rng.integers(36, 45)) if outer else int(rng.integers(12, 15))
        p = int(rng.integers(16, 25))
        reps = 3
    return {
        "strategy": name,
        "n": n,
        "reps": reps,
        "seed": int(rng.integers(0, 2**31)),
        "platform": {"type": "uniform", "p": p},
    }


def hot_set(seed: int) -> List[Dict[str, Any]]:
    """The cells the ``hit`` lane asks for; cheap to compute, fixed per seed."""
    rng = np.random.default_rng([seed, 1])
    names = _OUTER + _MATRIX
    return [_cell(rng, names[i % len(names)], small=True) for i in range(HOT_SET_SIZE)]


def _query(rng: np.random.Generator) -> Dict[str, Any]:
    kernel = "outer" if rng.random() < 0.5 else "matrix"
    n = int(rng.integers(50, 1001)) if kernel == "outer" else int(rng.integers(20, 101))
    p = int(rng.integers(4, 257))
    kind = rng.choice(["ratio", "ratio", "ratio", "optimal_beta", "lower_bound", "agnostic_beta"])
    body: Dict[str, Any] = {"query": str(kind), "kernel": kernel, "n": n}
    if kind == "agnostic_beta":
        body["p"] = p
        return body
    body["speeds"] = [float(s) for s in rng.uniform(10.0, 100.0, size=p)]
    if kind == "ratio" and rng.random() < 0.5:
        body["beta"] = float(rng.uniform(0.5, 8.0))
    return body


def make_schedule(seed: int, requests: int) -> List[Request]:
    """The *requests* requests of one seed, in the order they are sent."""
    if requests < 5:
        raise ValueError(f"need at least 5 requests, got {requests}")
    rng = np.random.default_rng([seed, 2])
    hot = hot_set(seed)
    n_analytical = round(0.4 * requests)
    n_hit = round(0.4 * requests)
    lanes = ["analytical"] * n_analytical + ["hit"] * n_hit
    lanes += ["miss"] * (requests - len(lanes))
    lanes = [lanes[i] for i in rng.permutation(len(lanes))]
    n_miss = lanes.count("miss")
    regimes = [k % len(_REGIMES) for k in range(n_miss)]
    regimes = iter([regimes[i] for i in rng.permutation(n_miss)])

    schedule: List[Request] = []
    for lane in lanes:
        if lane == "analytical":
            schedule.append(Request(lane, "/v1/analytical", _query(rng)))
        elif lane == "hit":
            schedule.append(Request(lane, "/v1/cell", hot[int(rng.integers(0, len(hot)))]))
        else:
            regime = _REGIMES[next(regimes)]
            body = _cell(rng, regime[int(rng.integers(0, len(regime)))], small=False)
            schedule.append(Request(lane, "/v1/cell", body))
    return schedule
