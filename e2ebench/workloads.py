"""The benchmark's three workloads and their output gates.

Every workload drives the public entry points a user calls:
``repro.experiments.figures.generate`` and ``repro.experiments.io.write_csv``
for figure regeneration into a ``repro.store.cache.ResultStore``, and
``repro.serve.client.ServerThread``/``ServeClient`` for the service.  The
functions are looked up through their modules at call time, so the
tracer's wrappers see the calls.

Output gates run outside the timed region and record each mismatch as a
string in ``Pass.failures``; the harness counts them in ``failed`` and
exits non-zero when there are any.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from speed import SpeedProbe
from tracing import LaneProbe, Tracer, clock, cpu_clock, strategy_family

__all__ = [
    "CLIENT_ID",
    "FIGURE_WORKLOADS",
    "GATED_FIGURES",
    "WARM_REPLAYS",
    "FiguresPass",
    "ServeHarness",
    "ServePass",
    "WorkDir",
    "expected_analytical",
    "figures_pass",
    "oracle_check_cells",
    "oracle_check_misses",
]

#: Figures of each figure workload.  Each kernel keeps one lockstep
#: p-grid sweep and one β-grid sweep.
FIGURE_WORKLOADS: Dict[str, Tuple[str, ...]] = {
    "figures_outer": ("fig04", "fig06", "fig08", "flt01"),
    "figures_matrix": ("fig09", "fig11"),
}

#: Figures whose ``results/<fig>_medium.csv`` must match byte for byte at
#: the seed the committed results were made with.
GATED_FIGURES = ("fig04", "fig06", "fig08", "fig09", "fig11")
GATED_SEED = 2014

#: Warm-store replays of the whole figure set after the cold pass; each
#: one is a ``hit`` sample, so 120 keep 12 samples beyond the p90.
WARM_REPLAYS = 120

#: Kernel regimes the output gate draws one cell of, to re-run on the
#: scalar oracle.
ORACLE_FAMILIES = ("analytic", "lockstep", "two_phase")

#: Cells re-run on the scalar oracle per serve_mixed run.
ORACLE_SAMPLE = 2

#: The load's one client, as it names itself to the service.
CLIENT_ID = "bench-c0"

#: serve_mixed runs the speed reference once per this many requests.
PROBE_EVERY = 5

#: One cold cell: (CPU seconds, args, kwargs, summary) of its
#: ``average_normalized_comm`` call.
Cell = Tuple[float, Tuple[Any, ...], Dict[str, Any], Any]


class WorkDir:
    """Scratch directories under the checkout, removed on close."""

    def __init__(self, root: str) -> None:
        os.makedirs(root, exist_ok=True)
        self.path = tempfile.mkdtemp(prefix="run-", dir=root)

    def fresh(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.path)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# Figure workloads
# ---------------------------------------------------------------------------


class FiguresPass:
    """One cold regeneration of a figure set plus its warm-store replays."""

    def __init__(self) -> None:
        #: Cold generate + write_csv CPU time, summed over the figures.
        self.cpu_s = 0.0
        #: The same on the wall clock, reported but not gated.
        self.wall_s = 0.0
        self.cells: List[Cell] = []
        #: CPU seconds of each ``mean_analysis_ratio`` call, cold and warm.
        self.analysis: List[float] = []
        #: CPU seconds of each whole-set warm replay.
        self.replays: List[float] = []
        self.figures = 0
        self.failures: List[str] = []


def figures_pass(
    figure_ids: Sequence[str],
    *,
    scale: str,
    seed: int,
    work: WorkDir,
    repo_root: str,
    warm: int = WARM_REPLAYS,
    tracer: Optional[Tracer] = None,
    speed: Optional[SpeedProbe] = None,
) -> FiguresPass:
    """Regenerate *figure_ids* into a fresh, empty store, replay *warm* times, check.

    With a *speed* probe, a reference run precedes every cold cell and
    every warm replay, and its time is taken out of the cold totals.
    """
    from repro.experiments import figures, io
    from repro.store.cache import ResultStore

    out = FiguresPass()
    store = ResultStore(work.fresh("store-"))
    csv_dir = work.fresh("csv-")
    made = []
    with LaneProbe(speed) as lanes, tracer or contextlib.nullcontext():
        for fid in figure_ids:
            probed = (speed.spent_cpu, speed.spent_wall) if speed else (0.0, 0.0)
            start, cpu = clock(), cpu_clock()
            fig = figures.generate(fid, scale=scale, seed=seed, cache=store)
            path = io.write_csv(fig, os.path.join(csv_dir, f"{fid}_{scale}.csv"))
            out.cpu_s += cpu_clock() - cpu - (speed.spent_cpu - probed[0] if speed else 0.0)
            out.wall_s += clock() - start - (speed.spent_wall - probed[1] if speed else 0.0)
            made.append((fid, fig, path))
    out.cells = lanes.cells
    out.analysis = list(lanes.analysis)
    out.figures = len(made)

    replayed: List[Any] = []
    with LaneProbe() as lanes:
        for _ in range(warm):
            if speed is not None:
                speed.tick()
            cpu = cpu_clock()
            replayed = [figures.generate(fid, scale=scale, seed=seed, cache=store) for fid in figure_ids]
            out.replays.append(cpu_clock() - cpu)
    out.analysis += lanes.analysis

    for i, (fid, fig, path) in enumerate(made):
        for label, series in fig.series.items():
            values = list(series.mean) + list(series.std)
            if not all(math.isfinite(v) for v in values):
                out.failures.append(f"{fid}/{label}: non-finite value")
        if replayed and io.figure_to_rows(fig) != io.figure_to_rows(replayed[i]):
            out.failures.append(f"{fid}: warm-store replay differs from the cold run")
        if scale == "medium" and seed == GATED_SEED and fid in GATED_FIGURES:
            committed = os.path.join(repo_root, "results", f"{fid}_medium.csv")
            with open(path, "rb") as fh, open(committed, "rb") as ref:
                if fh.read() != ref.read():
                    out.failures.append(f"{fid}: CSV differs from results/{fid}_medium.csv")
    return out


def oracle_check_cells(cells: Sequence[Cell], seed: int) -> Tuple[int, List[str]]:
    """Re-run one seeded cell of each kernel regime on the scalar engine.

    The cell is drawn from the cold pass by the seed alone, never by its
    timing, so the same seed always checks the same cells.
    """
    from repro.experiments import runner

    rng = np.random.default_rng([seed, 3])
    checked, failures = 0, []
    for family in ORACLE_FAMILIES:
        pool = [c for c in cells if strategy_family(c[1][0]) == family]
        if not pool:
            continue
        _, args, kwargs, summary = pool[int(rng.integers(0, len(pool)))]
        again = runner.average_normalized_comm(*args, **dict(kwargs, cache=None, vectorize=False))
        checked += 1
        if again != summary:
            failures.append(f"cell {args[0]!r} on {args[1]!r}: scalar oracle {again} != {summary}")
    return checked, failures


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class ServePass:
    """One closed-loop load over a freshly booted service."""

    def __init__(self) -> None:
        self.cpu_s = 0.0
        self.wall_s = 0.0
        #: (seq, lane, cpu_s, wall_s, status, response) per request.
        self.records: List[Tuple[int, str, float, float, int, Dict[str, Any]]] = []
        self.failures: List[str] = []

    def cpu(self, lane: str) -> List[float]:
        """CPU seconds of each request of *lane*."""
        return [r[2] for r in self.records if r[1] == lane]

    def wall(self, lane: Optional[str] = None) -> List[float]:
        """Wall-clock latency of each request (of *lane*)."""
        return [r[3] for r in self.records if lane is None or r[1] == lane]

    @property
    def refused(self) -> int:
        return sum(1 for r in self.records if r[4] in (429, 503))


def expected_analytical(body: Dict[str, Any]) -> Dict[str, Any]:
    """The answer to one analytical query, straight from repro.core.analysis."""
    from repro.core import analysis
    from repro.platform.platform import Platform

    kernel, n = body["kernel"], body["n"]
    if body["query"] == "agnostic_beta":
        return {"value": analysis.agnostic_beta(kernel, body["p"], n)}
    rel = Platform(np.asarray(body["speeds"], dtype=np.float64)).relative_speeds
    if body["query"] == "lower_bound":
        return {"value": analysis.lower_bound(kernel, rel, n)}
    optimal = analysis.optimal_outer_beta(rel, n) if kernel == "outer" else analysis.optimal_matrix_beta(rel, n)
    if body["query"] == "optimal_beta":
        return {"value": float(optimal)}
    beta = float(optimal) if body.get("beta") is None else float(body["beta"])
    ratio = analysis.outer_total_ratio if kernel == "outer" else analysis.matrix_total_ratio
    return {"beta": beta, "value": float(ratio(beta, rel, n))}


class ServeHarness:
    """Boots ``repro-serve`` in-process on a fresh store and pre-warms it."""

    def __init__(self, work: WorkDir, hot: List[Dict[str, Any]]) -> None:
        self.work = work
        self.hot = hot
        self.server: Any = None
        self.address: Tuple[str, int] = ("127.0.0.1", 0)
        #: fingerprint -> summary computed for each hot cell at pre-warm.
        self.reference: Dict[str, Dict[str, Any]] = {}

    def boot(self) -> float:
        """Store, server and hot-set pre-warm; returns the CPU seconds it took."""
        from repro.serve.client import ServeClient, ServerThread
        from repro.serve.service import ServeConfig

        start = cpu_clock()
        config = ServeConfig(
            host="127.0.0.1", port=0, store_root=self.work.fresh("serve-"), quota_burst=0.0
        )
        self.server = ServerThread(config)
        self.address = self.server.start()
        client = ServeClient(*self.address, client_id="prewarm", timeout=60.0)
        self.reference = {}
        for body in self.hot:
            payload = client.cell(body)
            self.reference[payload["fingerprint"]] = payload["summary"]
        return cpu_clock() - start

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def load(
        self, schedule: Sequence[Any], tracer: Optional[Tracer] = None, speed: Optional[SpeedProbe] = None
    ) -> ServePass:
        """Send *schedule* from one client in a closed loop.

        Only one request is in flight at a time and nothing else runs in
        the process, so the process CPU time a request spans is the
        client's and the server's work for that request.  A *speed* probe
        runs between requests, and its time is taken out of the totals.
        """
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(*self.address, client_id=CLIENT_ID, timeout=120.0)
        send = {"/v1/analytical": client.analytical, "/v1/cell": client.cell}
        out = ServePass()
        with tracer or contextlib.nullcontext():
            probed = (speed.spent_cpu, speed.spent_wall) if speed else (0.0, 0.0)
            start, cpu = clock(), cpu_clock()
            for seq, req in enumerate(schedule):
                if speed is not None and seq % PROBE_EVERY == 0:
                    speed.tick()
                t, c = clock(), cpu_clock()
                try:
                    response, status = send[req.path](req.body), 200
                except ServeError as exc:
                    response, status = exc.payload, exc.status
                except OSError as exc:
                    response, status = {"error": str(exc)}, 0
                out.records.append((seq, req.lane, cpu_clock() - c, clock() - t, status, response))
            out.cpu_s = cpu_clock() - cpu
            out.wall_s = clock() - start
        if speed is not None:
            out.cpu_s -= speed.spent_cpu - probed[0]
            out.wall_s -= speed.spent_wall - probed[1]
        out.failures.extend(self._check(out, schedule))
        return out

    def _check(self, out: ServePass, schedule: Sequence[Any]) -> List[str]:
        failures = []
        by_fp: Dict[str, List[Dict[str, Any]]] = {}
        for seq, lane, _, _, status, response in out.records:
            if status != 200:
                failures.append(f"#{seq} ({lane}): HTTP {status} {response.get('error')}")
                continue
            body = schedule[seq].body
            if lane == "analytical":
                expected = expected_analytical(body)
                got = {k: response.get(k) for k in expected}
                if got != expected:
                    failures.append(f"#{seq}: analytical {got} != {expected}")
            elif lane == "hit":
                if response["summary"] != self.reference.get(response["fingerprint"]):
                    failures.append(f"#{seq}: hit payload differs from the computed one")
                if response["status"] != "hit":
                    failures.append(f"#{seq}: hot cell answered {response['status']!r}")
            else:
                if response["status"] not in ("computed", "coalesced", "hit"):
                    failures.append(f"#{seq}: miss answered {response['status']!r}")
                by_fp.setdefault(response["fingerprint"], []).append(response)
        for fp, responses in by_fp.items():
            if any(r["summary"] != responses[0]["summary"] for r in responses):
                failures.append(f"cell {fp[:12]}: repeated payload differs from the computed one")
        return failures


def oracle_check_misses(records: Sequence[Tuple[Any, ...]], schedule: Sequence[Any], seed: int) -> Tuple[int, List[str]]:
    """Recompute a seeded sample of miss cells on the scalar engine."""
    from repro.experiments import runner
    from repro.serve.protocol import CellSpec
    from repro.store.cells import summary_to_payload

    misses = [r for r in records if r[1] == "miss" and r[4] == 200]
    if not misses:
        return 0, []
    rng = np.random.default_rng([seed, 4])
    picks = rng.choice(len(misses), size=min(ORACLE_SAMPLE, len(misses)), replace=False)
    failures = []
    for k in sorted(int(i) for i in picks):
        seq, _, _, _, _, response = misses[k]
        request = CellSpec.parse(schedule[seq].body).request
        summary = runner.average_normalized_comm(
            request.strategy_factory,
            request.platform_factory,
            request.n,
            request.reps,
            seed=request.seed,
            vectorize=False,
        )
        if dict(summary_to_payload(summary, None)["summary"]) != response["summary"]:
            failures.append(f"#{seq}: served summary differs from the scalar oracle")
    return len(picks), failures
