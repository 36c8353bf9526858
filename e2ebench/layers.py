"""Per-layer metrics from the spans of one traced pass.

Every metric here is a sum, count or ratio over spans that
:class:`tracing.Tracer` recorded around a public call; names follow the
layer (the ``repro`` subpackage) they measure.  Layers a workload does not
exercise read 0.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np
from scipy.special import betainc

from tracing import Span, covered, self_times

__all__ = ["PER_LAYER_UNITS", "layer_metrics", "percentile"]

#: Every per-layer metric, with its unit, in the order they are printed.
PER_LAYER_UNITS: Dict[str, str] = {
    "experiments.cells": "count",
    "experiments.cell_s": "s",
    "experiments.analysis_s": "s",
    "experiments.csv_write_s": "s",
    "experiments.self_s": "s",
    "simulator.batch_calls": "count",
    "simulator.replicates": "count",
    "simulator.replicates_per_call": "count",
    "simulator.analytic_s": "s",
    "simulator.lockstep_s": "s",
    "simulator.two_phase_s": "s",
    "simulator.dyn_speed_s": "s",
    "simulator.scalar_calls": "count",
    "faults.runs": "count",
    "faults.simulate_s": "s",
    "analysis.optimal_beta_calls": "count",
    "analysis.optimal_beta_s": "s",
    "analysis.evaluate_s": "s",
    "store.get_calls": "count",
    "store.get_s": "s",
    "store.hit_ratio": "ratio",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.put_bytes": "bytes",
    "store.claim_calls": "count",
    "store.claim_s": "s",
    "store.claim_win_ratio": "ratio",
    "store.journal_appends": "count",
    "store.journal_s": "s",
    "serve.parse_s": "s",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p90": "ms",
    "serve.compute_s": "s",
    "serve.cells_per_batch": "count",
    "serve.coalesced": "count",
    "serve.refused": "count",
    "serve.self_ms_p50": "ms",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the *q*-th percentile; 0.0 for an empty sample.

    It is a Beta-weighted mean of all order statistics rather than one or
    two of them, so on a few dozen unlike operations (the cold cells of a
    figure set, whose times jump from a few milliseconds to a second) the
    estimate does not leap from one cell to its neighbour when a new seed
    moves a cell across the rank.
    """
    n = len(values)
    if n == 0:
        return 0.0
    if n == 1:
        return float(values[0])
    p = q / 100.0
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), np.sort(np.asarray(values, dtype=np.float64))))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sum(spans: Sequence[Span]) -> float:
    return sum(s.duration for s in spans)


def _queue_waits(by_name: Dict[str, List[Span]]) -> List[float]:
    """Per computed miss: submit span minus its probe, claim and compute spans.

    Executor-side spans carry no request tag, so they are matched to the
    submit by the cell fingerprint and by lying inside its interval.
    """
    from repro.store.fingerprint import fingerprint

    def fp_spans(name: str, fp_of: Any) -> Dict[str, List[Span]]:
        out: Dict[str, List[Span]] = {}
        for span in by_name.get(name, ()):
            for fp in fp_of(span):
                out.setdefault(fp, []).append(span)
        return out

    gets = fp_spans("store.get", lambda s: [fingerprint(s.attrs["key"])])
    claims = fp_spans("store.claim", lambda s: [s.attrs["fp"]])
    computes = fp_spans(
        "serve.run_cells",
        lambda s: [fingerprint(r.key(metrics=False)) for r in s.attrs["requests"]],
    )
    waits = []
    for submit in by_name.get("serve.submit", ()):
        if submit.attrs.get("status") != "computed":
            continue
        fp = submit.attrs["fp"]
        inside = [
            s
            for table in (gets, claims, computes)
            for s in table.get(fp, ())
            if s.start >= submit.start and s.end <= submit.end
        ]
        waits.append(submit.duration - covered(((s.start, s.end) for s in inside), submit.start, submit.end))
    return waits


def layer_metrics(
    spans: Sequence[Span],
    *,
    traced_wall_s: float,
    untraced_wall_s: float,
    requests: Sequence[Tuple[str, int, float, int]] = (),
) -> Dict[str, float]:
    """Every per-layer metric for one traced pass.

    *requests* holds the client side of a serve load:
    ``(client_id, sequence, latency_s, http_status)`` per request.
    """
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    own = self_times(spans)
    batches = named("simulator.batch")
    static = [s for s in batches if not s.attrs["dynamic_speed"]]
    replicates = sum(s.attrs["replicates"] for s in batches)
    gets, puts, claims = named("store.get"), named("store.put"), named("store.claim")
    run_cells = named("serve.run_cells")
    waits = _queue_waits(by_name)

    from repro.store.fingerprint import canonical_json

    server_time: Dict[Tuple[str, int], float] = {}
    for span in spans:
        if span.tag is not None and span.parent is None:
            server_time[span.tag] = server_time.get(span.tag, 0.0) + span.duration
    self_ms = [
        1e3 * (latency - server_time.get((client, seq), 0.0))
        for client, seq, latency, status in requests
        if status == 200
    ]
    # Coverage counts only the work beneath ``generate``: a generate span
    # wraps the whole figure, so counting it would read 1.0 by construction.
    beneath = [(s.start, s.end) for s in spans if s.name != "experiments.generate"]

    metrics = {
        "experiments.cells": len(named("experiments.cell")),
        "experiments.cell_s": _sum(named("experiments.cell")),
        "experiments.analysis_s": _sum(named("experiments.analysis")),
        "experiments.csv_write_s": _sum(named("experiments.write_csv")),
        "experiments.self_s": sum(own[s.id] for s in named("experiments.generate")),
        "simulator.batch_calls": len(batches),
        "simulator.replicates": replicates,
        "simulator.replicates_per_call": _ratio(replicates, len(batches)),
        "simulator.analytic_s": _sum([s for s in static if s.attrs["family"] == "analytic"]),
        "simulator.lockstep_s": _sum([s for s in static if s.attrs["family"] == "lockstep"]),
        "simulator.two_phase_s": _sum([s for s in static if s.attrs["family"] == "two_phase"]),
        "simulator.dyn_speed_s": _sum([s for s in batches if s.attrs["dynamic_speed"]]),
        "simulator.scalar_calls": len(named("simulator.scalar")),
        "faults.runs": len(named("faults.simulate")),
        "faults.simulate_s": _sum(named("faults.simulate")),
        "analysis.optimal_beta_calls": len(named("analysis.optimal_beta")),
        "analysis.optimal_beta_s": _sum(named("analysis.optimal_beta")),
        "analysis.evaluate_s": _sum(named("analysis.evaluate")),
        "store.get_calls": len(gets),
        "store.get_s": _sum(gets),
        "store.hit_ratio": _ratio(sum(1 for s in gets if s.attrs["hit"]), len(gets)),
        "store.put_calls": len(puts),
        "store.put_s": _sum(puts),
        "store.put_bytes": sum(len(canonical_json(s.attrs["payload"]).encode()) for s in puts),
        "store.claim_calls": len(claims),
        "store.claim_s": _sum(claims),
        "store.claim_win_ratio": _ratio(sum(1 for s in claims if s.attrs["won"]), len(claims)),
        "store.journal_appends": sum(s.attrs["records"] for s in named("store.journal")),
        "store.journal_s": _sum(named("store.journal")),
        "serve.parse_s": _sum(named("serve.parse")),
        "serve.queue_wait_ms_p50": 1e3 * percentile(waits, 50),
        "serve.queue_wait_ms_p90": 1e3 * percentile(waits, 90),
        "serve.compute_s": _sum(run_cells),
        "serve.cells_per_batch": _ratio(sum(len(s.attrs["requests"]) for s in run_cells), len(run_cells)),
        "serve.coalesced": sum(1 for s in named("serve.submit") if s.attrs.get("status") == "coalesced"),
        "serve.refused": sum(1 for *_, status in requests if status in (429, 503)),
        "serve.self_ms_p50": percentile(self_ms, 50),
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.coverage": _ratio(covered(beneath, -math.inf, math.inf), traced_wall_s),
    }
    return {name: float(metrics[name]) for name in PER_LAYER_UNITS}
