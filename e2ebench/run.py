"""End-to-end benchmark of the reproduction: figure sweeps and repro-serve.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload figures_outer --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics.  The
end-to-end times are CPU times of the benchmark process, scaled to the
reference host's speed by a probe run between operations (``speed.py``);
raw CPU and wall-clock figures are printed beside them but not reported.  Every metric is
printed on its own line with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output
check passed.  See ``e2ebench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from layers import PER_LAYER_UNITS, layer_metrics, percentile
from schedule import hot_set, make_schedule
from speed import REFERENCE_S, SpeedProbe, reference_work
from tracing import Tracer, cpu_clock, layer_self_times
from workloads import (
    CLIENT_ID,
    FIGURE_WORKLOADS,
    WARM_REPLAYS,
    ServeHarness,
    WorkDir,
    figures_pass,
    oracle_check_cells,
    oracle_check_misses,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("figures_outer", "figures_matrix", "serve_mixed")

#: End-to-end metric units, in print order.  Every time is CPU time at the
#: reference host's speed.
END_TO_END_UNITS: Dict[str, str] = {
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "analytical_cpu_p50_ms": "ms",
    "hit_cpu_p50_ms": "ms",
    "hit_cpu_p90_ms": "ms",
    "miss_cpu_p50_ms": "ms",
    "miss_cpu_p90_ms": "ms",
}

#: Set-up is repeated this many times per run and its median reported.
SETUP_TRIALS = 3

#: serve_mixed sizing: requests per second of ``--seconds``, and the
#: floor that keeps at least 100 samples in every lane (20% are misses).
SERVE_REQUESTS_PER_SECOND = 120
SERVE_MIN_REQUESTS = 500

_IMPORTS = "repro.experiments.figures, repro.experiments.io, repro.store.cache, repro.serve.client"


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def import_seconds() -> float:
    """CPU seconds to start a fresh interpreter and import the entry-point modules."""
    code = f"import time; import {_IMPORTS}; print(time.process_time())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=str(ROOT), env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"importing repro failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def machine() -> Dict[str, Any]:
    """The host and load-generator facts every record carries."""
    import numpy

    from repro.core.strategies.registry import make_strategy, strategy_names
    from repro.simulator.batch import fallback_reason

    engines = {}
    for name in strategy_names():
        reason = fallback_reason(make_strategy(name, 16))
        engines[name] = "vectorized" if reason is None else f"scalar ({reason})"
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_threads": 1,
        "connections_per_client": 1,
        "engines": engines,
    }


def _ms(values: List[float], q: float) -> float:
    return 1e3 * percentile(values, q)


# ---------------------------------------------------------------------------
# Workload drivers: each returns (end_to_end, per_layer, attempted, failures, notes)
# ---------------------------------------------------------------------------


def run_figures(args: argparse.Namespace, work: Any, imports: List[float], speed: SpeedProbe) -> Tuple[Dict[str, float], Dict[str, float], int, List[str], List[str]]:
    from repro.store.cache import ResultStore

    figure_ids = FIGURE_WORKLOADS[args.workload]
    store_s = []
    for _ in range(SETUP_TRIALS):
        start = cpu_clock()
        ResultStore(work.fresh("setup-"))
        store_s.append(cpu_clock() - start)
    setup_s = statistics.median(i + s for i, s in zip(imports, store_s))

    common = dict(scale=args.scale, seed=args.seed, work=work, repo_root=str(ROOT))
    cold = figures_pass(figure_ids, warm=1 if args.trace else WARM_REPLAYS, speed=speed, **common)
    passes = [cold]
    per_layer: Dict[str, float] = {}
    if args.trace:
        tracer = Tracer(run=f"{args.workload}/seed{args.seed}/traced")
        traced = figures_pass(figure_ids, warm=1, tracer=tracer, **common)
        per_layer = layer_metrics(tracer.spans, traced_wall_s=traced.wall_s, untraced_wall_s=cold.wall_s)
        _dump_spans(args, tracer, per_layer)
        passes.append(traced)

    oracle_start = time.perf_counter()
    checked, oracle_failures = oracle_check_cells(cold.cells, args.seed)
    oracle_s = time.perf_counter() - oracle_start
    failures = [f for p in passes for f in p.failures] + oracle_failures
    cells = [c[0] for c in cold.cells]
    e2e = {
        "setup_s": setup_s,
        "cpu_s": cold.cpu_s,
        "analytical_cpu_p50_ms": _ms(cold.analysis, 50),
        "hit_cpu_p50_ms": _ms(cold.replays, 50),
        "hit_cpu_p90_ms": _ms(cold.replays, 90),
        "miss_cpu_p50_ms": _ms(cells, 50),
        "miss_cpu_p90_ms": _ms(cells, 90),
    }
    attempted = checked + sum(
        len(p.cells) + len(p.analysis) + p.figures * (1 + len(p.replays)) for p in passes
    )
    notes = [
        f"samples: miss = {len(cells)} cold cells, hit = {len(cold.replays)} warm replays"
        f" of the {len(figure_ids)} figures, analytical = {len(cold.analysis)} Analysis points",
        f"oracle: {checked} cells re-run on the scalar engine in {oracle_s:.2f} s",
        f"wall clock (not reported): cold pass {cold.wall_s:.3f} s, {len(cells) / cold.wall_s:.3f} cells/s",
    ]
    return e2e, per_layer, attempted, failures, notes


def run_serve(args: argparse.Namespace, work: Any, imports: List[float], speed: SpeedProbe) -> Tuple[Dict[str, float], Dict[str, float], int, List[str], List[str]]:
    requests = max(SERVE_MIN_REQUESTS, SERVE_REQUESTS_PER_SECOND * args.seconds)
    if args.scale == "ci":
        requests = 40
    schedule = make_schedule(args.seed, requests)
    harness = ServeHarness(work, hot_set(args.seed))
    try:
        boots = []
        for trial in range(SETUP_TRIALS):
            if trial:
                harness.stop()
            boots.append(harness.boot())
        setup_s = statistics.median(i + b for i, b in zip(imports, boots))
        untraced = harness.load(schedule, speed=speed)
        per_layer: Dict[str, float] = {}
        passes = [untraced]
        if args.trace:
            harness.stop()
            harness.boot()
            tracer = Tracer(run=f"{args.workload}/seed{args.seed}/traced")
            traced = harness.load(schedule, tracer=tracer)
            client_side = [(CLIENT_ID, r[0], r[3], r[4]) for r in traced.records]
            per_layer = layer_metrics(
                tracer.spans, traced_wall_s=traced.wall_s, untraced_wall_s=untraced.wall_s, requests=client_side
            )
            _dump_spans(args, tracer, per_layer)
            passes.append(traced)
    finally:
        harness.stop()

    checked, oracle_failures = oracle_check_misses(untraced.records, schedule, args.seed)
    failures = [f for p in passes for f in p.failures] + oracle_failures
    lanes = {lane: untraced.cpu(lane) for lane in ("analytical", "hit", "miss")}
    e2e = {
        "setup_s": setup_s,
        "cpu_s": untraced.cpu_s,
        "analytical_cpu_p50_ms": _ms(lanes["analytical"], 50),
        "hit_cpu_p50_ms": _ms(lanes["hit"], 50),
        "hit_cpu_p90_ms": _ms(lanes["hit"], 90),
        "miss_cpu_p50_ms": _ms(lanes["miss"], 50),
        "miss_cpu_p90_ms": _ms(lanes["miss"], 90),
    }
    statuses: Dict[str, int] = {}
    for r in untraced.records:
        if r[1] == "miss" and r[4] == 200:
            statuses[r[5]["status"]] = statuses.get(r[5]["status"], 0) + 1
    attempted = sum(len(p.records) for p in passes) + checked
    ok = sum(1 for r in untraced.records if r[4] == 200)
    walls = {lane: untraced.wall(lane) for lane in lanes}
    notes = [
        f"load: closed loop, 1 client, {len(schedule)} requests",
        "samples: " + " ".join(f"{lane}={len(v)}" for lane, v in lanes.items()),
        f"miss outcomes: {statuses}; refused (429/503): {untraced.refused}",
        f"oracle: {checked} miss cells re-run on the scalar engine",
        f"wall clock (not reported): load {untraced.wall_s:.3f} s, {ok / untraced.wall_s:.3f} requests/s, p50 ms "
        + " ".join(f"{lane}={_ms(v, 50):.3f}" for lane, v in walls.items()),
    ]
    return e2e, per_layer, attempted, failures, notes


def _dump_spans(args: argparse.Namespace, tracer: Any, per_layer: Dict[str, float]) -> None:
    spans_dir = ROOT / ".e2ebench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    self_by_layer = layer_self_times(tracer.spans)
    tracer.dump(
        str(spans_dir / f"{args.workload}-seed{args.seed}.json"),
        {"per_layer": per_layer, "self_s_by_layer": self_by_layer},
    )
    for layer, seconds in sorted(self_by_layer.items()):
        print(f"self time {layer} = {seconds:.6f} s")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20, help="measuring budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("ci", "medium"), default="medium", help="figure scale")
    parser.add_argument("--record", help="append this run's result and machine facts to a JSONL file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference_work()  # first-call costs stay out of the samples
    speed = SpeedProbe()
    imports = []
    for _ in range(SETUP_TRIALS):
        speed.tick()
        imports.append(import_seconds())
    facts = machine()
    work = WorkDir(str(ROOT / ".e2ebench" / "work"))
    try:
        runner = run_serve if args.workload == "serve_mixed" else run_figures
        raw, per_layer, attempted, failures, notes = runner(args, work, imports, speed)
    finally:
        work.close()
    scale = speed.scale()
    e2e = {name: value * scale for name, value in raw.items()}
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes.append(
        f"speed: reference median {1e3 * speed.median_s():.4f} ms over {len(speed.samples)} runs"
        f" (reference host {1e3 * REFERENCE_S:.4f} ms), CPU times scaled by {scale:.4f}"
    )
    notes.append("raw CPU (not reported): " + " ".join(f"{k}={v:.6f}" for k, v in raw.items()))

    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    for note in notes:
        print(note)
    for failure in failures:
        print(f"GATE FAILED: {failure}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name} = {e2e[name]:.6f} {unit}")
    print(f"error_rate = {len(failures) / attempted:.6f} ratio ({len(failures)} of {attempted})")
    if args.trace:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name} = {per_layer[name]:.6f} {unit}")
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
            record.update(result=result, machine=facts, recorded=time.time())
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
