"""Compare two recorded sets of benchmark runs.

Record a set by passing the same ``--record FILE`` to every run::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 e2ebench/run.py --workload figures_matrix --seed $seed \\
            --seconds 20 --trace 0 --record base.jsonl
    done

then, after recording ``change.jsonl`` the same way on the other commit::

    python3 e2ebench/compare.py base.jsonl change.jsonl

Each end-to-end metric of each workload gets its own row with the median
and quartiles of both sets and a verdict against the metric's bound from
``BENCHMARK.json``: ``unresolved`` when either set's spread (quartile
distance over median) is wider than the bound, else ``worse`` or
``better`` when the medians differ by more than the bound, else ``same``.
Per-layer metrics (from ``--trace 1`` runs) are listed as median deltas.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

Runs = Dict[Tuple[str, int], Dict[str, List[float]]]


def load(path: str) -> Runs:
    """``(workload, trace) -> metric -> values`` from a JSONL record file."""
    runs: Runs = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            slot = runs.setdefault((record["workload"], int(record["trace"])), {})
            for name, metric in record["result"]["metrics"].items():
                slot.setdefault(name, []).append(float(metric["value"]))
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    if spread(base) > bound or spread(change) > bound:
        return "unresolved"
    b, c = statistics.median(base), statistics.median(change)
    rel = (c - b) / b if b else 0.0
    worse = rel > bound if better == "lower" else rel < -bound
    improved = rel < -bound if better == "lower" else rel > bound
    return "worse" if worse else "better" if improved else "same"


def report(base: Runs, change: Runs, benchmark: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Printable rows, and whether any end-to-end metric got worse."""
    lines: List[str] = []
    regressed = False
    end_to_end = benchmark["end_to_end"]
    fmt = "{:<16} {:<22} {:>30} {:>30} {:>8} {}"
    lines.append(fmt.format("workload", "metric", "base q1/med/q3", "change q1/med/q3", "delta", "verdict"))
    for (workload, trace) in sorted(set(base) & set(change)):
        if trace:
            continue
        for metric in end_to_end:
            name = metric["name"]
            b, c = base[(workload, 0)].get(name), change[(workload, 0)].get(name)
            if not b or not c:
                continue
            v = verdict(b, c, float(metric["bound"]), metric["better"])
            regressed |= v == "worse"
            delta = (statistics.median(c) - statistics.median(b)) / statistics.median(b)
            lines.append(
                fmt.format(
                    workload,
                    name,
                    "/".join(f"{x:.4g}" for x in quartiles(b)),
                    "/".join(f"{x:.4g}" for x in quartiles(c)),
                    f"{delta:+.1%}",
                    v,
                )
            )
    layer_fmt = "{:<16} {:<30} {:>14} {:>14} {:>14}"
    header = False
    for (workload, trace) in sorted(set(base) & set(change)):
        if not trace:
            continue
        if not header:
            lines.append("")
            lines.append(layer_fmt.format("workload", "per-layer metric", "base median", "change median", "delta"))
            header = True
        for name in sorted(set(base[(workload, 1)]) & set(change[(workload, 1)])):
            b = statistics.median(base[(workload, 1)][name])
            c = statistics.median(change[(workload, 1)][name])
            lines.append(layer_fmt.format(workload, name, f"{b:.6g}", f"{c:.6g}", f"{c - b:+.6g}"))
    return lines, regressed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two recorded sets of e2ebench runs.")
    parser.add_argument("base", help="JSONL records of the parent commit")
    parser.add_argument("change", help="JSONL records of the change")
    parser.add_argument("--benchmark", default=str(ROOT / "BENCHMARK.json"), help="bounds file")
    args = parser.parse_args(argv)
    with open(args.benchmark, encoding="utf-8") as fh:
        benchmark = json.load(fh)
    lines, regressed = report(load(args.base), load(args.change), benchmark)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
