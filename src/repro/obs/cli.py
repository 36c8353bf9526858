"""``repro-report`` — render observability run reports from the shell.

Examples::

    repro-report run DynamicOuter -n 50 -p 6 --seed 3
    repro-report run DynamicOuter SortedOuter -n 50 -p 6 --summary run.json \\
        --events run.jsonl
    repro-report render run.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.obs.export import events_to_jsonl, load_summary, save_summary, summary_from_sink
from repro.obs.report import render_report
from repro.obs.sink import RecordingSink

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-report`` argument parser (exposed for the docs tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Run instrumented simulations and render observability reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate strategies with a recording sink and report")
    run.add_argument("strategies", nargs="+", help="strategy names (see repro.strategy_names())")
    run.add_argument("-n", type=int, default=40, help="blocks per dimension (default: 40)")
    run.add_argument("-p", type=int, default=8, help="number of workers (default: 8)")
    run.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    run.add_argument("--summary", default=None, help="write the summary JSON document here")
    run.add_argument("--events", default=None, help="write the JSON-lines event stream here")
    run.add_argument("--quiet", action="store_true", help="suppress the terminal report")
    run.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="memoize the simulations in a result store at DIR; the report then"
        " shows cache hit rates (ignored with --events: event streams are not cached)",
    )

    render = sub.add_parser("render", help="render a report from a saved summary document")
    render.add_argument("summary", help="summary JSON written by 'repro-report run --summary'")
    return parser


def _run(args: argparse.Namespace) -> int:
    from repro.core.strategies.registry import make_strategy, strategy_names
    from repro.platform.platform import Platform
    from repro.platform.speeds import uniform_speeds
    from repro.simulator.engine import simulate

    unknown = [s for s in args.strategies if s not in strategy_names()]
    if unknown:
        raise SystemExit(
            f"unknown strategy name(s): {', '.join(unknown)}; "
            f"available: {', '.join(strategy_names())}"
        )

    sink = RecordingSink(events=args.events is not None)
    platform = Platform(uniform_speeds(args.p, 10, 100, rng=args.seed))
    store = None
    if args.cache is not None and args.events is None:
        from repro.store.cache import ResultStore

        store = ResultStore(args.cache, sink=sink)
    for i, name in enumerate(args.strategies):
        if store is not None:
            from repro.store.results import run_cached_simulation

            run_cached_simulation(
                store,
                strategy_name=name,
                n=args.n,
                platform=platform,
                seed=args.seed + 1 + i,
                sink=sink,
            )
            continue
        strategy = make_strategy(name, args.n)
        simulate(strategy, platform, rng=args.seed + 1 + i, sink=sink)

    if args.events is not None and sink.events is not None:
        with open(args.events, "w", encoding="utf-8") as fh:
            fh.write(events_to_jsonl(sink.events))
            fh.write("\n")
        print(f"wrote {args.events}")
    if args.summary is not None:
        print(f"wrote {save_summary(sink, args.summary)}")
    if not args.quiet:
        print(render_report(summary_from_sink(sink)))
        print(_engine_note(args.strategies, args.n))
    return 0


def _engine_note(strategies: List[str], n: int) -> str:
    """One line naming the batch-engine coverage of the reported strategies.

    Replicate sweeps over these strategies take the vectorized fast path
    unless :func:`repro.simulator.batch.fallback_reason` says otherwise,
    or unless the strategy steps in lockstep and the sweep has fewer than
    :data:`~repro.simulator.batch.LOCKSTEP_MIN_REPLICATES` replicates
    (``"small-batch"``) — naming the reason here keeps scalar runs
    visible from the CLI.
    """
    from repro.core.strategies.registry import make_strategy
    from repro.simulator.batch import (
        LOCKSTEP_MIN_REPLICATES,
        fallback_reason,
        steps_in_lockstep,
    )

    parts = []
    for name in strategies:
        strategy = make_strategy(name, n)
        reason = fallback_reason(strategy)
        if reason is not None:
            parts.append(f"{name}: scalar ({reason})")
        elif steps_in_lockstep(strategy):
            parts.append(
                f"{name}: scalar (small-batch) below {LOCKSTEP_MIN_REPLICATES} replicates"
            )
        else:
            parts.append(name)
    scalars = [part for part in parts if "(" in part]
    if not scalars:
        return f"engine: vectorized batch kernels cover {', '.join(parts)}"
    return "engine: scalar fallback for " + "; ".join(scalars)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-report``; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _run(args)
    print(render_report(load_summary(args.summary)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
