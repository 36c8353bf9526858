"""Span recording around the public entry points of each repro layer.

The benchmark never edits code under ``src/``.  Instead, a :class:`Tracer`
replaces each public function *where its callers look it up* (for example
``repro.experiments.figures.average_normalized_comm``, bound into the
figures module at import time) with a wrapper that records one span per
call, and puts every original back on exit.

A span is ``(id, name, start, end, parent, run, tag, attrs)``: ``parent``
is the enclosing span on the same thread, ``run`` names the benchmark pass
and ``tag`` identifies the serve request the span belongs to (set by the
quota check that opens every request).  Spans stay in memory and are
written once, by :meth:`Tracer.dump`, when the run ends.

The same mechanism in a lighter form (:class:`LaneProbe`) measures the
figure operations that the end-to-end lane metrics need in untraced runs:
one CPU-clock pair per call, no span tree.

Spans are timed on the wall clock (:data:`clock`); the end-to-end metrics
use the process CPU clock (:data:`cpu_clock`), which on a shared host does
not count the time other processes or the hypervisor hold the CPU.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "LaneProbe",
    "Span",
    "Tracer",
    "covered",
    "layer_self_times",
    "self_times",
    "strategy_family",
]

clock = time.perf_counter
#: CPU seconds of this process, all threads (CLOCK_PROCESS_CPUTIME_ID).
cpu_clock = time.process_time

#: The serve request a span belongs to: ``(client, sequence)``.
_REQUEST: "contextvars.ContextVar[Optional[Tuple[str, int]]]" = contextvars.ContextVar(
    "e2ebench_request", default=None
)


class Span:
    """One timed call of a wrapped function."""

    __slots__ = ("id", "name", "start", "end", "parent", "run", "tag", "attrs")

    def __init__(
        self,
        id: int,
        name: str,
        start: float,
        end: float,
        parent: Optional[int],
        run: str,
        tag: Optional[Tuple[str, int]] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.tag = tag
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "run": self.run,
            "tag": None if self.tag is None else list(self.tag),
            "attrs": {k: v for k, v in self.attrs.items() if _jsonable(v)},
        }


def _jsonable(value: Any) -> bool:
    return isinstance(value, (str, int, float, bool, type(None)))


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals* clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer (the span-name prefix before the first dot)."""
    own = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + own[span.id]
    return out


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod.attr"`` or ``"pkg.mod.Class.attr"`` -> (owner, attr)."""
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1]
    raise ImportError(f"cannot resolve {target!r}")


class _Patcher:
    """Swap attributes and put every original back, last first."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, target: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        owner, attr = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(make(raw.__func__))
        else:
            wrapped = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class LaneProbe:
    """Per-call CPU times of figure operations, for the untraced lane metrics.

    Wraps ``average_normalized_comm`` (one simulation cell) and
    ``mean_analysis_ratio`` (one point of a figure's Analysis curve) where
    the figures module looks them up.  Each cell call is also remembered
    with its arguments and result, so the output gate can re-run a sample
    of cells on the scalar oracle.  A *speed* probe (``speed.SpeedProbe``),
    if given, runs before each cell, outside the cell's timing.
    """

    CELL = "repro.experiments.figures.average_normalized_comm"
    ANALYSIS = "repro.experiments.figures.mean_analysis_ratio"

    def __init__(self, speed: Any = None) -> None:
        self.cells: List[Tuple[float, Tuple[Any, ...], Dict[str, Any], Any]] = []
        self.analysis: List[float] = []
        self._speed = speed
        self._patcher = _Patcher()

    def __enter__(self) -> "LaneProbe":
        def cell(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if self._speed is not None:
                    self._speed.tick()
                t = cpu_clock()
                result = fn(*args, **kwargs)
                self.cells.append((cpu_clock() - t, args, kwargs, result))
                return result

            return wrapper

        def point(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                t = cpu_clock()
                result = fn(*args, **kwargs)
                self.analysis.append(cpu_clock() - t)
                return result

            return wrapper

        self._patcher.wrap(self.CELL, cell)
        self._patcher.wrap(self.ANALYSIS, point)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patcher.restore()


# ---------------------------------------------------------------------------
# The tracer
# ---------------------------------------------------------------------------


def _strategy_name(factory: Any) -> str:
    name = getattr(factory, "name", None)
    return name if isinstance(name, str) else type(factory()).__name__


def strategy_family(factory: Any) -> str:
    """Kernel regime of a strategy factory's strategy, as docs/VECTORIZATION.md groups them."""
    return _family(_strategy_name(factory))


def _family(strategy: str) -> str:
    if strategy.endswith("2Phases"):
        return "two_phase"
    if strategy in ("DynamicOuter", "DynamicMatrix"):
        return "lockstep"
    return "analytic"


def _has_dynamic_model(models: Optional[Sequence[Any]]) -> bool:
    from repro.platform.speeds import StaticSpeedModel

    return any(m is not None and not isinstance(m, StaticSpeedModel) for m in models or ())


class Tracer:
    """Records spans around the public entry points of every layer.

    Use as a context manager; ``run`` labels the spans of one pass.
    """

    def __init__(self, run: str = "") -> None:
        self.run = run
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patcher = _Patcher()
        self._request_seq: Dict[str, int] = {}
        self._seq_lock = threading.Lock()

    # -- span plumbing ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sync(
        self,
        name: str,
        attrs: Optional[Callable[..., Dict[str, Any]]] = None,
        result_attrs: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                stack = self._stack()
                span_id = next(self._ids)
                parent = stack[-1] if stack else None
                stack.append(span_id)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = clock()
                    stack.pop()
                extra = attrs(*args, **kwargs) if attrs is not None else {}
                if result_attrs is not None:
                    extra.update(result_attrs(result))
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.run, _REQUEST.get(), extra)
                )
                return result

            return wrapper

        return make

    def _async(
        self, name: str, attrs: Callable[..., Dict[str, Any]], result_attrs: Callable[[Any], Dict[str, Any]]
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        # Coroutines interleave on one thread, so they never join the
        # per-thread parent stack; the request tag links them instead.
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            @functools.wraps(fn)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id = next(self._ids)
                start = clock()
                result = await fn(*args, **kwargs)
                extra = attrs(*args, **kwargs)
                extra.update(result_attrs(result))
                self.spans.append(
                    Span(span_id, name, start, clock(), None, self.run, _REQUEST.get(), extra)
                )
                return result

            return wrapper

        return make

    def _tag_request(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Every serve route checks its quota first: number the request there.

        The client runs a closed loop, so its k-th quota check is its k-th
        request on the wire.
        """

        @functools.wraps(fn)
        def wrapper(registry: Any, client: str, *args: Any, **kwargs: Any) -> Any:
            with self._seq_lock:
                seq = self._request_seq.get(client, 0)
                self._request_seq[client] = seq + 1
            _REQUEST.set((str(client), seq))
            return fn(registry, client, *args, **kwargs)

        return wrapper

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        sync = self._sync
        wrap = self._patcher.wrap

        def batch_attrs(factory: Any, platforms: Sequence[Any], **kw: Any) -> Dict[str, Any]:
            strategy = _strategy_name(factory)
            return {
                "strategy": strategy,
                "family": _family(strategy),
                "dynamic_speed": _has_dynamic_model(kw.get("speed_models")),
                "replicates": len(platforms),
            }

        cell = sync("experiments.cell")
        wrap("repro.experiments.figures.average_normalized_comm", cell)
        wrap("repro.experiments.runner.average_normalized_comm", cell)
        wrap("repro.experiments.figures.generate", sync("experiments.generate"))
        wrap("repro.experiments.figures.mean_analysis_ratio", sync("experiments.analysis"))
        wrap("repro.experiments.io.write_csv", sync("experiments.write_csv"))

        wrap("repro.experiments.runner.simulate_batch", sync("simulator.batch", batch_attrs))
        wrap("repro.experiments.runner.simulate", sync("simulator.scalar"))
        wrap("repro.experiments.faults.simulate_faulty", sync("faults.simulate"))

        beta = sync("analysis.optimal_beta")
        for module in ("repro.experiments.runner", "repro.experiments.figures", "repro.serve.protocol"):
            wrap(f"{module}.optimal_outer_beta", beta)
            wrap(f"{module}.optimal_matrix_beta", beta)
        wrap("repro.serve.protocol.AnalyticalQuery.evaluate", sync("analysis.evaluate"))

        wrap(
            "repro.store.cache.ResultStore.get",
            sync("store.get", lambda store, key, **kw: {"key": key}, lambda r: {"hit": r is not None}),
        )
        wrap(
            "repro.store.cache.ResultStore.put",
            sync("store.put", lambda store, key, payload, **kw: {"payload": payload}),
        )
        wrap(
            "repro.store.claims.ClaimRegistry.try_claim",
            sync("store.claim", lambda reg, fp: {"fp": fp}, lambda won: {"won": bool(won)}),
        )
        # Journal.append delegates to append_many, so one wrapper sees both.
        wrap(
            "repro.store.journal.Journal.append_many",
            sync("store.journal", lambda journal, event, fps, **kw: {"records": len(fps)}),
        )

        parse = sync("serve.parse")
        wrap("repro.serve.protocol.CellSpec.parse", parse)
        wrap("repro.serve.protocol.AnalyticalQuery.parse", parse)
        wrap("repro.serve.quotas.QuotaRegistry.allow", self._tag_request)
        wrap(
            "repro.serve.queueing.run_cells",
            sync("serve.run_cells", lambda requests, **kw: {"requests": list(requests)}),
        )
        wrap(
            "repro.serve.queueing.SimulationLane.submit",
            self._async(
                "serve.submit",
                lambda lane, cell: {"fp": cell.fingerprint()},
                lambda outcome: {"status": outcome.status},
            ),
        )
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patcher.restore()

    # -- output ---------------------------------------------------------------

    def dump(self, path: str, extra: Optional[Dict[str, Any]] = None) -> None:
        """Write every recorded span (and *extra* summary data) as JSON."""
        body = {"spans": [span.to_json() for span in self.spans]}
        if extra:
            body.update(extra)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)

