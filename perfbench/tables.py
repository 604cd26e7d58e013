"""Arithmetic of the results: percentiles and the per-layer tables.

**Percentiles.**  A percentile is the nearest-rank sample, so it is a value
that was measured.  It is reported only when at least :data:`MIN_BEYOND`
samples lie beyond it; a p99 therefore needs 1,000 samples.

**Offline table.**  The basis is the parent's wall time.  Parent spans
split it into ``experiments.runner`` (``run_spec`` self time, including the
merge), ``data``, ``experiments.parallel.share`` and
``experiments.parallel.wait`` (time blocked in ``WorkerPool.map_chunks``),
plus the benchmark's own ``loadgen.client`` bookkeeping between calls.
The pool workers' layers add up against ``workers × wait``: only worker
time inside the parent's waits counts, split by self time, and the worker
time outside chunks is ``experiments.parallel.idle``.  A worker layer's
``self_ms`` is its summed worker time; its ``share`` is that time divided
by ``workers`` (its equivalent in parent wall time) over the basis, so
every share has one basis and the rows other than ``wait`` add up to 1
with ``unattributed``.

**Serve table.**  The basis is the sum of every connection's wall time.
It splits into ``loadgen.client`` (the generator's request build and
response parse) and the requests in flight.  A request's time splits into
``serve.http.transport`` (client latency minus the server's
``do_GET``/``do_POST``/``do_DELETE`` time) and the self times of the
server spans below the handler.  Server spans outside any timed request,
such as the matchmaker's background tick, are counted apart.

``unattributed`` is the basis minus every row's share of it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from perfbench.spans import Interval, Span, intersect, length, self_intervals, union

__all__ = [
    "ERROR_LAYERS",
    "MIN_BEYOND",
    "LayerTable",
    "beyond",
    "offline_table",
    "percentile",
    "serve_table",
    "supported",
]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Layers that report ``errors``: wrapped calls that raise serve or matchmaking errors.
ERROR_LAYERS = frozenset(
    {
        "registry",
        "serve.http.handler",
        "serve.service",
        "serve.sessions",
        "serve.sessions.round",
        "serve.scheduler",
        "serve.cache",
        "matchmaking.matchmaker",
        "matchmaking.queue",
        "matchmaking.condense",
    }
)

_PARENT_LAYERS = frozenset(
    {
        "loadgen.client",
        "experiments.runner",
        "data",
        "experiments.parallel.share",
        "experiments.parallel.wait",
    }
)


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``count`` samples."""
    return max(1, math.ceil(q / 100.0 * count - 1e-9))


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q``-th percentile."""
    return count - _rank(count, q) if count else 0


def supported(count: int, q: float) -> bool:
    """Whether ``count`` samples support reporting the ``q``-th percentile."""
    return beyond(count, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values`` (a measured sample)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), q) - 1]


@dataclass
class Row:
    """One layer: call count, self time and its part of the basis (ns), calls that raised.

    ``basis_ns`` equals ``self_ns`` except for offline worker layers, whose
    time is spread over ``workers`` processes and counts ``1/workers``.
    """

    calls: int = 0
    self_ns: float = 0.0
    basis_ns: float = 0.0
    errors: int = 0


@dataclass
class LayerTable:
    """Self time per layer against one basis (all times in nanoseconds).

    ``worker_layers`` are the offline rows measured in the pool workers
    (shown indented under the parent's wait, which they decompose).
    """

    basis_ns: float
    rows: dict[str, Row] = field(default_factory=dict)
    unattributed_ns: float = 0.0
    extras: dict[str, float] = field(default_factory=dict)
    worker_layers: frozenset = frozenset()
    background_ns: float = 0.0

    def share(self, layer: str) -> float:
        row = self.rows.get(layer)
        if row is None or self.basis_ns <= 0:
            return 0.0
        return row.basis_ns / self.basis_ns

    @property
    def unattributed_share(self) -> float:
        return self.unattributed_ns / self.basis_ns if self.basis_ns > 0 else 0.0

    def summed_shares(self) -> float:
        """Shares of the rows that partition the basis, plus ``unattributed``.

        The offline ``experiments.parallel.wait`` row is left out: the
        worker rows and ``experiments.parallel.idle`` partition it.
        """
        return self.unattributed_share + sum(
            self.share(layer) for layer in self.rows if layer != "experiments.parallel.wait"
        )

    def adds_up(self, tolerance: float = 1e-9) -> bool:
        """Whether the partitioning rows and ``unattributed`` sum to the basis."""
        return abs(self.summed_shares() - 1.0) <= tolerance

    def metrics(self, layers: Iterable[str]) -> dict[str, float]:
        """``<layer>.calls`` / ``.self_ms`` / ``.share`` (and ``.errors``) for every layer named."""
        out: dict[str, float] = {}
        for layer in layers:
            row = self.rows.get(layer, Row())
            out[f"{layer}.calls"] = row.calls
            out[f"{layer}.self_ms"] = row.self_ns / 1e6
            out[f"{layer}.share"] = self.share(layer)
            if layer in ERROR_LAYERS:
                out[f"{layer}.errors"] = row.errors
        out["unattributed.share"] = self.unattributed_share
        out.update(self.extras)
        return out

    def render(self, title: str, layers: Sequence[str]) -> str:
        """An aligned text table: calls, self ms, µs per call, share of the basis.

        Worker rows (indented) show time summed over the pool's workers and
        add the share of ``workers × wait`` they take.
        """
        wait = self.rows.get("experiments.parallel.wait", Row()).basis_ns
        lines = [title, f"  basis {self.basis_ns / 1e6:.3f} ms"]
        header = (
            f"  {'layer':34s} {'calls':>8s} {'self_ms':>12s} {'us/call':>10s} {'share':>8s}"
            f" {'of wait':>8s}"
        )
        lines += [header, "  " + "-" * (len(header) - 2)]
        for layer in layers:
            row = self.rows.get(layer)
            if row is None or (row.calls == 0 and row.self_ns == 0):
                continue
            worker = layer in self.worker_layers
            per_call = row.self_ns / row.calls / 1e3 if row.calls else 0.0
            of_wait = f" {row.basis_ns / wait:8.4f}" if worker and wait else ""
            errors = f"  errors={row.errors}" if row.errors else ""
            lines.append(
                f"  {('  ' if worker else '') + layer:34s} {row.calls:8d} {row.self_ns / 1e6:12.3f} "
                f"{per_call:10.1f} {self.share(layer):8.4f}{of_wait}{errors}"
            )
        lines.append(
            f"  {'unattributed':34s} {'':8s} {self.unattributed_ns / 1e6:12.3f} "
            f"{'':10s} {self.unattributed_share:8.4f}"
        )
        for name, value in self.extras.items():
            lines.append(f"  {name:34s} {value:.4f}")
        if self.background_ns:
            lines.append(f"  (server spans outside timed requests: {self.background_ns / 1e6:.3f} ms)")
        lines.append(f"  shares + unattributed = {self.summed_shares():.6f}")
        return "\n".join(lines)


def _add(rows: dict[str, Row], span: Span, self_ns: float, processes: int = 1) -> None:
    row = rows.setdefault(span.name, Row())
    row.calls += 1
    row.self_ns += self_ns
    row.basis_ns += self_ns / processes
    row.errors += int(span.failed)


def offline_table(
    spans: Sequence[Span],
    *,
    parent_pid: int,
    windows: Sequence[Interval],
    workers: int,
) -> LayerTable:
    """The offline table over the parent-time ``windows`` (the basis).

    ``spans`` holds the parent's spans and the worker spans shipped back
    with each chunk; ``workers`` is the pool size.
    """
    windows = union(windows)
    basis = length(windows)
    parent = [span for span in spans if span.pid == parent_pid]
    worker = [span for span in spans if span.pid != parent_pid]
    rows: dict[str, Row] = {}
    parent_self = self_intervals(parent)
    waits: list[Interval] = []
    for span in parent:
        if intersect([(span.start, span.end)], windows):
            inside = intersect(parent_self[span.key], windows)
            _add(rows, span, length(inside))
            if span.name == "experiments.parallel.wait":
                waits.extend(inside)
    attributed = sum(row.basis_ns for row in rows.values())
    waits = union(waits)
    wait_ns = length(waits)
    worker_self = self_intervals(worker)
    chunk_cover: dict[int, list[Interval]] = defaultdict(list)
    worker_rows: dict[str, Row] = {}
    for span in worker:
        if not intersect([(span.start, span.end)], waits):
            continue
        if span.name == "experiments.parallel.chunk":
            chunk_cover[span.pid].append((span.start, span.end))
        else:
            _add(worker_rows, span, length(intersect(worker_self[span.key], waits)), workers)
    busy = sum(length(intersect(cover, waits)) for cover in chunk_cover.values())
    unattributed = basis - attributed
    if wait_ns:
        idle = workers * wait_ns - busy
        worker_rows["experiments.parallel.idle"] = Row(
            calls=len(chunk_cover), self_ns=idle, basis_ns=idle / workers
        )
        # The wait is replaced by its decomposition; what the worker rows
        # leave of it is chunk time outside every timed layer.
        unattributed += wait_ns - sum(row.basis_ns for row in worker_rows.values())
    for layer, row in worker_rows.items():
        target = rows.setdefault(layer, Row())
        target.calls += row.calls
        target.self_ns += row.self_ns
        target.basis_ns += row.basis_ns
        target.errors += row.errors
    table = LayerTable(
        basis_ns=basis,
        rows=rows,
        unattributed_ns=unattributed,
        worker_layers=frozenset(worker_rows) - _PARENT_LAYERS,
    )
    table.extras["experiments.parallel.efficiency"] = (
        busy / (workers * wait_ns) if wait_ns else 0.0
    )
    return table


def serve_table(
    client_spans: Sequence[Span],
    server_spans: Sequence[Span],
    *,
    basis_ns: float,
    window: Interval,
) -> LayerTable:
    """The serve table: connection time split into client, transport, server layers.

    ``client_spans`` are the generator's ``loadgen.client`` spans and one
    ``request`` span per request in flight; ``server_spans`` are the
    server process's spans.  Request trees are the handler spans that
    start inside ``window``.
    """
    rows: dict[str, Row] = {}
    in_flight = 0
    requests = 0
    for span in client_spans:
        if span.name == "request":
            in_flight += span.duration
            requests += 1
        else:
            _add(rows, span, span.duration)
    start, end = window
    children: dict[object, list[Span]] = defaultdict(list)
    for span in server_spans:
        children[span.parent].append(span)
    roots = [
        span
        for span in children[None]
        if span.name == "serve.http.handler" and start <= span.start <= end
    ]
    tree: list[Span] = []
    stack = list(roots)
    while stack:
        span = stack.pop()
        tree.append(span)
        stack.extend(children.get(span.key, ()))
    own = self_intervals(tree)
    for span in tree:
        _add(rows, span, length(own[span.key]))
    handler_total = sum(span.duration for span in roots)
    transport = in_flight - handler_total
    rows["serve.http.transport"] = Row(calls=requests, self_ns=transport, basis_ns=transport)
    attributed = sum(row.basis_ns for row in rows.values())
    tree_keys = {span.key for span in tree}
    background = sum(
        length(own_parts)
        for key, own_parts in self_intervals(
            [span for span in server_spans if span.key not in tree_keys]
        ).items()
    )
    table = LayerTable(
        basis_ns=basis_ns,
        rows=rows,
        unattributed_ns=basis_ns - attributed,
        background_ns=background,
    )
    scheduler = [span for span in tree if span.name == "serve.scheduler"]
    steps = sum(1 for span in scheduler if span.tag is None)
    queued = sum(1 for span in scheduler if span.tag == "submit_step")
    if "serve.scheduler" in rows:
        rows["serve.scheduler"].calls = steps
    table.extras["serve.scheduler.queued_ratio"] = queued / steps if steps else 0.0
    return table
