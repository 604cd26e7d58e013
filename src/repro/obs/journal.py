"""Structured run journal: newline-delimited JSON event records.

An observability-enabled run appends one JSON object per event to a
*journal* — an append-only ``.jsonl`` stream that survives the process
and can be charted, diffed, or summarized (``dygroups trace summarize``).

Record schema (:data:`SCHEMA_VERSION` 1) — every record carries

* ``ts``    — seconds since the journal was opened (monotonic clock);
* ``seq``   — per-journal monotonically increasing integer;
* ``run``   — the run id the journal was opened with;
* ``event`` — one of :data:`EVENTS`;

plus event-specific fields (round index, gain value, span duration, …).
The first record is always ``journal_open`` (carrying ``schema``, the
wall-clock ``utc`` timestamp, and the ``pid``) and the last, when the
journal is closed cleanly, is ``journal_close`` — so trajectories can be
aligned across machines and truncated journals detected.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import IO, Any, Iterator

__all__ = [
    "EVENTS",
    "SCHEMA_VERSION",
    "Journal",
    "new_run_id",
    "iter_journal",
    "read_journal",
]

#: Journal record schema version (bump on incompatible field changes).
SCHEMA_VERSION = 1

#: Every event kind the instrumented stack emits.
EVENTS: tuple[str, ...] = (
    "journal_open",
    "journal_close",
    "run_start",
    "run_end",
    "round_start",
    "round_end",
    "propose",
    "gain",
    "skill_update",
    "spec_start",
    "spec_end",
    "sweep_point",
    "parallel_start",
    "parallel_chunk",
    "parallel_end",
    "pool_start",
    "pool_stop",
    "span",
    "lint",
    "serve_start",
    "serve_stop",
    "http_request",
    "cohort_create",
    "cohort_round",
    "cohort_delete",
    "cohort_evict",
    "participant_join",
    "participant_leave",
    "participant_expire",
    "cohort_condense",
    "sanitizer.order_inversion",
    "sanitizer.blocking_call",
)

_RUN_COUNTER = itertools.count(1)


def new_run_id() -> str:
    """A process-unique run id (wall time + pid + counter; no RNG drawn)."""
    return f"{int(time.time()):x}-{os.getpid():x}-{next(_RUN_COUNTER):x}"


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars so journal emission never raises on them."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"journal field of type {type(value).__name__} is not JSON-serializable")


class Journal:
    """Append-only NDJSON event sink.

    Accepts either a path (opened in append mode, closed by
    :meth:`close`) or any object with a ``write`` method (left open —
    the caller owns it).  Usable as a context manager.
    """

    def __init__(self, sink: "str | Path | IO[str]", *, run_id: str | None = None) -> None:
        self.run_id = run_id if run_id is not None else new_run_id()
        self._seq = 0
        self._t0 = time.perf_counter()
        self._closed = False
        # Serve emits from many HTTP worker threads into one journal; the
        # lock keeps seq assignment and the stream write atomic per
        # record.  A *plain* stdlib RLock, deliberately outside the
        # sanitizer's view: the sanitizer itself reports through the
        # journal, and close() re-enters emit().
        self._lock = threading.RLock()
        if hasattr(sink, "write"):
            self.path: Path | None = None
            self._stream: IO[str] = sink  # type: ignore[assignment]
            self._owns_stream = False
        else:
            self.path = Path(sink)  # type: ignore[arg-type]
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._stream = self.path.open("a", encoding="utf-8")
            self._owns_stream = True
        self.emit(
            "journal_open",
            schema=SCHEMA_VERSION,
            utc=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            pid=os.getpid(),
        )

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one event record; returns the record that was written.

        Raises:
            ValueError: if the journal is already closed, or a field
                shadows one of the reserved record keys
                (``ts``/``seq``/``run``/``event``).
        """
        reserved = fields.keys() & {"ts", "seq", "run", "event"}
        if reserved:
            raise ValueError(f"journal fields shadow reserved keys: {sorted(reserved)}")
        with self._lock:
            if self._closed:
                raise ValueError("cannot emit to a closed journal")
            record: dict[str, Any] = {
                "ts": round(time.perf_counter() - self._t0, 9),
                "seq": self._seq,
                "run": self.run_id,
                "event": event,
            }
            record.update(fields)
            self._seq += 1
            self._stream.write(json.dumps(record, separators=(",", ":"), default=_jsonable) + "\n")
            return record

    def flush(self) -> None:
        """Flush the underlying stream (no-op after :meth:`close`)."""
        with self._lock:
            if not self._closed:
                self._stream.flush()

    def close(self) -> None:
        """Emit ``journal_close`` and release the stream (idempotent)."""
        with self._lock:  # RLock: close() re-enters emit() under it
            if self._closed:
                return
            self.emit("journal_close", records=self._seq + 1)
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
            self._closed = True

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        target = str(self.path) if self.path is not None else "<stream>"
        return f"Journal(run_id={self.run_id!r}, sink={target!r}, records={self._seq})"


def iter_journal(source: "str | Path | IO[str]") -> Iterator[dict[str, Any]]:
    """Yield journal records from a ``.jsonl`` path or open text stream.

    Blank lines are skipped.

    Raises:
        ValueError: on a malformed line (with its 1-based line number) or
            a record that is not a JSON object.
    """
    if hasattr(source, "read"):
        lines: Iterator[str] = iter(source)  # type: ignore[arg-type]
    else:
        lines = iter(Path(source).read_text(encoding="utf-8").splitlines())  # type: ignore[arg-type]
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"journal line {number} is not valid JSON: {error}") from error
        if not isinstance(record, dict):
            raise ValueError(f"journal line {number} is not a JSON object")
        yield record


def read_journal(source: "str | Path | IO[str]") -> list[dict[str, Any]]:
    """Read a whole journal into a list of records (see :func:`iter_journal`)."""
    return list(iter_journal(source))
