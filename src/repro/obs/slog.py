"""Structured JSON event logs for the serve daemon.

One line per request — machine-parseable, schema-versioned like the
bench documents, replacing the stdlib handler's ad-hoc access log as
the daemon's primary record.  A line carries the request id, the
fingerprint it resolved to, the outcome, the phase timings recovered
from the request's span map, and the planner-pool queue wait:

    {"elapsed_ms": 12.4, "endpoint": "plan", "kind": "serve-request",
     "outcome": "ok", "phases_ms": {"profile": 6.1, "tile": 3.0},
     "queue_wait_ms": 0.2, "request_id": "9f4c...", ...}

Lines are emitted with sorted keys so logs diff cleanly and a grep for
``"kind": "serve-request"`` always finds them.  :func:`validate_slog`
is the write-side contract: every record is validated *before* it is
written, so a malformed record is a bug at the source, never a
surprise in a log pipeline.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Dict, IO, Optional

from repro.obs import doccheck

__all__ = [
    "SLOG_KIND",
    "SLOG_SCHEMA_VERSION",
    "SLOG_OUTCOMES",
    "SlogWriter",
    "make_record",
    "open_slog",
    "validate_slog",
]

SLOG_SCHEMA_VERSION = 1
SLOG_KIND = "serve-request"
SLOG_OUTCOMES = ("ok", "memo_hit", "coalesced", "timeout", "error")

_DOC = "slog record"

#: Required fields with their types (a bool is not a number here, and
#: a float field takes an int).
_REQUIRED = (
    ("schema_version", int),
    ("ts_unix", float),
    ("request_id", str),
    ("endpoint", str),
    ("outcome", str),
    ("status", int),
    ("elapsed_ms", float),
)
_KNOWN = frozenset(
    ("kind", "fingerprint", "preset", "served", "queue_wait_ms",
     "phases_ms", "error")
    + tuple(key for key, _ in _REQUIRED)
)


def _non_negative(value: Any) -> bool:
    return isinstance(value, (int, float)) and value >= 0


def validate_slog(record: Dict[str, Any]) -> Dict[str, Any]:
    """Raise ``ValueError`` unless ``record`` is a valid log line."""
    doccheck.header(record, _DOC, SLOG_SCHEMA_VERSION, SLOG_KIND)
    for key, expected in _REQUIRED:
        value = record.get(key)
        if isinstance(value, bool) or not isinstance(
            value, (int, float) if expected is float else expected
        ):
            doccheck.fail(_DOC, f"{key!r} must be {expected.__name__}")
    if record["outcome"] not in SLOG_OUTCOMES:
        doccheck.fail(_DOC, f"outcome {record['outcome']!r} unknown")
    doccheck.require(record["request_id"], _DOC, "request_id empty")
    doccheck.require(record["elapsed_ms"] >= 0, _DOC, "elapsed_ms negative")
    if not _KNOWN.issuperset(record):
        doccheck.fail(_DOC, f"unknown fields: {sorted(set(record) - _KNOWN)}")
    phases = record.get("phases_ms")
    if phases is not None and (
        not isinstance(phases, dict)
        or not all(_non_negative(v) for v in phases.values())
    ):
        doccheck.fail(_DOC, "phases_ms must map phase -> ms >= 0")
    queue_wait = record.get("queue_wait_ms")
    if queue_wait is not None and not _non_negative(queue_wait):
        doccheck.fail(_DOC, "queue_wait_ms must be >= 0")
    error = record.get("error")
    if error is not None and not (
        isinstance(error, dict) and isinstance(error.get("code"), str)
    ):
        doccheck.fail(_DOC, "error must be {'code': str, ...}")
    return record


def make_record(
    *,
    request_id: str,
    endpoint: str,
    outcome: str,
    status: int,
    elapsed_ms: float,
    ts_unix: Optional[float] = None,
    fingerprint: Optional[str] = None,
    preset: Optional[str] = None,
    served: Optional[str] = None,
    queue_wait_ms: Optional[float] = None,
    phases_ms: Optional[Dict[str, float]] = None,
    error: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build and validate one structured log record."""
    record: Dict[str, Any] = {
        "schema_version": SLOG_SCHEMA_VERSION,
        "kind": SLOG_KIND,
        "ts_unix": round(time.time() if ts_unix is None else ts_unix, 6),
        "request_id": request_id,
        "endpoint": endpoint,
        "outcome": outcome,
        "status": int(status),
        "elapsed_ms": round(float(elapsed_ms), 3),
    }
    if fingerprint is not None:
        record["fingerprint"] = fingerprint
    if preset is not None:
        record["preset"] = preset
    if served is not None:
        record["served"] = served
    if queue_wait_ms is not None:
        record["queue_wait_ms"] = round(float(queue_wait_ms), 3)
    if phases_ms:
        record["phases_ms"] = {
            phase: round(float(ms), 3)
            for phase, ms in sorted(phases_ms.items())
            if ms > 0
        }
    if error is not None:
        record["error"] = error
    return validate_slog(record)


class SlogWriter:
    """Thread-safe one-line-per-record JSON writer."""

    def __init__(self, stream: IO[str]):
        self._stream = stream
        self._lock = threading.Lock()

    def emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(validate_slog(record), sort_keys=True)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


def open_slog(target: str) -> SlogWriter:
    """``"-"`` means stderr (alongside the daemon's own chatter);
    anything else is an append-mode file path."""
    if target == "-":
        return SlogWriter(sys.stderr)
    return SlogWriter(open(target, "a", encoding="utf-8"))
