"""Content-addressed on-disk artifact cache.

The paper observes that "for a given input size, it is sufficient to
generate the schedule only once" — KTILER spends minutes scheduling and
then reuses the result for every subsequent run.  :class:`ArtifactStore`
generalizes that to every expensive, deterministic artifact of the
pipeline: memory traces, block dependency graphs, profiler tallies
(perf-table entries), the Algorithm 2 structure of each tiled cluster
(:class:`~repro.core.cluster_tile.ClusterStructure`), tiled schedules
(full :class:`~repro.core.app_tile.TilingResult` payloads) and
schedule replays.

Entries are addressed by ``(kind, key)`` where ``key`` is the sha256 of
a canonical fingerprint (see :mod:`repro.store.fingerprint`); content
addressing means a warm entry is *by construction* the same value a
recompute would produce, so cache hits preserve the repository's
bit-identical determinism contract.

Robustness properties, enforced by ``tests/test_store.py``:

* **atomic writes** — payloads land via temp file + ``os.replace``, so
  two concurrent writers (two CLI runs or two daemons sharing one
  cache directory) cannot interleave partial content;
  last-complete-write wins and both writes carry identical bytes
  anyway (same key = same content);
* **corruption fallback** — an unreadable, truncated or
  version-mismatched entry, or a payload its kind's decoder rejects,
  is reported with a :class:`RuntimeWarning` and treated as a miss
  (the caller recomputes and overwrites);
* **observability** — hits/misses/writes/corruption land in the
  tracer's metrics under ``store.*`` labelled by artifact kind.
"""

from __future__ import annotations

import itertools
import json
import os
import warnings
from typing import Callable, Dict, Optional

from repro.errors import ReproError
from repro.obs.tracer import NULL_TRACER
from repro.store.fingerprint import STORE_VERSION, content_key

#: Environment variable providing a default cache directory.
STORE_ENV_VAR = "KTILER_CACHE_DIR"

_MAGIC = "ktiler-artifact"

_temp_counter = itertools.count()

#: What a decoder raises on a payload of the wrong shape: a missing key
#: or index, a wrong type, a bad value, or a schedule or graph the
#: payload does not fit.
DECODE_ERRORS = (LookupError, TypeError, ValueError, AttributeError, ReproError)


class ArtifactStore:
    """A directory of content-addressed JSON artifacts."""

    #: Callers may skip fingerprinting entirely when a store is off.
    enabled = True

    def __init__(self, root, tracer=NULL_TRACER):
        self.root = str(root)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------
    def key_for(self, payload) -> str:
        """Content key of a fingerprint payload (STORE_VERSION included)."""
        return content_key({"store_version": STORE_VERSION, "key": payload})

    def path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, kind, key[:2], f"{key}.json")

    def _count(self, counter: str, kind: str) -> None:
        setattr(self, counter, getattr(self, counter) + 1)
        if self.tracer.enabled:
            self.tracer.metrics.inc(f"store.{counter}", 1, kind=kind)

    def _reject(self, kind: str, message: str) -> None:
        self._count("corrupt", kind)
        warnings.warn(
            f"artifact store: {message}; recomputing",
            RuntimeWarning,
            stacklevel=3,
        )

    def get(self, kind: str, key: str, decode: Optional[Callable] = None):
        """The stored payload, or ``decode(payload)``; None on a miss.

        An unreadable entry, a malformed envelope, and a payload that
        ``decode`` rejects (it raises one of :data:`DECODE_ERRORS` or
        returns None) all count ``corrupt``, warn, and read as a miss,
        so every kind shares one decode-or-miss path.
        """
        path = self.path(kind, key)
        try:
            with open(path, encoding="utf-8") as fh:
                envelope = json.load(fh)
        except FileNotFoundError:
            self._count("misses", kind)
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
            self._reject(kind, f"unreadable entry {path} ({exc})")
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("magic") != _MAGIC
            or envelope.get("store_version") != STORE_VERSION
            or "payload" not in envelope
        ):
            self._reject(kind, f"malformed entry {path}")
            return None
        value = envelope["payload"]
        if decode is not None:
            try:
                value = decode(value)
            except DECODE_ERRORS as exc:
                self._reject(kind, f"stale {kind} entry {path} ({exc!r})")
                return None
            if value is None:
                self._reject(kind, f"stale {kind} entry {path} (does not fit)")
                return None
        self._count("hits", kind)
        return value

    def put(self, kind: str, key: str, payload: Dict) -> None:
        """Atomically write a payload (temp file + rename)."""
        path = self.path(kind, key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        envelope = {
            "magic": _MAGIC,
            "store_version": STORE_VERSION,
            "kind": kind,
            "key": key,
            "payload": payload,
        }
        temp = os.path.join(
            directory, f".tmp-{os.getpid()}-{next(_temp_counter)}"
        )
        # json.dumps encodes in C; json.dump would stream the same bytes
        # through the pure-Python encoder.
        with open(temp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(envelope))
        os.replace(temp, path)
        self._count("writes", kind)


class NullStore:
    """Store disabled: every get misses, every put is dropped.

    Threading a store through the pipeline costs one attribute access
    when caching is off.
    """

    enabled = False
    root = None

    def key_for(self, payload) -> str:
        return content_key({"store_version": STORE_VERSION, "key": payload})

    def get(self, kind: str, key: str, decode=None) -> None:
        return None

    def put(self, kind: str, key: str, payload: Dict) -> None:
        pass


NULL_STORE = NullStore()


def resolve_store(
    store=None,
    cache_dir=None,
    no_cache: bool = False,
    tracer=NULL_TRACER,
):
    """Resolve a store: explicit store > --cache-dir > $KTILER_CACHE_DIR.

    ``no_cache=True`` disables caching even when the environment names a
    directory.  Returns :data:`NULL_STORE` when caching is off.
    """
    if no_cache:
        return NULL_STORE
    if store is not None:
        return store
    if cache_dir is None:
        cache_dir = os.environ.get(STORE_ENV_VAR, "").strip() or None
    if cache_dir is None:
        return NULL_STORE
    return ArtifactStore(cache_dir, tracer=tracer)
