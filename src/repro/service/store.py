"""File-based content-addressed result store.

A :class:`ResultStore` is a directory of tiny JSON records, one per
executed trial, keyed by the sha256 of :mod:`repro.service.keys` and
sharded by the key's first byte (``<root>/<k[:2]>/<k>.json``) so even
million-entry stores keep directory listings flat.  Records are written
through the versioned envelope of :func:`stored_record_to_dict` and land
**atomically**: the payload goes to a ``*.tmp`` sibling first and is
``os.replace``-d into place, so a crashed writer can never leave a
half-written entry — only a stray ``.tmp`` that :meth:`ResultStore.gc`
collects.  Every ``put`` call writes its own tmp name (pid plus a
per-process counter), so two writers of one key — two threads, two
processes sharing the store — never rename each other's tmp away.

The store is the cache behind ``Runner(cache=...)``, ``run_robustness
(..., cache=...)`` and the experiment service: repeated sweeps become
cache hits, CI warms it via ``actions/cache``, and a user re-running
Figure 2 pays the engine cost once per code version.

Reads are tolerant by design: a corrupt, truncated, mis-keyed or
version-skewed entry is a **miss**, never an exception — the engine
re-derives the record and overwrites the bad cell.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.runner import TrialRecord
from repro.core.errors import ReproError
from repro.core.serialization import SerializationError, decode, encode
from repro.service.keys import canonical_json


class StoreError(ReproError):
    """The result store could not be set up or written."""


#: Version of the on-disk envelope :class:`ResultStore` writes around
#: each record.  Bump on any incompatible change to the record encoding
#: of :mod:`repro.core.serialization` — the store treats entries with an
#: unknown version as misses and its ``gc`` collects them.
STORED_RECORD_VERSION = 1

#: Envelope ``kind`` tags (:attr:`repro.analysis.runner.TrialSpec.kind`).
RECORD_KINDS = ("trial", "robustness")


def stored_record_to_dict(key: str, kind: str, record: TrialRecord) -> dict:
    """The versioned envelope one result-store entry is written as."""
    if kind not in RECORD_KINDS:
        raise SerializationError(
            f"unknown stored record kind {kind!r}; choose from {RECORD_KINDS}"
        )
    return {
        "version": STORED_RECORD_VERSION,
        "key": key,
        "kind": kind,
        "record": encode(record),
    }


def stored_record_from_dict(payload: object) -> tuple[str, str, TrialRecord]:
    """Inverse of :func:`stored_record_to_dict`: ``(key, kind, record)``.

    Raises :class:`~repro.core.serialization.SerializationError` for
    anything but a well-formed envelope of this version.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            "stored record payload must be a dict, "
            f"got {type(payload).__name__}"
        )
    if payload.get("version") != STORED_RECORD_VERSION:
        raise SerializationError(
            f"unsupported stored record version {payload.get('version')!r}"
        )
    kind = payload.get("kind")
    if kind not in RECORD_KINDS:
        raise SerializationError(f"unknown stored record kind {kind!r}")
    key = payload.get("key")
    if not isinstance(key, str):
        raise SerializationError(
            f"stored record key must be a string, got {key!r}"
        )
    return key, kind, decode(TrialRecord, payload.get("record"))


#: A store key: lowercase hex, at least the shard prefix plus a few
#: characters (sha256 keys are 64).  Doubles as the path-traversal guard.
_KEY = re.compile(r"[0-9a-f]{8,}")

#: Per-process tmp-name counter (``next`` on it is atomic under the GIL).
_TMP_IDS = itertools.count()


@dataclass(frozen=True)
class StoreStats:
    """Disk footprint plus this process's hit/miss counters."""

    root: str
    entries: int
    bytes: int
    hits: int
    misses: int
    puts: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "entries": self.entries,
            "bytes": self.bytes,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class GcStats:
    """What one :meth:`ResultStore.gc` pass removed and kept."""

    removed_tmp: int
    removed_invalid: int
    kept: int

    @property
    def removed(self) -> int:
        return self.removed_tmp + self.removed_invalid


class ResultStore:
    """Sharded directory of content-addressed trial records.

    ``get``/``put`` speak :class:`~repro.analysis.runner.TrialRecord`
    s, not envelopes; the envelope — and the check that the entry on
    disk really belongs to the requested key — is internal.  Hit/miss/put
    counters are per-instance and in-memory: they describe *this* run's
    cache behavior (what the CLI and the service report), while
    ``entries``/``bytes`` in :meth:`stats` scan the directory.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._root = str(self.root)
        #: shard directories this instance has created (or found)
        self._shards: set[str] = set()

    # ------------------------------------------------------------------
    def _file(self, key: str) -> str:
        """``key``'s entry path as a string (the hot-path form of
        :meth:`path`)."""
        if not _KEY.fullmatch(key):
            raise StoreError(f"malformed store key {key!r}")
        return f"{self._root}{os.sep}{key[:2]}{os.sep}{key}.json"

    def path(self, key: str) -> Path:
        """Where ``key``'s record lives (two-hex-char shard dirs)."""
        return Path(self._file(key))

    def get(self, key: str):
        """The record stored under ``key``, or ``None`` on a miss.

        Corrupt/mis-keyed/version-skewed entries count as misses; the
        caller re-runs the trial and ``put`` overwrites the bad cell.
        """
        file = self._file(key)
        try:
            with open(file, "rb", buffering=0) as entry:
                payload = json.loads(entry.readall().decode("utf-8"))
            stored_key, _, record = stored_record_from_dict(payload)
        except (OSError, ValueError, SerializationError):
            self.misses += 1
            return None
        if stored_key != key:
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, record, kind: str = "trial") -> None:
        """Atomically store ``record`` under ``key``.

        ``kind`` tags the envelope with the trial's kind (``"trial"`` or
        ``"robustness"``, see :data:`RECORD_KINDS`).
        """
        payload = stored_record_to_dict(key, kind, record)
        file = self._file(key)
        data = canonical_json(payload).encode("utf-8")
        tmp = f"{file}.{os.getpid()}-{next(_TMP_IDS)}.tmp"
        try:
            self._write(tmp, data)
            os.replace(tmp, file)
        except OSError as exc:
            raise StoreError(f"cannot write store entry {key}: {exc}") from exc
        self.puts += 1

    def _write(self, tmp: str, data: bytes) -> None:
        """Write ``tmp`` in its shard, making the shard directory the
        first time this instance writes there — or again when ``gc``
        has pruned it since."""
        shard = os.path.dirname(tmp)
        if shard not in self._shards:
            os.makedirs(shard, exist_ok=True)
            self._shards.add(shard)
        try:
            out = open(tmp, "wb")
        except FileNotFoundError:
            os.makedirs(shard, exist_ok=True)
            out = open(tmp, "wb")
        with out:
            out.write(data)

    def contains(self, key: str) -> bool:
        """Whether ``key`` has an entry on disk (no envelope validation,
        no counter side effects — a cheap existence probe)."""
        return os.path.isfile(self._file(key))

    # ------------------------------------------------------------------
    def _entry_paths(self):
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir():
                yield from sorted(shard.iterdir())

    def stats(self) -> StoreStats:
        """Disk footprint plus this instance's counters."""
        entries = 0
        size = 0
        for path in self._entry_paths():
            if path.suffix == ".json":
                entries += 1
                try:
                    size += path.stat().st_size
                except OSError:
                    pass
        return StoreStats(
            root=str(self.root),
            entries=entries,
            bytes=size,
            hits=self.hits,
            misses=self.misses,
            puts=self.puts,
        )

    def gc(self) -> GcStats:
        """Collect garbage: stray ``.tmp`` files from crashed writers,
        and orphaned entries — corrupt JSON, unsupported envelope
        versions, or entries whose stored key does not match their
        filename (e.g. a hand-renamed file).  Valid entries are kept;
        emptied shard directories are removed."""
        removed_tmp = 0
        removed_invalid = 0
        kept = 0
        for path in list(self._entry_paths()):
            if path.name.endswith(".tmp"):
                path.unlink(missing_ok=True)
                removed_tmp += 1
                continue
            if path.suffix != ".json":
                path.unlink(missing_ok=True)
                removed_invalid += 1
                continue
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                stored_key, _, _ = stored_record_from_dict(payload)
            except (OSError, ValueError, SerializationError):
                path.unlink(missing_ok=True)
                removed_invalid += 1
                continue
            if stored_key != path.stem:
                path.unlink(missing_ok=True)
                removed_invalid += 1
                continue
            kept += 1
        if self.root.is_dir():
            for shard in list(self.root.iterdir()):
                if shard.is_dir() and not any(shard.iterdir()):
                    shard.rmdir()
        return GcStats(
            removed_tmp=removed_tmp,
            removed_invalid=removed_invalid,
            kept=kept,
        )
