"""Content-addressed artifact cache for repeated experiment stages.

Every experiment sweep rebuilds the same inputs over and over: the same
scenario graph for each (radio, parameter, drop-rate) arm, the same k-hop
neighbourhood tables for each run on that graph, the same Voronoi flood
for each downstream ablation.  The cache memoizes those artifacts under a
key derived purely from *content* — the graph's
:meth:`~repro.network.graph.SensorNetwork.content_hash`, a stable digest
of the parameters, and the stage name — so a hit is correct by
construction: identical key means identical inputs means identical
artifact.

Two tiers:

* an in-memory LRU (``max_entries``) shared by everything in the process;
* an optional on-disk store (``.repro_cache/`` by default when enabled)
  with a byte-size cap, evicting oldest files first.  Disk keys embed
  :data:`CACHE_VERSION`; bumping the version orphans every stale entry
  (they simply stop matching and age out under the size cap).

The cache never invalidates by time — content-addressed keys cannot go
stale while the code that produced them is unchanged, which is exactly
what :data:`CACHE_VERSION` asserts.

**Integrity.**  Every disk entry is stored as a small header (format
magic + the sha256 of the pickled payload) followed by the payload, and
the digest is re-verified on *every* disk read.  An entry that fails the
check — bit rot, a torn write, deliberate chaos-harness corruption — is
never deserialized: it is moved into a ``quarantine/`` subdirectory
(kept, not deleted, so corruption can be inspected post-mortem), counted
per stage, reported through ``tracer.on_quarantine``, and the lookup
becomes a miss that rebuilds and republishes the artifact.  ``fsck``
performs the same verification over the whole store offline
(``python -m repro fsck DIR``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import os
import pickle
from collections import OrderedDict
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

__all__ = ["ArtifactCache", "CACHE_VERSION", "ARTIFACT_MAGIC",
           "stable_digest", "encode_artifact", "decode_artifact"]

#: Bump when a cached artifact's *meaning* changes (pipeline semantics,
#: serialization layout).  Old disk entries stop matching immediately.
#: Version 2: disk entries gained the digest-verified integrity header.
#: Version 3: the ``"voronoi"`` artifact holds a sparse flood table in
#: place of the dense ``dist``/``parent`` matrices.
#: Version 4: the ``"voronoi"`` artifact holds its records as CSR arrays
#: and ``cell`` as an int64 array; ``"shard:flood"`` entries lost ``best``.
#: Version 5: ``"shard:flood"`` entries hold the batch's sites and flood
#: table (parents included); ``"shard:paths"`` entries are no longer written.
#: Sharded runs now share the ``"voronoi"`` entry and write no
#: ``"shard:flood"`` entries; no stage's meaning changed, so still 5.
#: Version 6: the ``Loop`` records inside ``"serve:result"`` entries pickle
#: without ``nodes`` and ``edges`` (derived from ``ordered`` on read).
CACHE_VERSION = 6

#: Disk-entry format magic; the trailing newline keeps the header
#: greppable (``head -c 71`` shows magic + digest).
ARTIFACT_MAGIC = b"RART2\n"
_DIGEST_LEN = 64  # sha256 hex
_HEADER_LEN = len(ARTIFACT_MAGIC) + _DIGEST_LEN + 1

_DEFAULT_MAX_ENTRIES = 256
_DEFAULT_MAX_DISK_BYTES = 512 * 1024 * 1024


def _canonical(obj: Any) -> str:
    """A deterministic text form of *obj* for hashing.

    Covers the vocabulary cache keys are built from: primitives,
    sequences, mappings, enums, dataclasses, numpy arrays, and plain
    objects with a ``__dict__`` (radio models).  Floats go through
    ``repr`` (round-trip exact), arrays through a digest of their bytes.
    """
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return repr(obj)
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, np.ndarray):
        return (f"ndarray({obj.dtype},{obj.shape},"
                f"{hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()})")
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = ",".join(
            f"{f.name}={_canonical(getattr(obj, f.name))}"
            for f in dataclasses.fields(obj)
        )
        return f"{type(obj).__name__}({fields})"
    if isinstance(obj, (tuple, list)):
        return "[" + ",".join(_canonical(v) for v in obj) + "]"
    if isinstance(obj, (set, frozenset)):
        return "{" + ",".join(sorted(_canonical(v) for v in obj)) + "}"
    if isinstance(obj, dict):
        items = ",".join(
            f"{_canonical(k)}:{_canonical(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if hasattr(obj, "__dict__"):
        items = ",".join(
            f"{k}={_canonical(v)}" for k, v in sorted(vars(obj).items())
        )
        return f"{type(obj).__name__}({items})"
    raise TypeError(f"cannot build a stable cache key from {type(obj)!r}")


def encode_artifact(value: Any) -> bytes:
    """Serialize *value* with its integrity header.

    Layout: ``RART2\\n`` + 64 hex chars of ``sha256(payload)`` + ``\\n``
    + the pickled payload.  The digest covers exactly the bytes that will
    be unpickled, so a verified read can never deserialize rotten data.
    """
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    return ARTIFACT_MAGIC + digest + b"\n" + payload


def decode_artifact(blob: bytes) -> Tuple[str, Optional[bytes]]:
    """``(status, payload)`` for a raw disk entry.

    ``"ok"`` — header present and digest matches; ``"corrupt"`` —
    anything else (foreign/legacy format, truncated header, torn payload,
    flipped bits).  The payload is returned only on ``"ok"``.
    """
    if not blob.startswith(ARTIFACT_MAGIC) or len(blob) < _HEADER_LEN \
            or blob[_HEADER_LEN - 1:_HEADER_LEN] != b"\n":
        return "corrupt", None
    digest = blob[len(ARTIFACT_MAGIC):len(ARTIFACT_MAGIC) + _DIGEST_LEN]
    payload = blob[_HEADER_LEN:]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
        return "corrupt", None
    return "ok", payload


def _stage_of(key: str) -> str:
    """The stage name embedded in a versioned cache key/file stem."""
    return key.rsplit("-", 1)[0]


def stable_digest(*parts: Any) -> str:
    """SHA-256 digest over the canonical form of *parts*.

    Process- and run-independent: the same logical inputs always produce
    the same digest, which is what lets the on-disk tier be shared across
    worker processes and sessions.
    """
    payload = ";".join(_canonical(p) for p in parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ArtifactCache:
    """Two-tier (memory LRU + optional disk) content-addressed store.

    Usage::

        cache = ArtifactCache(disk_dir=".repro_cache")
        indices = cache.get_or_build(
            "indices", (network.content_hash(), params),
            lambda: compute_indices(network, params),
        )

    ``stats()`` reports per-stage hit/miss counts; passing ``tracer=`` to
    :meth:`get_or_build` additionally streams each lookup into the
    observability layer.
    """

    def __init__(self, max_entries: int = _DEFAULT_MAX_ENTRIES,
                 disk_dir: Optional[os.PathLike] = None,
                 max_disk_bytes: int = _DEFAULT_MAX_DISK_BYTES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.max_disk_bytes = max_disk_bytes
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._hits: Dict[str, int] = {}
        self._misses: Dict[str, int] = {}
        self._quarantined: Dict[str, int] = {}

    # -- keys ---------------------------------------------------------------

    @staticmethod
    def make_key(stage: str, key_parts: Any) -> str:
        """The full versioned cache key for *stage* and *key_parts*."""
        return f"{stage}-{stable_digest(CACHE_VERSION, stage, key_parts)}"

    # -- lookups ------------------------------------------------------------

    def lookup(self, stage: str, key_parts: Any,
               tracer=None) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``(stage, key_parts)`` without building.

        The counted half of :meth:`get_or_build`, exposed for callers —
        the serving layer foremost — that decide *whether* to publish an
        artifact after computing it (a failed batch task publishes
        nothing).  The lookup
        is counted per stage and reported through ``tracer.on_cache``
        exactly like :meth:`get_or_build`.
        """
        key = self.make_key(stage, key_parts)
        hit, value = self._lookup(key, stage=stage, tracer=tracer)
        if hit:
            self._hits[stage] = self._hits.get(stage, 0) + 1
        else:
            self._misses[stage] = self._misses.get(stage, 0) + 1
        if tracer is not None:
            tracer.on_cache(stage, hit)
        return hit, value

    def put(self, stage: str, key_parts: Any, value: Any) -> None:
        """Publish *value* under ``(stage, key_parts)`` in both tiers.

        Not counted as a lookup; pairs with :meth:`lookup` for callers
        that build conditionally.
        """
        self._store(self.make_key(stage, key_parts), value)

    def get_or_build(self, stage: str, key_parts: Any,
                     build: Callable[[], Any], tracer=None) -> Any:
        """Return the cached artifact for ``(stage, key_parts)``, building
        and storing it on a miss.

        The lookup (hit or miss) is counted per stage and, when *tracer*
        is given, reported via ``tracer.on_cache`` so the run's
        :class:`~repro.observability.metrics.MetricsReport` carries the
        hit rate.
        """
        hit, value = self.lookup(stage, key_parts, tracer=tracer)
        if hit:
            return value
        value = build()
        self.put(stage, key_parts, value)
        return value

    def _lookup(self, key: str, stage: Optional[str] = None,
                tracer=None) -> Tuple[bool, Any]:
        if key in self._entries:
            self._entries.move_to_end(key)
            return True, self._entries[key]
        if self.disk_dir is not None:
            path = self.disk_dir / f"{key}.pkl"
            if path.is_file():
                try:
                    blob = path.read_bytes()
                except OSError:  # pragma: no cover - concurrent eviction
                    return False, None
                status, payload = decode_artifact(blob)
                if status == "ok":
                    try:
                        value = pickle.loads(payload)
                    except Exception:  # noqa: BLE001 - digest passed but
                        # the pickle itself is unloadable (e.g. a class
                        # renamed since the entry was written)
                        status = "corrupt"
                    else:
                        self._remember(key, value)
                        return True, value
                # Digest mismatch, foreign format, or torn write: the
                # entry is untrustworthy.  Quarantine it (never silently
                # deserialize, never destroy the evidence) and miss — the
                # caller rebuilds and republishes under the same key.
                self._quarantine_entry(path, stage or _stage_of(key),
                                       tracer=tracer)
        return False, None

    def _quarantine_entry(self, path: Path, stage: str, tracer=None) -> None:
        try:
            qdir = self.quarantine_dir
            qdir.mkdir(parents=True, exist_ok=True)
            path.replace(qdir / path.name)
        except OSError:  # pragma: no cover - permissions / races
            try:
                path.unlink()
            except OSError:
                pass
        self._quarantined[stage] = self._quarantined.get(stage, 0) + 1
        if tracer is not None:
            tracer.on_quarantine(stage)

    def _store(self, key: str, value: Any) -> None:
        self._remember(key, value)
        if self.disk_dir is not None:
            path = self.disk_dir / f"{key}.pkl"
            tmp = path.with_suffix(".tmp%d" % os.getpid())
            try:
                tmp.write_bytes(encode_artifact(value))
                tmp.replace(path)  # atomic publish
            except OSError:  # pragma: no cover - disk full / permissions
                tmp.unlink(missing_ok=True)
                return
            self._enforce_disk_cap()

    def _remember(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    def _enforce_disk_cap(self) -> None:
        assert self.disk_dir is not None
        files = sorted(
            (p for p in self.disk_dir.glob("*.pkl")),
            key=lambda p: p.stat().st_mtime,
        )
        total = sum(p.stat().st_size for p in files)
        while files and total > self.max_disk_bytes:
            oldest = files.pop(0)
            try:
                total -= oldest.stat().st_size
                oldest.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                pass

    # -- integrity ----------------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved (``<disk_dir>/quarantine``)."""
        if self.disk_dir is None:
            raise ValueError("quarantine requires a disk-backed cache")
        return self.disk_dir / "quarantine"

    @property
    def quarantined(self) -> Dict[str, int]:
        """Per-stage count of entries quarantined by this instance."""
        return dict(self._quarantined)

    def fsck(self, deep: bool = False, quarantine: bool = True,
             tracer=None) -> Dict[str, int]:
        """Verify every on-disk entry's integrity header and digest.

        ``deep`` additionally unpickles each verified payload (catching
        entries whose bytes are intact but whose pickle no longer loads).
        Corrupt entries are quarantined unless ``quarantine=False`` (a
        dry run).  Returns ``{"ok": .., "corrupt": .., "quarantined": ..}``.
        """
        if self.disk_dir is None:
            raise ValueError("fsck requires a disk-backed cache")
        counts = {"ok": 0, "corrupt": 0, "quarantined": 0}
        for path in sorted(self.disk_dir.glob("*.pkl")):
            try:
                blob = path.read_bytes()
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            status, payload = decode_artifact(blob)
            if status == "ok" and deep:
                try:
                    pickle.loads(payload)
                except Exception:  # noqa: BLE001
                    status = "corrupt"
            if status == "ok":
                counts["ok"] += 1
                continue
            counts["corrupt"] += 1
            if quarantine:
                self._quarantine_entry(path, _stage_of(path.stem),
                                       tracer=tracer)
                counts["quarantined"] += 1
        return counts

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict[str, Dict[str, int]]:
        """Per-stage ``{"hits": .., "misses": ..}`` counts so far."""
        stages = sorted(set(self._hits) | set(self._misses))
        return {
            stage: {
                "hits": self._hits.get(stage, 0),
                "misses": self._misses.get(stage, 0),
            }
            for stage in stages
        }

    @property
    def hit_rate(self) -> float:
        hits = sum(self._hits.values())
        total = hits + sum(self._misses.values())
        return hits / total if total else 0.0

    def clear(self, memory_only: bool = False) -> None:
        """Drop cached entries (and disk files unless *memory_only*)."""
        self._entries.clear()
        if not memory_only and self.disk_dir is not None:
            for path in self.disk_dir.glob("*.pkl"):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover
                    pass

    def __len__(self) -> int:
        return len(self._entries)
