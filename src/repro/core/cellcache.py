"""Content-addressed campaign cell-result cache.

Campaign cells are pure functions: an :class:`~repro.core.evaluation.
AttackOutcome` is fully determined by the victim's quantized weights,
the :class:`~repro.config.SimulationConfig`, the striker bank size, the
evaluation slice, and the cell's blake2s-derived seed.  This module
exploits that purity — identical cells requested by different sweeps,
arms-race grids, or repeated runs are computed once and served from
disk thereafter.

Keys are content addresses::

    campaign digest = blake2s(config JSON, bank cells, weight arrays,
                              eval images, eval labels)
    cell key        = blake2s(campaign digest, target, count, base seed)

so *any* change to the recipe — a config knob, retrained weights, a
different evaluation slice — silently invalidates every entry by
changing the address, with no versioning bookkeeping.  The lease policy
and the broker's socket settings are no part of the config: they are
``run_campaign`` arguments, so tuning them keeps every address.

The campaign process is the only reader and writer: ``run_campaign``
merges every cached cell before it dispatches any, on whichever path,
and stores each computed cell once on the way out; campaign workers
never open the cache.  Entries are JSON files written with the
same fsync-then-``os.replace`` discipline as campaign checkpoints, and
each carries an integrity digest over its payload.  Reads are paranoid:
a truncated, corrupt, tampered, key-mismatched or ill-typed entry is a
*miss*, never an error — a cache can lose entries, it must never serve
a wrong one.  The byte-parity contract extends through the cache: a
warm-cache campaign merges cached outcomes into checkpoint JSON
byte-identical to a cold serial run (``tests/core/test_cellcache.py``).

``repro cache gc --max-bytes`` bounds a cache: least-recently-used
whole entries are unlinked until the directory fits, so pruning can
never corrupt a surviving entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..config import SimulationConfig
from ..errors import ConfigError
from .evaluation import AttackOutcome

__all__ = ["CacheGCReport", "CellCache", "CellCacheStats",
           "campaign_digest"]

ENTRY_FORMAT_VERSION = 1

#: Each dtype policy's draw stream, as folded into the campaign digest.
#: A new name retires every address the policy's old stream wrote: fp32
#: was plain "fp32" while it ran its own float32 forward and injector.
_DTYPE_STREAMS = {"fxp": "fxp", "fp32": "fp32-2"}


def _hash_update_array(h, name: str, array: np.ndarray) -> None:
    """Feed one ndarray into a digest, shape/dtype/content included."""
    arr = np.ascontiguousarray(array)
    h.update(f"{name}:{arr.dtype.str}:{arr.shape}:".encode())
    h.update(arr.tobytes())


def campaign_digest(config: SimulationConfig, bank_cells: int,
                    model, images: np.ndarray, labels: np.ndarray) -> str:
    """Digest everything (besides the cell itself) an outcome depends on.

    ``model`` is a :class:`~repro.nn.quantize.QuantizedModel`; its stage
    dataclasses are walked generically so new stage kinds (new victims)
    are covered without touching this function.
    """
    h = hashlib.blake2s()
    h.update(json.dumps(asdict(config), sort_keys=True).encode())
    # The dtype policy is a config field, so the JSON above already
    # covers it — but it selects a *stream*, not just tuning, so fold it
    # in explicitly too: fp32 outcomes must never be served from (or
    # poison) fxp entries even if config serialization is ever
    # restructured.
    h.update(f"|dtype:{_DTYPE_STREAMS[config.dtype_policy]}".encode())
    h.update(f"|bank:{bank_cells}".encode())
    h.update(f"|model:{model.name}:{model.act_format!r}"
             f":{model.weight_format!r}".encode())
    for stage in model.stages:
        h.update(f"|stage:{type(stage).__name__}".encode())
        for name, value in sorted(vars(stage).items()):
            if isinstance(value, np.ndarray):
                _hash_update_array(h, name, value)
            else:
                h.update(f"{name}={value!r};".encode())
    _hash_update_array(h, "images", images)
    _hash_update_array(h, "labels", labels)
    return h.hexdigest()


def _payload_digest(payload: dict) -> str:
    """Integrity digest over the canonical serialization of a payload."""
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":")).encode()
    return hashlib.blake2s(canonical).hexdigest()


@dataclass
class CellCacheStats:
    """What one cache instance saw during its lifetime."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0  # entries present but unreadable (treated as misses)
    stores: int = 0
    pruned: int = 0   # entries evicted by LRU garbage collection


@dataclass
class CacheGCReport:
    """What one :meth:`CellCache.gc` pass did (printed by
    ``repro cache gc``)."""

    entries_kept: int = 0
    entries_pruned: int = 0
    bytes_kept: int = 0
    bytes_pruned: int = 0


@dataclass
class CellCache:
    """A directory of content-addressed cell outcomes.

    Entries are sharded by the first two hex digits of the key
    (``<root>/ab/abcdef....json``) so a large cache never piles tens of
    thousands of files into one directory.
    """

    root: Path
    stats: CellCacheStats = field(default_factory=CellCacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    # -- addressing -----------------------------------------------------------

    @staticmethod
    def cell_key(digest: str, target: str, count: int, base_seed: int) -> str:
        """The content address of one ``(target, count)`` cell."""
        h = hashlib.blake2s()
        h.update(f"{digest}|{target}|{count}|{base_seed}".encode())
        return h.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    # -- read / write ---------------------------------------------------------

    def get(self, key: str) -> Optional[AttackOutcome]:
        """Return the cached outcome for ``key``, or None.

        Every failure mode — missing file, truncated JSON, wrong entry
        version, key mismatch (a moved/renamed file), integrity-digest
        mismatch (bit rot, tampering), or a payload that no longer
        matches the outcome schema or its field types — is a miss.  A
        corrupt entry is additionally unlinked (best effort) so it
        cannot keep costing a read on every run.
        """
        path = self._entry_path(key)
        try:
            raw = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if entry["format_version"] != ENTRY_FORMAT_VERSION:
                raise ValueError(f"entry version {entry['format_version']}")
            if entry["key"] != key:
                raise ValueError("entry key does not match its address")
            payload = entry["payload"]
            if entry["digest"] != _payload_digest(payload):
                raise ValueError("payload integrity digest mismatch")
            from .campaign import _outcome_from_payload

            outcome = _outcome_from_payload(payload)
        except (ConfigError, ValueError, KeyError, TypeError):
            self.stats.corrupt += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.stats.hits += 1
        try:
            os.utime(path)  # refresh recency so LRU gc spares hot entries
        except OSError:
            pass
        return outcome

    def put(self, key: str, outcome: AttackOutcome) -> None:
        """Store an outcome under its content address (atomic write).

        Arms-race cells serialize with the same ``"kind"`` discriminator
        the campaign files use, so one cache serves both cell species.
        """
        from .campaign import _atomic_write_text, _outcome_to_payload

        payload = _outcome_to_payload(outcome)
        entry = {
            "format_version": ENTRY_FORMAT_VERSION,
            "key": key,
            "payload": payload,
            "digest": _payload_digest(payload),
        }
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        _atomic_write_text(path, json.dumps(entry, indent=2) + "\n")
        self.stats.stores += 1

    # -- garbage collection ---------------------------------------------------

    def _entries(self) -> List[Tuple[float, int, Path]]:
        """Every entry as ``(mtime, size, path)`` (missing files — a
        concurrent gc or unlink — are skipped, never an error)."""
        out = []
        for shard in sorted(self.root.glob("??")):
            if not shard.is_dir():
                continue
            for path in sorted(shard.glob("*.json")):
                try:
                    st = path.stat()
                except OSError:
                    continue
                out.append((st.st_mtime, st.st_size, path))
        return out

    def gc(self, max_bytes: Optional[int] = None) -> CacheGCReport:
        """Prune least-recently-used entries until the cache is at
        most ``max_bytes`` big (``None`` only reports its size; a
        negative bound is refused with :class:`ConfigError`).

        Eviction order is mtime, oldest first —
        and since :meth:`get` touches an entry's mtime on every hit,
        that is least-recently-*used*, not least-recently-written.
        Pruning only ever unlinks whole entry files, so surviving
        entries are untouched bytes and remain integrity-clean; a
        pruned entry is a future cache miss, never an error.
        """
        if max_bytes is not None and max_bytes < 0:
            raise ConfigError(f"cache max_bytes must be >= 0, "
                              f"got {max_bytes}")
        report = CacheGCReport()
        entries = self._entries()
        if max_bytes is None:
            report.entries_kept = len(entries)
            report.bytes_kept = sum(size for _, size, _ in entries)
            return report
        total = sum(size for _, size, _ in entries)
        for mtime, size, path in sorted(entries):  # oldest first
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            report.entries_pruned += 1
            report.bytes_pruned += size
            self.stats.pruned += 1
        report.entries_kept = len(entries) - report.entries_pruned
        report.bytes_kept = total
        return report

    # -- bulk helpers ---------------------------------------------------------

    def lookup_cells(self, digest: str, cells, base_seed: int) -> dict:
        """Probe many cells at once; returns the hits as a map from
        cell to outcome."""
        hits = {}
        for target, count in cells:
            outcome = self.get(self.cell_key(digest, target, count,
                                             base_seed))
            if outcome is not None:
                hits[(target, count)] = outcome
        return hits
