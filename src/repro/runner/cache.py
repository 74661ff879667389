"""Content-addressed result cache: rerun nothing you already ran.

Every figure and sweep re-executes seeded simulation ensembles whose
outcomes are pure functions of their :class:`~repro.runner.spec.RunSpec`.
The cache exploits that purity: a run's key is the SHA-256 digest of its
spec's canonical JSON (plus a cache-format version), and its value is the
:class:`~repro.runner.results.RunResult` persisted as JSON — so the
second invocation of a benchmark or ``repro figure`` command skips every
identical run and replays stored trajectories bit-for-bit.

Bump :data:`CACHE_VERSION` whenever simulator *behavior* changes (same
spec, different trajectory); the old entries then simply stop matching.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from ..chaos.controller import fault_point
from .results import RunResult
from .spec import RunSpec

__all__ = ["CACHE_VERSION", "spec_digest", "ResultCache", "default_cache_dir"]

#: Version tag mixed into every digest; bump on simulator-behavior changes.
#: v2: RunMetrics gained queue/drop histograms — pre-observability
#: entries would replay with empty histograms, so they must not match.
#: v3: RunSpec gained the ``engine`` field — pre-engine digests covered
#: the same scenario dict minus that key, so they must not match either.
#: v4: the replica-axis refactor — batch mode now covers
#: local-preferential worms, dynamic immunization, and quarantine
#: deploys, so ``engine="fast"`` auto-mode trajectories changed for
#: those scenarios and old entries must not replay.
#: v5: grouped runs under static rate limits now close out the peak
#: depth of rate-cut links left holding packets, as solo runs do, and
#: list histogram buckets in edge order, as solo runs do — v4 grouped
#: entries carry a different ``queue_histogram``.
CACHE_VERSION = 5


def spec_digest(spec: RunSpec) -> str:
    """Stable content address of a run spec."""
    payload = {"version": CACHE_VERSION, "spec": spec.to_dict()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, or the XDG-style per-user default."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "runs"


class ResultCache:
    """JSON run-result store keyed by spec digest.

    One file per result, named ``<digest>.json``, written atomically
    (tempfile + rename) so concurrent experiment processes sharing a
    cache directory never observe torn entries.
    """

    def __init__(self, directory: str | Path | None = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _path(self, spec: RunSpec) -> Path:
        return self.directory / f"{spec_digest(spec)}.json"

    def load(self, spec: RunSpec) -> RunResult | None:
        """The cached result for ``spec``, or ``None`` on a miss."""
        path = self._path(spec)
        try:
            # Chaos: ``io_error`` faults model an unreadable entry and
            # degrade to a plain miss below.
            fault_point("runner.cache.load")
            with path.open("r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self.misses += 1
            return None
        try:
            result = RunResult.from_dict(data, cached=True)
        except (KeyError, TypeError, ValueError):
            # Corrupt or stale-format entry: drop it and rerun.
            path.unlink(missing_ok=True)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, result: RunResult) -> Path:
        """Persist a run result; returns the entry's path."""
        # Chaos: ``io_error`` faults model an unwritable cache; the
        # OSError propagates to run_ensemble's warn-once handler.
        fault_point("runner.cache.store")
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(result.spec)
        payload = json.dumps(result.to_dict())
        fd, tmp_name = tempfile.mkstemp(
            dir=self.directory, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_name, path)
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        return path

    def stats(self) -> dict[str, int]:
        """Entry count and on-disk bytes of the cache directory.

        Entries that vanish mid-scan (a concurrent ``clear`` or an
        operator's ``rm``) are simply skipped; the numbers are a
        snapshot, not a transaction.
        """
        entries = 0
        total_bytes = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    total_bytes += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {"entries": entries, "bytes": total_bytes}

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if not self.directory.is_dir():
            return 0
        for path in self.directory.glob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed
