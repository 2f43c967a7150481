"""Persistent content-addressed result store for verification campaigns.

The campaign engine's in-process reuse — pooled managers, the scenario
memo, the session-scoped extraction cache — dies with its process.  This
module is the layer that makes reuse survive: a :class:`ResultStore` is
a directory of immutable records addressed by content fingerprints, so a
re-run of any campaign (in this process, another process, or another CI
job handed the directory as an artifact) is a cache read.

Two record families share the store:

* **Results** — the deterministic *verdict* portion of a
  :class:`~repro.engine.report.ScenarioOutcome` (pass/fail, mismatch
  records, structure), keyed by
  :meth:`~repro.engine.scenario.Scenario.fingerprint`: a SHA-256 over
  the scenario's canonical content (everything but name/tags), its
  variable-order signature — which embeds the beta backend — and the
  store's code-version salt.  Stored as
  plain JSON, one file per fingerprint.
* **Snapshots** — arena snapshots of expensive derived BDDs (the beta
  backend's extracted correspondence relations, see
  :meth:`~repro.bdd.manager.BDDManager.snapshot`), keyed by a
  fingerprint of the extraction identity.  Stored zlib-compressed (the
  payloads are large lists of small ints, which deflate ~10x).

Safety model: a record is only ever trusted when its envelope matches
the store's ``version`` *and* ``salt``, its embedded fingerprint
matches the requested one, *and* its recorded dependency vector — the
``{component: source-hash}`` map of the code components the record's
verdict depends on (see :mod:`repro.engine.codehash`) — matches the
hashes of the code on disk right now.  Version/salt mismatches count as
*stale*, a dependency-vector mismatch as *invalidated* (the surgical
replacement for the old bump-the-salt-and-lose-everything flow: only
the records whose own components changed are refused), unparseable or
misshapen files as *corrupt* — and every failure class is treated
exactly like a miss: the caller recomputes, and for snapshots the BDD
layer's restore-time validation adds a second, structural line of
defence (:class:`~repro.bdd.kernel.SnapshotError`).  A wrong verdict
can therefore never be served from a damaged or outdated store.  Writes
go through a temp file plus :func:`os.replace`, so concurrent writers
(the affinity scheduler's workers share one store directory) can only
ever publish whole records; temp files orphaned by a writer that died
mid-publish are swept when they outlive :data:`TMP_MAX_AGE_SECONDS`
by :meth:`ResultStore.sweep_stale_tmp`, which the campaign runner calls
at the start of every campaign.

:data:`CODE_SALT` is the *engine-level* salt: since PR 6 the per-model
and per-subsystem code versions are tracked automatically by the
component hashes, so the salt only needs a bump when the engine's own
record semantics change (fingerprint composition, verdict record shape)
— every existing store then silently degrades to a cold one instead of
serving stale records.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from . import codehash
from .. import telemetry
from ..resilience import faults

#: Engine-level salt baked into every fingerprint and record envelope.
#: Bump when the engine's record semantics change (model/kernel/verifier
#: code versions are tracked per-component by repro.engine.codehash).
CODE_SALT = "2026.08-component-envelope-1"

#: Envelope format version of the store records themselves.
#: v2 added the per-record dependency vector (``components``).
STORE_VERSION = 2

#: Compression level of snapshot records (zlib; 6 is the speed/size knee).
_SNAPSHOT_COMPRESSION = 6

#: Age (seconds) past which an orphaned ``*.tmp`` file — a
#: writer died between ``mkstemp`` and ``os.replace`` — is swept.  Old
#: enough that no live writer can still be holding it open.
TMP_MAX_AGE_SECONDS = 3600.0

#: Cap on quarantined record files kept for forensics: once the
#: quarantine holds this many, further bad records fall back to the old
#: overwrite-in-place behaviour instead of growing the directory.
QUARANTINE_LIMIT = 256

#: Age (seconds) past which a quarantined record is swept (the
#: ``sweep_stale_tmp`` aging rule applied to forensic artefacts: long
#: enough to collect — a week — short enough that a store that keeps
#: being used never accumulates them indefinitely).
QUARANTINE_MAX_AGE_SECONDS = 7 * 24 * 3600.0


def _canonical_parts(obj: object) -> object:
    """A JSON-stable, type-tagged form of a content-key part.

    ``repr`` of containers depends on insertion order (dicts) or is
    outright nondeterministic across processes (sets of heterogeneous
    items), which would fracture content addresses for equal keys.
    Containers are therefore rebuilt recursively with sorted members
    and a type tag (so ``("a",)`` and ``["a"]`` stay distinct), scalars
    pass through (JSON already distinguishes ``1``/``1.0``/``True``/
    ``"1"``), and anything else falls back to its ``repr`` — callers
    passing exotic objects must ensure that repr is deterministic.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        tag = "list" if isinstance(obj, list) else "tuple"
        return [tag, [_canonical_parts(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        members = sorted(
            (json.dumps(_canonical_parts(item), sort_keys=True) for item in obj)
        )
        return ["set", members]
    if isinstance(obj, dict):
        items = sorted(
            (
                json.dumps(_canonical_parts(key), sort_keys=True),
                _canonical_parts(value),
            )
            for key, value in obj.items()
        )
        return ["dict", [[key, value] for key, value in items]]
    return ["repr", repr(obj)]


def content_fingerprint(*parts: object, salt: str = CODE_SALT) -> str:
    """SHA-256 hex fingerprint of a deterministic content description.

    ``parts`` are canonicalised recursively (sorted dict/set members,
    type-tagged containers) so equal keys fingerprint identically no
    matter how their containers were built — insertion order and set
    iteration order do not leak into the address.  The salt joins the
    digest so an engine-version bump re-keys every record at once.
    """
    blob = (
        json.dumps(
            [_canonical_parts(part) for part in parts],
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\x00"
        + salt
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultStore:
    """Directory-backed content-addressed store of campaign artefacts.

    ``root`` is created on demand.  All read paths are total: any
    malformed, truncated, stale or foreign file behaves as a miss (and
    is counted in :meth:`statistics` under its failure class).
    """

    def __init__(
        self,
        root: Union[str, Path],
        salt: str = CODE_SALT,
        fsync: bool = False,
    ) -> None:
        self.root = Path(root)
        self.salt = salt
        #: Durable publishes: fsync the record bytes before the atomic
        #: rename (off by default — the rename already guarantees no
        #: partial record is ever visible; fsync additionally survives
        #: power loss at the cost of one sync per write).
        self.fsync = fsync
        self._results_dir = self.root / "results"
        self._snapshots_dir = self.root / "snapshots"
        self._quarantine_dir = self.root / "quarantine"
        self._stats = {
            "results": self._fresh_counters(),
            "snapshots": self._fresh_counters(),
        }
        self._tmp_swept = 0
        self._quarantine_swept = 0
        # Component hashes are sampled lazily, once per store handle:
        # every lookup through this handle sees one consistent code
        # version (a mid-campaign source edit is picked up by the next
        # handle, not halfway through a campaign).
        self._component_cache: Dict[str, str] = {}

    @staticmethod
    def _fresh_counters() -> Dict[str, int]:
        return {
            "hits": 0,
            "misses": 0,
            "stale": 0,
            "invalidated": 0,
            "corrupt": 0,
            "quarantined": 0,
            "writes": 0,
            "bytes_read": 0,
            "bytes_written": 0,
        }

    # ------------------------------------------------------------------
    # Dependency vectors
    # ------------------------------------------------------------------
    def component_vector(self, dependencies: Optional[Iterable[str]]) -> Dict[str, str]:
        """Current ``{component: hash}`` vector for ``dependencies``.

        Cached per store handle (see ``__init__``); ``None`` or an empty
        iterable yields the empty vector, i.e. no component tracking.
        """
        if not dependencies:
            return {}
        vector: Dict[str, str] = {}
        for name in sorted(set(dependencies)):
            cached = self._component_cache.get(name)
            if cached is None:
                cached = self._component_cache[name] = codehash.component_hash(name)
            vector[name] = cached
        return vector

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _record_path(self, kind_dir: Path, fingerprint: str, suffix: str) -> Path:
        # Two-character fan-out keeps directory listings sane for
        # campaign-scale stores (thousands of scenarios).
        return kind_dir / fingerprint[:2] / f"{fingerprint}{suffix}"

    def result_path(self, fingerprint: str) -> Path:
        """Where the result record for ``fingerprint`` lives (may not exist)."""
        return self._record_path(self._results_dir, fingerprint, ".json")

    def snapshot_path(self, fingerprint: str) -> Path:
        """Where the snapshot record for ``fingerprint`` lives (may not exist)."""
        return self._record_path(self._snapshots_dir, fingerprint, ".json.z")

    # ------------------------------------------------------------------
    # Envelopes
    # ------------------------------------------------------------------
    def _check_envelope(
        self,
        envelope: object,
        fingerprint: str,
        counters: Dict[str, int],
        components: Dict[str, str],
        path: Optional[Path] = None,
    ) -> Tuple[Optional[Dict[str, object]], str]:
        """Validate a decoded record envelope.

        Returns ``(payload, "hit")`` on success, ``(None, failure_class)``
        otherwise — the failure class is also counted in ``counters``,
        and corrupt/stale files are quarantined (``path`` given) so the
        evidence survives the recompute-and-republish that follows.
        """
        if not isinstance(envelope, dict) or "payload" not in envelope:
            counters["corrupt"] += 1
            self._quarantine(path, fingerprint, "corrupt", counters)
            return None, "corrupt"
        if (
            envelope.get("version") != STORE_VERSION
            or envelope.get("salt") != self.salt
            or envelope.get("fingerprint") != fingerprint
        ):
            # A record written by other code (version bump, salt bump,
            # renamed file) — well-formed but not ours to trust.
            counters["stale"] += 1
            self._quarantine(path, fingerprint, "stale", counters)
            return None, "stale"
        if envelope.get("components", {}) != components:
            # The record is ours, but one of the code components *its*
            # verdict depends on changed since it was written (or it
            # predates dependency tracking).  Surgical invalidation:
            # only records sharing the changed component take this path;
            # the caller recomputes and overwrites in place.  *Not*
            # quarantined: an invalidated record is healthy data made
            # obsolete by a code edit, not forensic evidence.
            counters["invalidated"] += 1
            return None, "invalidated"
        payload = envelope["payload"]
        if not isinstance(payload, dict):
            counters["corrupt"] += 1
            self._quarantine(path, fingerprint, "corrupt", counters)
            return None, "corrupt"
        return payload, "hit"

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def _quarantine(
        self,
        path: Optional[Path],
        fingerprint: str,
        reason: str,
        counters: Dict[str, int],
    ) -> Optional[Path]:
        """Move a refused record to ``quarantine/<fingerprint>.<reason>``.

        Corrupt and stale records used to be left in place for the next
        publish to overwrite — destroying the evidence the fuzz-corpus
        workflow wants (what *did* the damaged bytes look like?).  The
        atomic rename preserves them; the caller still recomputes and
        republishes at the original path.  Capped at
        :data:`QUARANTINE_LIMIT` files (beyond it the old overwrite-in-place
        behaviour resumes) and swept by age like orphaned temp files.
        Best-effort: any filesystem refusal leaves the record where it
        was — quarantine must never turn a refused read into a raise.
        """
        if path is None or QUARANTINE_LIMIT <= 0:
            return None
        try:
            self._quarantine_dir.mkdir(parents=True, exist_ok=True)
            self._sweep_quarantine()
            existing = sum(1 for _ in self._quarantine_dir.iterdir())
            if existing >= QUARANTINE_LIMIT:
                return None
            target = self._quarantine_dir / f"{fingerprint}.{reason}"
            os.replace(path, target)
        except OSError:
            return None
        counters["quarantined"] += 1
        telemetry.get_registry().counter(f"store.quarantine.{reason}").inc()
        return target

    def _sweep_quarantine(self) -> None:
        """Unlink quarantined records older than
        :data:`QUARANTINE_MAX_AGE_SECONDS` (the ``sweep_stale_tmp`` aging
        rule applied to forensics)."""
        cutoff = time.time() - QUARANTINE_MAX_AGE_SECONDS
        try:
            candidates = list(self._quarantine_dir.iterdir())
        except OSError:
            return
        for candidate in candidates:
            try:
                if candidate.stat().st_mtime <= cutoff:
                    candidate.unlink()
                    self._quarantine_swept += 1
            except OSError:
                continue

    def quarantined_records(self) -> List[Path]:
        """The quarantined record files, sorted by name (forensics API)."""
        if not self._quarantine_dir.is_dir():
            return []
        return sorted(
            path for path in self._quarantine_dir.iterdir() if path.is_file()
        )

    def _sweep_stale_tmp(self, directory: Path) -> None:
        """Unlink orphaned ``*.tmp`` files in ``directory`` older than
        :data:`TMP_MAX_AGE_SECONDS` (a writer died between ``mkstemp``
        and ``os.replace``); live writers' fresh temp files are
        untouched."""
        cutoff = time.time() - TMP_MAX_AGE_SECONDS
        try:
            candidates = list(directory.glob("*.tmp"))
        except OSError:
            return
        for candidate in candidates:
            try:
                if candidate.stat().st_mtime <= cutoff:
                    candidate.unlink()
                    self._tmp_swept += 1
            except OSError:
                # Raced with another sweeper or a writer — their problem
                # is already solved, ours never blocks a publish.
                continue

    def sweep_stale_tmp(self) -> int:
        """Sweep orphaned temp files across the whole store; returns the
        number removed (also counted in :meth:`statistics`).  Aged
        quarantine forensics are swept on the same pass."""
        before = self._tmp_swept
        for family_dir in (self._results_dir, self._snapshots_dir):
            if not family_dir.is_dir():
                continue
            for directory in family_dir.iterdir():
                if directory.is_dir():
                    self._sweep_stale_tmp(directory)
        if self._quarantine_dir.is_dir():
            self._sweep_quarantine()
        return self._tmp_swept - before

    def _write_record(self, path: Path, data: bytes, counters: Dict[str, int]) -> int:
        """Atomically publish ``data`` at ``path``; returns bytes written."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
                if self.fsync:
                    # Durable publish: the bytes hit the platter before
                    # the rename makes them visible, so a power cut can
                    # never leave a visible-but-empty record.
                    handle.flush()
                    os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        counters["writes"] += 1
        counters["bytes_written"] += len(data)
        return len(data)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def load_result(
        self,
        fingerprint: str,
        dependencies: Optional[Iterable[str]] = None,
        parse: Optional[Callable[[Dict[str, object]], object]] = None,
    ) -> Tuple[Optional[object], str]:
        """The stored result for ``fingerprint`` and the lookup status.

        ``dependencies`` names the code components the caller's verdict
        depends on; the record is refused (as *invalidated*) unless its
        recorded dependency vector matches those components' current
        hashes.  ``parse`` turns a payload into what the caller serves
        (the payload itself by default); a payload it rejects by
        returning ``None`` counts as corrupt and is quarantined.  The
        status is ``"hit"``, ``"miss"``, ``"stale"``, ``"invalidated"``
        or ``"corrupt"``, each counted once in :meth:`statistics`; on
        anything but a hit the result is ``None``, so callers simply
        recompute.
        """
        counters = self._stats["results"]
        path = self.result_path(fingerprint)
        with telemetry.span("store.read", family="results") as read_span:
            try:
                faults.fire("store.read.results")
                data = path.read_bytes()
            except OSError:
                counters["misses"] += 1
                read_span.set(status="miss")
                return None, "miss"
            counters["bytes_read"] += len(data)
            data = faults.mangle("store.corrupt.results", data)
            try:
                envelope = json.loads(data)
            except (ValueError, UnicodeDecodeError):
                counters["corrupt"] += 1
                self._quarantine(path, fingerprint, "corrupt", counters)
                read_span.set(status="corrupt", bytes=len(data))
                return None, "corrupt"
            payload, status = self._check_envelope(
                envelope,
                fingerprint,
                counters,
                self.component_vector(dependencies),
                path=path,
            )
            if payload is not None and parse is not None:
                payload = parse(payload)
                if payload is None:
                    # A well-formed envelope around a verdict the caller
                    # cannot read: as corrupt as unparseable bytes.
                    status = "corrupt"
                    counters["corrupt"] += 1
                    self._quarantine(path, fingerprint, "corrupt", counters)
            if payload is not None:
                counters["hits"] += 1
            read_span.set(status=status, bytes=len(data))
            return payload, status

    def save_result(
        self,
        fingerprint: str,
        payload: Dict[str, object],
        dependencies: Optional[Iterable[str]] = None,
    ) -> int:
        """Persist a result payload; returns the record size in bytes."""
        envelope = {
            "version": STORE_VERSION,
            "salt": self.salt,
            "fingerprint": fingerprint,
            "components": self.component_vector(dependencies),
            "payload": payload,
        }
        data = json.dumps(envelope, sort_keys=True).encode("utf-8")
        with telemetry.span(
            "store.write", family="results", bytes=len(data)
        ):
            faults.fire("store.write.results")
            return self._write_record(
                self.result_path(fingerprint), data, self._stats["results"]
            )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def load_snapshot(
        self,
        fingerprint: str,
        dependencies: Optional[Iterable[str]] = None,
    ) -> Optional[Dict[str, object]]:
        """The stored snapshot payload for ``fingerprint``, or ``None``."""
        counters = self._stats["snapshots"]
        path = self.snapshot_path(fingerprint)
        with telemetry.span("store.read", family="snapshots") as read_span:
            try:
                faults.fire("store.read.snapshots")
                data = path.read_bytes()
            except OSError:
                counters["misses"] += 1
                read_span.set(status="miss")
                return None
            counters["bytes_read"] += len(data)
            data = faults.mangle("store.corrupt.snapshots", data)
            try:
                envelope = json.loads(zlib.decompress(data))
            except (zlib.error, ValueError, UnicodeDecodeError):
                counters["corrupt"] += 1
                self._quarantine(path, fingerprint, "corrupt", counters)
                read_span.set(status="corrupt", bytes=len(data))
                return None
            payload, status = self._check_envelope(
                envelope,
                fingerprint,
                counters,
                self.component_vector(dependencies),
                path=path,
            )
            if payload is not None:
                counters["hits"] += 1
            read_span.set(status=status, bytes=len(data))
            return payload

    def save_snapshot(
        self,
        fingerprint: str,
        payload: Dict[str, object],
        dependencies: Optional[Iterable[str]] = None,
    ) -> int:
        """Persist a snapshot payload (compressed); returns bytes written."""
        envelope = {
            "version": STORE_VERSION,
            "salt": self.salt,
            "fingerprint": fingerprint,
            "components": self.component_vector(dependencies),
            "payload": payload,
        }
        data = zlib.compress(
            json.dumps(envelope, sort_keys=True).encode("utf-8"),
            _SNAPSHOT_COMPRESSION,
        )
        with telemetry.span(
            "store.write", family="snapshots", bytes=len(data)
        ):
            faults.fire("store.write.snapshots")
            return self._write_record(
                self.snapshot_path(fingerprint), data, self._stats["snapshots"]
            )

    def fingerprint_for(self, key: object) -> str:
        """Content fingerprint of an arbitrary deterministic key.

        Used by layers below the engine (the beta backend keys relation
        snapshots by their extraction identity) so they can address this
        store without knowing its salt handling.
        """
        return content_fingerprint(key, salt=self.salt)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, object]:
        """Access counters of this store handle (hits/misses/bytes, per family)."""
        return {
            "root": str(self.root),
            "salt": self.salt,
            "tmp_swept": self._tmp_swept,
            **{
                family: telemetry.with_rates(dict(counters))
                for family, counters in self._stats.items()
            },
        }

    def disk_statistics(self) -> Dict[str, object]:
        """On-disk record census of the store directory (corpus stats).

        Unlike :meth:`statistics` — which counts *this handle's* lookup
        activity — this walks the directory and reports how many
        published records of each family exist and how many bytes they
        occupy.  Campaign-scale consumers (the fuzz-campaign benchmark,
        corpus reports) use it to show what a store artifact actually
        contains, independent of which process wrote it.
        """
        census: Dict[str, object] = {"root": str(self.root)}
        for family, directory, suffix in (
            ("results", self._results_dir, ".json"),
            ("snapshots", self._snapshots_dir, ".json.z"),
        ):
            records = 0
            size = 0
            if directory.is_dir():
                # Records live in two-hex-digit fan-out subdirectories.
                for path in directory.glob(f"*/*{suffix}"):
                    try:
                        size += path.stat().st_size
                    except OSError:
                        continue
                    records += 1
            census[family] = {"records": records, "bytes": size}
        census["quarantine"] = {"records": len(self.quarantined_records())}
        return census

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ResultStore root={str(self.root)!r} salt={self.salt!r}>"
