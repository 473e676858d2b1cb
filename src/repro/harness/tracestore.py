"""Persistent compiled-trace cache.

Every simulation replays the same dynamic uop trace, but before this
module existed the trace only lived in a per-process dict: each engine
worker process (and every fresh CLI invocation) re-ran the functional
model to rebuild it, the single largest fixed cost of a sweep.  Real
trace-driven simulators (Scarab, uiCA) sidestep this by *compiling* the
trace once and shipping the compiled artifact; this module does the
same with a content-addressed on-disk store, mirroring the PR 1 result
cache design:

* **Content addressing** — an entry's key is the SHA-256 of its
  identity: workload ``(name, scale, seed)`` plus :func:`trace_salt`, a
  digest of the binary trace format version and every source file that
  can change what the functional model emits (``repro/isa`` and
  ``repro/workloads``).  Editing a kernel or the ISA silently
  invalidates its traces; editing the *timing* models does not, so
  traces survive most simulator work.

* **Serialization** — entries are the exact
  :func:`repro.isa.traceio.dumps_trace` byte form (binary, compact,
  byte-stable), written atomically (temp file + ``os.replace``, see
  :mod:`repro.harness.atomic`).

* **Corruption safety** — a truncated, malformed, or
  version-incompatible entry is treated as a miss, deleted, and
  regenerated; the store is advisory and never fatal.

* **Layout** — ``<root>/<key[:2]>/<key>.trace`` under
  ``$REPRO_CACHE_DIR/traces`` (default ``~/.cache/repro-sim/traces``).
  Set ``REPRO_NO_TRACE_CACHE`` to a non-empty value to disable the
  store entirely (every run rebuilds functionally, like before).

* **Profile sidecars** — the analytic screening tier's
  :class:`~repro.analytic.profile.TraceProfile` of a trace is kept
  beside it as ``<root>/<pkey[:2]>/<pkey>.profile.json``.  ``pkey``
  folds the trace key together with ``PROFILE_SCHEMA_VERSION`` and a
  digest of ``repro/analytic/profile.py``, so editing the profiler
  invalidates stored profiles just as editing a kernel invalidates its
  traces.  Profiles are written by the screening tier when it first
  builds one (:meth:`TraceStore.put_profile`), never at trace-save
  time, and a malformed or other-schema sidecar is a miss that gets
  deleted and rebuilt.

:func:`repro.harness.runner.load_workload` consults the process-wide
default store, so engine workers deserialize the compiled trace instead
of re-running :class:`~repro.isa.functional.FunctionalMachine`.  See
docs/performance.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import TYPE_CHECKING, List, Optional

from ..isa.dynuop import DynUop
from ..isa import traceio
from .atomic import clear_store, write_atomic

if TYPE_CHECKING:
    from ..analytic import TraceProfile

#: Set to a non-empty value to disable the persistent trace store.
NO_TRACE_CACHE_ENV = "REPRO_NO_TRACE_CACHE"

#: Bump to invalidate every stored trace regardless of code content.
TRACE_STORE_VERSION = "1"

#: File-name suffix of a stored analytic trace profile.
PROFILE_SUFFIX = ".profile.json"

_trace_salt_cache: Optional[str] = None


def trace_salt() -> str:
    """Digest of everything that determines a workload's dynamic trace.

    Folds in the trace-format version and the source of ``repro.isa``
    (functional model, ISA, serialization) and ``repro.workloads``
    (kernel generators).  Timing-model edits leave the salt unchanged —
    compiled traces deliberately outlive them.
    """
    global _trace_salt_cache  # simlint: disable=CONC001 pure digest of on-disk code, identical in every process
    if _trace_salt_cache is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(
            f"{TRACE_STORE_VERSION}:{traceio.VERSION}".encode())
        for package in ("isa", "workloads"):
            for path in sorted((root / package).rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
        _trace_salt_cache = digest.hexdigest()[:16]
    return _trace_salt_cache


def profiler_salt() -> str:
    """Digest of the analytic profiler's source
    (``repro/analytic/profile.py``): a stored profile is only as valid
    as the code that computed it."""
    from ..analytic import profile
    source = pathlib.Path(profile.__file__).read_bytes()
    return hashlib.sha256(source).hexdigest()[:16]


class TraceStore:
    """Content-addressed, crash-safe, on-disk store of compiled traces
    and their analytic profiles."""

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            from .engine import default_cache_dir
            root = default_cache_dir() / "traces"
        self.root = pathlib.Path(root).expanduser()
        #: Per-process accounting (read by ``repro-sim perf`` and tests).
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- keys
    @staticmethod
    def identity(name: str, scale: float, seed: int) -> dict:
        """The JSON-able dict that fully determines a stored trace."""
        return {
            "name": name,
            "scale": repr(float(scale)),
            "seed": int(seed),
            "salt": trace_salt(),
        }

    def key(self, name: str, scale: float, seed: int) -> str:
        """Content-addressed store key (SHA-256 hex)."""
        blob = json.dumps(self.identity(name, scale, seed),
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.trace"

    def profile_key(self, name: str, scale: float, seed: int) -> str:
        """Key of the trace's profile sidecar: the trace key plus the
        profile schema version and :func:`profiler_salt`."""
        from ..analytic import profile
        blob = (f"{self.key(name, scale, seed)}:"
                f"{profile.PROFILE_SCHEMA_VERSION}:{profiler_salt()}")
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def profile_path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}{PROFILE_SUFFIX}"

    # ------------------------------------------------------------ access
    def get(self, name: str, scale: float,
            seed: int) -> Optional[List[DynUop]]:
        """Deserialized trace, or None on miss/corruption (corrupt
        entries are deleted so the regenerated trace replaces them)."""
        path = self.path_for(self.key(name, scale, seed))
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            trace = traceio.loads_trace(data, context=str(path))
        except traceio.TraceFormatError:
            # Truncated write, format drift, bit rot, ... — regenerate.
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def put(self, name: str, scale: float, seed: int,
            trace: List[DynUop]) -> None:
        """Atomically persist *trace* (best-effort; never fatal)."""
        write_atomic(self.path_for(self.key(name, scale, seed)),
                     traceio.dumps_trace(trace))

    def get_profile(self, name: str, scale: float,
                    seed: int) -> Optional["TraceProfile"]:
        """The stored profile of a trace, or None on miss/corruption
        (a malformed or other-schema sidecar is deleted, so the rebuilt
        profile replaces it)."""
        from ..analytic import TraceProfile
        path = self.profile_path_for(self.profile_key(name, scale, seed))
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return TraceProfile.from_dict(json.loads(data))
        except (ValueError, KeyError, TypeError, AttributeError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put_profile(self, name: str, scale: float, seed: int,
                    profile: "TraceProfile") -> None:
        """Atomically persist a trace's *profile* (best-effort)."""
        write_atomic(
            self.profile_path_for(self.profile_key(name, scale, seed)),
            json.dumps(profile.to_dict()).encode("utf-8"))

    # --------------------------------------------------------- inventory
    def entries(self) -> List[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.trace"))

    def profile_entries(self) -> List[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(f"*/*{PROFILE_SUFFIX}"))

    def stats(self) -> dict:
        entries = self.entries()
        profiles = self.profile_entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "profiles": len(profiles),
            "profile_bytes": sum(path.stat().st_size for path in profiles),
        }

    def clear_profiles(self) -> int:
        """Delete every profile sidecar and orphaned temp file; returns
        the number of profiles removed."""
        return clear_store(self.root, f"*{PROFILE_SUFFIX}")

    def clear(self) -> int:
        """Delete every trace, profile and orphaned temp file; returns
        the number of entries (traces plus profiles) removed."""
        return clear_store(self.root, "*.trace") + self.clear_profiles()


# ------------------------------------------------------- default store
_default_store: Optional[TraceStore] = None


def trace_store_enabled() -> bool:
    """False when ``REPRO_NO_TRACE_CACHE`` is set to a non-empty value."""
    return not os.environ.get(NO_TRACE_CACHE_ENV)


def get_trace_store() -> TraceStore:
    """The process-wide default trace store.

    Re-rooted automatically whenever ``$REPRO_CACHE_DIR`` changes, so
    tests that repoint the cache directory get a matching store.
    """
    global _default_store  # simlint: disable=CONC001 store handle derived only from $REPRO_CACHE_DIR
    from .engine import default_cache_dir
    root = default_cache_dir() / "traces"
    if _default_store is None or _default_store.root != root:
        _default_store = TraceStore(root)
    return _default_store


def reset_trace_store() -> None:
    """Drop the default store (fresh hit/miss accounting)."""
    global _default_store
    _default_store = None
