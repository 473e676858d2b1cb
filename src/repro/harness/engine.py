"""Parallel experiment engine with a persistent on-disk result cache.

Every figure, ablation, and sweep in this repository reduces to a flat
list of independent simulation points — ``(benchmark, mode, scale, seed,
config)`` tuples — which makes the whole evaluation embarrassingly
parallel. This module is the single execution layer those drivers share:

* **Job model** — :class:`Job` names one simulation point. ``kind``
  selects the executor: ``"sim"`` runs ``run_benchmark`` and yields a
  :class:`~repro.stats.SimResult`; ``"rob_profile"`` runs the same
  machine with the Fig. 1 ROB-stall profiler attached and yields a
  float-carrying dict *and* the machine's ``SimResult``. New kinds
  register in :data:`JOB_KINDS` with an executor plus JSON
  encode/decode hooks.

* **Machine sharing** — a job's :meth:`Job.machine_key` names the
  pipeline it runs: benchmark, mode, scale, seed and the fingerprint of
  its resolved config, but not its kind or whether the config was
  passed explicitly. ``run`` simulates each machine it owes once and
  hands the products to every job that names it; a per-engine memo of
  recent machines (:data:`MACHINE_MEMO_SIZE`) extends that to later
  ``run`` calls in the same process, with or without the disk cache.

* **Parallel execution** — :class:`Engine` runs cache misses through a
  ``concurrent.futures.ProcessPoolExecutor``. Worker count comes from
  the constructor, the ``REPRO_JOBS`` environment variable, or defaults
  to 1 (serial). Results are reassembled in submission order, so
  parallel and serial runs return bit-identical result lists; each job
  carries its own explicit seed so placement on workers cannot perturb
  the simulated outcome.

* **Fault tolerance** — a pool worker that dies (SIGKILL, OOM kill)
  breaks the pool; ``run`` keeps every finished result and resubmits
  only the unfinished simulations to a fresh pool, at most
  :data:`MAX_POOL_RESTARTS` times per call before raising
  :class:`WorkerCrashError`. Pool workers exit on their own once the
  driver process is gone, so a killed sweep leaks no workers.

* **Persistent cache** — :class:`ResultCache` memoizes every completed
  job under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-sim``). The
  key is the SHA-256 of the job's identity: kind, benchmark, mode,
  scale, seed, the *canonical JSON* of its ``SimConfig``
  (:meth:`repro.config.SimConfig.fingerprint`), and a code-version salt
  hashed from the package's own source files — editing the simulator
  automatically invalidates stale entries. Entries are written
  atomically (:mod:`repro.harness.atomic`), so an interrupted sweep
  never leaves a torn entry, and unreadable/corrupt entries are
  discarded and recomputed rather than crashed on.

* **Resumability** — because every job is keyed independently,
  re-running a partially completed sweep re-executes only the missing
  points; everything already on disk is a cache hit.

* **Observability** — :class:`EngineStats` counts jobs, cache hits,
  executions, shared jobs, pool restarts, and wall/sim time;
  ``Engine.summary()`` renders the line the CLI prints to stderr after
  ``repro-sim figure``/``report`` runs.
  Telemetry payloads compose with the cache for free: a job whose
  config sets ``obs_level > 0`` carries its collected payload on
  ``SimResult.obs`` through the JSON round-trip, and because the cache
  key includes the config's canonical JSON, obs-enabled runs never
  collide with level-0 entries (see docs/observability.md).

See docs/harness.md for the guide and cache-key anatomy.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import SimConfig
from ..stats import SimResult
from ..workloads import DEFAULT_SEED
from .atomic import clear_store, write_atomic

#: Environment variable controlling worker-process count (default: 1).
JOBS_ENV = "REPRO_JOBS"
#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Set to a non-empty value to disable the on-disk cache entirely.
NO_CACHE_ENV = "REPRO_NO_CACHE"
#: Fresh pools one ``Engine.run`` may start after a worker died before
#: it gives up with :class:`WorkerCrashError`.
MAX_POOL_RESTARTS = 3
#: How often a pool worker checks that its driver process is alive.
ORPHAN_POLL_SECONDS = 0.5
#: Machines whose products one :class:`Engine` keeps in memory for
#: later ``run`` calls; the least recently used is dropped first.
MACHINE_MEMO_SIZE = 256

#: Bump to invalidate every cache entry regardless of code content.
ENGINE_CACHE_VERSION = "1"

_code_salt_cache: Optional[str] = None


def code_salt() -> str:
    """Digest of the package's own source files.

    Folded into every cache key so that editing the simulator (which may
    change any result) silently invalidates the whole cache instead of
    serving stale numbers.
    """
    global _code_salt_cache  # simlint: disable=CONC001 pure digest of on-disk code, identical in every process
    if _code_salt_cache is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(ENGINE_CACHE_VERSION.encode())
        for path in sorted(root.rglob("*.py")):
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _code_salt_cache = digest.hexdigest()[:16]
    return _code_salt_cache


# ---------------------------------------------------------------- job model
@dataclass
class Job:
    """One independent experiment point.

    A job's identity is fixed at construction: ``__post_init__`` freezes
    the attached config (:meth:`repro.config.SimConfig.freeze`), which
    both guards against accidental post-submission mutation and turns on
    the config's ``fingerprint()``/``canonical_json()`` memoization, so
    the engine's cache-key path canonicalizes each config's JSON once
    instead of once per ``cache.get``/``cache.put``.  The key itself is
    memoized per job for the same reason.
    """

    benchmark: str
    mode: str = "baseline"
    scale: float = 1.0
    seed: int = DEFAULT_SEED
    config: Optional[SimConfig] = None
    kind: str = "sim"

    def __post_init__(self) -> None:
        if self.config is not None:
            self.config.freeze()
        self._key_cache: Optional[str] = None
        self._resolved: Optional[SimConfig] = self.config

    def resolved_config(self) -> SimConfig:
        """The frozen config this job simulates: its own, or else its
        mode's Table-1 config (built once per job)."""
        if self._resolved is None:
            from .runner import config_for_mode
            config = config_for_mode(self.mode)
            config.freeze()
            self._resolved = config
        return self._resolved

    def machine_key(self) -> tuple:
        """The simulated machine: jobs with equal machine keys run the
        same pipeline, whatever their ``kind``, so the engine runs it
        once for all of them. Unlike :meth:`key`, ``config=None`` and
        an explicit config with the same fingerprint are one machine."""
        return (self.benchmark, self.mode, repr(float(self.scale)),
                int(self.seed), self.resolved_config().fingerprint())

    def identity(self) -> dict:
        """The JSON-able dict that fully determines this job's result."""
        return {
            "kind": self.kind,
            "benchmark": self.benchmark,
            "mode": self.mode,
            "scale": repr(float(self.scale)),
            "seed": int(self.seed),
            "config": (None if self.config is None
                       else self.config.fingerprint()),
            "salt": code_salt(),
        }

    def key(self) -> str:
        """Content-addressed cache key (SHA-256 hex, memoized)."""
        if self._key_cache is None:
            blob = json.dumps(self.identity(), sort_keys=True,
                              separators=(",", ":"))
            self._key_cache = \
                hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return self._key_cache

    def describe(self) -> str:
        tag = f"{self.benchmark}/{self.mode} @{self.scale:g}"
        if self.kind != "sim":
            tag += f" [{self.kind}]"
        if self.config is not None:
            tag += f" cfg:{self.config.fingerprint()[:8]}"
        return tag


def _run_sim_job(job: Job) -> SimResult:
    from .runner import run_benchmark
    return run_benchmark(job.benchmark, job.mode, scale=job.scale,
                         seed=job.seed, config=job.config)


def _run_rob_profile_job(job: Job) -> Dict[str, object]:
    from .runner import run_profiled
    result, fraction = run_profiled(job.benchmark, job.mode,
                                    scale=job.scale, seed=job.seed,
                                    config=job.config)
    return {"rob_profile": {"critical_fraction": fraction}, "sim": result}


@dataclass(frozen=True)
class JobKind:
    """Executor plus JSON (de)serialization hooks for one job kind.

    ``also_yields`` names the other kinds one execution produces too.
    Such a kind's ``execute`` returns ``{kind: result}`` for itself and
    each of them, and jobs of those kinds that name the same machine
    share its run."""

    execute: Callable[[Job], object]
    encode: Callable[[object], object]
    decode: Callable[[object], object]
    also_yields: Tuple[str, ...] = ()


#: Registry of job kinds. ``encode``/``decode`` map between the result
#: object and its JSON-able cache payload.
JOB_KINDS: Dict[str, JobKind] = {
    "sim": JobKind(execute=_run_sim_job,
                   encode=lambda result: result.to_dict(),
                   decode=SimResult.from_dict),
    "rob_profile": JobKind(execute=_run_rob_profile_job,
                           encode=lambda result: dict(result),
                           decode=lambda payload: {
                               "critical_fraction":
                                   float(payload["critical_fraction"])},
                           also_yields=("sim",)),
}


def _yields(kind: str) -> Tuple[str, ...]:
    """Every kind one execution of *kind* produces a result for."""
    return (kind,) + JOB_KINDS[kind].also_yields


def _execute_job(job: Job):
    """Process-pool entry point: run one job, return (output, seconds),
    where the output is the result, or ``{kind: result}`` for a kind
    that also yields others."""
    start = time.perf_counter()
    result = JOB_KINDS[job.kind].execute(job)
    return result, time.perf_counter() - start


def _exit_when_orphaned() -> None:
    """Pool initializer: end this worker once its driver is gone.

    A SIGKILLed driver cannot shut its pool down, and its workers would
    otherwise be reparented and live on. A daemon thread polls the
    parent pid and exits the worker when it changes."""
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(ORPHAN_POLL_SECONDS)
        os._exit(0)

    threading.Thread(target=watch, name="orphan-watch",
                     daemon=True).start()


class WorkerCrashError(RuntimeError):
    """Pool workers kept dying until the restart budget ran out.

    ``jobs`` lists the jobs that never finished: every member of each
    machine group whose simulation never completed. Every job that did
    finish is already cached, so a rerun recomputes only these."""

    def __init__(self, jobs: Sequence[Job], restarts: int):
        self.jobs = list(jobs)
        super().__init__(
            f"{len(self.jobs)} job(s) unfinished after {restarts} pool "
            f"restarts (a worker died on every attempt): "
            + "; ".join(job.describe() for job in self.jobs))


# -------------------------------------------------------------------- cache
def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro-sim`` (honouring
    ``$XDG_CACHE_HOME``)."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg).expanduser() if xdg \
        else pathlib.Path.home() / ".cache"
    return base / "repro-sim"


class ResultCache:
    """Content-addressed, crash-safe, JSON-on-disk result store.

    Layout: ``<root>/<key[:2]>/<key>.json``. Each entry carries the
    decoded payload plus the job identity that produced it, so entries
    are self-describing (``repro-sim cache stats`` and humans can audit
    them). Writes are atomic; reads treat any malformed entry as a miss
    and delete it.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = pathlib.Path(root).expanduser() if root is not None \
            else default_cache_dir()

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, job: Job):
        """Decoded result for *job*, or None on miss/corruption."""
        path = self.path_for(job.key())
        try:
            document = json.loads(path.read_text())
            if document["kind"] != job.kind:
                raise ValueError("kind mismatch")
            return JOB_KINDS[job.kind].decode(document["payload"])
        except FileNotFoundError:
            return None
        except Exception:
            # Truncated write, bad JSON, schema drift, ... — recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, job: Job, result) -> None:
        """Atomically persist *result* for *job* (best-effort)."""
        path = self.path_for(job.key())
        document = {
            "kind": job.kind,
            "job": job.identity(),
            "config": (None if job.config is None
                       else job.config.to_dict()),
            "payload": JOB_KINDS[job.kind].encode(result),
            "created": time.time(),
        }
        # The cache is advisory: a failed write is never fatal.
        write_atomic(path, json.dumps(document, sort_keys=True).encode())

    def entries(self) -> List[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def stats(self) -> dict:
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
        }

    def clear(self) -> int:
        """Delete every entry and orphaned temp file; returns the number
        of entries removed."""
        return clear_store(self.root, "*.json")


# ------------------------------------------------------------------- engine
@dataclass
class EngineStats:
    """Cumulative accounting across ``Engine.run`` calls.

    Every job is exactly one of a cache hit, the job a simulation was
    executed for, or a job that shared another job's simulation, so
    ``cache_hits + executed + shared == total``."""

    total: int = 0                    # jobs submitted
    executed: int = 0                 # simulations actually run
    cache_hits: int = 0               # jobs served from disk
    shared: int = 0                   # jobs served by another's run
    wall_seconds: float = 0.0         # engine wall-clock across runs
    job_seconds: float = 0.0          # summed per-job simulation time
    pool_restarts: int = 0            # fresh pools after a worker died

    def reset(self) -> None:
        self.total = 0
        self.executed = 0
        self.cache_hits = 0
        self.shared = 0
        self.wall_seconds = 0.0
        self.job_seconds = 0.0
        self.pool_restarts = 0


@dataclass
class _Run:
    """One simulation owed to the jobs at ``members`` (indices into a
    ``run`` call's job list); ``lead`` is the member whose kind
    executes, chosen so that it yields every member's kind."""

    lead: int
    members: List[int]


def _plan(runs: List[_Run], jobs: List[Job], index: int) -> None:
    """Add ``jobs[index]`` to the run among *runs* (all for its machine)
    that can serve its kind, making it the lead where its own kind
    yields every member's; otherwise start a new run."""
    kind = jobs[index].kind
    for run in runs:
        if kind in _yields(jobs[run.lead].kind):
            break
        if all(jobs[member].kind in _yields(kind)
               for member in run.members):
            run.lead = index
            break
    else:
        runs.append(_Run(index, [index]))
        return
    run.members.append(index)


def default_jobs() -> int:
    """Worker count from ``$REPRO_JOBS`` (default 1 = serial)."""
    try:
        return max(1, int(os.environ.get(JOBS_ENV, "1")))
    except ValueError:
        return 1


class Engine:
    """Fan a list of :class:`Job` out over worker processes, memoized.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` reads ``$REPRO_JOBS`` (default 1).
        With 1 worker everything runs in-process (no pool overhead, and
        the runner's in-process workload cache is shared across modes).
    use_cache:
        Disable to force re-simulation (``--no-cache``); ``None`` reads
        ``$REPRO_NO_CACHE``. Jobs naming one machine still share its
        simulation within this engine.
    cache:
        A :class:`ResultCache`; defaults to one rooted at
        ``$REPRO_CACHE_DIR`` / ``~/.cache/repro-sim``.
    progress:
        Optional callable receiving one human-readable line per
        completed job (the CLI points this at stderr).
    """

    def __init__(self, jobs: Optional[int] = None,
                 use_cache: Optional[bool] = None,
                 cache: Optional[ResultCache] = None,
                 progress: Optional[Callable[[str], None]] = None):
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        if use_cache is None:
            use_cache = not os.environ.get(NO_CACHE_ENV)
        self.use_cache = bool(use_cache)
        self.cache = cache if cache is not None else ResultCache()
        self.progress = progress
        self.stats = EngineStats()
        #: machine key -> {kind: JSON payload} of recent simulations.
        self._memo: "OrderedDict[tuple, Dict[str, str]]" = OrderedDict()

    # ------------------------------------------------------------- running
    def _report(self, done: int, total: int, job: Job, verb: str,
                seconds: Optional[float] = None) -> None:
        if self.progress is None:
            return
        line = f"[{done}/{total}] {verb:9s} {job.describe()}"
        if seconds is not None:
            line += f" ({seconds:.2f}s)"
        self.progress(line)

    def run(self, jobs: Sequence[Job]) -> List:
        """Execute *jobs*; returns results in submission order.

        Cache hits are filled in first, then jobs whose machine this
        engine simulated recently. The remaining jobs are grouped by
        machine, and each group's one simulation runs either in-process
        (1 worker) or on a process pool. Every job gets its own result
        object and its own cache entry, written as soon as its group's
        simulation arrives, so an interrupted sweep resumes from its
        last completed group. A job's own exception propagates
        unchanged; a dead pool worker costs a pool restart (see
        :data:`MAX_POOL_RESTARTS`).
        """
        jobs = list(jobs)
        start = time.perf_counter()
        results: List = [None] * len(jobs)
        owed: Dict[tuple, List[_Run]] = {}
        done = 0

        def deliver(index: int, result, verb: str,
                    seconds: Optional[float] = None) -> None:
            nonlocal done
            results[index] = result
            if self.use_cache and verb != "cache-hit":
                self.cache.put(jobs[index], result)
            done += 1
            self._report(done, len(jobs), jobs[index], verb, seconds)

        for index, job in enumerate(jobs):
            cached = self.cache.get(job) if self.use_cache else None
            if cached is not None:
                self.stats.cache_hits += 1
                deliver(index, cached, "cache-hit")
                continue
            key = job.machine_key()
            recalled = self._recall(key, job.kind)
            if recalled is not None:
                self.stats.shared += 1
                deliver(index, recalled, "shared")
            else:
                _plan(owed.setdefault(key, []), jobs, index)

        def finish(run: _Run, output, seconds: float) -> None:
            lead = jobs[run.lead]
            if not JOB_KINDS[lead.kind].also_yields:
                output = {lead.kind: output}
            key = lead.machine_key()
            self._remember(key, output)
            self.stats.executed += 1
            self.stats.job_seconds += seconds
            deliver(run.lead, output[lead.kind], "ran", seconds)
            for index in run.members:
                if index != run.lead:
                    self.stats.shared += 1
                    deliver(index, self._recall(key, jobs[index].kind),
                            "shared")

        runs = [run for group in owed.values() for run in group]
        if self.jobs > 1 and len(runs) > 1:
            self._prewarm_workloads([jobs[run.lead] for run in runs])
            for attempt in range(1 + MAX_POOL_RESTARTS):
                if attempt:
                    self.stats.pool_restarts += 1
                runs = self._run_pool(jobs, runs, finish)
                if not runs:
                    break
            else:
                raise WorkerCrashError(
                    [jobs[index] for index in
                     sorted(index for run in runs for index in run.members)],
                    MAX_POOL_RESTARTS)
        else:
            for run in runs:
                finish(run, *_execute_job(jobs[run.lead]))

        self.stats.total += len(jobs)
        self.stats.wall_seconds += time.perf_counter() - start
        return results

    def _run_pool(self, jobs: List[Job], runs: List[_Run],
                  finish: Callable[[_Run, object, float], None]
                  ) -> List[_Run]:
        """Execute each of *runs* (its lead job) on one fresh pool,
        handing every output to ``finish(run, output, seconds)``.
        Returns the runs a dead worker left unfinished, in order."""
        broken: List[_Run] = []
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(runs)),
                                 initializer=_exit_when_orphaned) as pool:
            futures = {}
            for run in runs:
                try:
                    futures[pool.submit(_execute_job, jobs[run.lead])] = run
                except BrokenProcessPool:     # a worker died already
                    broken.append(run)
            for future in as_completed(futures):
                run = futures[future]
                if isinstance(future.exception(), BrokenProcessPool):
                    broken.append(run)
                    continue
                finish(run, *future.result())
        return sorted(broken, key=lambda run: run.lead)

    @staticmethod
    def _prewarm_workloads(jobs: Sequence[Job]) -> None:
        """Build each unique workload trace once in the parent before the
        pool forks, so workers inherit them copy-on-write instead of each
        re-running the functional simulation (on ``fork`` platforms; a
        harmless warm-up elsewhere). This keeps the one-trace-per-
        benchmark sharing the serial path gets from the runner's
        in-process cache.

        Only the first :func:`~repro.harness.runner.workload_cache_capacity`
        distinct workloads (in submission order, the ones workers need
        first) are built: the runner's LRU would evict any beyond that
        before the fork, so building them is wasted serial work."""
        from .runner import load_workload, workload_cache_capacity
        # dict.fromkeys, not a set: dedup in first-seen order so the
        # prewarm sequence is independent of PYTHONHASHSEED (DET002).
        keys = list(dict.fromkeys(
            (job.benchmark, job.scale, job.seed) for job in jobs))
        for key in keys[:workload_cache_capacity()]:
            load_workload(*key).trace()

    def _remember(self, key: tuple, products: Dict[str, object]) -> None:
        """Memoize one simulation's products as JSON payloads."""
        payloads = self._memo.pop(key, {})
        for kind, result in products.items():
            payloads[kind] = json.dumps(JOB_KINDS[kind].encode(result))
        self._memo[key] = payloads
        while len(self._memo) > MACHINE_MEMO_SIZE:
            self._memo.popitem(last=False)

    def _recall(self, key: tuple, kind: str):
        """A fresh decoded copy of *kind*'s memoized result for machine
        *key*, exactly what a cache hit returns; None when absent."""
        payloads = self._memo.get(key)
        if payloads is None or kind not in payloads:
            return None
        self._memo.move_to_end(key)
        return JOB_KINDS[kind].decode(json.loads(payloads[kind]))

    # ------------------------------------------------------------ reporting
    def summary(self) -> str:
        """One line: jobs, cache hits, executions, shared jobs, pool
        restarts, wall/sim time."""
        stats = self.stats
        return (f"engine: {stats.total} jobs, {stats.cache_hits} cache "
                f"hits, {stats.executed} simulated, {stats.shared} shared, "
                f"{stats.pool_restarts} pool restarts, "
                f"{stats.wall_seconds:.1f}s wall "
                f"({stats.job_seconds:.1f}s sim, {self.jobs} worker"
                f"{'s' if self.jobs != 1 else ''})")


# --------------------------------------------------- screening front-end
class ScreeningEngine:
    """Two-tier front end: analytic scores first, full sim on demand.

    Wraps a full engine (the default :class:`Engine` unless one is
    passed in) and adds the analytical fast tier from
    :mod:`repro.analytic`: :meth:`predict` scores a :class:`Job` in
    microseconds against a per-workload
    :class:`~repro.analytic.profile.TraceProfile` (memoized here and
    persisted beside the trace in the trace store), and :meth:`run`
    delegates to the wrapped engine for the points a caller decides to
    simulate.  Promotion policy (top-K / within-epsilon over sweep
    values) lives in :func:`repro.harness.sweep.screened_sweep`; this
    class only provides the two tiers plus screening counters.
    """

    def __init__(self, full_engine=None,
                 counters: Optional["Counters"] = None):
        from ..analytic import AnalyticModel
        from ..stats import Counters
        self.full = full_engine if full_engine is not None else Engine()
        self.model = AnalyticModel()
        self.counters = counters if counters is not None else Counters()
        self._profiles: Dict[tuple, object] = {}

    # -------------------------------------------------- analytic tier
    def profile_for(self, benchmark: str, scale: float = 1.0,
                    seed: int = DEFAULT_SEED):
        """The (memoized) :class:`TraceProfile` for one workload point.

        A profile the trace store already holds is loaded without
        building the workload or decoding its trace; otherwise it is
        built from the trace and stored for the next process."""
        from .tracestore import get_trace_store, trace_store_enabled
        key = (benchmark, float(scale), int(seed))
        profile = self._profiles.get(key)
        if profile is not None:
            return profile
        store = get_trace_store() if trace_store_enabled() else None
        if store is not None:
            profile = store.get_profile(benchmark, scale, seed)
        if profile is not None:
            self.counters.bump("screen_profiles_loaded")
        else:
            from ..analytic import TraceProfile
            from .runner import load_workload
            workload = load_workload(benchmark, scale, seed)
            profile = TraceProfile.from_trace(workload.trace(),
                                              name=benchmark)
            if store is not None:
                store.put_profile(benchmark, scale, seed, profile)
            self.counters.bump("screen_profiles_built")
        self._profiles[key] = profile
        return profile

    def predict(self, job: Job):
        """Analytic prediction for *job* (an ``AnalyticPrediction``)."""
        if job.kind != "sim":
            raise ValueError(
                f"screening only scores 'sim' jobs, not {job.kind!r}")
        profile = self.profile_for(job.benchmark, job.scale, job.seed)
        self.counters.bump("screen_configs_scored")
        return self.model.predict(profile, job.resolved_config())

    def predict_ipc(self, job: Job) -> float:
        """Predicted IPC for *job* (the screening tier's score)."""
        return self.predict(job).ipc

    # ------------------------------------------------------ full tier
    def run(self, jobs: Sequence[Job]) -> List:
        """Full-simulation tier: delegate to the wrapped engine."""
        return self.full.run(jobs)

    def screen_summary(self) -> str:
        """One line: configs scored, profiles built or loaded from the
        trace store, points promoted and pruned."""
        counters = self.counters
        built = counters["screen_profiles_built"]
        loaded = counters["screen_profiles_loaded"]
        return (f"screen: {counters['screen_configs_scored']} configs "
                f"scored, {built + loaded} profiles ({built} built, "
                f"{loaded} loaded), "
                f"{counters['screen_configs_promoted']} promoted, "
                f"{counters['screen_configs_pruned']} pruned")

    def summary(self) -> str:
        """The screening line followed by the full engine's."""
        return self.screen_summary() + "; " + self.full.summary()


# --------------------------------------------------------- default engine
_default_engine: Optional[Engine] = None


def get_engine() -> Engine:
    """The process-wide default engine (created lazily from the
    environment); all harness drivers run through it unless handed an
    explicit engine."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine()
    return _default_engine


def configure(jobs: Optional[int] = None,
              use_cache: Optional[bool] = None,
              cache_dir: Optional[os.PathLike] = None,
              progress: Optional[Callable[[str], None]] = None) -> Engine:
    """Rebuild the default engine (fresh stats) with the given settings;
    unspecified settings fall back to the environment. Returns it."""
    global _default_engine
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    _default_engine = Engine(jobs=jobs, use_cache=use_cache, cache=cache,
                             progress=progress)
    return _default_engine


def run_jobs(jobs: Sequence[Job]) -> List:
    """Convenience: run *jobs* on the default engine."""
    return get_engine().run(jobs)


def stderr_progress(line: str) -> None:
    """Progress sink used by the CLI."""
    print(line, file=sys.stderr)
