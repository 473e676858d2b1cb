"""Chaos acceptance for the process-pool engine.

A harness fault may cost recomputation but must never produce a wrong
result. Each case runs a 2-worker :class:`Engine` sweep through one
fault and checks every fingerprint against a serial no-cache run:

* pool workers SIGKILLed mid-sweep: the run restarts the pool and
  completes bit-identically, also when the killed worker was running a
  simulation several jobs share;
* the driver SIGKILLed mid-sweep: its workers exit on their own, and
  the rerun serves every finished job from the cache;
* a job that kills its worker on every attempt: the run gives up with
  :class:`WorkerCrashError` after the restart budget, naming every job
  that shared the dead simulation, with every finished job cached;
* a job that raises: the exception propagates unchanged, no restart.

The torn-cache-write case lives in test_result_cache_race.py.
"""

import multiprocessing
import os
import pathlib
import signal
import time

import pytest

from repro.config import SimConfig
from repro.harness.engine import (
    JOB_KINDS,
    MAX_POOL_RESTARTS,
    Engine,
    Job,
    JobKind,
    ResultCache,
    WorkerCrashError,
)

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fault injection relies on fork-inherited job kinds")

JOBS = [Job(name, mode, scale=0.05, seed=seed)
        for name in ("bzip", "milc") for mode in ("baseline", "cdf")
        for seed in (1, 2, 3, 4)]


@pytest.fixture(scope="module")
def reference():
    """Fingerprints of a serial no-cache run of :data:`JOBS`."""
    return [result.fingerprint()
            for result in Engine(jobs=1, use_cache=False).run(JOBS)]


def fingerprints(results):
    return [result.fingerprint() for result in results]


# ------------------------------------------------------------ worker kills
class WorkerKiller:
    """Progress sink that SIGKILLs one worker of each new pool on its
    first completed job, *kills* times in all."""

    def __init__(self, kills):
        self.kills = kills
        self.broken_pool = set()

    def __call__(self, line):
        if not self.kills or " ran " not in line:
            return
        workers = {child.pid for child in multiprocessing.active_children()}
        if not workers or workers & self.broken_pool:
            return                        # this pool is already broken
        self.broken_pool = workers
        os.kill(min(workers), signal.SIGKILL)
        self.kills -= 1


def test_three_worker_kills_complete_bit_identically(tmp_path, reference):
    killer = WorkerKiller(kills=3)
    engine = Engine(jobs=2, cache=ResultCache(tmp_path), progress=killer)
    results = engine.run(JOBS)
    assert killer.kills == 0
    assert engine.stats.pool_restarts == 3
    assert engine.stats.executed == len(JOBS)
    assert fingerprints(results) == reference
    assert "3 pool restarts" in engine.summary()
    # Every result reached the cache exactly once per job.
    rerun = Engine(jobs=2, cache=ResultCache(tmp_path))
    assert fingerprints(rerun.run(JOBS)) == reference
    assert rerun.stats.cache_hits == len(JOBS)


def test_clean_run_restarts_no_pool(tmp_path, reference):
    engine = Engine(jobs=2, cache=ResultCache(tmp_path))
    assert fingerprints(engine.run(JOBS)) == reference
    assert engine.stats.pool_restarts == 0
    assert "0 pool restarts" in engine.summary()


# ------------------------------------------------------------- driver kill
def _children_of(pid):
    """Pids whose parent is *pid* (Linux /proc scan)."""
    children = []
    for stat in pathlib.Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(stat.parent.name))
    return children


def _alive(pid):
    """True unless *pid* has exited (a zombie awaiting reaping counts
    as exited)."""
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _sweep(cache_dir):
    Engine(jobs=2, cache=ResultCache(cache_dir)).run(JOBS)


@pytest.mark.skipif(not pathlib.Path("/proc/self/stat").exists(),
                    reason="needs /proc to find the pool workers")
def test_driver_kill_leaves_no_workers_and_resumes_from_cache(
        tmp_path, reference):
    cache = ResultCache(tmp_path)
    driver = multiprocessing.Process(target=_sweep, args=(tmp_path,))
    driver.start()
    deadline = time.monotonic() + 60
    while len(cache.entries()) < 2 and time.monotonic() < deadline:
        time.sleep(0.01)
    workers = _children_of(driver.pid)
    os.kill(driver.pid, signal.SIGKILL)
    driver.join(10)
    assert driver.exitcode == -signal.SIGKILL
    assert len(workers) == 2
    cached = len(cache.entries())
    assert 2 <= cached < len(JOBS)

    # Orphaned workers notice their driver is gone and exit.
    deadline = time.monotonic() + 5
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, workers))

    engine = Engine(jobs=2, cache=cache)
    assert fingerprints(engine.run(JOBS)) == reference
    assert engine.stats.cache_hits >= cached
    assert engine.stats.executed == len(JOBS) - engine.stats.cache_hits


# ----------------------------------------------------------- poison jobs
def _kill_own_worker(job):
    os.kill(os.getpid(), signal.SIGKILL)


def _raise(job):
    raise ValueError(f"deterministic failure in {job.benchmark}")


def _noop(job):
    return {}


def test_job_that_always_kills_its_worker_exhausts_the_budget(
        tmp_path, monkeypatch):
    monkeypatch.setitem(JOB_KINDS, "crash",
                        JobKind(execute=_kill_own_worker,
                                encode=dict, decode=dict))
    poison = Job("bzip", scale=0.05, kind="crash")
    jobs = JOBS[:6] + [poison]
    cache = ResultCache(tmp_path)
    engine = Engine(jobs=2, cache=cache)
    with pytest.raises(WorkerCrashError) as caught:
        engine.run(jobs)
    assert engine.stats.pool_restarts == MAX_POOL_RESTARTS
    unfinished = caught.value.jobs
    assert poison in unfinished
    assert poison.describe() in str(caught.value)
    finished = [job for job in jobs if job not in unfinished]
    assert finished
    assert all(cache.get(job) is not None for job in finished)

    # A rerun without the poison job recomputes only the unfinished.
    rerun = Engine(jobs=2, cache=cache)
    rerun.run(JOBS[:6])
    assert rerun.stats.executed == len(unfinished) - 1


def _rob_config(rob_size):
    """A distinct machine per ROB size, on one workload trace."""
    config = SimConfig.baseline()
    config.core.rob_size = rob_size
    return config


def test_worker_death_during_submission_costs_a_restart(monkeypatch):
    """A poison job at the head of a long queue can break the pool while
    later jobs are still being submitted; that is a restart too."""
    monkeypatch.setitem(JOB_KINDS, "crash",
                        JobKind(execute=_kill_own_worker,
                                encode=dict, decode=dict))
    monkeypatch.setitem(JOB_KINDS, "noop",
                        JobKind(execute=_noop, encode=dict, decode=dict))
    poison = Job("bzip", scale=0.05, kind="crash")
    jobs = [poison] + [Job("bzip", scale=0.05, kind="noop",
                           config=_rob_config(rob)) for rob in range(1000)]
    for _ in range(5):
        engine = Engine(jobs=2, use_cache=False)
        with pytest.raises(WorkerCrashError) as caught:
            engine.run(jobs)
        assert caught.value.jobs[0] == poison
        assert engine.stats.pool_restarts == MAX_POOL_RESTARTS


def test_crash_error_names_every_member_of_a_dead_group(monkeypatch):
    monkeypatch.setitem(JOB_KINDS, "crash",
                        JobKind(execute=_kill_own_worker, encode=dict,
                                decode=dict, also_yields=("sim",)))
    poison = Job("bzip", scale=0.05, seed=1, kind="crash")
    jobs = JOBS[:6] + [poison]         # JOBS[0] names poison's machine
    engine = Engine(jobs=2, use_cache=False)
    with pytest.raises(WorkerCrashError) as caught:
        engine.run(jobs)
    unfinished = caught.value.jobs
    assert poison in unfinished and JOBS[0] in unfinished
    assert JOBS[0].describe() in str(caught.value)


def _crash_once_then_profile(job):
    """Kill this worker the first time any worker runs this; afterwards
    run a real ROB profile, reported under this kind."""
    marker = pathlib.Path(os.environ[CRASH_MARKER_ENV])
    if not marker.exists():
        marker.touch()
        os.kill(os.getpid(), signal.SIGKILL)
    products = JOB_KINDS["rob_profile"].execute(job)
    return {"flaky": products["rob_profile"], "sim": products["sim"]}


CRASH_MARKER_ENV = "ENGINE_FAULTS_CRASH_MARKER"


def test_worker_kill_in_a_shared_group_costs_one_restart(
        tmp_path, monkeypatch, reference):
    monkeypatch.setenv(CRASH_MARKER_ENV, str(tmp_path / "crashed"))
    monkeypatch.setitem(JOB_KINDS, "flaky",
                        JobKind(execute=_crash_once_then_profile,
                                encode=dict, decode=dict,
                                also_yields=("sim",)))
    # Three jobs name JOBS[0]'s machine; the flaky one leads their run.
    group = [Job("bzip", scale=0.05, seed=1, kind="flaky"),
             Job("bzip", scale=0.05, seed=1, config=SimConfig.baseline())]
    jobs = JOBS + group
    cache = ResultCache(tmp_path / "cache")
    engine = Engine(jobs=2, cache=cache)
    results = engine.run(jobs)
    assert engine.stats.pool_restarts == 1
    assert (engine.stats.executed, engine.stats.shared) == (len(JOBS), 2)
    assert fingerprints(results[:len(JOBS)]) == reference
    assert results[-1].fingerprint() == reference[0]
    assert 0.0 <= results[-2]["critical_fraction"] <= 1.0
    assert all(cache.get(job) is not None for job in [JOBS[0]] + group)
    rerun = Engine(jobs=2, cache=cache)
    rerun.run(jobs)
    assert rerun.stats.cache_hits == len(jobs)


def test_job_exception_propagates_without_restart(tmp_path, monkeypatch):
    monkeypatch.setitem(JOB_KINDS, "raise",
                        JobKind(execute=_raise, encode=dict, decode=dict))
    engine = Engine(jobs=2, cache=ResultCache(tmp_path))
    with pytest.raises(ValueError, match="deterministic failure in milc"):
        engine.run(JOBS[:2] + [Job("milc", scale=0.05, kind="raise")])
    assert engine.stats.pool_restarts == 0
