"""Result-cache corruption races.

The content-addressed cache is shared by every sweep that points at the
same directory, so two writers can race on the same key while a third
crashes mid-write. The contract under test:

* ``get`` never returns garbage — a torn or corrupt entry is detected,
  deleted, and reported as a miss (recompute, not wrong data);
* a crash *before* the atomic rename never disturbs the existing entry,
  and ``clear()`` removes the temp file it leaves behind;
* concurrent same-key writers, some of them crashing mid-write, leave
  the cache in a state from which one more ``put`` fully recovers;
* a sweep whose driver is killed mid-write resumes bit-identically.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.harness.engine import Engine, Job, ResultCache
from repro.harness.tracestore import TraceStore
from repro.harness.runner import load_workload

PAYLOAD = {"critical_fraction": 0.25}


def profile_job(seed=1):
    return Job("bzip", "baseline", scale=0.05, seed=seed,
               kind="rob_profile")


# ------------------------------------------------------------ torn entries
def test_torn_entry_is_a_miss_and_is_deleted(tmp_path):
    cache = ResultCache(tmp_path)
    job = profile_job()
    cache.put(job, PAYLOAD)
    path = cache.path_for(job.key())
    blob = path.read_text()
    for cut in range(1, len(blob)):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(blob[:cut])
        got = cache.get(job)
        if got is not None:                   # a decodable prefix must
            assert got == PAYLOAD             # still decode *correctly*
        else:
            assert not path.exists()          # torn entry removed
        cache.put(job, PAYLOAD)
    assert cache.get(job) == PAYLOAD


def test_wrong_kind_entry_is_rejected_not_returned(tmp_path):
    cache = ResultCache(tmp_path)
    job = profile_job()
    cache.put(job, PAYLOAD)
    # Same key, different kind claimed on disk: schema drift must read
    # as a miss, never as a payload of the wrong shape.
    path = cache.path_for(job.key())
    document = json.loads(path.read_text())
    document["kind"] = "sim"
    path.write_text(json.dumps(document))
    assert cache.get(job) is None


def test_crash_before_rename_leaves_previous_entry_intact(tmp_path):
    cache = ResultCache(tmp_path)
    job = profile_job()
    cache.put(job, PAYLOAD)
    path = cache.path_for(job.key())
    # A writer that died after writing its temp file but before the
    # atomic rename: the temp must not shadow or corrupt the entry.
    stale = path.with_name(path.name + ".tmp99999")
    stale.write_text('{"torn": ')
    assert cache.get(job) == PAYLOAD
    newer = {"critical_fraction": 0.75}
    cache.put(job, newer)
    assert cache.get(job) == newer


def test_clear_removes_orphaned_temp_files(tmp_path):
    cache = ResultCache(tmp_path / "results")
    store = TraceStore(tmp_path / "traces")
    job = profile_job()
    cache.put(job, PAYLOAD)
    store.put("bzip", 0.05, 1, load_workload("bzip", 0.05, 1).trace())
    # Writers killed between the temp write and the rename.
    for entry in (cache.entries()[0], store.entries()[0]):
        entry.with_name(entry.name + ".tmp99999").write_text("torn")
    assert cache.clear() == 1
    assert store.clear() == 1
    for root in (cache.root, store.root):
        assert [path for path in root.rglob("*") if path.is_file()] == []


# ------------------------------------------------------- process races
def _racing_writer(cache_dir, crash):
    cache = ResultCache(cache_dir)
    job = profile_job()
    if crash:
        # Worst-case writer: no atomic rename, dies mid-write, leaving
        # a torn entry at the final path (what torn_write injects).
        path = cache.path_for(job.key())
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps({"kind": job.kind, "payload": PAYLOAD})
        path.write_text(blob[: len(blob) // 2])
        os._exit(137)
    cache.put(job, PAYLOAD)
    os._exit(0)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="racing writers use fork")
def test_concurrent_same_key_writers_with_crashers(tmp_path):
    job = profile_job()
    cache = ResultCache(tmp_path)
    for round_ in range(3):
        writers = [
            multiprocessing.Process(
                target=_racing_writer,
                args=(str(tmp_path), index % 2 == 1))
            for index in range(8)]
        for process in writers:
            process.start()
        for process in writers:
            process.join(30)
        # Whatever interleaving happened: either a fully valid entry
        # survived, or the torn loser is detected and read as a miss.
        got = cache.get(job)
        assert got in (PAYLOAD, None)
        # One healthy put always recovers the key.
        cache.put(job, PAYLOAD)
        assert cache.get(job) == PAYLOAD


# --------------------------------------------------------- engine level
class _KilledMidWrite(ResultCache):
    """A cache whose second ``put`` writes half an entry straight to
    its final path (no atomic rename), then SIGKILLs the writer."""

    def __init__(self, root):
        super().__init__(root)
        self.puts = 0

    def put(self, job, result):
        self.puts += 1
        if self.puts < 2:
            return super().put(job, result)
        path = self.path_for(job.key())
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = json.dumps({"kind": job.kind,
                           "payload": result.to_dict()})
        path.write_text(blob[: len(blob) // 2])
        os.kill(os.getpid(), signal.SIGKILL)


def _sweep_killed_mid_write(cache_dir, jobs):
    Engine(jobs=2, cache=_KilledMidWrite(cache_dir)).run(jobs)


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the killed sweep runs in a forked child")
def test_sweep_killed_mid_write_resumes_bit_identically(tmp_path):
    """A 2-worker sweep whose cache writer dies mid-write leaves one
    good entry and one torn one. The rerun reads the torn entry as a
    miss, recomputes it, and matches a serial no-cache run."""
    cache_dir = tmp_path / "cache"
    jobs = [Job(name, mode, scale=0.05, seed=seed)
            for name in ("bzip", "milc") for mode in ("baseline", "cdf")
            for seed in (1, 2)]
    child = multiprocessing.Process(target=_sweep_killed_mid_write,
                                    args=(cache_dir, jobs))
    child.start()
    child.join(60)
    assert child.exitcode == -signal.SIGKILL
    cache = ResultCache(cache_dir)
    assert len(cache.entries()) == 2          # one good, one torn

    engine = Engine(jobs=2, cache=cache)
    results = engine.run(jobs)
    assert engine.stats.cache_hits == 1
    assert engine.stats.executed == len(jobs) - 1
    reference = [result.fingerprint() for result in
                 Engine(jobs=1, use_cache=False).run(jobs)]
    assert [result.fingerprint() for result in results] == reference
    assert [cache.get(job).fingerprint() for job in jobs] == reference
