"""Jobs that name the same machine share one simulation.

The count gate runs the QUICK registry's shape — Fig. 1, the Fig. 13-16
comparison, Fig. 17 at ROB 352/512 and the critical-branch ablation —
on two kernels. Fig. 1's profiled baseline runs serve the comparison's
baseline jobs, and Fig. 17's 352-entry row is the default core, so one
third of the jobs are shared (18 of 54 for QUICK's six kernels).
"""

import json

import pytest

from repro.config import SimConfig
from repro.harness import engine as engine_module
from repro.harness import experiments
from repro.harness.engine import Engine, Job, ResultCache, configure
from repro.harness.runner import rob_stall_profile, run_benchmark

NAMES = ("milc", "lbm")
SCALE = 0.05
SEED = 42


def run_quick_shape(jobs, cache_dir):
    """Run the QUICK drivers on :data:`NAMES` on a fresh default engine;
    returns (engine, the drivers' outputs)."""
    engine = configure(jobs=jobs, cache_dir=cache_dir)
    experiments._comparison_cache = {}
    outputs = (
        experiments.fig01_rob_distribution(NAMES, SCALE, SEED),
        experiments.fig13_speedup(NAMES, SCALE, SEED),
        experiments.fig17_scaling((352, 512), NAMES, SCALE, SEED),
        experiments.ablation_critical_branches(NAMES, SCALE, SEED),
    )
    return engine, outputs


@pytest.fixture
def default_engine():
    saved = experiments._comparison_cache
    yield
    experiments._comparison_cache = saved
    configure()


def direct_value(document):
    """What a direct runner call returns for a cache entry's job."""
    job = document["job"]
    scale = float(job["scale"])
    if job["kind"] == "rob_profile":
        return rob_stall_profile(job["benchmark"], scale, job["seed"])
    config = (None if document["config"] is None
              else SimConfig.from_dict(document["config"]))
    return run_benchmark(job["benchmark"], job["mode"], scale=scale,
                         seed=job["seed"], config=config).fingerprint()


def test_quick_shape_simulates_each_machine_once(tmp_path, default_engine):
    engine, serial = run_quick_shape(1, tmp_path / "serial")
    stats = engine.stats
    # 2 profiled baselines + 2 cdf + 2 pre + 4 at ROB 512 + 2 ablation.
    assert (stats.total, stats.cache_hits, stats.executed,
            stats.shared) == (18, 0, 12, 6)
    assert stats.cache_hits + stats.executed + stats.shared == stats.total
    assert "18 jobs, 0 cache hits, 12 simulated, 6 shared" \
        in engine.summary()

    # One cache entry per job, each equal to a direct runner call.
    cache = ResultCache(tmp_path / "serial")
    documents = [json.loads(path.read_text()) for path in cache.entries()]
    assert len(documents) == stats.total
    for document in documents:
        payload = engine_module.JOB_KINDS[document["kind"]].decode(
            document["payload"])
        got = (payload["critical_fraction"]
               if document["kind"] == "rob_profile"
               else payload.fingerprint())
        assert got == direct_value(document), document["job"]

    rerun, warm = run_quick_shape(1, tmp_path / "serial")
    assert rerun.stats.cache_hits == rerun.stats.total == 18
    assert warm == serial

    pooled, parallel = run_quick_shape(2, tmp_path / "parallel")
    assert (pooled.stats.executed, pooled.stats.shared) == (12, 6)
    assert parallel == serial


def test_machine_key_ignores_kind_and_explicit_default_config():
    default = Job("milc", "cdf", scale=SCALE)
    explicit = Job("milc", "cdf", scale=SCALE, config=SimConfig.with_cdf())
    scaled = SimConfig.with_cdf()
    scaled.core = scaled.core.scaled(352)
    assert default.key() != explicit.key()
    assert default.machine_key() == explicit.machine_key() \
        == Job("milc", "cdf", scale=SCALE, config=scaled).machine_key()
    assert Job("milc", scale=SCALE, kind="rob_profile").machine_key() \
        == Job("milc", scale=SCALE).machine_key()
    assert default.machine_key() != Job("milc", "pre",
                                        scale=SCALE).machine_key()
    assert default.resolved_config().frozen
    assert default.resolved_config() is default.resolved_config()


def test_shared_results_are_copies_and_no_cache_reads_no_disk(tmp_path):
    engine = Engine(jobs=1, use_cache=False, cache=ResultCache(tmp_path))
    jobs = [Job("milc", scale=SCALE), Job("milc", scale=SCALE),
            Job("milc", scale=SCALE, config=SimConfig.baseline())]
    first = engine.run(jobs)
    again = engine.run(jobs[:1])
    assert (engine.stats.executed, engine.stats.shared) == (1, 3)
    results = first + again
    assert len({id(result) for result in results}) == len(results)
    assert len({result.fingerprint() for result in results}) == 1
    assert ResultCache(tmp_path).entries() == []


def test_machine_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(engine_module, "MACHINE_MEMO_SIZE", 1)
    engine = Engine(jobs=1, use_cache=False)
    for name in ("milc", "lbm", "milc"):
        engine.run([Job(name, scale=SCALE)])
    assert (engine.stats.executed, engine.stats.shared) == (3, 0)
    engine.run([Job("milc", scale=SCALE)])
    assert (engine.stats.executed, engine.stats.shared) == (3, 1)


def test_memo_without_the_kind_reruns_the_machine_profiled():
    engine = Engine(jobs=1, use_cache=False)
    [plain] = engine.run([Job("milc", scale=SCALE)])
    [profile] = engine.run([Job("milc", scale=SCALE, kind="rob_profile")])
    assert (engine.stats.executed, engine.stats.shared) == (2, 0)
    assert profile["critical_fraction"] == rob_stall_profile("milc", SCALE)
    [again] = engine.run([Job("milc", scale=SCALE)])
    assert engine.stats.shared == 1
    assert again.fingerprint() == plain.fingerprint()
