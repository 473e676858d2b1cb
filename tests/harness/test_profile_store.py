"""Tests for analytic trace profiles kept in the trace store.

The screening tier builds one :class:`TraceProfile` per workload and
scores every config against it.  The trace store keeps that profile as
a ``.profile.json`` sidecar, so a later process scores a sweep without
building the workload, decoding its trace or re-profiling it.  A stored
profile must score every config exactly as a freshly built one does,
and a damaged, stale or disabled store must cost a rebuild, never a
wrong score.
"""

import json

import pytest

from repro.analytic import profile as profile_module
from repro.analytic.profile import TraceProfile
from repro.cli import main
from repro.harness import runner
from repro.harness.engine import Engine, Job, ResultCache, ScreeningEngine
from repro.harness.runner import config_for_mode, load_workload
from repro.harness.sweep import (
    KNOBS,
    QUICK_SCREEN_MODES,
    QUICK_SCREEN_NAMES,
    QUICK_SCREEN_SCALE,
    QUICK_SCREEN_SWEEPS,
    screened_sweep,
)
from repro.harness.tracestore import (
    PROFILE_SUFFIX,
    get_trace_store,
    reset_trace_store,
)
from repro.isa import traceio
from repro.workloads import DEFAULT_SEED

SMALL = 0.1


@pytest.fixture
def private_store(tmp_path, monkeypatch):
    """A private trace store and fresh in-process workload memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_NO_TRACE_CACHE", raising=False)
    runner._workload_cache.clear()
    reset_trace_store()
    yield get_trace_store()
    runner._workload_cache.clear()
    reset_trace_store()


def sidecar(store, name="bzip", scale=SMALL, seed=DEFAULT_SEED):
    return store.profile_path_for(store.profile_key(name, scale, seed))


def screen_once(name="bzip", scale=SMALL) -> ScreeningEngine:
    screening = ScreeningEngine(full_engine=Engine(jobs=1))
    screening.predict(Job(name, "baseline", scale=scale))
    return screening


def forbid_rebuilding(monkeypatch):
    """Make every step of building a profile from scratch raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a stored profile must not be rebuilt")
    monkeypatch.setattr(runner, "get_workload", refuse)
    monkeypatch.setattr(traceio, "loads_trace", refuse)
    monkeypatch.setattr(TraceProfile, "from_trace", classmethod(refuse))
    runner._workload_cache.clear()


# ----------------------------------------------------------- exactness
@pytest.mark.parametrize("knob_name", sorted(QUICK_SCREEN_SWEEPS))
def test_stored_profile_scores_every_quick_point_exactly(
        knob_name, tmp_path, monkeypatch):
    # The full tier keeps the session result cache (the recall tests
    # simulate the same points); profiles go to a private store.
    full = Engine(jobs=1, cache=ResultCache())
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    knob, values = KNOBS[knob_name], QUICK_SCREEN_SWEEPS[knob_name]

    def screen():
        screening = ScreeningEngine(full_engine=full)
        report = screened_sweep(
            knob, values, QUICK_SCREEN_NAMES, modes=QUICK_SCREEN_MODES,
            scale=QUICK_SCREEN_SCALE, screening=screening)
        return screening, report

    cold_screening, cold = screen()
    warm_screening, warm = screen()
    names = len(QUICK_SCREEN_NAMES)
    assert cold_screening.counters["screen_profiles_built"] == names
    assert warm_screening.counters["screen_profiles_built"] == 0
    assert warm_screening.counters["screen_profiles_loaded"] == names
    assert warm.scores == cold.scores
    assert (warm.promoted, warm.pruned) == (cold.promoted, cold.pruned)

    model = warm_screening.model
    for name in QUICK_SCREEN_NAMES:
        fresh = TraceProfile.from_trace(
            load_workload(name, QUICK_SCREEN_SCALE).trace(), name=name)
        stored = warm_screening.profile_for(name, QUICK_SCREEN_SCALE)
        assert stored == fresh
        for value in values:
            for mode in QUICK_SCREEN_MODES:
                config = knob(config_for_mode(mode), value)
                assert (model.predict(stored, config)
                        == model.predict(fresh, config)), (name, value, mode)


# ------------------------------------------------------------ warm path
def test_second_engine_loads_without_building_anything(private_store,
                                                       monkeypatch):
    cold = screen_once()
    assert cold.counters["screen_profiles_built"] == 1
    assert sidecar(private_store).is_file()
    expected = cold.predict(Job("bzip", "cdf", scale=SMALL))

    forbid_rebuilding(monkeypatch)
    warm = ScreeningEngine(full_engine=Engine(jobs=1))
    assert warm.predict(Job("bzip", "cdf", scale=SMALL)) == expected
    assert warm.counters["screen_profiles_built"] == 0
    assert warm.counters["screen_profiles_loaded"] == 1
    assert "1 profiles (0 built, 1 loaded)" in warm.screen_summary()


@pytest.mark.parametrize("damage", [
    lambda data: data[:len(data) // 2],                  # torn write
    lambda data: b"\x00\xffnot json at all",             # bit rot
    lambda data: b"[1, 2, 3]",                           # wrong shape
    lambda data: data.replace(b'"schema_version": ',     # other schema
                              b'"schema_version": 9'),
], ids=["truncated", "garbage", "wrong-shape", "other-schema"])
def test_damaged_sidecar_is_rebuilt_and_rewritten(private_store, damage):
    screen_once()
    path = sidecar(private_store)
    good = path.read_bytes()
    path.write_bytes(damage(good))

    again = screen_once()
    assert again.counters["screen_profiles_built"] == 1
    assert again.counters["screen_profiles_loaded"] == 0
    assert path.read_bytes() == good
    assert screen_once().counters["screen_profiles_loaded"] == 1


def test_bumped_schema_version_is_a_miss(private_store, monkeypatch):
    screen_once()
    old_path = sidecar(private_store)
    monkeypatch.setattr(profile_module, "PROFILE_SCHEMA_VERSION",
                        profile_module.PROFILE_SCHEMA_VERSION + 1)
    new_path = sidecar(private_store)
    assert new_path != old_path

    bumped = screen_once()
    assert bumped.counters["screen_profiles_built"] == 1
    assert bumped.counters["screen_profiles_loaded"] == 0
    document = json.loads(new_path.read_text())
    assert document["schema_version"] == \
        profile_module.PROFILE_SCHEMA_VERSION
    assert screen_once().counters["screen_profiles_loaded"] == 1


def test_disabled_trace_store_writes_no_profile(private_store, tmp_path,
                                                monkeypatch):
    monkeypatch.setenv("REPRO_NO_TRACE_CACHE", "1")
    first = screen_once()
    second = screen_once()
    assert first.counters["screen_profiles_built"] == 1
    assert second.counters["screen_profiles_built"] == 1
    assert second.counters["screen_profiles_loaded"] == 0
    assert not list(tmp_path.rglob("*"))
    # Control: the same screening with the store enabled writes one.
    monkeypatch.delenv("REPRO_NO_TRACE_CACHE")
    screen_once()
    assert [path.name for path in private_store.profile_entries()] == \
        [sidecar(private_store).name]


def plant_profile_and_orphan(store):
    screen_once()
    path = sidecar(store)
    assert path.is_file()
    path.with_name(path.name + ".tmp4242").write_bytes(b"{")


def test_store_clear_removes_profiles_and_their_temp_files(private_store):
    plant_profile_and_orphan(private_store)
    assert private_store.stats()["profiles"] == 1
    assert private_store.clear() == 2     # one trace, one profile
    assert not list(private_store.root.rglob("*.*"))
    assert private_store.stats()["profiles"] == 0


def test_cache_clear_removes_profiles_and_their_temp_files(
        private_store, capsys):
    plant_profile_and_orphan(private_store)
    assert main(["cache", "stats"]) == 0
    assert "profiles" in capsys.readouterr().out

    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "removed 1 compiled trace and 1 profile from" in out
    assert not list(private_store.root.rglob(f"*{PROFILE_SUFFIX}*"))
