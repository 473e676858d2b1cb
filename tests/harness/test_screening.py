"""Tests for the two-tier analytic screening path.

The headline property — asserted over every pinned QUICK sweep — is
*promotion recall*: the value the cycle-accurate model ranks best must
always survive analytic screening.  Screening that prunes the true
optimum would silently corrupt every downstream study, so the recall
tests simulate the pruned points too and compare.
"""

import pytest

from repro.harness.engine import Engine, Job, ScreeningEngine
from repro.harness.sweep import (
    KNOBS,
    QUICK_SCREEN_SWEEPS,
    quick_screened_sweep,
    screened_sweep,
)

SMALL = 0.1


# ------------------------------------------------------ ScreeningEngine
def test_predict_scores_sim_jobs_and_counts(tmp_path, monkeypatch):
    # A private store: a profile another test left behind would be
    # loaded rather than built.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    screening = ScreeningEngine(full_engine=Engine(jobs=1))
    job = Job("bzip", "baseline", scale=SMALL)
    prediction = screening.predict(job)
    assert prediction.ipc > 0
    assert screening.counters["screen_profiles_built"] == 1
    assert screening.counters["screen_configs_scored"] == 1
    # Same workload point: the profile is memoized, the score is not.
    screening.predict(Job("bzip", "cdf", scale=SMALL))
    assert screening.counters["screen_profiles_built"] == 1
    assert screening.counters["screen_profiles_loaded"] == 0
    assert screening.counters["screen_configs_scored"] == 2


def test_predict_rejects_non_sim_jobs():
    screening = ScreeningEngine(full_engine=Engine(jobs=1))
    with pytest.raises(ValueError, match="sim"):
        screening.predict(Job("bzip", "baseline", scale=SMALL,
                              kind="trace"))


def test_run_delegates_to_the_full_tier():
    screening = ScreeningEngine(full_engine=Engine(jobs=1))
    [result] = screening.run([Job("bzip", "baseline", scale=SMALL)])
    assert result.ipc > 0
    assert screening.summary().startswith(screening.screen_summary()
                                          + "; engine:")


# ------------------------------------------------------- screened_sweep
def test_screened_sweep_prunes_and_reports():
    report = screened_sweep(KNOBS["mshrs"], (1, 2, 4, 8, 16), ("bzip",),
                            modes=("baseline",), scale=SMALL,
                            top_k=2, epsilon=0.0)
    assert len(report.scores) == 5
    assert set(report.promoted) | set(report.pruned) == {1, 2, 4, 8, 16}
    assert len(report.promoted) >= 2
    # Full results exist exactly for the promoted values.
    assert set(report.results) == set(report.promoted)
    assert report.best_promoted() in report.promoted
    assert report.recall is None          # not measured
    payload = report.to_dict()
    assert "recall" not in payload
    assert len(payload["scores"]) == 5


def test_screened_sweep_rejects_bad_top_k():
    with pytest.raises(ValueError, match="top_k"):
        screened_sweep(KNOBS["mshrs"], (1, 2), ("bzip",),
                       modes=("baseline",), scale=SMALL, top_k=0)


def test_epsilon_widens_the_promoted_set():
    screening = ScreeningEngine(full_engine=Engine(jobs=1))
    narrow = screened_sweep(KNOBS["mshrs"], (1, 2, 4, 8, 16), ("bzip",),
                            modes=("baseline",), scale=SMALL,
                            top_k=1, epsilon=0.0, screening=screening)
    wide = screened_sweep(KNOBS["mshrs"], (1, 2, 4, 8, 16), ("bzip",),
                          modes=("baseline",), scale=SMALL,
                          top_k=1, epsilon=1.0, screening=screening)
    assert set(narrow.promoted) <= set(wide.promoted)
    assert set(wide.promoted) == {1, 2, 4, 8, 16}  # eps=1.0 keeps all


# ------------------------------------------------- the recall property
@pytest.mark.parametrize("knob_name", sorted(QUICK_SCREEN_SWEEPS))
def test_screening_never_drops_the_true_best(knob_name):
    """Cycle-accurate argmax must be promoted on every pinned sweep."""
    report = quick_screened_sweep(knob_name, measure_recall=True)
    assert report.recall == 1.0, (
        f"{knob_name}: true best {report.true_best!r} was pruned "
        f"(promoted: {report.promoted!r}, scores: {report.scores!r})")
    assert report.true_best in report.promoted
    assert report.best_promoted() == report.true_best
