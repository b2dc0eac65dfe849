"""Speed samples, the references built from them, and set-up timing."""

import time

import pytest

import jobs
import run
import yardstick


def test_references_group_until_enough_samples():
    samples = [(t, t + 0.01, k) for t, k in [(0.1, 1.0), (0.2, 1.0), (1.1, 2.0), (1.2, 2.0), (2.1, 4.0)]]
    intervals = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
    old = yardstick.MIN_SAMPLES
    yardstick.MIN_SAMPLES = 2
    try:
        refs = yardstick.references(intervals, samples)
    finally:
        yardstick.MIN_SAMPLES = old
    # The short last group joins the second one.
    assert refs == [1.0, pytest.approx(8 / 3), pytest.approx(8 / 3)]


def test_references_need_samples():
    with pytest.raises(ValueError):
        yardstick.references([(0.0, 1.0)], [(2.0, 2.1, 1.0)])


def test_untraced_pass_leaves_out_the_sampler_time():
    def busy(_lg):
        end = time.perf_counter() + 0.4
        while time.perf_counter() < end:
            pass

    job = jobs.Job("busy", "verify", busy, lambda payload: None)
    (row,) = run.run_pass(None, [job])
    _job, seconds, ref, _payload, error = row
    assert error is None
    assert 0.3 < seconds < 0.4
    assert ref == pytest.approx(yardstick.kernel(), rel=2.0)


def test_setup_is_timed_in_new_interpreters(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 2)
    rows = run.setup_times()
    assert len(rows) == 2
    for seconds, reference in rows:
        assert 0 < seconds < 60 and 0 < reference < 60
