"""Tests for the service job/request model."""

import pytest

from repro.core.cache import ResultCache
from repro.service.jobs import (DONE, Job, JobRequest, PENDING, RUNNING,
                                TERMINAL)


def request(**overrides):
    fields = dict(scheme="nssa", workload="80r0", time_s=1e8,
                  mc=8, seed=2017, dt=1e-12, offset_iterations=6)
    fields.update(overrides)
    return JobRequest(**fields)


class TestJobRequest:
    def test_round_trips_through_dict(self):
        req = request(temp_c=125.0, vdd=0.9, timeout_s=30.0)
        assert JobRequest.from_dict(req.to_dict()) == req

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown request field"):
            JobRequest.from_dict({"scheme": "nssa", "bogus": 1})

    def test_to_cell_builds_the_experiment_cell(self):
        cell = request(scheme="issa", temp_c=125.0, vdd=0.9).to_cell()
        assert cell.scheme == "issa"
        assert cell.time_s == 1e8
        assert cell.env.temperature_c == pytest.approx(125.0)
        assert cell.env.vdd == 0.9
        assert str(cell.workload) == "80r0"

    def test_fresh_cell_has_no_workload(self):
        cell = JobRequest(scheme="nssa").to_cell()
        assert cell.workload is None and cell.time_s == 0.0

    def test_invalid_workload_raises(self):
        with pytest.raises(ValueError):
            request(workload="not-a-workload").to_cell()

    def test_invalid_scheme_raises(self):
        with pytest.raises(ValueError):
            request(scheme="bogus").to_cell()

    def test_run_kwargs_mirror_the_request(self):
        kwargs = request(mc=16, seed=7, dt=2e-12, chunk_size=4,
                         measure_delay=False).run_kwargs()
        assert kwargs["settings"].size == 16
        assert kwargs["settings"].seed == 7
        assert kwargs["timing"].dt == 2e-12
        assert kwargs["chunk_size"] == 4
        assert kwargs["measure_delay"] is False

    def test_signature_ignores_the_cell_identity(self):
        a = request(scheme="nssa", workload="80r0", temp_c=25.0)
        b = request(scheme="issa", workload="20r1", temp_c=125.0)
        assert a.signature() == b.signature()

    def test_signature_separates_configurations(self):
        assert request(mc=8).signature() != request(mc=16).signature()
        assert request().signature() \
            != request(timeout_s=10.0).signature()

    def test_cache_key_matches_direct_key_derivation(self, tmp_path):
        """The job identity is exactly the run_cell cache key."""
        cache = ResultCache(tmp_path)
        req = request()
        kwargs = req.run_kwargs()
        kwargs.pop("chunk_size")
        expected = cache.key_for_cell(req.to_cell(), **kwargs)
        assert req.cache_key(cache) == expected

    def test_chunk_size_does_not_change_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert request().cache_key(cache) \
            == request(chunk_size=2).cache_key(cache)


class TestJob:
    def test_round_trips_through_dict(self):
        job = Job(id="k" * 64, request=request(), seq=3, priority=2,
                  state=RUNNING, attempts=1, submitted_at=123.0)
        assert Job.from_dict(job.to_dict()) == job

    def test_unknown_state_rejected(self):
        doc = Job(id="x", request=request()).to_dict()
        doc["state"] = "exploded"
        with pytest.raises(ValueError, match="unknown job state"):
            Job.from_dict(doc)

    def test_sort_key_orders_by_priority_then_fifo(self):
        low_old = Job(id="a", request=request(), seq=0, priority=0)
        low_new = Job(id="b", request=request(), seq=1, priority=0)
        high = Job(id="c", request=request(), seq=2, priority=5)
        ordered = sorted([low_new, high, low_old], key=Job.sort_key)
        assert [j.id for j in ordered] == ["c", "a", "b"]

    def test_terminal_states(self):
        job = Job(id="a", request=request())
        assert not job.terminal
        for state in TERMINAL:
            job.state = state
            assert job.terminal
        job.state = PENDING
        assert not job.terminal

    def test_touch_bumps_rev(self):
        job = Job(id="a", request=request())
        assert job.rev == 0
        job.touch()
        job.touch()
        assert job.rev == 2

    def test_done_is_terminal_constant(self):
        assert DONE in TERMINAL and PENDING not in TERMINAL
