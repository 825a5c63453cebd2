"""Tests for the crash-safe journal + snapshot job store."""

import json

from repro.service.jobs import (DONE, Job, JobRequest, PENDING, RUNNING)
from repro.service.store import (JobStore, default_service_dir)


def make_job(job_id="j1", seq=0, state=PENDING, rev=0):
    return Job(id=job_id, request=JobRequest(scheme="nssa", mc=8),
               seq=seq, state=state, rev=rev, submitted_at=1.0)


class TestRoundTrip:
    def test_empty_store_recovers_empty(self, tmp_path):
        jobs, next_seq = JobStore(tmp_path).recover()
        assert jobs == {} and next_seq == 0

    def test_journalled_jobs_recover(self, tmp_path):
        store = JobStore(tmp_path)
        store.recover()
        store.record(make_job("a", seq=0))
        store.record(make_job("b", seq=1))
        store.close()
        jobs, next_seq = JobStore(tmp_path).recover()
        assert set(jobs) == {"a", "b"}
        assert next_seq == 2

    def test_journal_with_backend_field_recovers(self, tmp_path):
        """Journals written while requests named a solver backend carry
        ``"backend": null``; they replay onto the one solver path."""
        request = ('{"scheme":"issa","workload":"80r0",'
                   '"time_s":100000000.0,"temp_c":25.0,"vdd":1.0,"mc":8,'
                   '"seed":2017,"dt":1e-12,"offset_iterations":14,'
                   '"measure_offset":true,"measure_delay":true,'
                   '"chunk_size":null,"timeout_s":null,"backend":null}')
        lines = [
            '{"id":"k1","request":%s,"seq":0,"priority":0,'
            '"state":"pending","rev":0,"attempts":0,"max_attempts":3,'
            '"submitted_at":0.0,"started_at":null,"finished_at":null,'
            '"not_before":0.0,"batchable":true,"from_cache":false,'
            '"error":null,"result_row":null,"worker":null,'
            '"lease_expires_at":null}' % request,
            '{"id":"k1","request":%s,"seq":0,"priority":0,'
            '"state":"done","rev":1,"attempts":0,"max_attempts":3,'
            '"submitted_at":0.0,"started_at":null,"finished_at":null,'
            '"not_before":0.0,"batchable":true,"from_cache":false,'
            '"error":null,"result_row":{"scheme":"ISSA"},"worker":null,'
            '"lease_expires_at":null}' % request,
        ]
        (tmp_path / "journal.jsonl").write_text("\n".join(lines) + "\n")
        jobs, next_seq = JobStore(tmp_path).recover()
        assert set(jobs) == {"k1"} and next_seq == 1
        job = jobs["k1"]
        assert job.state == DONE and job.result_row == {"scheme": "ISSA"}
        assert job.request == JobRequest(scheme="issa", workload="80r0",
                                         time_s=1e8, mc=8)

    def test_later_record_wins(self, tmp_path):
        store = JobStore(tmp_path)
        store.recover()
        store.record(make_job("a", rev=1, state=PENDING))
        store.record(make_job("a", rev=2, state=DONE))
        store.close()
        jobs, _ = JobStore(tmp_path).recover()
        assert jobs["a"].state == DONE

    def test_running_jobs_reset_to_pending(self, tmp_path):
        """Jobs a dead worker held come back as queued work."""
        store = JobStore(tmp_path)
        store.recover()
        store.record(make_job("a", state=RUNNING, rev=2))
        store.close()
        jobs, _ = JobStore(tmp_path).recover()
        assert jobs["a"].state == PENDING
        assert jobs["a"].started_at is None
        assert "restart" in jobs["a"].error


class TestCrashWindows:
    def test_torn_journal_tail_is_discarded(self, tmp_path):
        store = JobStore(tmp_path)
        store.recover()
        store.record(make_job("a"))
        store.record(make_job("b", seq=1))
        store.close()
        # Simulate power loss mid-append: truncate the last record.
        journal = tmp_path / "journal.jsonl"
        blob = journal.read_text()
        journal.write_text(blob[:len(blob) - 17])
        jobs, _ = JobStore(tmp_path).recover()
        assert set(jobs) == {"a"}

    def test_garbage_line_stops_replay_without_crashing(self, tmp_path):
        store = JobStore(tmp_path)
        store.recover()
        store.record(make_job("a"))
        store.close()
        with (tmp_path / "journal.jsonl").open("a") as fh:
            fh.write("{this is not json\n")
            fh.write(json.dumps(make_job("c").to_dict()) + "\n")
        jobs, _ = JobStore(tmp_path).recover()
        # Everything after the torn line is untrustworthy.
        assert set(jobs) == {"a"}

    def test_stale_journal_cannot_regress_the_snapshot(self, tmp_path):
        """Crash between snapshot and journal truncation: replaying
        pre-snapshot records must not undo newer state."""
        store = JobStore(tmp_path)
        store.recover()
        done = make_job("a", state=DONE, rev=5)
        store.write_snapshot({"a": done})
        # A stale pre-snapshot record survives in the journal.
        store._journal.write(
            json.dumps(make_job("a", state=RUNNING, rev=3).to_dict())
            + "\n")
        store.close()
        jobs, _ = JobStore(tmp_path).recover()
        assert jobs["a"].state == DONE and jobs["a"].rev == 5

    def test_corrupt_snapshot_falls_back_to_journal(self, tmp_path):
        store = JobStore(tmp_path)
        store.recover()
        store.record(make_job("a"))
        store.close()
        (tmp_path / "snapshot.json").write_text("{broken")
        jobs, _ = JobStore(tmp_path).recover()
        assert set(jobs) == {"a"}


class TestSnapshotting:
    def test_snapshot_truncates_the_journal(self, tmp_path):
        store = JobStore(tmp_path, snapshot_every=2)
        store.recover()
        store.record(make_job("a"))
        store.record(make_job("b", seq=1))
        assert store.should_snapshot()
        store.write_snapshot({"a": make_job("a"),
                              "b": make_job("b", seq=1)})
        assert not store.should_snapshot()
        assert (tmp_path / "journal.jsonl").read_text() == ""
        store.record(make_job("c", seq=2))
        store.close()
        jobs, next_seq = JobStore(tmp_path).recover()
        assert set(jobs) == {"a", "b", "c"}
        assert next_seq == 3

    def test_stats_report_footprint(self, tmp_path):
        store = JobStore(tmp_path)
        store.recover()
        store.record(make_job("a"))
        stats = store.stats()
        assert stats["directory"] == str(tmp_path)
        assert stats["journal_bytes"] > 0
        assert stats["appends_since_snapshot"] == 1
        store.close()


class TestEnvironment:
    def test_service_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "svc"))
        assert default_service_dir() == tmp_path / "svc"

    def test_service_dir_default_under_home(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVICE_DIR", raising=False)
        assert default_service_dir().name == "service"
