"""The three workloads, measured with tracing off.

Every workload reports the same seven end-to-end metrics (see
``run.py``); what "result" and "repeat" mean for each is fixed here
and in ``BENCHMARK.json``.  Each workload also reports its own named
figures (``table_cold_s``, ``job_latency_p95_s``, ...), its work
counters and its correctness verdicts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

from harness import (CHILD, Child, child_env, median, python, quantile,
                     run_child, scratch_dir, tail_percentile)


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.timings: Dict[str, float] = {}
        self.named: Dict[str, Tuple[float, str]] = {}
        self.counters: Dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.peak_rss_mb = 0.0
        self.verify: List[Tuple[Dict, Optional[Dict]]] = []

    def op(self, ok: bool, what: str = "") -> None:
        """Count one operation; a failed one is kept with its reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def child(self, child: Child) -> None:
        """Fold a reaped program process into ``peak_rss_mb``."""
        self.peak_rss_mb = max(self.peak_rss_mb, child.maxrss_mb or 0.0)

    def finish(self, setup_s: float, result_s: float, result_cpu_s: float,
               repeat_s: float, throughput_per_s: float) -> None:
        self.timings = {"setup_s": setup_s, "result_s": result_s,
                        "result_cpu_s": result_cpu_s, "repeat_s": repeat_s,
                        "throughput_per_s": throughput_per_s}

    @property
    def metrics(self) -> Dict[str, float]:
        """The end-to-end metrics, counting every operation so far."""
        return {**self.timings, "peak_rss_mb": self.peak_rss_mb,
                "success_frac": 1.0 - self.failed / max(1, self.attempted)}


def _pick(counters: Dict, names) -> Dict[str, int]:
    return {name: int(counters.get(name, 0)) for name in names}


# -- table2 ---------------------------------------------------------------

def _table_rows(stdout: str) -> List[List[str]]:
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if parts and parts[0] in ("NSSA", "ISSA"):
            # scheme, time, workload, [corner], mu, sigma, spec, delay
            rows.append(parts[:3] + parts[4:8])
    return rows


def table2(cfg: Dict, seed: int, seconds: float) -> Outcome:
    """Table II through the CLI: serial cold passes, warm ones between.

    Each cold pass is a fresh process filling its own empty result
    cache with one grid worker, timed from spawn (imports included) to
    the printed table, with the clock read as each cell starts.  A warm
    process, repeating the command over the first cache, follows each
    cold pass, so the samples of both spread over the whole run.

    On a shared host the speed of the same work moves by a quarter
    within seconds and other load only ever slows a piece of work down,
    so ``result_s`` is the cold pass with every piece at its fastest:
    the fastest spawn→first-cell time plus, for each cell, its fastest
    time over the passes (``result_cpu_s`` likewise in CPU).
    ``repeat_s`` is the fastest warm process and ``setup_s`` the median
    over every process of its spawn→ready time (imports and the kernel
    load).  The rows must equal ``golden_rows`` and every pass, cold or
    warm, must print the same table.  The input is the paper's Table II
    grid (program seed 2017); ``seed`` does not change it.
    """
    out = Outcome()
    tmp = scratch_dir("table2-")
    try:
        env = child_env(tmp)
        ready = []
        golden = [list(row) for row in cfg["golden_rows"]]
        names = cfg["deterministic_counters"]

        def table_process(cache: str):
            argv = list(cfg["argv"]) + [
                "--workers", "1", "--cache", "--cache-dir", str(tmp / cache)]
            child, stdout, _ = run_child(
                python(str(CHILD), "table", *argv), env)
            out.child(child)
            head = json.loads(stdout.strip().splitlines()[-1])
            ready.append(head["ready"] - child.started)
            # (wall, CPU) from spawn to the first cell, then per cell.
            marks = ([(child.started, 0.0)] + head["cells"]
                     + [(head["end"], head["cpu_s"])])
            pieces = [(b[0] - a[0], b[1] - a[1])
                      for a, b in zip(marks, marks[1:])]
            return {"wall_s": head["end"] - child.started,
                    "pieces": pieces, "text": head["text"],
                    "counters": _pick(head["counters"], names)}

        colds, warms = [], []
        for i in range(cfg["cold_passes"]):
            colds.append(table_process(f"results{i}"))
            for _ in range(cfg["warm_per_pass"]):
                warms.append(table_process("results0"))
        for cold in colds:
            rows = _table_rows(cold["text"])
            out.op(rows == golden, f"table rows differ from golden: {rows}")
            out.op(len(cold["pieces"]) == len(golden) + 1,
                   "the grid did not report every cell as it started")
        for group, what in ((colds, "cold"), (warms, "warm")):
            out.op(all(p["text"] == colds[0]["text"] for p in group),
                   f"a {what} table differs from the first cold table")
            out.op(all(p["counters"] == group[0]["counters"]
                       for p in group),
                   f"{what}-pass work counters differ between passes")
        out.op(warms[0]["counters"].get("cache.hits") == len(golden),
               "warm pass did not hit the cache for every cell")
        out.counters = {
            **{f"cold.{k}": v for k, v in colds[0]["counters"].items()},
            **{f"warm.{k}": v for k, v in warms[0]["counters"].items()}}
        samples = list(zip(*(c["pieces"] for c in colds)))
        cold_s = sum(min(wall for wall, _ in piece) for piece in samples)
        cold_cpu_s = sum(min(cpu for _, cpu in piece) for piece in samples)
        warm_s = min(p["wall_s"] for p in warms)
        out.named = {
            "table_cold_s": (cold_s, "s"),
            "table_cold_pass_min_s": (min(c["wall_s"] for c in colds), "s"),
            "table_cold_pass_median_s": (median(c["wall_s"] for c in colds),
                                         "s"),
            "table_cpu_s": (cold_cpu_s, "CPU-s"),
            "table_warm_s": (warm_s, "s"),
            "table_warm_median_s": (median(p["wall_s"] for p in warms),
                                    "s"),
        }
        out.finish(median(ready), cold_s, cold_cpu_s, warm_s,
                   len(golden) / cold_s)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


# -- fleet ----------------------------------------------------------------

def fleet(cfg: Dict, seed: int, seconds: float) -> Outcome:
    """``FleetEngine.compare`` nssa vs issa from ``processes`` processes.

    Each fresh process reports when its imports are done, which gives
    ``setup_s`` (median over the processes), times its first
    ``compare`` (lazy imports and all), which gives ``result_s`` (the
    fastest first call), then repeats the call for its share of
    ``seconds``; its fastest repeat gives ``repeat_s``, its CPU and the
    rate (medians over the processes).  On this kind of host both the
    moment and the process (its memory layout) shift the speed, and
    short calls, the fastest of them and a median over processes read
    the work itself steadily.  Every call must reproduce the
    golden out-of-spec fractions, with ISSA <= NSSA at the last
    checkpoint.
    """
    golden = cfg["golden_fraction_out"]
    tol = cfg["tolerance_abs"]
    out = Outcome()
    tmp = scratch_dir("fleet-")
    try:
        env = child_env(tmp)
        params = tmp / "params.json"
        params.write_text(json.dumps(cfg))
        names = cfg["deterministic_counters"]
        ready, first, fastest, fastest_cpu = [], [], [], []
        counters, n_calls = [], 0
        repeats = cfg["processes"]
        for _ in range(repeats):
            child, stdout, _ = run_child(
                python(str(CHILD), "fleet", str(params),
                       str(seconds / repeats)), env)
            out.child(child)
            lines = [json.loads(line)
                     for line in stdout.strip().splitlines()]
            head, calls = lines[0], lines[1:]
            n_calls += len(calls)
            ready.append(head["ready"] - child.started)
            first.append(calls[0]["wall_s"])
            best = min(calls[1:], key=lambda call: call["wall_s"])
            fastest.append(best["wall_s"])
            fastest_cpu.append(best["cpu_s"])
            for call in calls:
                summary = call["summary"]
                out.op(summary["issa"][-1] <= summary["nssa"][-1],
                       "issa out-of-spec above nssa")
                out.op(all(abs(a - b) <= tol
                           for name in golden
                           for a, b in zip(summary[name], golden[name])),
                       f"fleet fractions {summary} differ from {golden}")
                counters.append(_pick(call["counters"], names))
        out.op(all(c == counters[0] for c in counters),
               "work counters differ between identical calls")
        out.counters = counters[0]
        rate = head["work"] / median(fastest)
        out.named = {"calls": (n_calls, "count"),
                     "first_call_median_s": (median(first), "s"),
                     "call_min_s": (min(fastest), "s"),
                     "fleet_devices_per_s": (rate, "device*policy/s")}
        out.finish(median(ready), min(first), median(fastest_cpu),
                   median(fastest), rate)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


# -- service ---------------------------------------------------------------

class Http:
    """Minimal JSON client; stdlib only, so ``run.py`` stays light."""

    def __init__(self, base: str) -> None:
        self.base = base

    def call(self, method: str, path: str, body: Optional[Dict] = None
             ) -> Tuple[int, Dict]:
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {})
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read().decode())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read().decode() or "{}")


class Server:
    """A ``python -m repro serve`` child on a free port."""

    def __init__(self, tmp, tag: str, cfg: Dict, env) -> None:
        self.dir = tmp / tag
        self.dir.mkdir()
        self.log = self.dir / "server.log"
        handle = open(self.log, "w")
        self.child = Child(
            python("-m", "repro", "serve", "--port", "0",
                   "--service-dir", str(self.dir / "store"),
                   "--cache-dir", str(self.dir / "results"),
                   "--shards", str(cfg["shards"]),
                   "--workers", str(cfg["workers"]),
                   "--pool-workers", "1"),
            env, stdout=handle, stderr=subprocess.STDOUT)
        handle.close()
        self.http: Optional[Http] = None
        self.ready_s = self._wait_ready()

    def _wait_ready(self, timeout: float = 60.0) -> float:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.child.proc.poll() is not None:
                raise RuntimeError("server exited: "
                                   + self.log.read_text()[-2000:])
            if self.http is None:
                for line in self.log.read_text().splitlines():
                    if "listening on " in line:
                        url = line.split("listening on ")[1].split()[0]
                        self.http = Http(url)
            if self.http is not None:
                try:
                    status, _ = self.http.call("GET", "/metrics")
                    if status == 200:
                        return time.perf_counter() - self.child.started
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("server did not answer /metrics in time")

    def stop(self) -> None:
        """Drain and stop the server, then reap it (killed after 60 s)."""
        try:
            self.http.call("POST", "/shutdown", {})
        except OSError:
            pass
        self.child.reap(timeout=60.0)


#: The cells service jobs cycle through, so every seed offers the same
#: work; the seed only changes each job's Monte-Carlo seed.
CELLS = (("nssa", None), ("nssa", "80r0"), ("issa", "80r0"),
         ("nssa", "20r1"), ("issa", "20r1"), ("nssa", "80r0r1"))


def _cell(index: int, job_seed: int, mc: int) -> Dict:
    scheme, workload = CELLS[index % len(CELLS)]
    return {"scheme": scheme, "workload": workload,
            "time_s": 0.0 if workload is None else 1e8,
            "mc": mc, "seed": job_seed}


def _requests(cfg: Dict, seed: int, n: int) -> List[Dict]:
    """The open-loop request stream.

    Kinds follow ``cfg["pattern"]`` over and over, so the offered load
    is the same for every seed.  A duplicate repeats the latest new
    request (most likely still live); a resubmission repeats the latest
    one at least ``resubmit_lag_s`` older (most likely finished).
    """
    lag = int(cfg["resubmit_lag_s"] * cfg["rate_per_s"])
    pattern = cfg["pattern"]
    stream, fresh = [], []
    for i in range(n):
        kind = pattern[i % len(pattern)]
        old = [f for f in fresh if f["index"] <= i - lag]
        if kind == "duplicate" and fresh:
            stream.append(dict(fresh[-1], kind=kind))
            continue
        if kind == "resubmit" and old:
            stream.append(dict(old[-1], kind=kind))
            continue
        job_seed = seed * 1000 + i
        if kind == "fleet":
            doc = {"kind": "fleet", "policies": [{"scheme": "nssa"},
                                                {"scheme": "issa"}],
                   "spec": dict(cfg["fleet"], seed=job_seed)}
        elif kind == "array":
            doc = {"kind": "array", "schemes": cfg["array_schemes"],
                   "spec": dict(cfg["array"], seed=job_seed)}
        else:
            kind = "fresh"
            doc = _cell(len(fresh), job_seed, cfg["cell"]["mc"])
        entry = {"index": i, "kind": kind, "doc": doc}
        fresh.append(entry)
        stream.append(dict(entry))
    return stream


class _Tracker:
    """Poll live jobs until each result is readable; one thread."""

    def __init__(self, http: Http, poll_s: float) -> None:
        self.http = http
        self.poll_s = poll_s
        self.lock = threading.Lock()
        self.waiting: Dict[str, List[Dict]] = {}
        self.done: List[Dict] = []
        self.rows: Dict[str, Dict] = {}
        self.errors: List[str] = []
        self.closed = False

    def add(self, job_id: str, record: Dict) -> None:
        with self.lock:
            self.waiting.setdefault(job_id, []).append(record)

    def run(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            with self.lock:
                ids = list(self.waiting)
                if not ids and self.closed:
                    return
            for job_id in ids:
                self.read(job_id)
            time.sleep(self.poll_s)
        self.errors.append("timed out waiting for results")

    def read(self, job_id: str, records: Optional[List[Dict]] = None
             ) -> None:
        """Read a result unless the job is still live.

        ``records`` default to the requests waiting on ``job_id``.
        """
        status, doc = self.http.call("GET", f"/result?id={job_id}")
        if status == 409 and doc.get("state") in ("pending", "running"):
            return
        now = time.perf_counter()
        with self.lock:
            if records is None:
                records = self.waiting.pop(job_id, [])
            if status != 200:
                self.errors.append(f"job {job_id}: {doc}")
                return
            self.rows[job_id] = doc["row"]
            for record in records:
                record["readable"] = now
                self.done.append(record)


def _busy_union(intervals: List[Tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def _closed_loop(http: Http, cfg: Dict, seed: int, out: Outcome,
                 n_jobs: int) -> Tuple[List[float], List[float]]:
    """New cell jobs one at a time, each followed by resubmissions.

    One client, one request in flight, so a latency is the service's
    own cost without queueing behind other jobs.  After each new job
    every earlier one is resubmitted ``resubmit_rounds`` times (answered
    from the finished job), which spreads those short requests over the
    whole loop.
    Returns the new-job and the resubmission latencies; the first
    jobs' requests and rows go to ``out.verify`` (once per run).
    """
    tracker = _Tracker(http, cfg["closed_poll_s"])
    tracker.closed = True
    jobs, new, again = [], [], []
    for k in range(n_jobs):
        for doc, job_id in jobs * cfg["resubmit_rounds"]:
            sent = time.perf_counter()
            status, reply = http.call("POST", "/submit", {"request": doc})
            ok = status == 200 and reply["id"] == job_id \
                and reply["state"] == "done"
            out.op(ok, f"resubmission: {status} {reply}")
            if ok:
                record = {"due": sent}
                tracker.read(job_id, [record])
                again.append(record["readable"] - sent)
        doc = _cell(k, seed * 1000 + 500 + k, cfg["cell"]["mc"])
        sent = time.perf_counter()
        status, reply = http.call("POST", "/submit", {"request": doc})
        out.op(status == 200 and not reply["deduped"],
               f"new job: {status} {reply}")
        if status != 200:
            continue
        record = {"due": sent}
        tracker.add(reply["id"], record)
        tracker.run(time.monotonic() + 120)
        out.op("readable" in record, f"job {reply['id']} never finished")
        if "readable" in record:
            new.append(record["readable"] - sent)
            jobs.append((doc, reply["id"]))
    for error in tracker.errors:
        out.op(False, error)
    if not out.verify:
        out.verify = [(doc, tracker.rows.get(job_id))
                      for doc, job_id in jobs[:cfg["verify_cells"]]]
    return new, again


def _open_loop(http: Http, cfg: Dict, seed: int, seconds: float,
               out: Outcome) -> Dict[str, Tuple[float, str]]:
    """Fixed-rate arrivals: request ``i`` is due at ``t0 + i / rate``.

    Each latency runs from the request's due time until its result is
    readable, whatever the service did meanwhile.
    """
    rate = cfg["rate_per_s"]
    stream = _requests(cfg, seed, int(round(rate * seconds)))
    tracker = _Tracker(http, cfg["poll_s"])
    originals: Dict[int, str] = {}
    submits = []
    t0 = time.perf_counter() + 0.05
    poller = threading.Thread(
        target=tracker.run, args=(time.monotonic() + seconds + 120,))
    poller.start()
    try:
        for i, entry in enumerate(stream):
            due = t0 + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            status, doc = http.call("POST", "/submit",
                                    {"request": entry["doc"]})
            acked = time.perf_counter()
            ok = status == 200
            if ok and entry["kind"] in ("duplicate", "resubmit"):
                # A duplicate must come back as the original job.
                ok = doc["id"] == originals[entry["index"]]
            elif ok:
                originals[entry["index"]] = doc["id"]
            out.op(ok, f"submit {entry['kind']}: {status} {doc}")
            submits.append({"due": due, "sent": sent, "acked": acked})
            if status != 200:
                continue
            record = {"due": due, "kind": entry["kind"]}
            if doc["state"] == "done":
                # Already finished: read the result right away.
                tracker.read(doc["id"], [record])
            else:
                tracker.add(doc["id"], record)
    finally:
        tracker.closed = True
        poller.join()
    loop_wall = time.perf_counter() - t0
    for error in tracker.errors:
        out.op(False, error)
    out.attempted += len(tracker.done)  # one result read per request
    latencies = [r["readable"] - r["due"] for r in tracker.done]

    # Utilisation: union of the jobs' run intervals over the loop.
    intervals = []
    for job_id in tracker.rows:
        status, doc = http.call("GET", f"/status?id={job_id}")
        if status == 200 and doc.get("started_at") \
                and doc.get("finished_at"):
            intervals.append((doc["started_at"], doc["finished_at"]))
    tail_pct, tail = tail_percentile(latencies)
    late = [(s["sent"] - s["due"]) * 1e3 for s in submits]
    sends = [s["sent"] for s in submits]
    kinds = [e["kind"] for e in stream]
    out.counters.update({f"requests.{k}": kinds.count(k)
                         for k in sorted(set(kinds))})
    named = {
        "job_latency_p50_s": (median(latencies), "s"),
        "job_latency_n": (len(latencies), "count"),
        "submit_p50_ms": (median((s["acked"] - s["sent"]) * 1e3
                                 for s in submits), "ms"),
        "loadgen.late_p95_ms": (quantile(late, 0.95), "ms"),
        "loadgen.rate_per_s": ((len(sends) - 1) / (sends[-1] - sends[0]),
                               "1/s"),
        "loadgen.utilisation": (_busy_union(intervals) / loop_wall,
                                "ratio"),
        "loadgen.requests": (len(tracker.done), "count"),
    }
    if tail is not None and tail_pct > 50:
        named[f"job_latency_p{tail_pct:g}_s"] = (tail, "s")
    return named


def _bursts(http: Http, cfg: Dict, seed: int, out: Outcome,
            n_bursts: int) -> List[float]:
    """Batches of new jobs submitted at once; each drain's duration."""
    drains = []
    for b in range(n_bursts):
        tracker = _Tracker(http, cfg["poll_s"])
        first = time.perf_counter()
        for k in range(cfg["burst_jobs"]):
            doc = _cell(k, seed * 1000 + 800 + b * cfg["burst_jobs"] + k,
                        cfg["burst_cell"]["mc"])
            status, reply = http.call("POST", "/submit", {"request": doc})
            out.op(status == 200, f"burst submit: {status} {reply}")
            if status == 200:
                tracker.add(reply["id"], {"due": first})
        tracker.closed = True
        tracker.run(time.monotonic() + 120)
        for error in tracker.errors:
            out.op(False, error)
        out.attempted += len(tracker.done)
        drains.append(max(r["readable"] for r in tracker.done) - first)
    return drains


def _phases(http: Http, cfg: Dict, seed: int, seconds: float,
            out: Outcome, share: int, open_loop: bool) -> Dict:
    """This server's part: ``1 / share`` of the closed loop and the
    bursts, and the open loop if asked."""
    new, again = _closed_loop(http, cfg, seed, out,
                              cfg["closed_jobs"] // share)
    named = _open_loop(http, cfg, seed, seconds, out) if open_loop else {}
    drains = _bursts(http, cfg, seed, out, cfg["bursts"] // share)
    return {"new": new, "again": again, "drains": drains, "named": named}


def _summary(parts: List[Dict], cfg: Dict, out: Outcome
             ) -> Dict[str, Tuple[float, str]]:
    """The named figures over every server's part.

    Latencies are pooled before the median and the burst rate is jobs
    over total drain time, so each figure averages over servers.
    """
    new = [x for part in parts for x in part["new"]]
    again = [x for part in parts for x in part["again"]]
    drains = [x for part in parts for x in part["drains"]]
    named = {k: v for part in parts for k, v in part["named"].items()}
    burst_jobs = len(drains) * cfg["burst_jobs"]
    out.counters.update({"requests.closed_loop": len(new),
                         "requests.resubmitted": len(again),
                         "requests.burst": burst_jobs})
    named.update({
        "new_job_latency_p50_s": (median(new), "s"),
        "resubmit_latency_p50_s": (median(again), "s"),
        "service_burst_jobs_per_s": (burst_jobs / sum(drains), "jobs/s"),
        "requests_served": (len(new) + len(again) + burst_jobs
                            + named["loadgen.requests"][0], "count"),
    })
    return named


def drive(http: Http, cfg: Dict, seed: int, seconds: float,
          out: Outcome) -> Dict[str, Tuple[float, str]]:
    """Closed loop, open loop, then bursts, against one running service.

    Returns the service's named figures; the closed loop gives the
    gated latencies (``new_job_latency_p50_s``,
    ``resubmit_latency_p50_s``), the bursts the gated rate.
    """
    return _summary([_phases(http, cfg, seed, seconds, out, 1, True)],
                    cfg, out)


def verify_rows(out: Outcome, env, tmp) -> None:
    """Served cell rows must equal direct ``run_cell`` rows."""
    requests_path = tmp / "verify.json"
    requests_path.write_text(json.dumps([doc for doc, _ in out.verify]))
    checker, stdout, _ = run_child(
        python(str(CHILD), "cells", str(requests_path)), env)
    out.child(checker)
    direct = json.loads(stdout.strip().splitlines()[-1])["rows"]
    for (_, served), row in zip(out.verify, direct):
        out.op(served == row, f"served row {served} != direct {row}")


def service(cfg: Dict, seed: int, seconds: float) -> Outcome:
    """``servers`` sharded ``repro serve`` processes in turn.

    Each one is timed from spawn to its first ``/metrics`` answer
    and then runs an equal share of the closed loop and the bursts; the
    last one also runs the open loop.  After each, ``probe_servers``
    more are started and stopped only for their spawn→``/metrics``
    time, so ``setup_s`` is a median over start-ups spread over the
    run.  Figures pool over the servers: the speed of this kind of
    host depends on the process as well as the moment.
    """
    out = Outcome()
    tmp = scratch_dir("service-")
    servers: List[Server] = []
    try:
        env = child_env(tmp)
        ready, parts, server_cpu = [], [], 0.0
        repeats = cfg["servers"]
        for index in range(repeats):
            server = Server(tmp, f"s{index}", cfg, env)
            servers.append(server)
            ready.append(server.ready_s)
            parts.append(_phases(server.http, cfg, seed, seconds, out,
                                 repeats, index == repeats - 1))
            server.stop()
            out.child(server.child)
            server_cpu += server.child.cpu_s
            for k in range(cfg["probe_servers"]):
                probe = Server(tmp, f"p{index}-{k}", cfg, env)
                servers.append(probe)
                ready.append(probe.ready_s)
                probe.stop()
                out.child(probe.child)
        out.named = _summary(parts, cfg, out)
        verify_rows(out, env, tmp)
        out.named["server_cpu_s"] = (server_cpu, "CPU-s")
        out.finish(median(ready), out.named["new_job_latency_p50_s"][0],
                   server_cpu / out.named["requests_served"][0],
                   out.named["resubmit_latency_p50_s"][0],
                   out.named["service_burst_jobs_per_s"][0])
    finally:
        for server in servers:
            server.child.kill()
        shutil.rmtree(tmp, ignore_errors=True)
    return out
