"""Traced runs: spans around every layer's entry points, per-layer split.

A traced run is serial and in-process (for ``service`` the server runs
inside the benchmark process), so every span lands in one
:class:`Recorder`.  Each entry point is wrapped where its callers look
it up: methods on their class, functions in every ``repro`` module that
imported them by name.  A span is ``(seq, layer, start, end, parent,
trace)``; spans stay in memory as packed arrays and are written to
``perfbench/out/traces/`` when the run ends.

A layer's ``busy_s`` is the time covered by its spans (a span nested
inside a span of the same layer adds no busy time), ``self_s`` sums
each span's duration minus the time its child spans cover, and
``calls`` counts spans.  A call that delegates straight to another
entry point of its own layer is one span.  Each workload first runs untraced in the same
process; ``trace.overhead_s`` is traced minus untraced.
"""

from __future__ import annotations

import array
import contextlib
import importlib
import io
import itertools
import json
import os
import re
import shutil
import sys
import threading
import time
import urllib.parse
from typing import Callable, Dict, List, Optional, Tuple

import harness
import workloads

LAYERS = {
    "startup": [],
    "core.montecarlo": ["repro.core.montecarlo:sample_total_shifts"],
    "core.testbench": [
        "repro.core.testbench:SenseAmpTestbench.__init__",
        "repro.core.testbench:SenseAmpTestbench.resolve_sign",
        "repro.core.testbench:SenseAmpTestbench.resolve_sign_pair",
        "repro.core.testbench:SenseAmpTestbench.sensing_delay"],
    "core.offset": ["repro.core.offset:extract_offsets"],
    "spice.transient": ["repro.spice.transient:run_transient"],
    "spice.backends": [
        "repro.spice.backends.compiled:_FusedStepBase.begin_step",
        "repro.spice.backends.compiled:FusedNumpyKernel.solve",
        "repro.spice.backends.compiled:ScalarStepKernel.solve",
        "repro.spice.backends.compiled:_SelfCheckKernel.begin_step",
        "repro.spice.backends.compiled:_SelfCheckKernel.solve",
        "repro.spice.backends.numpy_backend:NumpyStepKernel.begin_step",
        "repro.spice.backends.numpy_backend:NumpyStepKernel.solve"],
    "analysis.failure": ["repro.core.offset:fit_offsets",
                         "repro.analysis.failure:offset_spec"],
    "core.cache": ["repro.core.cache:ResultCache.key_for_cell",
                   "repro.core.cache:ResultCache.load",
                   "repro.core.cache:ResultCache.store",
                   "repro.core.cache:ResultCache.load_doc",
                   "repro.core.cache:ResultCache.store_doc"],
    "core.parallel": ["repro.core.parallel:run_cells",
                      "repro.core.parallel:run_tasks"],
    "service.http_api": ["repro.service.http_api:_Handler.do_GET",
                         "repro.service.http_api:_Handler.do_POST"],
    "service.scheduler": ["repro.service.scheduler:Scheduler.submit",
                          "repro.service.scheduler:Scheduler.claim_batch",
                          "repro.service.scheduler:Scheduler.ack_done",
                          "repro.service.scheduler:Scheduler.expire_leases"],
    "service.store": ["repro.service.store:ShardedJobStore.record",
                      "repro.service.store:JobStore.record",
                      "repro.service.store:JobStore.write_snapshot"],
    "service.worker": ["repro.service.worker:run_batch"],
    "fleet.engine": ["repro.fleet.engine:FleetEngine.evaluate",
                     "repro.fleet.engine:_evaluate_chunk"],
    "array.engine": ["repro.array.engine:ArrayEngine.characterize"],
    "array.characterizer": [
        "repro.array.characterizer:characterize_columns"],
    "memory": ["repro.memory.yield_model:bank_spec",
               "repro.memory.array:read_latency"],
}

#: Calls that start a trace; the trace id names the cell, job or policy.
TRACE_ROOTS = {
    "repro.core.experiment:run_cell":
        lambda a, k: "cell:{}/{}/{:g}".format(
            a[0].scheme, a[0].workload_label, a[0].time_s),
    "repro.service.worker:run_batch": lambda a, k: "job:" + a[0][0].id,
    "repro.service.http_api:_Handler.do_GET": lambda a, k: "http:" + (
        urllib.parse.parse_qs(urllib.parse.urlparse(a[0].path).query)
        .get("id", ["-"])[0]),
    "repro.fleet.engine:FleetEngine.evaluate":
        lambda a, k: "fleet:" + a[1].name,
    "repro.array.engine:ArrayEngine.characterize":
        lambda a, k: "array:" + str(a[1]),
}

#: Entry points that hand tasks to the pool, with the number handed.
TASKS = {
    "repro.core.parallel:run_cells":
        lambda a, k: len(a[0] if a else k["cells"]),
    "repro.core.parallel:run_tasks":
        lambda a, k: len(a[1] if len(a) > 1 else k["args_list"]),
}

ROUTES = ("submit", "status", "result", "metrics")

#: Per-layer metrics beyond calls/busy_s/self_s, with units.
EXTRAS = {
    "startup.import_s": "s", "startup.scipy_import_s": "s",
    "startup.kernel_compile_s": "s",
    "core.testbench.built": "count",
    "offset.bisection_iterations": "count",
    "offset.transients_per_extraction": "ratio",
    "transient.steps": "count", "transient.sample_steps": "count",
    "transient.occupancy": "ratio", "transient.warm_seed_accept": "ratio",
    "newton.iterations": "count", "newton.sample_iterations": "count",
    "spice.backend.fused_steps": "count",
    "newton.iterations_per_step": "ratio",
    "cache.hit_ratio": "ratio", "cache.bytes_read": "B",
    "cache.bytes_written": "B",
    "core.parallel.tasks": "count", "core.parallel.waited_s": "s",
    **{f"http.{route}.{what}": unit for route in ROUTES
       for what, unit in (("calls", "count"), ("busy_s", "s"))},
    "scheduler.dedup_ratio": "ratio",
    "scheduler.cache_short_circuits": "count",
    "scheduler.batches": "count", "scheduler.mean_batch_size": "ratio",
    "scheduler.queue_wait_p50_s": "s", "scheduler.queue_wait_p95_s": "s",
    "store.appends": "count", "store.bytes": "B", "store.snapshots": "count",
    "worker.run_p50_s": "s",
    "fleet.blocks": "count", "fleet.devices": "count",
    "fleet.chunks": "count",
    "array.columns": "count", "array.tasks": "count",
    "loadgen.late_p95_ms": "ms", "loadgen.rate_per_s": "1/s",
    "loadgen.utilisation": "ratio",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRAS)
    return units


class _Thread:
    """Per-thread span stack, per-layer nesting depth and trace stack."""

    def __init__(self, n_layers: int) -> None:
        self.stack: List[list] = []
        self.depth = [0] * n_layers
        self.trace: List[int] = [0]


class Recorder:
    """In-memory span store with online per-layer aggregation."""

    def __init__(self) -> None:
        self.layers = list(LAYERS)
        n = len(self.layers)
        self.calls = [0] * n
        self.busy = [0.0] * n
        self.self_ = [0.0] * n
        self.entry_calls: Dict[str, int] = {}
        self.tasks = 0
        self.routes: Dict[str, List[float]] = {}
        self.traces: Dict[str, int] = {"-": 0}
        self.local = threading.local()
        self.lock = threading.Lock()
        self.seq = itertools.count(1)
        self.spans = {"seq": array.array("q"), "layer": array.array("H"),
                      "start": array.array("d"), "end": array.array("d"),
                      "parent": array.array("q"), "trace": array.array("q")}
        self._patches: List[Tuple[object, str, object]] = []

    def _thread(self) -> _Thread:
        state = getattr(self.local, "state", None)
        if state is None:
            state = self.local.state = _Thread(len(self.layers))
        return state

    def _trace_id(self, name: str) -> int:
        with self.lock:
            return self.traces.setdefault(name, len(self.traces))

    def wrap(self, layer: Optional[str], entry: str, fn: Callable,
             trace_fn: Optional[Callable] = None) -> Callable:
        lid = None if layer is None else self.layers.index(layer)
        route_of = (_route if layer == "service.http_api" else None)
        tasks_of = TASKS.get(entry)
        perf = time.perf_counter
        rec = self

        def wrapper(*args, **kwargs):
            state = rec._thread()
            if trace_fn is not None:
                state.trace.append(rec._trace_id(trace_fn(args, kwargs)))
            try:
                parent = state.stack[-1] if state.stack else None
                if lid is None or (parent is not None and parent[2] == lid):
                    # Delegation within one layer is one span.
                    return fn(*args, **kwargs)
                frame = [next(rec.seq), 0.0, lid]
                tasks = 0 if tasks_of is None else tasks_of(args, kwargs)
                outermost = not state.depth[lid]
                state.depth[lid] += 1
                state.stack.append(frame)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = perf()
                    state.stack.pop()
                    state.depth[lid] -= 1
                    duration = end - start
                    if parent is not None:
                        parent[1] += duration
                    with rec.lock:
                        rec.calls[lid] += 1
                        if outermost:
                            rec.busy[lid] += duration
                        rec.self_[lid] += duration - frame[1]
                        rec.entry_calls[entry] = \
                            rec.entry_calls.get(entry, 0) + 1
                        rec.tasks += tasks
                        spans = rec.spans
                        spans["seq"].append(frame[0])
                        spans["layer"].append(lid)
                        spans["start"].append(start)
                        spans["end"].append(end)
                        spans["parent"].append(
                            parent[0] if parent is not None else 0)
                        spans["trace"].append(state.trace[-1])
                        if route_of is not None:
                            route = rec.routes.setdefault(
                                route_of(args), [0, 0.0])
                            route[0] += 1
                            route[1] += duration
            finally:
                if trace_fn is not None:
                    state.trace.pop()
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        return wrapper

    def install(self) -> None:
        """Wrap every entry point (and trace root) in place.

        Also resets the program's ``PERF`` counters, so they cover
        exactly the traced part of the run.
        """
        from repro.analysis.perf import PERF
        targets: Dict[str, Tuple[Optional[str], Optional[Callable]]] = {}
        for layer, entries in LAYERS.items():
            for entry in entries:
                targets[entry] = (layer, TRACE_ROOTS.get(entry))
        for entry, trace_fn in TRACE_ROOTS.items():
            targets.setdefault(entry, (None, trace_fn))
        modules = [module for name, module in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for entry, (layer, trace_fn) in targets.items():
            module_name, qualname = entry.split(":")
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            if isinstance(owner, type):
                self._patch(owner, attr, self.wrap(
                    layer, entry, owner.__dict__[attr], trace_fn))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(layer, entry, original, trace_fn)
            # Callers import by name: patch every module holding it.
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)
        PERF.reset()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading ----------------------------------------------------------

    def n_spans(self) -> int:
        return len(self.spans["seq"])

    def offset_transients(self) -> int:
        """Transient spans that ran under an offset-extraction span."""
        spans = self.spans
        layer_of = dict(zip(spans["seq"], spans["layer"]))
        parent_of = dict(zip(spans["seq"], spans["parent"]))
        transient = self.layers.index("spice.transient")
        offset = self.layers.index("core.offset")
        count = 0
        for seq, lid in layer_of.items():
            if lid != transient:
                continue
            node = parent_of.get(seq, 0)
            while node:
                if layer_of.get(node) == offset:
                    count += 1
                    break
                node = parent_of.get(node, 0)
        return count

    def write(self, path) -> None:
        import numpy as np
        path.parent.mkdir(parents=True, exist_ok=True)
        order = np.argsort(np.frombuffer(self.spans["seq"], dtype=np.int64))
        arrays = {k: np.frombuffer(v, dtype={"q": np.int64, "H": np.uint16,
                                             "d": np.float64}[v.typecode])
                  [order] for k, v in self.spans.items()}
        np.savez_compressed(
            path, layer_names=np.array(self.layers),
            trace_names=np.array(sorted(self.traces,
                                        key=self.traces.get)), **arrays)


def _route(args) -> str:
    return urllib.parse.urlparse(args[0].path).path.strip("/") or "-"


# -- startup ----------------------------------------------------------------

def _startup(probe: str, tmp) -> Dict[str, float]:
    """Import split, first call, and a kernel compile into an empty dir."""
    env = harness.child_env(tmp)
    child, _, err = harness.run_child(
        harness.python("-X", "importtime", "-c", "import repro.cli"), env)
    cumulative, scipy_self = 0.0, 0.0
    for line in err.splitlines():
        match = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)",
                         line)
        if not match:
            continue
        own, total, _, module = match.groups()
        if module.strip() == "repro.cli":
            cumulative = int(total) * 1e-6
        if module.startswith("scipy"):
            scipy_self += int(own) * 1e-6
    probe_child, out, _ = harness.run_child(
        harness.python(str(harness.CHILD), "setup", probe), env)
    ready = json.loads(out.strip().splitlines()[-1])["ready"]
    empty = tmp / "empty-kernel"
    empty.mkdir()
    _, out, _ = harness.run_child(
        harness.python("-c", "import time; "
                       "from repro.spice.backends import _cc; "
                       "t = time.perf_counter(); _cc.load_kernel(); "
                       "print(time.perf_counter() - t)"),
        harness.child_env(tmp, kernel_dir=empty))
    return {"startup.busy_s": ready - probe_child.started,
            "startup.import_s": cumulative,
            "startup.scipy_import_s": scipy_self,
            "startup.kernel_compile_s": float(out.strip().splitlines()[-1])}


# -- traced workloads ------------------------------------------------------

def _quiet(fn, *args):
    """Run ``fn`` with stdout/stderr captured; returns (value, stdout)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer), \
            contextlib.redirect_stderr(io.StringIO()):
        value = fn(*args)
    return value, buffer.getvalue()


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def _table2(rec: Recorder, cfg, seed, seconds, tmp, out) -> Tuple[float,
                                                                float]:
    """The paper-size grid (``paper_argv``), rows checked against the paper."""
    from repro.cli import main
    golden = [list(row) for row in cfg["paper_rows"]]

    def table(directory):
        argv = list(cfg["paper_argv"]) + [
            "--workers", "1", "--cache", "--cache-dir", str(tmp / directory)]
        (_, text), wall = _timed(_quiet, main, argv)
        out.op(workloads._table_rows(text) == golden,
               f"{directory} rows differ from Table II")
        return wall

    untraced = table("untraced")
    rec.install()
    try:
        traced = table("traced")
        table("traced")  # the warm pass, for the cache layer
    finally:
        rec.uninstall()
    return untraced, traced


def _fleet(rec: Recorder, cfg, seed, seconds, tmp, out):
    sys.path.insert(0, str(harness.BENCH_DIR))
    import child
    call, _ = child._fleet_call(dict(cfg, workers=1))
    # Short calls: the fastest of a few on each side.
    untraced = [_timed(call) for _ in range(3)]
    rec.install()
    try:
        traced = [_timed(call) for _ in range(3)]
    finally:
        rec.uninstall()
    out.op(all(summary == untraced[0][0] for summary, _ in traced),
           "traced fleet summary differs")
    return (min(wall for _, wall in untraced),
            min(wall for _, wall in traced))


def _service(rec: Recorder, cfg, seed, seconds, tmp, out):
    from repro.core.cache import ResultCache
    from repro.service import Service
    from repro.service.http_api import make_server

    def session(tag: str, traced: bool):
        directory = tmp / tag
        service = Service(directory=directory,
                          cache=ResultCache(directory / "results"),
                          n_shards=cfg["shards"], workers=cfg["workers"],
                          pool_workers=1)
        server = make_server(service, "127.0.0.1", 0)
        acceptor = threading.Thread(target=server.serve_forever,
                                    daemon=True)
        acceptor.start()
        host, port = server.server_address[:2]
        try:
            http = workloads.Http(f"http://{host}:{port}")
            return workloads.drive(http, cfg, seed, seconds, out), service
        finally:
            service.drain(timeout=None)
            server.shutdown()
            server.server_close()
            acceptor.join(timeout=5.0)
            if not traced:
                service.close()

    untraced, _ = session("untraced", False)
    rec.install()
    try:
        named, service = session("traced", True)
        jobs = service.scheduler.jobs()
        store_bytes = sum(p.stat().st_size
                          for p in (tmp / "traced").rglob("*")
                          if p.is_file() and "results" not in p.parts)
        service.close()
    finally:
        rec.uninstall()
    waits = [j.started_at - j.submitted_at for j in jobs
             if j.started_at and not j.from_cache]
    runs = [j.finished_at - j.started_at for j in jobs
            if j.started_at and j.finished_at and not j.from_cache]
    out.extra.update({
        "scheduler.queue_wait_p50_s": harness.quantile(waits, 0.5),
        "scheduler.queue_wait_p95_s": harness.quantile(waits, 0.95),
        "worker.run_p50_s": harness.quantile(runs, 0.5),
        "store.bytes": store_bytes,
        "loadgen.late_p95_ms": named["loadgen.late_p95_ms"][0],
        "loadgen.rate_per_s": named["loadgen.rate_per_s"][0],
        "loadgen.utilisation": named["loadgen.utilisation"][0]})
    out.named.update(named)
    return (untraced["new_job_latency_p50_s"][0],
            named["new_job_latency_p50_s"][0])


RUNNERS = {"table2": _table2, "service": _service, "fleet": _fleet}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run(workload: str, spec: Dict, seed: int, seconds: float):
    """One traced run of ``workload``; returns an Outcome of layer metrics."""
    out = workloads.Outcome()
    out.extra = {}
    out.units = metric_units()
    tmp = harness.scratch_dir(f"trace-{workload}-")
    os.environ.update({k: v for k, v in harness.child_env(tmp).items()
                       if k in ("REPRO_CACHE_DIR", "TMPDIR")})
    for name in [k for k in os.environ if k.startswith("REPRO_")
                 and k != "REPRO_CACHE_DIR"]:
        del os.environ[name]
    sys.path.insert(0, str(harness.SRC))
    try:
        startup = _startup("fleet" if workload == "fleet" else "table2",
                           tmp)
        import repro.cli  # noqa: F401 — load every layer before patching
        import repro.array  # noqa: F401
        import repro.fleet  # noqa: F401
        import repro.service  # noqa: F401
        import repro.service.http_api  # noqa: F401
        from repro.analysis.perf import PERF
        from repro.core.calibration import default_mc_settings
        from repro.core.experiment import ExperimentCell, run_cell
        # Warm-up, so neither side pays first-call costs (kernel
        # self-check, lazy imports).
        run_cell(ExperimentCell("nssa", None, 0.0),
                 settings=default_mc_settings(size=8, seed=1))
        rec = Recorder()
        untraced, traced = RUNNERS[workload](
            rec, spec[workload], seed, seconds, tmp, out)
        counters = PERF.snapshot()["counters"]
        rec.write(harness.OUT / "traces" / f"{workload}-seed{seed}.npz")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    c = counters.get
    metrics: Dict[str, float] = {}
    for lid, layer in enumerate(rec.layers):
        metrics[f"{layer}.calls"] = rec.calls[lid]
        metrics[f"{layer}.busy_s"] = rec.busy[lid]
        metrics[f"{layer}.self_s"] = rec.self_[lid]
    metrics["startup.calls"] = 1
    metrics["startup.self_s"] = startup["startup.busy_s"]
    metrics.update(startup)
    offsets = rec.entry_calls.get("repro.core.offset:extract_offsets", 0)
    metrics.update({
        "core.testbench.built": rec.entry_calls.get(
            "repro.core.testbench:SenseAmpTestbench.__init__", 0),
        "offset.bisection_iterations": c("offset.bisection_iterations", 0),
        "offset.transients_per_extraction": _ratio(rec.offset_transients(),
                                                   offsets),
        "transient.steps": c("transient.steps", 0),
        "transient.sample_steps": c("transient.sample_steps", 0),
        "transient.occupancy": _ratio(
            c("transient.sample_steps", 0),
            c("transient.sample_steps", 0)
            + c("transient.sample_steps_saved", 0)),
        "transient.warm_seed_accept": _ratio(
            c("transient.warm_seeds", 0),
            c("transient.warm_seeds", 0) + c("transient.warm_rejects", 0)),
        "newton.iterations": c("newton.iterations", 0),
        "newton.sample_iterations": c("newton.sample_iterations", 0),
        "spice.backend.fused_steps": c("spice.backend.fused_steps", 0),
        "newton.iterations_per_step": _ratio(c("newton.iterations", 0),
                                             c("newton.solves", 0)),
        "cache.hit_ratio": _ratio(c("cache.hits", 0), c("cache.requests", 0)),
        "cache.bytes_read": c("cache.bytes_read", 0),
        "cache.bytes_written": c("cache.bytes_written", 0),
        "core.parallel.tasks": rec.tasks,
        # Wall time of the pool calls minus the busy time of the work
        # they ran; the traced run is serial, so this is the layer's
        # self time (dispatch, ordering, merging).
        "core.parallel.waited_s": rec.self_[
            rec.layers.index("core.parallel")],
        "scheduler.dedup_ratio": _ratio(c("service.dedup_hits", 0),
                                        c("service.submissions", 0)),
        "scheduler.cache_short_circuits": c("service.cache_short_circuits",
                                            0),
        "scheduler.batches": c("service.batches", 0),
        "scheduler.mean_batch_size": _ratio(c("service.batched_jobs", 0),
                                            c("service.batches", 0)),
        "store.appends": rec.entry_calls.get(
            "repro.service.store:JobStore.record", 0),
        "store.snapshots": rec.entry_calls.get(
            "repro.service.store:JobStore.write_snapshot", 0),
        "fleet.blocks": c("fleet.blocks", 0),
        "fleet.devices": c("fleet.devices", 0),
        "fleet.chunks": c("fleet.chunks", 0),
        "array.columns": c("array.columns", 0),
        "array.tasks": c("array.tasks", 0),
        "trace.overhead_s": traced - untraced,
        "trace.overhead_frac": _ratio(traced - untraced, untraced),
        "trace.spans": rec.n_spans(),
    })
    for route in ROUTES:
        calls, busy = rec.routes.get(route, (0, 0.0))
        metrics[f"http.{route}.calls"] = calls
        metrics[f"http.{route}.busy_s"] = busy
    for name in ("scheduler.queue_wait_p50_s", "scheduler.queue_wait_p95_s",
                 "worker.run_p50_s", "store.bytes", "loadgen.late_p95_ms",
                 "loadgen.rate_per_s", "loadgen.utilisation"):
        metrics[name] = out.extra.get(name, 0)
    out.layer_metrics = {name: metrics[name] for name in out.units}
    out.named.update({"untraced_s": (untraced, "s"),
                      "traced_s": (traced, "s")})
    return out
