"""Program-side entry points the benchmark runs as child processes.

Each verb imports the program (``src`` is on ``PYTHONPATH``), does one
piece of work and prints JSON lines on stdout for ``run.py``:

``setup <probe>``
    Imports what a user's first call needs and makes that call
    (``host`` also reports the backend host block).  Prints the
    monotonic clock at readiness so ``run.py`` can time spawn→ready.
``table <cli args...>``
    ``repro.cli.main(args)`` exactly as ``python -m repro`` runs it;
    one JSON line with the monotonic clock once the imports and the
    kernel load are done (as in ``setup``), the clock and CPU as each
    grid cell starts, the end time, the CPU used, the printed text and
    the program's ``PERF`` work counters.
``fleet <params.json> <seconds>``
    Repeats ``FleetEngine.compare`` while another call fits in
    ``seconds`` (at least three times).  Prints the monotonic clock
    once the imports are done, then one JSON line per call.
``cells <requests.json>``
    Direct ``run_cell`` rows for service job requests (the oracle the
    served rows are compared with).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True), flush=True)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def setup(probe: str) -> None:
    import repro.cli  # noqa: F401 — the CLI is every user's entry point
    doc = {}
    if probe == "fleet":
        from repro.fleet import FleetSpec
        FleetSpec()
    else:
        from repro.spice.backends import backend_host_info
        doc["backend"] = backend_host_info()
    doc["ready"] = time.perf_counter()
    if probe == "host":
        import numpy
        import scipy
        from repro.core.parallel import default_workers
        doc.update(usable_cpus=default_workers(), numpy=numpy.__version__,
                   scipy=scipy.__version__)
    _emit(doc)


def table(argv) -> None:
    """One pass of ``repro.cli.main(argv)``, timed to the printed table.

    With one grid worker the grid calls its progress callback as each
    cell starts; ``cells`` holds the clock and CPU at those moments.
    """
    import contextlib
    import io
    from repro.analysis.perf import PERF
    from repro.cli import main
    from repro.core import parallel
    from repro.spice.backends import backend_host_info

    backend_host_info()  # the kernel load the first cell would make
    ready = time.perf_counter()
    stamps = []
    run_cells = parallel.run_cells

    def stamped(*args, progress=None, **kwargs):
        def mark(*cell):
            stamps.append((time.perf_counter(), _cpu_s()))
            if progress is not None:
                progress(*cell)
        return run_cells(*args, progress=mark, **kwargs)

    parallel.run_cells = stamped  # looked up there by each grid call
    PERF.reset()
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        main(list(argv))
    _emit({"ready": ready, "end": time.perf_counter(), "cpu_s": _cpu_s(),
           "cells": stamps, "text": text.getvalue(),
           "counters": PERF.snapshot()["counters"]})


def _fleet_call(params):
    from repro.fleet import FleetEngine, FleetSpec, MitigationPolicy
    spec = FleetSpec(**params["spec"])
    policies = [MitigationPolicy(scheme=s) for s in params["policies"]]
    engine = FleetEngine(spec, workers=params["workers"],
                         chunk_size=params["chunk_size"])

    def call():
        report = engine.compare(policies)
        return {p["policy"]["name"]: [y["fraction_out"] for y in p["years"]]
                for p in report["policies"]}
    work = spec.n_devices * len(policies)
    return call, work


def fleet(params_path: str, seconds: str) -> None:
    from repro.analysis.perf import PERF
    with open(params_path) as handle:
        params = json.load(handle)
    call, work = _fleet_call(params)
    _emit({"ready": time.perf_counter(), "work": work})
    budget = float(seconds)
    started = time.perf_counter()
    calls, wall = 0, 0.0
    # At least three calls; another only while it fits in the budget.
    while calls < 3 or time.perf_counter() - started + wall <= budget:
        PERF.reset()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        summary = call()
        t1 = time.perf_counter()
        wall = t1 - t0
        _emit({"start": t0, "end": t1, "wall_s": wall,
               "cpu_s": _cpu_s() - cpu0, "summary": summary,
               "counters": PERF.snapshot()["counters"]})
        calls += 1


def cells(requests_path: str) -> None:
    from repro.core.experiment import run_cell
    from repro.service.jobs import JobRequest
    with open(requests_path) as handle:
        requests = json.load(handle)
    rows = []
    for doc in requests:
        request = JobRequest.from_dict(doc)
        rows.append(run_cell(request.to_cell(),
                             **request.run_kwargs()).row())
    _emit({"rows": rows})


def main(argv) -> int:
    verb, rest = argv[0], argv[1:]
    if verb == "setup":
        setup(*rest)
    elif verb == "table":
        table(rest)
    elif verb == "fleet":
        fleet(*rest)
    elif verb == "cells":
        cells(*rest)
    else:
        raise SystemExit(f"unknown verb {verb!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
