"""Benchmark entry point: one workload, one run, one JSON line at the end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2 --seed 1 --seconds 16 --trace 0

``--workload all`` runs the three in turn and exits non-zero if any
correctness gate failed (a single workload always exits 0 once it has
printed its result line; ``"correct"`` carries the verdict).

Workloads: ``table2`` (Table II as serial CLI processes, cold then
warm), ``service`` (a sharded ``repro serve`` under an open loop, then
a burst) and ``fleet`` (``FleetEngine.compare``).  Parameters, goldens
and tolerances live in ``perfbench/spec.json``.  ``table2`` times the
grid at ``--mc 100`` with one grid worker rather than the paper's
``--mc 400`` with two: a paper-size pass takes 15-30 s, so only one or
two fit in a run, and on a shared host the speed of the same work moves
by a quarter within a minute; four shorter serial passes, each cell
taken at its fastest, read far more steadily.  The traced run keeps the
paper's size and checks its rows against the paper.  A fourth, ``array``
(``ArrayEngine.compare`` on its own), is not run: on a shared 2-CPU
host only runs of half a minute or more read steadily, and a fourth
such workload does not fit the time the benchmark is given; the array
layers still run, through the service's array jobs.

``--trace 0`` reports the end-to-end metrics, measured with tracing off;
every workload reports all of them:

=================  =====  ================================================
metric             unit   meaning
=================  =====  ================================================
setup_s            s      spawn of a fresh interpreter to its first
                          useful call (imports, kernel ``.so`` load; for
                          ``service`` until ``/metrics`` answers); median
                          over the run's set-ups
peak_rss_mb        MB     largest resident set of any program process
success_frac       ratio  1 - failed / attempted operations (a wrong
                          result counts as failed)
result_s           s      the headline wait: the cold table pass, spawn
                          to printed table, with its start-up and each
                          cell at their fastest over the cold passes
                          (``table2``); p50 submit→result of new cell
                          jobs, one in flight (``service``); the first
                          ``compare`` in a fresh process, fastest over
                          processes (``fleet``)
result_cpu_s       s      CPU behind it: the cold pass (start-up and
                          each cell at their least CPU); server CPU per
                          served request; CPU of a repeated ``compare``
repeat_s           s      the same request again: the table command
                          over a warm cache, spawn to printed table
                          (fastest process); p50 of resubmissions
                          of finished jobs; a repeated ``compare``
                          (median over processes of each one's fastest)
throughput_per_s   1/s    cells/s of the cold pass; new jobs/s over the
                          bursts; device x policy/s of a repeated
                          ``compare``
=================  =====  ================================================

Each workload also prints its own figures (``table_cold_s``,
``table_warm_s``, ``job_latency_p50_s``, ``submit_p50_ms``,
``service_burst_jobs_per_s``, ``loadgen.*``, ...), its work counters and
every failed check, before the result line.

``--trace 1`` runs the workload serially and in-process with spans
around every layer's entry points and reports the per-layer split
(see ``tracing.py``).

Results, with provenance, go to ``perfbench/out/results/``;
``--record-baseline`` also appends the run to ``perfbench/out/
baseline.jsonl`` and refuses to do so from a dirty or unknown revision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("table2", "service", "fleet")

#: The end-to-end metrics and their units, in ``BENCHMARK.json`` order.
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "success_frac": "ratio",
         "result_s": "s", "result_cpu_s": "s", "repeat_s": "s",
         "throughput_per_s": "1/s"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_one(args)[0]
    # Every workload in turn; non-zero if any correctness gate fails.
    failed = []
    for name in WORKLOADS:
        code, correct = run_one(argparse.Namespace(**dict(
            vars(args), workload=name)))
        if code:
            return code
        if not correct:
            failed.append(name)
    if failed:
        print(f"correctness gates failed: {', '.join(failed)}",
              file=sys.stderr)
    return 1 if failed else 0


def run_one(args):
    """One workload run: ``(exit code, every check held)``."""
    if not harness.source_present():
        print(f"no program source under {harness.SRC}; run from a "
              "repository checkout", file=sys.stderr)
        return 2, False
    spec = harness.load_spec()
    started = time.time()
    host = harness.build_kernel()
    prov = harness.provenance(host)
    if args.record_baseline and (prov["git"]["sha"] is None
                                 or prov["git"]["dirty"]):
        print("refusing to record a baseline: the revision is unknown "
              "or the source tree is dirty", file=sys.stderr)
        return 3, False

    if args.trace:
        import tracing
        outcome = tracing.run(args.workload, spec, args.seed, args.seconds)
        units, values = outcome.units, outcome.layer_metrics
    else:
        outcome = getattr(workloads, args.workload)(
            spec[args.workload], args.seed, args.seconds)
        units = UNITS
        mismatch = harness.check_counters(
            args.workload, args.seed,
            prov["source_digest"] + prov["bench_digest"], outcome.counters)
        outcome.op(not mismatch, f"work counters changed between runs "
                                 f"of the same code: {mismatch}")
        values = outcome.metrics

    for name, (value, unit) in sorted(outcome.named.items()):
        print(f"{args.workload}.{name:34s} {value:14.6g} {unit}")
    for name, unit in units.items():
        print(f"{args.workload}.metric.{name:27s} {values[name]:14.6g} "
              f"{unit}")
    for name, value in sorted(outcome.counters.items()):
        print(f"{args.workload}.counter.{name:26s} {value:14d}")
    for error in outcome.errors:
        print(f"FAILED: {error}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "started": started, "provenance": prov,
              "metrics": metrics,
              "named": {k: {"value": v, "unit": u}
                        for k, (v, u) in outcome.named.items()},
              "counters": outcome.counters, "errors": outcome.errors}
    results = harness.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.record_baseline:
        with open(harness.OUT / "baseline.jsonl", "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": outcome.failed == 0,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": metrics}))
    return 0, outcome.failed == 0


if __name__ == "__main__":
    sys.exit(main())
