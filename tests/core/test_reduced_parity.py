"""Parity tests for the fused endpoint transients of the offset search.

The search reads both endpoints of its bracket in one stacked 2x-batch
transient; this must equal two sequential endpoint reads, and a repeat
of the whole characterisation must reproduce it bit for bit.
"""

import numpy as np

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming, build_nssa
from repro.core.calibration import default_mc_settings
from repro.core.experiment import ExperimentCell, run_cell
from repro.core.montecarlo import sample_total_shifts
from repro.core.testbench import SenseAmpTestbench, WarmStartOptions
from repro.models import Environment
from repro.workloads import paper_workload

TIMING = ReadTiming(dt=1e-12)


def aged_cell(kind="nssa"):
    return ExperimentCell(kind, paper_workload("80r0"), 1e8,
                          Environment.from_celsius(25.0, 1.0))


def run(kind="nssa", size=8, iterations=6):
    return run_cell(aged_cell(kind),
                    settings=default_mc_settings(size=size, seed=2017),
                    timing=TIMING, offset_iterations=iterations)


class TestGridParity:
    def test_repeat_run_bit_identical(self):
        first = run()
        second = run()
        np.testing.assert_array_equal(first.offset.offsets,
                                      second.offset.offsets)
        assert first.delay_s == second.delay_s


class TestFusedEndpoints:
    def _bench(self, batch=6, warm=True):
        design = build_nssa()
        env = Environment.from_celsius(25.0, 1.0)
        warmstart = (WarmStartOptions()
                     if warm else WarmStartOptions.disabled())
        bench = SenseAmpTestbench(design, env, batch_size=batch,
                                  timing=TIMING, warmstart=warmstart)
        settings = default_mc_settings(size=batch, seed=7)
        shifts = sample_total_shifts(design, None, None, 0.0, env,
                                     settings)
        bench.set_vth_shifts(shifts)
        return bench

    def test_pair_matches_sequential_endpoints(self):
        """One stacked 2x-batch read == two batch reads, per endpoint."""
        pair = self._bench()
        hi, lo = pair.resolve_sign_pair(0.05, -0.05)
        seq = self._bench()
        np.testing.assert_array_equal(seq.resolve_sign(0.05), hi)
        np.testing.assert_array_equal(seq.resolve_sign(-0.05), lo)

    def test_pair_counts_one_fused_run(self):
        bench = self._bench()
        PERF.reset()
        bench.resolve_sign_pair(0.05, -0.05)
        counters = PERF.snapshot()["counters"]
        assert counters.get("offset.endpoint_fused_runs") == 1
