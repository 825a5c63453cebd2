"""Production-vs-oracle parity of the transient step kernels.

Every transient solves its steps through a fused kernel: the compiled
C kernel (flavor ``cc``) wherever a C compiler builds it, else the
fused pure-numpy kernel.  On two Table II cells this suite pins the
contract between the two flavors — offsets bitwise equal, delays
within 1e-15 s — and checks each fused kernel's step solution against
the :class:`~repro.spice.backends.numpy_backend.NumpyStepKernel`
oracle.
"""

import numpy as np
import pytest

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming
from repro.core.calibration import default_aging_model, default_mc_settings
from repro.core.experiment import ExperimentCell, build_design, run_cell
from repro.core.montecarlo import sample_total_shifts
from repro.models import Environment
from repro.spice.backends import _cc
from repro.spice.backends.numpy_backend import NumpyStepKernel
from repro.spice.mna import MnaSystem
from repro.spice.solver import NewtonOptions
from repro.workloads import paper_workload

from tests.spice.test_backends import fused_kernels

SETTINGS = default_mc_settings(size=6, seed=2017)
TIMING = ReadTiming(dt=1e-12)
#: Step-solution agreement with the oracle [V]; offsets are bitwise.
STEP_ATOL = 1e-9

needs_cc = pytest.mark.skipif(not _cc.compiler_available(),
                              reason="no C compiler on PATH")

CELLS = [ExperimentCell("nssa", paper_workload("80r0"), 1e8,
                        Environment.from_celsius(25.0, 1.0)),
         ExperimentCell("issa", None, 0.0,
                        Environment.from_celsius(25.0, 1.0))]


def characterise(cell):
    return run_cell(cell, settings=SETTINGS, timing=TIMING,
                    offset_iterations=5)


@pytest.mark.parametrize("cell", CELLS,
                         ids=lambda c: f"{c.scheme}-{c.workload_label}")
class TestKernelParity:
    @needs_cc
    def test_flavors_agree_on_the_cell(self, cell, use_numpy_flavor):
        PERF.reset()
        production = characterise(cell)
        assert PERF.snapshot()["counters"]["spice.backend.fused_steps"] > 0
        use_numpy_flavor()
        fused_numpy = characterise(cell)
        np.testing.assert_array_equal(production.offset.offsets,
                                      fused_numpy.offset.offsets)
        assert production.offset.spec == fused_numpy.offset.spec
        assert abs(production.delay_s - fused_numpy.delay_s) <= 1e-15

    def test_step_kernels_match_the_oracle(self, cell):
        design = build_design(cell.scheme)
        system = MnaSystem(design.circuit, cell.env.temperature_k,
                           batch_size=SETTINGS.size)
        system.set_vth_shifts(sample_total_shifts(
            design, default_aging_model(), cell.workload, cell.time_s,
            cell.env, SETTINGS))
        rng = np.random.default_rng(7)
        v_prev = system.initial_full_vector(0.0)
        v_prev[:, system.unknown_idx] = rng.uniform(
            0.2, 0.8, (SETTINGS.size, system.n_unknown))
        c_over_dt = system.c_matrix / TIMING.dt
        options = NewtonOptions()
        kernels = fused_kernels(system, c_over_dt, SETTINGS.size, options)
        oracle = NumpyStepKernel(system, c_over_dt, SETTINGS.size, options)
        active = np.arange(SETTINGS.size)

        def step(kernel):
            v_new = v_prev.copy()
            system.apply_known(v_new, 1e-11)
            kernel.begin_step(1e-11, v_prev)
            kernel.solve(v_new, active)
            return v_new

        expected = step(oracle)
        for label, kernel in kernels.items():
            np.testing.assert_allclose(step(kernel), expected, rtol=0.0,
                                       atol=STEP_ATOL, err_msg=label)
