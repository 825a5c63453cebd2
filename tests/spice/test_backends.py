"""Tests for the transient step kernels.

Covers the kernel-flavor choice (the C kernel where a compiler builds
it, else fused numpy) and its first-use self-check, the per-system
kernel cache and fallback guards, step-kernel parity against the
:class:`NumpyStepKernel` oracle on the sense amplifiers and on
randomised topologies, and the characterisation-level contract:
offsets through the production kernels are **bit-identical** to the
oracle's.
"""

import os
import subprocess
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.circuits.sense_amp import ReadTiming, build_issa, build_nssa
from repro.core.calibration import default_mc_settings
from repro.core.experiment import ExperimentCell, run_cell
from repro.models import Environment
from repro.spice import transient
from repro.spice.backends import backend_host_info, cache_token, step_kernel
from repro.spice.backends import _cc
from repro.spice.backends import compiled as compiled_mod
from repro.spice.backends.compiled import (FusedNumpyKernel,
                                           ScalarStepKernel,
                                           _reset_flavor_cache)
from repro.spice.backends.maps import ReducedKernelMaps
from repro.spice.backends.numpy_backend import NumpyStepKernel
from repro.spice.mna import MnaSystem
from repro.spice.solver import NewtonOptions
from repro.spice.transient import run_transient
from repro.workloads import paper_workload

from tests.spice.test_reduced import random_circuit

#: Step-solution agreement between kernel implementations [V].  The
#: kernels share bit-identical *offsets* (sign decisions), not raw
#: trajectories, which agree to well below Newton tolerance.
STEP_ATOL = 1e-9

needs_cc = pytest.mark.skipif(not _cc.compiler_available(),
                              reason="no C compiler on PATH")


@pytest.fixture()
def clean_flavor():
    """Sweep-safe flavor state: reset before and after the test."""
    _reset_flavor_cache()
    yield
    _reset_flavor_cache()


@pytest.fixture()
def use_oracle(monkeypatch):
    """A switch routing every transient through the oracle kernel."""
    def oracle(system, c_over_dt, dt, batch, options):
        return NumpyStepKernel(system, c_over_dt, batch, options)

    def switch() -> None:
        monkeypatch.setattr(transient, "step_kernel", oracle)
    return switch


def aged_cell(kind="nssa"):
    return ExperimentCell(kind, paper_workload("80r0"), 1e8,
                          Environment.from_celsius(25.0, 1.0))


def sense_amp_system(build=build_nssa, batch=5, seed=3):
    design = build()
    rng = np.random.default_rng(seed)
    system = MnaSystem(design.circuit, 298.15, batch_size=batch)
    system.set_vth_shifts({name: rng.normal(0.0, 0.03, batch)
                           for name in system.vth_shifts()})
    return system, rng


def solve_one_step(kernel, system, v_prev, t_new, batch):
    """Drive one begin_step/solve cycle; returns (v_new, iterations)."""
    v_new = v_prev.copy()
    system.apply_known(v_new, t_new)
    kernel.begin_step(t_new, v_prev)
    iterations = kernel.solve(v_new, np.arange(batch))
    return v_new, iterations


def step_state(system, rng, batch):
    v_prev = system.initial_full_vector(0.0)
    v_prev[:, system.unknown_idx] = rng.uniform(
        0.2, 0.8, (batch, system.n_unknown))
    return v_prev


def fused_kernels(system, c_over_dt, batch, options):
    """Every fused kernel this host can build, by flavor."""
    maps = ReducedKernelMaps(system, c_over_dt, options)
    kernels = {"fused-numpy": FusedNumpyKernel(maps, system, batch,
                                               options)}
    fn, _, _, _ = _cc.load_kernel()
    if fn is not None:
        kernels["cc"] = ScalarStepKernel(maps, system, batch, options, fn)
    return kernels


class TestRegistry:
    def test_cache_tokens_are_distinct(self, clean_flavor,
                                       use_numpy_flavor):
        production = cache_token()
        use_numpy_flavor()
        fallback = cache_token()
        assert fallback == {"kernel": compiled_mod.KERNEL_VERSION,
                            "flavor": "numpy"}
        if production["flavor"] == "cc":
            assert production["so"] == _cc.kernel_tag(
                backend_host_info()["cc"]["flags"])
            assert production != fallback

    def test_host_info_names_the_backend(self):
        info = backend_host_info()
        assert info["kernel_version"] == compiled_mod.KERNEL_VERSION
        assert info["flavor"] in ("cc", "numpy")
        assert "cc" in info


class TestFlavorLadder:
    def test_numpy_flavor_forced(self, use_numpy_flavor):
        use_numpy_flavor()
        assert backend_host_info()["flavor"] == "numpy"
        system, _ = sense_amp_system(batch=3)
        kernel = step_kernel(system, system.c_matrix / 1e-12, 1e-12, 3,
                             NewtonOptions())
        assert isinstance(kernel, FusedNumpyKernel)

    @needs_cc
    def test_cc_flavor(self, clean_flavor):
        info = backend_host_info()
        assert info["flavor"] == "cc"
        assert info["cc"]["available"]

    def test_auto_never_fails(self, clean_flavor):
        assert backend_host_info()["flavor"] in ("cc", "numpy")


class TestColdCompile:
    @needs_cc
    def test_concurrent_cold_loads_agree(self, tmp_path, monkeypatch):
        """Loaders compiling into one empty kernel directory at once all
        get the kernel, with the same flag set, and leave only the
        published ``.so`` behind."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        with ThreadPoolExecutor(max_workers=4) as pool:
            loads = list(pool.map(lambda _: _cc.load_kernel(), range(4)))
        assert all(fn is not None for fn, _, _, _ in loads)
        assert len({(flags, tag) for _, _, flags, tag in loads}) == 1
        tag = loads[0][3]
        assert os.listdir(tmp_path / "cc-kernels") == \
            [f"newton_step_{tag}.so"]

    @needs_cc
    def test_cached_object_without_symbol_is_rebuilt(self, tmp_path,
                                                     monkeypatch):
        """A cached ``.so`` lacking ``newton_step`` (e.g. built from a
        truncated source) is replaced, not raised on."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        directory = tmp_path / "cc-kernels"
        directory.mkdir()
        source = directory / "empty.c"
        source.write_text("int unrelated;\n")
        for flags in _cc.CC_FLAG_SETS:
            target = directory / f"newton_step_{_cc.kernel_tag(flags)}.so"
            subprocess.run(["cc", "-shared", "-fPIC", str(source), "-o",
                            str(target)], check=True)
        source.unlink()
        fn, compile_ms, _, _ = _cc.load_kernel()
        assert fn is not None and compile_ms > 0.0


class TestKernelCache:
    def test_kernel_reused_per_system(self, clean_flavor):
        system, _ = sense_amp_system(batch=4)
        args = (system, system.c_matrix / 1e-12, 1e-12, 4, NewtonOptions())
        first = step_kernel(*args)
        assert step_kernel(*args) is first

    def test_dt_and_options_split_the_cache(self, clean_flavor):
        system, _ = sense_amp_system(batch=4)
        base = step_kernel(system, system.c_matrix / 1e-12, 1e-12, 4,
                           NewtonOptions())
        other_dt = step_kernel(system, system.c_matrix / 2e-12, 2e-12, 4,
                               NewtonOptions())
        other_opts = step_kernel(system, system.c_matrix / 1e-12, 1e-12,
                                 4, NewtonOptions(vtol=1e-8))
        assert base is not other_dt and base is not other_opts


class TestFallbackGuards:
    """Out-of-contract configurations use the exact oracle kernel."""

    def _kernel(self, **newton_kwargs):
        system, _ = sense_amp_system(batch=3)
        return step_kernel(system, system.c_matrix / 1e-12, 1e-12, 3,
                           NewtonOptions(**newton_kwargs))

    def test_unmasked_falls_back(self):
        assert isinstance(self._kernel(masked=False), NumpyStepKernel)

    def test_deviceless_falls_back(self):
        from repro.spice.netlist import Circuit
        from repro.spice.waveforms import Dc
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "a", Dc(1.0))
        circuit.add_resistor("r", "a", "b", 1e3)
        circuit.add_capacitor("c", "b", "0", 1e-15)
        system = MnaSystem(circuit, 300.0, batch_size=2)
        kernel = step_kernel(system, system.c_matrix / 1e-12, 1e-12, 2,
                             NewtonOptions())
        assert isinstance(kernel, NumpyStepKernel)

    def test_oversized_system_uses_numpy_flavor(self, monkeypatch,
                                                clean_flavor):
        monkeypatch.setattr(_cc, "MAX_NU", 1)
        assert isinstance(self._kernel(), FusedNumpyKernel)

    def test_selfcheck_failure_demotes_process(self, monkeypatch,
                                               clean_flavor):
        monkeypatch.setattr(compiled_mod, "_SELFCHECK", "failed")
        assert backend_host_info()["flavor"] == "numpy"
        assert cache_token()["flavor"] == "numpy"
        assert isinstance(self._kernel(), FusedNumpyKernel)


class TestStepKernelParity:
    """Fused kernels agree with the oracle kernel per step."""

    def _compare(self, system, rng, batch):
        dt = 1e-12
        c_over_dt = system.c_matrix / dt
        options = NewtonOptions()
        v_prev = step_state(system, rng, batch)
        t_new = 1e-11

        reference = NumpyStepKernel(system, c_over_dt, batch, options)
        v_ref, _ = solve_one_step(reference, system, v_prev, t_new, batch)
        for label, kernel in fused_kernels(system, c_over_dt, batch,
                                           options).items():
            v_got, _ = solve_one_step(kernel, system, v_prev, t_new,
                                      batch)
            np.testing.assert_allclose(
                v_got, v_ref, rtol=0.0, atol=STEP_ATOL,
                err_msg=f"{label} kernel diverged from the oracle")

    @pytest.mark.parametrize("build", [build_nssa, build_issa])
    def test_sense_amps(self, build):
        system, rng = sense_amp_system(build, batch=6, seed=11)
        self._compare(system, rng, 6)

    @pytest.mark.parametrize("seed", range(6))
    def test_randomised_topologies(self, seed):
        rng = np.random.default_rng(2000 + seed)
        circuit = random_circuit(rng)
        batch = 4
        system = MnaSystem(circuit, 300.0, batch_size=batch)
        shifts = {name: rng.normal(0.0, 0.02, batch)
                  for name in system.vth_shifts()}
        if shifts:
            system.set_vth_shifts(shifts)
        self._compare(system, rng, batch)

    def test_partial_active_rows(self):
        """Kernels must leave inactive rows untouched."""
        batch = 6
        system, rng = sense_amp_system(batch=batch, seed=21)
        dt = 1e-12
        options = NewtonOptions()
        c_over_dt = system.c_matrix / dt
        v_prev = step_state(system, rng, batch)
        active = np.array([0, 2, 5])
        frozen = np.array([1, 3, 4])
        kernels = [NumpyStepKernel(system, c_over_dt, batch, options),
                   *fused_kernels(system, c_over_dt, batch,
                                  options).values()]
        for kernel in kernels:
            v_new = v_prev.copy()
            system.apply_known(v_new, 1e-11)
            snapshot = v_new[frozen].copy()
            kernel.begin_step(1e-11, v_prev)
            kernel.solve(v_new, active)
            np.testing.assert_array_equal(v_new[frozen], snapshot)


class TestTransientParity:
    @pytest.mark.parametrize("build", [build_nssa, build_issa])
    def test_probes_agree(self, build, use_oracle):
        design = build()
        batch = 5
        rng = np.random.default_rng(9)
        names = MnaSystem(design.circuit, 298.15).vth_shifts()
        shifts = {name: rng.normal(0.0, 0.02, batch) for name in names}

        def simulate():
            system = MnaSystem(design.circuit, 298.15, batch_size=batch)
            system.set_vth_shifts(shifts)
            return run_transient(system, t_stop=6e-11, dt=1e-12,
                                 probes=list(design.output_nodes),
                                 extrapolate=True)
        b = simulate()
        use_oracle()
        a = simulate()
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_allclose(b.final, a.final, rtol=0.0,
                                   atol=STEP_ATOL)
        for node in a.voltages:
            np.testing.assert_allclose(b.voltages[node],
                                       a.voltages[node], rtol=0.0,
                                       atol=STEP_ATOL)


class TestOffsetsBitwise:
    """The characterisation contract: offsets are kernel-independent."""

    @staticmethod
    def characterise(kind="nssa", size=6, iterations=5):
        return run_cell(aged_cell(kind),
                        settings=default_mc_settings(size=size, seed=2017),
                        timing=ReadTiming(dt=1e-12),
                        offset_iterations=iterations, measure_delay=False)

    @pytest.mark.parametrize("kind", ["nssa", "issa"])
    def test_run_cell_offsets_bit_identical(self, kind, use_oracle):
        production = self.characterise(kind)
        use_oracle()
        oracle = self.characterise(kind)
        np.testing.assert_array_equal(production.offset.offsets,
                                      oracle.offset.offsets)
        assert production.offset.spec == oracle.offset.spec

    def test_compiled_counters_flow(self):
        from repro.analysis.perf import PERF
        PERF.reset()
        self.characterise(size=4, iterations=4)
        counters = PERF.snapshot()["counters"]
        assert counters.get("spice.backend.fused_steps", 0) > 0
        assert counters.get("spice.backend.fused_iterations", 0) > 0
        assert counters.get("newton.solves", 0) > 0

    def test_numpy_backend_leaves_no_fused_counters(self, use_oracle):
        from repro.analysis.perf import PERF
        use_oracle()
        PERF.reset()
        self.characterise(size=4, iterations=4)
        counters = PERF.snapshot()["counters"]
        assert "spice.backend.fused_steps" not in counters
