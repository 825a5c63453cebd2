"""Shared fixtures: small-but-real simulation configs for fast tests.

The full paper experiments use 400 Monte-Carlo samples and 14 bisection
iterations; the tests run the same code paths with reduced populations
and coarser search so the whole suite stays in CI-friendly time while
still exercising the real simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.sense_amp import ReadTiming, build_issa, build_nssa
from repro.core.montecarlo import McSettings
from repro.core.testbench import SenseAmpTestbench
from repro.models import Environment, MismatchModel


#: Coarser transient step for tests (validated against the default in
#: test_transient_accuracy).
FAST_TIMING = ReadTiming(dt=1e-12)


@pytest.fixture(scope="session")
def nominal_env() -> Environment:
    return Environment.nominal()


@pytest.fixture(scope="session")
def hot_env() -> Environment:
    return Environment.from_celsius(125.0)


@pytest.fixture(scope="session")
def small_settings() -> McSettings:
    """A 24-sample Monte-Carlo configuration for smoke-level statistics."""
    return McSettings(size=24, seed=99, mismatch=MismatchModel())


@pytest.fixture(scope="session")
def nssa_bench(nominal_env) -> SenseAmpTestbench:
    """Shared fresh NSSA testbench (batch of 8) at the nominal corner."""
    return SenseAmpTestbench(build_nssa(), nominal_env, batch_size=8,
                             timing=FAST_TIMING)


@pytest.fixture(scope="session")
def issa_bench(nominal_env) -> SenseAmpTestbench:
    """Shared fresh ISSA testbench (batch of 8) at the nominal corner."""
    return SenseAmpTestbench(build_issa(), nominal_env, batch_size=8,
                             timing=FAST_TIMING)


@pytest.fixture(autouse=True)
def _reset_shared_benches(request):
    """Clear Vth shifts on the shared benches after each test."""
    yield
    for name in ("nssa_bench", "issa_bench"):
        if name in request.fixturenames:
            request.getfixturevalue(name).clear_vth_shifts()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def use_numpy_flavor(monkeypatch):
    """A switch to the fused-numpy kernel flavor for the rest of a test.

    Calling the returned function sets the process flavor state (the
    state ``compiled._reset_flavor_cache`` clears) to the fused-numpy
    kernel; it is restored when the test ends.
    """
    from repro.spice.backends import compiled

    def switch() -> None:
        monkeypatch.setattr(compiled, "_FLAVOR", ("numpy", None))
    return switch
