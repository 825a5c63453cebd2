"""Tests for the persistent content-addressed result cache."""

import dataclasses
import pathlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest

from repro.analysis.perf import PERF
from repro.circuits.sense_amp import ReadTiming
from repro.core.cache import ResultCache, canonical_netlist
from repro.core.calibration import (default_aging_model,
                                    default_mc_settings)
from repro.core.experiment import (ExperimentCell, build_design, run_cell)
from repro.core.parallel import run_cells
from repro.models import Environment
from repro.spice.backends import _cc
from repro.workloads import paper_workload

TIMING = ReadTiming(dt=1e-12)

needs_cc = pytest.mark.skipif(not _cc.compiler_available(),
                              reason="no C compiler on PATH")


def settings(size=8):
    return default_mc_settings(size=size, seed=2017)


def fresh_cell(scheme="nssa"):
    return ExperimentCell(scheme, None, 0.0,
                          Environment.from_celsius(25.0, 1.0))


def aged_cells():
    return [ExperimentCell("nssa", paper_workload("80r0"), 1e8,
                           Environment.from_celsius(25.0, 1.0)),
            ExperimentCell("issa", paper_workload("80r0"), 1e8,
                           Environment.from_celsius(125.0, 0.9))]


def key_of(cache, cell, *, mc=None, iterations=6, measure_offset=True,
           measure_delay=True, warmstart=None):
    design = build_design(cell.scheme)
    mc = mc or settings()
    return cache.key_for(design, cell, mc, default_aging_model(), TIMING,
                         failure_rate=1e-3, measure_offset=measure_offset,
                         measure_delay=measure_delay,
                         offset_iterations=iterations,
                         warmstart=warmstart)


class TestKeys:
    def test_key_is_deterministic(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert key_of(cache, fresh_cell()) == key_of(cache, fresh_cell())

    def test_key_independent_of_instance(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        b = ResultCache(tmp_path / "b")
        assert key_of(a, fresh_cell()) == key_of(b, fresh_cell())

    @pytest.mark.parametrize("change", [
        dict(mc=default_mc_settings(size=8, seed=99)),
        dict(mc=default_mc_settings(size=16, seed=2017)),
        dict(iterations=8),
        dict(measure_offset=False),
        dict(measure_delay=False),
        dict(warmstart=False),
    ])
    def test_settings_change_the_key(self, tmp_path, change):
        cache = ResultCache(tmp_path)
        assert key_of(cache, fresh_cell()) \
            != key_of(cache, fresh_cell(), **change)

    def test_scheme_changes_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert key_of(cache, fresh_cell("nssa")) \
            != key_of(cache, fresh_cell("issa"))

    def test_canonical_netlist_covers_every_element(self):
        circuit = build_design("nssa").circuit
        canon = canonical_netlist(circuit)
        assert len(canon["mosfets"]) == len(circuit.mosfets)
        assert len(canon["vsources"]) == len(circuit.vsources)
        # Pure data: round-trips through JSON machinery untouched.
        assert canon == canonical_netlist(build_design("nssa").circuit)

    def test_unknown_object_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(TypeError):
            cache.key_for(build_design("nssa"), fresh_cell(), object(),
                          None, TIMING, 1e-3, True, True, 6)


class TestRoundTrip:
    def test_hit_is_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = fresh_cell()
        PERF.reset()
        first = run_cell(cell, settings=settings(), timing=TIMING,
                         offset_iterations=6, cache=cache)
        second = run_cell(cell, settings=settings(), timing=TIMING,
                          offset_iterations=6, cache=cache)
        counters = PERF.snapshot()["counters"]
        assert counters["cache.requests"] == 2
        assert counters["cache.misses"] == 1
        assert counters["cache.stores"] == 1
        assert counters["cache.hits"] == 1
        np.testing.assert_array_equal(first.offset.offsets,
                                      second.offset.offsets)
        assert first.offset.mu == second.offset.mu
        assert first.offset.sigma == second.offset.sigma
        assert first.offset.spec == second.offset.spec
        assert first.delay_s == second.delay_s
        assert first.row() == second.row()

    def test_sidecar_written(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_cell(fresh_cell(), settings=settings(), timing=TIMING,
                 offset_iterations=6, cache=cache)
        npz = list(tmp_path.glob("*.npz"))
        sidecars = list(tmp_path.glob("*.json"))
        assert len(npz) == 1 and len(sidecars) == 1
        assert npz[0].stem == sidecars[0].stem

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = fresh_cell()
        run_cell(cell, settings=settings(), timing=TIMING,
                 offset_iterations=6, cache=cache)
        entry = next(tmp_path.glob("*.npz"))
        entry.write_bytes(b"not a zipfile")
        PERF.reset()
        result = run_cell(cell, settings=settings(), timing=TIMING,
                          offset_iterations=6, cache=cache)
        counters = PERF.snapshot()["counters"]
        assert counters["cache.misses"] == 1
        # Recomputed and re-stored over the corrupt entry.
        assert counters["cache.stores"] == 1
        assert result.offset is not None

    def test_different_settings_do_not_collide(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = fresh_cell()
        a = run_cell(cell, settings=settings(), timing=TIMING,
                     offset_iterations=6, cache=cache)
        b = run_cell(cell, settings=settings(16), timing=TIMING,
                     offset_iterations=6, cache=cache)
        assert cache.stats()["entries"] == 2
        assert a.offset.offsets.size != b.offset.offsets.size


class TestKeyForCell:
    def test_matches_key_for_with_run_cell_defaults(self, tmp_path):
        """The service's dedup key equals the key ``run_cell`` stores
        under when both leave the defaults in place."""
        from repro.constants import FAILURE_RATE_TARGET
        cache = ResultCache(tmp_path)
        cell = fresh_cell()
        explicit = cache.key_for(
            build_design(cell.scheme), cell, default_mc_settings(),
            default_aging_model(), ReadTiming(),
            failure_rate=FAILURE_RATE_TARGET, measure_offset=True,
            measure_delay=True, offset_iterations=14)
        assert cache.key_for_cell(cell) == explicit

    def test_overrides_change_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = fresh_cell()
        base = cache.key_for_cell(cell)
        assert cache.key_for_cell(cell, settings=settings()) != base
        assert cache.key_for_cell(cell, timing=TIMING) != base
        assert cache.key_for_cell(cell, offset_iterations=6) != base
        assert cache.key_for_cell(cell, measure_delay=False) != base

    def test_run_cell_stores_under_key_for_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = fresh_cell()
        key = cache.key_for_cell(cell, settings=settings(),
                                 timing=TIMING, offset_iterations=6)
        assert not cache.contains(key)
        run_cell(cell, settings=settings(), timing=TIMING,
                 offset_iterations=6, cache=cache)
        assert cache.contains(key)


class TestBackendKeys:
    """The kernel flavor's cache token salts the key (never mix)."""

    @needs_cc
    def test_backends_get_distinct_keys(self, tmp_path, use_numpy_flavor):
        cache = ResultCache(tmp_path)
        cell = fresh_cell()
        kwargs = dict(settings=settings(), timing=TIMING)
        production = cache.key_for_cell(cell, **kwargs)
        use_numpy_flavor()
        assert cache.key_for_cell(cell, **kwargs) != production

    @needs_cc
    def test_entries_distinct_payloads_identical(self, tmp_path,
                                                 use_numpy_flavor):
        """Each flavor stores its own entry; the offset payloads are
        bit-identical (the parity contract), only the keys differ."""
        cache = ResultCache(tmp_path)
        cell = aged_cells()[0]
        kwargs = dict(settings=settings(), timing=TIMING,
                      offset_iterations=5, measure_delay=False)
        results, keys = {}, {}
        for flavor in ("cc", "numpy"):
            if flavor == "numpy":
                use_numpy_flavor()
            keys[flavor] = cache.key_for_cell(cell, **kwargs)
            results[flavor] = run_cell(cell, cache=cache, **kwargs)
        assert keys["cc"] != keys["numpy"]
        assert cache.stats()["entries"] == 2
        loaded = {flavor: cache.load(keys[flavor], cell, failure_rate=1e-9)
                  for flavor in keys}
        np.testing.assert_array_equal(loaded["numpy"].offset.offsets,
                                      loaded["cc"].offset.offsets)
        np.testing.assert_array_equal(loaded["numpy"].offset.offsets,
                                      results["numpy"].offset.offsets)


def _store_repeatedly(directory, key, delay_s, offsets, repeats):
    """Hammer ``store`` on one key (process-pool entry point)."""
    from repro.analysis.stats import fit_normal
    from repro.constants import FAILURE_RATE_TARGET
    from repro.core.experiment import CellResult
    from repro.core.offset import OffsetDistribution
    cache = ResultCache(pathlib.Path(directory))
    offset = OffsetDistribution(offsets=np.asarray(offsets),
                                fit=fit_normal(np.asarray(offsets)),
                                failure_rate=FAILURE_RATE_TARGET)
    result = CellResult(cell=fresh_cell(), offset=offset, delay_s=delay_s)
    for _ in range(repeats):
        cache.store(key, result)
    return True


class TestConcurrentWriters:
    def test_threads_and_processes_race_benignly(self, tmp_path):
        """Many writers on one key: no torn entries, no leftover temp
        files, and the entry stays loadable and bit-identical."""
        cache = ResultCache(tmp_path)
        cell = fresh_cell()
        expected = run_cell(cell, settings=settings(), timing=TIMING,
                            offset_iterations=6, cache=cache)
        key = cache.key_for_cell(cell, settings=settings(),
                                 timing=TIMING, offset_iterations=6)
        args = (str(tmp_path), key, expected.delay_s,
                expected.offset.offsets.tolist(), 25)
        with ThreadPoolExecutor(max_workers=4) as threads, \
                ProcessPoolExecutor(max_workers=2) as procs:
            futures = [threads.submit(_store_repeatedly, *args)
                       for _ in range(4)]
            futures += [procs.submit(_store_repeatedly, *args)
                        for _ in range(2)]
            assert all(f.result(timeout=120) for f in futures)
        # One entry + sidecar; the atomic-rename temp files are gone.
        assert cache.stats()["entries"] == 1
        assert [p for p in tmp_path.iterdir()
                if p.name.startswith(".")] == []
        from repro.constants import FAILURE_RATE_TARGET
        loaded = cache.load(key, cell, failure_rate=FAILURE_RATE_TARGET)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.offset.offsets,
                                      expected.offset.offsets)
        assert loaded.delay_s == expected.delay_s
        assert loaded.row() == expected.row()


class TestParallelSharing:
    def test_workers_share_the_store_bit_identically(self, tmp_path):
        """Acceptance: four workers on a shared cache match serial."""
        cache = ResultCache(tmp_path)
        cells = aged_cells()
        serial = run_cells(cells, settings=settings(), timing=TIMING,
                           offset_iterations=6, workers=1)
        parallel = run_cells(cells, settings=settings(), timing=TIMING,
                             offset_iterations=6, workers=4, cache=cache)
        for x, y in zip(serial, parallel):
            np.testing.assert_array_equal(x.offset.offsets,
                                          y.offset.offsets)
            assert x.offset.spec == y.offset.spec
            assert x.delay_s == y.delay_s
        assert cache.stats()["entries"] == len(cells)
        # A serial replay over the populated store is all hits and
        # still bit-identical.
        PERF.reset()
        replay = run_cells(cells, settings=settings(), timing=TIMING,
                           offset_iterations=6, workers=1, cache=cache)
        counters = PERF.snapshot()["counters"]
        assert counters["cache.hits"] == len(cells)
        assert "cache.misses" not in counters
        for x, y in zip(serial, replay):
            np.testing.assert_array_equal(x.offset.offsets,
                                          y.offset.offsets)
            assert x.delay_s == y.delay_s


class TestMaintenance:
    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats() == {"directory": str(tmp_path),
                                 "entries": 0, "bytes": 0}
        run_cell(fresh_cell(), settings=settings(), timing=TIMING,
                 offset_iterations=6, cache=cache)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["bytes"] > 0
        assert cache.clear() == 1
        assert cache.stats()["entries"] == 0
        assert list(tmp_path.glob("*.json")) == []

    def test_clear_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.clear() == 0
        assert cache.stats()["entries"] == 0

    def test_default_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
        assert ResultCache.default().directory \
            == pathlib.Path(tmp_path / "store")

    def test_cache_is_picklable_frozen_data(self):
        assert dataclasses.is_dataclass(ResultCache)
        fields = {f.name for f in dataclasses.fields(ResultCache)}
        assert fields == {"directory"}
