"""Persistent content-addressed cache for characterisation results.

A repeated ``python -m repro table`` run recomputes every cell it has
already solved; this module gives each cell a content-addressed
identity so solved cells are loaded instead.  The **key** is a SHA-256
over a canonical JSON encoding of everything that determines the
result: the canonicalised netlist, the Monte-Carlo seed/size/mismatch
model, the aging model, the read timing, the spec failure-rate target,
the measurement flags and bisection depth, the package version, a
code-version salt (bump :data:`CACHE_SALT` whenever a numerical code
change invalidates old entries), the warm-start toggle (so an
``REPRO_NO_WARMSTART=1`` verification run recomputes rather than
trivially replaying the cached value), the step kernel's
``cache_token()`` (kernel version, the process's kernel flavor and,
for the C kernel, its ``.so`` tag — the flavors agree bitwise on
offsets but not on delays, so their results never mix), and the
resolved rare-event
estimator configuration (``None`` on the paper's fit path), so tail
estimates and brute-force entries never share a key.  ``chunk_size`` is deliberately
excluded — chunking controls peak memory, not the statistics (results
agree to solver tolerance; bit-identical with warm starts off).

The **value** is the :class:`~repro.core.experiment.CellResult`
payload: the per-sample offset population and mean delay in an ``.npz``
plus a human-readable JSON sidecar.  Entries live under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro``), one pair of files
per key, and are written atomically (temp file + ``os.replace``) so
parallel workers can share a store without locks: concurrent writers
race benignly — both write identical bytes for identical keys.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import pathlib
import tempfile
import zipfile
from typing import Any, Dict, Optional

import numpy as np

from ..analysis.perf import PERF
from .offset import OffsetDistribution, fit_offsets
from .rare_event import TailEstimate

#: Environment variable overriding the cache directory.
CACHE_ENV = "REPRO_CACHE_DIR"

#: Bump on numerical code changes that invalidate stored results.
CACHE_SALT = "repro-cell-cache-v1"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro"


def _canon(obj: Any) -> Any:
    """Canonical JSON-serialisable form of a settings object.

    Dataclasses become tagged dicts, numpy scalars/arrays become plain
    lists, and model objects that wrap a dataclass parameter card (e.g.
    ``AtomisticBti``) are identified by class name + card — no memory
    addresses or repr artefacts can leak into the key.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__type__": type(obj).__name__}
        for field in dataclasses.fields(obj):
            out[field.name] = _canon(getattr(obj, field.name))
        return out
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    params = getattr(obj, "params", None)
    if dataclasses.is_dataclass(params) and not isinstance(params, type):
        return {"__type__": type(obj).__name__, "params": _canon(params)}
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for a cache key")


def canonical_netlist(circuit: Any) -> Dict[str, Any]:
    """Canonical form of a :class:`~repro.spice.netlist.Circuit`.

    Element order is preserved (it fixes the MNA assembly order) and
    every element is a frozen dataclass, so the encoding is exact.
    """
    return {
        "name": circuit.name,
        "resistors": [_canon(e) for e in circuit.resistors],
        "capacitors": [_canon(e) for e in circuit.capacitors],
        "vsources": [_canon(e) for e in circuit.vsources],
        "isources": [_canon(e) for e in circuit.isources],
        "mosfets": [_canon(e) for e in circuit.mosfets],
    }


@dataclasses.dataclass(frozen=True)
class ResultCache:
    """Content-addressed store of :class:`CellResult` payloads.

    Holds only the directory path, so instances pickle cheaply into
    worker processes; workers share the store through the filesystem.
    """

    directory: pathlib.Path

    @classmethod
    def default(cls) -> "ResultCache":
        """Cache under ``$REPRO_CACHE_DIR`` / ``~/.cache/repro``."""
        return cls(default_cache_dir())

    # -- keys ------------------------------------------------------------

    def key_for(self, design: Any, cell: Any, settings: Any, aging: Any,
                timing: Any, failure_rate: float, measure_offset: bool,
                measure_delay: bool, offset_iterations: int,
                warmstart: Optional[bool] = None,
                estimator: Any = None) -> str:
        """SHA-256 key of one cell characterisation.

        ``estimator`` is the *resolved* rare-event configuration
        (``None`` for the paper's fit path, including when the opt-out
        env downgraded a request) — a dedicated key field, so
        importance-sampling and brute-force entries can never collide.
        The step kernel's :func:`~repro.spice.backends.cache_token`
        names the kernel this process computes with, so entries from
        different kernel flavors or builds never mix.
        """
        from .. import __version__
        from ..spice.backends import cache_token
        if warmstart is None:
            from .testbench import warmstart_default
            warmstart = warmstart_default()
        payload = {
            "salt": CACHE_SALT,
            "version": __version__,
            "netlist": canonical_netlist(design.circuit),
            "cell": {
                "scheme": cell.scheme,
                "workload": _canon(cell.workload),
                "time_s": cell.time_s,
                "env": _canon(cell.env),
            },
            "settings": _canon(settings),
            "aging": _canon(aging),
            "timing": _canon(timing),
            "failure_rate": failure_rate,
            "measure_offset": measure_offset,
            "measure_delay": measure_delay,
            "offset_iterations": offset_iterations,
            "warmstart": bool(warmstart),
            "estimator": _canon(estimator),
            "kernel": cache_token(),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def key_for_cell(self, cell: Any, *, design: Any = None,
                     settings: Any = None, aging: Any = None,
                     timing: Any = None,
                     failure_rate: Optional[float] = None,
                     measure_offset: bool = True,
                     measure_delay: bool = True,
                     offset_iterations: int = 14,
                     warmstart: Optional[bool] = None,
                     estimator: Any = None) -> str:
        """Key of a cell with the same defaults :func:`run_cell` applies.

        The single key-derivation hook shared by the experiment runner
        and the job service's dedup logic: both resolve unset settings
        (Monte-Carlo defaults, calibrated aging model, read timing,
        spec target) identically, so a submission dedups exactly
        against what a direct ``run_cell`` would store.  ``design``
        may be passed when the caller already built the netlist.
        """
        from ..circuits.sense_amp import ReadTiming
        from ..constants import FAILURE_RATE_TARGET
        from .calibration import default_aging_model, default_mc_settings
        from .experiment import build_design
        return self.key_for(
            design=design if design is not None
            else build_design(cell.scheme),
            cell=cell,
            settings=settings or default_mc_settings(),
            aging=aging or default_aging_model(),
            timing=timing if timing is not None else ReadTiming(),
            failure_rate=(FAILURE_RATE_TARGET if failure_rate is None
                          else failure_rate),
            measure_offset=measure_offset,
            measure_delay=measure_delay,
            offset_iterations=offset_iterations,
            warmstart=warmstart,
            estimator=estimator)

    # -- entries ---------------------------------------------------------

    def _npz_path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.npz"

    def contains(self, key: str) -> bool:
        """Whether an entry for ``key`` exists on disk (no load)."""
        return self._npz_path(key).is_file()

    def load(self, key: str, cell: Any,
             failure_rate: float) -> Optional["Any"]:
        """Return the cached :class:`CellResult` for ``key``, or None.

        The offset distribution is rebuilt by re-fitting the stored
        population through the same :func:`fit_normal` path the solver
        uses, so a loaded result is bit-identical to the stored one.
        Unreadable or truncated entries count as misses.
        """
        from .experiment import CellResult
        PERF.count("cache.requests")
        path = self._npz_path(key)
        try:
            with np.load(path) as data:
                delay_s = float(data["delay_s"])
                offsets = (np.array(data["offsets"])
                           if "offsets" in data.files else None)
                tail = self._load_tail(data)
        except (OSError, ValueError, KeyError, zipfile.BadZipFile,
                json.JSONDecodeError):
            PERF.count("cache.misses")
            return None
        PERF.count("cache.hits")
        PERF.count("cache.bytes_read", path.stat().st_size)
        offset = None
        if offsets is not None:
            offset = OffsetDistribution(offsets=offsets,
                                        fit=fit_offsets(offsets),
                                        failure_rate=failure_rate,
                                        tail=tail)
        return CellResult(cell=cell, offset=offset, delay_s=delay_s)

    @staticmethod
    def _load_tail(data: Any) -> Optional[TailEstimate]:
        """Rebuild a stored rare-event tail estimate, if any."""
        if "tail_offsets" not in data.files:
            return None
        meta = json.loads(str(data["tail_meta"]))
        return TailEstimate.from_parts(
            offsets=np.array(data["tail_offsets"]),
            log_weights=(np.array(data["tail_log_weights"])
                         if "tail_log_weights" in data.files else None),
            scales=(np.array(data["tail_scales"])
                    if "tail_scales" in data.files else None),
            meta=meta)

    def store(self, key: str, result: Any) -> None:
        """Atomically write ``result`` under ``key``.

        ``os.replace`` makes the entry appear whole or not at all, so
        concurrent workers sharing the directory never observe partial
        files; duplicate writers overwrite with identical content.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        arrays: Dict[str, np.ndarray] = {
            "delay_s": np.float64(result.delay_s)}
        if result.offset is not None:
            arrays["offsets"] = result.offset.offsets
            tail = result.offset.tail
            if tail is not None:
                arrays["tail_offsets"] = tail.offsets
                arrays["tail_meta"] = np.array(json.dumps(tail.meta()))
                if tail.log_weights is not None:
                    arrays["tail_log_weights"] = tail.log_weights
                if tail.scales is not None:
                    arrays["tail_scales"] = tail.scales
        path = self._npz_path(key)
        self._atomic_write(path, lambda fh: np.savez(fh, **arrays))
        from .. import __version__
        sidecar = {
            "key": key,
            "scheme": result.cell.scheme,
            "workload": result.cell.workload_label,
            "time_s": result.cell.time_s,
            "temperature_k": result.cell.env.temperature_k,
            "vdd": result.cell.env.vdd,
            "row": {k: (None if isinstance(v, float) and np.isnan(v)
                        else v) for k, v in result.row().items()},
            "version": __version__,
            "salt": CACHE_SALT,
        }
        if result.offset is not None and result.offset.tail is not None:
            sidecar["tail"] = result.offset.tail.meta()
        blob = json.dumps(sidecar, indent=2, sort_keys=True).encode()
        self._atomic_write(path.with_suffix(".json"),
                           lambda fh: fh.write(blob))
        PERF.count("cache.stores")
        PERF.count("cache.bytes_written",
                   path.stat().st_size + len(blob))

    def _atomic_write(self, path: pathlib.Path, writer) -> None:
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                writer(fh)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

    # -- document entries ------------------------------------------------
    #
    # Generic JSON-document storage for results that are not cell
    # characterisations (e.g. fleet lifetime summaries).  Documents get
    # their own ``.doc.json`` suffix so they never collide with cell
    # sidecars, and keys are content-addressed over a caller-supplied
    # payload with the same salt/version discipline as cell keys.

    def key_for_doc(self, payload: Any) -> str:
        """SHA-256 key of a JSON-document result.

        ``payload`` must describe everything that determines the
        document (it is canonicalised with :func:`_canon`, so
        dataclasses and numpy values are fine).
        """
        from .. import __version__
        blob = json.dumps({"salt": CACHE_SALT, "version": __version__,
                           "doc": _canon(payload)},
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _doc_path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.doc.json"

    def contains_doc(self, key: str) -> bool:
        """Whether a document entry for ``key`` exists on disk."""
        return self._doc_path(key).is_file()

    def store_doc(self, key: str, document: Any) -> None:
        """Atomically write a JSON document under ``key``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(document, sort_keys=True).encode()
        self._atomic_write(self._doc_path(key), lambda fh: fh.write(blob))
        PERF.count("cache.doc_stores")
        PERF.count("cache.bytes_written", len(blob))

    def load_doc(self, key: str) -> Optional[Any]:
        """Return the cached document for ``key``, or ``None``.

        Unreadable or truncated entries count as misses, mirroring
        :meth:`load`.
        """
        PERF.count("cache.requests")
        path = self._doc_path(key)
        try:
            blob = path.read_bytes()
            document = json.loads(blob)
        except (OSError, ValueError, json.JSONDecodeError):
            PERF.count("cache.misses")
            return None
        PERF.count("cache.hits")
        PERF.count("cache.bytes_read", len(blob))
        return document

    # -- maintenance -----------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Entry count and on-disk footprint."""
        entries = 0
        total = 0
        if self.directory.is_dir():
            for path in self.directory.iterdir():
                if path.suffix == ".npz":
                    entries += 1
                if path.is_file():
                    total += path.stat().st_size
        return {"directory": str(self.directory),
                "entries": entries,
                "bytes": total}

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.iterdir():
                if path.suffix in (".npz", ".json") and path.is_file():
                    path.unlink()
                    if path.suffix == ".npz":
                        removed += 1
        return removed
