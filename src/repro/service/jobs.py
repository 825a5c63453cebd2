"""Job model of the characterisation service.

A *job* is one requested cell characterisation: the serialisable
:class:`JobRequest` (what to simulate), plus lifecycle bookkeeping
(state, attempts, timestamps, result row).  Jobs are identified by the
content-addressed :mod:`~repro.core.cache` key of their request, so two
submissions of the same work *are* the same job — dedup is identity,
not a lookup table bolted on the side.

States move ``pending -> running -> done | failed | cancelled``; a
retried job goes back to ``pending`` with a backoff gate
(:attr:`Job.not_before`).  Every mutation bumps :attr:`Job.rev`, which
lets the journal replay of :mod:`~repro.service.store` apply records
idempotently in any snapshot/journal interleaving.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Tuple, Union

#: Job lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can never leave.
TERMINAL = (DONE, FAILED, CANCELLED)

#: Every valid state (for validation at the API boundary).
STATES = (PENDING, RUNNING, DONE, FAILED, CANCELLED)


@dataclasses.dataclass(frozen=True)
class JobRequest:
    """One cell characterisation, in wire-format primitives.

    Mirrors the knobs of :func:`repro.core.experiment.run_cell` using
    only JSON-representable fields so requests journal, POST and hash
    cleanly.  ``workload`` is a paper workload *name* (``"80r0"``);
    ``None`` (with ``time_s=0``) is the fresh population.
    """

    scheme: str = "nssa"
    workload: Optional[str] = None
    time_s: float = 0.0
    temp_c: float = 25.0
    vdd: float = 1.0
    mc: int = 100
    seed: int = 2017
    dt: float = 1e-12
    offset_iterations: int = 14
    measure_offset: bool = True
    measure_delay: bool = True
    chunk_size: Optional[int] = None
    timeout_s: Optional[float] = None

    def validate(self) -> None:
        """Raise ``ValueError`` for any field the worker cannot honour."""
        self.to_cell()

    def to_cell(self):
        """The :class:`~repro.core.experiment.ExperimentCell` to run.

        Validates the request as a side effect: unknown schemes and
        workload names raise ``ValueError`` here, which the submit paths
        surface as a client error.
        """
        from ..core.experiment import ExperimentCell
        from ..models.temperature import Environment
        from ..workloads import paper_workload
        workload = (paper_workload(self.workload)
                    if self.workload is not None else None)
        return ExperimentCell(self.scheme, workload, self.time_s,
                              Environment.from_celsius(self.temp_c,
                                                       self.vdd))

    def run_kwargs(self) -> Dict[str, Any]:
        """Keyword arguments for ``run_cell``/``run_cells``."""
        from ..circuits.sense_amp import ReadTiming
        from ..core.calibration import default_mc_settings
        return dict(settings=default_mc_settings(size=self.mc,
                                                 seed=self.seed),
                    timing=ReadTiming(dt=self.dt),
                    offset_iterations=self.offset_iterations,
                    measure_offset=self.measure_offset,
                    measure_delay=self.measure_delay,
                    chunk_size=self.chunk_size)

    def signature(self) -> Tuple:
        """Batch-compatibility signature.

        Requests that differ only in *what cell* they characterise
        (scheme, workload, time, corner) share a signature and may be
        coalesced into one ``run_cells`` invocation; everything that
        changes the per-cell configuration keeps them apart.
        """
        return (self.mc, self.seed, self.dt, self.offset_iterations,
                self.measure_offset, self.measure_delay,
                self.chunk_size, self.timeout_s)

    def cache_key(self, cache) -> str:
        """Content-addressed identity shared with ``run_cell``."""
        kwargs = self.run_kwargs()
        kwargs.pop("chunk_size")  # memory knob; excluded from the key
        return cache.key_for_cell(self.to_cell(), **kwargs)

    def cached_result_row(self, cache, key: str) -> Optional[Dict]:
        """The result row if the cache already holds this request."""
        from ..constants import FAILURE_RATE_TARGET
        if not cache.contains(key):
            return None
        cached = cache.load(key, self.to_cell(),
                            failure_rate=FAILURE_RATE_TARGET)
        return cached.row() if cached is not None else None

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "JobRequest":
        doc = dict(doc)
        # Journals written while the solver backend was selectable
        # carry a ``backend`` field; there is one solver path now.
        doc.pop("backend", None)
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - fields
        if unknown:
            raise ValueError(
                f"unknown request field(s): {', '.join(sorted(unknown))}")
        return cls(**doc)


@dataclasses.dataclass(frozen=True)
class FleetRequest:
    """One fleet lifetime-distribution / policy-comparison evaluation.

    The wire shape of a :meth:`repro.fleet.engine.FleetEngine.compare`
    call: a :class:`~repro.fleet.spec.FleetSpec` document plus one or
    more :class:`~repro.fleet.spec.MitigationPolicy` documents (the
    first is the comparison baseline).  ``chunk_size`` / ``workers``
    only shape *how* the fleet is walked — results are bitwise
    invariant to them — so they are excluded from the dedup identity,
    exactly like :attr:`JobRequest.chunk_size`.
    """

    spec: Dict[str, Any] = dataclasses.field(default_factory=dict)
    policies: Tuple[Dict[str, Any], ...] = ()
    chunk_size: Optional[int] = None
    workers: Optional[int] = 1
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        # JSON round-trips deliver lists; normalise so signatures and
        # equality behave.
        object.__setattr__(self, "policies",
                           tuple(dict(p) for p in self.policies))

    def validate(self):
        """Parse into engine inputs; raises ``ValueError`` when bad.

        Returns ``(FleetSpec, [MitigationPolicy, ...])`` so the worker
        validates and constructs in one step.
        """
        from ..fleet.spec import FleetSpec, MitigationPolicy
        if not self.policies:
            raise ValueError("fleet request needs at least one policy")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk size must be positive")
        spec = FleetSpec.from_dict(self.spec)
        policies = [MitigationPolicy.from_dict(doc)
                    for doc in self.policies]
        return spec, policies

    def signature(self) -> Tuple:
        """Fleet runs never coalesce with cell batches (or each other:
        identical fleet requests are already the *same job* by dedup,
        so a fleet batch is always a singleton)."""
        return ("fleet", self._identity_blob(), self.chunk_size,
                self.workers, self.timeout_s)

    def _identity_blob(self) -> str:
        return json.dumps({"spec": self.spec,
                           "policies": list(self.policies)},
                          sort_keys=True, separators=(",", ":"))

    def cache_key(self, cache) -> str:
        """Content-addressed identity over the physics, not the knobs."""
        return cache.key_for_doc({"kind": "fleet", "spec": self.spec,
                                  "policies": list(self.policies)})

    def cached_result_row(self, cache, key: str) -> Optional[Dict]:
        """The comparison document if the doc cache already holds it."""
        if not cache.contains_doc(key):
            return None
        return cache.load_doc(key)

    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["policies"] = [dict(p) for p in self.policies]
        doc["kind"] = "fleet"
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "FleetRequest":
        doc = dict(doc)
        kind = doc.pop("kind", "fleet")
        if kind != "fleet":
            raise ValueError(f"not a fleet request: kind={kind!r}")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - fields
        if unknown:
            raise ValueError(
                f"unknown request field(s): {', '.join(sorted(unknown))}")
        return cls(**doc)


@dataclasses.dataclass(frozen=True)
class ArrayRequest:
    """One bank-level array characterisation / scheme comparison.

    The wire shape of a :meth:`repro.array.engine.ArrayEngine.compare`
    call: an :class:`~repro.array.spec.ArraySpec` document plus the
    scheme tuple (the first is the comparison baseline).  As with
    :class:`FleetRequest`, ``chunk_size`` / ``workers`` only shape how
    the columns are walked — the tables are bitwise invariant to them —
    so they stay out of the dedup identity.
    """

    spec: Dict[str, Any] = dataclasses.field(default_factory=dict)
    schemes: Tuple[str, ...] = ("nssa", "issa")
    chunk_size: Optional[int] = None
    workers: Optional[int] = 1
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        # JSON round-trips deliver lists; normalise so signatures and
        # equality behave.
        object.__setattr__(self, "schemes",
                           tuple(str(s) for s in self.schemes))

    def validate(self):
        """Parse into engine inputs; raises ``ValueError`` when bad.

        Returns ``(ArraySpec, (scheme, ...))`` so the worker validates
        and constructs in one step.
        """
        from ..array.spec import ArraySpec, validate_schemes
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk size must be positive")
        return (ArraySpec.from_dict(self.spec),
                validate_schemes(self.schemes))

    def signature(self) -> Tuple:
        """Array runs never coalesce with cell batches (or each other:
        identical array requests are already the *same job* by dedup,
        so an array batch is always a singleton)."""
        return ("array", self._identity_blob(), self.chunk_size,
                self.workers, self.timeout_s)

    def _identity_blob(self) -> str:
        return json.dumps({"spec": self.spec,
                           "schemes": list(self.schemes)},
                          sort_keys=True, separators=(",", ":"))

    def cache_key(self, cache) -> str:
        """Content-addressed identity over the physics, not the knobs."""
        return cache.key_for_doc({"kind": "array", "spec": self.spec,
                                  "schemes": list(self.schemes)})

    def cached_result_row(self, cache, key: str) -> Optional[Dict]:
        """The comparison document if the doc cache already holds it."""
        if not cache.contains_doc(key):
            return None
        return cache.load_doc(key)

    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["schemes"] = list(self.schemes)
        doc["kind"] = "array"
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ArrayRequest":
        doc = dict(doc)
        kind = doc.pop("kind", "array")
        if kind != "array":
            raise ValueError(f"not an array request: kind={kind!r}")
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - fields
        if unknown:
            raise ValueError(
                f"unknown request field(s): {', '.join(sorted(unknown))}")
        return cls(**doc)


#: Requests the service accepts, by wire ``kind``.
REQUEST_KINDS = ("cell", "fleet", "array")


def request_from_dict(doc: Dict[str, Any]):
    """Build the right request class from a wire/journal document.

    Documents without a ``kind`` field are cell characterisations —
    the only request type earlier journals could hold — so old job
    stores replay unchanged.
    """
    doc = dict(doc)
    kind = doc.pop("kind", "cell")
    if kind == "fleet":
        return FleetRequest.from_dict(dict(doc, kind="fleet"))
    if kind == "array":
        return ArrayRequest.from_dict(dict(doc, kind="array"))
    if kind != "cell":
        raise ValueError(
            f"unknown request kind {kind!r}; expected one of "
            f"{', '.join(REQUEST_KINDS)}")
    return JobRequest.from_dict(doc)


@dataclasses.dataclass
class Job:
    """One tracked characterisation with its lifecycle state.

    ``worker`` / ``lease_expires_at`` implement the multi-consumer
    claim protocol: a claim leases the job to one named worker until
    the expiry timestamp; heartbeats extend the lease, and the lease
    sweeper requeues expired ``running`` jobs (the attempt is refunded
    — a dead worker is not the job's fault).  Both fields default to
    ``None`` so journals written before leases existed replay
    unchanged.
    """

    id: str
    request: Union[JobRequest, FleetRequest, ArrayRequest]
    seq: int = 0
    priority: int = 0
    state: str = PENDING
    rev: int = 0
    attempts: int = 0
    max_attempts: int = 3
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    not_before: float = 0.0
    batchable: bool = True
    from_cache: bool = False
    error: Optional[str] = None
    result_row: Optional[Dict[str, Any]] = None
    worker: Optional[str] = None
    lease_expires_at: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL

    def sort_key(self) -> Tuple[int, int]:
        """Claim order: highest priority first, then submission order."""
        return (-self.priority, self.seq)

    def touch(self) -> None:
        """Bump the revision; call once per recorded mutation."""
        self.rev += 1

    def to_dict(self) -> Dict[str, Any]:
        doc = dataclasses.asdict(self)
        doc["request"] = self.request.to_dict()
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Job":
        doc = dict(doc)
        doc["request"] = request_from_dict(doc["request"])
        if doc.get("state") not in STATES:
            raise ValueError(f"unknown job state {doc.get('state')!r}")
        return cls(**doc)
