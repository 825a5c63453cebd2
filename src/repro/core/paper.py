"""Canonical experiment grids of the paper's evaluation section.

One place defining exactly which (scheme, workload, time, corner)
cells each table/figure contains, plus runners that execute a grid and
return paper-vs-measured rows.  The CLI and ad-hoc scripts build on
this; the benchmarks keep their own copies so each benchmark file is
self-describing.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.reference import (TABLE2, TABLE3, TABLE4, RowKey,
                                  RowValue, lookup)
from ..circuits.sense_amp import ReadTiming
from ..models.temperature import Environment
from ..workloads import paper_workload
from .cache import ResultCache
from .calibration import default_mc_settings
from .experiment import CellResult, ExperimentCell
from .montecarlo import McSettings
from .rare_event import EstimatorConfig

#: (scheme, workload name or None, time, temperature C, vdd)
GridSpec = Tuple[str, Optional[str], float, float, float]

TABLE2_GRID: Tuple[GridSpec, ...] = tuple(
    (scheme, workload, time_s, 25.0, 1.0) for scheme, workload, time_s in
    (("nssa", None, 0.0), ("nssa", "80r0r1", 1e8), ("nssa", "80r0", 1e8),
     ("nssa", "80r1", 1e8), ("nssa", "20r0r1", 1e8),
     ("nssa", "20r0", 1e8), ("nssa", "20r1", 1e8), ("issa", None, 0.0),
     ("issa", "80r0", 1e8), ("issa", "20r0", 1e8)))

TABLE3_GRID: Tuple[GridSpec, ...] = tuple(
    (scheme, workload, time_s, 25.0, vdd)
    for vdd in (0.9, 1.1)
    for scheme, workload, time_s in
    (("nssa", None, 0.0), ("nssa", "80r0r1", 1e8), ("nssa", "80r0", 1e8),
     ("nssa", "80r1", 1e8), ("issa", None, 0.0), ("issa", "80r0", 1e8)))

TABLE4_GRID: Tuple[GridSpec, ...] = tuple(
    (scheme, workload, time_s, temp_c, 1.0)
    for temp_c in (75.0, 125.0)
    for scheme, workload, time_s in
    (("nssa", None, 0.0), ("nssa", "80r0r1", 1e8), ("nssa", "80r0", 1e8),
     ("nssa", "80r1", 1e8), ("issa", None, 0.0), ("issa", "80r0", 1e8)))

GRIDS: Dict[str, Tuple[GridSpec, ...]] = {
    "2": TABLE2_GRID, "3": TABLE3_GRID, "4": TABLE4_GRID,
}

REFERENCES: Dict[str, Dict[RowKey, RowValue]] = {
    "2": TABLE2, "3": TABLE3, "4": TABLE4,
}


@dataclasses.dataclass(frozen=True)
class GridRow:
    """One executed grid cell with its paper reference (if tabulated)."""

    result: CellResult
    paper: Optional[RowValue]

    @property
    def measured(self) -> Tuple[float, float, float, float]:
        r = self.result
        return (r.mu_mv, r.sigma_mv, r.spec_mv, r.delay_ps)


def grid_cells(which: str) -> List[ExperimentCell]:
    """The :class:`ExperimentCell` list of one paper table's grid."""
    if which not in GRIDS:
        raise ValueError(f"unknown table {which!r}; choose 2, 3 or 4")
    cells = []
    for scheme, workload_name, time_s, temp_c, vdd in GRIDS[which]:
        workload = paper_workload(workload_name) if workload_name \
            else None
        cells.append(ExperimentCell(scheme, workload, time_s,
                                    Environment.from_celsius(temp_c, vdd)))
    return cells


def run_grid(which: str,
             settings: Optional[McSettings] = None,
             timing: ReadTiming = ReadTiming(),
             offset_iterations: int = 14,
             workers: Optional[int] = 1,
             chunk_size: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             estimator: Optional[EstimatorConfig] = None,
             progress=None) -> List[GridRow]:
    """Execute one paper table's grid.

    Parameters
    ----------
    which:
        ``"2"``, ``"3"`` or ``"4"``.
    settings / timing / offset_iterations:
        Characterisation configuration (defaults match the paper).
    workers:
        Process count for the grid; cells are independent, so they
        shard across a process pool (see :mod:`repro.core.parallel`).
        The default keeps the bit-identical serial loop.
    chunk_size:
        Optional Monte-Carlo batch chunking within each cell
        (peak-memory control; results unchanged).
    cache:
        Optional persistent :class:`~repro.core.cache.ResultCache`
        shared across runs (and across workers): solved cells are
        loaded instead of recomputed.
    estimator:
        Optional rare-event tail estimator forwarded to every cell
        (see :func:`~repro.core.experiment.run_cell`).
    progress:
        Optional callback ``(index, total, cell)`` for CLI progress
        reporting (start of each cell when serial, completion when
        parallel).
    """
    from .parallel import run_cells

    settings = settings or default_mc_settings()
    cells = grid_cells(which)
    reference = REFERENCES[which]
    results = run_cells(cells, settings=settings, timing=timing,
                        offset_iterations=offset_iterations,
                        chunk_size=chunk_size, cache=cache,
                        estimator=estimator,
                        workers=workers, progress=progress)
    rows: List[GridRow] = []
    for cell, result in zip(cells, results):
        paper = lookup(reference, cell.scheme, cell.time_s,
                       cell.workload_label,
                       (cell.env.temperature_c, cell.env.vdd))
        rows.append(GridRow(result=result, paper=paper))
    return rows


def shape_deviations(rows: Sequence[GridRow],
                     rel_tolerance: float = 0.15) -> List[str]:
    """Rows whose measured spec deviates from the paper beyond tolerance.

    Returns human-readable descriptions; an empty list means every
    tabulated spec matched within ``rel_tolerance``.
    """
    out: List[str] = []
    for row in rows:
        if row.paper is None:
            continue
        measured_spec = row.measured[2]
        paper_spec = row.paper[2]
        deviation = abs(measured_spec - paper_spec) / paper_spec
        if deviation > rel_tolerance:
            cell = row.result.cell
            out.append(f"{cell.scheme} {cell.workload_label} "
                       f"{cell.env.label()}: spec {measured_spec:.1f} "
                       f"vs paper {paper_spec:.1f} "
                       f"({deviation * 100.0:.1f}%)")
    return out
