"""One column's read-path characterisation.

Builds the column's sense amplifier with geometry-derived loading
injected onto its internal sense nodes, applies the column's keyed
mismatch and aging populations, and extracts the offset distribution
and sensing delay with the same machinery the single-SA tables use.

The injected load is what couples array geometry into the electrical
result: each of the ``mux_factor`` column-mux legs parks one off-device
junction on the sense node, and the selected bitline's SA-end half
capacitance couples through the pass device during the develop phase.
Because the load lands in the netlist itself (the ``Cs``/``Csbar``
capacitors), it flows into the canonical-netlist hash and therefore
into the result-cache key — two geometries can never alias one cache
entry.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict

import numpy as np

from ..circuits.sense_amp import ReadTiming, SenseAmpDesign
from ..core.experiment import _delay_components, build_design
from ..core.offset import OffsetDistribution, extract_offsets, fit_offsets
from ..core.testbench import SenseAmpTestbench
from ..models.temperature import Environment
from ..spice.netlist import Circuit
from ..workloads import paper_workload
from .sampling import column_aging, column_mismatch
from .spec import ArraySpec

#: Off-state junction capacitance one column-mux leg parks on the SA
#: input [F].
MUX_LEG_CAP = 0.05e-15

#: Fraction of the selected bitline's SA-end half capacitance that
#: couples through the pass device during develop.
BITLINE_COUPLING = 0.01

#: Per-row bitline capacitance seen through the coupling path [F]
#: (matches ``memory.bitline`` per-row constants).
_BITLINE_CAP_PER_ROW = 0.39e-15

#: Names of the internal sense-node capacitors the load lands on.
_SENSE_CAPS = ("Cs", "Csbar")


def sense_input_load(spec: ArraySpec) -> float:
    """Extra capacitance [F] geometry hangs on each SA sense node."""
    mux_load = spec.mux_factor * MUX_LEG_CAP
    bitline_half = spec.rows * _BITLINE_CAP_PER_ROW / 2.0
    return mux_load + BITLINE_COUPLING * bitline_half


def _inject_load(circuit: Circuit, load_f: float) -> None:
    """Add ``load_f`` onto the sense-node capacitors, in place."""
    found = 0
    for index, cap in enumerate(circuit.capacitors):
        if cap.name in _SENSE_CAPS:
            circuit.capacitors[index] = dataclasses.replace(
                cap, capacitance=cap.capacitance + load_f)
            found += 1
    if found != len(_SENSE_CAPS):
        raise ValueError("sense-node capacitors not found in circuit")


def build_column_design(spec: ArraySpec, scheme: str) -> SenseAmpDesign:
    """Fresh scheme netlist with the spec's input loading injected."""
    design = build_design(scheme)
    _inject_load(design.circuit, sense_input_load(spec))
    return design


def characterize_column(spec: ArraySpec, scheme: str, time_s: float,
                        column: int) -> Dict[str, Any]:
    """Offset/delay characterisation of one column at one checkpoint.

    Returns a JSON-primitive row (full-precision floats — downstream
    bitwise-invariance checks compare these directly).
    """
    design = build_column_design(spec, scheme)
    env = Environment.from_celsius(spec.temp_c, spec.vdd)
    mismatch = column_mismatch(design.circuit.mosfet_ratios(), spec.mc,
                               spec.seed, column)
    aging = column_aging(design, spec.workload, time_s, env, spec.mc,
                         spec.seed, column)
    shifts = {name: values.copy() for name, values in mismatch.items()}
    for name, values in aging.items():
        shifts[name] = shifts.get(name, 0.0) + values
    testbench = SenseAmpTestbench(design, env, batch_size=spec.mc,
                                  timing=ReadTiming())
    testbench.set_vth_shifts(shifts)
    offsets = extract_offsets(testbench,
                              iterations=spec.offset_iterations)
    dist = OffsetDistribution(offsets, fit_offsets(offsets))
    workload = (paper_workload(spec.workload)
                if spec.workload is not None else None)
    components = _delay_components(testbench, workload)
    delay_s = sum(weight * float(np.mean(values))
                  for weight, values in components)
    return {
        "column": column,
        "scheme": scheme,
        "time_s": time_s,
        "mu_v": dist.mu,
        "sigma_v": dist.sigma,
        "spec_v": dist.spec,
        "delay_s": delay_s,
        "invalid": dist.invalid_count,
    }


def characterize_columns(spec: ArraySpec, scheme: str, time_s: float,
                         columns):
    """Characterise a group of columns (one parallel task's worth)."""
    return [characterize_column(spec, scheme, time_s, column)
            for column in columns]
