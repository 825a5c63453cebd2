"""Modified nodal analysis assembly with known-node elimination.

The circuits in this repository only use *grounded* voltage sources
(supply rails, bitlines, clock/enable phases).  Instead of carrying
branch-current unknowns for them, the driven nodes are treated as
*known*: their voltages are imposed from the source waveforms at every
evaluation, and Kirchhoff's current law is only enforced at the
remaining (unknown) nodes.  This keeps the Jacobian small, symmetric in
structure, and easy to batch.

Conventions
-----------
* Node index 0 is ground, pinned to 0 V and never solved for.
* The full node-voltage vector has shape ``(batch, n_nodes)``; the batch
  axis carries Monte-Carlo samples.
* The residual ``f[b, i]`` is the total current *leaving* node ``i``
  in sample ``b``; Newton-Raphson drives ``f -> 0`` on unknown nodes.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..analysis.perf import PERF
from ..models.mosmodel import (stack_devices, stacked_eval_workspace,
                               stacked_mos_current, stacked_mos_current_into)
from .netlist import Circuit, Mosfet, is_ground

#: Conductance from every node to ground for conditioning [S].
GMIN_DEFAULT = 1e-9

@dataclasses.dataclass
class _MosfetSlot:
    """A compiled MOSFET: node indices plus a per-sample Vth shift."""

    element: Mosfet
    drain: int
    gate: int
    source: int
    bulk: int
    vth_shift: Union[float, np.ndarray] = 0.0


class MnaSystem:
    """A circuit compiled for batched simulation.

    Parameters
    ----------
    circuit:
        The netlist to compile.
    temperature_k:
        Junction temperature for device evaluation [K].
    batch_size:
        Leading Monte-Carlo axis length (1 for a single deterministic
        run).
    gmin:
        Conditioning conductance from every node to ground [S].
    """

    def __init__(self, circuit: Circuit, temperature_k: float,
                 batch_size: int = 1,
                 gmin: float = GMIN_DEFAULT) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.circuit = circuit
        self.temperature_k = float(temperature_k)
        self.batch_size = int(batch_size)
        self.gmin = float(gmin)

        names = circuit.node_names()
        #: node name -> index; ground is index 0.
        self.node_index: Dict[str, int] = {"0": 0}
        for name in names:
            self.node_index[name] = len(self.node_index)
        self.n_nodes = len(self.node_index)

        driven = set(circuit.driven_nodes())
        self.known_names: List[str] = [n for n in names if n in driven]
        self.unknown_names: List[str] = [n for n in names if n not in driven]
        self.known_idx = np.array(
            [self.node_index[n] for n in self.known_names], dtype=int)
        self.unknown_idx = np.array(
            [self.node_index[n] for n in self.unknown_names], dtype=int)
        if len(self.unknown_idx) == 0:
            raise ValueError("circuit has no unknown nodes to solve for")

        self._isources = [(self._index_of(i.node_a), self._index_of(i.node_b),
                           i.waveform) for i in circuit.isources]

        self._build_linear_matrices()
        self._compile_mosfets()
        self._build_reduced_maps()

    # -- construction ----------------------------------------------------

    def _index_of(self, node: str) -> int:
        return 0 if is_ground(node) else self.node_index[node]

    def _build_linear_matrices(self) -> None:
        n = self.n_nodes
        g = np.zeros((n, n))
        c = np.zeros((n, n))
        for r in self.circuit.resistors:
            self._stamp_two_terminal(g, self._index_of(r.node_a),
                                     self._index_of(r.node_b),
                                     1.0 / r.resistance)
        for cap in self.circuit.capacitors:
            self._stamp_two_terminal(c, self._index_of(cap.node_a),
                                     self._index_of(cap.node_b),
                                     cap.capacitance)
        for m in self.circuit.mosfets:
            self._stamp_mosfet_parasitics(c, m)
        # gmin on every non-ground diagonal keeps the Jacobian regular.
        for index in range(1, n):
            g[index, index] += self.gmin
        self.g_static = g
        self.c_matrix = c

    @staticmethod
    def _stamp_two_terminal(matrix: np.ndarray, a: int, b: int,
                            value: float) -> None:
        matrix[a, a] += value
        matrix[b, b] += value
        matrix[a, b] -= value
        matrix[b, a] -= value

    def _stamp_mosfet_parasitics(self, c: np.ndarray, m: Mosfet) -> None:
        """Lumped linear device capacitances.

        Intrinsic gate capacitance goes gate-bulk; overlap capacitances
        gate-drain and gate-source; junction capacitances drain-bulk and
        source-bulk.  Constant (bias-independent) values are a standard
        simplification that preserves the delay *trends* the paper
        reports.
        """
        width = m.width
        d, g_, s, b = (self._index_of(m.drain), self._index_of(m.gate),
                       self._index_of(m.source), self._index_of(m.bulk))
        c_gate = m.params.cox * width * m.length
        c_ov = m.params.cg_overlap_per_width * width
        c_j = m.params.cj_per_width * width
        self._stamp_two_terminal(c, g_, b, c_gate)
        self._stamp_two_terminal(c, g_, d, c_ov)
        self._stamp_two_terminal(c, g_, s, c_ov)
        self._stamp_two_terminal(c, d, b, c_j)
        self._stamp_two_terminal(c, s, b, c_j)

    def _compile_mosfets(self) -> None:
        self._mosfets: List[_MosfetSlot] = []
        self._mosfet_slots: Dict[str, _MosfetSlot] = {}
        for m in self.circuit.mosfets:
            slot = _MosfetSlot(m, self._index_of(m.drain),
                               self._index_of(m.gate),
                               self._index_of(m.source),
                               self._index_of(m.bulk))
            self._mosfets.append(slot)
            self._mosfet_slots[m.name] = slot
        self._build_device_table()

    def _build_device_table(self) -> None:
        """Stack device constants and scatter maps for one-pass evaluation.

        Built once at compile time; together with the cached initial
        state in the testbench this is the "compiled-system setup"
        shared across every transient of a characterisation run.  The
        residual scatter (drain +, source -) and the Jacobian scatter
        (six stamps per device) become two small dense matmuls, which
        also handle shared nodes (duplicate indices) naturally.
        """
        slots = self._mosfets
        n = self.n_nodes
        n_dev = len(slots)
        self._dev_drain = np.array([s.drain for s in slots], dtype=int)
        self._dev_gate = np.array([s.gate for s in slots], dtype=int)
        self._dev_source = np.array([s.source for s in slots], dtype=int)
        self._dev_bulk = np.array([s.bulk for s in slots], dtype=int)
        self._devices = stack_devices(
            [s.element.params for s in slots],
            [s.element.w_over_l for s in slots], self.temperature_k)

        f_scatter = np.zeros((n_dev, n))
        jac_scatter = np.zeros((3 * n_dev, n * n))
        for k, slot in enumerate(slots):
            d, g_, s = slot.drain, slot.gate, slot.source
            f_scatter[k, d] += 1.0
            f_scatter[k, s] -= 1.0
            # Rows k / n_dev+k / 2*n_dev+k carry gm / gd / gs stamps.
            jac_scatter[k, d * n + g_] += 1.0
            jac_scatter[k, s * n + g_] -= 1.0
            jac_scatter[n_dev + k, d * n + d] += 1.0
            jac_scatter[n_dev + k, s * n + d] -= 1.0
            jac_scatter[2 * n_dev + k, d * n + s] += 1.0
            jac_scatter[2 * n_dev + k, s * n + s] -= 1.0
        self._f_scatter = f_scatter
        self._jac_scatter = jac_scatter
        self._vth_matrix: Optional[np.ndarray] = None
        #: Shifted thresholds ``devices.vth + shift matrix``, cached for
        #: the reduced evaluator (constant across a cell's evaluations).
        self._vth_total: Optional[np.ndarray] = None

    def _build_reduced_maps(self) -> None:
        """Compile-time gather maps and operator blocks (reduced path).

        The reduced assembly keeps the *same* full-width matmuls as the
        full-space path and then gathers the unknown-block elements with
        ``np.take`` — BLAS picks shape-dependent accumulation orders, so
        matmuls on *sliced* operands are not bitwise identical to
        slicing the full product; element gathers and elementwise adds
        are.  The static block ``g_static_uu`` is an element copy of
        the full matrix, so adding it after the gather reproduces the
        full-space bits exactly.
        """
        u = self.unknown_idx
        n = self.n_nodes
        self.n_unknown = int(u.size)
        #: Flat column indices of the unknown x unknown block inside a
        #: row-major flattened ``(n, n)`` Jacobian.
        self._uu_cols = (u[:, None] * n + u[None, :]).ravel()
        self.g_static_uu = self.g_static[np.ix_(u, u)].copy()
        self._g_static_T = self.g_static.T
        #: One fused terminal gather (gate | drain | source | bulk).
        self._dev_all = np.concatenate((self._dev_gate, self._dev_drain,
                                        self._dev_source, self._dev_bulk))
        self._work: Optional[Dict[str, np.ndarray]] = None
        self._work_views: Dict[int, Dict[str, np.ndarray]] = {}

    def _reduced_workspace(self, batch: int) -> Dict[str, np.ndarray]:
        """Preallocated evaluation buffers, grown on demand.

        Returns a dict of ``batch``-row views into a shared backing
        store sized for ``batch_size`` rows; the view dicts are cached
        per batch size, so active-sample masking reuses the same memory
        without per-iteration slicing or allocation.
        """
        views = self._work_views.get(batch)
        if views is not None:
            return views
        work = self._work
        if work is None or work["f"].shape[0] < batch:
            n = self.n_nodes
            n_dev = len(self._mosfets)
            n_u = self.n_unknown
            size = max(batch, self.batch_size)
            work = {
                "f": np.empty((size, n)),
                "f_dev": np.empty((size, n)),
                "terminals": np.empty((size, 4 * n_dev)),
                "i_d": np.empty((size, n_dev)),
                "stamps": np.empty((size, 3 * n_dev)),
                "jac_flat": np.empty((size, n * n)),
                "f_u": np.empty((size, n_u)),
                "jac_uu": np.empty((size, n_u * n_u)),
            }
            self._work = work
            self._work_views = {}
        views = {key: buf[:batch] for key, buf in work.items()}
        # The model workspace is batch-last, so a column slice of a
        # wider store would have strided rows — allocate one contiguous
        # workspace per batch size instead (they are ~100 kB each and
        # active-sample masking visits only a handful of sizes).
        views["mos"] = stacked_eval_workspace(batch, self._devices)
        self._work_views[batch] = views
        return views

    def _vth_shift_matrix(self) -> np.ndarray:
        """Per-device shift matrix ``(1 or batch, n_dev)``, cached."""
        if self._vth_matrix is None:
            columns = [slot.vth_shift for slot in self._mosfets]
            if any(isinstance(c, np.ndarray) and c.ndim for c in columns):
                matrix = np.zeros((self.batch_size, len(columns)))
                for k, column in enumerate(columns):
                    matrix[:, k] = column
            else:
                matrix = np.array([[float(c) for c in columns]])
            self._vth_matrix = matrix
        return self._vth_matrix

    # -- configuration ---------------------------------------------------

    def set_vth_shift(self, name: str,
                      shift: Union[float, np.ndarray]) -> None:
        """Set the Vth shift magnitude [V] for MOSFET ``name``.

        ``shift`` is a scalar or an array of shape ``(batch_size,)``;
        it is the sum of time-zero mismatch and BTI aging, and a
        positive value weakens the device for both polarities.
        """
        slot = self._mosfet_slots.get(name)
        if slot is None:
            raise KeyError(f"no mosfet named {name!r}")
        shift_arr = np.asarray(shift, dtype=float)
        if shift_arr.ndim > 1 or (shift_arr.ndim == 1
                                  and shift_arr.shape[0] != self.batch_size):
            raise ValueError(
                f"shift for {name!r} must be scalar or ({self.batch_size},)")
        slot.vth_shift = shift if np.isscalar(shift) else shift_arr
        self._vth_matrix = None
        self._vth_total = None

    def set_vth_shifts(self, shifts: Dict[str, Union[float, np.ndarray]],
                       ) -> None:
        """Set Vth shifts for several MOSFETs at once."""
        for name, shift in shifts.items():
            self.set_vth_shift(name, shift)

    def clear_vth_shifts(self) -> None:
        """Reset all Vth shifts to zero."""
        for slot in self._mosfets:
            slot.vth_shift = 0.0
        self._vth_matrix = None
        self._vth_total = None

    # -- evaluation ------------------------------------------------------

    def known_voltages(self, time_s: float) -> np.ndarray:
        """Known (source-driven) node voltages at ``time_s``.

        Returns an array of shape ``(batch, n_known)`` ordered like
        ``known_names``.  Waveforms are read from the live netlist, so
        replacing a source waveform (e.g. via
        :func:`repro.circuits.sense_amp.apply_waveforms`) takes effect
        without recompiling.
        """
        v_full = np.zeros((self.batch_size, self.n_nodes))
        self.apply_known(v_full, time_s)
        return v_full[:, self.known_idx]

    def apply_known(self, v_full: np.ndarray, time_s: float) -> None:
        """Write the source voltages into a full node vector in place."""
        for source in self.circuit.vsources:
            v_full[:, self.node_index[source.node]] = np.asarray(
                source.waveform.value(time_s), dtype=float)
        v_full[:, 0] = 0.0

    def initial_full_vector(self, time_s: float = 0.0,
                            initial: Optional[Dict[str, float]] = None,
                            ) -> np.ndarray:
        """A full node vector with sources applied and optional ICs.

        ``initial`` maps node names to starting voltages for unknown
        nodes (e.g. precharged internal nodes of the SA).  Names absent
        from this circuit are ignored, so one initial-condition dict
        can serve several related topologies.
        """
        v_full = np.zeros((self.batch_size, self.n_nodes))
        self.apply_known(v_full, time_s)
        if initial:
            for node, value in initial.items():
                if is_ground(node) or node in self.node_index:
                    v_full[:, self._index_of(node)] = value
        return v_full

    def static_residual_jacobian(self, v_full: np.ndarray,
                                 time_s: float,
                                 active: Optional[np.ndarray] = None,
                                 ) -> Tuple[np.ndarray, np.ndarray]:
        """Resistive + device residual and Jacobian on the full node set.

        Returns ``(f, jac)`` with ``f`` of shape ``(batch, n)`` (current
        leaving each node) and ``jac`` of shape ``(batch, n, n)``.
        Capacitor currents are added by the transient engine.

        ``active`` optionally names the Monte-Carlo sample indices the
        rows of ``v_full`` correspond to (active-sample masking): the
        caller passes only the still-unconverged rows and this method
        slices the per-sample Vth shifts / source currents to match.
        """
        batch = v_full.shape[0]
        f = v_full @ self.g_static.T
        self._add_isources(f, time_s, active)
        i_d, gm, gd, gs = self._stacked_eval(v_full, active)
        f += i_d @ self._f_scatter
        stamps = np.concatenate((gm, gd, gs), axis=1)
        jac = (stamps @ self._jac_scatter).reshape(
            batch, self.n_nodes, self.n_nodes)
        jac += self.g_static
        return f, jac

    def reduced_residual_jacobian(self, v_full: np.ndarray,
                                  time_s: float,
                                  active: Optional[np.ndarray] = None,
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual and Jacobian restricted to the unknown-node block.

        Returns ``(f_u, jac_uu)`` with shapes ``(batch, n_u)`` and
        ``(batch, n_u, n_u)``, *bit-identical* to evaluating
        :meth:`static_residual_jacobian` and slicing the unknown block:
        the method runs the same full-width scatter matmuls (identical
        operands and layouts) and then gathers the unknown-block
        elements with ``np.take``, adding the static operator block
        after the gather (element picks and elementwise adds commute
        bitwise; matmuls on sliced operands do not — see
        :meth:`_build_reduced_maps`).

        The returned arrays are views into a per-system workspace: they
        stay valid until the next reduced evaluation, and the caller may
        mutate them in place (the Newton solver negates ``f_u``; the
        transient stepper adds its capacitive terms).
        """
        PERF.count("mna.reduced_evals")
        batch = v_full.shape[0]
        work = self._reduced_workspace(batch)
        f = np.matmul(v_full, self._g_static_T, out=work["f"])
        self._add_isources(f, time_s, active)
        vth = self._vth_total
        if vth is None:
            vth = np.ascontiguousarray(
                (self._devices.vth + self._vth_shift_matrix()).T)
            self._vth_total = vth
        if active is not None and vth.shape[1] != 1 \
                and active.size != vth.shape[1]:
            # active is sorted and unique, so a full-size index set is
            # arange(batch) and the gather would be an identity copy.
            vth = vth[:, active]
        terminals = v_full.take(self._dev_all, axis=1,
                                out=work["terminals"])
        i_d = work["i_d"]
        stacked_mos_current_into(terminals, vth, self._devices,
                                 work["mos"], i_d, work["stamps"])
        f += np.matmul(i_d, self._f_scatter, out=work["f_dev"])
        jac_flat = np.matmul(work["stamps"], self._jac_scatter,
                             out=work["jac_flat"])
        f_u = f.take(self.unknown_idx, axis=1, out=work["f_u"])
        jac_uu = jac_flat.take(self._uu_cols, axis=1,
                               out=work["jac_uu"])
        jac_uu = jac_uu.reshape(batch, self.n_unknown, self.n_unknown)
        jac_uu += self.g_static_uu
        return f_u, jac_uu

    def vth_shifts(self) -> Dict[str, Union[float, np.ndarray]]:
        """Current per-device shifts (scalars or ``(batch,)`` arrays)."""
        return {name: slot.vth_shift
                for name, slot in self._mosfet_slots.items()}

    def _add_isources(self, f: np.ndarray, time_s: float,
                      active: Optional[np.ndarray]) -> None:
        for a, b, waveform in self._isources:
            current = np.asarray(waveform.value(time_s), dtype=float)
            if active is not None and current.ndim:
                current = current[active]
            f[:, a] += current
            f[:, b] -= current

    def _stacked_eval(self, v_full: np.ndarray,
                      active: Optional[np.ndarray]):
        """One-pass device evaluation on ``(batch, n_dev)`` gathers."""
        shifts = self._vth_shift_matrix()
        if active is not None and shifts.shape[0] != 1:
            shifts = shifts[active]
        return stacked_mos_current(
            v_full[:, self._dev_gate], v_full[:, self._dev_drain],
            v_full[:, self._dev_source], v_full[:, self._dev_bulk],
            shifts, self._devices)

    # -- convenience -----------------------------------------------------

    def voltages_of(self, v_full: np.ndarray, node: str) -> np.ndarray:
        """Slice a node's voltages out of a full vector."""
        return v_full[:, self._index_of(node)]

    def __repr__(self) -> str:
        return (f"MnaSystem({self.circuit.name!r}, nodes={self.n_nodes - 1}, "
                f"unknown={len(self.unknown_idx)}, batch={self.batch_size}, "
                f"T={self.temperature_k:.1f}K)")
