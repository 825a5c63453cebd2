"""The reference step kernel: one backward-Euler step in plain numpy.

:class:`NumpyStepKernel` assembles every Newton iteration through
:meth:`repro.spice.mna.MnaSystem.reduced_residual_jacobian` plus the
capacitive terms and hands it to :func:`repro.spice.solver.
newton_solve`.  It is the oracle the fused kernels of
:mod:`repro.spice.backends.compiled` are tested against, and it runs
the configurations they do not cover (device-less systems, unmasked
Newton).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..solver import NewtonOptions, newton_solve
from .base import StepKernel


class NumpyStepKernel(StepKernel):
    """Backward-Euler step on the unknown-node block via ``newton_solve``.

    The kernel is its own Newton callback: one instance serves every
    step of a run (``begin_step`` updates ``t_new``/``v_prev``), and its
    buffers serve every Newton iteration.  The capacitive terms are a
    full-width ``dv @ c_over_dt.T`` matmul gathered to the unknown
    block plus the precompiled ``c_over_dt_uu`` block added to the
    reduced Jacobian.
    """

    supports_active = True
    reduced = True

    def __init__(self, system, c_over_dt: np.ndarray, batch: int,
                 options: NewtonOptions) -> None:
        self.system = system
        self._options = options
        self._c_over_dt_T = c_over_dt.T
        u = system.unknown_idx
        self._u = u
        self.c_over_dt_uu = c_over_dt[np.ix_(u, u)].copy()
        n = system.n_nodes
        self._vp_rows = np.empty((batch, n))
        self._dv = np.empty((batch, n))
        self._cap = np.empty((batch, n))
        self._cap_u = np.empty((batch, u.size))
        self.t_new = 0.0
        self.v_prev: Optional[np.ndarray] = None

    def begin_step(self, t_new: float, v_prev: np.ndarray) -> None:
        self.t_new = t_new
        self.v_prev = v_prev

    def solve(self, v_new: np.ndarray, active_idx: np.ndarray) -> int:
        _, iterations = newton_solve(self, v_new, self._u, self._options,
                                     active=active_idx)
        return iterations

    def __call__(self, v, rows):
        b = v.shape[0]
        f_u, jac_uu = self.system.reduced_residual_jacobian(
            v, self.t_new, active=rows)
        if b == self.v_prev.shape[0]:
            vp = self.v_prev  # rows is sorted+unique: full size == all
        else:
            vp = self.v_prev.take(rows, axis=0, out=self._vp_rows[:b])
        dv = np.subtract(v, vp, out=self._dv[:b])
        cap = np.matmul(dv, self._c_over_dt_T, out=self._cap[:b])
        f_u += cap.take(self._u, axis=1, out=self._cap_u[:b])
        jac_uu += self.c_over_dt_uu
        return f_u, jac_uu
