"""Step-kernel interface of the reduced transient hot loop.

A :class:`StepKernel` binds a compiled :class:`~repro.spice.mna.
MnaSystem` to one backward-Euler step configuration (``dt``, batch,
Newton options).  The transient engine drives it once per time step:
``begin_step`` (new time point, previous accepted state) followed by
``solve`` (Newton-iterate the still-active rows of ``v_new`` in place).
The fused kernels live in :mod:`repro.spice.backends.compiled`; the
plain-numpy oracle in :mod:`repro.spice.backends.numpy_backend`.
"""

from __future__ import annotations

import abc

import numpy as np


class StepKernel(abc.ABC):
    """One backward-Euler step solver bound to a system/dt/batch/options."""

    @abc.abstractmethod
    def begin_step(self, t_new: float, v_prev: np.ndarray) -> None:
        """Announce the next time point and the previous accepted state.

        ``v_prev`` is the full node vector ``(batch, n_nodes)`` at the
        previous accepted point; the kernel may keep a reference until
        the matching :meth:`solve` returns but must not mutate it.
        """

    @abc.abstractmethod
    def solve(self, v_new: np.ndarray, active_idx: np.ndarray) -> int:
        """Newton-solve the step in place on ``v_new``; return iterations.

        ``v_new`` arrives with known/source columns already applied and
        the unknown columns holding the Newton guess; only rows listed
        in ``active_idx`` (sorted, unique) may be modified.  Returns the
        deepest per-sample iteration count, exactly like
        :func:`repro.spice.solver.newton_solve`.  Raises
        :class:`repro.spice.solver.ConvergenceError` when any active
        sample fails to converge.
        """
