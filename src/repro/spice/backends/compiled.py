"""Fused per-step Newton kernels: the production transient path.

:func:`step_kernel` binds a system + step configuration to a kernel
that performs the *entire* per-step Newton solve — EKV device
evaluation, reduced residual/Jacobian assembly, dense solve, damped
update and per-sample convergence masking — in one pass over the
:class:`~repro.spice.backends.maps.ReducedKernelMaps` operators,
instead of the oracle kernel's ~15 python-level dispatches per Newton
iteration.

Two kernel *flavors* share those maps; the process picks one, once:

``cc``
    The kernel compiled from C at runtime and driven through ctypes
    (:mod:`repro.spice.backends._cc`) — used whenever a C compiler
    builds it.
``numpy``
    A fused pure-numpy kernel (one matmul for all model arguments, ~45
    in-place ufuncs for the device algebra, constant-folded scatter
    matmuls) — the path on hosts without a C compiler, and the
    reference the ``cc`` kernel is self-checked against.

**Safety**: the first solve through the ``cc`` kernel in each process
is replayed on the fused-numpy kernel and compared; a disagreement
beyond Newton tolerance permanently demotes the process to the numpy
flavor (and counts ``spice.backend.selfcheck_failures``).  Kernels are
cached on the system object keyed by ``(flavor, dt, batch, options)``,
so the long-lived testbench systems pay the map/workspace construction
once (``spice.backend.jit_cache_hits`` counts reuse).

Offsets produced by either flavor are bit-identical to the
:class:`~repro.spice.backends.numpy_backend.NumpyStepKernel` oracle
(the sign decisions the bisection consumes are ulp-robust); raw
trajectories agree to solver tolerance.  Configurations the fused
kernels do not cover — unmasked solves, device-less systems — use the
oracle kernel (``spice.backend.fallback_steps``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

import numpy as np

from ...analysis.perf import PERF
from ..solver import (ConvergenceError, NewtonOptions, _gufunc_solve,
                      _regularised_solve)
from .base import StepKernel
from .maps import ReducedKernelMaps
from .numpy_backend import NumpyStepKernel
from . import _cc

#: Semantics version of the fused kernels.  Part of the cache token.
KERNEL_VERSION = "fused-1"

# Process-wide flavor state: resolved once (kernels are pure functions
# of their arguments).  Tests substitute the numpy flavor by setting
# ``_FLAVOR = ("numpy", None)`` and undo it with _reset_flavor_cache.
_FLAVOR: Optional[Tuple[str, Optional[object]]] = None
_COMPILE_MS: Optional[float] = None
_CC_FLAGS: Optional[str] = None
_CC_TAG: Optional[str] = None
_SELFCHECK: Optional[str] = None  # None=pending, "ok", "failed"


def _resolve_flavor() -> Tuple[str, Optional[object]]:
    """The ``cc`` kernel when it builds, else fused numpy (once)."""
    global _FLAVOR, _COMPILE_MS, _CC_FLAGS, _CC_TAG
    if _FLAVOR is not None:
        return _FLAVOR
    fn, compile_ms, flags, tag = _cc.load_kernel()
    if fn is None:
        _FLAVOR = ("numpy", None)
        return _FLAVOR
    _COMPILE_MS, _CC_FLAGS, _CC_TAG = compile_ms, flags, tag
    if compile_ms:
        PERF.gauge("spice.backend.kernel_compile_ms", round(compile_ms, 3))
    _FLAVOR = ("cc", fn)
    return _FLAVOR


def _reset_flavor_cache() -> None:
    """Forget the resolved flavor and the self-check verdict."""
    global _FLAVOR, _SELFCHECK, _COMPILE_MS, _CC_FLAGS, _CC_TAG
    _FLAVOR = None
    _SELFCHECK = None
    _COMPILE_MS = None
    _CC_FLAGS = None
    _CC_TAG = None


def active_flavor() -> str:
    """The flavor this process solves with (after any demotion)."""
    flavor, _ = _resolve_flavor()
    return "numpy" if _SELFCHECK == "failed" else flavor


class _FusedStepBase(StepKernel):
    """Shared begin-step logic: the backward-Euler constant."""

    def __init__(self, maps: ReducedKernelMaps, system, batch: int,
                 options: NewtonOptions) -> None:
        self.maps = maps
        self.system = system
        self.batch = batch
        self.options = options
        self.step_const = np.empty((batch, maps.nu))

    def begin_step(self, t_new: float, v_prev: np.ndarray) -> None:
        maps = self.maps
        np.matmul(v_prev, maps.CdtT_u, out=self.step_const)
        if self.system._isources:
            # Rare: fold source currents into the step constant (the
            # residual adds +current at node a, -current at node b;
            # the kernels assemble rhs = -f).
            u = maps.u
            for a, b, waveform in self.system._isources:
                current = np.asarray(waveform.value(t_new), dtype=float)
                ia = np.searchsorted(u, a)
                if ia < u.size and u[ia] == a:
                    self.step_const[:, ia] -= current
                ib = np.searchsorted(u, b)
                if ib < u.size and u[ib] == b:
                    self.step_const[:, ib] += current


class FusedNumpyKernel(_FusedStepBase):
    """Fused step kernel in pure numpy (flavor ``numpy``).

    The Newton loop mirrors ``solver._reduced_newton`` (same gather/
    scatter structure, same clip/convergence order, same LAPACK gufunc
    solve with per-member regularisation fallback); the residual/
    Jacobian evaluation is the fused maps pipeline instead of
    :class:`~repro.spice.backends.numpy_backend.NumpyStepKernel`'s
    assembly.
    """

    flavor = "numpy"

    def __init__(self, maps, system, batch, options) -> None:
        super().__init__(maps, system, batch, options)
        self._bufs = {}

    def _buffers(self, ba: int) -> dict:
        bufs = self._bufs.get(ba)
        if bufs is None:
            nd, nu = self.maps.nd, self.maps.nu
            bufs = dict(
                arg=np.empty((4 * nd, ba)),
                e=np.empty((3 * nd, ba)), sp=np.empty((3 * nd, ba)),
                lg=np.empty((3 * nd, ba)), alt=np.empty((3 * nd, ba)),
                mask=np.empty((3 * nd, ba), dtype=bool),
                f2=np.empty((2 * nd, ba)), df=np.empty((2 * nd, ba)),
                core=np.empty((nd, ba)), degr=np.empty((nd, ba)),
                th=np.empty((nd, ba)), clm=np.empty((nd, ba)),
                dclm=np.empty((nd, ba)), pre=np.empty((nd, ba)),
                q=np.empty((nd, ba)), t2=np.empty((nd, ba)),
                cd=np.empty((nd, ba)), idT=np.empty((nd, ba)),
                st=np.empty((3 * nd, ba)),
                rhs=np.empty((ba, nu)), fdev=np.empty((ba, nu)),
                jac=np.empty((ba, nu * nu)), sc=np.empty((ba, nu)),
            )
            self._bufs[ba] = bufs
        return bufs

    def _eval(self, v, active_idx, everyone):
        """Negated residual + Jacobian on the unknown block, in place."""
        maps = self.maps
        nd = maps.nd
        ba = v.shape[0]
        w = self._buffers(ba)
        carg = maps.vth_carg()
        if not everyone and carg.shape[1] != 1:
            carg = carg[:, active_idx]
        arg = w["arg"]
        np.matmul(maps.M, v.T, out=arg)
        arg[:3 * nd] += carg[:3 * nd]
        sl = arg[:3 * nd]
        e, sp, lg, alt, mask = w["e"], w["sp"], w["lg"], w["alt"], w["mask"]
        np.abs(sl, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.log1p(e, out=sp)
        np.maximum(sl, 0.0, out=alt)
        np.add(sp, alt, out=sp)
        np.add(e, 1.0, out=lg)
        np.reciprocal(lg, out=lg)
        np.multiply(e, lg, out=alt)
        np.signbit(sl, out=mask)
        np.copyto(lg, alt, where=mask)
        sp2 = sp[:2 * nd]
        lg_o = lg[2 * nd:]
        f2 = np.multiply(sp2, sp2, out=w["f2"])
        core = np.subtract(f2[:nd], f2[nd:], out=w["core"])
        degr = np.multiply(maps.theta_nphit, sp[2 * nd:], out=w["degr"])
        np.add(1.0, degr, out=degr)
        xt = arg[3 * nd:]
        th = np.maximum(xt, -maps.scal[1], out=w["th"])
        np.minimum(th, maps.scal[1], out=th)
        np.tanh(th, out=th)
        clm = np.multiply(xt, th, out=w["clm"])
        np.multiply(clm, maps.lam2phit, out=clm)
        np.add(1.0, clm, out=clm)
        dclm = np.multiply(th, th, out=w["dclm"])
        np.subtract(1.0, dclm, out=dclm)
        np.multiply(dclm, xt, out=dclm)
        np.add(dclm, th, out=dclm)
        np.multiply(dclm, maps.lam, out=dclm)
        idT = np.multiply(core, clm, out=w["idT"])
        np.divide(idT, degr, out=idT)
        df = np.multiply(sp2, lg[:2 * nd], out=w["df"])
        pre = np.divide(clm, degr, out=w["pre"])
        np.multiply(pre, maps.inv_phit, out=pre)
        q = np.multiply(core, lg_o, out=w["q"])
        np.multiply(q, maps.thetaphit, out=q)
        np.divide(q, degr, out=q)
        st = w["st"]
        gm, gd, gs = st[:nd], st[nd:2 * nd], st[2 * nd:]
        t2 = np.subtract(df[:nd], df[nd:], out=w["t2"])
        np.multiply(t2, maps.inv_n, out=t2)
        np.subtract(t2, q, out=t2)
        np.multiply(t2, pre, out=gm)
        cd = np.multiply(core, dclm, out=w["cd"])
        np.divide(cd, degr, out=cd)
        np.multiply(df[nd:], pre, out=gd)
        np.add(gd, cd, out=gd)
        np.multiply(df[:nd], pre, out=gs)
        np.add(gs, cd, out=gs)
        rhs = np.matmul(v, maps.negAT_u, out=w["rhs"])
        if everyone:
            rhs += self.step_const
        else:
            rhs += self.step_const.take(active_idx, axis=0, out=w["sc"])
        rhs += np.matmul(idT.T, maps.negFs_u, out=w["fdev"])
        jac = np.matmul(st.T, maps.Juu, out=w["jac"])
        jac += maps.A_uu_flat
        return rhs, jac.reshape(ba, maps.nu, maps.nu)

    def solve(self, v_new: np.ndarray, active_idx: np.ndarray) -> int:
        options = self.options
        u = self.maps.u
        batch_full = v_new.shape[0]
        initial = active_idx.size
        iterations = 0
        sample_iterations = 0
        saved = 0
        per_sample = None
        try:
            for iteration in range(1, options.max_iter + 1):
                everyone = active_idx.size == batch_full
                rows = v_new if everyone else v_new[active_idx]
                rhs, jac = self._eval(rows, active_idx, everyone)
                try:
                    delta = _gufunc_solve(jac, rhs)
                except np.linalg.LinAlgError:
                    delta = _regularised_solve(jac, rhs,
                                               options.regularisation)
                np.minimum(delta, options.max_step, out=delta)
                np.maximum(delta, -options.max_step, out=delta)
                if everyone:
                    v_new[:, u] += delta
                else:
                    v_new[active_idx[:, None], u[None, :]] += delta
                iterations += 1
                sample_iterations += active_idx.size
                saved += initial - active_idx.size
                np.abs(delta, out=delta)
                per_sample = delta.max(axis=-1)
                unconverged = per_sample >= options.vtol
                if not unconverged.any():
                    return iteration
                if options.masked:
                    active_idx = active_idx[unconverged]
        finally:
            PERF.count("newton.solves")
            PERF.count("newton.iterations", iterations)
            PERF.count("newton.sample_iterations", sample_iterations)
            PERF.count("newton.sample_iterations_saved", saved)
            PERF.count("spice.backend.fused_steps")
            PERF.count("spice.backend.fused_iterations", iterations)
        worst = float(per_sample.max())
        raise ConvergenceError(
            f"Newton-Raphson did not converge in {options.max_iter} "
            f"iterations (last max step {worst:.3e} V)")


class ScalarStepKernel(_FusedStepBase):
    """Step kernel driving the compiled scalar C function (``cc``).

    The callable performs the whole Newton loop for the step; python
    only prepares the per-step constants and flushes perf counters.
    """

    flavor = "cc"

    def __init__(self, maps, system, batch, options, fn) -> None:
        super().__init__(maps, system, batch, options)
        self._fn = fn
        nd, nu, n = maps.nd, maps.nu, maps.n
        wsize = (n + 18 * nd) * batch + batch * nu + batch * nu * nu
        self._work = np.empty(wsize)
        self._alive = np.empty(batch, dtype=np.int64)
        self._counts = np.zeros(3, dtype=np.int64)

    def solve(self, v_new: np.ndarray, active_idx: np.ndarray) -> int:
        maps = self.maps
        options = self.options
        carg = maps.vth_carg()
        active = np.ascontiguousarray(active_idx, dtype=np.int64)
        args = (v_new, active, active.size, self.step_const, carg,
                carg.shape[1], maps.M, maps.negA_u, maps.A_uu, maps.u,
                maps.fs_idx, maps.fs_coef, maps.js_idx, maps.js_coef,
                maps.js_w, maps.dev_c, maps.scal, maps.n, maps.nu,
                maps.nd, options.max_iter, self._work, self._alive,
                self._counts)
        status = self._fn(*args)
        depth = int(self._counts[0])
        PERF.count("newton.solves")
        PERF.count("newton.iterations", depth)
        PERF.count("newton.sample_iterations", int(self._counts[1]))
        PERF.count("newton.sample_iterations_saved",
                   depth * active.size - int(self._counts[1]))
        if self._counts[2]:
            PERF.count("newton.singular_members", int(self._counts[2]))
        PERF.count("spice.backend.fused_steps")
        PERF.count("spice.backend.fused_iterations", depth)
        if status == -1:
            raise ConvergenceError(
                f"Newton-Raphson did not converge in {options.max_iter} "
                "iterations (compiled C kernel)")
        if status == -2:
            raise np.linalg.LinAlgError("Singular matrix")
        return depth


class _SelfCheckKernel(StepKernel):
    """First-use validation wrapper around the ``cc`` kernel.

    The first solve routed through this wrapper is replayed on the
    fused-numpy reference; agreement within Newton tolerance unlocks
    the fast kernel for the rest of the process, disagreement demotes
    the whole process to the numpy flavor and answers with the
    reference result.
    """

    #: Agreement threshold [V]; generous vs any vtol in use (1e-8..1e-7)
    #: while far below every decision threshold in the testbench.
    ATOL = 1e-6

    def __init__(self, fast: ScalarStepKernel,
                 reference: FusedNumpyKernel) -> None:
        self._fast = fast
        self._reference = reference
        self._mode = "check"

    @property
    def flavor(self) -> str:
        kern = self._reference if self._mode == "fallback" else self._fast
        return kern.flavor

    def begin_step(self, t_new: float, v_prev: np.ndarray) -> None:
        if self._mode != "fallback":
            self._fast.begin_step(t_new, v_prev)
        if self._mode != "fast":
            self._reference.begin_step(t_new, v_prev)

    def solve(self, v_new: np.ndarray, active_idx: np.ndarray) -> int:
        global _SELFCHECK
        if self._mode == "fast":
            return self._fast.solve(v_new, active_idx)
        if self._mode == "fallback":
            return self._reference.solve(v_new, active_idx)
        if _SELFCHECK == "ok":
            self._mode = "fast"
            return self._fast.solve(v_new, active_idx)
        if _SELFCHECK == "failed":
            self._mode = "fallback"
            return self._reference.solve(v_new, active_idx)
        reference_v = v_new.copy()
        reference_iters = self._reference.solve(reference_v, active_idx)
        iterations = self._fast.solve(v_new, active_idx)
        if np.allclose(v_new, reference_v, rtol=0.0, atol=self.ATOL):
            _SELFCHECK = "ok"
            self._mode = "fast"
            return iterations
        _SELFCHECK = "failed"
        PERF.count("spice.backend.selfcheck_failures")
        self._mode = "fallback"
        np.copyto(v_new, reference_v)
        return reference_iters


def cache_token() -> Dict[str, str]:
    """Identity of the kernel that produces this process's results.

    Salted into the content-addressed result-cache key: the flavors
    agree bitwise on offsets but not on delays (up to ~1e-15 s), so
    entries never mix them; for ``cc`` the ``.so`` tag also pins the
    source, flags, compiler and host CPU features that built it.
    """
    token = {"kernel": KERNEL_VERSION, "flavor": active_flavor()}
    if token["flavor"] == "cc":
        token["so"] = _CC_TAG
    return token


def backend_host_info() -> Dict[str, Any]:
    """Kernel identity block for benchmark/host metadata."""
    return {
        "kernel_version": KERNEL_VERSION,
        "flavor": active_flavor(),
        "cc": {"available": _cc.compiler_available(), "flags": _CC_FLAGS,
               "tag": _CC_TAG},
        "kernel_compile_ms": (round(_COMPILE_MS, 3)
                              if _COMPILE_MS is not None else None),
    }


def step_kernel(system, c_over_dt: np.ndarray, dt: float, batch: int,
                options: NewtonOptions) -> StepKernel:
    """Build (or fetch the cached) step kernel for one transient run.

    ``c_over_dt`` is the precomputed ``c_matrix / dt`` operator; ``dt``
    itself only keys the per-system kernel cache.
    """
    if not options.masked or system._devices.polarity.shape[0] == 0:
        # Out of the fused kernels' contract: the oracle kernel.
        PERF.count("spice.backend.fallback_steps")
        return NumpyStepKernel(system, c_over_dt, batch, options)
    flavor, fn = _resolve_flavor()
    if _SELFCHECK == "failed" or system.unknown_idx.size > _cc.MAX_NU:
        flavor, fn = "numpy", None
    cache = system.__dict__.setdefault("_backend_step_kernels", {})
    key = (flavor, float(dt), int(batch), options)
    kernel = cache.get(key)
    if kernel is not None:
        PERF.count("spice.backend.jit_cache_hits")
        return kernel
    maps = ReducedKernelMaps(system, c_over_dt, options)
    if flavor == "numpy":
        kernel = FusedNumpyKernel(maps, system, batch, options)
    else:
        fast = ScalarStepKernel(maps, system, batch, options, fn)
        if _SELFCHECK is None:
            kernel = _SelfCheckKernel(
                fast, FusedNumpyKernel(maps, system, batch, options))
        else:
            kernel = fast
    cache[key] = kernel
    return kernel
