"""Compile-time operator maps shared by the fused step kernels.

The reduced assembly (:meth:`repro.spice.mna.MnaSystem.
reduced_residual_jacobian`) evaluates the EKV device model on gathered
terminal voltages and scatters currents/stamps through precompiled
matmuls.  Every input of that pipeline is either constant per run or
*linear in the node voltages*, so the whole front half collapses into
one matrix:

* the three softplus/logistic arguments of the EKV core
  (``(vp - vs_rel)/(2 phit)``, the drain twin, and the overdrive
  argument ``(vg_rel - vth)/(n phit)``) and the ``vds/(2 phit)``
  channel-length-modulation argument are all affine in ``v`` — an
  ``(4 n_dev, n_nodes)`` matrix :attr:`ReducedKernelMaps.M` plus a
  Vth-dependent constant column :meth:`ReducedKernelMaps.vth_carg`;
* the device prefactors (``pol * i_spec`` into the residual scatter,
  ``+-i_spec`` into the stamp scatter) fold into the scatter matrices
  once (:attr:`negFs_u`, :attr:`Juu`), so the kernels assemble the
  *negated* reduced residual (the Newton right-hand side) directly;
* the backward-Euler constant ``-(G + C/dt) v - C/dt v_prev`` splits
  into a per-step constant (:attr:`CdtT_u`, computed by
  ``begin_step``) and a per-iteration matmul row block (:attr:`negA_u`).

Both the fused-numpy kernel and the scalar C kernel consume the same
instance; the C kernel additionally uses the sparse index/coefficient
form of the scatters (:attr:`fs_idx` / :attr:`js_idx`) because its
inner loops skip structural zeros.

The maps reproduce the reference pipeline's *algebra*, not its exact
operation order — offsets extracted through these kernels are bitwise
identical to the ``NumpyStepKernel`` oracle (pinned by tests and the
benchmark), while raw trajectories agree to a few ulp.
"""

from __future__ import annotations

import numpy as np

from ...models.mosmodel import _EXP_CLIP


class ReducedKernelMaps:
    """Constant operators for one ``(system, c_over_dt, options)`` triple."""

    def __init__(self, system, c_over_dt: np.ndarray, options) -> None:
        self.system = system
        u = system.unknown_idx
        self.u = np.ascontiguousarray(u, dtype=np.int64)
        n = system.n_nodes
        nu = u.size
        dev = system._devices
        nd = dev.polarity.shape[0]
        self.n, self.nu, self.nd = n, nu, nd
        phit = dev.phit
        self.inv_phit = 1.0 / phit

        A = system.g_static + c_over_dt
        self.negA_u = np.ascontiguousarray(-A[u, :])
        self.negAT_u = np.ascontiguousarray(self.negA_u.T)
        self.CdtT_u = np.ascontiguousarray(c_over_dt[u, :].T)
        self.A_uu = np.ascontiguousarray(A[np.ix_(u, u)])
        self.A_uu_flat = np.ascontiguousarray(self.A_uu.ravel())

        # Args matmul: rows [arg_f | arg_r | arg_o | x_t], linear in v.
        M = np.zeros((4 * nd, n))
        pol, nn = dev.polarity, dev.n
        g, d = system._dev_gate, system._dev_drain
        s, b = system._dev_source, system._dev_bulk
        c2 = 1.0 / (2.0 * phit)
        for j in range(nd):
            p, nj = pol[j], nn[j]
            # arg_f = ((vg_rel - vth)/n - vs_rel) / (2 phit)
            M[j, g[j]] += p / nj * c2
            M[j, s[j]] -= p * c2
            M[j, b[j]] += p * (1.0 - 1.0 / nj) * c2
            # arg_r: same with the drain terminal
            M[nd + j, g[j]] += p / nj * c2
            M[nd + j, d[j]] -= p * c2
            M[nd + j, b[j]] += p * (1.0 - 1.0 / nj) * c2
            # arg_o = (vg_rel - vth) / (n phit)
            co = 1.0 / (nj * phit)
            M[2 * nd + j, g[j]] += p * co
            M[2 * nd + j, b[j]] -= p * co
            # x_t = vds / (2 phit) = pol (vd - vs) / (2 phit)
            M[3 * nd + j, d[j]] += p * c2
            M[3 * nd + j, s[j]] -= p * c2
        self.M = np.ascontiguousarray(M)

        # Residual scatter with -pol*i_spec folded in: rhs += i_d_norm
        # @ negFs_u yields the *negated* device-current contribution on
        # the unknown block directly.
        pispec = pol * dev.i_spec
        self.negFs_u = np.ascontiguousarray(
            -(pispec[:, None] * system._f_scatter[:, u]))
        # Stamp scatter with the [gm, gd, gs] prefactors folded in
        # (gm/gd rows carry +i_spec, gs rows -i_spec; the sign pattern
        # matches mosmodel's analytic stamps after the pre2/q/cd
        # refactoring below).
        scale = np.concatenate([dev.i_spec, dev.i_spec, -dev.i_spec])
        self.Juu = np.ascontiguousarray(
            (scale[:, None] * system._jac_scatter)[:, system._uu_cols])

        # Sparse forms for the scalar kernels.  Each device current
        # lands on at most its drain and source unknowns.
        self.fs_idx = np.zeros((nd, 2), dtype=np.int64)
        self.fs_coef = np.zeros((nd, 2))
        for j in range(nd):
            nz = np.nonzero(self.negFs_u[j])[0]
            self.fs_idx[j, :nz.size] = nz
            self.fs_coef[j, :nz.size] = self.negFs_u[j, nz]
        js_w = max(int(np.max(np.count_nonzero(self.Juu, axis=1),
                              initial=0)), 1)
        self.js_w = js_w
        self.js_idx = np.zeros((3 * nd, js_w), dtype=np.int64)
        self.js_coef = np.zeros((3 * nd, js_w))
        for r in range(3 * nd):
            nz = np.nonzero(self.Juu[r])[0]
            self.js_idx[r, :nz.size] = nz
            self.js_coef[r, :nz.size] = self.Juu[r, nz]

        # Per-device constants: [theta*phit | theta*n*phit | 1/n |
        # lambda | lambda*2*phit], one row each for the scalar kernels,
        # and batch-last column views for the fused-numpy kernel.
        self.dev_c = np.ascontiguousarray(np.stack([
            dev.theta * phit, dev.theta * nn * phit, 1.0 / nn,
            dev.lambda_clm, dev.lambda_clm * 2.0 * phit]))
        self.thetaphit = self.dev_c[0][:, None]
        self.theta_nphit = self.dev_c[1][:, None]
        self.inv_n = self.dev_c[2][:, None]
        self.lam = self.dev_c[3][:, None]
        self.lam2phit = self.dev_c[4][:, None]
        # Scalar pack: [1/phit, exp clip, vtol, max_step, regularisation].
        self.scal = np.array([self.inv_phit, _EXP_CLIP, options.vtol,
                              options.max_step, options.regularisation])

        self._carg = None
        self._carg_src = None

    def vth_carg(self) -> np.ndarray:
        """Vth-dependent constant column of the args matmul.

        Shares the system's ``_vth_total`` cache (rebuilt lazily and
        reset to ``None`` by ``set_vth_shift``/``clear``), so an aging
        update between runs invalidates the folded constants by
        identity without any extra bookkeeping.  Shape ``(4 n_dev,
        width)`` where ``width`` is 1 (scalar shifts) or the batch.
        """
        system = self.system
        vth = system._vth_total
        if vth is None:
            vth = np.ascontiguousarray(
                (system._devices.vth + system._vth_shift_matrix()).T)
            system._vth_total = vth
        if self._carg_src is not vth:
            nd, dev = self.nd, self.system._devices
            carg = np.zeros((4 * nd, vth.shape[1]))
            carg[:nd] = -vth / (2.0 * dev.phit * dev.n[:, None])
            carg[nd:2 * nd] = carg[:nd]
            carg[2 * nd:3 * nd] = -vth / (dev.n[:, None] * dev.phit)
            self._carg = np.ascontiguousarray(carg)
            self._carg_src = vth
        return self._carg
