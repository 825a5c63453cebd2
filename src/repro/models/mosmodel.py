"""Smooth EKV-style MOSFET compact model.

The paper simulates the sense amplifiers with 45 nm PTM HP BSIM4 cards in
Spectre.  For the reproduction we use a charge-sheet EKV-style model: it is

* **single-piece and smooth** in all terminal voltages (no regional
  if/else), which keeps Newton-Raphson robust through the metastable
  trajectories a latch-type sense amplifier traverses;
* **symmetric** in drain/source, which matters because the SA pass
  transistors conduct in both directions;
* **vectorised**, so a whole Monte-Carlo population (a leading batch axis)
  is evaluated in one numpy call.

Drain current (bulk-referenced, NMOS convention)::

    vp  = (vg - vth) / n                    # pinch-off voltage
    i_f = F((vp - vs) / phit)               # forward normalised current
    i_r = F((vp - vd) / phit)               # reverse normalised current
    F(x) = ln(1 + exp(x/2))**2              # EKV interpolation function
    Id  = Is * (i_f - i_r) * clm(vd - vs)
    Is  = 2 * n * ueff * cox * (w/l) * phit**2

with a mobility-degradation factor ``ueff = u0 / (1 + theta * veff)``
(``veff`` is a softplus-smoothed overdrive) standing in for vertical-field
degradation plus velocity saturation, and a smooth, symmetric
channel-length-modulation factor ``clm``.

PMOS devices are evaluated by mirroring all terminal voltages about the
bulk and negating the current.

Every public evaluation routine returns the current **and** its partial
derivatives with respect to the gate, drain and source voltages; the
derivatives are exercised against finite differences in the test suite.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from ..constants import thermal_voltage, T0

ArrayLike = np.ndarray

#: Argument clip for exponentials inside softplus/logistic helpers.
_EXP_CLIP = 60.0


def softplus(x: ArrayLike) -> ArrayLike:
    """Numerically safe ``ln(1 + exp(x))`` (linear for large x)."""
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0.0, x, 0.0)
    return out + np.log1p(np.exp(-np.abs(x)))


def logistic(x: ArrayLike) -> ArrayLike:
    """Numerically safe logistic function ``1 / (1 + exp(-x))``."""
    x = np.clip(np.asarray(x, dtype=float), -_EXP_CLIP, _EXP_CLIP)
    return 1.0 / (1.0 + np.exp(-x))


def softplus_logistic(x: ArrayLike) -> Tuple[ArrayLike, ArrayLike]:
    """``(softplus(x), logistic(x))`` sharing a single exponential.

    The stacked model evaluation needs both functions at the same
    argument three times per call; ``exp(-|x|)`` serves both, halving
    the transcendental work.  The softplus branch is bit-identical to
    :func:`softplus`; the logistic branch is bit-identical to
    :func:`logistic` for ``x >= 0`` and equal to within one ulp of the
    quotient rounding for ``x < 0`` (``e/(1+e)`` vs ``1/(1+1/e)``).
    """
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    sp = np.where(x > 0.0, x, 0.0) + np.log1p(e)
    lg = np.where(x >= 0.0, 1.0, e) / (1.0 + e)
    return sp, lg


def ekv_f(x: ArrayLike) -> Tuple[ArrayLike, ArrayLike]:
    """EKV interpolation function ``F(x) = ln(1+exp(x/2))^2`` and ``F'(x)``.

    ``F`` interpolates smoothly between weak inversion (``exp(x)``) and
    strong inversion (``(x/2)^2``).  The derivative is
    ``F'(x) = ln(1+exp(x/2)) * logistic(x/2)``.
    """
    half = np.asarray(x, dtype=float) / 2.0
    sp = softplus(half)
    return sp * sp, sp * logistic(half)


@dataclasses.dataclass(frozen=True)
class MosParams:
    """Compact-model card for one device polarity.

    Parameters mirror the quantities a BSIM card would provide at the
    abstraction level this model needs.  Geometry (``w``, ``l``) lives on
    the *instance*, not the card.

    Attributes
    ----------
    polarity:
        ``+1`` for NMOS, ``-1`` for PMOS.
    vth0:
        Zero-bias threshold voltage magnitude [V] at the reference
        temperature ``T0``.
    n:
        Subthreshold slope factor (dimensionless, > 1).
    u0:
        Low-field mobility [m^2/(V s)] at ``T0``.
    theta:
        Mobility-degradation coefficient [1/V]; folds in velocity
        saturation so Ion grows sub-quadratically with overdrive.
    lambda_clm:
        Channel-length-modulation coefficient [1/V].
    cox:
        Gate-oxide capacitance per area [F/m^2].
    vth_tc:
        Threshold-voltage temperature coefficient [V/K]; |Vth| decreases
        by ``vth_tc * (T - T0)``.
    mobility_exp:
        Mobility temperature exponent: ``u(T) = u0 * (T/T0)**mobility_exp``
        (negative: mobility degrades when hot).
    cj_per_width:
        Lumped junction (drain/source) capacitance per metre of device
        width [F/m], used for parasitic loading.
    cg_overlap_per_width:
        Gate-overlap capacitance per metre of width [F/m].
    """

    polarity: int
    vth0: float
    n: float
    u0: float
    theta: float
    lambda_clm: float
    cox: float
    vth_tc: float = 0.0
    mobility_exp: float = -1.5
    cj_per_width: float = 0.0
    cg_overlap_per_width: float = 0.0

    def __post_init__(self) -> None:
        if self.polarity not in (+1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")
        if self.vth0 <= 0.0:
            raise ValueError("vth0 is a magnitude and must be positive")
        if self.n < 1.0:
            raise ValueError("subthreshold factor n must be >= 1")
        if self.u0 <= 0.0 or self.cox <= 0.0:
            raise ValueError("u0 and cox must be positive")

    @property
    def is_nmos(self) -> bool:
        return self.polarity > 0

    def vth_at(self, temperature_k: float) -> float:
        """Threshold-voltage magnitude [V] at ``temperature_k``."""
        return self.vth0 - self.vth_tc * (temperature_k - T0)

    def mobility_at(self, temperature_k: float) -> float:
        """Effective low-field mobility [m^2/Vs] at ``temperature_k``."""
        return self.u0 * (temperature_k / T0) ** self.mobility_exp

    def spec_current(self, w_over_l: float, temperature_k: float) -> float:
        """EKV specific current ``Is`` [A] for a given geometry ratio."""
        phit = thermal_voltage(temperature_k)
        return (2.0 * self.n * self.mobility_at(temperature_k) * self.cox
                * w_over_l * phit * phit)


def _nmos_current(vg: ArrayLike, vd: ArrayLike, vs: ArrayLike,
                  vth: ArrayLike, params: MosParams, w_over_l: float,
                  temperature_k: float
                  ) -> Tuple[ArrayLike, ArrayLike, ArrayLike, ArrayLike]:
    """NMOS-convention drain current and partials w.r.t. (vg, vd, vs).

    All voltages are bulk-referenced.  ``vth`` may be an array (per-sample
    threshold including mismatch and aging shifts).
    """
    phit = thermal_voltage(temperature_k)
    n = params.n
    i_spec = params.spec_current(w_over_l, temperature_k)

    vp = (np.asarray(vg, dtype=float) - vth) / n
    f_f, df_f = ekv_f((vp - vs) / phit)
    f_r, df_r = ekv_f((vp - vd) / phit)

    # Mobility degradation from a softplus-smoothed overdrive.
    overdrive = n * phit * softplus((vg - vth) / (n * phit))
    degr = 1.0 + params.theta * overdrive
    dov_dvg = logistic((vg - vth) / (n * phit))  # d(overdrive)/dvg

    # Smooth symmetric channel-length modulation.
    vds = np.asarray(vd, dtype=float) - np.asarray(vs, dtype=float)
    tanh_arg = np.clip(vds / (2.0 * phit), -_EXP_CLIP, _EXP_CLIP)
    th = np.tanh(tanh_arg)
    clm = 1.0 + params.lambda_clm * vds * th
    dclm_dvds = params.lambda_clm * (th + vds * (1.0 - th * th)
                                     / (2.0 * phit))

    core = f_f - f_r
    i_d = i_spec * core * clm / degr

    # Partial derivatives (chain rule through vp, clm, degr).
    d_core_dvg = (df_f - df_r) / (n * phit)
    d_core_dvd = df_r / phit
    d_core_dvs = -df_f / phit

    gm = i_spec * (d_core_dvg * clm / degr
                   - core * clm * params.theta * dov_dvg / (degr * degr))
    gd = i_spec * (d_core_dvd * clm + core * dclm_dvds) / degr
    gs = i_spec * (d_core_dvs * clm - core * dclm_dvds) / degr
    return i_d, gm, gd, gs


def mos_current(vg: ArrayLike, vd: ArrayLike, vs: ArrayLike, vb: ArrayLike,
                vth_shift: ArrayLike, params: MosParams, w_over_l: float,
                temperature_k: float
                ) -> Tuple[ArrayLike, ArrayLike, ArrayLike, ArrayLike]:
    """Drain current and partials for either polarity.

    Parameters
    ----------
    vg, vd, vs, vb:
        Terminal voltages [V]; broadcastable arrays (the leading axis is
        the Monte-Carlo batch).
    vth_shift:
        Additive threshold shift magnitude [V] (time-zero mismatch plus
        BTI aging).  Positive values always *weaken* the device for both
        polarities, matching how BTI degrades |Vth|.
    params:
        Model card.
    w_over_l:
        Geometry ratio W/L.
    temperature_k:
        Simulation temperature.

    Returns
    -------
    (id, gm, gd, gs):
        ``id`` is the current flowing drain -> source through the channel
        (positive for a conducting NMOS with vd > vs).  ``gm``, ``gd``,
        ``gs`` are the partials of ``id`` w.r.t. ``vg``, ``vd``, ``vs``.
    """
    vth = params.vth_at(temperature_k) + np.asarray(vth_shift, dtype=float)
    if params.is_nmos:
        return _nmos_current(np.asarray(vg) - np.asarray(vb),
                             np.asarray(vd) - np.asarray(vb),
                             np.asarray(vs) - np.asarray(vb),
                             vth, params, w_over_l, temperature_k)
    # PMOS: mirror about the bulk.  With vg' = vb - vg etc. the mirrored
    # device is NMOS-like; its current i' flows (mirrored) drain->source,
    # which maps back to source->drain for the PMOS, hence the sign flip.
    i_d, gm_m, gd_m, gs_m = _nmos_current(
        np.asarray(vb) - np.asarray(vg),
        np.asarray(vb) - np.asarray(vd),
        np.asarray(vb) - np.asarray(vs),
        vth, params, w_over_l, temperature_k)
    # d(-i')/dvg = -di'/dvg' * dvg'/dvg = -gm_m * (-1) = gm_m; same for d, s.
    return -i_d, gm_m, gd_m, gs_m


@dataclasses.dataclass(frozen=True)
class StackedDevices:
    """Per-device model constants stacked into arrays for one-shot eval.

    All fields have shape ``(n_dev,)``; :func:`stacked_mos_current`
    broadcasts them against ``(batch, n_dev)`` terminal voltages so an
    entire circuit's devices are evaluated with one pass of numpy ufunc
    calls instead of one Python-level call per device.  Built once per
    compiled system (see :class:`repro.spice.mna.MnaSystem`).
    """

    polarity: np.ndarray
    vth: np.ndarray
    n: np.ndarray
    theta: np.ndarray
    lambda_clm: np.ndarray
    i_spec: np.ndarray
    phit: float


def stack_devices(params_list, w_over_l_list,
                  temperature_k: float) -> StackedDevices:
    """Stack per-device cards/geometry into a :class:`StackedDevices`.

    Parameters
    ----------
    params_list:
        One :class:`MosParams` per device.
    w_over_l_list:
        Matching W/L ratios.
    temperature_k:
        Simulation temperature (folded into ``vth`` and ``i_spec``).
    """
    if len(params_list) != len(w_over_l_list):
        raise ValueError("params and w_over_l lists differ in length")
    return StackedDevices(
        polarity=np.array([float(p.polarity) for p in params_list]),
        vth=np.array([p.vth_at(temperature_k) for p in params_list]),
        n=np.array([p.n for p in params_list]),
        theta=np.array([p.theta for p in params_list]),
        lambda_clm=np.array([p.lambda_clm for p in params_list]),
        i_spec=np.array([p.spec_current(w, temperature_k)
                         for p, w in zip(params_list, w_over_l_list)]),
        phit=thermal_voltage(temperature_k))


def stacked_mos_current(vg: ArrayLike, vd: ArrayLike, vs: ArrayLike,
                        vb: ArrayLike, vth_shift: ArrayLike,
                        devices: StackedDevices,
                        ) -> Tuple[ArrayLike, ArrayLike, ArrayLike,
                                   ArrayLike]:
    """All-device drain currents (and partials) in one vectorised pass.

    Terminal voltages have shape ``(batch, n_dev)``; ``vth_shift`` is a
    broadcastable positive magnitude.  Per element this computes exactly
    the same expression as :func:`mos_current` — PMOS devices are
    mirrored about the bulk via the polarity array, so mixed-polarity
    circuits evaluate in a single call.

    Returns
    -------
    (id, gm, gd, gs):
        Each of shape ``(batch, n_dev)``; ``id`` flows drain -> source.
    """
    pol = devices.polarity
    phit = devices.phit
    n = devices.n
    n_phit = n * phit

    vg_rel = pol * (np.asarray(vg, dtype=float) - vb)
    vd_rel = pol * (np.asarray(vd, dtype=float) - vb)
    vs_rel = pol * (np.asarray(vs, dtype=float) - vb)
    vth = devices.vth + np.asarray(vth_shift, dtype=float)

    over = vg_rel - vth
    vp = over / n
    sp_f, lg_f = softplus_logistic((vp - vs_rel) / phit / 2.0)
    sp_r, lg_r = softplus_logistic((vp - vd_rel) / phit / 2.0)
    f_f = sp_f * sp_f
    f_r = sp_r * sp_r

    sp_o, lg_o = softplus_logistic(over / n_phit)
    overdrive = n_phit * sp_o
    degr = 1.0 + devices.theta * overdrive

    vds = vd_rel - vs_rel
    tanh_arg = np.clip(vds / (2.0 * phit), -_EXP_CLIP, _EXP_CLIP)
    th = np.tanh(tanh_arg)
    clm = 1.0 + devices.lambda_clm * vds * th

    core = f_f - f_r
    i_d = pol * (devices.i_spec * core * clm / degr)

    df_f = sp_f * lg_f
    df_r = sp_r * lg_r
    dov_dvg = lg_o
    dclm_dvds = devices.lambda_clm * (th + vds * (1.0 - th * th)
                                      / (2.0 * phit))
    d_core_dvg = (df_f - df_r) / n_phit
    d_core_dvd = df_r / phit
    d_core_dvs = -df_f / phit

    # The mirroring cancels in the partials: d(pol*i')/dv = di'/dv'
    # because both the current and the terminal voltages flip sign for a
    # PMOS (see mos_current).
    gm = devices.i_spec * (d_core_dvg * clm / degr
                           - core * clm * devices.theta * dov_dvg
                           / (degr * degr))
    gd = devices.i_spec * (d_core_dvd * clm + core * dclm_dvds) / degr
    gs = devices.i_spec * (d_core_dvs * clm - core * dclm_dvds) / degr
    return i_d, gm, gd, gs


#: ``(n_dev, batch)`` scratch buffers of a stacked-evaluation workspace.
_EVAL_BUFFERS_N = ("over", "vp", "vds", "th", "clm", "core", "degr",
                   "dclm", "num", "den", "t1")


def stacked_eval_workspace(batch: int,
                           devices: StackedDevices) -> dict:
    """Preallocated buffers for :func:`stacked_mos_current_into`.

    All buffers are laid out **batch-last** (``(n_dev, batch)`` and
    multiples): the evaluator fuses the three EKV interpolation
    arguments (forward, reverse, overdrive) into ``(3 * n_dev, batch)``
    blocks whose per-argument slices are then *contiguous* rows — with
    batch-first layout every block slice is strided and numpy's strided
    inner loops cost roughly half a microsecond extra per ufunc, which
    at Monte-Carlo sizes dwarfs the arithmetic.  The per-device model
    constants are stored pre-shaped for batch-last broadcasting.
    """
    n_dev = devices.polarity.shape[0]
    work = {name: np.empty((n_dev, batch)) for name in _EVAL_BUFFERS_N}
    work["rel"] = np.empty((3 * n_dev, batch))
    work["arg"] = np.empty((3 * n_dev, batch))
    work["e"] = np.empty((3 * n_dev, batch))
    work["sp"] = np.empty((3 * n_dev, batch))
    work["lg"] = np.empty((3 * n_dev, batch))
    work["wide"] = np.empty((3 * n_dev, batch))
    work["mask"] = np.empty((3 * n_dev, batch), dtype=bool)
    work["df2"] = np.empty((2 * n_dev, batch))
    work["stampsT"] = np.empty((3 * n_dev, batch))
    work["termT"] = np.empty((4 * n_dev, batch))
    work["pol"] = devices.polarity[:, None]
    work["pol3"] = np.concatenate((devices.polarity,) * 3)[:, None]
    work["n"] = devices.n[:, None]
    work["n_phit"] = work["n"] * devices.phit
    work["theta"] = devices.theta[:, None]
    work["lambda_clm"] = devices.lambda_clm[:, None]
    work["i_spec"] = devices.i_spec[:, None]
    return work


def _softplus_logistic_into(x, e, sp, lg, scratch, mask) -> None:
    """:func:`softplus_logistic` with the hot ops into caller buffers.

    Performs the same ufunc sequence element for element (the two
    ``np.where`` selects are kept — masked ``copyto`` is slower), so the
    results are bit-identical to the allocating version.
    """
    np.abs(x, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)                       # e = exp(-|x|)
    np.greater(x, 0.0, out=mask)
    np.log1p(e, out=scratch)
    np.add(np.where(mask, x, 0.0), scratch, out=sp)     # softplus
    np.greater_equal(x, 0.0, out=mask)
    np.add(e, 1.0, out=lg)
    np.divide(np.where(mask, 1.0, e), lg, out=lg)       # logistic


def stacked_mos_current_into(terminals, vth,
                             devices: StackedDevices, work: dict,
                             i_d, stamps) -> None:
    """:func:`stacked_mos_current` into preallocated buffers.

    ``terminals`` is the fused ``(batch, 4 * n_dev)`` gather
    ``[gate | drain | source | bulk]`` the compiled system already
    builds; ``vth`` is the *shifted* threshold
    ``devices.vth + vth_shift``, transposed to ``(n_dev, 1 or batch)``
    and precomputed by the caller (which can cache it — the shift matrix
    is constant across a cell's thousands of evaluations).  Writes the
    current into ``i_d`` (``(batch, n_dev)``) and the partials into
    ``stamps`` (``(batch, 3 * n_dev)`` as ``[gm | gd | gs]``, the layout
    the Jacobian scatter matmul consumes); every intermediate lives in
    ``work`` (see :func:`stacked_eval_workspace`).

    The evaluation itself runs batch-last: the three bulk-referenced
    terminal voltages and the three EKV interpolation arguments are
    stacked into contiguous ``(3 * n_dev, batch)`` blocks, which both
    fuses the dominant transcendental passes and keeps every slice
    contiguous (see :func:`stacked_eval_workspace`); two small
    transpose copies at entry/exit convert between the system's
    batch-first layout.  Per element, every operation reproduces the
    expression *and operation order* of :func:`stacked_mos_current`, so
    the outputs are bit-identical — the reduced assembly relies on this
    to stay bitwise equal to the full-space assembly (enforced by the
    test suite).
    """
    phit = devices.phit
    w = work
    n_dev = devices.polarity.shape[0]
    batch = terminals.shape[0]
    pol = w["pol"]
    n_phit = w["n_phit"]

    termT = w["termT"]
    np.copyto(termT, terminals.T)
    # rel = [vg_rel | vd_rel | vs_rel]: one broadcast subtract of the
    # bulk block plus one polarity multiply for all three.
    rel = w["rel"]
    np.subtract(termT[:3 * n_dev].reshape(3, n_dev, batch),
                termT[3 * n_dev:].reshape(1, n_dev, batch),
                out=rel.reshape(3, n_dev, batch))
    np.multiply(w["pol3"], rel, out=rel)
    vg_rel = rel[:n_dev]
    vd_rel = rel[n_dev:2 * n_dev]
    vs_rel = rel[2 * n_dev:]

    over = np.subtract(vg_rel, vth, out=w["over"])
    vp = np.divide(over, w["n"], out=w["vp"])
    # arg = [x_f | x_r | x_o]: the forward/reverse halves share the
    # "/ phit / 2" pair, the overdrive third divides by n*phit.
    arg = w["arg"]
    np.subtract(vp, vs_rel, out=arg[:n_dev])
    np.subtract(vp, vd_rel, out=arg[n_dev:2 * n_dev])
    np.divide(arg[:2 * n_dev], phit, out=arg[:2 * n_dev])
    np.divide(arg[:2 * n_dev], 2.0, out=arg[:2 * n_dev])
    np.divide(over, n_phit, out=arg[2 * n_dev:])
    _softplus_logistic_into(arg, w["e"], w["sp"], w["lg"],
                            w["wide"], w["mask"])
    sp2 = w["sp"][:2 * n_dev]
    lg_o = w["lg"][2 * n_dev:]
    f2 = np.multiply(sp2, sp2, out=w["wide"][:2 * n_dev])  # [f_f | f_r]

    degr = np.multiply(n_phit, w["sp"][2 * n_dev:],
                       out=w["degr"])             # overdrive
    np.multiply(w["theta"], degr, out=degr)
    np.add(1.0, degr, out=degr)

    vds = np.subtract(vd_rel, vs_rel, out=w["vds"])
    th = np.divide(vds, 2.0 * phit, out=w["th"])
    np.maximum(th, -_EXP_CLIP, out=th)
    np.minimum(th, _EXP_CLIP, out=th)             # == clip
    np.tanh(th, out=th)
    clm = np.multiply(w["lambda_clm"], vds, out=w["clm"])
    np.multiply(clm, th, out=clm)
    np.add(1.0, clm, out=clm)

    core = np.subtract(f2[:n_dev], f2[n_dev:], out=w["core"])
    i_dT = np.multiply(w["i_spec"], core, out=w["vp"])
    np.multiply(i_dT, clm, out=i_dT)
    np.divide(i_dT, degr, out=i_dT)
    np.multiply(pol, i_dT, out=i_dT)

    df2 = np.multiply(sp2, w["lg"][:2 * n_dev],
                      out=w["df2"])               # [df_f | df_r]
    df_f = df2[:n_dev]
    df_r = df2[n_dev:]
    t1 = np.multiply(th, th, out=w["t1"])
    np.subtract(1.0, t1, out=t1)
    np.multiply(vds, t1, out=t1)
    np.divide(t1, 2.0 * phit, out=t1)
    np.add(th, t1, out=t1)
    dclm = np.multiply(w["lambda_clm"], t1, out=w["dclm"])

    stampsT = w["stampsT"]
    gm = stampsT[:n_dev]
    gd = stampsT[n_dev:2 * n_dev]
    gs = stampsT[2 * n_dev:]

    # gm = i_spec * (d_core_dvg*clm/degr - core*clm*theta*lg_o/degr^2)
    t2 = np.subtract(df_f, df_r, out=w["over"])
    np.divide(t2, n_phit, out=t2)                 # d_core_dvg
    np.multiply(t2, clm, out=t2)
    np.divide(t2, degr, out=t2)
    np.multiply(core, clm, out=w["num"])
    np.multiply(w["num"], w["theta"], out=w["num"])
    np.multiply(w["num"], lg_o, out=w["num"])
    np.multiply(degr, degr, out=w["den"])
    np.divide(w["num"], w["den"], out=w["num"])
    np.subtract(t2, w["num"], out=gm)
    np.multiply(w["i_spec"], gm, out=gm)

    # gd = i_spec * (d_core_dvd*clm + core*dclm) / degr
    np.divide(df_r, phit, out=df_r)               # d_core_dvd
    np.multiply(df_r, clm, out=df_r)
    np.multiply(core, dclm, out=w["t1"])
    np.add(df_r, w["t1"], out=df_r)
    np.multiply(w["i_spec"], df_r, out=gd)
    np.divide(gd, degr, out=gd)

    # gs = i_spec * (d_core_dvs*clm - core*dclm) / degr
    np.divide(df_f, phit, out=df_f)
    np.negative(df_f, out=df_f)                   # d_core_dvs
    np.multiply(df_f, clm, out=df_f)
    np.subtract(df_f, w["t1"], out=df_f)
    np.multiply(w["i_spec"], df_f, out=gs)
    np.divide(gs, degr, out=gs)

    np.copyto(i_d, i_dT.T)
    np.copyto(stamps, stampsT.T)


def saturation_current(params: MosParams, w_over_l: float,
                       vdd: float, temperature_k: float = T0) -> float:
    """On-current at ``|vgs| = |vds| = vdd`` — a quick sanity metric."""
    if params.is_nmos:
        i_d, _, _, _ = mos_current(vdd, vdd, 0.0, 0.0, 0.0, params,
                                   w_over_l, temperature_k)
        return float(np.asarray(i_d))
    i_d, _, _, _ = mos_current(0.0, 0.0, vdd, vdd, 0.0, params,
                               w_over_l, temperature_k)
    return float(abs(np.asarray(i_d)))


def transconductance(params: MosParams, w_over_l: float, vgs: float,
                     vds: float, temperature_k: float = T0) -> float:
    """Small-signal gm at a bias point (NMOS convention, bulk at source)."""
    if params.is_nmos:
        _, gm, _, _ = mos_current(vgs, vds, 0.0, 0.0, 0.0, params,
                                  w_over_l, temperature_k)
    else:
        vdd = max(abs(vgs), abs(vds))
        _, gm, _, _ = mos_current(vdd - abs(vgs), vdd - abs(vds), vdd, vdd,
                                  0.0, params, w_over_l, temperature_k)
    return float(np.asarray(gm))
