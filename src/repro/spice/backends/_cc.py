"""Runtime-compiled C step kernel (the ``cc`` flavor).

Wherever a C compiler is on PATH (``cc``), the whole per-step Newton
solve — argument matmul, EKV evaluation, reduced assembly, per-sample
LU solve, damped update and per-sample convergence masking — is
compiled once from the source below and driven through :mod:`ctypes`.
The kernel is the scalar-C transliteration of
:class:`~repro.spice.backends.compiled.FusedNumpyKernel` operating on
the :class:`~repro.spice.backends.maps.ReducedKernelMaps` arrays.

Compiled objects are cached on disk under a tag hashing the source,
the flags, the compiler's identity (resolved path, size and mtime) and
the host's CPU feature flags (what ``-march=native`` targets), so a
cached ``.so`` is reused only by the toolchain and CPU that built it,
and finding it spawns no process.  Concurrent cold processes each
compile from a private temporary source into a private temporary
object, check it exports ``newton_step``, and publish it with an atomic
``os.replace``.  Flag sets are tried most-aggressive first, but
fast-math is deliberately excluded: with ``-Ofast -fopenmp-simd`` glibc
routes ``exp`` through libmvec, whose vector lanes round differently
from the scalar remainder loop, so a sample's waveform would depend on
where it lands in the batch.  ``chunk_size`` is not part of the result
cache key, so results must be invariant to batch packing — strict IEEE
math with scalar libm calls guarantees that.  The kernel is also
self-checked against the fused-numpy kernel on first use, falling back
permanently in the process if the results disagree (see
``compiled.py``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import time
from typing import Optional, Tuple

import numpy as np

#: Flag sets tried in order until one compiles.  No fast-math anywhere:
#: results must not depend on how samples are packed into batches.
CC_FLAG_SETS = (
    "-O3 -march=native -fno-math-errno",
    "-O2",
)

#: Unknown-block width ceiling of the stack-allocated LU buffers.
MAX_NU = 32

C_SOURCE = r"""
#include <math.h>
#include <string.h>
#include <stdint.h>

#define MAX_NU 32

int64_t newton_step(
    double* v, const int64_t* active, int64_t na,
    const double* step_const, const double* carg, int64_t cw,
    const double* M, const double* negA_u, const double* A_uu,
    const int64_t* u_idx,
    const int64_t* fs_idx, const double* fs_coef,
    const int64_t* js_idx, const double* js_coef, int64_t js_w,
    const double* dev_c, const double* scal,
    int64_t n, int64_t nu, int64_t nd, int64_t max_iter,
    double* work, int64_t* alive, int64_t* counts)
{
    const double inv_phit = scal[0], exp_clip = scal[1], vtol = scal[2],
                 max_step = scal[3], reg = scal[4];
    const double* thetaphit = dev_c;
    const double* theta_nphit = dev_c + nd;
    const double* inv_n = dev_c + 2 * nd;
    const double* lam = dev_c + 3 * nd;
    const double* lam2phit = dev_c + 4 * nd;
    const int64_t nb0 = na;
    /* carve the caller-provided workspace */
    double* vt   = work;               /* (n, nb0) gathered voltages */
    double* arg  = vt + n * nb0;       /* (4nd, nb0) model arguments */
    double* e    = arg + 4 * nd * nb0; /* (3nd, nb0) exp(-|x|) */
    double* sp   = e + 3 * nd * nb0;   /* (3nd, nb0) softplus */
    double* lg   = sp + 3 * nd * nb0;  /* (3nd, nb0) logistic */
    double* th   = lg + 3 * nd * nb0;  /* (nd, nb0) tanh(x_t) */
    double* idv  = th + nd * nb0;      /* (nd, nb0) normalised i_d */
    double* st   = idv + nd * nb0;     /* (3nd, nb0) gm/gd/gs stamps */
    double* rhs  = st + 3 * nd * nb0;  /* (nb0, nu) */
    double* jac  = rhs + nb0 * nu;     /* (nb0, nu*nu) */

    for (int64_t i = 0; i < na; i++) alive[i] = active[i];
    int64_t nb = na;
    int64_t depth = 0, sample_iters = 0, singular = 0;

    while (nb > 0 && depth < max_iter) {
        depth++;
        sample_iters += nb;
        /* gather the active rows of v, batch-last: vt[j,i] = v[s_i,j] */
        for (int64_t i = 0; i < nb; i++) {
            const double* vs = v + alive[i] * n;
            for (int64_t j = 0; j < n; j++) vt[j * nb0 + i] = vs[j];
        }
        /* arg = M @ vt (+ carg on the first 3nd rows) */
        for (int64_t r = 0; r < 4 * nd; r++) {
            double* ar = arg + r * nb0;
            const double* Mr = M + r * n;
            for (int64_t i = 0; i < nb; i++) ar[i] = 0.0;
            for (int64_t j = 0; j < n; j++) {
                double c = Mr[j];
                if (c == 0.0) continue;
                const double* vj = vt + j * nb0;
                for (int64_t i = 0; i < nb; i++) ar[i] += c * vj[i];
            }
        }
        if (cw == 1) {
            for (int64_t r = 0; r < 3 * nd; r++) {
                double c = carg[r];
                double* ar = arg + r * nb0;
                for (int64_t i = 0; i < nb; i++) ar[i] += c;
            }
        } else {
            for (int64_t r = 0; r < 3 * nd; r++) {
                const double* cr = carg + r * cw;
                double* ar = arg + r * nb0;
                for (int64_t i = 0; i < nb; i++) ar[i] += cr[alive[i]];
            }
        }
        /* numerically-stable softplus + logistic on the EKV rows */
        for (int64_t r = 0; r < 3 * nd; r++) {
            const double* x = arg + r * nb0;
            double* er = e + r * nb0;
            double* spr = sp + r * nb0;
            double* lgr = lg + r * nb0;
            for (int64_t i = 0; i < nb; i++) {
                double xi = x[i];
                double ei = exp(-fabs(xi));
                er[i] = ei;
                double spv = log1p(ei);
                if (xi > 0.0) spv += xi;
                spr[i] = spv;
                double den = 1.0 + ei;
                lgr[i] = (xi >= 0.0) ? 1.0 / den : ei / den;
            }
        }
        /* clipped tanh on the CLM row */
        for (int64_t j = 0; j < nd; j++) {
            const double* xt = arg + (3 * nd + j) * nb0;
            double* tr = th + j * nb0;
            for (int64_t i = 0; i < nb; i++) {
                double t = xt[i];
                if (t > exp_clip) t = exp_clip;
                if (t < -exp_clip) t = -exp_clip;
                tr[i] = tanh(t);
            }
        }
        /* EKV core + mobility degradation + CLM, currents and stamps */
        for (int64_t j = 0; j < nd; j++) {
            const double* spf = sp + j * nb0;
            const double* spr_ = sp + (nd + j) * nb0;
            const double* spo = sp + (2 * nd + j) * nb0;
            const double* lgf = lg + j * nb0;
            const double* lgr_ = lg + (nd + j) * nb0;
            const double* lgo = lg + (2 * nd + j) * nb0;
            const double* xt = arg + (3 * nd + j) * nb0;
            const double* tr = th + j * nb0;
            double* idj = idv + j * nb0;
            double* gm = st + j * nb0;
            double* gd = st + (nd + j) * nb0;
            double* gs = st + (2 * nd + j) * nb0;
            double tp = thetaphit[j], tnp = theta_nphit[j],
                   inj = inv_n[j], lj = lam[j], l2p = lam2phit[j];
            for (int64_t i = 0; i < nb; i++) {
                double ff = spf[i] * spf[i];
                double fr = spr_[i] * spr_[i];
                double core = ff - fr;
                double degr = 1.0 + tnp * spo[i];
                double t = tr[i];
                double clm = 1.0 + l2p * xt[i] * t;
                double dclm = lj * (t + xt[i] * (1.0 - t * t));
                idj[i] = core * clm / degr;
                double dff = spf[i] * lgf[i];
                double dfr = spr_[i] * lgr_[i];
                double pre = clm / degr * inv_phit;
                double q = core * tp * lgo[i] / degr;
                double cd = core * dclm / degr;
                gm[i] = ((dff - dfr) * inj - q) * pre;
                gd[i] = dfr * pre + cd;
                gs[i] = dff * pre + cd;
            }
        }
        /* rhs = step_const + negA_u @ v + device-current scatter */
        for (int64_t i = 0; i < nb; i++)
            memcpy(rhs + i * nu, step_const + alive[i] * nu,
                   nu * sizeof(double));
        for (int64_t k = 0; k < nu; k++) {
            const double* Ak = negA_u + k * n;
            for (int64_t j = 0; j < n; j++) {
                double c = Ak[j];
                if (c == 0.0) continue;
                const double* vj = vt + j * nb0;
                for (int64_t i = 0; i < nb; i++) rhs[i * nu + k] += c * vj[i];
            }
        }
        for (int64_t j = 0; j < nd; j++) {
            const double* idj = idv + j * nb0;
            for (int64_t t = 0; t < 2; t++) {
                double c = fs_coef[j * 2 + t];
                if (c == 0.0) continue;
                int64_t k = fs_idx[j * 2 + t];
                for (int64_t i = 0; i < nb; i++) rhs[i * nu + k] += c * idj[i];
            }
        }
        /* jac = A_uu + stamp scatter */
        for (int64_t i = 0; i < nb; i++)
            memcpy(jac + i * nu * nu, A_uu, nu * nu * sizeof(double));
        for (int64_t r = 0; r < 3 * nd; r++) {
            const double* sr = st + r * nb0;
            for (int64_t t = 0; t < js_w; t++) {
                double c = js_coef[r * js_w + t];
                if (c == 0.0) continue;
                int64_t k = js_idx[r * js_w + t];
                for (int64_t i = 0; i < nb; i++)
                    jac[i * nu * nu + k] += c * sr[i];
            }
        }
        /* per-sample partial-pivot LU solve + damped update + masking */
        int64_t keep = 0;
        for (int64_t i = 0; i < nb; i++) {
            double a[MAX_NU * MAX_NU];
            double b[MAX_NU];
            memcpy(a, jac + i * nu * nu, nu * nu * sizeof(double));
            memcpy(b, rhs + i * nu, nu * sizeof(double));
            int bumped = 0;
          factor:
            ;
            int fail = 0;
            for (int64_t k = 0; k < nu && !fail; k++) {
                int64_t p = k;
                double best = fabs(a[k * nu + k]);
                for (int64_t r2 = k + 1; r2 < nu; r2++) {
                    double m = fabs(a[r2 * nu + k]);
                    if (m > best) { best = m; p = r2; }
                }
                if (best == 0.0) { fail = 1; break; }
                if (p != k) {
                    for (int64_t c2 = 0; c2 < nu; c2++) {
                        double tmp = a[k * nu + c2];
                        a[k * nu + c2] = a[p * nu + c2];
                        a[p * nu + c2] = tmp;
                    }
                    double tb = b[k]; b[k] = b[p]; b[p] = tb;
                }
                double inv = 1.0 / a[k * nu + k];
                for (int64_t r2 = k + 1; r2 < nu; r2++) {
                    double f = a[r2 * nu + k] * inv;
                    if (f == 0.0) continue;
                    a[r2 * nu + k] = 0.0;
                    for (int64_t c2 = k + 1; c2 < nu; c2++)
                        a[r2 * nu + c2] -= f * a[k * nu + c2];
                    b[r2] -= f * b[k];
                }
            }
            if (fail) {
                if (bumped) return -2; /* singular even after the bump */
                singular++;
                bumped = 1;
                memcpy(a, jac + i * nu * nu, nu * nu * sizeof(double));
                memcpy(b, rhs + i * nu, nu * sizeof(double));
                for (int64_t k = 0; k < nu; k++) a[k * nu + k] += reg;
                goto factor;
            }
            for (int64_t k = nu - 1; k >= 0; k--) {
                double x = b[k];
                for (int64_t c2 = k + 1; c2 < nu; c2++)
                    x -= a[k * nu + c2] * b[c2];
                b[k] = x / a[k * nu + k];
            }
            double maxstep = 0.0;
            double* vs = v + alive[i] * n;
            for (int64_t k = 0; k < nu; k++) {
                double d = b[k];
                if (d > max_step) d = max_step;
                if (d < -max_step) d = -max_step;
                vs[u_idx[k]] += d;
                double m = fabs(d);
                if (m > maxstep) maxstep = m;
            }
            if (maxstep >= vtol) alive[keep++] = alive[i];
        }
        nb = keep;
    }
    counts[0] = depth;
    counts[1] = sample_iters;
    counts[2] = singular;
    return (nb > 0) ? -1 : 0;
}
"""


def compiler_available() -> bool:
    """True when a ``cc`` executable is on PATH."""
    return shutil.which("cc") is not None


def _cache_dir() -> str:
    base = os.environ.get("REPRO_CACHE_DIR")
    if not base:
        base = os.path.join(os.path.expanduser("~"), ".cache", "repro")
    return os.path.join(base, "cc-kernels")


def _setup_argtypes(fn) -> None:
    ptr_f = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ptr_i = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    i64 = ctypes.c_int64
    fn.restype = ctypes.c_int64
    fn.argtypes = [
        ptr_f, ptr_i, i64,          # v, active, na
        ptr_f, ptr_f, i64,          # step_const, carg, cw
        ptr_f, ptr_f, ptr_f,        # M, negA_u, A_uu
        ptr_i,                      # u_idx
        ptr_i, ptr_f,               # fs_idx, fs_coef
        ptr_i, ptr_f, i64,          # js_idx, js_coef, js_w
        ptr_f, ptr_f,               # dev_c, scal
        i64, i64, i64, i64,         # n, nu, nd, max_iter
        ptr_f, ptr_i, ptr_i,        # work, alive, counts
    ]


@functools.lru_cache(maxsize=None)
def _host_identity() -> str:
    """Compiler identity and CPU feature flags, read without a process.

    The compiler is identified by its resolved path, size and mtime
    (an upgrade replaces the binary); the CPU by the ``flags`` (x86) or
    ``Features`` (arm) line of ``/proc/cpuinfo``, falling back to the
    platform's machine/processor names elsewhere.
    """
    compiler = os.path.realpath(shutil.which("cc") or "cc")
    try:
        stat = os.stat(compiler)
        compiler += f":{stat.st_size}:{stat.st_mtime_ns}"
    except OSError:
        pass
    cpu = f"{platform.machine()} {platform.processor()}"
    try:
        with open("/proc/cpuinfo", encoding="utf-8",
                  errors="replace") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return compiler + "\0" + cpu


def kernel_tag(flags: str) -> str:
    """Cache tag of the kernel built with ``flags`` on this host."""
    blob = "\0".join((C_SOURCE, flags, _host_identity()))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _load(path: str):
    """The ``newton_step`` entry point of ``path``, or None if unusable."""
    try:
        fn = ctypes.CDLL(path).newton_step
    except (OSError, AttributeError):
        return None
    _setup_argtypes(fn)
    return fn


def _compile(flags: str, directory: str) -> Tuple[Optional[object], float,
                                                  str]:
    """Load the cached kernel for one flag set, or build and publish it.

    Returns ``(fn, compile_ms, tag)`` — ``fn`` is ``None`` when this
    flag set does not build on the host; ``compile_ms`` is 0.0 when a
    cached ``.so`` was reused.  Raises ``OSError`` when ``directory``
    is unusable.
    """
    tag = kernel_tag(flags)
    so_path = os.path.join(directory, f"newton_step_{tag}.so")
    if os.path.exists(so_path):
        fn = _load(so_path)
        if fn is not None:
            return fn, 0.0, tag
        # Unusable cached object: rebuild and replace it below.
    os.makedirs(directory, exist_ok=True)
    fd, c_path = tempfile.mkstemp(suffix=".c", dir=directory)
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(C_SOURCE)
    fd, tmp_so = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(fd)
    cmd = ["cc"] + flags.split() + ["-shared", "-fPIC", c_path,
                                    "-o", tmp_so, "-lm"]
    try:
        start = time.perf_counter()
        try:
            subprocess.run(cmd, check=True, capture_output=True,
                           timeout=120)
        except (OSError, subprocess.SubprocessError):
            return None, 0.0, tag
        compile_ms = (time.perf_counter() - start) * 1e3
        fn = _load(tmp_so)
        if fn is not None:
            os.replace(tmp_so, so_path)
        return fn, compile_ms, tag
    finally:
        for path in (c_path, tmp_so):
            try:
                os.unlink(path)
            except OSError:
                pass


def load_kernel() -> Tuple[Optional[object], float, Optional[str],
                           Optional[str]]:
    """Build/load the C step kernel.

    Returns ``(fn, compile_ms, flags, tag)``; ``fn`` is ``None`` when no
    compiler is available or every flag set fails.  ``compile_ms`` is
    0.0 when a cached ``.so`` was reused.
    """
    if not compiler_available():
        return None, 0.0, None, None
    directories = [_cache_dir(), os.path.join(tempfile.gettempdir(),
                                              "repro-cc-kernels")]
    for directory in directories:
        for flags in CC_FLAG_SETS:
            try:
                fn, ms, tag = _compile(flags, directory)
            except OSError:
                break  # directory unusable; try the fallback dir
            if fn is not None:
                return fn, ms, flags, tag
    return None, 0.0, None, None
