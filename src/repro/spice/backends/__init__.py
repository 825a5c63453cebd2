"""Step kernels for the reduced transient hot loop.

Every transient solves its backward-Euler steps through the fused
kernels of :mod:`repro.spice.backends.compiled`: the runtime-compiled C
kernel (flavor ``cc``) wherever a C compiler builds it, else the fused
pure-numpy kernel (flavor ``numpy``).  The process picks the flavor
once; :func:`cache_token` names it (plus, for ``cc``, the ``.so`` tag)
and is salted into the content-addressed result-cache key, so cached
results never mix flavors.  :class:`~repro.spice.backends.
numpy_backend.NumpyStepKernel` is the reference oracle the fused
kernels are tested against.
"""

from __future__ import annotations

from .base import StepKernel
from .compiled import backend_host_info, cache_token, step_kernel

__all__ = ["StepKernel", "backend_host_info", "cache_token",
           "step_kernel"]
