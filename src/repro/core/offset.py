"""Offset-voltage extraction by batched binary search.

Follows the paper's methodology (taken from Agbo et al. [14]): for each
Monte-Carlo sample, the offset voltage is the input differential at
which the SA's resolution flips, found by binary search on its inputs.
All samples run simultaneously — each binary-search iteration is one
batched transient simulation with a per-sample input level.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from ..analysis.perf import PERF
from ..analysis.stats import NormalFit, fit_normal
from ..analysis.failure import failure_rate_at, offset_spec
from ..constants import FAILURE_RATE_TARGET
from ..models.variation import keyed_rng
from .rare_event import Estimate, TailEstimate, percentile_ci
from .testbench import SenseAmpTestbench

#: Shortened transient window for resolution-sign checks [s]; the latch
#: decision is fixed well before the outputs settle to full swing.
OFFSET_WINDOW = 60e-12

#: Default binary-search input range [V]; generously covers the paper's
#: worst aged distributions (|mu| < 80 mV, sigma < 20 mV).
SEARCH_RANGE = 0.25

#: Default number of bisection iterations (resolution ~ 30 uV over the
#: default range, far below the ~15 mV distribution sigma).
SEARCH_ITERATIONS = 14

#: Spawn-key lane of the normal-fit bootstrap (fit-path ``spec_ci``).
_FIT_BOOT_STREAM = 0x0F17


def fit_offsets(offsets: np.ndarray) -> NormalFit:
    """Normal fit of an offset population, counting discarded samples.

    NaN offsets (binary search could not bracket the sample — its
    offset exceeds the search range) are excluded by
    :func:`~repro.analysis.stats.fit_normal`; this wrapper records how
    many under ``offset.nan_fit_excluded`` so a silently skewed fit is
    visible in the perf report rather than invisible.
    """
    offsets = np.asarray(offsets, dtype=float)
    invalid = int(offsets.size - np.isfinite(offsets).sum())
    if invalid:
        PERF.count("offset.nan_fit_excluded", invalid)
    return fit_normal(offsets)


@dataclasses.dataclass(frozen=True)
class OffsetDistribution:
    """Extracted offset-voltage population and its normal fit.

    Attributes
    ----------
    offsets:
        Per-sample offset voltages [V]; NaN for non-monotone samples
        (none in practice).
    fit:
        Normal fit of the valid samples.
    failure_rate:
        Target failure rate used for the specification.
    tail:
        Optional rare-event tail estimate (importance sampling or
        scaled-sigma).  When present, spec queries use it instead of
        extrapolating the normal fit; the fit itself (``mu``/``sigma``)
        always describes the nominal population.
    """

    offsets: np.ndarray
    fit: NormalFit
    failure_rate: float = FAILURE_RATE_TARGET
    tail: Optional[TailEstimate] = None

    @property
    def mu(self) -> float:
        """Distribution mean [V]."""
        return self.fit.mu

    @property
    def sigma(self) -> float:
        """Distribution standard deviation [V]."""
        return self.fit.sigma

    @property
    def invalid_count(self) -> int:
        """Samples excluded from the fit (offset out of search range)."""
        return int(self.offsets.size
                   - np.isfinite(np.asarray(self.offsets)).sum())

    @property
    def fit_spec(self) -> float:
        """Normal-fit (Eq. 3) specification [V], tail ignored."""
        return offset_spec(self.fit.mu, self.fit.sigma, self.failure_rate)

    @property
    def spec(self) -> float:
        """Offset-voltage specification [V] at the target failure rate.

        Solves Eq. (3) on the normal fit (the paper's method) unless a
        rare-event tail estimate is attached, in which case the
        directly-sampled tail answers instead.
        """
        return self.spec_at(self.failure_rate)

    def spec_at(self, failure_rate: float) -> float:
        """Specification [V] for an alternative failure-rate target."""
        if self.tail is not None:
            return self.tail.spec_point(failure_rate)
        return offset_spec(self.fit.mu, self.fit.sigma, failure_rate)

    def spec_ci(self, failure_rate: Optional[float] = None,
                bootstrap: int = 400, level: float = 0.95) -> Estimate:
        """Specification with a bootstrap confidence interval.

        With a tail estimate attached the interval comes from the
        estimator's own bootstrap (``bootstrap``/``level`` arguments
        are fixed at estimator configuration time and ignored here);
        otherwise the nominal population is resampled and re-fitted, so
        the interval reflects the fit-extrapolation uncertainty of the
        paper's method.
        """
        fr = self.failure_rate if failure_rate is None else failure_rate
        if self.tail is not None:
            return self.tail.spec_at(fr)
        point = offset_spec(self.fit.mu, self.fit.sigma, fr)
        reps = self._fit_bootstrap(
            lambda fit: offset_spec(fit.mu, fit.sigma, fr), bootstrap)
        lo, hi = percentile_ci(reps, level, point)
        return Estimate(point, lo, hi, level)

    def failure_rate_ci(self, spec: float, bootstrap: int = 400,
                        level: float = 0.95) -> Estimate:
        """Failure rate at ``spec`` with a bootstrap confidence interval."""
        if self.tail is not None:
            return self.tail.failure_rate_at(spec)
        point = failure_rate_at(spec, self.fit.mu, self.fit.sigma)
        reps = self._fit_bootstrap(
            lambda fit: failure_rate_at(spec, fit.mu, fit.sigma), bootstrap)
        lo, hi = percentile_ci(reps, level, point)
        return Estimate(point, lo, hi, level)

    def _fit_bootstrap(self, stat, bootstrap: int) -> np.ndarray:
        """Resample-and-refit replicates of a fit statistic."""
        offsets = np.asarray(self.offsets, dtype=float)
        rng = keyed_rng(offsets.size, _FIT_BOOT_STREAM)
        reps = np.full(bootstrap, np.nan)
        for b in range(bootstrap):
            sample = offsets[rng.integers(0, offsets.size, offsets.size)]
            try:
                reps[b] = stat(fit_normal(sample))
            except ValueError:
                pass
        return reps


def extract_offsets(testbench: SenseAmpTestbench,
                    search_range: float = SEARCH_RANGE,
                    iterations: int = SEARCH_ITERATIONS,
                    swapped: bool = False,
                    t_window: float = OFFSET_WINDOW,
                    mask_out_of_range: bool = True) -> np.ndarray:
    """Binary-search the per-sample offset voltages [V].

    The resolution sign is monotone in the input differential: large
    positive inputs resolve +1, large negative inputs -1.  Samples that
    violate monotonicity at the search-range endpoints (offset outside
    the range) are returned as NaN — and, with ``mask_out_of_range``,
    excluded from every subsequent bisection transient so the fast path
    never spends Newton iterations on samples whose result is already
    known to be NaN.

    Sign convention follows the paper's figures: the offset voltage is
    the *extra input the SA demands*, so aging that favours reading 1
    (read-0-heavy workloads weakening the S-side pull-down) yields a
    **positive** mean offset.  Internally this is the negated flip
    threshold of the resolution sign.
    """
    if iterations < 1:
        raise ValueError("need at least one bisection iteration")
    if search_range <= 0.0:
        raise ValueError("search range must be positive")
    batch = testbench.batch_size
    lo = np.full(batch, -search_range)
    hi = np.full(batch, +search_range)
    # Through the swapped pass pair the internal differential is the
    # negated external input, so the resolution is *decreasing* in vin;
    # negating restores a rising decision for the bisection.
    polarity = -1.0 if swapped else 1.0

    def decision(vin: np.ndarray,
                 mask: Optional[np.ndarray] = None) -> np.ndarray:
        return polarity * testbench.resolve_sign(vin, swapped=swapped,
                                                 t_window=t_window,
                                                 sample_mask=mask)

    # Both endpoint reads in one stacked 2x-batch transient.
    sign_hi, sign_lo = testbench.resolve_sign_pair(
        hi, lo, swapped=swapped, t_window=t_window)
    in_range = (polarity * sign_hi > 0) & (polarity * sign_lo < 0)
    active = in_range if mask_out_of_range else None
    PERF.count("offset.samples", batch)
    PERF.count("offset.samples_out_of_range", int(batch - in_range.sum()))

    for _ in range(iterations):
        PERF.count("offset.bisection_iterations")
        mid = 0.5 * (lo + hi)
        sign = decision(mid, mask=active)
        hi = np.where(sign > 0, mid, hi)
        lo = np.where(sign > 0, lo, mid)

    flip_threshold = 0.5 * (lo + hi)
    return np.where(in_range, -flip_threshold, np.nan)


def offset_distribution(testbench: SenseAmpTestbench,
                        failure_rate: float = FAILURE_RATE_TARGET,
                        **kwargs) -> OffsetDistribution:
    """Extract offsets and fit the distribution in one call."""
    with PERF.timer("offset.extract"):
        offsets = extract_offsets(testbench, **kwargs)
    return OffsetDistribution(offsets=offsets, fit=fit_offsets(offsets),
                              failure_rate=failure_rate)
