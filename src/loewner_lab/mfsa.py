"""Sampling-based stability analysis of (possibly irrational) transfers.

The idea: sample the transfer on the imaginary axis, build its Loewner
interpolant, split the interpolant into stable and antistable additive
parts, and measure the L-infinity size of the antistable leftover.  A
stable function leaves (numerically) nothing behind, so the measured gap
acts as a stability tag: below threshold means stable, above means the
data itself certifies an unstable component.  No model of the plant is
needed, only evaluations, which makes the test applicable to closed loops
with dead time and other non-rational elements.

The interpolant is fitted on a subset of the samples that is grown
greedily, worst-fitted held-out sample first, until it predicts every
other sample to ``HOLDOUT_RTOL``; a delayed loop sampled at 800
frequencies is fitted on about 50 to 80 of them.  Only the poles the band
can place, those with omega_min <= |p| <= omega_max, set the verdict;
antistable content that lives outside the band is read as stable below a
data-relative floor and as inconclusive above it.

The delay sweep applies the tag to the loop H*K/(1 + H*K*e^{-tau*s}) for a
list of frozen delays and reports the first delay that flips the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .descriptor_ops import (
    DescriptorRealization,
    TransferMap,
    _check_delays,
    _eval_on_axis,
    _log_grid,
    closed_loop_delay,
    densify_log_grid,
    eval_transfer,
    linf_norm_grid,
    stable_antistable_split,
)
from .errors import BoundaryPoleError, LoewnerLabError, ZeroDataError
from .freq_data import FrequencyDataset, close_conjugate, partition_points
from .loewner_core import build_pencil, detect_rank, reduce_to_realization

__all__ = [
    "StabilityReport",
    "DelayRow",
    "DelaySweepResult",
    "stability_tag",
    "delay_margin_sweep",
    "nyquist_curve",
]

# Default threshold of the stability tag: a tag below it reads "stable".
STABILITY_EPSILON = 1e-10

# The band is [omega_min / INBAND_SLACK, omega_max * INBAND_SLACK]: the
# slack only keeps a pole sitting on a band edge, up to rounding, inside.
# An antistable pole in the band by modulus sets the verdict from the tag.
# Poles outside it by modulus are not trusted: band-limited samples
# cannot locate them, and fits of clean data leave spurious real poles
# there (+2e-4 to +0.03 and +11 to +61 rad/s on the built-in delayed loop,
# whose band is [0.0628, 6.28]).
INBAND_SLACK = 1.0 + 1e-7

# Antistable content with no pole in the band reads stable when its tag is
# below this fraction of max|h| on the grid, and inconclusive otherwise.
# Spurious content of the built-in delayed loop measured at most 7.4e-4 of
# max|h| over delays 0-7 s; a genuine pole at a = 30 or a = 100 in
# 1/(s - a) + 2/(s^2 + 0.4 s + 1) on the paper band measured 6.5e-3 or
# 2.0e-3.  At a = 300 it measures 6.5e-4 and reads stable: that far out,
# band-limited data cannot tell a pole from fitting noise.
OUT_OF_BAND_FLOOR = 1e-3

# The antistable part's norm is read on a grid this many times finer than
# the sampling grid, so a lightly damped peak cannot slip between points.
TAG_DENSIFY = 5

# Delayed loops are sampled this many times finer than the given grid: the
# delay wraps roughly tau*omega_max/(2*pi) extra phase turns that the
# interpolant must resolve.
DELAY_DENSIFY = 4

# Point selection for the interpolant (see ``_fit_on_selected_points``):
# the first fit uses SELECT_START points spread over the grid; each later
# one adds the worst-fitted held-out samples, SELECT_STEP of them or
# SELECT_GROWTH times the points in use, whichever is more, until every
# held-out sample is matched to HOLDOUT_RTOL relative to max|h|.  The
# growth is geometric, yet a fit that never converges still pays about
# three whole-grid fits: on 200 points it runs subsets of 40, 50, 64, 80,
# 100, 126, 158, 198 and 200 points, 2.96 fits on the whole grid by the
# cube of their sizes, and the tag measures about 3.1 times one such fit.
SELECT_START = 40
SELECT_STEP = 8
SELECT_GROWTH = 0.25
HOLDOUT_RTOL = 1e-9


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one stability-tag evaluation.

    ``stab_tag`` is the grid L-infinity norm of the antistable part of the
    interpolant (NaN when the verdict is "inconclusive"), ``order`` the
    detected interpolant order, ``peak_omega`` the frequency achieving the
    tag (None when the antistable part is empty), and ``detail`` a short
    diagnostic for inconclusive outcomes and ignored poles.

    ``points_used`` counts the grid frequencies the interpolant was fitted
    on, and ``holdout_error`` is its largest error on the other samples,
    relative to max|h| (NaN when it used every sample).
    ``ignored_poles`` lists the antistable poles outside the band by
    modulus, each with its reason, "below band" or "above band"; none of
    them sets the verdict on its own.
    """

    stab_tag: float
    epsilon: float
    verdict: str
    order: int
    peak_omega: Optional[float] = None
    antistable_order: int = 0
    detail: str = ""
    points_used: int = 0
    holdout_error: float = math.nan
    ignored_poles: tuple[tuple[complex, str], ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in ("stable", "unstable", "inconclusive"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict != "inconclusive":
            if (self.stab_tag < self.epsilon) != (self.verdict == "stable"):
                raise ValueError(
                    f"verdict {self.verdict!r} inconsistent with "
                    f"stab_tag={self.stab_tag:g}, epsilon={self.epsilon:g}"
                )


def _fit_on_selected_points(
    omega: np.ndarray, vals: np.ndarray
) -> tuple[Optional[DescriptorRealization], int, int, float]:
    """Fit the samples at the detected rank on a greedily grown subset.

    Starts from ``SELECT_START`` points spread evenly over the grid
    (index-wise, so log grids stay log-spread), fits at the rank of
    :func:`detect_rank`'s rule, evaluates the fit on every held-out sample
    and adds the worst-fitted ones, as the AAA algorithm does (Nakatsukasa,
    Sete & Trefethen, SISC 2018).  A fit is accepted once its largest
    held-out error is at most ``HOLDOUT_RTOL * max|h|`` and the row and
    column stacks agree on the rank; a disagreement only means that more
    points are needed.  Subsets stay even in size, as
    :func:`partition_points` needs an even number of conjugate units, so
    the last possible step is the largest even subset: the whole grid when
    its size is even, all but one sample when it is odd.  That step is
    accepted as it stands, whether or not the stacks agree.

    Returns the realization (None at rank 0), its order, the number of
    points used and the largest held-out error relative to max|h| (NaN
    when nothing was held out).
    """
    n = omega.size
    last = n - n % 2
    scale = float(np.max(np.abs(vals)))
    chosen = np.zeros(n, dtype=bool)
    chosen[np.round(np.linspace(0, n - 1, min(last, SELECT_START))).astype(int)] = True
    while True:
        used = int(np.count_nonzero(chosen))
        data = FrequencyDataset.from_arrays(1j * omega[chosen], vals[chosen])
        pencil = build_pencil(partition_points(close_conjugate(data)))
        report = detect_rank(pencil)
        r = report.rank
        rlz = reduce_to_realization(pencil, r) if r else None
        held = np.flatnonzero(~chosen)
        if held.size == 0:
            return rlz, r, used, math.nan
        fitted = eval_transfer(rlz, 1j * omega[held]) if r else 0.0
        err = np.abs(fitted - vals[held])
        worst = float(np.max(err))
        if used == last or (worst <= HOLDOUT_RTOL * scale and report.ranks_agree):
            return rlz, r, used, worst / scale
        step = min(last - used, max(SELECT_STEP, math.ceil(SELECT_GROWTH * used)))
        # Descending order puts a NaN error, a fit that failed there, first.
        chosen[held[np.argsort(err)[::-1][:step + step % 2]]] = True


def _band_reason(p: complex, omega_min: float, omega_max: float) -> Optional[str]:
    """Why pole p lies outside the band by modulus, or None if it is in it."""
    if abs(p) < omega_min / INBAND_SLACK:
        return "below band"
    if abs(p) > omega_max * INBAND_SLACK:
        return "above band"
    return None


def stability_tag(h: TransferMap, grid, epsilon: float = STABILITY_EPSILON) -> StabilityReport:
    """Measure the antistable content of a transfer from samples alone.

    Samples h at i*grid and fits a Loewner interpolant to the samples at
    the rank :func:`detect_rank` reports, on a subset of the grid grown
    greedily until the fit matches every held-out sample to
    ``HOLDOUT_RTOL`` relative, or on the whole grid when no subset does
    (see ``_fit_on_selected_points``).  It then splits the interpolant and
    takes the L-infinity norm of the antistable part over a
    ``TAG_DENSIFY``-times finer grid augmented with the in-band frequency
    of each antistable conjugate pair, once (the peak of a lightly damped
    mode slips between plain grid points), via :func:`linf_norm_grid`.

    Two guards keep noise from flipping verdicts.  The rank is the shared
    rule of :func:`detect_rank`, whose cut never digs below 100*eps
    relative to the top singular value, since divided differences of clean
    data bottom out near machine precision and modes taken from that floor
    are fiction.  And only an antistable pole inside the sampled band by
    modulus, omega_min <= |p| <= omega_max up to ``INBAND_SLACK``, sets the
    verdict from the tag: the data cannot place poles outside the band
    (Cooman et al., IEEE TMTT 2018), and spurious ones land there.
    Antistable content with no pole in the band reads "stable" when its
    tag is below ``OUT_OF_BAND_FLOOR * max|h|``, and "inconclusive",
    naming the poles, otherwise.  The band rule reads the split's own
    antistable eigenvalues (``StableSplit.antistable_poles``), so no second
    eigenvalue solve runs.

    A split blocked by poles inside the imaginary-axis guard band returns
    verdict "inconclusive" with ``stab_tag`` NaN rather than guessing.  The
    grid is checked by ``_log_grid`` and sampled by ``_eval_on_axis``: a
    sample that is not finite raises :class:`SingularityError` naming the
    first such frequency, and an evaluation that raises has that frequency
    appended to its message.  A one-frequency grid raises
    :class:`ZeroDataError`.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    omega = _log_grid(grid)
    vals = _eval_on_axis(h, omega)
    if omega.size < 2:
        raise ZeroDataError(
            f"a {omega.size}-point grid cannot be fitted: the Loewner partition "
            "needs at least 2 frequencies"
        )
    if np.all(vals == 0.0):
        return StabilityReport(
            stab_tag=0.0, epsilon=epsilon, verdict="stable", order=0
        )

    rlz, r, points_used, holdout_error = _fit_on_selected_points(omega, vals)
    report = partial(
        StabilityReport, epsilon=epsilon, order=r,
        points_used=points_used, holdout_error=holdout_error,
    )
    if r == 0:
        return report(stab_tag=0.0, verdict="stable")

    try:
        split = stable_antistable_split(rlz)
    except BoundaryPoleError as exc:
        return report(stab_tag=math.nan, verdict="inconclusive", detail=str(exc))
    anti = split.antistable_part
    if anti.order == 0:
        return report(stab_tag=0.0, verdict="stable")

    omega_min, omega_max = float(np.min(omega)), float(np.max(omega))
    anti_poles = split.antistable_poles
    reasons = [_band_reason(p, omega_min, omega_max) for p in anti_poles]
    ignored = tuple((complex(p), why) for p, why in zip(anti_poles, reasons) if why)
    report = partial(report, antistable_order=int(anti.order), ignored_poles=ignored)

    # The fine grid starts exactly at omega_min (geomspace pins its
    # endpoints), where a real antistable pole peaks within the band; each
    # conjugate pair in the band adds its own frequency once.
    freqs = anti_poles.imag[(anti_poles.imag >= omega_min) & (anti_poles.imag <= omega_max)]
    probe = np.concatenate([densify_log_grid(omega, TAG_DENSIFY), freqs])
    peak = linf_norm_grid(TransferMap.from_realization(anti), probe)
    if None in reasons:
        return report(
            stab_tag=peak.value,
            verdict="stable" if peak.value < epsilon else "unstable",
            peak_omega=peak.omega,
        )

    floor = OUT_OF_BAND_FLOOR * float(np.max(np.abs(vals)))
    poles_text = ", ".join(f"{p:.4g} ({why})" for p, why in ignored) or "none finite"
    if peak.value < floor:
        return report(
            stab_tag=0.0,
            verdict="stable",
            detail=(
                f"antistable modes outside the sampled band were ignored: tag "
                f"{peak.value:.3g} is below the floor {floor:.3g}; poles {poles_text}"
            ),
        )
    return report(
        stab_tag=math.nan,
        verdict="inconclusive",
        peak_omega=peak.omega,
        detail=(
            f"antistable content outside the sampled band: tag {peak.value:.3g} "
            f"at omega = {peak.omega:g} rad/s is not below the floor "
            f"{floor:.3g}; poles {poles_text}"
        ),
    )


def _delay_grid(omega: np.ndarray, tau: float) -> np.ndarray:
    """The grid a loop with delay ``tau`` is sampled on: ``DELAY_DENSIFY``
    times finer than ``omega`` when tau > 0."""
    return densify_log_grid(omega, DELAY_DENSIFY) if tau > 0 else omega


@dataclass(frozen=True, kw_only=True)
class DelayRow(StabilityReport):
    """One frozen-delay evaluation of the sweep: the row's
    :class:`StabilityReport` and the delay ``tau`` it was taken at."""

    tau: float


@dataclass(frozen=True)
class DelaySweepResult:
    """Stability tags over a list of delays.

    ``destabilizing_delay`` is the first delay whose verdict came back
    "unstable", or None when every row stayed stable (the margin then lies
    beyond the swept range, or below it if nothing was stable at all).
    The rows' delays are checked by ``_check_delays``; each row carries
    the threshold it was tagged with.
    """

    rows: tuple[DelayRow, ...]
    destabilizing_delay: Optional[float]

    def __post_init__(self) -> None:
        _check_delays(row.tau for row in self.rows)


def delay_margin_sweep(
    plant: TransferMap,
    k: TransferMap,
    taus: Sequence[float],
    grid,
    epsilon: float = STABILITY_EPSILON,
    refine_bisect: int = 0,
) -> DelaySweepResult:
    """Run the stability tag on the delayed loop for each frozen delay.

    The loop transfer H*K/(1 + H*K*e^{-tau*s}) is sampled on the given
    grid, densified ``DELAY_DENSIFY`` times for tau > 0.  ``taus`` must be
    non-empty and is checked by ``_check_delays`` before any row runs.
    Rows never abort the sweep; a row whose evaluation fails is recorded as
    "inconclusive" with the error text attached.  A bad ``epsilon`` or grid
    is not such a failure: the first row raises its ``ValueError``.

    With ``refine_bisect`` > 0 and a stable row directly preceding the
    first unstable one, that bracket is bisected the requested number of
    times and the refined upper endpoint is reported as the destabilizing
    delay.
    """
    taus = _check_delays(taus)
    if not taus:
        raise ValueError("no delays requested")
    omega = np.asarray(grid, dtype=float).ravel()

    def run_tau(tau: float) -> DelayRow:
        try:
            loop = closed_loop_delay(plant, k, tau)
            report = stability_tag(loop, _delay_grid(omega, tau), epsilon=epsilon)
        except LoewnerLabError as exc:
            return DelayRow(
                tau=tau,
                stab_tag=math.nan,
                epsilon=epsilon,
                verdict="inconclusive",
                order=0,
                detail=str(exc),
            )
        return DelayRow(tau=tau, **vars(report))

    rows = [run_tau(tau) for tau in taus]

    destabilizing = None
    first_unstable = next(
        (i for i, row in enumerate(rows) if row.verdict == "unstable"), None
    )
    if first_unstable is not None:
        destabilizing = rows[first_unstable].tau
        if refine_bisect > 0 and first_unstable > 0:
            lo_row = rows[first_unstable - 1]
            if lo_row.verdict == "stable":
                lo, hi = lo_row.tau, destabilizing
                for _ in range(int(refine_bisect)):
                    mid = 0.5 * (lo + hi)
                    if run_tau(mid).verdict == "unstable":
                        hi = mid
                    else:
                        lo = mid
                destabilizing = hi
    return DelaySweepResult(rows=tuple(rows), destabilizing_delay=destabilizing)


def nyquist_curve(plant: TransferMap, k: TransferMap, grid) -> np.ndarray:
    """Loop values L(i*omega) with L = plant*k.

    The returned array traces the Nyquist plot over the grid for
    inspection against the critical point -1; a loop delay tau rotates it
    by e^{-i*omega*tau}, which the caller applies.  omega = 0 is accepted.
    """
    return _eval_on_axis(
        lambda s: np.asarray(plant(s), dtype=complex) * np.asarray(k(s), dtype=complex),
        np.asarray(grid, dtype=float).ravel(),
    )
