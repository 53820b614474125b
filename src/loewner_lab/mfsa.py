"""Sampling-based stability analysis of (possibly irrational) transfers.

The idea: sample the transfer on the imaginary axis, build its Loewner
interpolant, split the interpolant into stable and antistable additive
parts, and measure the L-infinity size of the antistable leftover.  A
stable function leaves (numerically) nothing behind, so the measured gap
acts as a stability tag: below threshold means stable, above means the
data itself certifies an unstable component.  No model of the plant is
needed, only evaluations, which makes the test applicable to closed loops
with dead time and other non-rational elements.

The delay sweep applies the tag to the loop H*K/(1 + H*K*e^{-tau*s}) for a
list of frozen delays and reports the first delay that flips the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .descriptor_ops import (
    TransferMap,
    _eval_on_axis,
    closed_loop_delay,
    densify_log_grid,
    linf_norm_grid,
    stable_antistable_split,
)
from .errors import BoundaryPoleError, LoewnerLabError, SingularityError
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

# Antistable modes further above the sampled band than this factor allows
# are treated as interpolation junk: the data carries no energy there, so
# nothing that far out can be certified either way.
INBAND_SLACK = 1.0 + 1e-7

# The antistable part's norm is read on a grid this many times finer than
# the sampling grid, so a lightly damped peak cannot slip between points.
TAG_DENSIFY = 5

# Delayed loops are sampled this many times finer than the given grid: the
# delay wraps roughly tau*omega_max/(2*pi) extra phase turns that the
# interpolant must resolve.
DELAY_DENSIFY = 4


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of one stability-tag evaluation.

    ``stab_tag`` is the grid L-infinity norm of the antistable part of the
    interpolant (NaN when the verdict is "inconclusive"), ``order`` the
    detected interpolant order, ``peak_omega`` the frequency achieving the
    tag (None when the antistable part is empty), and ``detail`` a short
    diagnostic for inconclusive outcomes.
    """

    stab_tag: float
    epsilon: float
    verdict: str
    order: int
    peak_omega: Optional[float] = None
    antistable_order: int = 0
    detail: str = ""

    def __post_init__(self) -> None:
        if self.verdict not in ("stable", "unstable", "inconclusive"):
            raise ValueError(f"bad verdict {self.verdict!r}")
        if self.verdict != "inconclusive":
            if (self.stab_tag < self.epsilon) != (self.verdict == "stable"):
                raise ValueError(
                    f"verdict {self.verdict!r} inconsistent with "
                    f"stab_tag={self.stab_tag:g}, epsilon={self.epsilon:g}"
                )


def stability_tag(h: TransferMap, grid, epsilon: float = 1e-10) -> StabilityReport:
    """Measure the antistable content of a transfer from samples alone.

    Samples h at i*grid, closes the data under conjugation, builds the
    Loewner interpolant at the rank :func:`detect_rank` reports, splits it,
    and takes the L-infinity norm of the antistable part over a
    ``TAG_DENSIFY``-times finer grid augmented with the frequency of each
    antistable conjugate pair, once (the peak of a lightly damped mode
    slips between plain grid points), via :func:`linf_norm_grid`.

    Two guards keep noise from flipping verdicts.  The rank is the shared
    rule of :func:`detect_rank`, whose cut never digs below 100*eps
    relative to the top singular value, since divided differences of clean
    data bottom out near machine precision and modes taken from that floor
    are fiction.  And antistable modes lying above the sampled band are
    ignored: the data says nothing up there.  The band filter reads the
    split's own antistable eigenvalues (``StableSplit.antistable_poles``),
    so no second eigenvalue solve runs.

    A split blocked by poles inside the imaginary-axis guard band returns
    verdict "inconclusive" with ``stab_tag`` NaN rather than guessing.  A
    sample that is not finite raises :class:`SingularityError` naming the
    first such frequency.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    omega = np.asarray(grid, dtype=float).ravel()
    if omega.size == 0:
        raise ValueError("frequency grid is empty")
    if np.any(omega <= 0):
        raise ValueError("grid frequencies must be strictly positive")

    vals = np.asarray(h(1j * omega), dtype=complex)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise SingularityError(
            f"non-finite sample {complex(vals[k])} (at omega = {omega[k]:g} rad/s)"
        )
    if np.all(vals == 0.0):
        return StabilityReport(
            stab_tag=0.0, epsilon=epsilon, verdict="stable", order=0
        )

    data = close_conjugate(FrequencyDataset.from_arrays(1j * omega, vals))
    pencil = build_pencil(partition_points(data))
    r = detect_rank(pencil).rank
    if r == 0:
        return StabilityReport(
            stab_tag=0.0, epsilon=epsilon, verdict="stable", order=0
        )
    interpolant = reduce_to_realization(pencil, r)

    try:
        split = stable_antistable_split(interpolant)
    except BoundaryPoleError as exc:
        return StabilityReport(
            stab_tag=math.nan,
            epsilon=epsilon,
            verdict="inconclusive",
            order=r,
            detail=str(exc),
        )
    anti = split.antistable_part
    if anti.order == 0:
        return StabilityReport(
            stab_tag=0.0, epsilon=epsilon, verdict="stable", order=r
        )

    omega_max = float(np.max(omega))
    anti_poles = split.antistable_poles
    in_band = anti_poles[np.abs(anti_poles.imag) <= omega_max * INBAND_SLACK]
    if in_band.size == 0:
        return StabilityReport(
            stab_tag=0.0,
            epsilon=epsilon,
            verdict="stable",
            order=r,
            antistable_order=int(anti.order),
            detail="antistable modes outside the sampled band were ignored",
        )

    # The fine grid starts exactly at omega_min (geomspace pins its
    # endpoints), where a real antistable pole peaks within the band; each
    # conjugate pair adds its own frequency once.
    probe = np.concatenate(
        [densify_log_grid(omega, TAG_DENSIFY), in_band.imag[in_band.imag > 0.0]]
    )
    peak = linf_norm_grid(TransferMap.from_realization(anti), probe)
    return StabilityReport(
        stab_tag=peak.value,
        epsilon=epsilon,
        verdict="stable" if peak.value < epsilon else "unstable",
        order=r,
        peak_omega=peak.omega,
        antistable_order=int(anti.order),
    )


def _delay_grid(omega: np.ndarray, tau: float) -> np.ndarray:
    """The grid a loop with delay ``tau`` is sampled on: ``DELAY_DENSIFY``
    times finer than ``omega`` when tau > 0."""
    return densify_log_grid(omega, DELAY_DENSIFY) if tau > 0 else omega


@dataclass(frozen=True)
class DelayRow:
    """One frozen-delay evaluation of the sweep."""

    tau: float
    stab_tag: float
    verdict: str
    order: int = 0
    detail: str = ""


@dataclass(frozen=True)
class DelaySweepResult:
    """Stability tags over a list of delays.

    ``destabilizing_delay`` is the first delay whose verdict came back
    "unstable", or None when every row stayed stable (the margin then lies
    beyond the swept range, or below it if nothing was stable at all).
    """

    rows: tuple[DelayRow, ...]
    destabilizing_delay: Optional[float]
    epsilon: float

    def __post_init__(self) -> None:
        taus = [row.tau for row in self.rows]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("sweep rows must be ordered by ascending delay")


def delay_margin_sweep(
    plant: TransferMap,
    k: TransferMap,
    taus: Sequence[float],
    grid,
    epsilon: float = 1e-10,
    refine_bisect: int = 0,
) -> DelaySweepResult:
    """Run the stability tag on the delayed loop for each frozen delay.

    The loop transfer H*K/(1 + H*K*e^{-tau*s}) is sampled on the given
    grid, densified ``DELAY_DENSIFY`` times for tau > 0.  Rows never abort
    the sweep; a row whose evaluation fails is recorded as "inconclusive"
    with the error text attached.

    With ``refine_bisect`` > 0 and a stable row directly preceding the
    first unstable one, that bracket is bisected the requested number of
    times and the refined upper endpoint is reported as the destabilizing
    delay.
    """
    taus = [float(t) for t in taus]
    if not taus:
        raise ValueError("no delays requested")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("delays must be strictly ascending")
    if any(t < 0 for t in taus):
        raise ValueError("delays must be nonnegative")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    omega = np.asarray(grid, dtype=float).ravel()

    def run_tau(tau: float) -> DelayRow:
        try:
            loop = closed_loop_delay(plant, k, tau)
            report = stability_tag(loop, _delay_grid(omega, tau), epsilon=epsilon)
        except LoewnerLabError as exc:
            return DelayRow(
                tau=tau,
                stab_tag=math.nan,
                verdict="inconclusive",
                detail=str(exc),
            )
        return DelayRow(
            tau=tau,
            stab_tag=report.stab_tag,
            verdict=report.verdict,
            order=report.order,
            detail=report.detail,
        )

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
    return DelaySweepResult(
        rows=tuple(rows), destabilizing_delay=destabilizing, epsilon=epsilon
    )


def nyquist_curve(plant: TransferMap, k: TransferMap, tau: float, grid) -> np.ndarray:
    """Loop values L(i*omega)*e^{-i*omega*tau} with L = plant*k.

    The returned array traces the Nyquist plot over the grid for
    inspection against the critical point -1.
    """
    omega = np.asarray(grid, dtype=float).ravel()
    if omega.size == 0:
        raise ValueError("frequency grid is empty")
    if tau < 0:
        raise ValueError(f"delay must be nonnegative, got {tau}")
    loop = _eval_on_axis(
        lambda s: np.asarray(plant(s), dtype=complex) * np.asarray(k(s), dtype=complex),
        omega,
    )
    return loop * np.exp(-1j * omega * tau)
