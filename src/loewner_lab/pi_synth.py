"""Weighted-sensitivity PI tuning on a frequency grid.

The closed loop of a plant H and controller K = kp + ki/s is scored by the
worst-case Euclidean norm of the weighted channel pair

    z(i*omega) = ( We * S,  Wu * K * S ),    S = 1 / (1 + H*K),

over a frequency grid; the score is the grid estimate of the H-infinity
norm of the stacked performance channel.  H, We and Wu are fixed, so the
tuner samples them once per grid, through the package's grid sampler,
which rejects a sample that is not finite and names its frequency; every
score reuses those samples and only K changes from one score to the next.
The tuner minimizes that score over (kp, ki) with Nelder-Mead restarted
from a logarithmic grid of seeds and ranks the candidates by the scores
Nelder-Mead returns with them, so no candidate is scored twice.  Each
distinct candidate with a finite score is screened once for closed-loop
stability through the descriptor poles of the actual feedback
realization, since a pure grid score cannot see an internal instability
that happens to have small gain on the sampled frequencies.

``scipy.optimize`` is imported on the first :func:`optimize_pi` call, not
with this module.  It is the only part of the package that runs
Nelder-Mead, and the import pulls in scipy.special, scipy.fft and
scipy.sparse (about 0.3 s and 20 MB), which every other entry point --
the Loewner fit, LDDC and MFSA -- would otherwise pay for at start-up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .descriptor_ops import (
    DescriptorRealization,
    TransferMap,
    _eval_on_axis,
    feedback_unity,
    poles,
    series,
)
from .errors import LoewnerLabError, LoopSingularityError, OptimizationError

__all__ = [
    "PIController",
    "WeightingFilters",
    "SynthesisResult",
    "default_weights",
    "fit_pi_gains",
    "eval_weighted_performance",
    "optimize_pi",
]


@dataclass(frozen=True)
class PIController:
    """Proportional-integral controller kp + ki/s."""

    kp: float
    ki: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "kp", float(self.kp))
        object.__setattr__(self, "ki", float(self.ki))
        if not (math.isfinite(self.kp) and math.isfinite(self.ki)):
            raise ValueError(f"gains must be finite, got kp={self.kp}, ki={self.ki}")

    def realization(self) -> DescriptorRealization:
        return DescriptorRealization(
            E=np.array([[1.0]]),
            A=np.array([[0.0]]),
            B=np.array([[1.0]]),
            C=np.array([[self.ki]]),
            D=self.kp,
        )

    def transfer_map(self) -> TransferMap:
        label = f"PI(kp={self.kp:g}, ki={self.ki:g})"
        return TransferMap.from_realization(self.realization(), label=label)

    def frequency_response(self, omega) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        return self.kp + self.ki / (1j * omega)


@dataclass(frozen=True)
class WeightingFilters:
    """Sensitivity weight ``we`` and control-effort weight ``wu``."""

    we: TransferMap
    wu: TransferMap


def default_weights() -> WeightingFilters:
    """Integral-action tracking weight and a high-frequency effort weight.

    we(s) = 10 (s+1)/s penalizes steady-state error hard, wu(s) =
    (s+10)/(s+1000) leaves low-frequency actuation nearly free while
    damping fast control action.
    """
    we = DescriptorRealization(
        E=np.array([[1.0]]),
        A=np.array([[0.0]]),
        B=np.array([[1.0]]),
        C=np.array([[10.0]]),
        D=10.0,
    )
    wu = DescriptorRealization(
        E=np.array([[1.0]]),
        A=np.array([[-1000.0]]),
        B=np.array([[1.0]]),
        C=np.array([[-990.0]]),
        D=1.0,
    )
    return WeightingFilters(
        we=TransferMap.from_realization(we, label="tracking weight 10(s+1)/s"),
        wu=TransferMap.from_realization(wu, label="effort weight (s+10)/(s+1000)"),
    )


def fit_pi_gains(
    controller,
    omega_low: float = 1e-4,
    omega_high: float = 1e3,
) -> PIController:
    """Read PI gains off a controller's frequency response.

    For K = kp + ki/s the response tends to kp at high frequency while
    s*K(s) tends to ki at low frequency, so two probes recover the gains.
    The probe frequencies should sit above and below the band where the
    controller actually has dynamics; the defaults suit data bands around
    1 rad/s.
    """
    if isinstance(controller, DescriptorRealization):
        controller = TransferMap.from_realization(controller)
    kp = float(np.real(controller(1j * omega_high)))
    s_low = 1j * omega_low
    ki = float(np.real(s_low * controller(s_low)))
    return PIController(kp=kp, ki=ki)


@dataclass(frozen=True)
class _GridSamples:
    """Plant and weights sampled once at i*omega on a validated grid."""

    omega: np.ndarray
    s: np.ndarray
    h: np.ndarray
    we: np.ndarray
    wu: np.ndarray


def _sample(plant: TransferMap, w: WeightingFilters, grid) -> _GridSamples:
    omega = np.asarray(grid, dtype=float).ravel()
    if omega.size == 0:
        raise ValueError("frequency grid is empty")
    if np.any(omega <= 0.0):
        raise ValueError(
            "grid must contain strictly positive frequencies only (the "
            "tracking weight has a pole at omega = 0)"
        )
    return _GridSamples(
        omega=omega,
        s=1j * omega,
        h=_eval_on_axis(plant, omega),
        we=_eval_on_axis(w.we, omega),
        wu=_eval_on_axis(w.wu, omega),
    )


def _score(samples: _GridSamples, kp: float, ki: float) -> float:
    # Same bits as PIController(kp, ki).frequency_response(samples.omega).
    kvals = kp + ki / samples.s
    loop = samples.h * kvals
    den = 1.0 + loop
    # A point is singular when |1+L| < 1e-12 * max(1, |L|).  If |L| <= 1
    # that bound is 1e-12.  If |L| > 1, then |L| - 1 <= |1+L| < 1e-12 |L|
    # gives |L| < 1 / (1 - 1e-12), so the bound is below 2e-12.  Every
    # singular point thus has |1+L| < 2e-12, and the full test runs only
    # when some point comes that close.
    if np.min(np.abs(den)) <= 2e-12:
        bad = np.abs(den) < 1e-12 * np.maximum(1.0, np.abs(loop))
        if np.any(bad):
            idx = int(np.argmax(bad))
            raise LoopSingularityError(
                f"1 + H*K vanishes at omega = {samples.omega[idx]:g} rad/s"
            )
    sens = 1.0 / den
    ch_e = np.abs(samples.we * sens)
    ch_u = np.abs(samples.wu * kvals * sens)
    return float(np.max(np.hypot(ch_e, ch_u)))


def eval_weighted_performance(
    plant: TransferMap, k: PIController, w: WeightingFilters, grid
) -> float:
    """Worst grid value of the weighted closed-loop channel pair.

    Returns max over the grid of the Euclidean norm of
    (We*S, Wu*K*S) with S = 1/(1 + H*K).  Raises
    :class:`LoopSingularityError` when 1 + H*K underflows at a grid point,
    and :class:`SingularityError` naming the frequency when a sample of
    the plant or a weight is not finite.
    """
    return _score(_sample(plant, w, grid), k.kp, k.ki)


@dataclass(frozen=True)
class SynthesisResult:
    """Best controller found, its score, and the stability screen outcome.

    ``stable`` is always True: a candidate that fails the screen is never
    returned.  ``stability_checked`` is False when the plant carried no
    realization (or has an identically zero response), in which case
    descriptor poles could not be formed and nothing was screened.
    ``feasible_candidates`` counts the candidates, of the polished seeds
    and the start, that have a finite score and passed the screen.  It
    depends on the last bits of the fit: one seed of the identified
    transport plant ends stable or unstable with them.
    """

    controller: PIController
    gamma: float
    stable: bool
    stability_checked: bool
    feasible_candidates: int


def _loop_is_stable(plant_rlz: DescriptorRealization, ctrl: PIController) -> bool:
    try:
        loop = feedback_unity(series(plant_rlz, ctrl.realization()))
        spectrum = poles(loop)
    except LoewnerLabError:
        return False
    return bool(np.all(spectrum.finite.real < 0.0))


def optimize_pi(
    plant: TransferMap,
    w: WeightingFilters,
    grid,
    start: PIController,
    gain_box: tuple[float, float] = (1e-3, 10.0),
    extra_starts: int = 20,
) -> SynthesisResult:
    """Minimize the weighted performance score over PI gains.

    Runs Nelder-Mead in log10 gain space from ``extra_starts`` seeds laid
    out logarithmically over ``gain_box`` squared, plus the user's start.
    The start itself also competes, so the returned score never exceeds
    the start's score when the start is feasible.  Each polished candidate
    is ranked by the score Nelder-Mead returns with it (``res.fun``, the
    objective at ``res.x``), so no candidate is scored a second time; of
    equal scores the first candidate wins.  Every candidate must have a
    finite score and, when the plant carries a realization with a nonzero
    response, a strictly stable closed loop; each distinct gain pair is
    screened once.  If nothing qualifies an :class:`OptimizationError` is
    raised.
    """
    lo, hi = float(gain_box[0]), float(gain_box[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"bad gain box {gain_box}")
    samples = _sample(plant, w, grid)

    def score(kp: float, ki: float) -> float:
        try:
            return _score(samples, kp, ki)
        except LoopSingularityError:
            return math.inf

    start_gamma = score(start.kp, start.ki)
    if not math.isfinite(start_gamma):
        raise OptimizationError(
            f"start point kp={start.kp:g}, ki={start.ki:g} has no finite score"
        )

    plant_rlz = plant.realization
    zero_response = bool(np.all(samples.h == 0.0))
    check_stability = plant_rlz is not None and not zero_response

    def objective(x) -> float:
        return score(10.0 ** x[0], 10.0 ** x[1])

    llo, lhi = math.log10(lo), math.log10(hi)
    n_kp = max(1, int(round(math.sqrt(extra_starts))))
    n_ki = max(1, extra_starts // n_kp)
    seed_kp = np.linspace(llo, lhi, n_kp)
    seed_ki = np.linspace(llo, lhi, n_ki)
    seeds = [(a, b) for a in seed_kp for b in seed_ki]
    seeds.append(
        (
            min(max(math.log10(abs(start.kp)) if start.kp > 0 else llo, llo), lhi),
            min(max(math.log10(abs(start.ki)) if start.ki > 0 else llo, llo), lhi),
        )
    )

    import scipy.optimize  # deferred; see the module docstring

    def polish(seed) -> tuple[float, PIController]:
        res = scipy.optimize.minimize(
            objective,
            x0=np.array(seed, dtype=float),
            method="Nelder-Mead",
            bounds=[(llo, lhi), (llo, lhi)],
            options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 400, "maxfev": 800},
        )
        return float(res.fun), PIController(kp=10.0 ** res.x[0], ki=10.0 ** res.x[1])

    candidates = [polish(seed) for seed in seeds]
    candidates.append((start_gamma, start))

    # Several seeds often converge to the same gains; screen each pair once.
    @functools.cache
    def stable(ctrl: PIController) -> bool:
        return _loop_is_stable(plant_rlz, ctrl)

    feasible = [
        (gamma, ctrl) for gamma, ctrl in candidates
        if math.isfinite(gamma) and (not check_stability or stable(ctrl))
    ]
    if not feasible:
        raise OptimizationError(
            "no candidate achieved a finite score with a stable closed loop"
        )
    gamma, ctrl = min(feasible, key=lambda c: c[0])
    return SynthesisResult(
        controller=ctrl,
        gamma=gamma,
        stable=True,
        stability_checked=check_stability,
        feasible_candidates=len(feasible),
    )
