"""Weighted-sensitivity PI tuning on a frequency grid.

The closed loop of a plant H and controller K = kp + ki/s is scored by the
worst-case Euclidean norm of the weighted channel pair

    z(i*omega) = ( We * S,  Wu * K * S ),    S = 1 / (1 + H*K),

over a frequency grid; the score is the grid estimate of the H-infinity
norm of the stacked performance channel.  H, We and Wu are fixed, so the
tuner samples them once per grid, through the package's grid sampler,
which rejects a sample that is not finite and names its frequency, and
keeps the score's gain-independent parts as real constants per grid
point: with s = i*omega and K = kp - i*ki/omega,

    gamma^2 = max (|We|^2 + |Wu|^2 (kp^2 + ki^2/omega^2))
                  / ((1 + Re L)^2 + (Im L)^2),    L = kp*H + ki*H/s,

so each score is a few real sums of gain products times those constants.
A plant or weight map built on a realization remembers its last grid's
values (:meth:`TransferMap.from_realization`), so tuning the same fit
again on the same grid, or scoring gains on it with
:func:`eval_weighted_performance`, solves none of them again.
The tuner minimizes that score over (kp, ki) with Nelder-Mead (Nelder and
Mead, 1965) restarted from a logarithmic grid of seeds.  The runs advance
in lock-step: each round scores the point every live run waits on in one
pass over the per-grid real constants, for all of them at once, rather
than one pass per seed, and the Nelder-Mead steps between two scores
call no helper function.  The candidates are ranked by the scores
Nelder-Mead returns with them, so no candidate is scored twice.  When the
plant carries a realization, each candidate with a finite score is
screened for closed-loop stability through the descriptor poles of the
actual feedback realization, factored once per candidate, since a pure
grid score cannot see an internal instability that happens to have small
gain on the sampled frequencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .descriptor_ops import (
    DescriptorRealization,
    TransferMap,
    _eval_on_axis,
    _log_grid,
    eval_transfer,
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


# Probe frequencies of fit_pi_gains, in rad/s: above and below the band
# where a PI controller fitted to data around 1 rad/s has its dynamics.
GAIN_PROBE_LOW = 1e-4
GAIN_PROBE_HIGH = 1e3


def fit_pi_gains(controller: DescriptorRealization) -> PIController:
    """Read PI gains off a controller realization's frequency response.

    For K = kp + ki/s the response tends to kp at high frequency while
    s*K(s) tends to ki at low frequency, so two probes recover the gains:
    kp at ``GAIN_PROBE_HIGH`` and ki at ``GAIN_PROBE_LOW``.  Both probes
    are solved in one :func:`eval_transfer` call, so one real QZ.
    """
    s_high, s_low = 1j * GAIN_PROBE_HIGH, 1j * GAIN_PROBE_LOW
    k_high, k_low = eval_transfer(controller, np.array([s_high, s_low])).tolist()
    return PIController(kp=k_high.real, ki=(s_low * k_low).real)


@dataclass(frozen=True)
class _GridSamples:
    """A validated grid and the score's gain-independent real constants.

    With s = i*omega the loop is L = H*K = kp*H + ki*H/s, and
    |K|^2 = kp^2 + ki^2/omega^2.  So each of the score's three parts,
    1 + Re L, Im L and the numerator |We|^2 + |Wu|^2 |K|^2, is a sum over
    the gain columns (1, kp, ki, kp^2, ki^2) of ``_gain_rows``, each times
    a fixed real row over the grid: ``terms[k, j]`` is the row that gain
    column k contributes to part j.

        column    1 + Re L    Im L       numerator
        1         1           0          |We|^2
        kp        Re H        Im H       0
        ki        Re(H/s)     Im(H/s)    0
        kp^2      0           0          |Wu|^2
        ki^2      0           0          |Wu|^2/omega^2

    A zero entry adds an exact zero, which leaves the sum's value as it is.
    """

    omega: np.ndarray
    terms: np.ndarray


def _sample(plant: TransferMap, w: WeightingFilters, grid) -> _GridSamples:
    """Plant and weights sampled by ``_eval_on_axis`` on a grid checked by
    ``_log_grid``, reduced to the score's real constants."""
    # The tracking weight has a pole at omega = 0, so the grid must be positive.
    omega = _log_grid(grid)
    h = _eval_on_axis(plant, omega)
    we = _eval_on_axis(w.we, omega)
    wu = _eval_on_axis(w.wu, omega)
    wu2 = wu.real ** 2 + wu.imag ** 2
    terms = np.zeros((5, 3, omega.size))
    terms[0, 0] = 1.0
    terms[0, 2] = we.real ** 2 + we.imag ** 2
    terms[1, :2] = h.real, h.imag
    # H/s = H/(i*omega) = (Im H - i Re H)/omega.
    terms[2, :2] = h.imag / omega, -h.real / omega
    terms[3, 2] = wu2
    terms[4, 2] = wu2 / omega ** 2
    terms.flags.writeable = False
    return _GridSamples(omega=omega, terms=terms)


def _gain_rows(pairs) -> np.ndarray:
    """The score kernel's gain array: one row (1, kp, ki, kp^2, ki^2) per
    gain pair (kp, ki)."""
    return np.array([(1.0, kp, ki, kp * kp, ki * ki) for kp, ki in pairs])


def _score(samples: _GridSamples, gains: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scores of the gain rows of ``_gain_rows``, one per row.

    One ``einsum`` contraction of ``gains`` with the grid's ``terms`` (see
    :class:`_GridSamples`) gives 1 + Re L, Im L and the numerator at every
    point, and a row's score is the square root of the grid maximum of
    numerator / ((1 + Re L)^2 + (Im L)^2): one max and one ``sqrt`` per
    row.  ``einsum`` sums over the gain columns in a fixed order for each
    row and point; a BLAS product may block the rows and change a value's
    last bit with its batch, so none is used and each row has the bits
    of a one-row call.  Returns the scores and, per row, the index of the
    first grid point where 1 + H*K vanishes, or -1.  A row with such a
    point scores inf; the other rows are computed as if it were not there.
    """
    parts = np.einsum("rk,kjp->rjp", gains, samples.terms)
    re, im, ratio = parts[:, 0], parts[:, 1], parts[:, 2]
    den = re * re
    den += im * im
    singular_at = np.full(len(gains), -1)
    # A point is singular when |1+L| < 1e-12 * max(1, |L|), tested squared
    # on den = |1+L|^2.  If |L| <= 1 that bound is 1e-12.  If |L| > 1, then
    # |L| - 1 <= |1+L| < 1e-12 |L| gives |L| < 1 / (1 - 1e-12), so the
    # bound is below 2e-12.  Every singular point thus has den < 4e-24,
    # and the full test runs only when some point comes that close.  A
    # singular row's quotient is set to inf, so its score is inf.
    if den.min() <= 4e-24:
        re_loop = re - 1.0
        bad = den < 1e-24 * np.maximum(1.0, re_loop * re_loop + im * im)
        rows = bad.any(axis=1)
        singular_at[rows] = np.argmax(bad[rows], axis=1)
        den[rows] = 1.0
        ratio[rows] = math.inf
    ratio /= den
    return np.sqrt(ratio.max(axis=1)), singular_at


def eval_weighted_performance(
    plant: TransferMap, k: PIController, w: WeightingFilters, grid
) -> float:
    """Worst grid value of the weighted closed-loop channel pair.

    Returns max over the grid of the Euclidean norm of
    (We*S, Wu*K*S) with S = 1/(1 + H*K), computed by the tuner's own
    score kernel from the grid's real constants, so it equals the score
    the tuner gives the same gains bit for bit.  Raises
    :class:`LoopSingularityError` when 1 + H*K underflows at a grid point,
    and :class:`SingularityError` naming the frequency when a sample of
    the plant or a weight is not finite.
    """
    samples = _sample(plant, w, grid)
    gamma, singular_at = _score(samples, _gain_rows([(k.kp, k.ki)]))
    if singular_at[0] >= 0:
        raise LoopSingularityError(
            f"1 + H*K vanishes at omega = {samples.omega[singular_at[0]]:g} rad/s"
        )
    return float(gamma[0])


# Range of both PI gains searched by optimize_pi.
GAIN_BOX = (1e-3, 10.0)

# Nelder-Mead (Nelder and Mead, Comput. J. 7, 1965) in scipy's bounded
# variant: reflection, expansion, contraction and shrink coefficients, the
# initial steps off the seed, and the stopping rules.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
_XATOL, _FATOL, _MAXITER, _MAXFEV = 1e-6, 1e-9, 400, 800


class _OutOfEvaluations(Exception):
    """The Nelder-Mead run has spent its evaluations."""


def _nelder_mead(x0, lo: float, hi: float):
    """Bounded Nelder-Mead over two variables, one score at a time.

    A generator: it yields each point it needs scored, as a pair of
    floats, receives the score through ``send`` and finally returns
    ``(x, fun, nfev)``.  Before every yield it counts the evaluation and
    stops once ``_MAXFEV`` are spent, as scipy does.  Every step follows
    scipy's ``minimize(method="Nelder-Mead", bounds=...)`` in the same float
    operations, so it ends on the same bits: initial steps above ``hi``
    are reflected into the box and every point is clipped to ``[lo, hi]``
    (``min(max(v, lo), hi)``), ``iterations`` starts at 1, vertices are
    sorted stably with NaN last, a NaN score anywhere in the final simplex
    makes ``fun`` NaN, and a shrink that runs out of evaluations leaves a
    vertex moved but unscored.

    A tuner op asks for about 1,600 to 1,900 points, so the loop calls no
    helper per point: the evaluation count and its check, the clipping and
    the three-vertex sort are written out in line.
    """
    nfev = 0

    def step_off(v):
        v = (1 + _NONZDELT) * v if v != 0 else _ZDELT
        return 2 * hi - v if v > hi else v

    a, b = min(max(float(x0[0]), lo), hi), min(max(float(x0[1]), lo), hi)
    sim = [(a, b), (min(max(step_off(a), lo), hi), b), (a, min(max(step_off(b), lo), hi))]
    fsim = [math.inf] * 3
    # _MAXFEV exceeds 3, so the starting simplex is always scored in full.
    for k in range(3):
        nfev += 1
        fsim[k] = yield sim[k]

    iterations = 1
    while True:
        f0, f1, f2 = fsim
        if not f0 <= f1 <= f2:
            # Insertion sort of the three vertices, stable, NaN last: vertex
            # j goes before k when fsim[j] < fsim[k], or fsim[k] is NaN and
            # fsim[j] is not.
            if f1 < f0 or (f0 != f0 and f1 == f1):
                sim[0], sim[1], f0, f1 = sim[1], sim[0], f1, f0
            if f2 < f1 or (f1 != f1 and f2 == f2):
                sim[1], sim[2], f1, f2 = sim[2], sim[1], f2, f1
                if f1 < f0 or (f0 != f0 and f1 == f1):
                    sim[0], sim[1], f0, f1 = sim[1], sim[0], f1, f0
            fsim = [f0, f1, f2]
        if not (nfev < _MAXFEV and iterations < _MAXITER):
            break
        (b0, b1), (s0, s1), (w0, w1) = sim
        # Every comparison fails on NaN, as scipy's np.max(...) <= tol does.
        if (
            abs(s0 - b0) <= _XATOL and abs(s1 - b1) <= _XATOL
            and abs(w0 - b0) <= _XATOL and abs(w1 - b1) <= _XATOL
            and abs(f0 - f1) <= _FATOL and abs(f0 - f2) <= _FATOL
        ):
            break
        m0, m1 = (b0 + s0) / 2, (b1 + s1) / 2
        try:
            # Reflection, expansion and outside contraction are each
            # c * xbar - d * worst, clipped to the box; with lo <= hi,
            # lo if lo > v else hi if hi < v else v is min(max(v, lo), hi).
            c, d = 1 + _RHO, _RHO
            v0, v1 = c * m0 - d * w0, c * m1 - d * w1
            xr = (lo if lo > v0 else hi if hi < v0 else v0,
                  lo if lo > v1 else hi if hi < v1 else v1)
            if nfev >= _MAXFEV:
                raise _OutOfEvaluations
            nfev += 1
            fxr = yield xr
            if fxr < f0:
                c, d = 1 + _RHO * _CHI, _RHO * _CHI
                v0, v1 = c * m0 - d * w0, c * m1 - d * w1
                xe = (lo if lo > v0 else hi if hi < v0 else v0,
                      lo if lo > v1 else hi if hi < v1 else v1)
                if nfev >= _MAXFEV:
                    raise _OutOfEvaluations
                nfev += 1
                fxe = yield xe
                sim[2], fsim[2] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < f1:
                sim[2], fsim[2] = xr, fxr
            else:
                if fxr < f2:
                    c, d = 1 + _PSI * _RHO, _PSI * _RHO
                    v0, v1 = c * m0 - d * w0, c * m1 - d * w1
                    xc = (lo if lo > v0 else hi if hi < v0 else v0,
                          lo if lo > v1 else hi if hi < v1 else v1)
                    if nfev >= _MAXFEV:
                        raise _OutOfEvaluations
                    nfev += 1
                    fxc = yield xc
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[2], fsim[2] = xc, fxc
                else:
                    c, d = 1 - _PSI, _PSI
                    v0, v1 = c * m0 + d * w0, c * m1 + d * w1
                    xcc = (lo if lo > v0 else hi if hi < v0 else v0,
                           lo if lo > v1 else hi if hi < v1 else v1)
                    if nfev >= _MAXFEV:
                        raise _OutOfEvaluations
                    nfev += 1
                    fxcc = yield xcc
                    shrink = not fxcc < f2
                    if not shrink:
                        sim[2], fsim[2] = xcc, fxcc
                if shrink:
                    for j in (1, 2):
                        v0, v1 = sim[j]
                        v0, v1 = b0 + _SIGMA * (v0 - b0), b1 + _SIGMA * (v1 - b1)
                        sim[j] = (lo if lo > v0 else hi if hi < v0 else v0,
                                  lo if lo > v1 else hi if hi < v1 else v1)
                        if nfev >= _MAXFEV:
                            raise _OutOfEvaluations
                        nfev += 1
                        fsim[j] = yield sim[j]
            iterations += 1
        except _OutOfEvaluations:
            pass

    fun = math.nan if any(f != f for f in fsim) else fsim[0]
    return sim[0], fun, nfev


def _minimize_all(objective, seeds, lo: float, hi: float) -> list[tuple]:
    """Run :func:`_nelder_mead` from every seed in lock-step.

    Each round sends every live run its last score, collects the point it
    waits on next, and scores all of them with one ``objective`` call,
    which maps a list of points to an array of their scores.  Per point,
    the round loop calls only the generator's ``send`` and two list
    appends; the scores come back as Python floats through one ``tolist``.
    Returns each run's ``(x, fun, nfev)`` in seed order.
    """
    runs = [_nelder_mead(seed, lo, hi) for seed in seeds]
    ends: list[tuple] = [()] * len(runs)
    live, scores = list(range(len(runs))), [None] * len(runs)
    while live:
        waiting, points = [], []
        for i, f in zip(live, scores):
            try:
                points.append(runs[i].send(f))
            except StopIteration as stop:
                ends[i] = stop.value
            else:
                waiting.append(i)
        live = waiting
        if live:
            scores = objective(points).tolist()
    return ends


@dataclass(frozen=True)
class SynthesisResult:
    """Best controller found, its score, and the stability screen outcome.

    ``stable`` is always True: a candidate that fails the screen is never
    returned.  ``stability_checked`` is False exactly when the plant
    carried no realization, in which case descriptor poles could not be
    formed and nothing was screened.
    ``feasible_candidates`` counts the candidates, of the polished seeds
    and the start, that have a finite score and passed the screen.
    """

    controller: PIController
    gamma: float
    stable: bool
    stability_checked: bool
    feasible_candidates: int


def _loop_is_stable(plant_rlz: DescriptorRealization, ctrl: PIController) -> bool:
    """Whether every finite pole of the unity-feedback loop of the plant and
    ``ctrl`` (the array :func:`poles` returns) lies in Re(s) < 0.  The
    loop's one QZ decides its regularity too: a singular or unfactorable
    loop is rejected like an unstable one."""
    try:
        loop_poles = poles(feedback_unity(series(plant_rlz, ctrl.realization())))
    except LoewnerLabError:
        return False
    return bool(np.all(loop_poles.real < 0.0))


def optimize_pi(
    plant: TransferMap,
    w: WeightingFilters,
    grid,
    start: PIController,
) -> SynthesisResult:
    """Minimize the weighted performance score over PI gains.

    Runs Nelder-Mead (Nelder and Mead, Comput. J. 7, 1965) in log10 gain
    space from 7 seeds: the 2 x 3 (kp x ki) interior points of a 4 x 5
    logarithmic grid over ``GAIN_BOX`` squared, plus the user's start.  The
    grid's edge points are left out.  On the lower edge the 5% initial
    step leaves the box and is clipped back onto the seed, so two vertices
    of the starting simplex coincide; on the upper edge it is reflected
    and the run starts on the boundary.  Nelder-Mead assumes a
    nondegenerate starting simplex (Lagarias et al., SIAM J. Optim. 9,
    1998).  On fits of the transport plant no edge run supplied the tuned
    gains; where the optimum lies on the box edge, the interior runs reach
    it within the stop tolerances.  The constants are fixed:
    coefficients rho 1, chi 2, psi 0.5, sigma 0.5; initial steps of 5%
    (0.00025 off a zero coordinate); xatol 1e-6, fatol 1e-9, at most 400
    iterations and 800 evaluations per seed.  Each run reproduces scipy's
    bounded ``minimize(method="Nelder-Mead")`` bit for bit; the runs go in
    lock-step, and every point they wait on in a round is scored in one
    call of the score kernel.  The start itself also competes, so the returned score
    never exceeds the start's score when the start is feasible.  Each
    polished candidate is ranked by the score Nelder-Mead returns with it
    (the objective at its end point), so no candidate is scored a second
    time; of equal scores the first candidate wins.  Every candidate must
    have a finite score and, when the plant carries a realization, a
    strictly stable closed loop.  If nothing qualifies an
    :class:`OptimizationError` is raised.  So a plant whose realization is
    zero, such as ``TransferMap.constant(0.0)``, is refused: its loop keeps
    the PI integrator's pole at s = 0.
    """
    samples = _sample(plant, w, grid)

    gamma, _ = _score(samples, _gain_rows([(start.kp, start.ki)]))
    start_gamma = float(gamma[0])
    if not math.isfinite(start_gamma):
        raise OptimizationError(
            f"start point kp={start.kp:g}, ki={start.ki:g} has no finite score"
        )

    plant_rlz = plant.realization
    check_stability = plant_rlz is not None

    def objective(points) -> np.ndarray:
        # Scalar powers: numpy's vectorized power can differ in the last bit.
        return _score(samples, _gain_rows([(10.0 ** x, 10.0 ** y) for x, y in points]))[0]

    llo, lhi = math.log10(GAIN_BOX[0]), math.log10(GAIN_BOX[1])
    seeds = [
        (a, b)
        for a in np.linspace(llo, lhi, 4)[1:-1]
        for b in np.linspace(llo, lhi, 5)[1:-1]
    ]
    seeds.append(
        (
            min(max(math.log10(abs(start.kp)) if start.kp > 0 else llo, llo), lhi),
            min(max(math.log10(abs(start.ki)) if start.ki > 0 else llo, llo), lhi),
        )
    )

    candidates = [
        (fun, PIController(kp=10.0 ** x[0], ki=10.0 ** x[1]))
        for x, fun, _ in _minimize_all(objective, seeds, llo, lhi)
    ]
    candidates.append((start_gamma, start))

    feasible = [
        (gamma, ctrl) for gamma, ctrl in candidates
        if math.isfinite(gamma)
        and (not check_stability or _loop_is_stable(plant_rlz, ctrl))
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
