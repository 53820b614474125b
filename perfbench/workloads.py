"""The three benchmark workloads.

Each workload is built from a seed (its set-up), draws the input of
operation ``i`` from the seed and ``i`` alone (:meth:`make_input`), runs
one operation through the public ``loewner_lab`` API (:meth:`run`) and
checks the output against invariants a correct program must keep
(:meth:`check`, which returns a list of problems).  The checks never use
the acceptance values the library is known to miss.

- ``design``: data -> model -> controller on seeded plant variants
  (CLI ``approximate`` plus ``lddc`` for both reference models).
- ``pi_tune``: ``optimize_pi`` against the detected-rank fit of a seeded
  variant of the built-in plant (CLI ``synth``).
- ``delay_sweep``: ``delay_margin_sweep`` of the built-in plant under
  PI(0.191, 0.0252) at seeded delays on both sides of the analytic delay
  margin (CLI ``delay-sweep``).

Why each workload exists, and which per-layer metric should move which
end-to-end metric on it, is written down in METRICS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from loewner_lab import (
    FrequencyDataset,
    PIController,
    PlantParameters,
    TransferMap,
    build_pencil,
    close_conjugate,
    closed_loop_reference,
    default_weights,
    delay_margin_sweep,
    detect_rank,
    eval_plant,
    eval_transfer,
    eval_weighted_performance,
    fit_pi_gains,
    ideal_controller_response,
    load_csv,
    optimize_pi,
    partition_points,
    reduce_controller,
    reduce_to_realization,
    sample_grid,
    save_csv,
    second_order_reference,
    small_gain_bound,
)

# The paper grid: 200 log-spaced points from 2*pi/100 to 2*pi rad/s.
GRID_N = 200
W_MIN = 2.0 * math.pi * 1e-2
W_MAX = 2.0 * math.pi
PI_PAPER = PIController(kp=0.191, ki=0.0252)


def op_rng(seed: int, i: int) -> np.random.Generator:
    """Generator for the input of operation ``i``; set-up draws use stream 1."""
    return np.random.default_rng([seed, 0, i])


class Design:
    """One op: a seeded plant variant from samples to LDDC controllers.

    Variants draw omega0 in [2, 4], damping in [0.3, 0.8] and x_m in
    [1.5, 2.5], so every op projects a realization of its own order.
    """

    name = "design"
    min_ops = 8
    residual_max = 1e-6
    gain_tol = 0.02

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.csv = workdir / "design.csv"

    def make_input(self, i: int) -> PlantParameters:
        rng = op_rng(self.seed, i)
        return PlantParameters(
            omega0=rng.uniform(2.0, 4.0),
            damping=rng.uniform(0.3, 0.8),
            x_m=rng.uniform(1.5, 2.5),
        )

    def run(self, p: PlantParameters, t) -> "DesignOutput":
        with t.span("plant_oracle.eval", points=GRID_N):
            pts = sample_grid(GRID_N, W_MIN, W_MAX)
            vals = eval_plant(p, p.x_m, pts)
        with t.span("freq_data.io"):
            save_csv(FrequencyDataset.from_arrays(pts, vals), self.csv)
            data = load_csv(self.csv)
        t.add("freq_data.samples", len(data))
        with t.span("freq_data.closure"):
            closed = close_conjugate(data)
            partition = partition_points(closed)
        with t.span("loewner_core.build"):
            pencil = build_pencil(partition)
        with t.span("loewner_core.rank"):
            rank = detect_rank(pencil).rank
        t.add("loewner_core.rank_sum", rank)
        with t.span("loewner_core.project"):
            rlz = reduce_to_realization(pencil, rank)
        with t.span("descriptor_ops.eval", points=len(closed)):
            fitted = eval_transfer(rlz, closed.points())
        phi = closed.values()
        residual = float(np.max(np.abs(fitted - phi) / np.abs(phi)))

        sweeps = []
        for m_ref in (second_order_reference(),
                      closed_loop_reference(rlz, PI_PAPER.realization())):
            with t.span("lddc.kstar"):
                gamma = small_gain_bound(closed, m_ref)
                kstar = ideal_controller_response(closed, m_ref)
            with t.span("lddc.reduce"):
                sweep = reduce_controller(kstar, range(1, 21), gamma_bound=gamma)
            t.add("lddc.rows", len(sweep.rows))
            t.add("lddc.failed_rows", sum(row.verdict == "failed" for row in sweep.rows))
            sweeps.append(sweep)
        return DesignOutput(rank=rank, residual=residual, sweeps=tuple(sweeps))

    def check(self, p: PlantParameters, out: "DesignOutput") -> list[str]:
        problems = []
        if not out.residual <= self.residual_max:
            problems.append(
                f"residual {out.residual:.3g} at rank {out.rank} exceeds {self.residual_max:g}"
            )
        for label, sweep in zip(("m1", "m2"), out.sweeps):
            errors = [row.error for row in sweep.rows]
            if not all(b <= a for a, b in zip(errors, errors[1:])):
                problems.append(f"{label}: LDDC error column increases: {errors}")
        first = out.sweeps[1].rows[0]
        if first.order != 1 or first.realization is None:
            problems.append("m2: no order-1 controller")
        else:
            gains = fit_pi_gains(first.realization)
            for got, want, what in ((gains.kp, PI_PAPER.kp, "kp"), (gains.ki, PI_PAPER.ki, "ki")):
                if not abs(got - want) <= self.gain_tol * want:
                    problems.append(f"m2 order-1 {what} = {got:.6g}, want {want:g} within 2%")
        return problems


@dataclass(frozen=True)
class DesignOutput:
    rank: int
    residual: float
    sweeps: tuple


def fit(p: PlantParameters):
    """Detected-rank Loewner fit of a plant on the paper grid."""
    pts = sample_grid(GRID_N, W_MIN, W_MAX)
    data = close_conjugate(FrequencyDataset.from_arrays(pts, eval_plant(p, p.x_m, pts)))
    pencil = build_pencil(partition_points(data))
    return reduce_to_realization(pencil, detect_rank(pencil).rank)


class PiTune:
    """One op: ``optimize_pi`` from a seeded start against one fit.

    Set-up fits the built-in plant and three variants whose parameters lie
    within 2% of the built-in ones; at that spread every fit has the same
    order, so op cost differs by the optimizer's path, not by model size.
    Op ``i`` uses fit ``i mod 4``; starts draw kp in [0.05, 0.25] and ki
    in [0.005, 0.04], where every fit's closed loop is stable.
    """

    name = "pi_tune"
    min_ops = 1
    n_fits = 4
    spread = 0.02
    # optimize_pi(extra_starts=20) polishes 4 x 5 grid seeds plus the
    # start, and the start itself competes: 22 candidates per op.
    candidates = 22

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        base = PlantParameters()
        params = [base] + [
            replace(
                base,
                omega0=base.omega0 * (1 + self.spread * rng.uniform(-1, 1)),
                damping=base.damping * (1 + self.spread * rng.uniform(-1, 1)),
                x_m=base.x_m * (1 + self.spread * rng.uniform(-1, 1)),
            )
            for _ in range(self.n_fits - 1)
        ]
        self.plants = [fit(p).transfer_map(label="fit") for p in params]
        self.weights = default_weights()
        self.grid = sample_grid(GRID_N, W_MIN, W_MAX).imag

    def make_input(self, i: int) -> tuple[int, PIController]:
        rng = op_rng(self.seed, i)
        start = PIController(
            kp=10.0 ** rng.uniform(math.log10(0.05), math.log10(0.25)),
            ki=10.0 ** rng.uniform(math.log10(0.005), math.log10(0.04)),
        )
        return i % self.n_fits, start

    def run(self, inp, t):
        k, start = inp
        plant = t.wrap(self.plants[k], "descriptor_ops.eval")
        with t.span("pi_synth.optimize"):
            result = optimize_pi(plant, self.weights, self.grid, start=start)
        t.add("pi_synth.feasible", result.feasible_candidates)
        t.add("pi_synth.candidates", self.candidates)
        return result

    def check(self, inp, result) -> list[str]:
        k, start = inp
        start_score = eval_weighted_performance(self.plants[k], start, self.weights, self.grid)
        problems = []
        if not (result.stable and result.stability_checked):
            problems.append(
                f"stable={result.stable}, stability_checked={result.stability_checked}"
            )
        if not (math.isfinite(result.gamma) and result.gamma <= start_score):
            problems.append(f"gamma {result.gamma:g} is not finite or exceeds the start's {start_score:g}")
        return problems


def delay_margin(p: PlantParameters, kp: float, ki: float) -> float:
    """Analytic delay margin of the plant under PI(kp, ki), without mfsa.

    The loop gain |H K| crosses one exactly once; the margin is the phase
    margin at that crossover divided by its frequency.  Raises if the
    loop has another number of crossovers or no positive phase margin,
    where this formula does not give the margin.
    """

    def loop(w):
        s = 1j * w
        return eval_plant(p, p.x_m, s) * (kp + ki / s)

    w = np.geomspace(1e-4, 1e3, 70001)
    above = np.abs(loop(w)) > 1.0
    idx = np.flatnonzero(above[:-1] != above[1:])
    if idx.size != 1:
        raise RuntimeError(f"loop gain crosses one {idx.size} times, expected once")
    lo, hi = w[idx[0]], w[idx[0] + 1]
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        if abs(loop(mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    wc = math.sqrt(lo * hi)
    phase_margin = (np.angle(loop(wc)) + math.pi) % (2.0 * math.pi)
    if not 0.0 < phase_margin < math.pi:
        raise RuntimeError(f"phase margin {phase_margin:g} rad outside (0, pi)")
    return float(phase_margin / wc)


class DelaySweep:
    """One op: a two-delay ``delay_margin_sweep``, one delay per side.

    The built-in plant under PI(0.191, 0.0252) on the paper grid (densified
    to 800 points by the sweep).  Stable-side delays come from the CLI's
    default window [4.6, 5.5] s, unstable-side ones from the window of the
    same width mirrored across the margin, so no delay lies within 0.13 s
    of it.  Verdicts are checked against :func:`delay_margin`.
    """

    name = "delay_sweep"
    min_ops = 2
    stable_side = (4.6, 5.5)
    unstable_side = (5.76, 6.66)
    guard = 0.1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        p = PlantParameters()
        self.plant = TransferMap.from_callable(
            lambda s: eval_plant(p, p.x_m, s), label="transport plant"
        )
        self.controller = PI_PAPER.transfer_map()
        self.grid = sample_grid(GRID_N, W_MIN, W_MAX).imag
        self.margin = delay_margin(p, PI_PAPER.kp, PI_PAPER.ki)
        if not (self.stable_side[1] + self.guard < self.margin
                < self.unstable_side[0] - self.guard):
            raise RuntimeError(f"delay windows too close to the margin {self.margin:.4f} s")

    def make_input(self, i: int) -> list[float]:
        rng = op_rng(self.seed, i)
        return [rng.uniform(*self.stable_side), rng.uniform(*self.unstable_side)]

    def run(self, taus, t):
        plant = t.wrap(self.plant, "plant_oracle.eval")
        k = t.wrap(self.controller, "descriptor_ops.eval")
        with t.span("mfsa.sweep"):
            result = delay_margin_sweep(plant, k, taus, self.grid, refine_bisect=0)
        t.add("mfsa.rows", len(result.rows))
        t.add("mfsa.inconclusive_rows", sum(row.verdict == "inconclusive" for row in result.rows))
        return result

    def check(self, taus, result) -> list[str]:
        if [row.tau for row in result.rows] != taus:
            return [f"rows {[row.tau for row in result.rows]} do not match delays {taus}"]
        problems = []
        for row in result.rows:
            want = "stable" if row.tau < self.margin else "unstable"
            if row.verdict != want:
                problems.append(
                    f"tau {row.tau:.4f}: verdict {row.verdict}, oracle says {want} "
                    f"(margin {self.margin:.4f} s)"
                )
        return problems


WORKLOADS = {w.name: w for w in (Design, PiTune, DelaySweep)}
