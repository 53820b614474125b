"""Weighted-sensitivity PI scoring and tuning.

Closed-form references: the weights are checked against their rational
formulas, the degenerate plants (zero, constant) against hand-computed
channel norms, and the tuner against a brute-force grid evaluation of its
own objective.  The tuner's Nelder-Mead is checked against
``scipy.optimize.minimize``, which the package itself does not import.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize

from helpers import modal_realization
from loewner_lab import descriptor_ops, pi_synth
from loewner_lab.descriptor_ops import (
    DescriptorRealization,
    TransferMap,
    eval_transfer,
    feedback_unity,
    poles,
    series,
)
from loewner_lab.errors import LoopSingularityError, OptimizationError
from loewner_lab.freq_data import FrequencyDataset, close_conjugate, partition_points
from loewner_lab.loewner_core import build_pencil, detect_rank, reduce_to_realization
from loewner_lab.pi_synth import (
    PIController,
    WeightingFilters,
    default_weights,
    eval_weighted_performance,
    fit_pi_gains,
    optimize_pi,
)

GRID = np.geomspace(1e-2, 1e2, 50)


def we_formula(omega):
    s = 1j * np.asarray(omega, dtype=float)
    return 10.0 * (s + 1.0) / s


def wu_formula(omega):
    s = 1j * np.asarray(omega, dtype=float)
    return (s + 10.0) / (s + 1000.0)


def spy_nelder_mead(monkeypatch):
    """Record every Nelder-Mead run's arguments and ``(x, fun, nfev)``.

    Runs are recorded in seed order, each as ``[args, end]``; ``end`` is
    filled in when the run finishes.
    """
    runs = []
    nelder_mead = pi_synth._nelder_mead

    def spy(*args):
        record = [args, None]
        runs.append(record)

        def run():
            record[1] = yield from nelder_mead(*args)
            return record[1]

        return run()

    monkeypatch.setattr(pi_synth, "_nelder_mead", spy)
    return runs


def spy_score_rows(monkeypatch):
    """Record the number of gain pairs of each scoring call."""
    rows = []
    score = pi_synth._score

    def spy(samples, gains):
        rows.append(len(gains))
        return score(samples, gains)

    monkeypatch.setattr(pi_synth, "_score", spy)
    return rows


def drive(f, x0, lo, hi):
    """Run the Nelder-Mead generator on a scalar objective.

    Returns its ``(x, fun, nfev)`` and the points it asked for, in order.
    """
    run, points = pi_synth._nelder_mead(x0, lo, hi), []
    try:
        x = next(run)
        while True:
            points.append(x)
            x = run.send(f(x))
    except StopIteration as stop:
        return stop.value, points


def oracle(f, x0, lo, hi):
    """scipy's bounded Nelder-Mead with the tuner's options, and its calls."""
    points = []

    def g(v):
        points.append((float(v[0]), float(v[1])))
        return f(points[-1])

    # An inf or NaN plateau makes scipy's own convergence test subtract
    # inf from inf, which numpy flags.
    with np.errstate(invalid="ignore"):
        res = scipy.optimize.minimize(
            g, np.array(x0, dtype=float), method="Nelder-Mead",
            bounds=[(lo, hi), (lo, hi)],
            options={"xatol": 1e-6, "fatol": 1e-9, "maxiter": 400, "maxfev": 800},
        )
    return res, points


def same_bits(a, b) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def assert_matches_scipy(f, x0, lo, hi):
    """Same evaluated points, end, score and evaluation count as scipy."""
    (x, fun, nfev), points = drive(f, x0, lo, hi)
    res, want = oracle(f, x0, lo, hi)
    assert points == want
    assert x == (res.x[0], res.x[1])
    assert same_bits(fun, float(res.fun))
    assert nfev == res.nfev == len(points)
    return res


def run_spied(plant, w, grid, start, monkeypatch):
    """optimize_pi with its polished ends and stability screens recorded.

    Returns the result, the 8 candidates (each Nelder-Mead end in seed
    order, then the start) and the screen calls as ((kp, ki), stable) in
    call order.
    """
    verdicts = []
    runs, screen = spy_nelder_mead(monkeypatch), pi_synth._loop_is_stable

    def screen_spy(rlz, ctrl):
        stable = screen(rlz, ctrl)
        verdicts.append(((ctrl.kp, ctrl.ki), stable))
        return stable

    monkeypatch.setattr(pi_synth, "_loop_is_stable", screen_spy)
    res = optimize_pi(plant, w, grid, start=start)
    candidates = [PIController(10.0 ** x[0], 10.0 ** x[1]) for _, (x, _, _) in runs]
    candidates.append(start)
    return res, candidates, verdicts


def count_feasible(plant, w, grid, candidates, stable):
    """Candidates with a finite score whose screen read stable."""
    return sum(
        1 for c in candidates
        if math.isfinite(eval_weighted_performance(plant, c, w, grid))
        and stable[(c.kp, c.ki)]
    )


def best_of_former_layout(plant, w, grid, start):
    """Best ``(gamma, controller)`` of the former 4 x 5 grid seeds plus the start.

    Replays every run through ``_minimize_all`` with the tuner's objective
    and keeps the tuner's selection: finite score, stable loop, lowest
    score, first of equal scores.
    """
    samples = pi_synth._sample(plant, w, grid)

    def objective(points):
        gains = pi_synth._gain_rows([(10.0 ** x, 10.0 ** y) for x, y in points])
        return pi_synth._score(samples, gains)[0]

    lo, hi = (math.log10(g) for g in pi_synth.GAIN_BOX)
    seeds = [(a, b) for a in np.linspace(lo, hi, 4) for b in np.linspace(lo, hi, 5)]
    seeds.append((math.log10(start.kp), math.log10(start.ki)))
    candidates = [
        (fun, PIController(10.0 ** x[0], 10.0 ** x[1]))
        for x, fun, _ in pi_synth._minimize_all(objective, seeds, lo, hi)
    ]
    candidates.append((eval_weighted_performance(plant, start, w, grid), start))
    feasible = [
        (gamma, c) for gamma, c in candidates
        if math.isfinite(gamma) and pi_synth._loop_is_stable(plant.realization, c)
    ]
    return min(feasible, key=lambda c: c[0])


class TestPIController:
    def test_gains_must_be_finite(self):
        with pytest.raises(ValueError):
            PIController(kp=float("nan"), ki=0.1)
        with pytest.raises(ValueError):
            PIController(kp=0.1, ki=float("inf"))

    def test_realization_matches_formula(self):
        k = PIController(kp=0.37, ki=0.021)
        s = 1j * GRID
        via_rlz = eval_transfer(k.realization(), s)
        want = 0.37 + 0.021 / s
        assert np.max(np.abs(via_rlz - want)) < 1e-14
        assert np.max(np.abs(k.transfer_map()(1j * GRID) - want)) < 1e-14

    def test_fit_gains_round_trip(self):
        k = PIController(kp=0.37, ki=0.021)
        back = fit_pi_gains(k.realization())
        assert back.kp == pytest.approx(0.37, rel=1e-6)
        assert back.ki == pytest.approx(0.021, rel=1e-6)

    def test_fit_gains_solve_one_qz(self, monkeypatch):
        # Both probes share one eval_transfer call; every point is solved
        # on its own, so the gains equal those of one call per probe.
        ctrl = modal_realization([(-0.8 + 2.0j, 1.0 - 0.3j)], [(-1e-6, 0.02)], feedthrough=0.4)
        # An equal but separate realization, so ctrl is not factored yet.
        ref = DescriptorRealization(ctrl.E, ctrl.A, ctrl.B, ctrl.C, ctrl.D)
        s_high, s_low = 1j * pi_synth.GAIN_PROBE_HIGH, 1j * pi_synth.GAIN_PROBE_LOW
        kp = float(np.real(eval_transfer(ref, s_high)))
        ki = float(np.real(s_low * eval_transfer(ref, s_low)))
        calls = []
        real = descriptor_ops._real_schur

        def spy(rlz):
            calls.append(rlz)
            return real(rlz)

        monkeypatch.setattr(descriptor_ops, "_real_schur", spy)
        got = fit_pi_gains(ctrl)
        assert calls == [ctrl]
        assert (got.kp, got.ki) == (kp, ki)


class TestDefaultWeights:
    def test_tracking_weight_formula(self):
        w = default_weights()
        got = np.asarray(w.we(1j * GRID))
        assert np.max(np.abs(got - we_formula(GRID))) < 1e-10

    def test_effort_weight_formula(self):
        w = default_weights()
        got = np.asarray(w.wu(1j * GRID))
        assert np.max(np.abs(got - wu_formula(GRID))) < 1e-12


class TestPerformanceScore:
    def test_zero_controller_scores_weighted_sensitivity_peak(self):
        plant = TransferMap.from_realization(modal_realization([], [(-1.0, 1.0)]))
        gamma = eval_weighted_performance(
            plant, PIController(0.0, 0.0), default_weights(), GRID
        )
        assert gamma == pytest.approx(float(np.max(np.abs(we_formula(GRID)))))

    def test_zero_plant_scores_open_channel_pair(self):
        plant = TransferMap.constant(0.0)
        k = PIController(0.4, 0.07)
        gamma = eval_weighted_performance(plant, k, default_weights(), GRID)
        want = float(np.max(np.hypot(
            np.abs(we_formula(GRID)),
            np.abs(wu_formula(GRID) * k.transfer_map()(1j * GRID)),
        )))
        assert gamma == pytest.approx(want)

    def test_grid_order_and_duplicates_do_not_matter(self):
        plant = TransferMap.from_realization(modal_realization([], [(-1.0, 1.0)]))
        k = PIController(0.3, 0.05)
        w = default_weights()
        base = eval_weighted_performance(plant, k, w, GRID)
        shuffled = eval_weighted_performance(plant, k, w, GRID[::-1])
        doubled = eval_weighted_performance(plant, k, w, np.concatenate([GRID, GRID]))
        assert shuffled == base
        assert doubled == base

    def test_grid_validation(self):
        plant = TransferMap.constant(1.0)
        k = PIController(1.0, 1.0)
        with pytest.raises(ValueError):
            eval_weighted_performance(plant, k, default_weights(), [])
        with pytest.raises(ValueError):
            eval_weighted_performance(plant, k, default_weights(), [0.0, 1.0])
        # The tuner samples through the same check.
        lag = TransferMap.from_callable(lambda s: 2.0 / (s + 1.0))
        for bad in (math.nan, math.inf):
            grid = np.where(GRID == GRID[3], bad, GRID)
            with pytest.raises(ValueError, match=f"must be positive and finite, got {bad}"):
                optimize_pi(lag, default_weights(), grid, start=k)

    def test_vanishing_return_difference_is_reported(self):
        plant = TransferMap.constant(-1.0)
        with pytest.raises(LoopSingularityError, match="omega"):
            eval_weighted_performance(
                plant, PIController(1.0, 0.0), default_weights(), GRID
            )

    def test_return_difference_just_inside_the_singular_band(self):
        # |1 + H*K| = 0.5e-12 < 1e-12 * max(1, |H*K|): singular.
        plant = TransferMap.constant(-1.0 + 0.5e-12)
        with pytest.raises(LoopSingularityError, match=r"omega = 0\.01 rad/s"):
            eval_weighted_performance(
                plant, PIController(1.0, 0.0), default_weights(), GRID
            )

    def test_return_difference_just_outside_the_singular_band(self):
        # |1 + H*K| = 1.5e-12 is below the 2e-12 pre-check, so the full
        # test runs and must let it through.
        plant = TransferMap.constant(-1.0 + 1.5e-12)
        gamma = eval_weighted_performance(
            plant, PIController(1.0, 0.0), default_weights(), GRID
        )
        assert math.isfinite(gamma)
        assert gamma > 1e12

    def test_published_gains_on_identified_plant(self, approximant_map, omega_grid):
        # Known reference score for the transport-plant workflow at the
        # published PI gains.
        gamma = eval_weighted_performance(
            approximant_map, PIController(0.191, 0.0252),
            default_weights(), omega_grid,
        )
        assert gamma == pytest.approx(66.954, rel=0.02)

    def test_integral_action_bounds_the_tracking_channel(self):
        # K carries an integrator, so S -> 0 as omega -> 0 and the We
        # channel stays finite even though We itself diverges there.
        plant = TransferMap.from_realization(modal_realization([], [(-1.0, 1.0)]))
        w = WeightingFilters(we=default_weights().we, wu=TransferMap.constant(0.0))
        grid = np.geomspace(1e-8, 1e2, 60)
        gamma = eval_weighted_performance(plant, PIController(1.0, 1.0), w, grid)
        assert math.isfinite(gamma)
        assert gamma < 100.0


class TestOptimizePI:
    def test_zero_plant_drives_gains_to_the_floor(self):
        # With H = 0 the tracking channel is fixed at |We| and the effort
        # channel only grows with the gains, so the box corner wins.  Given
        # as samples alone, the plant is not screened.
        plant = TransferMap.from_callable(lambda s: np.zeros(np.shape(s), complex))
        res = optimize_pi(
            plant, default_weights(), GRID, start=PIController(1.0, 1.0)
        )
        assert res.controller.kp == pytest.approx(1e-3, rel=1e-2)
        assert res.controller.ki == pytest.approx(1e-3, rel=1e-2)
        assert res.gamma == pytest.approx(
            float(np.max(np.abs(we_formula(GRID)))), rel=1e-4
        )
        assert not res.stability_checked
        assert res.stable

    def test_zero_realization_is_screened_and_refused(self):
        # A zero plant with a realization is screened like any other: every
        # loop keeps the PI integrator's pole at s = 0, so nothing passes.
        with pytest.raises(OptimizationError, match="stable closed loop"):
            optimize_pi(
                TransferMap.constant(0.0), default_weights(), GRID,
                start=PIController(1.0, 1.0),
            )

    def test_never_worse_than_the_start(self):
        plant = TransferMap.from_realization(
            modal_realization([(-1.0 + 3.0j, 0.8)], [(-0.5, 1.0)])
        )
        w = default_weights()
        grid = np.geomspace(1e-3, 1e3, 50)
        start = PIController(0.05, 0.01)
        start_gamma = eval_weighted_performance(plant, start, w, grid)
        res = optimize_pi(plant, w, grid, start=start)
        assert res.gamma <= start_gamma * (1.0 + 1e-12)
        assert res.stable
        assert res.stability_checked
        assert res.feasible_candidates >= 1
        replay = eval_weighted_performance(plant, res.controller, w, grid)
        assert replay == pytest.approx(res.gamma)

    def test_beats_a_brute_force_gain_grid(self):
        # Independent check of the tuner: exhaustive 41x41 log sweep of its
        # own objective on a first-order plant (every candidate in the box
        # stabilizes it, so the screen removes nothing).
        plant = TransferMap.from_realization(modal_realization([], [(-1.0, 1.0)]))
        w = default_weights()
        grid = np.geomspace(1e-3, 1e3, 40)
        brute = math.inf
        for kp in np.geomspace(1e-3, 10.0, 41):
            for ki in np.geomspace(1e-3, 10.0, 41):
                val = eval_weighted_performance(
                    plant, PIController(kp, ki), w, grid
                )
                brute = min(brute, val)
        res = optimize_pi(plant, w, grid, start=PIController(0.1, 0.1))
        assert res.gamma <= brute * (1.0 + 1e-3)
        assert res.stable

    def test_matches_brute_force_with_unit_weights(self):
        plant = TransferMap.from_realization(modal_realization([], [(-1.0, 1.0)]))
        one = TransferMap.constant(1.0)
        w = WeightingFilters(we=one, wu=one)
        grid = np.geomspace(1e-2, 1e2, 100)
        brute = math.inf
        for kp in np.geomspace(1e-3, 10.0, 41):
            for ki in np.geomspace(1e-3, 10.0, 41):
                val = eval_weighted_performance(plant, PIController(kp, ki), w, grid)
                brute = min(brute, val)
        res = optimize_pi(plant, w, grid, start=PIController(0.1, 0.1))
        assert res.gamma <= brute * 1.02

    def test_unstabilizable_plant_raises(self):
        # 1/(s - 20) needs kp > 20; the box tops out at 10, so every
        # candidate fails the pole screen.
        plant = TransferMap.from_realization(modal_realization([], [(20.0, 1.0)]))
        with pytest.raises(OptimizationError):
            optimize_pi(
                plant, default_weights(), GRID, start=PIController(1.0, 1.0)
            )

    def test_start_with_no_finite_score_raises(self):
        plant = TransferMap.constant(-1.0)
        with pytest.raises(OptimizationError, match="finite score"):
            optimize_pi(
                plant, default_weights(), GRID, start=PIController(1.0, 0.0)
            )

    def test_callable_plant_skips_the_pole_screen(self):
        plant = TransferMap.from_callable(lambda s: 1.0 / (s + 1.0))
        res = optimize_pi(
            plant, default_weights(), GRID, start=PIController(0.1, 0.1)
        )
        assert not res.stability_checked
        assert res.stable

    def test_plant_is_sampled_once_per_call(self):
        rlz = modal_realization([(-1.0 + 3.0j, 0.8)], [(-0.5, 1.0)])
        inner = TransferMap.from_realization(rlz)
        calls = []

        def counted(s):
            calls.append(s.size)
            return inner.fn(s)

        plant = TransferMap(fn=counted, realization=rlz)
        res = optimize_pi(plant, default_weights(), GRID, start=PIController(0.05, 0.01))
        assert calls == [GRID.size]
        assert res.stability_checked
        assert res.stable

    def test_candidates_are_ranked_by_nelder_mead_scores(self, monkeypatch):
        # The start is scored once and each polished candidate carries the
        # score Nelder-Mead returned with it, so the kernel scores one row
        # for the start plus one per Nelder-Mead evaluation, and never
        # again to rank the candidates.  The runs go in lock-step, one
        # kernel call per round, so the longest run sets the call count.
        plant = TransferMap.from_realization(
            modal_realization([(-1.0 + 3.0j, 0.8)], [(-0.5, 1.0)])
        )
        runs, rows = spy_nelder_mead(monkeypatch), spy_score_rows(monkeypatch)
        res = optimize_pi(plant, default_weights(), GRID, start=PIController(0.05, 0.01))
        nfev = [end[2] for _, end in runs]
        assert len(nfev) == 7
        assert sum(rows) == 1 + sum(nfev)
        assert len(rows) == 1 + max(nfev)
        assert res.stable

    def test_every_seed_ends_where_scipy_ends(self, approximant_map, omega_grid, monkeypatch):
        # The 7 seeds of the tuner on the order-33 fit, each replayed
        # through scipy's bounded Nelder-Mead on the same objective.
        w = default_weights()
        runs = spy_nelder_mead(monkeypatch)
        optimize_pi(approximant_map, w, omega_grid, start=PIController(0.191, 0.0252))
        samples = pi_synth._sample(approximant_map, w, omega_grid)

        def objective(x):
            gamma, _ = pi_synth._score(
                samples, pi_synth._gain_rows([(10.0 ** x[0], 10.0 ** x[1])])
            )
            return float(gamma[0])

        assert len(runs) == 7
        for (x0, lo, hi), end in runs:
            res, _ = oracle(objective, x0, lo, hi)
            assert end == ((res.x[0], res.x[1]), res.fun, res.nfev)

    def test_published_start_on_identified_plant(
        self, approximant_map, omega_grid, monkeypatch
    ):
        # Regression values: scoring every candidate against one set of plant
        # samples must not move the gains, the score or the screen.  The
        # count of feasible candidates is pinned and also recounted from
        # the spied ends and screens.
        w = default_weights()
        res, candidates, verdicts = run_spied(
            approximant_map, w, omega_grid, PIController(0.191, 0.0252), monkeypatch
        )
        assert res.gamma == eval_weighted_performance(
            approximant_map, res.controller, w, omega_grid
        )
        assert res.controller.kp == pytest.approx(0.2268505832570414, rel=1e-9)
        assert res.controller.ki == pytest.approx(0.028209269828526395, rel=1e-9)
        assert res.gamma == pytest.approx(56.790846908499624, rel=1e-9)
        assert res.stable
        assert res.feasible_candidates == 3
        assert res.feasible_candidates == count_feasible(
            approximant_map, w, omega_grid, candidates, dict(verdicts)
        )

    def test_stability_screen_runs_once_per_finite_candidate(
        self, approximant_map, omega_grid, monkeypatch
    ):
        # Every candidate with a finite score is screened, once, in
        # candidate order; a candidate with no finite score is not.
        w = default_weights()
        start = PIController(0.191, 0.0252)
        res, candidates, verdicts = run_spied(
            approximant_map, w, omega_grid, start, monkeypatch
        )
        screened = [key for key, _ in verdicts]
        finite = [
            (c.kp, c.ki) for c in candidates
            if math.isfinite(eval_weighted_performance(approximant_map, c, w, omega_grid))
        ]
        assert len(candidates) == 8
        assert screened == finite
        assert res.feasible_candidates == count_feasible(
            approximant_map, w, omega_grid, candidates, dict(verdicts)
        )

    def test_grid_seeds_start_from_a_nondegenerate_simplex(self, monkeypatch):
        # Every grid seed lies strictly inside the box, and so do the two
        # vertices its initial steps add: none is clipped or reflected, and
        # the three vertices span a triangle.
        plant = TransferMap.from_realization(
            modal_realization([(-1.0 + 3.0j, 0.8)], [(-0.5, 1.0)])
        )
        runs = spy_nelder_mead(monkeypatch)
        optimize_pi(plant, default_weights(), GRID, start=PIController(0.05, 0.01))
        lo, hi = (math.log10(g) for g in pi_synth.GAIN_BOX)
        grid_runs = runs[:-1]
        assert len(grid_runs) == 6
        for (x0, run_lo, run_hi), _ in grid_runs:
            assert (run_lo, run_hi) == (lo, hi)
            run = pi_synth._nelder_mead(x0, lo, hi)
            simplex = [next(run), run.send(1.0), run.send(2.0)]
            assert simplex[0] == x0
            assert all(lo < v < hi for vertex in simplex for v in vertex)
            assert len(set(simplex)) == 3
            (a0, a1), (b0, b1), (c0, c1) = simplex
            assert (b0 - a0) * (c1 - a1) - (b1 - a1) * (c0 - a0) != 0.0

    def test_the_box_edge_seeds_never_won(self, approximant_map, omega_grid):
        # On the order-33 fit the former layout's best candidate came from
        # an interior seed or the start, so its gains and score are the
        # tuner's bit for bit.
        w, start = default_weights(), PIController(0.191, 0.0252)
        res = optimize_pi(approximant_map, w, omega_grid, start=start)
        gamma, best = best_of_former_layout(approximant_map, w, omega_grid, start)
        assert (best.kp, best.ki) == (res.controller.kp, res.controller.ki)
        assert same_bits(gamma, res.gamma)

    def test_an_optimum_on_the_box_edge_is_reached_from_inside(self):
        # Here the optimum lies on the kp = 10 edge.  The former layout's
        # upper-edge seed (1, -2) ended there 1.3e-11 below the best
        # interior run; the interior runs reach the same edge point to
        # within Nelder-Mead's own stop tolerances.
        plant = TransferMap.from_realization(
            modal_realization([(-1.0 + 3.0j, 0.8)], [(-0.5, 1.0)])
        )
        w, start = default_weights(), PIController(0.05, 0.01)
        res = optimize_pi(plant, w, GRID, start=start)
        gamma, best = best_of_former_layout(plant, w, GRID, start)
        assert best.kp == res.controller.kp == pi_synth.GAIN_BOX[1]
        assert abs(math.log10(best.ki) - math.log10(res.controller.ki)) <= pi_synth._XATOL
        assert 0.0 <= res.gamma - gamma <= pi_synth._FATOL


class TestStabilityScreen:
    @staticmethod
    def screen(plant_rlz, ctrl, monkeypatch):
        """Run the screen; return its verdict, the (plant, controller) pairs
        it took loop poles of, and the (A, E, vectors) of every QZ it ran."""
        looped, factored = [], []
        real_loop_poles, real_gges = pi_synth._unity_loop_poles, descriptor_ops._gges

        def loop_spy(g, k):
            looped.append((g, k))
            return real_loop_poles(g, k)

        def gges_spy(A, E, vectors):
            factored.append((A, E, vectors))
            return real_gges(A, E, vectors)

        monkeypatch.setattr(pi_synth, "_unity_loop_poles", loop_spy)
        monkeypatch.setattr(descriptor_ops, "_gges", gges_spy)
        stable = pi_synth._loop_is_stable(plant_rlz, ctrl)
        monkeypatch.undo()
        return stable, looped, factored

    @staticmethod
    def random_plant():
        # Dense, with a feed-through, so feedback divides every array by 1 + D*kp.
        rng = np.random.default_rng(5)
        n = 6
        return DescriptorRealization(
            E=np.eye(n) + 0.1 * rng.standard_normal((n, n)),
            A=rng.standard_normal((n, n)) - 3.0 * np.eye(n),
            B=rng.standard_normal((n, 1)),
            C=rng.standard_normal((1, n)),
            D=0.7,
        )

    @staticmethod
    def singular_e_plant():
        # A stable pair and one algebraic state (a zero row of E) behind a
        # dense transform: the loop's pencil keeps one infinite eigenvalue.
        rng = np.random.default_rng(37)
        Tl = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        Tr = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
        E = np.diag([1.0, 1.0, 0.0])
        A = np.array([[-0.5, 2.0, 0.0], [-2.0, -0.5, 0.0], [0.0, 0.0, 1.0]])
        return DescriptorRealization(
            Tl @ E @ Tr, Tl @ A @ Tr, Tl @ np.ones((3, 1)), np.ones((1, 3)) @ Tr, 0.0
        )

    def plant(self, which, rlz33):
        return {
            "order-33 fit": lambda: rlz33,
            "random plant": self.random_plant,
            "singular E": self.singular_e_plant,
        }[which]()

    @pytest.mark.parametrize("which", ["order-33 fit", "random plant"])
    def test_one_qz_without_vectors_on_the_composed_loops_pencil(self, which, rlz33, monkeypatch):
        plant = self.plant(which, rlz33)
        ctrl = PIController(0.191, 0.0252)
        stable, looped, factored = self.screen(plant, ctrl, monkeypatch)
        assert len(looped) == 1 and looped[0][0] is plant
        assert [vectors for *_, vectors in factored] == [False]
        want = feedback_unity(series(plant, ctrl.realization()))
        for got, ref in zip(factored[0][:2], (want.A, want.E)):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert stable == bool(np.all(poles(want).real < 0.0))

    @pytest.mark.parametrize("which", ["order-33 fit", "random plant", "singular E"])
    def test_loop_poles_are_the_composed_loops_bytes(self, which, rlz33):
        plant = self.plant(which, rlz33)
        k = PIController(0.191, 0.0252).realization()
        got = descriptor_ops._unity_loop_poles(plant, k)
        want = poles(feedback_unity(series(plant, k)))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        # The singular E's algebraic state leaves an infinite eigenvalue,
        # dropped by poles' rule; every other loop keeps all its poles.
        assert got.size == plant.order + 1 - (which == "singular E")

    def test_a_vanishing_return_difference_raises_and_is_rejected(self):
        # 1 + D of the loop is 1 + (-2.0)(0.5) = 0 exactly.
        plant = modal_realization([], [(-1.0, 2.0)], feedthrough=-2.0)
        ctrl = PIController(0.5, 0.1)
        with pytest.raises(LoopSingularityError, match="1 \\+ D vanishes"):
            descriptor_ops._unity_loop_poles(plant, ctrl.realization())
        assert not pi_synth._loop_is_stable(plant, ctrl)

    def test_the_tuner_runs_one_qz_without_vectors_per_finite_candidate(self, rlz33, monkeypatch):
        qz, built = [], []
        real_gges = descriptor_ops._lapack.dgges
        real_post_init = DescriptorRealization.__post_init__

        def gges_spy(sort, A, E, **kwargs):
            if kwargs.get("lwork") != -1:
                qz.append((A.shape[0], kwargs.get("jobvsl", 1), kwargs.get("jobvsr", 1)))
            return real_gges(sort, A, E, **kwargs)

        def post_init_spy(rlz):
            real_post_init(rlz)
            built.append(rlz.order)

        monkeypatch.setattr(descriptor_ops._lapack, "dgges", gges_spy)
        monkeypatch.setattr(DescriptorRealization, "__post_init__", post_init_spy)
        # A fresh plant, so the tuner's own sampling factors it.
        plant = DescriptorRealization(rlz33.E, rlz33.A, rlz33.B, rlz33.C, rlz33.D)
        built.clear()
        res, _, verdicts = run_spied(
            plant.transfer_map(), default_weights(), GRID, PIController(0.191, 0.0252), monkeypatch
        )
        loop_order = plant.order + 1
        assert res.feasible_candidates > 0
        assert qz.count((loop_order, 0, 0)) == len(verdicts) == 8
        # The rest are the plant's and the two weights', with vectors.
        assert sorted(q for q in qz if q[0] != loop_order) == [(1, 1, 1)] * 2 + [(33, 1, 1)]
        assert loop_order not in built


class TestScoreKernel:
    PLANT = modal_realization([(-1.0 + 3.0j, 0.8)], [(-0.5, 1.0)])

    @pytest.fixture()
    def samples(self):
        return pi_synth._sample(
            TransferMap.from_realization(self.PLANT), default_weights(), GRID
        )

    @staticmethod
    def one_pair(samples, kp, ki):
        # The score of one gain pair in the kernel's real arithmetic, written
        # out with scalar gains and without the zero terms: each sum runs
        # over the gain columns (1, kp, ki, kp^2, ki^2) in order.
        t = samples.terms
        re = t[0, 0] + kp * t[1, 0] + ki * t[2, 0]
        im = kp * t[1, 1] + ki * t[2, 1]
        num = t[0, 2] + kp * kp * t[3, 2] + ki * ki * t[4, 2]
        return float(np.sqrt(np.max(num / (re * re + im * im))))

    @staticmethod
    def random_pairs():
        # 64 pairs (kp, ki), one per row.
        rng = np.random.default_rng(0)
        return (10.0 ** rng.uniform(-3.0, 1.0, (2, 64))).T

    def test_each_row_has_the_bits_of_its_one_pair_score(self, samples):
        pairs = self.random_pairs()
        gamma, singular_at = pi_synth._score(samples, pi_synth._gain_rows(pairs))
        assert np.all(singular_at == -1)
        for row, (kp, ki) in enumerate(pairs):
            assert gamma[row] == self.one_pair(samples, kp, ki)
            alone, _ = pi_synth._score(samples, pi_synth._gain_rows([(kp, ki)]))
            assert alone[0] == gamma[row]

    def test_matches_the_complex_channel_formula(self, samples):
        # Independent of the kernel's real rewriting: the max over the grid
        # of hypot(|We*S|, |Wu*K*S|) in complex arithmetic, with S = 1/(1+HK).
        w = default_weights()
        h = TransferMap.from_realization(self.PLANT)(1j * GRID)
        we, wu = w.we(1j * GRID), w.wu(1j * GRID)
        pairs = self.random_pairs()
        gamma, _ = pi_synth._score(samples, pi_synth._gain_rows(pairs))
        for row, (kp, ki) in enumerate(pairs):
            k = kp + ki / (1j * GRID)
            sens = 1.0 / (1.0 + h * k)
            want = float(np.max(np.hypot(np.abs(we * sens), np.abs(wu * k * sens))))
            assert abs(gamma[row] - want) <= 8.0 * np.finfo(float).eps * want

    def test_a_singular_row_scores_inf_and_leaves_the_others_alone(self):
        # H = -1 and K = 1 make 1 + H*K vanish at every grid point.
        samples = pi_synth._sample(TransferMap.constant(-1.0), default_weights(), GRID)
        pairs = [(0.3, 0.05), (1.0, 0.0), (0.05, 0.2)]
        gamma, singular_at = pi_synth._score(samples, pi_synth._gain_rows(pairs))
        assert gamma[1] == math.inf
        assert singular_at.tolist() == [-1, 0, -1]
        for row in (0, 2):
            assert gamma[row] == self.one_pair(samples, *pairs[row])

    def test_evaluation_names_the_singular_frequency(self):
        plant = TransferMap.constant(-1.0 + 0.5e-12)
        with pytest.raises(LoopSingularityError) as err:
            eval_weighted_performance(plant, PIController(1.0, 0.0), default_weights(), GRID)
        assert str(err.value) == "1 + H*K vanishes at omega = 0.01 rad/s"


def tied_plateau(x):
    # inf on one side of a line; elsewhere a staircase of tied scores.
    if x[0] + x[1] > -1.0:
        return math.inf
    return math.floor(4.0 * ((x[0] + 2.0) ** 2 + (x[1] + 1.5) ** 2)) / 4.0


def ridge(x):
    # A steep ridge with fine ripple: Nelder-Mead creeps along it.
    return 100.0 * abs(x[0] - x[1]) + 1e-3 * math.sin(1e5 * x[0])


def bowl(x):
    return (x[0] - 0.3) ** 2 + 2.0 * (x[1] + 0.7) ** 2


class TestNelderMeadMatchesScipy:
    # Every case compares the whole run: the points asked for, the end,
    # its score and the evaluation count.

    def test_seed_at_the_upper_bound_reflects_its_steps(self):
        # 1.05 * 1.0 lies above the box, so both steps reflect to 0.95.
        res = assert_matches_scipy(bowl, (1.0, 1.0), -3.0, 1.0)
        assert res.status == 0

    def test_seed_at_the_lower_bound_clips_its_steps(self):
        assert_matches_scipy(bowl, (-3.0, -2.0), -3.0, 1.0)
        assert_matches_scipy(bowl, (-3.0, -3.0), -3.0, 1.0)

    def test_zero_coordinate_takes_the_small_step(self):
        assert_matches_scipy(bowl, (0.0, 0.0), -3.0, 1.0)

    @pytest.mark.parametrize("x0", [(-2.5, -2.5), (-2.9, -1.6), (-1.0, -0.4), (0.5, -2.9)])
    def test_inf_plateau_and_tied_scores(self, x0):
        assert_matches_scipy(tied_plateau, x0, -3.0, 1.0)

    def test_nan_scores_never_converge(self):
        res = assert_matches_scipy(lambda x: math.nan, (-1.0, -0.5), -3.0, 1.0)
        assert res.status == 1 and math.isnan(res.fun)

    def test_a_nan_vertex_makes_the_end_score_nan(self):
        # Only the seed has a finite score.  Shrinking toward it, the other
        # vertices stop one ulp short of it and keep their NaN, so the
        # run spends its evaluations and reports NaN beside a finite best.
        x0 = (-1.3, -0.3)
        res = assert_matches_scipy(lambda x: 1.0 if x == x0 else math.nan, x0, -3.0, 1.0)
        assert tuple(res.x) == x0 and res.final_simplex[1][0] == 1.0
        assert res.status == 1 and math.isnan(res.fun)

    def test_stop_on_maxiter(self):
        res = assert_matches_scipy(ridge, (-1.0, 0.5), -3.0, 1.0)
        assert res.status == 2 and res.nit == 400

    def test_stop_on_maxfev_in_the_middle_of_a_shrink(self):
        # Scores 1, 2, 3 on the simplex, then a reflection at 0.5 and an
        # accepted expansion at -inf: 5 evaluations.  Every other point
        # scores NaN, which compares less than nothing, so each later
        # iteration reflects, contracts inside and shrinks both vertices:
        # 4 evaluations.  Evaluation 800 = 5 + 4*198 + 3 is the first
        # shrink point, and the second is never scored.
        x0 = (-1.0, -0.5)
        run = pi_synth._nelder_mead(x0, -3.0, 1.0)
        first = [next(run)] + [run.send(f) for f in (1.0, 2.0, 3.0, 0.5)]
        table = dict(zip(first, (1.0, 2.0, 3.0, 0.5, -math.inf)))
        res = assert_matches_scipy(lambda x: table.get(x, math.nan), x0, -3.0, 1.0)
        assert res.status == 1 and res.nfev == 800
        assert res.nit == 1 + 1 + 198


class TestRoundingRobustness:
    @pytest.fixture(scope="class")
    def clean(self, plant_rank, approximant_map, omega_grid):
        res = optimize_pi(
            approximant_map, default_weights(), omega_grid, start=PIController(0.191, 0.0252)
        )
        return plant_rank.rank, res

    @pytest.mark.parametrize("seed", range(5))
    def test_sample_rounding_moves_neither_rank_nor_tuned_gains(
        self, clean, plant_dataset, omega_grid, seed
    ):
        # Relative noise of 1e-15 on every sample is a rounding-level change
        # of the data; the rank, the tuned gains and the score must not see it.
        rng = np.random.default_rng(seed)
        z = plant_dataset.z[plant_dataset.z.imag > 0]
        phi = plant_dataset.phi[plant_dataset.z.imag > 0]
        noise = rng.standard_normal(z.size) + 1j * rng.standard_normal(z.size)
        data = close_conjugate(FrequencyDataset.from_arrays(z, phi * (1.0 + 1e-15 * noise)))
        pencil = build_pencil(partition_points(data))
        rank, res = clean
        assert detect_rank(pencil).rank == rank == 34
        plant = TransferMap.from_realization(reduce_to_realization(pencil, 33))
        got = optimize_pi(plant, default_weights(), omega_grid, start=PIController(0.191, 0.0252))
        assert got.controller.kp == pytest.approx(res.controller.kp, rel=1e-9)
        assert got.controller.ki == pytest.approx(res.controller.ki, rel=1e-9)
        assert got.gamma == pytest.approx(res.gamma, rel=1e-9)
        assert got.feasible_candidates == res.feasible_candidates
