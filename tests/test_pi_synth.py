"""Weighted-sensitivity PI scoring and tuning.

Closed-form references: the weights are checked against their rational
formulas, the degenerate plants (zero, constant) against hand-computed
channel norms, and the tuner against a brute-force grid evaluation of its
own objective.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.optimize

from helpers import modal_realization
from loewner_lab import pi_synth
from loewner_lab.descriptor_ops import TransferMap, eval_transfer
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


def run_spied(plant, w, grid, start, monkeypatch):
    """optimize_pi with its polished ends and stability screens recorded.

    Returns the result, the 22 candidates (each Nelder-Mead end, then the
    start) and the screen calls as ((kp, ki), stable) in call order.
    """
    ends, verdicts = [], []
    minimize, screen = scipy.optimize.minimize, pi_synth._loop_is_stable

    def minimize_spy(*args, **kwargs):
        res = minimize(*args, **kwargs)
        ends.append(res.x)
        return res

    def screen_spy(rlz, ctrl):
        stable = screen(rlz, ctrl)
        verdicts.append(((ctrl.kp, ctrl.ki), stable))
        return stable

    monkeypatch.setattr(scipy.optimize, "minimize", minimize_spy)
    monkeypatch.setattr(pi_synth, "_loop_is_stable", screen_spy)
    res = optimize_pi(plant, w, grid, start=start)
    candidates = [PIController(10.0 ** x[0], 10.0 ** x[1]) for x in ends]
    candidates.append(start)
    return res, candidates, verdicts


def count_feasible(plant, w, grid, candidates, stable):
    """Candidates with a finite score whose screen read stable."""
    return sum(
        1 for c in candidates
        if math.isfinite(eval_weighted_performance(plant, c, w, grid))
        and stable[(c.kp, c.ki)]
    )


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
        assert np.max(np.abs(k.frequency_response(GRID) - want)) < 1e-14

    def test_fit_gains_round_trip(self):
        k = PIController(kp=0.37, ki=0.021)
        back = fit_pi_gains(k.realization())
        assert back.kp == pytest.approx(0.37, rel=1e-6)
        assert back.ki == pytest.approx(0.021, rel=1e-6)

    def test_fit_gains_accepts_transfer_map(self):
        k = PIController(kp=2.0, ki=0.5)
        back = fit_pi_gains(k.transfer_map())
        assert back.kp == pytest.approx(2.0, rel=1e-6)
        assert back.ki == pytest.approx(0.5, rel=1e-6)


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
            np.abs(wu_formula(GRID) * k.frequency_response(GRID)),
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
        # channel only grows with the gains, so the box corner wins.
        plant = TransferMap.constant(0.0)
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
            plant, default_weights(), GRID, start=PIController(0.1, 0.1),
            extra_starts=4,
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
        # score Nelder-Mead returned with it, so the objective runs once
        # for the start plus once per Nelder-Mead evaluation, and never
        # again to rank the candidates.
        plant = TransferMap.from_realization(
            modal_realization([(-1.0 + 3.0j, 0.8)], [(-0.5, 1.0)])
        )
        nfev, scores = [], []
        minimize, score = scipy.optimize.minimize, pi_synth._score

        def minimize_spy(*args, **kwargs):
            res = minimize(*args, **kwargs)
            nfev.append(res.nfev)
            return res

        def score_spy(*args):
            scores.append(args[1:])
            return score(*args)

        monkeypatch.setattr(scipy.optimize, "minimize", minimize_spy)
        monkeypatch.setattr(pi_synth, "_score", score_spy)
        res = optimize_pi(plant, default_weights(), GRID, start=PIController(0.05, 0.01))
        assert len(nfev) == 21
        assert len(scores) == 1 + sum(nfev)
        assert res.stable

    def test_published_start_on_identified_plant(
        self, approximant_map, omega_grid, monkeypatch
    ):
        # Regression values: scoring every candidate against one set of plant
        # samples must not move the gains, the score or the screen.  The
        # count of feasible candidates is recounted, not pinned: one seed
        # ends stable or unstable with the last bits of the fit.
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
        assert res.feasible_candidates == count_feasible(
            approximant_map, w, omega_grid, candidates, dict(verdicts)
        )

    def test_stability_screen_runs_once_per_distinct_candidate(
        self, approximant_map, omega_grid, monkeypatch
    ):
        # Several Nelder-Mead seeds end at the same gains; each distinct
        # pair is screened once, and every candidate still counts.
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
        assert len(candidates) == 22
        assert sorted(screened) == sorted(set(finite))
        assert len(screened) < len(finite)
        assert res.feasible_candidates == count_feasible(
            approximant_map, w, omega_grid, candidates, dict(verdicts)
        )

    def test_gain_box_validation(self):
        plant = TransferMap.constant(1.0)
        w = default_weights()
        with pytest.raises(ValueError):
            optimize_pi(plant, w, GRID, PIController(1, 1), gain_box=(0.0, 1.0))
        with pytest.raises(ValueError):
            optimize_pi(plant, w, GRID, PIController(1, 1), gain_box=(2.0, 1.0))


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
        assert detect_rank(pencil, tol=1e-10).rank == rank == 34
        plant = TransferMap.from_realization(reduce_to_realization(pencil, 33))
        got = optimize_pi(plant, default_weights(), omega_grid, start=PIController(0.191, 0.0252))
        assert got.controller.kp == pytest.approx(res.controller.kp, rel=1e-9)
        assert got.controller.ki == pytest.approx(res.controller.ki, rel=1e-9)
        assert got.gamma == pytest.approx(res.gamma, rel=1e-9)
