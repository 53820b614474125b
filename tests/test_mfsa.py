"""Sampling-based stability tags and the frozen-delay sweep.

References used here: first-order transfers with known antistable peaks,
an explicit partial-fraction antistable pair, the analytic delay margin of
a first-order loop (tau* = (pi - atan(sqrt(3)))/sqrt(3)), and the modal
random systems whose stability is known by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from helpers import crossing_delay, modal_realization, random_system
from loewner_lab import descriptor_ops
from loewner_lab.descriptor_ops import TransferMap, closed_loop_delay, densify_log_grid
from loewner_lab.errors import SingularityError, ZeroDataError
from loewner_lab.mfsa import (
    DELAY_DENSIFY,
    HOLDOUT_RTOL,
    DelayRow,
    DelaySweepResult,
    StabilityReport,
    delay_margin_sweep,
    nyquist_curve,
    stability_tag,
)

GRID = np.geomspace(1e-2, 1e2, 60)


class TestStabilityTag:
    def test_stable_first_order_tags_zero(self):
        rep = stability_tag(TransferMap.from_callable(lambda s: 1.0 / (s + 1.0)), GRID)
        assert rep.verdict == "stable"
        assert rep.stab_tag == 0.0
        assert rep.order == 1
        assert rep.antistable_order == 0

    def test_spectrum_is_computed_once(self, monkeypatch):
        # The band filter reads the split's eigenvalues: one reordering of
        # the form and no separate eigenvalue solve per tag.
        calls = {"eig": 0, "dtgsen": 0}
        for module, name in ((scipy.linalg, "eig"), (scipy.linalg.lapack, "dtgsen")):
            real = getattr(module, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        h = lambda s: 1.0 / (s + 1.0) + 0.5 / (s - 2.0)
        rep = stability_tag(TransferMap.from_callable(h), GRID)
        assert rep.verdict == "unstable"
        assert calls == {"eig": 0, "dtgsen": 1}

    def test_unstable_first_order_tag_value(self):
        # The whole transfer is antistable; its peak over the band sits at
        # the lowest frequency with value 1/sqrt(1 + omega_min^2).
        rep = stability_tag(TransferMap.from_callable(lambda s: 1.0 / (s - 1.0)), GRID)
        assert rep.verdict == "unstable"
        want = 1.0 / math.hypot(1.0, GRID[0])
        assert rep.stab_tag == pytest.approx(want, rel=1e-9)
        assert rep.peak_omega == pytest.approx(GRID[0])
        assert rep.antistable_order == 1

    def test_mixed_transfer_measures_antistable_part_only(self):
        h = lambda s: 1.0 / (s + 1.0) + 0.5 / (s - 2.0)
        rep = stability_tag(TransferMap.from_callable(h), GRID)
        assert rep.verdict == "unstable"
        want = 0.5 / math.hypot(2.0, GRID[0])
        assert rep.stab_tag == pytest.approx(want, rel=1e-8)
        assert rep.order == 2
        assert rep.antistable_order == 1

    def test_lightly_damped_antistable_pair_peak_is_refined(self):
        # Peak lies between log-grid points; the pole-frequency probe must
        # catch it. Analytic peak of the antistable pair near omega = 5.
        p = 0.3 + 5.0j

        def h(s):
            s = np.asarray(s, dtype=complex)
            return 1.0 / (s + 1.0) + 0.2 / (s - p) + 0.2 / (s - np.conj(p))

        rep = stability_tag(TransferMap.from_callable(h), GRID)
        anti_at_peak = abs(0.2 / (5j - p) + 0.2 / (5j - np.conj(p)))
        assert rep.verdict == "unstable"
        assert rep.stab_tag >= anti_at_peak * (1.0 - 1e-12)
        assert rep.stab_tag == pytest.approx(anti_at_peak, rel=5e-3)
        assert 4.5 < rep.peak_omega < 5.5

    def test_out_of_band_antistable_modes_are_ignored(self):
        # Unstable pair at omega = 100 with data only up to 10: the samples
        # carry no evidence, so the verdict stays stable with a note.
        p = 0.1 + 100.0j

        def h(s):
            s = np.asarray(s, dtype=complex)
            return 1.0 / (s + 1.0) + 0.05 / (s - p) + 0.05 / (s - np.conj(p))

        rep = stability_tag(TransferMap.from_callable(h), np.geomspace(1e-2, 10, 40))
        assert rep.verdict == "stable"
        assert rep.stab_tag == 0.0
        assert "outside the sampled band" in rep.detail
        assert [why for _, why in rep.ignored_poles] == ["above band"] * 2
        assert sorted(p.imag for p, _ in rep.ignored_poles) == pytest.approx(
            [-100.0, 100.0], rel=1e-6
        )

    @pytest.mark.parametrize("a", [0.005, 0.02, 0.05, 10.0, 30.0])
    def test_genuine_out_of_band_pole_is_never_stable(self, a, omega_grid):
        # A real antistable pole below or above the paper band leaves a tag
        # of 0.033 to 15.9 on it, far above spurious content; it may read
        # inconclusive, never stable.
        h = lambda s: 1.0 / (s - a) + 2.0 / (s**2 + 0.4 * s + 1.0)
        rep = stability_tag(TransferMap.from_callable(h), omega_grid)
        assert rep.verdict != "stable"
        if rep.verdict == "inconclusive":
            assert "outside the sampled band" in rep.detail
        want = "below band" if a < omega_grid[0] else "above band"
        assert [why for _, why in rep.ignored_poles] == [want]
        assert rep.ignored_poles[0][0] == pytest.approx(a, rel=1e-6)

    def test_fit_uses_a_subset_that_predicts_the_rest(self):
        # The first fit takes 40 spread points of 400; an order-2 transfer
        # is matched on the other 360 to the hold-out bound at once.
        h = lambda s: 1.0 / (s + 1.0) + 0.5 / (s - 2.0)
        rep = stability_tag(TransferMap.from_callable(h), np.geomspace(1e-2, 1e2, 400))
        assert rep.verdict == "unstable"
        assert rep.order == 2
        assert rep.points_used == 40
        assert rep.holdout_error <= HOLDOUT_RTOL

    def test_noisy_data_ends_on_the_full_grid_without_warnings(self):
        # Relative noise of 1e-6 keeps every subset fit above the hold-out
        # bound, so the last fit takes the whole grid, and none warns.
        grid = np.geomspace(1e-2, 1e1, 100)
        rng = np.random.default_rng(7)
        noise = 1.0 + 1e-6 * (rng.standard_normal(100) + 1j * rng.standard_normal(100))

        def h(s):
            clean = 1.0 / (s + 1.0) + 2.0 / (s**2 + 0.4 * s + 1.0)
            return clean * noise[np.searchsorted(grid, s.imag)]

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = stability_tag(TransferMap.from_callable(h), grid)
        assert rep.points_used == grid.size
        assert math.isnan(rep.holdout_error)

    @pytest.mark.parametrize("n", [41, 81, 101])
    def test_odd_grid_ends_on_its_largest_even_subset(self, n):
        # Subsets stay even for the partition, so the last fit of an odd
        # grid leaves one sample out and reports its error.
        grid = np.geomspace(1e-2, 1e2, n)
        rng = np.random.default_rng(7)
        noise = 1.0 + 1e-6 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))

        def h(s):
            clean = 1.0 / (s + 1.0) + 0.5 / (s - 2.0)
            return clean * noise[np.searchsorted(grid, s.imag)]

        rep = stability_tag(TransferMap.from_callable(h), grid)
        assert rep.verdict == "unstable"
        assert rep.points_used == n - 1
        assert 0.0 < rep.holdout_error < 1e-5

    def test_zero_transfer_is_stable_order_zero(self):
        rep = stability_tag(TransferMap.constant(0.0), GRID)
        assert rep.verdict == "stable"
        assert rep.stab_tag == 0.0
        assert rep.order == 0

    def test_boundary_pole_is_inconclusive(self):
        rep = stability_tag(TransferMap.from_callable(lambda s: 1.0 / s), GRID)
        assert rep.verdict == "inconclusive"
        assert math.isnan(rep.stab_tag)
        assert rep.detail != ""

    def test_validation(self):
        h = TransferMap.constant(1.0)
        for epsilon in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon must be positive and finite"):
                stability_tag(h, GRID, epsilon=epsilon)
        with pytest.raises(ValueError):
            stability_tag(h, [])
        with pytest.raises(ValueError):
            stability_tag(h, [0.0, 1.0])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"must be positive and finite, got {bad}"):
                stability_tag(h, np.where(GRID == GRID[5], bad, GRID))

    def test_one_point_grid_names_its_size(self):
        h = TransferMap.from_callable(lambda s: 1.0 / (s + 1.0))
        with pytest.raises(ZeroDataError, match="1-point grid .* at least 2"):
            stability_tag(h, np.geomspace(0.1, 10, 1))

    def test_non_finite_sample_names_its_frequency(self):
        h = lambda s: np.where(s.imag > 2.0, np.inf, 1.0 / (s + 1.0))
        with pytest.raises(SingularityError, match=r"at omega = 2\.\d+ rad/s"):
            stability_tag(TransferMap.from_callable(h), GRID)

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError):
            StabilityReport(stab_tag=1.0, epsilon=1e-10, verdict="stable", order=1)
        with pytest.raises(ValueError):
            StabilityReport(stab_tag=0.0, epsilon=1e-10, verdict="wobbly", order=1)

    def test_random_systems_classified_by_construction(self):
        rng = np.random.default_rng(1234)
        for i in range(30):
            stable = i % 2 == 0
            _, oracle, _ = random_system(rng, stable=stable)
            rep = stability_tag(
                TransferMap.from_callable(oracle), np.geomspace(1e-2, 1e2, 100)
            )
            want = "stable" if stable else "unstable"
            assert rep.verdict == want, f"trial {i}: {rep.verdict} != {want}"


class TestDelaySweep:
    def setup_method(self):
        self.plant = TransferMap.from_realization(modal_realization([], [(-1.0, 2.0)]))
        self.unity = TransferMap.constant(1.0)
        self.grid = np.geomspace(0.05, 20.0, 60)

    def test_first_order_loop_margin(self):
        # |L| = 1 at omega = sqrt(3); the loop flips when the delay phase
        # reaches the remaining margin: tau* = (2 pi/3)/sqrt(3) ~ 1.2092.
        res = delay_margin_sweep(
            self.plant, self.unity, [0.8, 1.0, 1.1, 1.3, 1.5], self.grid,
            refine_bisect=5,
        )
        verdicts = [row.verdict for row in res.rows]
        assert verdicts == ["stable", "stable", "stable", "unstable", "unstable"]
        tstar = (2.0 * math.pi / 3.0) / math.sqrt(3.0)
        assert abs(res.destabilizing_delay - tstar) < 0.05

    def test_without_refinement_first_unstable_tau_is_reported(self):
        res = delay_margin_sweep(
            self.plant, self.unity, [1.1, 1.3], self.grid
        )
        assert res.destabilizing_delay == 1.3

    def test_zero_controller_keeps_every_row_stable(self):
        res = delay_margin_sweep(
            self.plant, TransferMap.constant(0.0), [0.0, 0.5, 1.0], self.grid
        )
        assert all(row.verdict == "stable" for row in res.rows)
        assert all(row.stab_tag == 0.0 for row in res.rows)
        assert res.destabilizing_delay is None

    def test_failing_rows_are_inconclusive_not_fatal(self):
        def broken(s):
            raise SingularityError("synthetic evaluation failure")

        res = delay_margin_sweep(
            TransferMap.from_callable(broken), self.unity, [0.0, 1.0], self.grid
        )
        assert [row.verdict for row in res.rows] == ["inconclusive"] * 2
        assert all(math.isnan(row.stab_tag) for row in res.rows)
        assert all("synthetic" in row.detail for row in res.rows)
        assert all(row.epsilon == 1e-10 and row.order == 0 for row in res.rows)
        assert res.destabilizing_delay is None

    def test_failing_row_does_not_stop_the_sweep(self):
        # Rows run in order, so a plant that fails on its second evaluation
        # breaks exactly the second row.
        calls = []

        def fails_second(s):
            calls.append(s.size)
            if len(calls) == 2:
                raise SingularityError("synthetic evaluation failure")
            return self.plant.fn(s)

        res = delay_margin_sweep(
            TransferMap.from_callable(fails_second), self.unity,
            [0.8, 1.0, 1.3], self.grid,
        )
        assert [row.verdict for row in res.rows] == ["stable", "inconclusive", "unstable"]
        assert math.isnan(res.rows[1].stab_tag)
        assert "synthetic" in res.rows[1].detail
        assert res.destabilizing_delay == 1.3

    def test_non_finite_sample_is_inconclusive_not_fatal(self):
        # The tau = 0 row samples the given grid, which holds omega = 1; the
        # delayed rows sample the densified grid, which does not.
        grid = np.union1d(self.grid, [1.0])

        def nan_at_one(s):
            return np.where(s.imag == 1.0, np.nan, self.plant.fn(s))

        res = delay_margin_sweep(
            TransferMap.from_callable(nan_at_one), TransferMap.constant(0.5),
            [0.0, 0.8, 1.3], grid,
        )
        first = res.rows[0]
        assert first.verdict == "inconclusive"
        assert math.isnan(first.stab_tag)
        assert "omega = 1 rad/s" in first.detail
        assert [row.verdict for row in res.rows[1:]] == ["stable", "stable"]

    def test_infinite_sample_is_inconclusive_without_invalid_flag(self):
        # inf*0 inside the loop product would raise numpy's invalid flag.
        grid = np.union1d(self.grid, [1.0])

        def inf_at_one(s):
            return np.where(s.imag == 1.0, np.inf, self.plant.fn(s))

        with np.errstate(all="raise"):
            res = delay_margin_sweep(
                TransferMap.from_callable(inf_at_one), TransferMap.constant(0.5),
                [0.0], grid,
            )
        row = res.rows[0]
        assert row.verdict == "inconclusive"
        assert math.isnan(row.stab_tag)
        assert "omega = 1 rad/s" in row.detail

    def test_validation(self):
        with pytest.raises(ValueError):
            delay_margin_sweep(self.plant, self.unity, [], self.grid)
        with pytest.raises(ValueError):
            delay_margin_sweep(self.plant, self.unity, [1.0, 0.5], self.grid)
        with pytest.raises(ValueError):
            delay_margin_sweep(self.plant, self.unity, [-0.1, 0.5], self.grid)
        for taus in ([math.nan], [math.nan, 0.5], [0.0, math.nan, 1.0],
                     [math.inf], [0.5, math.inf]):
            with pytest.raises(ValueError, match="bad delay (nan|inf): delays must be finite"):
                delay_margin_sweep(self.plant, self.unity, taus, self.grid)
        # tau > 0 densifies the grid first, tau = 0 tags it as given.
        for bad in (math.nan, math.inf):
            grid = np.where(self.grid == self.grid[5], bad, self.grid)
            for tau in (0.0, 0.8):
                with pytest.raises(ValueError, match=f"must be positive and finite, got {bad}"):
                    delay_margin_sweep(self.plant, self.unity, [tau], grid)
        with pytest.raises(ValueError):
            delay_margin_sweep(
                self.plant, self.unity, [0.5], self.grid, epsilon=0.0
            )

    def test_failed_reordering_is_an_inconclusive_row(self, monkeypatch):
        real = scipy.linalg.lapack.dtgsen

        def failing(*args, **kwargs):
            *out, _info = real(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(scipy.linalg.lapack, "dtgsen", failing)
        res = delay_margin_sweep(self.plant, self.unity, [0.0, 0.8], self.grid)
        assert [row.verdict for row in res.rows] == ["inconclusive"] * 2
        assert all(math.isnan(row.stab_tag) for row in res.rows)
        assert all("reordering failed (info=1)" in row.detail for row in res.rows)

    @pytest.mark.parametrize("tau", [0.0, 0.8, 1.3])
    def test_row_is_the_stability_report_of_its_delay(self, tau):
        res = delay_margin_sweep(self.plant, self.unity, [tau], self.grid)
        grid = densify_log_grid(self.grid, DELAY_DENSIFY) if tau > 0 else self.grid
        report = stability_tag(closed_loop_delay(self.plant, self.unity, tau), grid)
        row = vars(res.rows[0]).copy()
        assert row.pop("tau") == tau
        # repr compares floats bit for bit and NaN equal to NaN.
        assert repr(row) == repr(vars(report))

    def test_row_verdict_must_match_its_tag(self):
        with pytest.raises(ValueError):
            DelayRow(tau=1.0, stab_tag=1e-3, epsilon=1e-10, verdict="stable", order=1)

    def test_result_requires_ascending_rows(self):
        row = DelayRow(tau=1.0, stab_tag=0.0, epsilon=1e-10, verdict="stable", order=0)
        with pytest.raises(ValueError):
            DelaySweepResult(rows=(row, row), destabilizing_delay=None)
        for taus in ((math.nan,), (0.5, math.nan), (math.nan, 0.5), (-1.0,),
                     (math.inf,), (0.5, math.inf)):
            rows = tuple(replace(row, tau=t) for t in taus)
            with pytest.raises(ValueError, match="delays must be finite, >= 0 and strictly ascending"):
                DelaySweepResult(rows=rows, destabilizing_delay=None)


class TestBuiltinPlantSweep:
    def test_published_pi_rows(self, plant_oracle_map, pi_paper, omega_grid):
        # Regression rows.  The true delay margin of this loop is 5.632 s, so
        # the flip between 5.0 and 5.65 is the right one.
        res = delay_margin_sweep(
            plant_oracle_map, pi_paper.transfer_map(), [0.0, 5.0, 5.65, 6.0], omega_grid
        )
        assert [row.verdict for row in res.rows] == [
            "stable", "stable", "unstable", "unstable"
        ]
        assert [row.order for row in res.rows] == [32, 39, 39, 40]
        # Each row is fitted on a small part of its grid (200 points at
        # tau = 0, 800 when delayed) that predicts the rest.
        assert all(row.points_used <= 80 for row in res.rows)
        assert all(row.holdout_error <= HOLDOUT_RTOL for row in res.rows)
        assert [row.stab_tag for row in res.rows[:2]] == [0.0, 0.0]
        assert res.rows[2].stab_tag == pytest.approx(565.3306115567675, rel=1e-6)
        assert res.rows[3].stab_tag == pytest.approx(27.670407199506474, rel=1e-6)
        assert res.destabilizing_delay == 5.65

    def test_no_realization_is_factored_twice(
        self, plant_oracle_map, pi_paper, omega_grid, monkeypatch
    ):
        # The accepted fit's hold-out check and its split read one QZ, and
        # the controller is factored once for both delays.  The spy keeps
        # each realization, so no id() is reused after collection.
        factored = []
        real_schur = descriptor_ops._real_schur

        def spy(rlz):
            factored.append(rlz)
            return real_schur(rlz)

        monkeypatch.setattr(descriptor_ops, "_real_schur", spy)
        k = pi_paper.transfer_map()
        for tau in (0.0, 5.0):
            loop = closed_loop_delay(plant_oracle_map, k, tau)
            assert stability_tag(loop, omega_grid).verdict == "stable"
        assert factored
        assert len({id(rlz) for rlz in factored}) == len(factored)
        assert sum(rlz is k.realization for rlz in factored) == 1

    def test_flip_at_the_analytic_margin(self, plant_oracle_map, pi_paper, omega_grid):
        # The true delay margin is 5.632 s; the verdict must flip between
        # the two 0.01 s rows around it.
        res = delay_margin_sweep(
            plant_oracle_map, pi_paper.transfer_map(), [5.63, 5.64], omega_grid
        )
        assert [row.verdict for row in res.rows] == ["stable", "unstable"]
        assert [row.order for row in res.rows] == [39, 39]
        assert res.rows[0].stab_tag == 0.0
        assert res.rows[1].stab_tag == pytest.approx(1307.586885, rel=1e-6)
        assert res.destabilizing_delay == 5.64


class TestDelayOracle:
    """MFSA rows of the built-in loop against its crossing delay.

    The loop gain of the plant under PI(0.191, 0.0252) crosses one once,
    at 0.178 rad/s, which gives a delay margin of 5.632 s without any
    interpolant.
    """

    @pytest.fixture
    def margin(self, plant_oracle_map, pi_paper):
        k = pi_paper.transfer_map()
        return crossing_delay(lambda s: plant_oracle_map(s) * k(s), 1e-3, 1e2)

    def test_tau_scan_agrees_with_the_crossing_delay(
        self, plant_oracle_map, pi_paper, omega_grid, margin
    ):
        assert margin == pytest.approx(5.6324, abs=1e-4)
        res = delay_margin_sweep(
            plant_oracle_map, pi_paper.transfer_map(), np.arange(29) * 0.25, omega_grid
        )
        wrong = [
            (row.tau, row.verdict) for row in res.rows
            if row.verdict == ("unstable" if row.tau < margin else "stable")
        ]
        inconclusive = [row.tau for row in res.rows if row.verdict == "inconclusive"]
        assert wrong == []
        # Inconclusive rows are allowed but must stay few, or the scan
        # would pass without deciding anything.
        assert len(inconclusive) <= len(res.rows) // 4, inconclusive

    def test_verdicts_hold_under_grid_refinement(
        self, plant_oracle_map, pi_paper, omega_grid, margin
    ):
        # Delays from the two delay_sweep benchmark windows, each sampled
        # DELAY_DENSIFY and twice DELAY_DENSIFY times finer than the grid.
        k = pi_paper.transfer_map()
        for tau in (4.6, 5.2, 5.5, 5.76, 6.2, 6.66):
            loop = closed_loop_delay(plant_oracle_map, k, tau)
            verdicts = [
                stability_tag(loop, densify_log_grid(omega_grid, f)).verdict
                for f in (DELAY_DENSIFY, 2 * DELAY_DENSIFY)
            ]
            want = "stable" if tau < margin else "unstable"
            assert verdicts == [want, want], tau


class TestNyquistCurve:
    def setup_method(self):
        self.plant = TransferMap.from_realization(modal_realization([], [(-1.0, 2.0)]))
        self.unity = TransferMap.constant(1.0)
        self.grid = np.geomspace(0.1, 10.0, 25)

    def test_zero_delay_equals_loop_response(self):
        curve = nyquist_curve(self.plant, self.unity, self.grid)
        want = 2.0 / (1j * self.grid + 1.0)
        assert np.max(np.abs(curve - want)) < 1e-14

    def test_zero_controller_gives_zero_curve(self):
        curve = nyquist_curve(self.plant, TransferMap.constant(0.0), self.grid)
        assert np.all(curve == 0.0)

    def test_validation_and_error_naming(self):
        with pytest.raises(ValueError):
            nyquist_curve(self.plant, self.unity, [])

        def broken(s):
            s = np.asarray(s, dtype=complex)
            if np.any(np.isclose(s.imag, 1.0)):
                raise SingularityError("model undefined")
            return np.ones(s.shape, dtype=complex)

        with pytest.raises(SingularityError, match="omega = 1"):
            nyquist_curve(
                TransferMap.from_callable(broken), self.unity, [0.5, 1.0]
            )
