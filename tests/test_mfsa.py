"""Sampling-based stability tags and the frozen-delay sweep.

References used here: first-order transfers with known antistable peaks,
an explicit partial-fraction antistable pair, the analytic delay margin of
a first-order loop (tau* = (pi - atan(sqrt(3)))/sqrt(3)), and the modal
random systems whose stability is known by construction.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.linalg

from helpers import modal_realization, random_system
from loewner_lab.descriptor_ops import TransferMap
from loewner_lab.errors import SingularityError
from loewner_lab.mfsa import (
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
        # The band filter reads the split's eigenvalues: one ordered QZ and
        # no separate eigenvalue solve per tag.
        calls = {"eig": 0, "ordqz": 0}
        for name in calls:
            real = getattr(scipy.linalg, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(scipy.linalg, name, spy)
        h = lambda s: 1.0 / (s + 1.0) + 0.5 / (s - 2.0)
        rep = stability_tag(TransferMap.from_callable(h), GRID)
        assert rep.verdict == "unstable"
        assert calls == {"eig": 0, "ordqz": 1}

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
        with pytest.raises(ValueError):
            stability_tag(h, GRID, epsilon=0.0)
        with pytest.raises(ValueError):
            stability_tag(h, [])
        with pytest.raises(ValueError):
            stability_tag(h, [0.0, 1.0])

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

    def test_validation(self):
        with pytest.raises(ValueError):
            delay_margin_sweep(self.plant, self.unity, [], self.grid)
        with pytest.raises(ValueError):
            delay_margin_sweep(self.plant, self.unity, [1.0, 0.5], self.grid)
        with pytest.raises(ValueError):
            delay_margin_sweep(self.plant, self.unity, [-0.1, 0.5], self.grid)
        with pytest.raises(ValueError):
            delay_margin_sweep(
                self.plant, self.unity, [0.5], self.grid, epsilon=0.0
            )

    def test_result_requires_ascending_rows(self):
        row = DelayRow(tau=1.0, stab_tag=0.0, verdict="stable")
        with pytest.raises(ValueError):
            DelaySweepResult(rows=(row, row), destabilizing_delay=None, epsilon=1e-10)


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
        assert [row.order for row in res.rows] == [32, 40, 39, 41]
        assert [row.stab_tag for row in res.rows[:2]] == [0.0, 0.0]
        assert res.rows[2].stab_tag == pytest.approx(565.3306115567675, rel=1e-6)
        assert res.rows[3].stab_tag == pytest.approx(27.670407199506474, rel=1e-6)
        assert res.destabilizing_delay == 5.65

    def test_flip_at_the_analytic_margin(self, plant_oracle_map, pi_paper, omega_grid):
        # The true delay margin is 5.632 s; the verdict must flip between
        # the two 0.01 s rows around it.
        res = delay_margin_sweep(
            plant_oracle_map, pi_paper.transfer_map(), [5.63, 5.64], omega_grid
        )
        assert [row.verdict for row in res.rows] == ["stable", "unstable"]
        assert [row.order for row in res.rows] == [37, 37]
        assert res.rows[0].stab_tag == 0.0
        assert res.rows[1].stab_tag == pytest.approx(1307.586885, rel=1e-6)
        assert res.destabilizing_delay == 5.64


class TestNyquistCurve:
    def setup_method(self):
        self.plant = TransferMap.from_realization(modal_realization([], [(-1.0, 2.0)]))
        self.unity = TransferMap.constant(1.0)
        self.grid = np.geomspace(0.1, 10.0, 25)

    def test_zero_delay_equals_loop_response(self):
        curve = nyquist_curve(self.plant, self.unity, 0.0, self.grid)
        want = 2.0 / (1j * self.grid + 1.0)
        assert np.max(np.abs(curve - want)) < 1e-14

    def test_delay_only_rotates_the_curve(self):
        base = nyquist_curve(self.plant, self.unity, 0.0, self.grid)
        delayed = nyquist_curve(self.plant, self.unity, 2.0, self.grid)
        assert np.allclose(np.abs(delayed), np.abs(base), rtol=1e-12)
        assert np.max(np.abs(delayed - base * np.exp(-2j * self.grid))) < 1e-14

    def test_zero_controller_gives_zero_curve(self):
        curve = nyquist_curve(self.plant, TransferMap.constant(0.0), 1.0, self.grid)
        assert np.all(curve == 0.0)

    def test_validation_and_error_naming(self):
        with pytest.raises(ValueError):
            nyquist_curve(self.plant, self.unity, -1.0, self.grid)
        with pytest.raises(ValueError):
            nyquist_curve(self.plant, self.unity, 0.0, [])

        def broken(s):
            s = np.asarray(s, dtype=complex)
            if np.any(np.isclose(s.imag, 1.0)):
                raise SingularityError("model undefined")
            return np.ones(s.shape, dtype=complex)

        with pytest.raises(SingularityError, match="omega = 1"):
            nyquist_curve(
                TransferMap.from_callable(broken), self.unity, 0.0, [0.5, 1.0]
            )
