"""MFSA verdicts on delayed PI loops of random rational plants, against
ground truth that uses no interpolant.

This is the paper's third use of interpolation: a loop of a plant and a
controller, delayed by tau, is judged from its frequency samples alone.
For a rational plant the truth is known independently:

- at tau = 0 the loop is stable exactly when every eigenvalue of the
  closed loop's state matrix lies in Re(s) < 0 (``numpy.linalg.eigvals``
  of the plant's modal form under PI feedback);
- a loop that is stable at tau = 0 and whose gain crosses one once, at
  omega_c, is stable for tau < tau* and unstable for tau > tau*, where
  tau* is the phase margin over omega_c (``helpers.crossing_delay``).

Each verdict must equal the truth or be "inconclusive".

The draw's blind spots:

- ``random_system`` keeps every pole at least 0.05 left of the imaginary
  axis, with imaginary parts in [0.05, 20], inside the band;
- only loops with one gain crossover, inside the band, are kept, with
  |L| above one at the band's low edge and below one at its high edge;
- only delays that the ``DELAY_DENSIFY``-times finer grid resolves are
  kept: the phase that the delay adds between two neighbouring points of
  that grid, tau*omega_max*ln(omega_max/omega_min)/(DELAY_DENSIFY*N), must
  be at most ``PHASE_STEP`` rad at 1.2 tau*.  Longer delays are left out
  because the verdict on them does not hold under refinement: stable
  loops at 0.8 tau* with tau* of several seconds read "unstable" on this
  grid.
"""

from __future__ import annotations

import math

import numpy as np

from helpers import crossing_delay, random_system
from loewner_lab.descriptor_ops import TransferMap
from loewner_lab.mfsa import DELAY_DENSIFY, loop_tag
from loewner_lab.pi_synth import PIController

N, W_MIN, W_MAX = 200, 0.01, 100.0
PHASE_STEP = 0.3
PLANTS = 60


def closed_loop_eigenvalues(rlz, kp: float, ki: float) -> np.ndarray:
    """Eigenvalues of the plant (E = I, D = 0) under u = -(kp + ki/s) y."""
    A, B, C = rlz.A, rlz.B, rlz.C
    return np.linalg.eigvals(np.block([[A - kp * B @ C, ki * B],
                                       [-C, np.zeros((1, 1))]]))


def audited_loops(rng):
    """(plant map, controller map, tau*) for ``PLANTS`` kept draws."""
    for _ in range(3000):
        rlz, oracle, _ = random_system(rng, stable=True, im_range=(0.05, 20.0))
        kp, ki = 10.0 ** rng.uniform(-2.0, 2.0, 2)
        assert np.array_equal(rlz.E, np.eye(rlz.order)) and rlz.D == 0.0
        if np.any(closed_loop_eigenvalues(rlz, kp, ki).real >= 0.0):
            continue
        loop = lambda s: oracle(s) * (kp + ki / s)
        if not abs(loop(1j * W_MIN)) > 1.0 > abs(loop(1j * W_MAX)):
            continue
        try:
            tau_star = crossing_delay(loop, W_MIN, W_MAX)
        except ValueError:  # more than one crossover
            continue
        step = 1.2 * tau_star * W_MAX * math.log(W_MAX / W_MIN) / (DELAY_DENSIFY * N)
        if step > PHASE_STEP:
            continue
        yield TransferMap.from_callable(oracle), PIController(kp, ki).transfer_map(), tau_star


def test_delayed_pi_loop_verdicts_match_the_truth():
    grid = np.geomspace(W_MIN, W_MAX, N)
    verdicts, wrong = [], []
    for i, (plant, k, tau_star) in enumerate(audited_loops(np.random.default_rng(12345))):
        for tau, want in ((0.0, "stable"), (0.8 * tau_star, "stable"),
                          (1.2 * tau_star, "unstable")):
            got = loop_tag(plant, k, tau, grid).verdict
            verdicts.append(got)
            if got not in (want, "inconclusive"):
                wrong.append((i, tau_star, tau, got))
        if i + 1 == PLANTS:
            break
    assert len(verdicts) == 3 * PLANTS
    assert wrong == []
    # Inconclusive verdicts are allowed but must stay few, or the audit
    # would pass without deciding anything.
    assert verdicts.count("inconclusive") <= len(verdicts) // 4
