"""Measured causes behind published numbers the pipelines do not reproduce.

The acceptance scorecard asserts the published values and fails where
they are not reached; the tests here pin what has been measured about
why, so that an explanation in the README stays a checked fact.

C7 expects the delayed loop of the built-in plant to lose stability near
5.07 s.  Under PI(0.191, 0.0252) the loop's true delay margin is 5.632 s.
The plant carries its own transport delay exp(-x_m^2 s), which shifts the
loop's phase and leaves its gain alone, so the margin is one constant
minus x_m^2.  The flip the paper reports fits x_m = 2.1, not the default
1.9592.  Through the whole chain at x_m = 2.1 the C7 sweep reads the
published verdict pattern, but its row-11 tag stays near 776, short of
the published 1e6: x_m explains where the loop flips, not the tag.

C4 expects the m2 ideal controller K* = M / (Phi (1 - M)) to have rank
40 +- 3.  M is the unity-feedback loop of the paper's PI controller with
a Loewner fit of the plant, so K* = PI * fit / plant and its rank
measures the fit's error: it reads 39 to 42 for fits of order 10 to 20,
and falls to 16 at the order-33 fit the pipeline uses.

C5 passes (m1 certifies order 13), but the small-gain rule behind it
assumes that the ideal controller K* = M / (Phi (1 - M)) itself
stabilizes the plant, and nothing checks that.  For m1 it does not: the
plant carries exp(-x_m^2 s) and m1 does not, so K* carries exp(+x_m^2 s)
and is not causal, and the stability tag of its samples reads
"unstable".  Given the plant's delay, M exp(-x_m^2 s), K* reads "stable".
"""

from __future__ import annotations

import numpy as np
import pytest

from helpers import crossing_delay
from loewner_lab.descriptor_ops import TransferMap
from loewner_lab.freq_data import FrequencyDataset, close_conjugate, partition_points
from loewner_lab.lddc import (
    closed_loop_reference,
    ideal_controller_response,
    reduce_controller,
    reference_from_dataset,
    second_order_reference,
    small_gain_bound,
)
from loewner_lab.loewner_core import build_pencil, detect_rank, reduce_to_realization
from loewner_lab.mfsa import delay_margin_sweep, stability_tag
from loewner_lab.plant_oracle import PlantParameters, eval_plant

# Delay margin of the loop without the plant's transport delay, in s.
DELAY_FREE_MARGIN = 9.470856625560753


def delay_margin(x_m, pi_paper):
    p = PlantParameters(x_m=x_m)
    k = pi_paper.transfer_map()
    return crossing_delay(lambda s: eval_plant(p, p.x_m, s) * k(s), 0.0628, 6.28)


@pytest.mark.parametrize("x_m", [1.5, 1.9592, 2.1])
def test_margin_is_a_constant_minus_the_transport_delay(x_m, pi_paper):
    assert delay_margin(x_m, pi_paper) + x_m**2 == pytest.approx(
        DELAY_FREE_MARGIN, abs=1e-9
    )


@pytest.mark.parametrize("x_m, margin", [(1.9592, 5.6324), (2.1, 5.0609)])
def test_margin_at_the_default_and_at_the_published_flip(x_m, margin, pi_paper):
    assert delay_margin(x_m, pi_paper) == pytest.approx(margin, abs=1e-4)


# Rank of the m2 ideal controller against the order q of the plant fit
# that M is built from.  Both stacks agree at every q (detect_rank would
# warn otherwise, and tier-1 turns the warning into an error).
RANK_AGAINST_FIT_ORDER = [
    (10, 39), (15, 42), (20, 40), (25, 49), (30, 55),
    (31, 48), (32, 18), (33, 16), (34, 6), (36, 2),
]


@pytest.mark.parametrize("q, rank", RANK_AGAINST_FIT_ORDER)
def test_ideal_controller_rank_follows_the_fit_order(
    q, rank, plant_dataset, plant_pencil, pi_paper
):
    m2 = closed_loop_reference(
        reduce_to_realization(plant_pencil, q), pi_paper.realization()
    )
    kstar = ideal_controller_response(plant_dataset, m2)
    report = detect_rank(build_pencil(partition_points(kstar)), tol=1e-10)
    assert report.ranks_agree
    assert report.rank == rank


def test_the_published_flip_position_at_x_m_2_1(grid_points, omega_grid, pi_paper):
    # The acceptance chain of C1, C3 and C7, on data measured at x_m = 2.1.
    p = PlantParameters(x_m=2.1)
    data = close_conjugate(
        FrequencyDataset.from_arrays(grid_points, eval_plant(p, p.x_m, grid_points))
    )
    pencil = build_pencil(partition_points(data))
    assert detect_rank(pencil, tol=1e-10).rank == 35
    m2 = closed_loop_reference(reduce_to_realization(pencil, 33), pi_paper.realization())
    sweep = reduce_controller(
        ideal_controller_response(data, m2), range(1, 21),
        gamma_bound=small_gain_bound(data, m2),
    )
    k = TransferMap.from_realization(sweep.rows[0].realization)
    plant = TransferMap.from_callable(lambda s: eval_plant(p, p.x_m, s))
    result = delay_margin_sweep(plant, k, np.linspace(4.6, 5.5, 20), omega_grid)
    verdicts = "".join({"stable": "S", "unstable": "U"}.get(r.verdict, "?")
                       for r in result.rows)
    assert verdicts == "S" * 10 + "U" * 10
    assert result.destabilizing_delay == pytest.approx(5.0737, abs=1e-4)
    # The tag is what misses: C7 asks for more than 1e6 at row 11.
    assert result.rows[10].stab_tag == pytest.approx(776, rel=1e-3)


def ideal_controller_tag(plant_dataset, omega_grid, m_ref):
    """The stability tag of the tabulated K* samples on the plant grid."""
    kstar = ideal_controller_response(plant_dataset, m_ref)
    return stability_tag(reference_from_dataset(kstar), omega_grid)


def test_the_m1_ideal_controller_is_antistable(plant_dataset, omega_grid):
    report = ideal_controller_tag(plant_dataset, omega_grid, second_order_reference())
    assert report.verdict == "unstable"
    assert report.stab_tag == pytest.approx(0.269, rel=1e-2)
    assert (report.order, report.antistable_order) == (31, 17)


def test_the_m1_target_with_the_plant_delay_gives_a_stable_ideal_controller(
    plant_params, plant_dataset, omega_grid
):
    m1, delay = second_order_reference(), plant_params.x_m**2
    delayed = TransferMap.from_callable(
        lambda s: m1(s) * np.exp(-delay * np.asarray(s))
    )
    report = ideal_controller_tag(plant_dataset, omega_grid, delayed)
    assert report.verdict == "stable"
    assert (report.order, report.antistable_order) == (29, 0)
