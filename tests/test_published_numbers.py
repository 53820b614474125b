"""Measured causes behind published numbers the pipelines do not reproduce.

The acceptance scorecard asserts the published values and fails where
they are not reached; the tests here pin what has been measured about
why, so that an explanation in the README stays a checked fact.

C7 expects the delayed loop of the built-in plant to lose stability near
5.07 s.  Under PI(0.191, 0.0252) the loop's true delay margin is 5.632 s.
The plant carries its own transport delay exp(-x_m^2 s), which shifts the
loop's phase and leaves its gain alone, so the margin is one constant
minus x_m^2.  The flip the paper reports fits x_m = 2.1, not the default
1.9592.
"""

from __future__ import annotations

import pytest

from helpers import crossing_delay
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
