"""Plant and actuator evaluation against hand-computed values."""

import math

import numpy as np
import pytest

from loewner_lab.errors import PoleHitError, SingularityError
from loewner_lab.plant_oracle import (
    DOMAIN_LENGTH,
    PlantParameters,
    eval_actuator,
    eval_plant,
    sample_grid,
)

P = PlantParameters()


def test_actuator_dc_gain_is_one():
    assert eval_actuator(P, 0.0) == pytest.approx(1.0)
    other = PlantParameters(omega0=7.3, damping=1.1)
    assert eval_actuator(other, 0.0) == pytest.approx(1.0)


def test_actuator_at_natural_frequency():
    # s^2 = -omega0^2 cancels the spring term, leaving 1/(i*m) = -2i.
    val = eval_actuator(P, 1j * P.omega0)
    assert val == pytest.approx(-2.0j, abs=1e-14)


def test_actuator_at_two_pi():
    # Frozen from an independent closed-form evaluation.
    val = eval_actuator(P, 2j * np.pi)
    assert val == pytest.approx(-0.26951899879862473 - 0.08334280187573606j, abs=1e-14)


def test_plant_frozen_values():
    val = eval_plant(P, P.x_m, 0.2j * np.pi)
    assert val == pytest.approx(-2.293301774104901 + 0.38109630551482676j, abs=1e-13)
    real_val = eval_plant(P, P.x_m, 1.0 + 0.0j)
    assert real_val == pytest.approx(0.029860398089091043 + 0.0j, abs=1e-14)


def test_plant_conjugate_symmetry():
    pts = sample_grid(20, 0.05, 40.0)
    vals = eval_plant(P, P.x_m, pts)
    conj_vals = eval_plant(P, P.x_m, np.conj(pts))
    assert np.allclose(conj_vals, np.conj(vals), rtol=0, atol=1e-15)


def test_plant_diverges_toward_origin():
    mags = [abs(eval_plant(P, P.x_m, s)) for s in (1e-2, 1e-4, 1e-6)]
    assert mags[0] < mags[1] < mags[2]
    assert mags[2] > 1e2


def test_plant_vanishes_at_high_frequency():
    mags = [abs(eval_plant(P, P.x_m, 1j * w)) for w in (1e2, 1e4, 1e6)]
    assert mags[0] > mags[1] > mags[2]
    assert mags[2] < 1e-3


def test_plant_decays_along_positive_real_axis():
    mags = [abs(eval_plant(P, P.x_m, s)) for s in (1.0, 5.0, 20.0)]
    assert mags[0] > mags[1] > mags[2]


def test_plant_rejects_origin():
    with pytest.raises(SingularityError):
        eval_plant(P, P.x_m, 0.0)


def test_actuator_pole_hit():
    # Evaluate exactly at a root of s^2 + m*omega0*s + omega0^2.
    m, w0 = P.damping, P.omega0
    pole = (-m * w0 + 1j * np.sqrt(4.0 * w0**2 - m**2 * w0**2)) / 2.0
    with pytest.raises(PoleHitError):
        eval_actuator(P, pole)


def test_sample_grid_contract():
    pts = sample_grid(200, 2 * np.pi * 1e-2, 2 * np.pi)
    assert pts.size == 200
    assert pts[0] == pytest.approx(2j * np.pi * 1e-2)
    assert pts[-1] == pytest.approx(2j * np.pi)
    w = pts.imag
    assert np.all(np.diff(w) > 0)
    assert np.all(pts.real == 0)


def test_sample_grid_exact_decades():
    pts = sample_grid(3, 1.0, 100.0)
    assert np.allclose(pts, [1j, 10j, 100j], rtol=1e-15)


def test_sample_grid_two_points_are_endpoints():
    pts = sample_grid(2, 0.3, 7.0)
    assert np.allclose(pts, [0.3j, 7.0j])


def test_sample_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        sample_grid(1, 1.0, 2.0)
    with pytest.raises(ValueError):
        sample_grid(10, 0.0, 2.0)
    with pytest.raises(ValueError):
        sample_grid(10, 5.0, 2.0)
    with pytest.raises(ValueError, match="w_max < inf"):
        sample_grid(10, 1.0, math.inf)


@pytest.mark.parametrize("field, value, message", [
    ("omega0", 0.0, "omega0 must be positive, got 0.0"),
    ("omega0", math.nan, "omega0 must be positive, got nan"),
    ("damping", -0.5, "damping must be positive, got -0.5"),
    ("x_m", -0.1, f"x_m must lie in [0, {DOMAIN_LENGTH}], got -0.1"),
    ("x_m", DOMAIN_LENGTH + 0.5, f"x_m must lie in [0, {DOMAIN_LENGTH}], got 3.5"),
])
def test_plant_parameters_are_range_checked(field, value, message):
    with pytest.raises(ValueError) as exc:
        PlantParameters(**{field: value})
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize("x", [-0.1, DOMAIN_LENGTH + 0.5, math.nan])
def test_plant_rejects_a_point_outside_the_domain(x):
    with pytest.raises(ValueError) as exc:
        eval_plant(P, x, 1j)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"x must lie in [0, {DOMAIN_LENGTH}], got {x}"
