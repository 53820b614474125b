"""Session fixtures shared across the suite.

The driving-example pipeline (plant samples, Loewner pencil, order-33
approximant, reduced controller) is expensive enough to build once and
reuse everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from loewner_lab.descriptor_ops import TransferMap
from loewner_lab.freq_data import FrequencyDataset, close_conjugate, partition_points
from loewner_lab.lddc import closed_loop_reference, ideal_controller_response, reduce_controller, small_gain_bound
from loewner_lab.loewner_core import build_pencil, detect_rank, reduce_to_realization
from loewner_lab.pi_synth import PIController
from loewner_lab.plant_oracle import PlantParameters, eval_plant, sample_grid


@pytest.fixture(scope="session")
def plant_params():
    return PlantParameters()


@pytest.fixture(scope="session")
def grid_points(plant_params):
    return sample_grid(200, 2.0 * np.pi * 1e-2, 2.0 * np.pi)


@pytest.fixture(scope="session")
def omega_grid(grid_points):
    return grid_points.imag.copy()


@pytest.fixture(scope="session")
def plant_dataset(plant_params, grid_points):
    vals = eval_plant(plant_params, plant_params.x_m, grid_points)
    return close_conjugate(FrequencyDataset.from_arrays(grid_points, vals))


@pytest.fixture(scope="session")
def plant_pencil(plant_dataset):
    return build_pencil(partition_points(plant_dataset))


@pytest.fixture(scope="session")
def plant_rank(plant_pencil):
    return detect_rank(plant_pencil)


@pytest.fixture(scope="session")
def rlz33(plant_pencil):
    return reduce_to_realization(plant_pencil, 33)


@pytest.fixture(scope="session")
def plant_oracle_map(plant_params):
    p = plant_params
    return TransferMap.from_callable(
        lambda s: eval_plant(p, p.x_m, s), label="transport plant"
    )


@pytest.fixture(scope="session")
def approximant_map(rlz33):
    return TransferMap.from_realization(rlz33, label="order-33 approximant")


@pytest.fixture(scope="session")
def pi_paper():
    return PIController(kp=0.191, ki=0.0252)


@pytest.fixture(scope="session")
def m2_reference(rlz33, pi_paper):
    return closed_loop_reference(rlz33, pi_paper.realization())


@pytest.fixture(scope="session")
def k2_sweep(plant_dataset, m2_reference):
    gamma = small_gain_bound(plant_dataset, m2_reference)
    kstar = ideal_controller_response(plant_dataset, m2_reference)
    return reduce_controller(kstar, range(1, 21), gamma_bound=gamma)


@pytest.fixture(scope="session")
def k2_realization(k2_sweep):
    return k2_sweep.rows[0].realization
