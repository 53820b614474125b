"""Acceptance scorecard for the full workflow on the transport plant.

Each test prints one line ``criterion N: PASS/FAIL - detail`` before its
assertions run, so ``pytest tests/test_acceptance.py -s`` always shows the
complete scorecard.  Criteria are asserted at their stated tolerances;
where the implementation genuinely cannot reach a published number the
test fails rather than bending the check (see the failure details and the
companion analysis in the project notes).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from helpers import random_system
from loewner_lab.descriptor_ops import (
    TransferMap,
    eval_transfer,
    stable_antistable_split,
)
from loewner_lab.freq_data import FrequencyDataset, close_conjugate, partition_points
from loewner_lab.lddc import (
    ideal_controller_response,
    reduce_controller,
    second_order_reference,
    small_gain_bound,
)
from loewner_lab.loewner_core import build_pencil, detect_rank, reduce_to_realization
from loewner_lab.mfsa import delay_margin_sweep, stability_tag
from loewner_lab.pi_synth import (
    PIController,
    default_weights,
    fit_pi_gains,
    optimize_pi,
)
from loewner_lab.plant_oracle import PlantParameters, eval_plant, sample_grid


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def m1_design(plant_dataset):
    m1 = second_order_reference()
    gamma = small_gain_bound(plant_dataset, m1)
    kstar = ideal_controller_response(plant_dataset, m1)
    return m1, gamma, kstar


@pytest.fixture(scope="module")
def m2_kstar(plant_dataset, m2_reference):
    return ideal_controller_response(plant_dataset, m2_reference)


@pytest.fixture(scope="module")
def synthesis(approximant_map, omega_grid):
    t0 = time.perf_counter()
    result = optimize_pi(
        approximant_map,
        default_weights(),
        omega_grid,
        start=PIController(0.191, 0.0252),
    )
    return result, time.perf_counter() - t0


def test_criterion_1_order_detection():
    t0 = time.perf_counter()
    p = PlantParameters()
    pts = sample_grid(200, 2.0 * math.pi * 1e-2, 2.0 * math.pi)
    vals = eval_plant(p, p.x_m, pts)
    data = close_conjugate(FrequencyDataset.from_arrays(pts, vals))
    pencil = build_pencil(partition_points(data))
    rank = detect_rank(pencil).rank
    elapsed = time.perf_counter() - t0
    ok = 31 <= rank <= 35 and elapsed < 10.0
    report(1, ok, f"detected rank {rank} in {elapsed:.2f}s (want 31..35 in <10s)")
    assert 31 <= rank <= 35
    assert elapsed < 10.0
    assert len(data) == 400


def test_criterion_2_interpolation_residual(plant_pencil, plant_rank, plant_dataset):
    rlz = reduce_to_realization(plant_pencil, plant_rank.rank)
    z = plant_dataset.points()
    phi = plant_dataset.values()
    residual = float(np.max(np.abs(eval_transfer(rlz, z) - phi) / np.abs(phi)))
    ok = residual <= 1e-6
    report(2, ok, f"max relative residual {residual:.3e} over {z.size} points "
                  "(want <= 1e-6)")
    assert residual <= 1e-6


def test_criterion_3_controller_recovery(k2_sweep):
    row = k2_sweep.rows[0]
    assert row.order == 1
    gains = fit_pi_gains(row.realization)
    dkp = abs(gains.kp - 0.1914) / 0.1914
    dki = abs(gains.ki - 0.0252) / 0.0252
    ok = dkp <= 0.02 and dki <= 0.02
    report(3, ok, f"order-1 controller kp={gains.kp:.6g} ({100 * dkp:.2f}% off "
                  f"0.1914), ki={gains.ki:.6g} ({100 * dki:.2f}% off 0.0252); "
                  "want both within 2%")
    assert dkp <= 0.02
    assert dki <= 0.02


def test_criterion_4_ideal_controller_orders(m1_design, m2_kstar):
    _, _, kstar1 = m1_design
    r1 = detect_rank(build_pencil(partition_points(kstar1))).rank
    r2 = detect_rank(build_pencil(partition_points(m2_kstar))).rank
    ok = 31 <= r1 <= 37 and 37 <= r2 <= 43
    report(4, ok, f"ideal-controller orders: first target {r1} (want 34+-3), "
                  f"loop target {r2} (want 40+-3)")
    assert 31 <= r1 <= 37
    assert 37 <= r2 <= 43


def test_criterion_5_small_gain_safe_orders(plant_dataset, m1_design, k2_sweep):
    m1, gamma1, kstar1 = m1_design
    sweep1 = reduce_controller(kstar1, range(1, 21), gamma_bound=gamma1)
    safe1 = sweep1.smallest_safe_order()
    safe2 = k2_sweep.smallest_safe_order()
    ok = safe1 is not None and 12 <= safe1 <= 14 \
        and safe2 is not None and 1 <= safe2 <= 3
    report(5, ok, f"smallest certified orders: first target {safe1} "
                  f"(want 13+-1), loop target {safe2} (want 2+-1)")
    assert safe1 is not None and 12 <= safe1 <= 14
    assert safe2 is not None and 1 <= safe2 <= 3


def test_criterion_6_pi_synthesis(synthesis):
    result, elapsed = synthesis
    kp, ki = result.controller.kp, result.controller.ki
    dkp = abs(kp - 0.191) / 0.191
    dki = abs(ki - 0.0252) / 0.0252
    checks = {
        "gamma<=70": result.gamma <= 70.0,
        "kp within 15%": dkp <= 0.15,
        "ki within 15%": dki <= 0.15,
        "stable": bool(result.stable),
        "runtime<60s": elapsed < 60.0,
    }
    ok = all(checks.values())
    failed = ", ".join(name for name, good in checks.items() if not good)
    report(6, ok, f"gamma={result.gamma:.4f}, kp={kp:.6g} ({100 * dkp:.1f}% off), "
                  f"ki={ki:.6g} ({100 * dki:.1f}% off), stable={result.stable}, "
                  f"{elapsed:.1f}s" + (f"; failed: {failed}" if failed else ""))
    assert result.gamma <= 70.0
    assert result.stable
    assert elapsed < 60.0
    assert dki <= 0.15
    assert dkp <= 0.15


def test_criterion_7_delay_sweep(plant_oracle_map, k2_realization, omega_grid):
    k = TransferMap.from_realization(k2_realization, label="reduced controller")
    taus = np.linspace(4.6, 5.5, 20)
    t0 = time.perf_counter()
    result = delay_margin_sweep(plant_oracle_map, k, taus, omega_grid)
    elapsed = time.perf_counter() - t0
    verdicts = [row.verdict for row in result.rows]
    head_ok = all(v == "stable" for v in verdicts[:10])
    tail_ok = all(v == "unstable" for v in verdicts[10:])
    tag11 = result.rows[10].stab_tag
    tag_ok = math.isfinite(tag11) and tag11 > 1e6
    ok = head_ok and tail_ok and tag_ok and elapsed < 120.0
    report(7, ok, f"verdicts {''.join('S' if v == 'stable' else 'U' for v in verdicts)}"
                  f" (want SSSSSSSSSSUUUUUUUUUU), row-11 tag {tag11:.3g} "
                  f"(want >1e6), first unstable tau "
                  f"{result.destabilizing_delay}, {elapsed:.1f}s")
    assert elapsed < 120.0
    assert head_ok
    assert tail_ok
    assert tag_ok


def test_criterion_8_random_classification_suite():
    rng = np.random.default_rng(2468)
    grid = np.geomspace(1e-2, 1e2, 100)
    eval_grid = 1j * grid
    misses = 0
    worst_recon = 0.0
    for stable in (True, False):
        for _ in range(100):
            rlz, oracle, _ = random_system(rng, stable=stable)
            rep = stability_tag(TransferMap.from_callable(oracle), grid)
            want = "stable" if stable else "unstable"
            if rep.verdict != want:
                misses += 1
            sp = stable_antistable_split(rlz)
            recon = (
                eval_transfer(sp.stable_part, eval_grid)
                + eval_transfer(sp.antistable_part, eval_grid)
            )
            ref = oracle(eval_grid)
            err = float(np.max(np.abs(recon - ref)) / np.max(np.abs(ref)))
            worst_recon = max(worst_recon, err)
    ok = misses == 0 and worst_recon <= 1e-8
    report(8, ok, f"misclassifications {misses}/200, worst split "
                  f"reconstruction {worst_recon:.2e} (want 0 and <=1e-8)")
    assert misses == 0
    assert worst_recon <= 1e-8


def test_criterion_9_sensitivity_overlay(synthesis, plant_oracle_map,
                                         approximant_map, omega_grid):
    result, _ = synthesis
    k = result.controller.transfer_map()(1j * omega_grid)
    s = 1j * omega_grid
    s_oracle = 1.0 / (1.0 + np.asarray(plant_oracle_map(s)) * k)
    s_approx = 1.0 / (1.0 + np.asarray(approximant_map(s)) * k)
    err = float(np.max(np.abs(s_oracle - s_approx) / np.abs(s_oracle)))
    ok = err <= 0.01
    report(9, ok, f"sensitivity overlay max relative gap {err:.2e} "
                  "(want <= 1e-2)")
    assert err <= 0.01
