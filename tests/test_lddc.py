"""Data-driven controller design: ideal response, certificates, reduction.

The strongest check is a closed-loop round trip: when the target M is the
loop formed by a known controller K0, the ideal-controller samples must
reproduce K0 exactly and the reduction sweep must recover it at order 1.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from helpers import modal_realization
from loewner_lab import descriptor_ops, lddc, loewner_core
from loewner_lab.descriptor_ops import DescriptorRealization, TransferMap, eval_transfer, poles
from loewner_lab.errors import (
    GridMismatchError,
    LoewnerLabError,
    PartitionSizeError,
    SingularityError,
)
from loewner_lab.freq_data import FrequencyDataset, close_conjugate, partition_points
from loewner_lab.lddc import (
    PARASITIC_POLE_FACTOR,
    ReductionSweep,
    SweepRow,
    closed_loop_reference,
    ideal_controller_response,
    reduce_controller,
    reference_from_dataset,
    second_order_reference,
    small_gain_bound,
)
from loewner_lab.loewner_core import (
    _sweep_candidates,
    build_pencil,
    detect_rank,
    reduce_to_realization,
)
from loewner_lab.pi_synth import PIController
from loewner_lab.plant_oracle import PlantParameters, eval_plant


@pytest.fixture(scope="module")
def roundtrip():
    """Plant data plus a target built from a known PI controller."""
    g = modal_realization([(-0.8 + 2.0j, 1.0 - 0.3j)], [(-0.4, 0.9)])
    k0 = PIController(kp=0.3, ki=0.05).realization()
    z = 1j * np.geomspace(1e-3, 1e2, 40)
    data = close_conjugate(FrequencyDataset.from_arrays(z, eval_transfer(g, z)))
    return g, k0, data, closed_loop_reference(g, k0)


class TestReferenceModels:
    def test_second_order_target_values(self):
        m = second_order_reference()
        assert complex(m(0.0)) == pytest.approx(1.0)
        # Critically damped: denominator (s/w0 + 1)^2, so M(i*w0) = -i/2.
        assert complex(m(0.5j)) == pytest.approx(-0.5j)
        assert abs(complex(m(1j * 1e6))) < 1e-9

    def test_tabulated_reference_is_grid_locked(self):
        z = 1j * np.array([1.0, 2.0])
        ds = FrequencyDataset.from_arrays(z, np.array([0.5 + 0j, 0.25 + 0j]))
        m = reference_from_dataset(ds)
        assert complex(m(1j)) == 0.5 + 0j
        with pytest.raises(GridMismatchError):
            m(0.123j)


class TestIdealController:
    def test_round_trip_reproduces_known_controller(self, roundtrip):
        g, k0, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        want = eval_transfer(k0, kstar.points())
        got = kstar.values()
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-9

    def test_tabulated_target_round_trip(self, roundtrip):
        # Same round trip with M handed over as bare samples on the grid.
        g, k0, data, mspec = roundtrip
        mvals = np.asarray(mspec(data.points()), dtype=complex)
        mdata = FrequencyDataset.from_arrays(data.points(), mvals)
        kstar = ideal_controller_response(data, reference_from_dataset(mdata))
        want = eval_transfer(k0, kstar.points())
        assert np.max(np.abs(kstar.values() - want) / np.abs(want)) < 1e-9

    def test_zero_target_gives_zero_controller(self, roundtrip):
        _, _, data, _ = roundtrip
        kstar = ideal_controller_response(data, TransferMap.constant(0.0))
        assert np.all(kstar.values() == 0.0)

    def test_dead_plant_point_is_named(self):
        z = 1j * np.array([1.0, 2.0])
        phi = np.array([0.5 + 0j, 0.0 + 0j])
        data = FrequencyDataset.from_arrays(z, phi)
        with pytest.raises(SingularityError, match="2j"):
            ideal_controller_response(data, second_order_reference())

    def test_unit_target_point_is_named(self, roundtrip):
        _, _, data, _ = roundtrip
        with pytest.raises(SingularityError, match="equals one"):
            ideal_controller_response(data, TransferMap.constant(1.0))

    def test_result_is_conjugate_closed(self, roundtrip):
        _, _, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        assert partition_points(kstar).size == len(kstar) // 2


class TestSmallGainBound:
    def test_zero_target_gives_plant_peak(self, roundtrip):
        _, _, data, _ = roundtrip
        gamma = small_gain_bound(data, TransferMap.constant(0.0))
        assert gamma == pytest.approx(float(np.max(np.abs(data.values()))))

    def test_unit_target_is_vacuous_without_warnings(self, roundtrip):
        # gamma = 0.0 is the one spelling of "no certificate"; nothing else
        # reports it.
        _, _, data, _ = roundtrip
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gamma = small_gain_bound(data, TransferMap.constant(1.0))
        assert gamma == 0.0
        assert caught == []

    def test_scales_linearly_with_plant_data(self, roundtrip):
        _, _, data, mspec = roundtrip
        scaled = FrequencyDataset.from_arrays(data.points(), 3.0 * data.values())
        g1 = small_gain_bound(data, mspec)
        g3 = small_gain_bound(scaled, mspec)
        assert g3 == pytest.approx(3.0 * g1, rel=1e-12)
        assert g1 > 0.0

    @pytest.mark.parametrize("target", ["m1", "closed loop"])
    def test_bound_and_ideal_controller_solve_the_target_once(
        self, target, plant_dataset, rlz33, pi_paper, monkeypatch
    ):
        # Both read M on the plant grid; a realization-backed target is
        # solved on the first and remembered for the second.
        solved = []
        schur_values = descriptor_ops._schur_values

        def spy(rlz, form, s):
            solved.append((rlz, s.size))
            return schur_values(rlz, form, s)

        m_ref = (second_order_reference() if target == "m1"
                 else closed_loop_reference(rlz33, pi_paper.realization()))
        # The same target solved on every call, as a reference.
        plain = TransferMap.from_callable(lambda s: eval_transfer(m_ref.realization, s))
        want = (small_gain_bound(plant_dataset, plain),
                ideal_controller_response(plant_dataset, plain).values())
        monkeypatch.setattr(descriptor_ops, "_schur_values", spy)
        gamma = small_gain_bound(plant_dataset, m_ref)
        kstar = ideal_controller_response(plant_dataset, m_ref)
        assert len(solved) == 1
        assert solved[0][0] is m_ref.realization and solved[0][1] == len(plant_dataset)
        assert gamma == want[0]
        assert np.array_equal(kstar.values(), want[1])


class TestReduceController:
    def test_round_trip_recovered_at_order_one(self, roundtrip):
        # K0 = kp + ki/s: one dynamic pole plus a feedthrough direction,
        # so order 1 with the parasitic-pole convention nails it.
        g, k0, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        gamma = small_gain_bound(data, mspec)
        sweep = reduce_controller(kstar, orders=(1, 2, 3), gamma_bound=gamma)
        first = sweep.rows[0]
        assert first.order == 1
        assert first.error_rel < 1e-6
        assert first.verdict == "stable"
        assert sweep.smallest_safe_order() == 1
        z = kstar.points()
        got = eval_transfer(first.realization, z)
        want = eval_transfer(k0, z)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-6

    def test_error_column_never_increases(self, roundtrip):
        _, _, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        sweep = reduce_controller(kstar, orders=range(1, 8), gamma_bound=0.0)
        errs = [row.error for row in sweep.rows]
        assert all(b <= a for a, b in zip(errs, errs[1:]))

    def test_no_bound_means_inconclusive(self, roundtrip):
        _, _, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        sweep = reduce_controller(kstar, orders=(1, 2), gamma_bound=0.0)
        assert {row.verdict for row in sweep.rows} == {"inconclusive"}
        assert sweep.smallest_safe_order() is None

    def test_orders_are_deduplicated_and_sorted(self, roundtrip):
        _, _, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        sweep = reduce_controller(kstar, orders=(3, 1, 2, 2), gamma_bound=0.0)
        assert [row.order for row in sweep.rows] == [1, 2, 3]

    def test_input_validation(self, roundtrip):
        _, _, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        with pytest.raises(ValueError):
            reduce_controller(kstar, orders=(), gamma_bound=0.0)
        with pytest.raises(ValueError):
            reduce_controller(kstar, orders=(0, 1), gamma_bound=0.0)
        # One rule, one message, for every bound outside [0, inf).
        for bound in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError) as exc:
                reduce_controller(kstar, orders=(1,), gamma_bound=bound)
            assert str(exc.value) == f"gamma_bound must be finite and >= 0, got {bound}"

    def test_unclosed_data_rejected(self):
        z = 1j * np.array([1.0, 2.0])
        ds = FrequencyDataset.from_arrays(z, np.array([1.0 + 0j, 2.0 + 0j]))
        with pytest.raises(PartitionSizeError, match="not conjugate-closed"):
            reduce_controller(ds, orders=(1,), gamma_bound=0.0)

    def test_too_few_samples_rejected(self, roundtrip):
        _, _, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        small = close_conjugate(
            FrequencyDataset.from_arrays(kstar.points()[:10], kstar.values()[:10])
        )
        with pytest.raises(PartitionSizeError):
            reduce_controller(small, orders=(6,), gamma_bound=0.0)

    def test_singular_top_block_leaves_lower_orders(self, roundtrip, monkeypatch):
        # A zero last row makes only the top block a singular pencil; every
        # lower order is a leading block that does not contain it.
        _, _, data, mspec = roundtrip
        kstar = ideal_controller_response(data, mspec)
        real = lddc._sweep_candidates

        def zero_last_row(partition, r):
            *lower, top = real(partition, r)
            E, A = top.E.copy(), top.A.copy()
            E[-1], A[-1] = 0.0, 0.0
            return [*lower, DescriptorRealization(E, A, top.B, top.C)]

        want = reduce_controller(kstar, orders=(1, 2, 3), gamma_bound=0.0)
        monkeypatch.setattr(lddc, "_sweep_candidates", zero_last_row)
        got = reduce_controller(kstar, orders=(1, 2, 3), gamma_bound=0.0)
        assert all(row.verdict != "failed" and row.realization.order < 4 for row in got.rows)
        kept = [(a, b) for a, b in zip(want.rows, got.rows) if a.realization.order < 4]
        assert kept
        for a, b in kept:
            assert (b.realization.order, b.error) == (a.realization.order, a.error)

    def test_singular_order_one_candidate_leaves_a_failed_row(
        self, plant_dataset, monkeypatch
    ):
        # On m1 every candidate's poles are all dynamic, so only the size-1
        # candidate can serve order 1.  A zero pencil there is skipped.
        m_ref = second_order_reference()
        kstar = ideal_controller_response(plant_dataset, m_ref)
        gamma = small_gain_bound(plant_dataset, m_ref)
        real = lddc._sweep_candidates

        def singular_first(partition, r):
            first, *rest = real(partition, r)
            zero = np.zeros((1, 1))
            return [DescriptorRealization(zero, zero, first.B, first.C), *rest]

        orders = range(1, 14)
        want = reduce_controller(kstar, orders, gamma_bound=gamma)
        monkeypatch.setattr(lddc, "_sweep_candidates", singular_first)
        got = reduce_controller(kstar, orders, gamma_bound=gamma)
        assert want.rows[0].verdict == "inconclusive"
        failed = got.rows[0]
        assert (failed.order, failed.verdict, failed.realization) == (1, "failed", None)
        assert failed.error == failed.error_rel == math.inf
        same_rows(want.rows[1:], got.rows[1:])
        assert got.smallest_safe_order() == want.smallest_safe_order() == 13

    def test_sweep_requires_increasing_orders(self):
        row = SweepRow(order=2, realization=None, error=math.inf,
                       error_rel=math.inf, verdict="failed")
        with pytest.raises(ValueError):
            ReductionSweep(rows=(row, row), gamma_bound=0.0)


def hand_sweep(*rows):
    """A sweep of orders 1, 2, ... from (verdict, error_rel) pairs; a failed
    row gets no realization and infinite errors, as reduce_controller's."""
    rlz = modal_realization([], [(-1.0, 1.0)])
    return ReductionSweep(
        rows=tuple(
            SweepRow(order=r, realization=None if verdict == "failed" else rlz,
                     error=err, error_rel=err, verdict=verdict)
            for r, (verdict, err) in enumerate(rows, start=1)
        ),
        gamma_bound=1.0,
    )


class TestPick:
    def test_first_certified_row(self):
        sweep = hand_sweep(
            ("inconclusive", 0.1), ("failed", math.inf), ("stable", 0.5), ("stable", 0.2),
        )
        assert sweep.pick() is sweep.rows[2]

    def test_lowest_relative_error_without_a_certified_row(self):
        sweep = hand_sweep(
            ("inconclusive", 0.3), ("failed", math.inf), ("inconclusive", 0.1),
            ("inconclusive", 0.1), ("inconclusive", 0.2),
        )
        assert sweep.pick() is sweep.rows[2]

    def test_a_failed_row_only_when_every_row_failed(self):
        sweep = hand_sweep(("failed", math.inf), ("inconclusive", 9.0), ("failed", math.inf))
        assert sweep.pick() is sweep.rows[1]
        sweep = hand_sweep(("failed", math.inf), ("failed", math.inf))
        assert sweep.pick() is sweep.rows[0]
        assert sweep.pick().realization is None

    @pytest.mark.parametrize("rows, safe", [
        ((("inconclusive", 0.1), ("stable", 0.5), ("stable", 0.2)), 2),
        ((("inconclusive", 0.3), ("inconclusive", 0.1)), None),
        ((("failed", math.inf),), None),
    ])
    def test_smallest_safe_order_is_the_certified_pick(self, rows, safe):
        sweep = hand_sweep(*rows)
        assert sweep.smallest_safe_order() == safe
        pick = sweep.pick()
        assert (pick.order if pick.verdict == "stable" else None) == safe


class TestDrivingExampleSweep:
    def test_known_loop_certifies_low_order(self, k2_sweep):
        # Target built from the order-33 plant model under its published PI
        # loop: the sweep must certify a very low order as safe.
        safe = k2_sweep.smallest_safe_order()
        assert safe is not None
        assert safe <= 3
        stable_rows = [r for r in k2_sweep.rows if r.verdict == "stable"]
        assert stable_rows
        assert all(r.error_rel < 1.0 / k2_sweep.gamma_bound for r in stable_rows)


@pytest.fixture(scope="module", params=["m1", "m2"])
def swept_candidates(request, plant_dataset, m2_reference):
    """Each sweep candidate's realization, finite poles and grid values.

    The built-in plant's ideal-controller data for m1 and for m2, swept
    over orders 1..20 with lddc's ``poles`` and ``eval_transfer`` spied
    on.  Each record is kept by realization, in the order the sweep first
    read each candidate, and holds the finite poles it counted and, if the
    sweep solved the candidate on the grid, the points it solved and the
    values it read (else None).
    """
    m_ref = second_order_reference() if request.param == "m1" else m2_reference
    kstar = ideal_controller_response(plant_dataset, m_ref)
    seen = []

    def record(rlz):
        for entry in seen:
            if entry[0] is rlz:
                return entry
        seen.append([rlz, None, None, None])
        return seen[-1]

    def poles_spy(rlz):
        finite = poles(rlz)
        entry = record(rlz)
        assert entry[1] is None
        entry[1] = finite
        return finite

    def values_spy(rlz, s):
        vals = eval_transfer(rlz, s)
        entry = record(rlz)
        assert entry[2] is None
        entry[2:] = [s, vals]
        return vals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lddc, "poles", poles_spy)
        mp.setattr(lddc, "eval_transfer", values_spy)
        reduce_controller(kstar, range(1, 21), gamma_bound=0.0)
    return kstar, [tuple(entry) for entry in seen]


class TestOneProjectionSweep:
    """Candidates are leading blocks of one projection, read from one QZ."""

    def test_every_size_is_a_candidate(self, swept_candidates):
        _, seen = swept_candidates
        assert [rlz.order for rlz, *_ in seen] == list(range(1, 22))

    def test_values_are_read_for_every_candidate_a_row_can_pick(self, swept_candidates):
        # Top order 20: a candidate with more dynamic poles is eligible for
        # no row, and only that one is skipped before it is solved.
        kstar, seen = swept_candidates
        cut = PARASITIC_POLE_FACTOR * float(np.max(np.abs(kstar.points().imag)))
        for rlz, finite, s, _ in seen:
            assert (s is not None) == (np.sum(np.abs(finite) <= cut) <= 20), rlz.order

    def test_values_match_own_projection(self, swept_candidates):
        # Measured at most 3.9e-13 (m1) and 3.1e-14 (m2): the blocks equal
        # the separate projections up to the products' summation order.
        kstar, seen = swept_candidates
        pencil = build_pencil(partition_points(kstar))
        for rlz, _, s, vals in seen:
            if s is None:
                continue
            want = eval_transfer(reduce_to_realization(pencil, rlz.order), s)
            assert np.max(np.abs(vals - want) / np.abs(want)) <= 1e-10, rlz.order

    def test_values_are_eval_transfer_bit_for_bit(self, swept_candidates):
        # Every candidate the sweep solves is solved on the whole grid, as given.
        kstar, seen = swept_candidates
        z = kstar.points()
        for rlz, _, s, vals in seen:
            if s is None:
                continue
            assert np.array_equal(s, z), rlz.order
            assert np.array_equal(vals, eval_transfer(rlz, s)), rlz.order

    def test_dynamic_pole_counts_match_poles(self, swept_candidates):
        # The poles the sweep counts, read from the candidate's cached
        # Schur form, against LAPACK ggev on the same pencil.
        kstar, seen = swept_candidates
        cut = PARASITIC_POLE_FACTOR * float(np.max(np.abs(kstar.points().imag)))
        for rlz, finite, _, _ in seen:
            alpha, beta = scipy.linalg.eigvals(rlz.A, rlz.E, homogeneous_eigvals=True)
            fin = descriptor_ops._finite(beta, rlz.E)
            want = alpha[fin] / beta[fin]
            assert finite.size == want.size, rlz.order
            assert np.sum(np.abs(finite) <= cut) == np.sum(np.abs(want) <= cut), rlz.order

    def test_one_projection_and_no_eigensolve(self, plant_dataset, monkeypatch):
        calls = {"_sweep_candidates": 0, "_project": 0, "eig": 0}
        factored = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def schur_spy(rlz, real=descriptor_ops._real_schur):
            factored.append(rlz)  # a reference, so no id() is reused
            return real(rlz)

        kstar = ideal_controller_response(plant_dataset, second_order_reference())
        monkeypatch.setattr(lddc, "_sweep_candidates",
                            counting("_sweep_candidates", lddc._sweep_candidates))
        monkeypatch.setattr(loewner_core, "_project",
                            counting("_project", loewner_core._project))
        monkeypatch.setattr(descriptor_ops, "_real_schur", schur_spy)
        monkeypatch.setattr(scipy.linalg, "eig", counting("eig", scipy.linalg.eig))
        sweep = reduce_controller(kstar, range(1, 21), gamma_bound=0.0)
        assert len(sweep.rows) == 20
        assert calls == {"_sweep_candidates": 1, "_project": 1, "eig": 0}
        # Sizes 1..21 are all candidates (see test_every_size_is_a_candidate).
        assert [rlz.order for rlz in factored] == list(range(1, 22))
        assert len({id(rlz) for rlz in factored}) == len(factored)


def same_rows(a, b):
    """Every field bit for bit; the realizations array by array."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        fields_x, fields_y = vars(x).copy(), vars(y).copy()
        rx, ry = fields_x.pop("realization"), fields_y.pop("realization")
        assert fields_x == fields_y
        assert all(np.array_equal(getattr(rx, m), getattr(ry, m)) for m in "EABCD")


def full_grid_sweep(kstar_data, orders, gamma_bound):
    """The rows of ``reduce_controller``, with every candidate evaluated on
    the grid in reverse order and each value compared against its own
    point's sample.

    The candidates are the sweep's own, factored to the top size as
    ``reduce_controller`` factors them, so only the grid handling differs."""
    z, kstar = kstar_data.points(), kstar_data.values()
    mag = np.abs(kstar)
    nz = mag > 0.0
    partition = partition_points(kstar_data)
    cut = PARASITIC_POLE_FACTOR * float(np.max(np.abs(z.imag)))
    candidates = []
    for rlz in _sweep_candidates(partition, min(orders[-1] + 1, partition.size)):
        try:
            vals, finite = eval_transfer(rlz, z[::-1])[::-1], poles(rlz)
        except LoewnerLabError:
            continue
        diff = np.abs(vals - kstar)
        # (dynamic poles, realization, error, relative error)
        candidates.append((
            int(np.sum(np.abs(finite) <= cut)), rlz,
            float(np.max(diff)), float(np.max(diff[nz] / mag[nz])),
        ))
    rows = []
    for r in orders:
        _, rlz, err, err_rel = min(
            (c for c in candidates if c[0] <= r),
            key=lambda c: (c[2], c[1].order),
        )
        verdict = "stable" if err_rel < 1.0 / gamma_bound else "inconclusive"
        rows.append(SweepRow(
            order=r, realization=rlz, error=err, error_rel=err_rel, verdict=verdict,
        ))
    return rows


class TestGridLayouts:
    """Each point's error is taken against its own sample, whatever the
    order of the grid, its lower partners' rounding or its real points."""

    @staticmethod
    def kstar_data(layout, plant_dataset, roundtrip):
        if layout == "real-axis":
            g, _, _, m_ref = roundtrip
            z = np.concatenate([[0.05, 0.5], 1j * np.geomspace(1e-3, 1e2, 40)])
            plant = close_conjugate(FrequencyDataset.from_arrays(z, eval_transfer(g, z)))
        else:
            plant, m_ref = plant_dataset, second_order_reference()
        kstar = ideal_controller_response(plant, m_ref)
        z, k = kstar.points(), kstar.values()
        if layout == "perturbed":
            # Lower partners off by 4e-13 relative, inside the 1e-12 closure
            # rule: each must still be compared against its own sample.
            k = np.where(z.imag < 0, k * (1.0 + 4e-13), k)
        elif layout == "shuffled":
            perm = np.random.default_rng(0).permutation(z.size)
            z, k = z[perm], k[perm]
        kstar = FrequencyDataset.from_arrays(z, k)
        assert partition_points(kstar).size == z.size // 2
        return kstar, small_gain_bound(plant, m_ref)

    @pytest.mark.parametrize("layout", ["built-in", "perturbed", "shuffled", "real-axis"])
    def test_rows_equal_a_full_grid_sweep(self, layout, plant_dataset, roundtrip):
        kstar, gamma = self.kstar_data(layout, plant_dataset, roundtrip)
        orders = tuple(range(1, 21))
        got = reduce_controller(kstar, orders, gamma_bound=gamma).rows
        want = full_grid_sweep(kstar, orders, gamma)
        assert len(got) == len(orders)
        same_rows(got, want)


# Plant variants in the ranges the benchmark's design workload draws from:
# (omega0, damping, x_m) with omega0 in [2, 4], damping in [0.3, 0.8] and
# x_m in [1.5, 2.5].
DESIGN_VARIANTS = [(2.3, 0.35, 1.6), (2.9, 0.55, 2.4), (3.4, 0.7, 1.9), (3.9, 0.45, 2.2)]


def exact_sweep(kstar_data, orders, gamma_bound):
    """``reduce_controller`` on the leading vectors of full SVDs in place
    of the sweep's leading-subspace factors."""
    def exact_leading(N, r, rng):
        return np.linalg.svd(N, full_matrices=False)[0][:, :r]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(loewner_core, "_leading_left", exact_leading)
        return reduce_controller(kstar_data, orders, gamma_bound=gamma_bound).rows


class TestLeadingSubspaceSweep:
    """The sweep's pencil is factored only to its top size, by subspace
    iteration; its rows must agree with the exact factorization's."""

    @pytest.fixture(scope="class", params=["built-in", *range(len(DESIGN_VARIANTS))])
    def plant_and_m2(self, request, grid_points, plant_dataset, m2_reference, pi_paper):
        """Plant data and the m2 target: the loop of the paper's PI with the
        order-33 fit for the built-in plant (as the CLI builds it), and with
        the detected-rank fit for a variant (as the design workload does)."""
        if request.param == "built-in":
            return plant_dataset, m2_reference
        omega0, damping, x_m = DESIGN_VARIANTS[request.param]
        p = PlantParameters(omega0=omega0, damping=damping, x_m=x_m)
        data = close_conjugate(
            FrequencyDataset.from_arrays(grid_points, eval_plant(p, p.x_m, grid_points))
        )
        pencil = build_pencil(partition_points(data))
        fit = reduce_to_realization(pencil, detect_rank(pencil).rank)
        return data, closed_loop_reference(fit, pi_paper.realization())

    @pytest.mark.parametrize("target", ["m1", "m2"])
    def test_rows_match_the_exact_factorization(self, target, plant_and_m2):
        # Measured on the design workload (seeds 5 and 61, 30 ops each):
        # m1 errors within 3.3e-7 relative, m2 errors, at the noise floor,
        # within 2.5e-13 absolute, about half of this bound.
        data, m2 = plant_and_m2
        m_ref = second_order_reference() if target == "m1" else m2
        kstar = ideal_controller_response(data, m_ref)
        gamma = small_gain_bound(data, m_ref)
        orders = tuple(range(1, 21))
        got = reduce_controller(kstar, orders, gamma_bound=gamma).rows
        want = exact_sweep(kstar, orders, gamma)
        floor = 1e-12 * float(np.max(np.abs(kstar.values())))
        assert len(got) == len(want) == len(orders)
        for a, b in zip(got, want):
            assert a.verdict == b.verdict, a.order
            assert abs(a.error - b.error) <= 1e-6 * b.error + floor, a.order
            if target == "m1":
                # A spectral gap past the top size pins every m1 candidate;
                # m2's tail is flat at the noise floor, so its sizes may move.
                assert a.realization.order == b.realization.order, a.order


class TestSweepCandidates:
    def test_projection_stops_at_the_factored_order(self, plant_dataset):
        # Orders 1..21, each the leading block of the one order-21 projection.
        kstar = ideal_controller_response(plant_dataset, second_order_reference())
        *lower, top = _sweep_candidates(partition_points(kstar), 21)
        assert [rlz.order for rlz in lower] == list(range(1, 21))
        assert top.order == 21
        for rlz in lower:
            q = rlz.order
            assert np.array_equal(rlz.E, top.E[:q, :q]), q
            assert np.array_equal(rlz.A, top.A[:q, :q]), q
            assert np.array_equal(rlz.B, top.B[:q]), q
            assert np.array_equal(rlz.C, top.C[:, :q]), q

    def test_only_small_svds_run(self, plant_dataset, monkeypatch):
        # One SVD per factor, of its 31-row sketch, not of the 200-point factor.
        shapes = []
        real = np.linalg.svd

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        kstar = ideal_controller_response(plant_dataset, second_order_reference())
        reduce_controller(kstar, range(1, 21), gamma_bound=0.0)
        assert shapes == [(31, 201), (31, 201)]

    def test_global_random_state_does_not_reach_it(self, plant_dataset):
        kstar = ideal_controller_response(plant_dataset, second_order_reference())
        first = reduce_controller(kstar, range(1, 21), gamma_bound=0.0).rows
        state = np.random.get_state()
        try:
            np.random.seed(12345)
            np.random.standard_normal(1000)
            np.random.default_rng().standard_normal(1000)
            second = reduce_controller(kstar, range(1, 21), gamma_bound=0.0).rows
        finally:
            np.random.set_state(state)
        same_rows(first, second)
