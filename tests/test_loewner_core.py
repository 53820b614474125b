"""Loewner pencil assembly, rank detection, and projection to state space.

Ground truth comes from closed-form rational functions and from the
modal-form random systems in helpers.py, whose transfer values are
computed by an independent partial-fraction evaluator.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from helpers import (
    dense_pair_transform,
    dense_real_forms,
    explicit_projection,
    explicit_stack_svds,
    partial_fraction_eval,
    random_system,
)
from loewner_lab.descriptor_ops import eval_transfer, poles
from loewner_lab.errors import CoincidentPointError, LoewnerLabError, ZeroDataError
from loewner_lab.freq_data import (
    FrequencyDataset,
    PointPartition,
    close_conjugate,
    partition_points,
)
from loewner_lab import loewner_core
from loewner_lab.loewner_core import (
    _pair_cols,
    _pair_rows,
    _pair_starts,
    _stack_weights,
    build_pencil,
    detect_rank,
    reduce_to_realization,
)
from loewner_lab.plant_oracle import eval_plant, sample_grid


def pencil_from_values(points, values):
    ds = close_conjugate(FrequencyDataset.from_arrays(points, values))
    return build_pencil(partition_points(ds))


def pencil_from_oracle(fn, omegas):
    pts = 1j * np.asarray(omegas, dtype=float)
    return pencil_from_values(pts, fn(pts))


def max_rel_residual(rlz, pen):
    pts = np.concatenate([pen.partition.left_points, pen.partition.right_points])
    ref = np.concatenate([pen.partition.left_values, pen.partition.right_values])
    got = eval_transfer(rlz, pts)
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


def off_axis_partition():
    # Order-5 real rational data on both sides of the partition: conjugate
    # pairs off the imaginary axis, pairs on it, and lone real points.
    h = partial_fraction_eval(
        [(-0.5 + 3.0j, 1.0 + 0.5j), (-1.2 + 0.7j, 0.3 - 1.0j)], [(-2.0, 1.5)]
    )
    mu = np.array([0.5, 0.3 + 1.7j, 0.3 - 1.7j, 2.0, -0.4 + 0.9j, -0.4 - 0.9j,
                   5.0j, -5.0j, 1.1, 0.9 + 0.1j, 0.9 - 0.1j, 3.0])
    lam = np.array([1.5 + 0.2j, 1.5 - 0.2j, 0.8, 0.1 + 3.5j, 0.1 - 3.5j, 4.0,
                    2.0j, -2.0j, 0.2, 0.7 + 6.0j, 0.7 - 6.0j, 2.5])
    return PointPartition(left_points=mu, left_values=h(mu),
                          right_points=lam, right_values=h(lam))


def biquad(s):
    # (2s + 3) / (s^2 + 3s + 2) = 1/(s+1) + 1/(s+2)
    s = np.asarray(s, dtype=complex)
    return (2.0 * s + 3.0) / (s * s + 3.0 * s + 2.0)


def overlapping_partition():
    mu = np.array([1j, -1j, 2j, -2j])
    lam = np.array([3j, -3j, 2j, -2j])
    ones = np.ones(4, dtype=complex)
    return PointPartition(left_points=mu, left_values=ones,
                          right_points=lam, right_values=ones)


def empty_partition():
    empty = np.zeros(0, dtype=complex)
    return PointPartition(left_points=empty, left_values=empty,
                          right_points=empty, right_values=empty)


class TestRankDetection:
    def test_known_rational_has_rank_two(self):
        pen = pencil_from_oracle(biquad, np.geomspace(0.01, 10.0, 12))
        rep = detect_rank(pen, tol=1e-10)
        assert rep.rank == 2
        assert rep.rank_row == rep.rank_col == 2
        assert rep.ranks_agree

    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6])
    def test_rank_is_independent_of_scale(self, scale):
        # Responses in large units scale the rounding noise of the divided
        # differences too; an absolute cut alone reads 15 and then 60 here.
        _, oracle, pl = random_system(np.random.default_rng(0))
        assert pl.size == 9
        pen = pencil_from_oracle(lambda s: scale * oracle(s),
                                 np.geomspace(0.01, 100.0, 60))
        rep = detect_rank(pen)
        assert rep.rank == rep.rank_row == rep.rank_col == 9

    def test_singular_values_sorted_descending(self):
        pen = pencil_from_oracle(biquad, np.geomspace(0.01, 10.0, 12))
        rep = detect_rank(pen)
        assert np.all(np.diff(rep.singular_values_row) <= 0)
        assert np.all(np.diff(rep.singular_values_col) <= 0)

    def test_pi_controller_data_has_rank_two(self):
        # kp + ki/s carries one finite pole plus a feedthrough, so the
        # stacked pencils see a second (impulsive) direction.
        k = lambda s: 0.2 + 0.05 / s
        pen = pencil_from_oracle(k, np.geomspace(0.02, 50.0, 10))
        rep = detect_rank(pen, tol=1e-10)
        assert rep.rank == 2
        rlz = reduce_to_realization(pen, 2)
        probe = np.array([0.17j + 0.0, 2.3j, 1.0 + 0.5j])
        assert np.max(np.abs(eval_transfer(rlz, probe) - k(probe))) < 1e-9

    def test_constant_data_has_rank_one(self):
        c = 2.5
        pen = pencil_from_oracle(lambda s: np.full(np.shape(s), c, complex),
                                 np.geomspace(0.1, 10.0, 6))
        rep = detect_rank(pen, tol=1e-10)
        assert rep.rank == 1
        rlz = reduce_to_realization(pen, 1)
        # The Loewner matrix of constant data vanishes, so E must too.
        assert np.max(np.abs(rlz.E)) <= 1e-14 * np.max(np.abs(rlz.A))
        assert abs(eval_transfer(rlz, 0.7 + 0.3j) - c) < 1e-12

    def test_rank_matches_on_driving_data(self, plant_rank):
        assert plant_rank.ranks_agree
        assert plant_rank.rank == plant_rank.rank_row == plant_rank.rank_col

    def test_tolerance_must_be_a_fraction(self):
        pen = pencil_from_oracle(biquad, np.geomspace(0.01, 10.0, 4))
        with pytest.raises(ValueError):
            detect_rank(pen, tol=0.0)
        with pytest.raises(ValueError):
            detect_rank(pen, tol=1.0)

    def test_zero_data_rejected(self):
        pen = pencil_from_oracle(lambda s: np.zeros(np.shape(s), complex),
                                 np.geomspace(0.1, 10.0, 4))
        with pytest.raises(ZeroDataError):
            detect_rank(pen)


class TestPencilAssembly:
    def test_entrywise_definition(self):
        # Tiny hand case: single left/right pair, checked against the
        # divided-difference formulas directly.
        mu = np.array([1j, -1j])
        lam = np.array([3j, -3j])
        v = biquad(mu)
        w = biquad(lam)
        pen = build_pencil(
            PointPartition(left_points=mu, left_values=v,
                           right_points=lam, right_values=w)
        )
        expect_lw = (v[0] - w[0]) / (mu[0] - lam[0])
        expect_ls = (mu[0] * v[0] - lam[0] * w[0]) / (mu[0] - lam[0])
        # The pencil holds Lw only as Lw_r = Tl^H Lw Tr; undo the transform.
        Tl, Tr = dense_pair_transform(mu), dense_pair_transform(lam)
        Lw = Tl @ pen.Lw_r @ Tr.conj().T
        assert Lw[0, 0] == pytest.approx(expect_lw)
        # The pencil holds no Ls; both identities must reproduce its entry.
        ones = np.ones(2)
        assert (Lw @ np.diag(lam) + np.outer(v, ones))[0, 0] == pytest.approx(expect_ls)
        assert (np.diag(mu) @ Lw + np.outer(ones, w))[0, 0] == pytest.approx(expect_ls)
        assert pen.size == 2

    def test_near_coincident_points_rejected(self):
        mu = np.array([2j, -2j])
        lam = (1.0 + 1e-15) * np.array([2j, -2j])
        ones = np.ones(2, dtype=complex)
        with pytest.raises(CoincidentPointError):
            build_pencil(
                PointPartition(left_points=mu, left_values=ones,
                               right_points=lam, right_values=ones)
            )

    def test_overlapping_partition_names_both_points(self):
        # A partition built directly may share a point between its sides;
        # the Loewner build's coincidence rule rejects it.
        want = re.escape("left point 2j coincides with right point 2j")
        with pytest.raises(CoincidentPointError, match=want):
            build_pencil(overlapping_partition())


class TestFactoredOnce:
    """The pencil is one frozen value of real arrays, built by one pass."""

    def test_two_svds_per_pencil(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        pen = build_pencil(off_axis_partition())
        # One SVD per half-size stack factor, N_row (m x m+1), N_col (m+1 x m).
        assert calls == [(12, 13), (13, 12)]
        rank = detect_rank(pen).rank
        for r in (1, rank, pen.size):
            reduce_to_realization(pen, r)
        assert len(calls) == 2

    def test_fields_are_frozen_real_arrays(self):
        pen = build_pencil(off_axis_partition())
        with pytest.raises(dataclasses.FrozenInstanceError):
            pen.Lw_r = np.zeros((12, 12))
        for f in dataclasses.fields(pen):
            if f.name == "partition":
                continue
            a = getattr(pen, f.name)
            assert np.isrealobj(a) and not a.flags.writeable, f.name
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_empty_partition_rejected(self):
        with pytest.raises(ZeroDataError):
            build_pencil(empty_partition())


class TestSweepCandidates:
    """The LDDC sweep's candidates, projected from the leading subspaces."""

    @pytest.mark.parametrize("make, err", [
        (empty_partition, ZeroDataError),
        (overlapping_partition, CoincidentPointError),
    ], ids=["empty", "overlapping"])
    def test_refuses_what_build_pencil_refuses(self, make, err):
        with pytest.raises(err) as want:
            build_pencil(make())
        with pytest.raises(err) as got:
            loewner_core._sweep_candidates(make(), 1)
        assert str(got.value) == str(want.value)

    def test_order_five_interpolates_order_five_data(self):
        # off_axis_partition holds order-5 data: the rank-order candidate
        # interpolates every point, as the exact pencil's projection does.
        part = off_axis_partition()
        pen = build_pencil(part)
        assert detect_rank(pen).rank == 5
        cands = loewner_core._sweep_candidates(part, 5)
        assert [rlz.order for rlz in cands] == [1, 2, 3, 4, 5]
        for rlz in cands:
            assert np.isrealobj(rlz.E) and np.isrealobj(rlz.A), rlz.order
        assert max_rel_residual(cands[-1], pen) < 1e-8
        assert max_rel_residual(reduce_to_realization(pen, 5), pen) < 1e-8


class TestProjection:
    def test_order_bounds_validated(self):
        pen = pencil_from_oracle(biquad, np.geomspace(0.01, 10.0, 6))
        with pytest.raises(ValueError):
            reduce_to_realization(pen, 0)
        with pytest.raises(ValueError):
            reduce_to_realization(pen, pen.size + 1)

    def test_known_rational_recovered_off_grid(self):
        pen = pencil_from_oracle(biquad, np.geomspace(0.01, 10.0, 12))
        rlz = reduce_to_realization(pen, 2)
        probe = np.array([0.33j, 4.7j, 0.5 + 0.25j, 2.0 - 1.0j])
        err = np.abs(eval_transfer(rlz, probe) - biquad(probe))
        assert np.max(err / np.abs(biquad(probe))) < 1e-10
        got = np.sort(poles(rlz).real)
        assert np.allclose(got, [-2.0, -1.0], atol=1e-8)
        assert np.max(np.abs(poles(rlz).imag)) < 1e-8

    def test_single_pole_recovery(self):
        h = lambda s: 1.0 / (s + 1.0)
        pen = pencil_from_oracle(h, np.array([0.1, 0.5, 2.0, 8.0]))
        assert detect_rank(pen).rank == 1
        rlz = reduce_to_realization(pen, 1)
        assert poles(rlz)[0] == pytest.approx(-1.0, abs=1e-8)
        assert abs(eval_transfer(rlz, 0.3 + 0.2j) - h(0.3 + 0.2j)) < 1e-10

    def test_projected_matrices_are_real(self):
        pen = pencil_from_oracle(biquad, np.geomspace(0.01, 10.0, 12))
        rlz = reduce_to_realization(pen, 2)
        for M in (rlz.E, rlz.A, rlz.B, rlz.C):
            assert np.isrealobj(M)
        s = 0.4 + 1.3j
        assert eval_transfer(rlz, np.conj(s)) == pytest.approx(
            np.conj(eval_transfer(rlz, s))
        )

    def test_random_modal_systems_recovered(self):
        # Independent oracle round trip: modal systems of order <= 10 are
        # identified from samples alone and must match the partial-fraction
        # evaluator on a dense off-grid sweep.
        rng = np.random.default_rng(20260814)
        for trial in range(8):
            rlz_true, oracle, true_poles = random_system(
                rng, stable=bool(trial % 2)
            )
            n = rlz_true.order
            m = n + 4 + (n % 2)
            omegas = np.geomspace(1e-2, 2e2, m)
            pen = pencil_from_oracle(oracle, omegas)
            rep = detect_rank(pen, tol=1e-8)
            assert rep.rank == n, f"trial {trial}: rank {rep.rank} != {n}"
            rlz = reduce_to_realization(pen, n)
            dense = 1j * np.geomspace(1e-2, 2e2, 200)
            ref = oracle(dense)
            err = np.abs(eval_transfer(rlz, dense) - ref)
            scale = np.max(np.abs(ref))
            assert np.max(err) < 1e-8 * scale, f"trial {trial}"
            got = poles(rlz)
            for p in true_poles:
                assert np.min(np.abs(got - p)) < 1e-6 * max(1.0, abs(p)), (
                    f"trial {trial}: pole {p} missing"
                )

    def test_full_order_interpolates_plant_subset(self, plant_params):
        pts = sample_grid(12, 2.0 * np.pi * 1e-2, 2.0 * np.pi)
        vals = eval_plant(plant_params, plant_params.x_m, pts)
        pen = pencil_from_values(pts, vals)
        assert pen.size == 12
        rlz = reduce_to_realization(pen, 12)
        assert max_rel_residual(rlz, pen) < 1e-8

    @pytest.mark.xfail(
        strict=True,
        reason="SVD-truncated projections do not shrink the interpolation "
        "residual monotonically on the transport-plant grid; the error "
        "rises between several consecutive orders (see decisions ledger)",
    )
    def test_residual_monotone_up_to_detected_rank(self, plant_pencil, plant_rank):
        res = np.array([
            max_rel_residual(reduce_to_realization(plant_pencil, r), plant_pencil)
            for r in range(1, plant_rank.rank + 1)
        ])
        assert np.all(res[1:] <= res[:-1] * (1.0 + 1e-6))

    def test_residual_small_at_detected_rank(self, plant_pencil, plant_rank):
        rlz = reduce_to_realization(plant_pencil, plant_rank.rank)
        assert max_rel_residual(rlz, plant_pencil) < 1e-6


class TestRealnessTransform:
    def test_matches_dense_transform(self):
        pen = build_pencil(off_axis_partition())
        Lw, Ls, v, w = dense_real_forms(pen)
        assert np.max(np.abs(Ls.imag)) <= 1e-14 * np.max(np.abs(Ls))
        for got, ref in zip((pen.Lw_r, pen.v_r, pen.w_r), (Lw, v, w)):
            assert np.isrealobj(got)
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(ref.imag)) <= 1e-14 * scale
            assert np.max(np.abs(got - ref.real)) <= 1e-14 * scale

    def test_pair_layout_found_once_per_side(self, monkeypatch):
        calls = []

        def counted(points):
            calls.append(points.size)
            return _pair_starts(points)

        monkeypatch.setattr(loewner_core, "_pair_starts", counted)
        pen = build_pencil(off_axis_partition())
        rank = detect_rank(pen).rank
        reduce_to_realization(pen, rank)
        reduce_to_realization(pen, pen.size)
        assert calls == [12, 12]

    def test_separated_conjugates_rejected(self):
        mu = np.array([1j, 2j, -1j, -2j])
        lam = np.array([3j, -3j, 4j, -4j])
        with pytest.raises(LoewnerLabError, match="not followed by its conjugate"):
            build_pencil(
                PointPartition(left_points=mu, left_values=biquad(mu),
                               right_points=lam, right_values=biquad(lam))
            )

    @pytest.mark.parametrize("build", [
        build_pencil, lambda p: loewner_core._sweep_candidates(p, 1),
    ], ids=["build_pencil", "sweep_candidates"])
    def test_non_conjugate_values_rejected(self, build):
        # Conjugate points on the left carry equal, not conjugate, values, so
        # the transformed Loewner matrix keeps an imaginary part.
        mu, lam = np.array([1j, -1j]), np.array([2j, -2j])
        part = PointPartition(left_points=mu, left_values=np.full(2, biquad(1j)),
                              right_points=lam, right_values=biquad(lam))
        want = (r"realness transform of Loewner matrix left imaginary residue "
                r"\S+; data is not conjugate-symmetric")
        with pytest.raises(LoewnerLabError) as exc:
            build(part)
        assert type(exc.value) is LoewnerLabError
        assert re.fullmatch(want, str(exc.value)), str(exc.value)

    @staticmethod
    def walked_pair_starts(points):
        """Reference: walk the points, pairing each non-real one with the next."""
        starts, i = [], 0
        while i < points.size:
            if points[i].imag == 0.0:
                i += 1
                continue
            if i + 1 == points.size or points[i + 1] != np.conj(points[i]):
                return f"point {points[i]} is not followed by its conjugate"
            starts.append(i)
            i += 2
        return starts

    def test_lone_real_point_between_pairs(self):
        points = np.array([1j, -1j, 0.5 + 0j, 2j, -2j, -3.0 + 0j, 0.25 + 0j, 4j, -4j])
        assert _pair_starts(points).tolist() == [0, 3, 7]

    def test_odd_run_names_its_unpaired_point(self):
        # 3j closes a run of five non-real points; its partner slot holds 0.5.
        points = np.array([0.5 + 0j, 1j, -1j, 2j, -2j, 3j, 0.5 + 0j, 4j, -4j])
        want = re.escape(f"point {points[5]} is not followed")
        with pytest.raises(LoewnerLabError, match=want):
            _pair_starts(points)

    def test_layouts_match_the_pointwise_walk(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            points, size = [], rng.integers(0, 12)
            while len(points) < size:
                z = complex(rng.integers(-2, 3), rng.integers(1, 3))
                kind = rng.integers(0, 4)
                if kind == 0:
                    points.append(complex(rng.integers(-2, 3), 0.0))
                elif kind == 1:
                    points.append(z)
                else:
                    points += [z, z.conjugate()]
            points = np.array(points, dtype=complex)
            want = self.walked_pair_starts(points)
            if isinstance(want, str):
                with pytest.raises(LoewnerLabError, match=re.escape(want)):
                    _pair_starts(points)
            else:
                starts = _pair_starts(points)
                assert starts.tolist() == want, points
                # The stack weights of an accepted layout transform to
                # exactly real vectors, at any magnitude.
                for scale in (1e-3, 1.0, 1e3):
                    _, c, _ = _stack_weights(scale * points)
                    assert not _pair_cols(c.copy(), starts).imag.any(), points
                    assert not _pair_rows(c.copy(), starts).imag.any(), points


class TestHalfSizeStackFactors:
    """The half-size factors against SVDs of the explicit m x 2m stacks."""

    @staticmethod
    def check_spectra_and_rank(pen):
        (_, s_row), (s_col, _) = explicit_stack_svds(pen)
        rep = detect_rank(pen, tol=1e-10)
        assert np.max(np.abs(rep.singular_values_row - s_row)) <= 1e-12 * s_row[0]
        assert np.max(np.abs(rep.singular_values_col - s_col)) <= 1e-12 * s_col[0]
        assert rep.rank_row == int(np.sum(s_row > 1e-10))
        assert rep.rank_col == int(np.sum(s_col > 1e-10))
        return rep

    def test_off_axis_and_real_points(self):
        rep = self.check_spectra_and_rank(build_pencil(off_axis_partition()))
        assert rep.rank == 5

    def test_driving_plant_pencil(self, plant_pencil, plant_rank):
        rep = self.check_spectra_and_rank(plant_pencil)
        assert rep.rank == plant_rank.rank

    def test_projection_matches_explicit_stacks(self):
        rng = np.random.default_rng(20261018)
        dense = 1j * np.geomspace(1e-2, 2e2, 200)
        for trial in range(6):
            rlz_true, oracle, _ = random_system(rng, stable=bool(trial % 2))
            n = rlz_true.order
            pen = pencil_from_oracle(oracle, np.geomspace(1e-2, 2e2, n + 6 + n % 2))
            ref = eval_transfer(explicit_projection(pen, n), dense)
            got = eval_transfer(reduce_to_realization(pen, n), dense)
            assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref)), (
                f"trial {trial}"
            )


class TestShiftedIdentity:
    """E, A, B, C against the projection of an explicitly formed Ls.

    The library reads Ls_r only as Lw_r Lam_r + v_r 1_r^T; the reference
    builds Ls from its divided differences, transforms it densely and
    projects it with the pencil's own Y and X.
    """

    @staticmethod
    def check(pen, r):
        Lw, Ls, v, w = (M.real for M in dense_real_forms(pen))
        Y = pen.U_row[:, :r]
        X = pen.Vt_col[:r, :].T
        rlz = reduce_to_realization(pen, r)
        pairs = (
            (rlz.E, -(Y.T @ Lw @ X)),
            (rlz.A, -(Y.T @ Ls @ X)),
            (rlz.B, (Y.T @ v).reshape(r, 1)),
            (rlz.C, (w @ X).reshape(1, r)),
        )
        for name, (got, ref) in zip("EABC", pairs):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (
                f"{name} at order {r}"
            )

    def test_every_order_off_axis(self):
        pen = build_pencil(off_axis_partition())
        for r in range(1, pen.size + 1):
            self.check(pen, r)

    def test_driving_plant_pencil(self, plant_pencil, plant_rank):
        self.check(plant_pencil, plant_rank.rank)
