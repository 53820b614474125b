"""Descriptor-realization algebra, spectra, splitting, and simulation.

Every numerical check is against an independent closed-form reference:
partial-fraction evaluators for transfers, explicitly constructed poles
for spectra, and analytic step responses for the integrator.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
import scipy.linalg

from helpers import modal_realization, partial_fraction_eval, random_system
from loewner_lab import descriptor_ops
from loewner_lab.descriptor_ops import (
    DescriptorRealization,
    TransferMap,
    add,
    closed_loop_delay,
    densify_log_grid,
    eval_transfer,
    feedback_unity,
    linf_norm_grid,
    load_realization,
    poles,
    realization_from_json,
    realization_to_json,
    save_realization,
    scale,
    series,
    simulate_step,
    stable_antistable_split,
)
from loewner_lab.errors import (
    BoundaryPoleError,
    DataFormatError,
    LoopSingularityError,
    PoleHitError,
    SimulationError,
    SingularityError,
    SingularPencilError,
)
from loewner_lab.mfsa import nyquist_curve, stability_tag
from loewner_lab.pi_synth import (
    PIController,
    default_weights,
    eval_weighted_performance,
    optimize_pi,
)

GRID = 1j * np.geomspace(1e-2, 1e2, 60)


def rel_err(got, ref):
    ref = np.asarray(ref)
    scale_ = max(float(np.max(np.abs(ref))), 1e-300)
    return float(np.max(np.abs(got - ref))) / scale_


class TestEvalTransfer:
    def test_matches_partial_fractions(self):
        pairs = [(-0.5 + 3.0j, 1.0 - 0.25j)]
        reals = [(-2.0, 1.5)]
        rlz = modal_realization(pairs, reals, feedthrough=0.7)
        oracle = partial_fraction_eval(pairs, reals, feedthrough=0.7)
        assert rel_err(eval_transfer(rlz, GRID), oracle(GRID)) < 1e-12

    def test_scalar_in_scalar_out(self):
        rlz = modal_realization([], [(-1.0, 1.0)])
        val = eval_transfer(rlz, 1.0)
        assert isinstance(val, complex)
        assert val == pytest.approx(0.5)

    def test_preserves_array_shape(self):
        rlz = modal_realization([], [(-1.0, 1.0)])
        s = np.array([[1j, 2j], [3j, 4j]])
        out = eval_transfer(rlz, s)
        assert out.shape == (2, 2)
        assert out[1, 0] == pytest.approx(1.0 / (3j + 1.0))

    def test_order_zero_is_pure_feedthrough(self):
        rlz = DescriptorRealization(
            E=np.zeros((0, 0)), A=np.zeros((0, 0)),
            B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=0.25,
        )
        assert eval_transfer(rlz, 5.0j) == pytest.approx(0.25)

    @staticmethod
    def dense_realization(seed):
        # A modal system behind random dense real transforms, so the
        # Schur form is dense and every back-substitution is a full one.
        rng = np.random.default_rng(seed)
        rlz, _, _ = random_system(rng, stable=True)
        n = rlz.order
        Tl = rng.standard_normal((n, n)) + n * np.eye(n)
        Tr = rng.standard_normal((n, n)) + n * np.eye(n)
        return DescriptorRealization(
            Tl @ rlz.E @ Tr, Tl @ rlz.A @ Tr, Tl @ rlz.B, rlz.C @ Tr, rlz.D
        )

    def test_conjugate_pairs_are_solved_once(self, monkeypatch):
        factorizations, solved = [], []
        real_qz, real_values = scipy.linalg.qz, descriptor_ops._schur_values

        def qz_spy(*args, **kwargs):
            factorizations.append(args[0].shape[0])
            return real_qz(*args, **kwargs)

        def values_spy(rlz, s, asked):
            solved.append(s.size)
            return real_values(rlz, s, asked)

        monkeypatch.setattr(scipy.linalg, "qz", qz_spy)
        monkeypatch.setattr(descriptor_ops, "_schur_values", values_spy)
        upper = 1j * np.geomspace(2 * np.pi / 100, 2 * np.pi, 200)
        closed = np.concatenate([upper, upper.conj()])
        vals = eval_transfer(self.dense_realization(3), closed)
        assert len(factorizations) == 1
        assert solved == [200]
        assert np.array_equal(vals[200:], vals[:200].conj())

    @staticmethod
    def dense_reference(rlz, s):
        return np.array([
            (rlz.C @ np.linalg.solve(p * rlz.E - rlz.A, rlz.B))[0, 0] + rlz.D
            for p in s
        ])

    @staticmethod
    def schur_blocks(rlz):
        """(number of 2x2 diagonal blocks, number of infinite eigenvalues)."""
        S, T, _, _ = scipy.linalg.qz(rlz.A, rlz.E, output="real")
        pairs = int(np.count_nonzero(np.diag(S, -1)))
        return pairs, int(np.count_nonzero(np.diag(T) == 0.0))

    @pytest.mark.parametrize("seed", range(4))
    def test_dense_systems_match_dense_solves(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        rlz = DescriptorRealization(
            E=rng.standard_normal((n, n)) + n * np.eye(n),
            A=rng.standard_normal((n, n)) - 2.0 * np.eye(n),
            B=rng.standard_normal((n, 1)),
            C=rng.standard_normal((1, n)),
            D=0.3,
        )
        assert self.schur_blocks(rlz)[0] >= 1
        s = np.concatenate([GRID, GRID.conj(), [0.7 + 1.3j, -2.5 + 0.0j]])
        assert rel_err(eval_transfer(rlz, s), self.dense_reference(rlz, s)) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_singular_e_matches_dense_solves(self, seed):
        # Two complex pairs, one real mode and a 2x2 nilpotent block (a
        # polynomial part of degree one) behind dense transforms, so E is
        # singular and the Schur form carries infinite eigenvalues.
        rng = np.random.default_rng(100 + seed)
        modal = modal_realization(
            [(-0.4 + 2.0j, 1.0 - 0.5j), (-1.5 + 0.7j, 0.3 + 0.2j)], [(-3.0, 2.0)]
        )
        k = modal.order
        E = scipy.linalg.block_diag(modal.E, [[0.0, 1.0], [0.0, 0.0]])
        A = scipy.linalg.block_diag(modal.A, np.eye(2))
        B = np.vstack([modal.B, [[0.0], [1.0]]])
        C = np.hstack([modal.C, [[1.0, 0.0]]])
        n = k + 2
        Tl = rng.standard_normal((n, n)) + n * np.eye(n)
        Tr = rng.standard_normal((n, n)) + n * np.eye(n)
        rlz = DescriptorRealization(Tl @ E @ Tr, Tl @ A @ Tr, Tl @ B, C @ Tr, 0.5)
        pairs, infinite = self.schur_blocks(rlz)
        assert pairs >= 1 and infinite >= 1
        s = np.concatenate([GRID, GRID.conj()])
        assert rel_err(eval_transfer(rlz, s), self.dense_reference(rlz, s)) < 1e-12

    @pytest.mark.parametrize(
        "E, A, blocks",
        [
            ([[2.0]], [[-3.0]], (0, 0)),
            ([[0.0]], [[1.5]], (0, 1)),
            ([[1.0, 0.3], [-0.2, 0.8]], [[-0.5, 2.0], [-3.0, -0.4]], (1, 0)),
            ([[1.0, 0.0], [0.0, 0.0]], [[-1.0, 0.4], [0.7, 2.0]], (0, 1)),
        ],
        ids=["order-1", "order-1-infinite", "order-2-pair", "order-2-infinite"],
    )
    def test_low_orders_match_dense_solves(self, E, A, blocks):
        n = len(A)
        rlz = DescriptorRealization(
            E=np.array(E), A=np.array(A),
            B=np.arange(1.0, n + 1.0).reshape(n, 1),
            C=np.linspace(0.5, -1.0, n).reshape(1, n), D=-0.2,
        )
        assert self.schur_blocks(rlz) == blocks
        s = np.concatenate([GRID, GRID.conj(), [-7.0 + 0.0j]])
        assert rel_err(eval_transfer(rlz, s), self.dense_reference(rlz, s)) < 1e-12

    def test_each_value_equals_its_scalar_evaluation(self):
        rlz = self.dense_realization(7)
        s = np.array([
            [0.3 + 2.0j, 0.3 - 2.0j, -1.5 + 0.0j, 4.0 + 0.0j],
            [-4.0j, 4.0j, 0.3 + 2.0j, 1.7 - 0.6j],
        ])
        out = eval_transfer(rlz, s)
        assert out.shape == s.shape
        for idx, p in np.ndenumerate(s):
            assert out[idx] == eval_transfer(rlz, p), (idx, p)

    def test_grid_larger_than_one_chunk_matches_pointwise(self):
        # 150 points of an order-80 system are solved together; the
        # elementwise block updates must not let batching change a bit.
        rng = np.random.default_rng(11)
        n = 80
        rlz = DescriptorRealization(
            E=np.eye(n) + 0.1 * rng.standard_normal((n, n)),
            A=rng.standard_normal((n, n)) - n * np.eye(n),
            B=rng.standard_normal((n, 1)),
            C=rng.standard_normal((1, n)),
        )
        s = 1j * np.geomspace(1e-2, 1e2, 150)
        out = eval_transfer(rlz, s)
        assert all(out[i] == eval_transfer(rlz, p) for i, p in enumerate(s))

    def test_pole_error_names_the_requested_point(self):
        # 1/(s^2 + 1): the pencil is exactly singular at s = +-1j, and the
        # solve for -1j runs at its conjugate +1j.
        rlz = DescriptorRealization(
            E=np.eye(2), A=np.array([[0.0, 1.0], [-1.0, 0.0]]),
            B=np.array([[0.0], [1.0]]), C=np.array([[1.0, 0.0]]), D=0.0,
        )
        want = re.escape(f"at s = {complex(-1j)}")
        with pytest.raises(PoleHitError, match=want):
            eval_transfer(rlz, -1j)
        with pytest.raises(PoleHitError, match=want):
            eval_transfer(rlz, np.array([2.0j, -1j, 3.0j]))

    def test_pole_hit_on_a_one_by_one_block(self):
        # Real modes at -1, -2 and -4 with E = I: the pencil's 1x1 block at
        # -2 vanishes exactly there.
        rlz = modal_realization([], [(-1.0, 1.0), (-2.0, 0.5), (-4.0, 2.0)])
        assert TestEvalTransfer.schur_blocks(rlz) == (0, 0)
        want = re.escape(f"at s = {complex(-2.0)}")
        with pytest.raises(PoleHitError, match=want):
            eval_transfer(rlz, np.array([1.0j, -2.0 + 0.0j, 3.0 - 1.0j]))

    def test_pole_hit_on_a_two_by_two_block(self):
        # A real mode at -3 below the pair -0.5 +- 2j, whose 2x2 block is
        # exactly singular at the pair; the caller asks for the lower one.
        rlz = DescriptorRealization(
            E=np.eye(3),
            A=np.array([[-0.5, 2.0, 0.0], [-2.0, -0.5, 1.0], [0.0, 0.0, -3.0]]),
            B=np.ones((3, 1)), C=np.array([[1.0, -1.0, 2.0]]),
        )
        assert TestEvalTransfer.schur_blocks(rlz) == (1, 0)
        want = re.escape(f"at s = {complex(-0.5 - 2.0j)}")
        with pytest.raises(PoleHitError, match=want):
            eval_transfer(rlz, np.array([1.0j, -0.5 - 2.0j, 4.0j]))


class TestRealizationValidation:
    def test_singular_pencil_rejected(self):
        with pytest.raises(SingularPencilError):
            DescriptorRealization(
                E=np.zeros((1, 1)), A=np.zeros((1, 1)),
                B=np.ones((1, 1)), C=np.ones((1, 1)), D=0.0,
            )

    def test_complex_matrix_rejected(self):
        with pytest.raises(ValueError):
            DescriptorRealization(
                E=np.eye(1), A=np.array([[1j]]),
                B=np.ones((1, 1)), C=np.ones((1, 1)), D=0.0,
            )

    def test_complex_feedthrough_rejected(self):
        with pytest.raises(ValueError):
            DescriptorRealization(
                E=np.eye(1), A=-np.eye(1),
                B=np.ones((1, 1)), C=np.ones((1, 1)), D=1j,
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            DescriptorRealization(
                E=np.eye(2), A=-np.eye(2),
                B=np.ones((1, 1)), C=np.ones((1, 2)), D=0.0,
            )


class TestPoles:
    def test_modal_poles_recovered(self):
        pairs = [(-0.5 + 3.0j, 1.0j), (-1.5 + 0.2j, 0.3)]
        reals = [(-2.0, 1.0), (0.7, -0.4)]
        rlz = modal_realization(pairs, reals)
        want = sorted(
            [p for p, _ in pairs] + [np.conj(p) for p, _ in pairs]
            + [complex(p) for p, _ in reals],
            key=lambda z: (z.real, z.imag),
        )
        spec = poles(rlz)
        got = sorted(map(complex, spec.finite), key=lambda z: (z.real, z.imag))
        assert spec.infinite_count == 0
        assert np.allclose(got, want, atol=1e-10)

    def test_infinite_eigenvalues_counted_separately(self):
        rlz = DescriptorRealization(
            E=np.diag([1.0, 0.0]), A=np.eye(2),
            B=np.ones((2, 1)), C=np.ones((1, 2)), D=0.0,
        )
        spec = poles(rlz)
        assert spec.infinite_count == 1
        assert spec.finite.size == 1
        assert spec.finite[0] == pytest.approx(1.0)

    def test_order_zero_has_no_poles(self):
        rlz = DescriptorRealization(
            E=np.zeros((0, 0)), A=np.zeros((0, 0)),
            B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=1.0,
        )
        spec = poles(rlz)
        assert spec.finite.size == 0
        assert spec.infinite_count == 0


class TestStableAntistableSplit:
    def test_two_real_poles_split_exactly(self):
        rlz = modal_realization([], [(-1.0, 1.0), (2.0, 1.0)])
        sp = stable_antistable_split(rlz)
        s_ref = lambda s: 1.0 / (s + 1.0)
        a_ref = lambda s: 1.0 / (s - 2.0)
        assert rel_err(eval_transfer(sp.stable_part, GRID), s_ref(GRID)) < 1e-12
        assert rel_err(eval_transfer(sp.antistable_part, GRID), a_ref(GRID)) < 1e-12
        assert poles(sp.stable_part).finite[0] == pytest.approx(-1.0)
        assert poles(sp.antistable_part).finite[0] == pytest.approx(2.0)

    def test_pure_stable_short_circuit(self):
        rlz = modal_realization([(-1.0 + 2.0j, 1.0)], [], feedthrough=0.3)
        sp = stable_antistable_split(rlz)
        assert sp.antistable_part.order == 0
        assert sp.antistable_part.D == 0.0
        assert sp.stable_part is rlz
        assert sp.antistable_poles.size == 0

    def test_pure_antistable_keeps_feedthrough_on_stable_side(self):
        rlz = modal_realization([(1.0 + 2.0j, 1.0)], [], feedthrough=0.5)
        sp = stable_antistable_split(rlz)
        assert sp.stable_part.order == 0
        assert sp.stable_part.D == pytest.approx(0.5)
        assert sp.antistable_part.D == 0.0
        ref = partial_fraction_eval([(1.0 + 2.0j, 1.0)], [])
        assert rel_err(eval_transfer(sp.antistable_part, GRID), ref(GRID)) < 1e-12

    def test_boundary_pole_aborts(self):
        rlz = modal_realization([], [(-1e-12, 1.0), (-1.0, 1.0)])
        with pytest.raises(BoundaryPoleError):
            stable_antistable_split(rlz)

    def test_random_systems_reconstruct(self):
        # Mixed-spectrum draws with a guaranteed 0.1 gap from the axis:
        # the two parts must sum back to the original transfer and carry
        # disjoint halves of the spectrum.
        rng = np.random.default_rng(7)
        grid = 1j * np.geomspace(1e-2, 1e2, 100)
        for trial in range(50):
            rlz, oracle, pl = random_system(
                rng, stable=False,
                re_stable=(-3.0, -0.1), re_unstable=(0.1, 2.0),
            )
            sp = stable_antistable_split(rlz)
            recon = (
                eval_transfer(sp.stable_part, grid)
                + eval_transfer(sp.antistable_part, grid)
            )
            assert rel_err(recon, oracle(grid)) < 1e-8, f"trial {trial}"
            fin_s = poles(sp.stable_part).finite
            fin_a = poles(sp.antistable_part).finite
            # The split reports the antistable spectrum it computed.
            assert sp.antistable_poles.size == fin_a.size
            for p in fin_a:
                assert np.min(np.abs(sp.antistable_poles - p)) < 1e-8 * max(1.0, abs(p))
            for p in sp.antistable_poles:
                assert np.min(np.abs(fin_a - p)) < 1e-8 * max(1.0, abs(p))
            assert np.all(fin_s.real < 0)
            assert np.all(fin_a.real > 0)
            got = np.concatenate([fin_s, fin_a])
            assert got.size == pl.size
            for p in pl:
                assert np.min(np.abs(got - p)) < 1e-8 * max(1.0, abs(p))

    def test_tiny_spectral_gap_is_solved_or_flagged(self):
        # Poles straddling the axis at +/-1e-7 stress the generalized
        # Sylvester solve; a perturbed answer is acceptable only when it
        # still reconstructs the transfer.
        rlz = modal_realization([], [(-1e-7, 1.0), (1e-7, 1.0)])
        try:
            sp = stable_antistable_split(rlz, guard=1e-9)
        except SingularPencilError:
            return
        recon = (
            eval_transfer(sp.stable_part, GRID)
            + eval_transfer(sp.antistable_part, GRID)
        )
        ref = 1.0 / (GRID + 1e-7) + 1.0 / (GRID - 1e-7)
        assert rel_err(recon, ref) < 1e-6

    def test_infinite_modes_travel_with_antistable_part(self):
        # Impulsive direction (singular E) plus one stable pole: the split
        # keeps the polynomial part out of the stable realization.
        rlz = DescriptorRealization(
            E=np.diag([1.0, 0.0]), A=np.diag([-1.0, 1.0]),
            B=np.array([[1.0], [1.0]]), C=np.array([[1.0, 1.0]]), D=0.0,
        )
        sp = stable_antistable_split(rlz)
        assert poles(sp.stable_part).infinite_count == 0
        recon = (
            eval_transfer(sp.stable_part, GRID)
            + eval_transfer(sp.antistable_part, GRID)
        )
        assert rel_err(recon, eval_transfer(rlz, GRID)) < 1e-10

        # The same index-1 structure hidden by random orthogonal rotations:
        # QZ then returns the infinite eigenvalue with a tiny nonzero beta,
        # which must still count as infinite and go antistable.
        rng = np.random.default_rng(0)
        for trial in range(200):
            Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            Z, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            rlz = DescriptorRealization(
                E=Q @ np.diag([1.0, 1.0, 1.0, 0.0]) @ Z,
                A=Q @ np.diag([-1.0, 2.0, -3.0, 1.0]) @ Z,
                B=rng.standard_normal((4, 1)), C=rng.standard_normal((1, 4)),
            )
            sp = stable_antistable_split(rlz)
            spec = poles(sp.stable_part)
            assert spec.infinite_count == 0, f"trial {trial}"
            assert np.all(spec.finite.real < 0), f"trial {trial}"
            recon = (
                eval_transfer(sp.stable_part, GRID)
                + eval_transfer(sp.antistable_part, GRID)
            )
            assert rel_err(recon, eval_transfer(rlz, GRID)) < 1e-10, f"trial {trial}"


class TestCompositionAlgebra:
    def setup_method(self):
        rng = np.random.default_rng(99)
        self.g, self.g_ref, _ = random_system(rng)
        self.k, self.k_ref, _ = random_system(rng)

    def test_series_matches_product(self):
        got = eval_transfer(series(self.g, self.k), GRID)
        assert rel_err(got, self.g_ref(GRID) * self.k_ref(GRID)) < 1e-10

    def test_series_with_feedthrough(self):
        g = modal_realization([], [(-1.0, 1.0)], feedthrough=0.5)
        k = modal_realization([], [(-2.0, 2.0)], feedthrough=1.5)
        ref = lambda s: (0.5 + 1.0 / (s + 1.0)) * (1.5 + 2.0 / (s + 2.0))
        assert rel_err(eval_transfer(series(g, k), GRID), ref(GRID)) < 1e-12

    def test_add_matches_sum(self):
        got = eval_transfer(add(self.g, self.k), GRID)
        assert rel_err(got, self.g_ref(GRID) + self.k_ref(GRID)) < 1e-10

    def test_scale_matches_multiple(self):
        got = eval_transfer(scale(self.g, -2.5), GRID)
        assert rel_err(got, -2.5 * self.g_ref(GRID)) < 1e-12

    def test_feedback_matches_closed_form(self):
        loop = series(self.g, self.k)
        lv = self.g_ref(GRID) * self.k_ref(GRID)
        got = eval_transfer(feedback_unity(loop), GRID)
        assert rel_err(got, lv / (1.0 + lv)) < 1e-9

    def test_feedback_rejects_unit_negative_feedthrough(self):
        loop = modal_realization([], [(-1.0, 1.0)], feedthrough=-1.0)
        with pytest.raises(LoopSingularityError):
            feedback_unity(loop)


class TestTransferMap:
    def test_constant_and_product(self):
        two = TransferMap.constant(2.0)
        assert two(3.4j) == pytest.approx(2.0)
        assert two.realization is not None
        h = TransferMap.from_realization(modal_realization([], [(-1.0, 1.0)]))
        prod = two * h
        assert prod(1j) == pytest.approx(2.0 / (1j + 1.0))
        assert prod.realization is not None
        assert prod.realization.order == 1

    def test_callable_map_has_no_realization(self):
        m = TransferMap.from_callable(lambda s: np.sqrt(s), label="root")
        assert m.realization is None
        assert m(4.0) == pytest.approx(2.0)
        assert (m * m).realization is None


class TestClosedLoopDelay:
    def test_zero_delay_equals_state_space_loop(self):
        rng = np.random.default_rng(3)
        g, _, _ = random_system(rng)
        k, _, _ = random_system(rng)
        hm = TransferMap.from_realization(g)
        km = TransferMap.from_realization(k)
        direct = eval_transfer(feedback_unity(series(g, k)), GRID)
        via_map = closed_loop_delay(hm, km, 0.0)(GRID)
        assert rel_err(via_map, direct) < 1e-10

    def test_delay_formula(self):
        h = TransferMap.from_callable(lambda s: 1.0 / (s + 1.0))
        k = TransferMap.constant(2.0)
        tau = 0.7
        s = 1.3j
        want = (2.0 / (s + 1.0)) / (1.0 + (2.0 / (s + 1.0)) * np.exp(-tau * s))
        assert closed_loop_delay(h, k, tau)(s) == pytest.approx(want)

    def test_negative_delay_rejected(self):
        h = TransferMap.constant(1.0)
        with pytest.raises(ValueError):
            closed_loop_delay(h, h, -0.1)

    def test_non_finite_factor_passes_through_without_invalid_flag(self):
        h = TransferMap.from_callable(
            lambda s: np.where(s.imag == 1.0, np.inf, 1.0 / (s + 1.0))
        )
        k = TransferMap.constant(0.5)
        with np.errstate(all="raise"):
            vals = closed_loop_delay(h, k, 0.0)(np.array([0.5j, 1.0j, 2.0j]))
        assert np.isfinite(vals).tolist() == [True, False, True]
        want = 0.5 / (2.0j + 1.0) / (1.0 + 0.5 / (2.0j + 1.0))
        assert vals[2] == pytest.approx(want, rel=1e-15)

    def test_vanishing_return_difference(self):
        h = TransferMap.constant(-1.0)
        k = TransferMap.constant(1.0)
        with pytest.raises(LoopSingularityError):
            closed_loop_delay(h, k, 0.0)(1.0j)

    def test_vanishing_return_difference_is_named_past_a_nan_sample(self):
        h = TransferMap.from_callable(
            lambda s: np.where(s.imag == 1.0, np.nan, -1.0 + 0.0j)
        )
        k = TransferMap.constant(1.0)
        with pytest.raises(LoopSingularityError, match=re.escape("s = 2j")):
            closed_loop_delay(h, k, 0.0)(np.array([1.0j, 2.0j]))


class TestGridNorm:
    def test_first_order_peak_at_dc(self):
        h = TransferMap.from_realization(modal_realization([], [(-1.0, 1.0)]))
        norm = linf_norm_grid(h, np.linspace(0.0, 10.0, 101))
        assert norm.value == pytest.approx(1.0)
        assert norm.omega == 0.0

    def test_zero_map(self):
        z = TransferMap.constant(0.0)
        assert linf_norm_grid(z, np.geomspace(0.1, 10, 20)).value == 0.0

    def test_antistable_first_order(self):
        h = TransferMap.from_callable(lambda s: 1.0 / (s - 1.0))
        norm = linf_norm_grid(h, np.linspace(0.0, 10.0, 11))
        assert norm.value == pytest.approx(1.0)
        assert norm.omega == 0.0

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            linf_norm_grid(TransferMap.constant(1.0), [])

    def test_failure_names_a_frequency(self):
        def fn(s):
            s = np.asarray(s, dtype=complex)
            if np.any(np.isclose(s.imag, 2.0)):
                raise ZeroDivisionError("model blew up")
            return np.ones(s.shape, dtype=complex)

        with pytest.raises(ZeroDivisionError, match="omega = 2"):
            linf_norm_grid(TransferMap.from_callable(fn), [1.0, 2.0, 3.0])


SAMPLER_GRID = np.geomspace(0.1, 10.0, 21)
BAD_OMEGA = SAMPLER_GRID[7]


def nan_at_bad_omega(s):
    return np.where(s.imag == BAD_OMEGA, np.nan, 1.0 / (s + 1.0))


def raises_at_bad_omega(s):
    if np.any(s.imag == BAD_OMEGA):
        raise SingularityError("model undefined")
    return 1.0 / (s + 1.0)


class TestGridSampler:
    """Every grid consumer rejects a bad sample the same way: it names the
    first frequency where the plant could not be sampled."""

    CONSUMERS = {
        "stability_tag": lambda h: stability_tag(h, SAMPLER_GRID),
        "optimize_pi": lambda h: optimize_pi(
            h, default_weights(), SAMPLER_GRID, start=PIController(0.1, 0.01)
        ),
        "eval_weighted_performance": lambda h: eval_weighted_performance(
            h, PIController(0.1, 0.01), default_weights(), SAMPLER_GRID
        ),
        "linf_norm_grid": lambda h: linf_norm_grid(h, SAMPLER_GRID),
        "nyquist_curve": lambda h: nyquist_curve(
            h, TransferMap.constant(0.5), 0.0, SAMPLER_GRID
        ),
    }

    @pytest.mark.parametrize(
        "plant_fn, message",
        [(nan_at_bad_omega, r"non-finite sample .*"), (raises_at_bad_omega, r"model undefined ")],
        ids=["nan_sample", "raising_plant"],
    )
    @pytest.mark.parametrize("consumer", list(CONSUMERS))
    def test_bad_sample_names_its_frequency(self, consumer, plant_fn, message):
        where = re.escape(f"(at omega = {BAD_OMEGA:g} rad/s)")
        with pytest.raises(SingularityError, match=message + where):
            self.CONSUMERS[consumer](TransferMap.from_callable(plant_fn))


class TestSimulateStep:
    def test_first_order_analytic(self):
        rlz = modal_realization([], [(-1.0, 1.0)])
        resp = simulate_step(rlz, t_end=10.0, dt=1e-3)
        want = 1.0 - np.exp(-resp.t)
        assert np.max(np.abs(resp.y - want)) < 1e-3
        assert resp.y[-1] == pytest.approx(1.0, abs=1e-3)

    def test_feedthrough_only(self):
        rlz = DescriptorRealization(
            E=np.zeros((0, 0)), A=np.zeros((0, 0)),
            B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=0.4,
        )
        resp = simulate_step(rlz, t_end=1.0, dt=0.1)
        assert np.all(resp.y == 0.4)

    def test_integrator_rejected_by_origin_guard(self):
        rlz = modal_realization([], [(0.0, 1.0)])
        with pytest.raises(SimulationError):
            simulate_step(rlz, t_end=1.0, dt=0.01)

    def test_singular_e_rejected(self):
        rlz = DescriptorRealization(
            E=np.diag([1.0, 0.0]), A=np.diag([-1.0, 1.0]),
            B=np.ones((2, 1)), C=np.ones((1, 2)), D=0.0,
        )
        with pytest.raises(SimulationError):
            simulate_step(rlz, t_end=1.0, dt=0.01)

    def test_step_size_validation(self):
        rlz = modal_realization([], [(-1.0, 1.0)])
        with pytest.raises(SimulationError):
            simulate_step(rlz, t_end=1.0, dt=0.0)
        with pytest.raises(SimulationError):
            simulate_step(rlz, t_end=0.05, dt=0.1)

    def test_open_loop_plant_rejected_near_origin(self, rlz33):
        # The transport plant diverges at s = 0, so its approximant carries
        # a pole too close to the origin to integrate meaningfully.
        with pytest.raises(SimulationError, match="origin"):
            simulate_step(rlz33, t_end=60.0, dt=0.02)

    def test_tracking_loop_settles_to_unity(self, rlz33, k2_realization):
        loop = feedback_unity(series(rlz33, k2_realization))
        resp = simulate_step(loop, t_end=60.0, dt=0.02)
        assert resp.y[-1] == pytest.approx(1.0, abs=0.02)


class TestSerialization:
    def test_json_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        rlz, _, _ = random_system(rng)
        path = tmp_path / "rlz.json"
        save_realization(rlz, path)
        back = load_realization(path)
        for name in ("E", "A", "B", "C"):
            assert np.array_equal(getattr(back, name), getattr(rlz, name))
        assert back.D == rlz.D

    def test_dict_schema(self):
        rlz = modal_realization([], [(-1.0, 2.0)], feedthrough=0.5)
        obj = realization_to_json(rlz)
        assert obj["order"] == 1
        assert obj["A"] == [[-1.0]]
        assert obj["D"] == 0.5
        back = realization_from_json(obj)
        assert np.array_equal(back.C, rlz.C)

    def test_bad_shapes_rejected(self):
        rlz = modal_realization([], [(-1.0, 2.0)])
        obj = realization_to_json(rlz)
        obj["B"] = [[1.0], [2.0]]
        with pytest.raises(DataFormatError):
            realization_from_json(obj)


class TestDensify:
    def test_preserves_range_and_count(self):
        g = np.geomspace(0.1, 10.0, 7)
        d = densify_log_grid(g, 4)
        assert d.size == 28
        assert d[0] == pytest.approx(0.1)
        assert d[-1] == pytest.approx(10.0)
        assert np.all(np.diff(d) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            densify_log_grid([1.0], 2)
        with pytest.raises(ValueError):
            densify_log_grid([0.0, 1.0], 2)
