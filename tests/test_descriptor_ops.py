"""Descriptor-realization algebra, spectra and splitting.

Every numerical check is against an independent closed-form reference:
partial-fraction evaluators for transfers and explicitly constructed poles
for spectra.
"""

from __future__ import annotations

import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from helpers import modal_realization, partial_fraction_eval, random_system
from loewner_lab import cli, descriptor_ops
from loewner_lab.descriptor_ops import (
    DescriptorRealization,
    TransferMap,
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
    series,
    stable_antistable_split,
)
from loewner_lab.errors import (
    BoundaryPoleError,
    DataFormatError,
    LoopSingularityError,
    PoleHitError,
    SingularityError,
    SingularPencilError,
)
from loewner_lab.freq_data import FrequencyDataset, close_conjugate
from loewner_lab.lddc import reduce_controller
from loewner_lab.mfsa import (
    DelayRow,
    DelaySweepResult,
    delay_margin_sweep,
    nyquist_curve,
    stability_tag,
)
from loewner_lab.pi_synth import (
    PIController,
    _loop_is_stable,
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

    def test_one_factorization_solves_every_point_as_given(self, monkeypatch):
        factorizations, solved = [], []
        real_schur, real_values = descriptor_ops._real_schur, descriptor_ops._schur_values

        def schur_spy(rlz):
            factorizations.append(rlz.order)
            return real_schur(rlz)

        def values_spy(rlz, form, s):
            solved.append(s.copy())
            return real_values(rlz, form, s)

        monkeypatch.setattr(descriptor_ops, "_real_schur", schur_spy)
        monkeypatch.setattr(descriptor_ops, "_schur_values", values_spy)
        upper = 1j * np.geomspace(2 * np.pi / 100, 2 * np.pi, 200)
        closed = np.concatenate([upper, upper.conj()])
        vals = eval_transfer(self.dense_realization(3), closed)
        assert len(factorizations) == 1
        assert len(solved) == 1 and np.array_equal(solved[0], closed)
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
        # 1/(s^2 + 1): the pencil is exactly singular at s = +-1j; the
        # solve runs at -1j itself, the point the caller asked for.
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

    @staticmethod
    def layered_realization():
        # Already in real Schur form: the pair -0.5 +- 2j on top, the real
        # mode -2 and an infinite eigenvalue below it, the pair -1 +- 1j at
        # the bottom, each block coupled to every block below it.
        A = scipy.linalg.block_diag(
            [[-0.5, 2.0], [-2.0, -0.5]], [[-2.0]], [[1.0]], [[-1.0, 1.0], [-1.0, -1.0]]
        )
        E = np.diag([1.0, 1.0, 1.0, 0.0, 1.0, 1.0])
        above = np.triu(np.ones((6, 6)), 1)
        above[0, 1] = above[4, 5] = 0.0
        return DescriptorRealization(
            E=E + above * np.linspace(0.5, 0.1, 36).reshape(6, 6),
            A=A + above * np.linspace(0.1, 0.5, 36).reshape(6, 6),
            B=np.arange(1.0, 7.0).reshape(6, 1),
            C=np.linspace(1.0, -0.5, 6).reshape(1, 6), D=0.25,
        )

    @staticmethod
    def schur_layout(rlz):
        """Diagonal blocks of the real QZ from the top: 'P'air, 'R'eal, 'I'nfinite."""
        S, T, _, _ = scipy.linalg.qz(rlz.A, rlz.E, output="real")
        layout, i = "", 0
        while i < rlz.order:
            if i + 1 < rlz.order and S[i + 1, i] != 0.0:
                layout, i = layout + "P", i + 2
            else:
                layout, i = layout + ("I" if T[i, i] == 0.0 else "R"), i + 1
        return layout

    @pytest.mark.parametrize(
        "shape", [(0,), (2, 0), (1,), (2,), (3,), (7,), (149,), (4, 190)]
    )
    def test_values_are_batch_invariant_across_block_layout(self, shape):
        rlz = self.layered_realization()
        assert self.schur_layout(rlz) == "PRIP"
        size = int(np.prod(shape))
        omega = np.geomspace(1e-2, 1e2, size) * np.where(np.arange(size) % 3, 1.0, -1.0)
        s = (1j * omega).reshape(shape)
        out = eval_transfer(rlz, s)
        assert out.shape == shape
        for idx, p in np.ndenumerate(s):
            assert out[idx] == eval_transfer(rlz, p), (idx, p)
        assert np.array_equal(eval_transfer(rlz, s.conj()), out.conj())

    @pytest.mark.parametrize(
        "pole", [-0.5 - 2.0j, -2.0 + 0.0j, -1.0 - 1.0j], ids=["top", "middle", "bottom"]
    )
    def test_pole_hit_in_any_block_names_the_requested_point(self, pole):
        rlz = self.layered_realization()
        assert self.schur_layout(rlz) == "PRIP"
        with pytest.raises(PoleHitError, match=re.escape(f"at s = {complex(pole)}")):
            eval_transfer(rlz, np.array([1.0j, pole, 3.0j]))

    @staticmethod
    def sequential_values(rlz, s):
        """The solve of ``_schur_values`` with every contraction as a loop.

        Each contraction over the realization index sums one rounded
        product at a time, in index order, for each point on its own: the
        arithmetic the no-BLAS rule asks of the block and output
        contractions.  A BLAS product fuses multiplies into adds and blocks
        its sums, so it rounds otherwise even where its values happen not
        to depend on the batch.  The elementwise steps are the solver's
        own, on the same array shapes, so the values must agree bit for bit.
        """
        S, T, Q, Z = descriptor_ops._real_schur(rlz)[:4]
        n = rlz.order
        diag = np.multiply.outer(np.diag(T), s)
        diag -= np.diag(S)[:, None]
        y = np.empty((n, s.size), dtype=complex)
        y[:] = Q.T @ rlz.B
        y_re = y.view(float)

        def contract(row, start):
            acc = np.zeros(2 * s.size)
            for k in range(start, n):
                acc += row[k] * y_re[k]
            return acc.view(complex)

        hi = n
        while hi > 0:
            lo = hi - 2 if hi > 1 and S[hi - 1, hi - 2] != 0.0 else hi - 1
            if hi < n:
                for i in range(lo, hi):
                    y[i] -= s * contract(T[i], hi)
                    y[i] += contract(S[i], hi)
            if hi - lo == 1:
                y[lo] /= diag[lo]
            else:
                b01 = s * T[lo, lo + 1] - S[lo, lo + 1]
                b10 = -S[lo + 1, lo]
                det = diag[lo] * diag[lo + 1] - b01 * b10
                y0, y1 = y[lo].copy(), y[lo + 1]
                y[lo] = (diag[lo + 1] * y0 - b01 * y1) / det
                y[lo + 1] = (diag[lo] * y1 - b10 * y0) / det
            hi = lo
        h = contract((rlz.C @ Z)[0], 0)
        h += rlz.D
        return h

    @pytest.mark.parametrize("size", [1, 7, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_contractions_sum_in_index_order(self, seed, size):
        # eval_transfer solves exactly the points it is given.
        s = 1j * np.geomspace(1e-2, 1e2, size)
        for rlz in (self.dense_realization(seed), self.layered_realization()):
            assert np.array_equal(eval_transfer(rlz, s), self.sequential_values(rlz, s))

    def test_clustered_lightly_damped_order_forty(self):
        # Twenty pairs at 1 to 1.5 rad/s with damping 0.01, behind dense
        # transforms, on the 750 points of a hold-out check.
        omega = np.linspace(1.0, 1.5, 20)
        pairs = [
            (complex(-0.01 * w, w), complex(np.cos(k), np.sin(k)))
            for k, w in enumerate(omega)
        ]
        modal = modal_realization(pairs, [], feedthrough=0.1)
        rng = np.random.default_rng(40)
        n = modal.order
        Tl = rng.standard_normal((n, n)) + n * np.eye(n)
        Tr = rng.standard_normal((n, n)) + n * np.eye(n)
        rlz = DescriptorRealization(
            Tl @ modal.E @ Tr, Tl @ modal.A @ Tr, Tl @ modal.B, modal.C @ Tr, modal.D
        )
        s = 1j * np.geomspace(0.1, 10.0, 750)
        assert rel_err(eval_transfer(rlz, s), self.dense_reference(rlz, s)) < 1e-12


class TestRealSchur:
    # Both half-planes, the real axis and repeated points.
    POINTS = np.concatenate(
        [GRID, 0.4 + GRID.conj(), [-1.5, 0.0, 4.0, 0.3 + 2.0j, 0.3 + 2.0j], GRID[::7]]
    )

    @staticmethod
    def pencil(n, seed, null=0):
        """Random order-n pencil whose E has ``null`` trailing zero columns,
        each an infinite eigenvalue."""
        rng = np.random.default_rng(seed)
        E = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        E[:, n - null:] = 0.0
        return DescriptorRealization(
            E=E,
            A=rng.standard_normal((n, n)),
            B=rng.standard_normal((n, 1)),
            C=rng.standard_normal((1, n)),
        )

    @pytest.mark.parametrize(
        "n, null",
        [*(pytest.param(n, 0, id=str(n)) for n in range(1, 61)),
         pytest.param(12, 2, id="singular-E")],
    )
    def test_form_is_scipy_qz_bit_for_bit(self, n, null):
        rlz = self.pencil(n, n, null)
        form = descriptor_ops._real_schur(rlz)
        want = scipy.linalg.qz(rlz.A, rlz.E, output="real")
        for got, ref in zip(form[:4], want):
            assert np.array_equal(got, ref)
        fin = form.beta != 0.0
        eigs = (form.alphar + 1j * form.alphai)[fin] / form.beta[fin]
        ref = scipy.linalg.eigvals(rlz.A, rlz.E)
        assert np.count_nonzero(~fin) == np.count_nonzero(np.isinf(ref)) == null
        ref = ref[np.isfinite(ref)]
        assert rel_err(np.sort_complex(eigs), np.sort_complex(ref)) < 1e-8
        # The real form makes H(conj s) = conj H(s) exact, with every point
        # solved as given.
        s = self.POINTS
        assert np.array_equal(eval_transfer(rlz, s.conj()), eval_transfer(rlz, s).conj())


def test_pipelines_reach_no_other_qz(monkeypatch):
    # Every real Schur form comes from _real_schur's own gges call.
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.linalg.qz and ordqz are not used")

    monkeypatch.setattr(scipy.linalg, "qz", forbidden)
    monkeypatch.setattr(scipy.linalg, "ordqz", forbidden)
    h = TransferMap.from_callable(lambda s: 1.0 / (s + 1.0) + 0.5 / (s - 2.0))
    assert stability_tag(h, GRID.imag).verdict == "unstable"
    plant = modal_realization([], [(-1.0, 2.0)]).transfer_map()
    res = delay_margin_sweep(plant, TransferMap.constant(1.0), [0.8, 1.3], GRID.imag)
    assert [row.verdict for row in res.rows] == ["stable", "unstable"]
    g = modal_realization([(-0.8 + 2.0j, 1.0 - 0.3j)], [(-0.4, 0.9)])
    z = 1j * np.geomspace(1e-3, 1e2, 40)
    data = close_conjugate(FrequencyDataset.from_arrays(z, eval_transfer(g, z)))
    sweep = reduce_controller(data, (1, 2, 3), gamma_bound=0.0)
    assert [row.order for row in sweep.rows] == [1, 2, 3]


class TestFactoredOnce:
    """A realization is factored on first use; later queries read the form."""

    @staticmethod
    def mixed():
        # Stable and antistable modes behind a dense transform.
        modal = modal_realization(
            [(-0.5 + 3.0j, 1.0j), (0.4 + 1.2j, 0.3 - 0.2j)], [(-2.0, 1.0), (0.7, -0.4)],
            feedthrough=0.2,
        )
        rng = np.random.default_rng(27)
        n = modal.order
        Tl = rng.standard_normal((n, n)) + n * np.eye(n)
        Tr = rng.standard_normal((n, n)) + n * np.eye(n)
        return DescriptorRealization(
            Tl @ modal.E @ Tr, Tl @ modal.A @ Tr, Tl @ modal.B, modal.C @ Tr, modal.D
        )

    def test_values_poles_and_split_share_one_qz(self, monkeypatch):
        factored = []
        real_schur = descriptor_ops._real_schur

        def spy(rlz):
            factored.append(rlz)
            return real_schur(rlz)

        monkeypatch.setattr(descriptor_ops, "_real_schur", spy)
        rlz = self.mixed()
        eval_transfer(rlz, GRID)
        spec = poles(rlz)
        split = stable_antistable_split(rlz)
        eval_transfer(rlz, GRID[::5])
        assert len(factored) == 1 and factored[0] is rlz
        assert spec.size == 6
        assert split.antistable_part.order == 3

    def test_cached_form_is_read_only_and_survives_a_split(self):
        rlz = self.mixed()
        stable_antistable_split(rlz)
        for M in rlz._schur:
            assert not M.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                M[0] = 0.0
        fresh = DescriptorRealization(rlz.E, rlz.A, rlz.B, rlz.C, rlz.D)
        assert np.array_equal(eval_transfer(rlz, GRID), eval_transfer(fresh, GRID))
        assert np.array_equal(poles(rlz), poles(fresh))

    @pytest.mark.parametrize("info", ["1", "n+1"])
    def test_failed_qz_raises_from_every_query(self, monkeypatch, info):
        # info = 1: the QZ iteration failed and gges's form is not a Schur
        # form; info = n+1: something else failed.  Neither may be read.
        rlz = self.mixed()
        code = 1 if info == "1" else rlz.order + 1
        fail_gges(monkeypatch, code)
        queries = (lambda r: eval_transfer(r, GRID), poles, stable_antistable_split)
        for query in queries * 2:
            with pytest.raises(SingularPencilError, match=rf"factorization failed \(info={code}\)"):
                query(rlz)
        # Nothing is cached: once gges succeeds, the next query factors.
        assert "_schur" not in vars(rlz)
        monkeypatch.undo()
        assert np.array_equal(poles(rlz), poles(self.mixed()))


def lapack_outputs(lib, A, E):
    """Every output of ``lib``'s ``dgges``, ``dtgsen`` and ``dtgsyl`` on the
    pencil (A, E), called as ``_real_schur`` and the split call them, each
    as (dtype, shape, bytes)."""
    n = A.shape[0]
    lwork = lib.dgges(descriptor_ops._no_sort, A, E, lwork=-1)[-2][0].real.astype(int)
    qz = lib.dgges(descriptor_ops._no_sort, A, E, lwork=lwork, sort_t=0)
    S, T, _sdim, alphar, alphai, beta, Q, Z, _work, _info = qz
    select = alphar / beta < 0.0
    ordered = lib.dtgsen(select, S, T, Q, Z, ijob=0, lwork=4 * n + 16, liwork=1)
    S, T = ordered[:2]
    k = int(np.sum(select))
    assert 0 < k < n
    sylvester = lib.dtgsyl(
        S[:k, :k], S[k:, k:], -S[:k, k:], T[:k, :k], T[k:, k:], -T[:k, k:]
    )
    return [
        (x.dtype, x.shape, x.tobytes())
        for x in map(np.asarray, (*qz, *ordered, *sylvester))
    ]


class TestLapackBinding:
    """``descriptor_ops`` binds scipy's LAPACK extension from its file,
    without the ``scipy.linalg`` package init."""

    rng = np.random.default_rng(34)
    A = rng.standard_normal((34, 34))
    E = np.eye(34) + 0.1 * rng.standard_normal((34, 34))

    def test_bound_routines_match_scipy_byte_for_byte(self):
        got = lapack_outputs(descriptor_ops._lapack, self.A, self.E)
        assert got == lapack_outputs(scipy.linalg.lapack, self.A, self.E)

    def test_the_extension_is_loaded_from_its_file_and_left_unregistered(self, monkeypatch):
        monkeypatch.delitem(sys.modules, descriptor_ops._FLAPACK, raising=False)
        lib = descriptor_ops._bind_lapack()
        assert lib.__name__ == "scipy.linalg._flapack"
        assert lib.__file__ == descriptor_ops._flapack_path()
        assert descriptor_ops._FLAPACK not in sys.modules
        for name in ("dgges", "dtgsen", "dtgsyl"):
            assert getattr(lib, name) is getattr(scipy.linalg.lapack, name)

    def test_an_imported_extension_is_reused_and_left_registered(self):
        # This module imported scipy.linalg, which registered _flapack.
        lib = sys.modules[descriptor_ops._FLAPACK]
        assert descriptor_ops._bind_lapack() is lib
        assert sys.modules[descriptor_ops._FLAPACK] is lib

    def test_a_failed_direct_load_falls_back_to_scipy_linalg_lapack(self, monkeypatch):
        def missing():
            raise ImportError("no such extension")

        monkeypatch.setattr(descriptor_ops, "_flapack_path", missing)
        monkeypatch.delitem(sys.modules, descriptor_ops._FLAPACK, raising=False)
        lib = descriptor_ops._bind_lapack()
        assert lib is scipy.linalg.lapack
        got = lapack_outputs(lib, self.A, self.E)
        assert got == lapack_outputs(descriptor_ops._lapack, self.A, self.E)


def fail_gges(monkeypatch, info, when=lambda A: True):
    """Make LAPACK ``gges`` return ``info`` from each factorization of an
    ``A`` that ``when`` accepts; workspace queries are left alone."""
    real_gges = descriptor_ops._lapack.dgges

    def failing(sort, A, E, **kwargs):
        out = real_gges(sort, A, E, **kwargs)
        return out if kwargs.get("lwork") == -1 or not when(A) else (*out[:-1], info)

    monkeypatch.setattr(descriptor_ops._lapack, "dgges", failing)


class TestFailedFactorizationIsHandled:
    """A failed QZ raises the package's own error, which every handler
    that skips a candidate or records a row already catches."""

    def test_lddc_skips_the_candidate(self, monkeypatch):
        g = modal_realization([(-0.8 + 2.0j, 1.0 - 0.3j)], [(-0.4, 0.9)])
        z = 1j * np.geomspace(1e-3, 1e2, 40)
        data = close_conjugate(FrequencyDataset.from_arrays(z, eval_transfer(g, z)))
        want = reduce_controller(data, (1, 2, 3), gamma_bound=0.0).rows
        fail_gges(monkeypatch, 1, when=lambda A: A.shape[0] == 2)
        got = reduce_controller(data, (1, 2, 3), gamma_bound=0.0).rows
        assert [row.realization.order for row in want].count(2) > 0
        assert [row.realization.order for row in got].count(2) == 0
        kept = [(a, b) for a, b in zip(got, want) if b.realization.order != 2]
        assert kept and all(a.error == b.error for a, b in kept)

    def test_pi_screen_rejects_the_loop(self, monkeypatch):
        plant = modal_realization([], [(-1.0, 2.0)])
        ctrl = PIController(0.5, 0.1)
        assert _loop_is_stable(plant, ctrl)
        fail_gges(monkeypatch, 1)
        assert not _loop_is_stable(plant, ctrl)

    def test_delay_sweep_records_the_row_and_runs_the_next(self, monkeypatch):
        plant = modal_realization([], [(-1.0, 2.0)])
        one = TransferMap.constant(1.0)
        want = delay_margin_sweep(plant.transfer_map(), one, [0.8, 1.3], GRID.imag)
        # Only the first factorization fails; a failed one is not cached,
        # so the second row factors the plant afresh.
        first = iter([True])
        fail_gges(monkeypatch, plant.order + 1, when=lambda A: next(first, False))
        got = delay_margin_sweep(plant.transfer_map(), one, [0.8, 1.3], GRID.imag)
        assert got.rows[0].verdict == "inconclusive"
        assert "factorization failed (info=2)" in got.rows[0].detail
        assert got.rows[1] == want.rows[1]
        assert [row.verdict for row in want.rows] == ["stable", "unstable"]


class TestRealizationValidation:
    @staticmethod
    def matrices():
        return dict(E=np.eye(2), A=np.array([[-1.0, 2.0], [0.0, -3.0]]),
                    B=np.ones((2, 1)), C=np.ones((1, 2)), D=0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["E", "A", "B", "C", "D"])
    def test_non_finite_entry_is_named_without_warnings(self, field, bad):
        # Finiteness is checked at construction, before any factorization
        # could warn on a non-finite pencil.
        kw = self.matrices()
        if field == "D":
            kw["D"] = bad
        else:
            kw[field] = kw[field].copy()
            kw[field][0, -1] = bad
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=rf"^{field} .*{bad}"):
                DescriptorRealization(**kw)
        assert seen == []

    def test_stored_matrices_are_read_only_copies(self):
        kw = self.matrices()
        before = {f: kw[f].copy() for f in "EABC"}
        rlz = DescriptorRealization(**kw)
        for f in "EABC":
            with pytest.raises(ValueError, match="read-only"):
                getattr(rlz, f)[0, 0] = 7.0
            # The caller's array is left alone: writeable, unchanged and
            # not shared with the realization.
            assert kw[f].flags.writeable
            assert np.array_equal(kw[f], before[f])
            assert not np.shares_memory(getattr(rlz, f), kw[f])

    def test_singular_pencil_rejected(self):
        # E = A = 0 constructs; the QZ of every query rejects it.
        assert_every_query_rejects(DescriptorRealization(
            E=np.zeros((1, 1)), A=np.zeros((1, 1)),
            B=np.ones((1, 1)), C=np.ones((1, 1)), D=0.0,
        ))

    def test_construction_factors_nothing(self, monkeypatch):
        # Regularity is decided by the first query's QZ: construction runs
        # no gges and takes no determinant.
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def recorded(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)

        spy(descriptor_ops._lapack, "dgges")
        spy(np.linalg, "slogdet")
        spy(np.linalg, "det")
        rng = np.random.default_rng(34)
        rlz, _, _ = random_system(rng)
        big = DescriptorRealization(
            np.eye(34), rng.standard_normal((34, 34)),
            rng.standard_normal((34, 1)), rng.standard_normal((1, 34)), 0.5,
        )
        closed = feedback_unity(series(rlz, big))
        assert calls == []
        poles(closed)
        assert "dgges" in calls and "slogdet" not in calls and "det" not in calls

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


def assert_every_query_rejects(rlz):
    """Each query of a singular ``rlz`` raises, twice over, and the rejected
    form is not cached."""
    queries = (lambda r: eval_transfer(r, GRID), poles, stable_antistable_split)
    for query in queries * 2:
        with pytest.raises(SingularPencilError, match="0/0 generalized eigenvalue"):
            query(rlz)
    assert "_schur" not in vars(rlz)


def zero_line_realization(n, line):
    """An order-n realization whose pencil has a zero ``line`` ("row" or
    "column"), so det(sE - A) vanishes for every s."""
    rng = np.random.default_rng(n)
    E, A = np.eye(n) + 0.1 * rng.standard_normal((n, n)), rng.standard_normal((n, n))
    k = n // 2
    if line == "row":
        E[k], A[k] = 0.0, 0.0
    else:
        E[:, k], A[:, k] = 0.0, 0.0
    return DescriptorRealization(E, A, rng.standard_normal((n, 1)), rng.standard_normal((1, n)))


@pytest.mark.parametrize("line", ["row", "column"])
@pytest.mark.parametrize("n", [3, 21, 34])
class TestSingularPencil:
    """A structurally singular pencil constructs, and its QZ rejects it
    wherever it is first read."""

    def test_every_query_raises(self, n, line):
        assert_every_query_rejects(zero_line_realization(n, line))

    def test_load_names_the_file(self, n, line, tmp_path):
        path = tmp_path / f"singular-{line}.json"
        save_realization(zero_line_realization(n, line), path)
        with pytest.raises(DataFormatError, match="0/0 generalized eigenvalue") as exc:
            load_realization(path)
        assert str(exc.value).startswith(f"{path}: ")


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
        got = sorted(map(complex, spec), key=lambda z: (z.real, z.imag))
        assert spec.size == rlz.order
        assert np.allclose(got, want, atol=1e-10)

    def test_infinite_eigenvalues_counted_separately(self):
        rlz = DescriptorRealization(
            E=np.diag([1.0, 0.0]), A=np.eye(2),
            B=np.ones((2, 1)), C=np.ones((1, 2)), D=0.0,
        )
        spec = poles(rlz)
        assert spec.size == rlz.order - 1
        assert spec[0] == pytest.approx(1.0)

    def test_order_zero_has_no_poles(self):
        rlz = DescriptorRealization(
            E=np.zeros((0, 0)), A=np.zeros((0, 0)),
            B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=1.0,
        )
        spec = poles(rlz)
        assert isinstance(spec, np.ndarray) and spec.dtype == complex
        assert spec.size == rlz.order == 0


def ordqz_split(rlz):
    """The split as computed with ``scipy.linalg.ordqz``: QZ, the stable
    selection as a sort callback, the reordering, then the Sylvester
    decoupling, with no check on the reordering."""
    n = rlz.order

    def select(alpha, beta):
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = alpha / beta
        return descriptor_ops._finite(beta, rlz.E) & (lam.real < 0.0)

    S, T, alpha, beta, Q, Z = scipy.linalg.ordqz(rlz.A, rlz.E, sort=select, output="real")
    k = int(np.sum(select(alpha, beta)))
    fin = descriptor_ops._finite(beta[k:], rlz.E)
    anti_poles = alpha[k:][fin] / beta[k:][fin]
    if k in (0, n):
        return k, anti_poles, None
    S11, S12, S22 = S[:k, :k], S[:k, k:], S[k:, k:]
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    r_, l_, scale_, _dif, info = scipy.linalg.lapack.dtgsyl(S11, S22, -S12, T11, T22, -T12)
    assert info == 0
    R, L = r_ / scale_, -l_ / scale_
    Bt, Ct = Q.T @ rlz.B, rlz.C @ Z
    return k, anti_poles, (
        DescriptorRealization(T11, S11, Bt[:k] + L @ Bt[k:], Ct[:, :k], rlz.D),
        DescriptorRealization(T22, S22, Bt[k:], Ct[:, :k] @ R + Ct[:, k:], 0.0),
    )


def same_realization(got, want):
    return all(
        np.array_equal(getattr(got, f), getattr(want, f)) for f in ("E", "A", "B", "C", "D")
    )


class TestStableAntistableSplit:
    @staticmethod
    def pencil(n, kind, seed):
        rng = np.random.default_rng(seed)
        E = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        A = rng.standard_normal((n, n))
        if kind == "singular":
            E[:, -1] = 0.0
        elif kind != "mixed":
            # Shift the spectrum wholly to one side of the axis.
            shift = np.max(np.abs(scipy.linalg.eigvals(A, E).real)) + 0.5
            A = A + (shift if kind == "antistable" else -shift) * E
        return DescriptorRealization(
            E=E, A=A, B=rng.standard_normal((n, 1)), C=rng.standard_normal((1, n)), D=0.25
        )

    @pytest.mark.parametrize("kind", ["mixed", "singular", "stable", "antistable"])
    @pytest.mark.parametrize("n", range(1, 61))
    def test_split_is_ordqz_reference_bit_for_bit(self, n, kind):
        rlz = self.pencil(n, kind, 1000 * n + len(kind))
        sp = stable_antistable_split(rlz)
        k, anti_poles, parts = ordqz_split(rlz)
        assert sp.stable_part.order == k
        assert np.array_equal(sp.antistable_poles, anti_poles)
        if kind == "stable":
            assert k == n and sp.stable_part is rlz
        elif kind == "antistable":
            assert k == 0 and same_realization(sp.antistable_part, replace(rlz, D=0.0))
        if parts is not None:
            assert same_realization(sp.stable_part, parts[0])
            assert same_realization(sp.antistable_part, parts[1])
        if kind == "singular":
            assert poles(sp.antistable_part).size <= sp.antistable_part.order - 1

    def test_failed_reordering_raises(self, monkeypatch):
        real = descriptor_ops._lapack.dtgsen

        def failing(*args, **kwargs):
            *out, _info = real(*args, **kwargs)
            return (*out, 1)

        monkeypatch.setattr(descriptor_ops._lapack, "dtgsen", failing)
        rlz = modal_realization([], [(-1.0, 1.0), (2.0, 1.0)])
        with pytest.raises(SingularPencilError, match=r"reordering failed \(info=1\)"):
            stable_antistable_split(rlz)

    def test_two_real_poles_split_exactly(self):
        rlz = modal_realization([], [(-1.0, 1.0), (2.0, 1.0)])
        sp = stable_antistable_split(rlz)
        s_ref = lambda s: 1.0 / (s + 1.0)
        a_ref = lambda s: 1.0 / (s - 2.0)
        assert rel_err(eval_transfer(sp.stable_part, GRID), s_ref(GRID)) < 1e-12
        assert rel_err(eval_transfer(sp.antistable_part, GRID), a_ref(GRID)) < 1e-12
        assert poles(sp.stable_part)[0] == pytest.approx(-1.0)
        assert poles(sp.antistable_part)[0] == pytest.approx(2.0)

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
            fin_s = poles(sp.stable_part)
            fin_a = poles(sp.antistable_part)
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

    def test_tiny_spectral_gap_is_solved_or_flagged(self, monkeypatch):
        # Poles straddling the axis at +/-1e-7 stress the generalized
        # Sylvester solve; a perturbed answer is acceptable only when it
        # still reconstructs the transfer.  The guard is narrowed below
        # the gap so the split reaches the solve instead of refusing.
        monkeypatch.setattr(descriptor_ops, "SPLIT_GUARD", 1e-9)
        rlz = modal_realization([], [(-1e-7, 1.0), (1e-7, 1.0)])
        try:
            sp = stable_antistable_split(rlz)
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
        assert poles(sp.stable_part).size == sp.stable_part.order
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
            assert spec.size == sp.stable_part.order, f"trial {trial}"
            assert np.all(spec.real < 0), f"trial {trial}"
            recon = (
                eval_transfer(sp.stable_part, GRID)
                + eval_transfer(sp.antistable_part, GRID)
            )
            assert rel_err(recon, eval_transfer(rlz, GRID)) < 1e-10, f"trial {trial}"


class TestSylvesterBranches:
    """The decoupling solve's outcomes, each forced by editing what LAPACK
    ``tgsyl`` returns for a split of a coupled stable/antistable pair."""

    # Poles -1 and 2 with a coupling the solve has to remove (R != 0).
    rlz = DescriptorRealization(
        E=np.eye(2), A=np.array([[-1.0, 3.0], [0.0, 2.0]]),
        B=np.array([[1.0], [1.0]]), C=np.array([[1.0, 0.5]]), D=0.25,
    )

    @staticmethod
    def edit_tgsyl(monkeypatch, edit):
        """Pass each ``(R, L, scale, dif, info)`` of ``tgsyl`` through ``edit``."""
        real = descriptor_ops._lapack.dtgsyl
        monkeypatch.setattr(
            descriptor_ops._lapack, "dtgsyl", lambda *a, **kw: edit(*real(*a, **kw))
        )

    @pytest.mark.parametrize("edit, info", [
        (lambda r, l, scale, dif, info: (r, l, scale, dif, -1), -1),
        (lambda r, l, scale, dif, info: (r, l, 0.0, dif, info), 0),
    ])
    def test_a_failed_solve_raises(self, monkeypatch, edit, info):
        self.edit_tgsyl(monkeypatch, edit)
        with pytest.raises(SingularPencilError) as exc:
            stable_antistable_split(self.rlz)
        assert str(exc.value) == f"generalized Sylvester solve failed (info={info})"

    def test_a_perturbed_flag_with_the_true_solution_keeps_the_split(self, monkeypatch):
        want = stable_antistable_split(self.rlz)
        self.edit_tgsyl(monkeypatch, lambda r, l, scale, dif, info: (r, l, scale, dif, 1))
        got = stable_antistable_split(self.rlz)
        for part in ("stable_part", "antistable_part"):
            a, b = getattr(got, part), getattr(want, part)
            assert all(np.array_equal(getattr(a, m), getattr(b, m)) for m in "EABCD"), part
        assert np.array_equal(got.antistable_poles, want.antistable_poles)

    def test_a_perturbed_flag_with_a_wrong_solution_raises(self, monkeypatch):
        self.edit_tgsyl(
            monkeypatch, lambda r, l, scale, dif, info: (r + 1e-3, l, scale, dif, 1)
        )
        with pytest.raises(
            SingularPencilError,
            match=r"^generalized Sylvester solve ill conditioned \(info=1, residual=\d",
        ):
            stable_antistable_split(self.rlz)


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
    def test_real_constant_has_realization(self):
        two = TransferMap.constant(2.0)
        assert two(3.4j) == pytest.approx(2.0)
        assert two.realization is not None

    def test_callable_map_has_no_realization(self):
        m = TransferMap.from_callable(lambda s: np.sqrt(s), label="root")
        assert m.realization is None
        assert m(4.0) == pytest.approx(2.0)


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
        for tau in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"bad delay {tau}: delays must be finite"):
                closed_loop_delay(h, h, tau)

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
        "nyquist_curve": lambda h: nyquist_curve(h, TransferMap.constant(0.5), SAMPLER_GRID),
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


class TestOneRulePerInput:
    """Each input rule is written once, so every entry point that takes a
    delay, or a log grid, rejects the same bad value with the same message."""

    @staticmethod
    def delay_messages(tau, tmp_path, capsys):
        h = TransferMap.from_callable(lambda s: 1.0 / (s + 1.0))
        one = TransferMap.constant(1.0)
        row = DelayRow(tau=tau, stab_tag=0.0, epsilon=1e-10, verdict="stable", order=0)
        calls = [
            lambda: closed_loop_delay(h, one, tau),
            lambda: delay_margin_sweep(h, one, [tau], SAMPLER_GRID),
            lambda: DelaySweepResult(rows=(row,), destabilizing_delay=None),
        ]
        messages = []
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            messages.append(str(exc.value))
        plant, ctrl = tmp_path / "plant.json", tmp_path / "ctrl.json"
        save_realization(modal_realization([], [(-1.0, 1.0)]), plant)
        save_realization(modal_realization([], [], feedthrough=1.0), ctrl)
        for flag in ("--tau", "--tau-min", "--tau-max"):
            command = "mfsa" if flag == "--tau" else "delay-sweep"
            out = tmp_path / command
            rc = cli.main([
                command, "--plant", str(plant), "--controller", str(ctrl),
                f"{flag}={tau}", "--grid-n", "20", "--out", str(out),
            ])
            assert rc == 1
            assert not out.exists()
            messages.append(capsys.readouterr().err.removeprefix("error: ").rstrip("\n"))
        return messages

    @pytest.mark.parametrize("tau", [-1.0, np.nan, np.inf])
    def test_delay_entry_points_share_one_message(self, tau, tmp_path, capsys):
        messages = self.delay_messages(tau, tmp_path, capsys)
        assert len(messages) == 6
        assert set(messages) == {
            f"bad delay {tau}: delays must be finite, >= 0 and strictly ascending"
        }

    @pytest.mark.parametrize("grid", [[0.0, 1.0], [np.nan, 1.0], [1.0, np.inf]])
    def test_log_grid_entry_points_share_one_message(self, grid):
        h = TransferMap.from_callable(lambda s: 1.0 / (s + 1.0))
        pi = PIController(0.1, 0.01)
        calls = [
            lambda: stability_tag(h, grid),
            lambda: densify_log_grid(grid, 2),
            lambda: optimize_pi(h, default_weights(), grid, start=pi),
            lambda: eval_weighted_performance(h, pi, default_weights(), grid),
        ]
        messages = set()
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            messages.add(str(exc.value))
        bad = next(w for w in grid if not 0 < w < np.inf)
        assert messages == {f"grid frequencies must be positive and finite, got {bad}"}


class TestSerialization:
    def test_json_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        rlz, _, _ = random_system(rng)
        path = tmp_path / "rlz.json"
        save_realization(rlz, path)
        back = load_realization(path)
        # The load factored the file's pencil, and the form stays cached.
        assert "_schur" in vars(back)
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

    @pytest.mark.parametrize("text", ["", "{\"order\": 1,"], ids=["empty", "truncated"])
    def test_text_that_is_not_json_names_the_file(self, tmp_path, text):
        path = tmp_path / "rlz.json"
        path.write_text(text)
        with pytest.raises(DataFormatError) as exc:
            load_realization(path)
        assert type(exc.value) is DataFormatError
        assert str(exc.value).startswith(f"{path}: invalid JSON: ")


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
