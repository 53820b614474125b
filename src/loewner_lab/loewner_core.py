"""Loewner-matrix interpolation: pencil construction, rank detection, and
projection to a real descriptor realization.

Given response data split into left points (mu_i, v_i) and right points
(lambda_j, w_j), the Loewner matrix and its shifted companion are the
divided-difference matrices

    Lw[i, j] = (v_i - w_j) / (mu_i - lambda_j),
    Ls[i, j] = (mu_i v_i - lambda_j w_j) / (mu_i - lambda_j).

The raw pencil (-Lw, -Ls) together with the boundary vectors realizes a
rational interpolant of the data; its numerical rank reveals the minimal
order, and truncated singular projectors compress it to that order.  All
realizations are returned with real matrices via the conjugate-pair
transform, assuming each side of the partition keeps conjugate partners
adjacent; the transform is applied to row and column pairs in place, in
O(m^2).

The rank and the projectors come from the row stack [Lw  Ls] and the
column stack [Lw; Ls], which are factored exactly at half size.  The
pencil identities (Mayo & Antoulas, LAA 2007)

    Ls = Lw diag(lambda) + v 1^T = diag(mu) Lw + 1 w^T

turn the Gram matrix of each m x 2m stack into that of an m x (m+1)
matrix, so one SVD of the small factor yields the stack's singular
values and the singular vectors that are used, with no approximation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .descriptor_ops import DescriptorRealization
from .errors import CoincidentPointError, LoewnerLabError, ZeroDataError
from .freq_data import PointPartition

__all__ = ["LoewnerPencil", "RankReport", "build_pencil", "detect_rank",
           "reduce_to_realization"]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _pair_starts(points: np.ndarray) -> np.ndarray:
    """Indices of the first members of the conjugate pairs in ``points``.

    Expects conjugate partners adjacent (z followed by conj(z)); lone
    real-axis points belong to no pair and pass through the transform
    unchanged.
    """
    starts = []
    i = 0
    m = points.size
    while i < m:
        z = points[i]
        if z.imag == 0.0:
            i += 1
            continue
        if i + 1 >= m or points[i + 1] != np.conj(z):
            raise LoewnerLabError(
                f"point {z} is not followed by its conjugate; the realness "
                "transform needs adjacent conjugate pairs"
            )
        starts.append(i)
        i += 2
    return np.asarray(starts, dtype=np.intp)


def _pair_rows(M: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """T^H M for the conjugate-pair transform T, applied to row pairs."""
    out = np.array(M, dtype=complex)
    a = out[starts]
    b = out[starts + 1]
    out[starts] = (a + b) * _INV_SQRT2
    out[starts + 1] = 1j * (b - a) * _INV_SQRT2
    return out


def _pair_cols(M: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """M T for the conjugate-pair transform T, applied to column pairs."""
    out = np.array(M, dtype=complex)
    a = out[..., starts]
    b = out[..., starts + 1]
    out[..., starts] = (a + b) * _INV_SQRT2
    out[..., starts + 1] = 1j * (a - b) * _INV_SQRT2
    return out


def _drop_imag(name: str, M: np.ndarray) -> np.ndarray:
    resid = float(np.max(np.abs(M.imag), initial=0.0))
    scale = float(np.max(np.abs(M.real), initial=0.0))
    if resid > 1e-8 * max(1.0, scale):
        raise LoewnerLabError(
            f"realness transform of {name} left imaginary residue {resid:g}; "
            "data is not conjugate-symmetric"
        )
    return np.ascontiguousarray(M.real)


def _stack_weights(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(d, c, y) with d = sqrt(1+|z|^2), c = conj(z)/d, y = sqrt(sum 1/d^2).

    y is summed directly rather than taken as sqrt(n - |c|^2), which
    cancels when the points are large.
    """
    d = np.sqrt(1.0 + np.abs(points) ** 2)
    return d, np.conj(points) / d, float(np.sqrt(np.sum(1.0 / d**2)))


@dataclass
class LoewnerPencil:
    """Loewner matrix pair plus its generating partition.

    Real-transformed forms and the stack factorizations are computed
    lazily and cached, since rank detection and projection reuse them.

    For an m x n pencil the row stack [Lw  Ls] (m x 2n) and the column
    stack [Lw; Ls] (2m x n) are never formed.  The pencil identities
    Ls = Lw diag(lambda) + v 1^T = diag(mu) Lw + 1 w^T give half-size
    factors N_row (m x (n+1)) and N_col ((m+1) x n) with

        N_row N_row^H = [Lw Ls][Lw Ls]^H,
        N_col^H N_col = [Lw; Ls]^H [Lw; Ls].

    Equal Gram matrices mean equal singular values, equal left singular
    vectors of the row stack and equal right singular vectors of the
    column stack, which are all that rank detection and projection read;
    the factors are exact, not an approximation.  See ``_row_factor`` and
    ``_col_factor``.
    """

    loewner: np.ndarray
    shifted: np.ndarray
    partition: PointPartition
    _real: tuple | None = field(default=None, repr=False, compare=False)
    _svd_row: tuple | None = field(default=None, repr=False, compare=False)
    _svd_col: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.loewner.shape[0]

    def real_forms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Real Loewner/shifted matrices and boundary vectors.

        Returns (Lw_r, Ls_r, v_r, w_r) where the unitary conjugate-pair
        transform has been applied on both sides and the (numerically
        negligible) imaginary residue dropped.  The transform acts on each
        pair of rows (a, b) as ((a+b)/sqrt2, i(b-a)/sqrt2) and on each pair
        of columns as ((a+b)/sqrt2, i(a-b)/sqrt2), so it costs O(m^2).
        """
        if self._real is None:
            left = _pair_starts(self.partition.left_points)
            right = _pair_starts(self.partition.right_points)

            def both(M):
                return _pair_cols(_pair_rows(M, left), right)

            self._real = (
                _drop_imag("Loewner matrix", both(self.loewner)),
                _drop_imag("shifted Loewner matrix", both(self.shifted)),
                _drop_imag("left responses",
                           _pair_rows(self.partition.left_values, left)),
                _drop_imag("right responses",
                           _pair_cols(self.partition.right_values, right)),
            )
        return self._real

    def _row_factor(self) -> np.ndarray:
        """N_row = [y v, Lw D + v c^T] in real coordinates, m x (n+1).

        With D = diag(d) and (d, c, y) from the n right points, N_row N_row^H
        expands to Lw (I + |Lam|^2) Lw^H + Lw Lam 1 v^H + v 1^T Lam^H Lw^H
        + n v v^H, which is [Lw Ls][Lw Ls]^H.  The same holds after the
        realness transform: d is equal on the two points of a conjugate
        pair, so D commutes with it, and c transforms like w.
        """
        Lw_r, _, v_r, _ = self.real_forms()
        d, c, y = _stack_weights(self.partition.right_points)
        c_r = _drop_imag("row-stack weights",
                         _pair_cols(c, _pair_starts(self.partition.right_points)))
        return np.hstack([(y * v_r)[:, None], Lw_r * d + np.outer(v_r, c_r)])

    def _col_factor(self) -> np.ndarray:
        """N_col = [y w^T; D Lw + c w^T] in real coordinates, (m+1) x n.

        The mirror of ``_row_factor`` with (d, c, y) from the left points:
        N_col^H N_col = [Lw; Ls]^H [Lw; Ls].
        """
        Lw_r, _, _, w_r = self.real_forms()
        d, c, y = _stack_weights(self.partition.left_points)
        c_r = _drop_imag("column-stack weights",
                         _pair_rows(c, _pair_starts(self.partition.left_points)))
        return np.vstack([y * w_r, d[:, None] * Lw_r + np.outer(c_r, w_r)])

    def svd_row_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, s) of the row stack [Lw  Ls] (real form), from N_row."""
        if self._svd_row is None:
            U, s, _ = np.linalg.svd(self._row_factor(), full_matrices=False)
            self._svd_row = (U, s)
        return self._svd_row

    def svd_col_stack(self) -> tuple[np.ndarray, np.ndarray]:
        """(s, Vt) of the column stack [Lw; Ls] (real form), from N_col."""
        if self._svd_col is None:
            _, s, Vt = np.linalg.svd(self._col_factor(), full_matrices=False)
            self._svd_col = (s, Vt)
        return self._svd_col


@dataclass(frozen=True)
class RankReport:
    """Numerical-rank evidence for a Loewner pencil.

    Holds the singular values of the row stack [Lw Ls] and the column
    stack [Lw; Ls] (taken exactly from their half-size factors, see
    ``LoewnerPencil``), the singular values of shifted pencils z*Lw - Ls
    at probe points drawn from the data when requested (empty by
    default), and the detected rank under the absolute threshold.
    """

    rank: int
    tol: float
    singular_values_row: np.ndarray
    singular_values_col: np.ndarray
    shifted_pencil: tuple[tuple[complex, np.ndarray], ...]
    rank_row: int
    rank_col: int
    ranks_agree: bool


def build_pencil(p: PointPartition) -> LoewnerPencil:
    """Assemble the Loewner and shifted-Loewner matrices entrywise."""
    mu = p.left_points
    lam = p.right_points
    v = p.left_values
    w = p.right_values
    denom = mu[:, None] - lam[None, :]
    zscale = float(np.max(np.abs(np.concatenate([mu, lam])), initial=0.0))
    if np.any(np.abs(denom) <= 1e-14 * max(zscale, 1e-300)):
        i, j = np.unravel_index(
            int(np.argmin(np.abs(denom))), denom.shape
        )
        raise CoincidentPointError(
            f"left point {mu[i]} coincides with right point {lam[j]}"
        )
    Lw = (v[:, None] - w[None, :]) / denom
    Ls = (mu[:, None] * v[:, None] - lam[None, :] * w[None, :]) / denom
    return LoewnerPencil(loewner=Lw, shifted=Ls, partition=p)


def detect_rank(
    pen: LoewnerPencil, tol: float = 1e-10, shifted_probes: int = 0
) -> RankReport:
    """Numerical rank of the pencil family under an SVD cutoff.

    The rank is the count of singular values of [Lw Ls] above ``tol``.
    The cutoff is absolute, as in MATLAB's ``rank(A, tol)``: response data
    of order-one magnitude produces Loewner matrices whose noise-floor
    singular values sit at machine scale, so a small absolute threshold
    separates signal from rounding noise regardless of how slowly the
    signal spectrum decays.  (A threshold proportional to sigma_max
    misreads slowly decaying spectra from irrational models, whose
    meaningful singular values span many decades.)

    The column stack must agree with the row stack; a disagreement
    (possible with noisy or feed-through-bearing data) takes the larger
    count with a warning.  Probes are opt-in: ``shifted_probes`` > 0
    records that many (at most 3) additional singular spectra of
    z*Lw - Ls at points drawn from the data as evidence; each costs a
    full m x m SVD, and the rank never depends on them.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    s_row = pen.svd_row_stack()[1]
    s_col = pen.svd_col_stack()[0]
    if s_row[0] == 0.0:
        raise ZeroDataError("Loewner pencil is identically zero")
    rank_row = int(np.sum(s_row > tol))
    rank_col = int(np.sum(s_col > tol))
    agree = rank_row == rank_col
    if not agree:
        warnings.warn(
            f"rank mismatch between row stack ({rank_row}) and column stack "
            f"({rank_col}); taking the larger",
            stacklevel=2,
        )
    probes: list[tuple[complex, np.ndarray]] = []
    if shifted_probes > 0:
        Lw_r, Ls_r, _, _ = pen.real_forms()
        mu = pen.partition.left_points
        lam = pen.partition.right_points
        candidates = [mu[0], lam[lam.size // 2], mu[-1]]
        for z in candidates[: int(shifted_probes)]:
            sv = np.linalg.svd(z * Lw_r - Ls_r, compute_uv=False)
            probes.append((complex(z), sv))
    return RankReport(
        rank=max(rank_row, rank_col),
        tol=tol,
        singular_values_row=s_row,
        singular_values_col=s_col,
        shifted_pencil=tuple(probes),
        rank_row=rank_row,
        rank_col=rank_col,
        ranks_agree=agree,
    )


def reduce_to_realization(pen: LoewnerPencil, r: int) -> DescriptorRealization:
    """Project the raw Loewner realization to order ``r``.

    Y spans the first r left singular directions of the row stack [Lw Ls]
    and X the first r right singular directions of the column stack
    [Lw; Ls]; the projected realization is

        E = -Y' Lw X,  A = -Y' Ls X,  B = Y' v,  C = w X,  D = 0,

    all in the real-transformed coordinates, so the output matrices are
    real.  At the detected rank the realization interpolates the data; at
    full rank the interpolation is exact up to conditioning.
    """
    m = pen.size
    if not 1 <= r <= m:
        raise ValueError(f"target order must lie in [1, {m}], got {r}")
    Lw_r, Ls_r, v_r, w_r = pen.real_forms()
    Y = pen.svd_row_stack()[0][:, :r]
    X = pen.svd_col_stack()[1][:r, :].T
    E = -(Y.T @ Lw_r @ X)
    A = -(Y.T @ Ls_r @ X)
    B = (Y.T @ v_r).reshape(r, 1)
    C = (w_r @ X).reshape(1, r)
    return DescriptorRealization(E=E, A=A, B=B, C=C, D=0.0)
