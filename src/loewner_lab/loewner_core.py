"""Loewner-matrix interpolation: pencil construction, rank detection, and
projection to a real descriptor realization.

Given response data split into left points (mu_i, v_i) and right points
(lambda_j, w_j), the Loewner matrix is the divided-difference matrix

    Lw[i, j] = (v_i - w_j) / (mu_i - lambda_j).

Its shifted companion Ls[i, j] = (mu_i v_i - lambda_j w_j) / (mu_i - lambda_j)
holds nothing that Lw and the data do not: the pencil identities (Mayo &
Antoulas, LAA 2007)

    Ls = Lw diag(lambda) + v 1^T = diag(mu) Lw + 1 w^T

give it exactly.  So Ls is never formed; it enters the rank step and the
projection only through these identities.

The raw pencil (-Lw, -Ls) together with the boundary vectors realizes a
rational interpolant of the data; its numerical rank reveals the minimal
order, and truncated singular projectors compress it to that order.  All
realizations are returned with real matrices via the conjugate-pair
transform, assuming each side of the partition keeps conjugate partners
adjacent; the transform is applied to row and column pairs in place, in
O(m^2).

The rank and the projectors come from the row stack [Lw  Ls] and the
column stack [Lw; Ls], which are factored exactly at half size (see
``_row_factor`` and ``_col_factor``): one SVD of each small factor yields
the stack's singular values and the singular vectors that are used, with
no approximation.

A pencil is real and factored once.  ``build_pencil`` forms the complex
Lw, transforms it to real coordinates, drops it, and runs the two SVDs;
the frozen ``LoewnerPencil`` it returns holds only the real arrays that
``detect_rank`` and every ``reduce_to_realization`` call read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .descriptor_ops import DescriptorRealization
from .errors import CoincidentPointError, LoewnerLabError, ZeroDataError
from .freq_data import PointPartition

__all__ = ["LoewnerPencil", "RankReport", "build_pencil", "detect_rank",
           "reduce_to_realization"]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Default absolute singular-value cutoff of the rank rule (see
# ``detect_rank``); the CLI's --svd-tol and the MFSA subset fits read it.
RANK_TOL = 1e-10


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


def _loewner_matrix(p: PointPartition) -> np.ndarray:
    """The complex Loewner matrix, entrywise; rejects coincident points.

    Only ``build_pencil`` calls this, and it keeps neither the result nor
    the denominators: both are freed before the stack SVDs run.
    """
    mu, lam = p.left_points, p.right_points
    denom = mu[:, None] - lam[None, :]
    zscale = float(np.max(np.abs(np.concatenate([mu, lam])), initial=0.0))
    if np.any(np.abs(denom) <= 1e-14 * max(zscale, 1e-300)):
        i, j = np.unravel_index(int(np.argmin(np.abs(denom))), denom.shape)
        raise CoincidentPointError(
            f"left point {mu[i]} coincides with right point {lam[j]}"
        )
    return (p.left_values[:, None] - p.right_values[None, :]) / denom


def _row_factor(Lw_r: np.ndarray, v_r: np.ndarray, right_points: np.ndarray,
                right_pairs: np.ndarray) -> np.ndarray:
    """N_row = [y v, Lw D + v c^T] in real coordinates, m x (n+1).

    For an m x n pencil the row stack [Lw  Ls] (m x 2n) is never formed.
    With D = diag(d) and (d, c, y) from the n right points, N_row N_row^H
    expands to Lw (I + |Lam|^2) Lw^H + Lw Lam 1 v^H + v 1^T Lam^H Lw^H
    + n v v^H, which is [Lw Ls][Lw Ls]^H.  Equal Gram matrices mean equal
    singular values and equal left singular vectors, which are all that
    rank detection and projection read from the row stack; the factor is
    exact, not an approximation.  The same holds after the realness
    transform: d is equal on the two points of a conjugate pair, so D
    commutes with it, and c transforms like w.
    """
    d, c, y = _stack_weights(right_points)
    c_r = _drop_imag("row-stack weights", _pair_cols(c, right_pairs))
    return np.hstack([(y * v_r)[:, None], Lw_r * d + np.outer(v_r, c_r)])


def _col_factor(Lw_r: np.ndarray, w_r: np.ndarray, left_points: np.ndarray,
                left_pairs: np.ndarray) -> np.ndarray:
    """N_col = [y w^T; D Lw + c w^T] in real coordinates, (m+1) x n.

    The mirror of ``_row_factor`` with (d, c, y) from the left points:
    N_col^H N_col = [Lw; Ls]^H [Lw; Ls], so N_col gives the column stack's
    singular values and right singular vectors exactly.
    """
    d, c, y = _stack_weights(left_points)
    c_r = _drop_imag("column-stack weights", _pair_rows(c, left_pairs))
    return np.vstack([y * w_r, d[:, None] * Lw_r + np.outer(c_r, w_r)])


@dataclass(frozen=True, eq=False)
class LoewnerPencil:
    """A Loewner pencil in real coordinates, factored once.

    ``build_pencil`` fills every field and nothing is computed later:

    - ``partition``: the data the pencil was built from;
    - ``left_pairs``, ``right_pairs``: first indices of the conjugate
      pairs on each side (the realness transform's layout);
    - ``Lw_r``, ``v_r``, ``w_r``: the Loewner matrix and the boundary
      vectors under the unitary conjugate-pair transform (T_l^H on the
      left, T_r on the right), with the numerically negligible imaginary
      residue dropped.  The transform acts on each pair of rows (a, b) as
      ((a+b)/sqrt2, i(b-a)/sqrt2) and on each pair of columns as
      ((a+b)/sqrt2, i(a-b)/sqrt2);
    - ``U_row``, ``s_row``: left singular vectors and singular values of
      the row stack [Lw  Ls], from ``_row_factor``;
    - ``s_col``, ``Vt_col``: singular values and right singular vectors
      (transposed) of the column stack [Lw; Ls], from ``_col_factor``.

    Every array is real and read-only.  There is no complex Lw and no
    shifted form: Ls_r = Lw_r Lam_r + v_r 1_r^T, see
    ``reduce_to_realization``.
    """

    partition: PointPartition
    left_pairs: np.ndarray
    right_pairs: np.ndarray
    Lw_r: np.ndarray
    v_r: np.ndarray
    w_r: np.ndarray
    U_row: np.ndarray
    s_row: np.ndarray
    s_col: np.ndarray
    Vt_col: np.ndarray

    @property
    def size(self) -> int:
        return self.partition.size


@dataclass(frozen=True)
class RankReport:
    """Numerical-rank evidence for a Loewner pencil.

    Holds the singular values of the row stack [Lw Ls] and the column
    stack [Lw; Ls] (taken exactly from their half-size factors, see
    ``_row_factor``), the absolute floor ``tol`` of the cut, the count
    of each stack above its cut max(tol, 100*eps*sigma_1), and the
    detected rank, the larger of the two counts.
    """

    rank: int
    tol: float
    singular_values_row: np.ndarray
    singular_values_col: np.ndarray
    rank_row: int
    rank_col: int
    ranks_agree: bool


def build_pencil(p: PointPartition) -> LoewnerPencil:
    """Build the real, factored pencil of a partition, once.

    Finds each side's conjugate-pair layout, assembles Lw entrywise,
    transforms it and the boundary vectors to real coordinates, and runs
    one SVD of each half-size stack factor.  Ls is left to the identities.
    Raises ``ZeroDataError`` on an empty partition, ``CoincidentPointError``
    when a left and a right point coincide, and ``LoewnerLabError`` when
    conjugate partners are not adjacent or the data is not
    conjugate-symmetric.
    """
    if p.size == 0:
        raise ZeroDataError("no data points to interpolate")
    left, right = _pair_starts(p.left_points), _pair_starts(p.right_points)
    Lw_r = _drop_imag("Loewner matrix",
                      _pair_cols(_pair_rows(_loewner_matrix(p), left), right))
    v_r = _drop_imag("left responses", _pair_rows(p.left_values, left))
    w_r = _drop_imag("right responses", _pair_cols(p.right_values, right))
    U_row, s_row, _ = np.linalg.svd(_row_factor(Lw_r, v_r, p.right_points, right),
                                    full_matrices=False)
    _, s_col, Vt_col = np.linalg.svd(_col_factor(Lw_r, w_r, p.left_points, left),
                                     full_matrices=False)
    arrays = (left, right, Lw_r, v_r, w_r, U_row, s_row, s_col, Vt_col)
    for a in arrays:
        a.flags.writeable = False
    return LoewnerPencil(p, *arrays)


def _count_above_cut(s: np.ndarray, tol: float) -> int:
    """Singular values above max(tol, 100*eps*s[0]); s is sorted descending."""
    return int(np.sum(s > max(tol, 100.0 * np.finfo(float).eps * s[0])))


def detect_rank(pen: LoewnerPencil, tol: float = RANK_TOL) -> RankReport:
    """Numerical rank of the pencil family under an SVD cutoff.

    This is the one rank rule of the package: ``approximate``, the LDDC
    workflow and the MFSA stability tag all read their orders from it.
    Each stack's rank is the count of its singular values above
    max(tol, 100*eps*sigma_1), with sigma_1 that stack's largest.  The
    singular values are the pencil's own fields, computed once by
    ``build_pencil``; no factorization runs here.

    The absolute part ``tol``, as in MATLAB's ``rank(A, tol)``, governs
    response data of order-one magnitude: its Loewner matrices have
    noise-floor singular values at machine scale, so a small absolute
    threshold separates signal from rounding noise regardless of how
    slowly the signal spectrum decays.  (A purely relative threshold
    misreads slowly decaying spectra from irrational models, whose
    meaningful singular values span many decades.)  The relative floor
    governs large data: divided differences carry rounding noise near
    eps*sigma_1, so an absolute cut alone would count noise as order once
    the responses are measured in large units.  With the floor in charge
    (sigma_1 above tol/(100*eps), about 4.5e3 for the default), scaling
    the responses scales every singular value and the cut alike, and the
    rank does not change.

    The column stack must agree with the row stack; a disagreement
    (possible with noisy or feed-through-bearing data) takes the larger
    count with a "rank mismatch" warning.
    """
    report = _rank_report(pen, tol)
    if not report.ranks_agree:
        warnings.warn(
            f"rank mismatch between row stack ({report.rank_row}) and column "
            f"stack ({report.rank_col}); taking the larger",
            stacklevel=2,
        )
    return report


def _rank_report(pen: LoewnerPencil, tol: float) -> RankReport:
    """:func:`detect_rank` without the mismatch warning.

    For callers that read ``ranks_agree`` themselves, such as the MFSA
    point selection, where a disagreement on a subset of the data only
    means that more points are needed.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tolerance must lie in (0, 1), got {tol}")
    s_row, s_col = pen.s_row, pen.s_col
    if s_row[0] == 0.0:
        raise ZeroDataError("Loewner pencil is identically zero")
    rank_row = _count_above_cut(s_row, tol)
    rank_col = _count_above_cut(s_col, tol)
    agree = rank_row == rank_col
    return RankReport(
        rank=max(rank_row, rank_col),
        tol=tol,
        singular_values_row=s_row,
        singular_values_col=s_col,
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

    Ls is not formed.  Under the realness transform (T_l^H on the left,
    T_r on the right) the identity Ls = Lw diag(lambda) + v 1^T reads
    Ls_r = Lw_r Lam_r + v_r 1_r^T with Lam_r = T_r^H diag(lambda) T_r, so

        A = -(Y' Lw_r)(Lam_r X) - (Y' v_r)(1_r^T X)

    with one r x m x m product, Y' Lw_r, shared with E.  Lam_r is the
    block [[Re z, -Im z], [Im z, Re z]] on a conjugate pair (z, conj z)
    and z on a lone real point.  1_r^T = 1^T T_r, the transform applied to
    a row of ones, is (sqrt2, 0) on a pair and 1 on a real point.  Applying
    both costs O(m r).
    """
    m = pen.size
    if not 1 <= r <= m:
        raise ValueError(f"target order must lie in [1, {m}], got {r}")
    lam, right = pen.partition.right_points, pen.right_pairs
    Y = pen.U_row[:, :r]
    X = pen.Vt_col[:r, :].T
    LX = lam.real[:, None] * X
    LX[right] -= lam.imag[right, None] * X[right + 1]
    LX[right + 1] += lam.imag[right, None] * X[right]
    ones_r = _pair_cols(np.ones(lam.size), right).real
    YL = Y.T @ pen.Lw_r
    B = Y.T @ pen.v_r
    E = -(YL @ X)
    A = -(YL @ LX) - np.outer(B, ones_r @ X)
    return DescriptorRealization(E=E, A=A, B=B.reshape(r, 1),
                                 C=(pen.w_r @ X).reshape(1, r), D=0.0)
