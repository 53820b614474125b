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
column stack [Lw; Ls], which are represented exactly at half size (see
``_row_factor`` and ``_col_factor``).  Two factorizations of these small
factors exist, one per kind of caller:

- ``build_pencil`` runs one full SVD of each factor.  It yields every
  singular value of each stack and its singular vectors with no
  approximation; ``detect_rank`` reads the former, and ``approximate``,
  the MFSA fits and the m2 reference fit project with the latter.
- ``_sweep_candidates`` serves the LDDC order sweep, which reads no
  singular value and only the leading singular vectors up to its top
  order.  It finds those by randomized subspace iteration (see
  ``_leading_left``), so they match the exact ones to within the
  sketch's accuracy, projects once at the top order and returns the
  candidate realizations; it builds no pencil.

A pencil is real and factored once.  Both callers form the complex Lw,
transform it to real coordinates and drop it (``_assemble``) before they
factor; the frozen ``LoewnerPencil`` that ``build_pencil`` returns holds
only the real arrays that ``detect_rank`` and every projection read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptor_ops import DescriptorRealization
from .errors import CoincidentPointError, LoewnerLabError, ZeroDataError
from .freq_data import PointPartition

__all__ = ["LoewnerPencil", "RankReport", "build_pencil", "detect_rank",
           "reduce_to_realization"]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# The absolute singular-value cutoff of the rank rule, read by
# ``detect_rank`` at each call; ``approximate`` writes it to its report as
# "svd_tol".
RANK_TOL = 1e-10

# The leading-subspace factorization of ``_sweep_candidates``: directions
# sketched beyond the kept order, power iterations, and the seed of its
# own generator.  Fixed, so that a sweep repeats bit for bit.
SKETCH_OVERSAMPLING = 10
POWER_ITERATIONS = 2
SKETCH_SEED = 0


def _pair_starts(points: np.ndarray) -> np.ndarray:
    """Indices of the first members of the conjugate pairs in ``points``.

    This is the one pairing rule: the points off the real axis must come
    in adjacent exact conjugate pairs, z followed by conj(z), else
    ``LoewnerLabError``.  Lone real-axis points belong to no pair and pass
    through the transform unchanged.
    """
    # A run of non-real points pairs up from its first point on, so a pair
    # starts at every even offset into its run; a run starts one past the
    # last real point before it.
    idx = np.arange(points.size)
    cplx = points.imag != 0.0
    run_start = np.maximum.accumulate(np.where(cplx, 0, idx + 1))
    starts = np.flatnonzero(cplx & ((idx - run_start) % 2 == 0))
    partner = points[np.minimum(starts + 1, points.size - 1)]
    unpaired = (starts + 1 == points.size) | (partner != points[starts].conj())
    if unpaired.any():
        z = points[starts[np.argmax(unpaired)]]
        raise LoewnerLabError(
            f"point {z} is not followed by its conjugate; the realness "
            "transform needs adjacent conjugate pairs"
        )
    return starts


def _pair_rows(M: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """T^H M for the conjugate-pair transform T, applied to row pairs.

    Transforms the complex array ``M`` in place and returns it; a caller
    that does not own ``M`` passes a copy.
    """
    a = M[starts]
    b = M[starts + 1]
    M[starts] = (a + b) * _INV_SQRT2
    M[starts + 1] = 1j * (b - a) * _INV_SQRT2
    return M


def _pair_cols(M: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """M T for the conjugate-pair transform T, applied to column pairs.

    Transforms the complex array ``M`` in place and returns it; a caller
    that does not own ``M`` passes a copy.
    """
    a = M[..., starts]
    b = M[..., starts + 1]
    M[..., starts] = (a + b) * _INV_SQRT2
    M[..., starts + 1] = 1j * (a - b) * _INV_SQRT2
    return M


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

    This is the one coincidence rule: a left and a right point within
    1e-14 times the largest |z| of each other, exact overlap included,
    raise :class:`CoincidentPointError` naming both.  Only
    ``_assemble`` calls this, and it keeps neither the result nor the
    denominators: both are freed before the stack factors are formed.
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
                pairs: np.ndarray) -> np.ndarray:
    """N_row = [y v, Lw D + v c^T] in real coordinates, m x (n+1).

    For an m x n pencil the row stack [Lw  Ls] (m x 2n) is never formed.
    With D = diag(d) and (d, c, y) from the n right points, N_row N_row^H
    expands to Lw (I + |Lam|^2) Lw^H + Lw Lam 1 v^H + v 1^T Lam^H Lw^H
    + n v v^H, which is [Lw Ls][Lw Ls]^H.  Equal Gram matrices mean equal
    singular values and equal left singular vectors, which are all that
    rank detection and projection read from the row stack; the factor is
    exact, not an approximation.  The same holds after the realness
    transform: d is equal on the two points of a conjugate pair, so D
    commutes with it, and c transforms like w.  Its transform is exactly
    real, since ``_pair_starts`` admits only exact conjugates and c =
    conj(z)/d keeps them exact, so its imaginary part is dropped unchecked.
    """
    d, c, y = _stack_weights(right_points)
    c_r = _pair_cols(c, pairs).real
    return np.hstack([(y * v_r)[:, None], Lw_r * d + np.outer(v_r, c_r)])


def _col_factor(Lw_r: np.ndarray, w_r: np.ndarray, left_points: np.ndarray,
                pairs: np.ndarray) -> np.ndarray:
    """N_col = [y w^T; D Lw + c w^T] in real coordinates, (m+1) x n.

    The mirror of ``_row_factor`` with (d, c, y) from the left points:
    N_col^H N_col = [Lw; Ls]^H [Lw; Ls], so N_col gives the column stack's
    singular values and right singular vectors exactly.
    """
    d, c, y = _stack_weights(left_points)
    c_r = _pair_rows(c, pairs).real
    return np.vstack([y * w_r, d[:, None] * Lw_r + np.outer(c_r, w_r)])


def _leading_left(N: np.ndarray, r: int, rng: np.random.Generator) -> np.ndarray:
    """The leading r left singular vectors of N, by subspace iteration.

    Randomized subspace iteration (Halko, Martinsson & Tropp, SIAM Rev.
    2011, Alg. 4.4): the range of N times a Gaussian sketch of
    r + ``SKETCH_OVERSAMPLING`` columns, refined by ``POWER_ITERATIONS``
    passes through N^T and N with a QR after each product, then one small
    SVD of Q^T N.  Each pass raises the sketch's spectral decay to a
    higher power, so with p = ``SKETCH_OVERSAMPLING`` a direction j <= r
    is off by about (sigma_{r+p+1}/sigma_j)^(2 POWER_ITERATIONS + 1).
    Directions within a tail that is flat at the data's rounding level are
    not determined by N; the sketch picks them.
    """
    k = min(r + SKETCH_OVERSAMPLING, *N.shape)
    Q = np.linalg.qr(N @ rng.standard_normal((N.shape[1], k)))[0]
    for _ in range(POWER_ITERATIONS):
        Q = np.linalg.qr(N.T @ Q)[0]
        Q = np.linalg.qr(N @ Q)[0]
    return Q @ np.linalg.svd(Q.T @ N, full_matrices=False)[0][:, :r]


@dataclass(frozen=True, eq=False)
class LoewnerPencil:
    """A Loewner pencil in real coordinates, factored once.

    ``build_pencil`` fills every field and nothing is computed later:

    - ``partition``: the data the pencil was built from;
    - ``right_pairs``: first indices of the conjugate pairs among the
      right points (the realness transform's column layout);
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

    The factorization is exact and complete, so a projection can take any
    order up to the pencil's size.

    Every array is real and read-only.  There is no complex Lw and no
    shifted form: Ls_r = Lw_r Lam_r + v_r 1_r^T, see
    ``reduce_to_realization``.
    """

    partition: PointPartition
    right_pairs: np.ndarray
    Lw_r: np.ndarray
    v_r: np.ndarray
    w_r: np.ndarray
    U_row: np.ndarray
    s_row: np.ndarray
    s_col: np.ndarray
    Vt_col: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.right_pairs, self.Lw_r, self.v_r, self.w_r, self.U_row,
                  self.s_row, self.s_col, self.Vt_col):
            a.flags.writeable = False

    @property
    def size(self) -> int:
        return self.partition.size


@dataclass(frozen=True)
class RankReport:
    """Numerical-rank evidence for a Loewner pencil.

    Holds the singular values of the row stack [Lw Ls] and the column
    stack [Lw; Ls] (taken exactly from their half-size factors, see
    ``_row_factor``), the count of each stack above its cut
    max(``RANK_TOL``, 100*eps*sigma_1), and the detected rank, the larger
    of the two counts.
    """

    rank: int
    singular_values_row: np.ndarray
    singular_values_col: np.ndarray
    rank_row: int
    rank_col: int
    ranks_agree: bool


def _assemble(p: PointPartition) -> tuple[np.ndarray, ...]:
    """The unfactored pencil: (right_pairs, Lw_r, v_r, w_r, N_row, N_col).

    Finds each side's conjugate-pair layout, assembles Lw entrywise,
    transforms it in place and copies of the boundary vectors to real
    coordinates, and forms the two half-size stack factors.  Ls is left to
    the identities.
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
    v_r = _drop_imag("left responses", _pair_rows(p.left_values.astype(complex), left))
    w_r = _drop_imag("right responses", _pair_cols(p.right_values.astype(complex), right))
    return (right, Lw_r, v_r, w_r, _row_factor(Lw_r, v_r, p.right_points, right),
            _col_factor(Lw_r, w_r, p.left_points, left))


def build_pencil(p: PointPartition) -> LoewnerPencil:
    """Build the real, exactly factored pencil of a partition, once.

    ``_assemble`` forms it, and one full SVD of each half-size stack
    factor gives every singular value and vector that ``detect_rank`` and
    ``reduce_to_realization`` read, at any order.  Raises as
    ``_assemble`` does.
    """
    right, Lw_r, v_r, w_r, N_row, N_col = _assemble(p)
    U_row, s_row, _ = np.linalg.svd(N_row, full_matrices=False)
    _, s_col, Vt_col = np.linalg.svd(N_col, full_matrices=False)
    return LoewnerPencil(p, right, Lw_r, v_r, w_r, U_row, s_row, s_col, Vt_col)


def _sweep_candidates(p: PointPartition, r: int) -> list[DescriptorRealization]:
    """The LDDC sweep's candidates: the projections of orders 1..``r``.

    The sweep reads no singular value, so the partition is factored only
    as far as order ``r`` (1 <= r <= its size): ``_assemble`` forms it, as
    in ``build_pencil``, then ``_leading_left`` finds the leading r left
    directions of the row factor and right directions of the column
    factor, from one generator seeded with ``SKETCH_SEED`` (never numpy's
    global state).  The pencil is projected once, at order r; candidate q
    is the leading q x q block of that projection (see
    ``reduce_to_realization``).  Raises as ``_assemble`` does.
    """
    right, Lw_r, v_r, w_r, N_row, N_col = _assemble(p)
    rng = np.random.default_rng(SKETCH_SEED)
    Y = _leading_left(N_row, r, rng)
    X = _leading_left(N_col.T, r, rng)
    E, A, B, C = _project(p.right_points, right, Lw_r, v_r, w_r, Y, X)
    return [DescriptorRealization(E[:q, :q], A[:q, :q], B[:q], C[:, :q])
            for q in range(1, r + 1)]


def _count_above_cut(s: np.ndarray) -> int:
    """Singular values above max(RANK_TOL, 100*eps*s[0]); s is sorted
    descending."""
    return int(np.sum(s > max(RANK_TOL, 100.0 * np.finfo(float).eps * s[0])))


def detect_rank(pen: LoewnerPencil) -> RankReport:
    """Numerical rank of the pencil family under an SVD cutoff.

    This is the one rank rule of the package: ``approximate``, the LDDC
    workflow and the MFSA stability tag all read their orders from it.
    Each stack's rank is the count of its singular values above
    max(``RANK_TOL``, 100*eps*sigma_1), with sigma_1 that stack's largest.
    The singular values are the pencil's own fields, computed once by
    ``build_pencil``; no factorization runs here.  ``RANK_TOL`` is a
    module constant, read at each call; it is not a parameter, since every
    caller uses the one value.

    The absolute part ``RANK_TOL``, as in MATLAB's ``rank(A, tol)``, governs
    response data of order-one magnitude: its Loewner matrices have
    noise-floor singular values at machine scale, so a small absolute
    threshold separates signal from rounding noise regardless of how
    slowly the signal spectrum decays.  (A purely relative threshold
    misreads slowly decaying spectra from irrational models, whose
    meaningful singular values span many decades.)  The relative floor
    governs large data: divided differences carry rounding noise near
    eps*sigma_1, so an absolute cut alone would count noise as order once
    the responses are measured in large units.  With the floor in charge
    (sigma_1 above RANK_TOL/(100*eps), about 4.5e3), scaling the
    responses scales every singular value and the cut alike, and the rank
    does not change.  Below that, the absolute part makes the rank depend
    on the units the responses are measured in.

    The column stack should agree with the row stack.  A disagreement
    (possible with noisy or feed-through-bearing data) takes the larger
    count; the report carries it in ``ranks_agree``, ``rank_row`` and
    ``rank_col``, and nothing is emitted.  A caller that fits on a subset
    of the data, such as the MFSA point selection, reads a disagreement
    as a need for more points; ``approximate`` prints it.
    """
    s_row, s_col = pen.s_row, pen.s_col
    if s_row[0] == 0.0:
        raise ZeroDataError("Loewner pencil is identically zero")
    rank_row = _count_above_cut(s_row)
    rank_col = _count_above_cut(s_col)
    return RankReport(
        rank=max(rank_row, rank_col),
        singular_values_row=s_row,
        singular_values_col=s_col,
        rank_row=rank_row,
        rank_col=rank_col,
        ranks_agree=rank_row == rank_col,
    )


def reduce_to_realization(pen: LoewnerPencil, r: int) -> DescriptorRealization:
    """Project the raw Loewner realization to order ``r``.

    Y spans the first r left singular directions of the row stack [Lw Ls]
    and X the first r right singular directions of the column stack
    [Lw; Ls]; the projected realization is

        E = -Y' Lw X,  A = -Y' Ls X,  B = Y' v,  C = w X,  D = 0,

    all in the real-transformed coordinates, so the output matrices are
    real.  At the detected rank the realization interpolates the data; at
    full rank the interpolation is exact up to conditioning.  Y and X of
    order q < r are the leading columns of those of order r, so the order-q
    projection is the leading q x q block of the order-r one (equal up to
    rounding: the products are summed in other blocks).

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
    if not 1 <= r <= pen.size:
        raise ValueError(f"target order must lie in [1, {pen.size}], got {r}")
    E, A, B, C = _project(pen.partition.right_points, pen.right_pairs, pen.Lw_r,
                          pen.v_r, pen.w_r, pen.U_row[:, :r], pen.Vt_col[:r, :].T)
    return DescriptorRealization(E=E, A=A, B=B, C=C, D=0.0)


def _project(
    lam: np.ndarray, right: np.ndarray, Lw_r: np.ndarray, v_r: np.ndarray,
    w_r: np.ndarray, Y: np.ndarray, X: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The real (E, A, B, C) of :func:`reduce_to_realization` on the
    projectors Y and X, whose r columns give the order.

    ``lam`` and ``right`` are the right points and their pair layout, and
    ``Lw_r``, ``v_r`` and ``w_r`` the pencil's real arrays (see
    ``LoewnerPencil``).
    """
    r = Y.shape[1]
    LX = lam.real[:, None] * X
    LX[right] -= lam.imag[right, None] * X[right + 1]
    LX[right + 1] += lam.imag[right, None] * X[right]
    ones_r = _pair_cols(np.ones(lam.size, dtype=complex), right).real
    YL = Y.T @ Lw_r
    B = Y.T @ v_r
    E = -(YL @ X)
    A = -(YL @ LX) - np.outer(B, ones_r @ X)
    return E, A, B.reshape(r, 1), (w_r @ X).reshape(1, r)
