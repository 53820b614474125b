"""Algebra and analysis on SISO descriptor realizations and transfer maps.

A descriptor realization is the implicit state-space form

    E dx/dt = A x + B u,    y = C x + D u,

with possibly singular E; its transfer function is H(s) = C (sE - A)^{-1} B + D.
This module evaluates such realizations, computes their generalized pole
spectrum, splits them additively into stable and antistable parts, composes
them (series, summation, unity feedback), estimates grid L-infinity norms,
forms delayed closed loops at the evaluator level, and integrates step
responses.

Evaluation reduces (A, E) once per call to its real generalized Schur form
and then back-substitutes over the 1x1 and 2x2 diagonal blocks, vectorized
over the points (Laub, IEEE TAC 1981).  The form is real, not complex, so
that H(conj s) = conj H(s) holds exactly, and the block updates are
elementwise over the points, so that no value depends on the other points
evaluated with it.

The :class:`TransferMap` wrapper lets rational realizations and irrational
closed-form models (square roots, delays) flow through the same analysis
code paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import (
    BoundaryPoleError,
    LoopSingularityError,
    PoleHitError,
    SimulationError,
    SingularityError,
    SingularPencilError,
)

__all__ = [
    "DescriptorRealization",
    "TransferMap",
    "SpectrumReport",
    "StableSplit",
    "GridNorm",
    "StepResponse",
    "eval_transfer",
    "poles",
    "stable_antistable_split",
    "linf_norm_grid",
    "closed_loop_delay",
    "simulate_step",
    "series",
    "feedback_unity",
    "add",
    "scale",
    "densify_log_grid",
    "realization_to_json",
    "realization_from_json",
    "save_realization",
    "load_realization",
]

# Fixed probe points for pencil-regularity checks: arbitrary irrational-ish
# locations that no structured model places an eigenvalue on.
_PROBE_POINTS = np.array(
    [0.91723 + 0.70811j, -1.31847 + 2.09253j, 3.66117 - 0.58441j]
)


def _as_real_matrix(name: str, M, shape: tuple[int, int]) -> np.ndarray:
    M = np.asarray(M)
    if np.iscomplexobj(M):
        if np.max(np.abs(M.imag), initial=0.0) > 0.0:
            raise ValueError(f"{name} must be real, got complex entries")
        M = M.real
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != shape:
        raise ValueError(f"{name} has shape {M.shape}, expected {shape}")
    return M


@dataclass(frozen=True)
class DescriptorRealization:
    """Real SISO descriptor realization (E, A, B, C, D) of order n.

    The pencil (E, A) must be regular, i.e. det(sE - A) must not vanish
    identically; this is probed at three fixed complex points on
    construction.  Order zero (pure feed-through D) is allowed.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float = 0.0

    def __post_init__(self) -> None:
        A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        n = A.shape[0]
        object.__setattr__(self, "E", _as_real_matrix("E", self.E, (n, n)))
        object.__setattr__(self, "A", _as_real_matrix("A", self.A, (n, n)))
        object.__setattr__(self, "B", _as_real_matrix("B", self.B, (n, 1)))
        object.__setattr__(self, "C", _as_real_matrix("C", self.C, (1, n)))
        d = complex(self.D)
        if d.imag != 0.0:
            raise ValueError("D must be real")
        object.__setattr__(self, "D", float(d.real))
        if n > 0:
            self._check_regular()

    def _check_regular(self) -> None:
        # Cap the probe scale so a vanishing E (pure polynomial part)
        # cannot overflow s*E - A; beyond the cap E is negligible anyway.
        nE = float(np.linalg.norm(self.E, "fro"))
        nA = float(np.linalg.norm(self.A, "fro"))
        scale = max(1.0, nA / nE) if nE > 1e-12 * nA else 1e12
        for s in _PROBE_POINTS * scale:
            sign, _ = np.linalg.slogdet(s * self.E - self.A)
            if sign != 0:
                return
        raise SingularPencilError(
            "pencil (E, A) appears singular at all probe points"
        )

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def transfer_map(self, label: str = "") -> "TransferMap":
        return TransferMap.from_realization(self, label=label)


@dataclass(frozen=True)
class SpectrumReport:
    """Finite generalized eigenvalues plus the count of infinite ones."""

    finite: np.ndarray
    infinite_count: int


@dataclass(frozen=True)
class StableSplit:
    """Additive decomposition H = H_stable + H_antistable.

    The feed-through term is assigned to the stable part; the antistable
    part is strictly proper with all its finite poles in Re(s) >= 0 and
    every infinite eigenvalue of the pencil.  ``antistable_poles`` holds
    the antistable part's finite eigenvalues, read off the same ordered
    Schur form that produced the split.
    """

    stable_part: DescriptorRealization
    antistable_part: DescriptorRealization
    antistable_poles: np.ndarray


@dataclass(frozen=True)
class GridNorm:
    """Grid estimate of an L-infinity norm: peak value and its frequency."""

    value: float
    omega: float


@dataclass(frozen=True)
class StepResponse:
    t: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class TransferMap:
    """Evaluator abstraction s -> complex value.

    Wraps either a rational descriptor realization or an arbitrary
    closed-form complex function; evaluation is vectorized over arrays of
    points.  Carrying the realization (when one exists) lets downstream
    code fall back to state-space algorithms.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str = ""
    realization: DescriptorRealization | None = None

    def __call__(self, s):
        scalar = np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0)
        out = self.fn(np.asarray(s, dtype=complex))
        out = np.asarray(out, dtype=complex)
        return complex(out) if scalar and out.ndim == 0 else out

    @staticmethod
    def from_realization(rlz: DescriptorRealization, label: str = "") -> "TransferMap":
        return TransferMap(
            fn=lambda s: eval_transfer(rlz, s), label=label, realization=rlz
        )

    @staticmethod
    def from_callable(fn: Callable, label: str = "") -> "TransferMap":
        return TransferMap(fn=fn, label=label, realization=None)

    @staticmethod
    def constant(value: complex, label: str = "") -> "TransferMap":
        value = complex(value)
        rlz = _empty_realization(value.real) if value.imag == 0.0 else None
        return TransferMap(
            fn=lambda s, v=value: np.full(np.shape(s), v, dtype=complex),
            label=label or str(value),
            realization=rlz,
        )

    def __mul__(self, other: "TransferMap") -> "TransferMap":
        if not isinstance(other, TransferMap):
            return NotImplemented
        rlz = None
        if self.realization is not None and other.realization is not None:
            rlz = series(self.realization, other.realization)
        return TransferMap(
            fn=lambda s: self.fn(np.asarray(s, dtype=complex))
            * other.fn(np.asarray(s, dtype=complex)),
            label=f"({self.label})*({other.label})",
            realization=rlz,
        )


def eval_transfer(rlz: DescriptorRealization, s):
    """Evaluate C (sE - A)^{-1} B + D through one real generalized Schur form.

    ``s`` may be a scalar or an ndarray of complex points; the result has
    the same shape.  Each point and its conjugate share one solve: points
    with Im s < 0 are mapped to their conjugates, each distinct point of
    that set is solved once by :func:`_schur_values`, and the mirrored
    values are conjugated, so H(conj s) = conj H(s) holds bit for bit.  A
    point's value does not depend on the other points of the call, so each
    value equals the one a separate call at that point gives.  A pole hit
    raises :class:`PoleHitError` naming the point as the caller gave it,
    not its conjugate.
    """
    s_arr = np.asarray(s, dtype=complex)
    scalar = s_arr.ndim == 0
    pts = np.atleast_1d(s_arr).ravel()
    if rlz.order == 0:
        vals = np.full(pts.shape, complex(rlz.D))
    else:
        mirror = pts.imag < 0
        upper, first, back = np.unique(
            np.where(mirror, pts.conj(), pts), return_index=True, return_inverse=True
        )
        vals = _schur_values(rlz, upper, pts[first])[back]
        np.conjugate(vals, out=vals, where=mirror)
    vals = vals.reshape(s_arr.shape) if not scalar else vals[0]
    return complex(vals) if scalar else vals


def _schur_values(
    rlz: DescriptorRealization, s: np.ndarray, asked: np.ndarray
) -> np.ndarray:
    """H at each point of ``s`` by block back-substitution (Laub, 1981).

    One real QZ, Q^T (A, E) Z = (S, T) with S quasi-upper-triangular and T
    upper triangular, turns every solve into (sT - S) y = Q^T B, which is
    block upper triangular with 1x1 and 2x2 diagonal blocks: O(n^2) work
    per point after one O(n^3) factorization.  The real form keeps the
    arithmetic at conj(s) the conjugate of that at s; a complex QZ would
    not, and H(conj s) = conj H(s) would hold only to rounding.  The
    updates are right-looking and elementwise over the points: after a
    block is solved, its columns are subtracted from the right-hand sides
    above it, so no reduction runs across points and no value depends on
    its batch.  A diagonal block that is exactly singular at a point is a
    pole hit, reported as the matching entry of ``asked``.
    """
    S, T, Q, Z = scipy.linalg.qz(rlz.A, rlz.E, output="real")
    y = np.empty((rlz.order, s.size), dtype=complex)
    y[:] = Q.T @ rlz.B
    work = np.empty_like(y)
    c = (rlz.C @ Z)[0]
    h = np.full(s.size, complex(rlz.D))
    hi = rlz.order
    while hi > 0:
        lo = hi - 2 if hi > 1 and S[hi - 1, hi - 2] != 0.0 else hi - 1
        blk = [[s * T[i, j] - S[i, j] for j in range(lo, hi)] for i in range(lo, hi)]
        det = blk[0][0] if hi - lo == 1 else blk[0][0] * blk[1][1] - blk[0][1] * blk[1][0]
        hit = det == 0.0
        if hit.any():
            raise PoleHitError(
                f"transfer evaluation hit a pole at s = {complex(asked[hit][0])}"
            )
        if hi - lo == 1:
            y[lo] /= det
        else:
            y0, y1 = y[lo].copy(), y[lo + 1]
            y[lo] = (blk[1][1] * y0 - blk[0][1] * y1) / det
            y[lo + 1] = (blk[0][0] * y1 - blk[1][0] * y0) / det
        for j in range(lo, hi):
            # y[:lo] -= (s T[:lo, j] - S[:lo, j]) y[j], formed in one buffer.
            col = work[:lo]
            np.multiply(T[:lo, j, None], s, out=col)
            col -= S[:lo, j, None]
            col *= y[j]
            y[:lo] -= col
            h += c[j] * y[j]
        hi = lo
    return h


def poles(rlz: DescriptorRealization) -> SpectrumReport:
    """Finite generalized eigenvalues of (A, E); infinite ones counted apart.

    Directions along which E is singular produce eigenvalues at infinity
    (impulsive modes); they are excluded from the finite list.  An
    eigenvalue alpha/beta counts as finite when |beta| > n*eps*||E||_F,
    the same rule :func:`stable_antistable_split` applies.
    """
    n = rlz.order
    if n == 0:
        return SpectrumReport(finite=np.array([], dtype=complex), infinite_count=0)
    ab = scipy.linalg.eig(rlz.A, rlz.E, right=False, homogeneous_eigvals=True)
    alpha, beta = ab[0], ab[1]
    finite_mask = _finite(beta, rlz.E)
    finite = alpha[finite_mask] / beta[finite_mask]
    return SpectrumReport(
        finite=finite, infinite_count=int(np.sum(~finite_mask))
    )


def _finite(beta: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Mask of the finite eigenvalues alpha/beta of a pencil (A, E)."""
    tol = E.shape[0] * np.finfo(float).eps * max(
        float(np.linalg.norm(E, "fro")), np.finfo(float).tiny
    )
    return np.abs(beta) > tol


def _empty_realization(d: float = 0.0) -> DescriptorRealization:
    return DescriptorRealization(
        E=np.zeros((0, 0)), A=np.zeros((0, 0)),
        B=np.zeros((0, 1)), C=np.zeros((1, 0)), D=d,
    )


def _sylvester_residual(A11, R, L, A22, A12):
    num = np.linalg.norm(A11 @ R + L @ A22 + A12)
    den = (
        np.linalg.norm(A11) * np.linalg.norm(R)
        + np.linalg.norm(L) * np.linalg.norm(A22)
        + np.linalg.norm(A12)
    )
    return num / max(den, np.finfo(float).tiny)


def stable_antistable_split(
    rlz: DescriptorRealization, guard: float = 1e-8
) -> StableSplit:
    """Split a realization into stable and antistable additive parts.

    One ordered real QZ of (A, E) brings the eigenvalues selected as
    stable, those that are finite (the rule of :func:`poles`) with
    Re < 0, to the lead; every infinite eigenvalue therefore lands in the
    antistable block.  The off-diagonal coupling blocks are then
    annihilated with a generalized Sylvester solve, yielding two decoupled
    descriptor systems whose transfers sum to the original.  The guard
    check and the antistable eigenvalues are read off the same Schur form:
    any finite pole whose real part lies within ``guard`` of the imaginary
    axis aborts the split before anything is reordered.
    """
    n = rlz.order
    if n == 0:
        return StableSplit(rlz, _empty_realization(0.0), np.array([], dtype=complex))

    def select(alpha, beta):
        # ordqz calls this on the unordered Schur form, so the guard check
        # runs before any reordering; infinite eigenvalues divide by zero.
        fin = _finite(beta, rlz.E)
        with np.errstate(divide="ignore", invalid="ignore"):
            lam = alpha / beta
        near = fin & (np.abs(lam.real) < guard)
        if near.any():
            raise BoundaryPoleError(
                f"poles within {guard:g} of the imaginary axis: {lam[near]}"
            )
        return fin & (lam.real < 0.0)

    S, T, alpha, beta, Q, Z = scipy.linalg.ordqz(
        rlz.A, rlz.E, sort=select, output="real"
    )
    mask = select(alpha, beta)
    k = int(np.sum(mask))
    if not mask[:k].all() or mask[k:].any():
        raise SingularPencilError("generalized Schur reordering failed")
    fin = _finite(beta[k:], rlz.E)
    anti_poles = alpha[k:][fin] / beta[k:][fin]
    if k == n:
        return StableSplit(rlz, _empty_realization(0.0), anti_poles)
    if k == 0:
        anti = DescriptorRealization(rlz.E, rlz.A, rlz.B, rlz.C, 0.0)
        return StableSplit(_empty_realization(rlz.D), anti, anti_poles)
    Bt = Q.T @ rlz.B
    Ct = rlz.C @ Z

    S11, S12, S22 = S[:k, :k], S[:k, k:], S[k:, k:]
    T11, T12, T22 = T[:k, :k], T[:k, k:], T[k:, k:]
    # Decouple: find R, L with S11 R + L S22 = -S12 and T11 R + L T22 = -T12,
    # solved by LAPACK's generalized Sylvester routine (which uses the
    # convention S11 R - L' S22 = scale*C, hence the sign flip on L).
    tgsyl = scipy.linalg.get_lapack_funcs(
        ("tgsyl",), (S11, S22, T11, T22)
    )[0]
    r_, l_, scale_, _dif, info = tgsyl(S11, S22, -S12, T11, T22, -T12)
    if info < 0 or scale_ == 0.0:
        raise SingularPencilError(
            f"generalized Sylvester solve failed (info={info})"
        )
    R = r_ / scale_
    L = -l_ / scale_
    if info > 0:
        # The two spectra nearly overlap and LAPACK returned a perturbed
        # solution; keep it only if it actually decouples the blocks.
        res = max(
            _sylvester_residual(S11, R, L, S22, S12),
            _sylvester_residual(T11, R, L, T22, T12),
        )
        if not np.isfinite(res) or res > 1e-8:
            raise SingularPencilError(
                "generalized Sylvester solve ill conditioned "
                f"(info={info}, residual={res:.2e})"
            )

    B1 = Bt[:k] + L @ Bt[k:]
    B2 = Bt[k:]
    C1 = Ct[:, :k]
    C2 = Ct[:, :k] @ R + Ct[:, k:]
    stable = DescriptorRealization(T11, S11, B1, C1, rlz.D)
    anti = DescriptorRealization(T22, S22, B2, C2, 0.0)
    return StableSplit(stable, anti, anti_poles)


def _eval_on_axis(h, omega: np.ndarray) -> np.ndarray:
    """h(i*omega) as a complex array, every sample checked where it is taken.

    This is the one grid sampler of the package: the stability tag, the PI
    tuner's plant and weight samples, grid norms and Nyquist curves all
    read their values through it.  If the evaluation raises, the error is
    raised again with the first failing frequency appended to its message.
    A sample that is not finite raises :class:`SingularityError` naming
    the first such frequency.
    """
    try:
        vals = np.asarray(h(1j * omega), dtype=complex)
    except Exception:
        # Vectorized evaluation failed somewhere; locate the offender so the
        # error names a frequency.
        for w in omega:
            try:
                h(1j * w)
            except Exception as exc:
                raise type(exc)(f"{exc} (at omega = {w:g} rad/s)") from exc
        raise
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = bad[0]
        raise SingularityError(
            f"non-finite sample {complex(vals[k])} (at omega = {omega[k]:g} rad/s)"
        )
    return vals


def linf_norm_grid(h: TransferMap, grid) -> GridNorm:
    """Max of |h(i*omega)| over a frequency grid, with the argmax frequency."""
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("frequency grid is empty")
    mags = np.abs(_eval_on_axis(h, grid))
    idx = int(np.argmax(mags))
    return GridNorm(value=float(mags[idx]), omega=float(grid[idx]))


def closed_loop_delay(h: TransferMap, k: TransferMap, tau: float) -> TransferMap:
    """Complementary-sensitivity style loop with an input delay on feedback.

    Returns the evaluator s -> h(s)k(s) / (1 + h(s)k(s)e^{-tau*s}).  With
    tau = 0 this is the plain unity-feedback closed loop.  A non-finite
    factor gives a non-finite value at that point, with no numpy warning,
    for the grid sampler to name; a return difference below 1e-300 raises
    :class:`LoopSingularityError`.
    """
    if tau < 0:
        raise ValueError(f"delay must be nonnegative, got {tau}")

    def fn(s):
        s = np.asarray(s, dtype=complex)
        hs, ks = h(s), k(s)
        # A complex product with an infinite factor computes inf*0, which
        # raises numpy's invalid flag; the NaN it leaves is the answer.
        with np.errstate(invalid="ignore"):
            loop = hs * ks
            den = 1.0 + loop * np.exp(-tau * s)
            vanished = np.abs(np.atleast_1d(den)) < 1e-300
            if vanished.any():
                bad = s.ravel()[int(np.argmax(vanished))]
                raise LoopSingularityError(
                    f"return difference vanished at s = {bad}"
                )
            return loop / den

    return TransferMap(
        fn=fn, label=f"closed_loop(h={h.label}, k={k.label}, tau={tau:g})"
    )


def simulate_step(
    rlz: DescriptorRealization,
    t_end: float,
    dt: float,
    origin_guard: float = 1e-3,
) -> StepResponse:
    """Unit-step response by fixed-step trapezoidal integration.

    Requires an invertible E (index-0 descriptor); models carrying a pole
    within ``origin_guard`` of the origin are rejected, since their step
    response diverges (or settles only past any finite horizon) and the
    result would be noise.
    """
    if dt <= 0:
        raise SimulationError(f"step size must be positive, got {dt}")
    if t_end <= dt:
        raise SimulationError(f"horizon {t_end} must exceed the step {dt}")
    n = rlz.order
    t = np.arange(0.0, t_end + dt / 2, dt)
    if n == 0:
        return StepResponse(t=t, y=np.full(t.shape, rlz.D))
    spec = poles(rlz)
    if spec.infinite_count:
        raise SimulationError(
            "E is singular (impulsive modes present); reduce the index first"
        )
    if spec.finite.size and np.min(np.abs(spec.finite)) < origin_guard:
        worst = spec.finite[int(np.argmin(np.abs(spec.finite)))]
        raise SimulationError(
            f"pole at the origin (|{worst:.3g}| < {origin_guard:g}): "
            "step response does not settle"
        )
    M_left = rlz.E - (dt / 2) * rlz.A
    M_right = rlz.E + (dt / 2) * rlz.A
    lu = scipy.linalg.lu_factor(M_left)
    b = dt * rlz.B[:, 0]
    x = np.zeros(n)
    y = np.empty(t.shape)
    y[0] = rlz.D
    for i in range(1, t.size):
        x = scipy.linalg.lu_solve(lu, M_right @ x + b)
        y[i] = float(rlz.C[0] @ x) + rlz.D
    return StepResponse(t=t, y=y)


def series(g: DescriptorRealization, k: DescriptorRealization) -> DescriptorRealization:
    """Realization of the product transfer g(s) * k(s) (k feeds g)."""
    ng, nk = g.order, k.order
    E = np.block([
        [g.E, np.zeros((ng, nk))],
        [np.zeros((nk, ng)), k.E],
    ])
    A = np.block([
        [g.A, g.B @ k.C],
        [np.zeros((nk, ng)), k.A],
    ])
    B = np.vstack([g.B * k.D, k.B])
    C = np.hstack([g.C, g.D * k.C])
    return DescriptorRealization(E, A, B, C, g.D * k.D)


def feedback_unity(loop: DescriptorRealization) -> DescriptorRealization:
    """Closed loop L/(1+L) of a loop-gain realization under unity feedback."""
    den = 1.0 + loop.D
    if abs(den) < 1e-12:
        raise LoopSingularityError(
            "unity feedback is singular: 1 + D vanishes"
        )
    return DescriptorRealization(
        E=loop.E,
        A=loop.A - (loop.B @ loop.C) / den,
        B=loop.B / den,
        C=loop.C / den,
        D=loop.D / den,
    )


def add(a: DescriptorRealization, b: DescriptorRealization) -> DescriptorRealization:
    """Realization of the sum transfer a(s) + b(s)."""
    na, nb = a.order, b.order
    E = np.block([
        [a.E, np.zeros((na, nb))],
        [np.zeros((nb, na)), b.E],
    ])
    A = np.block([
        [a.A, np.zeros((na, nb))],
        [np.zeros((nb, na)), b.A],
    ])
    B = np.vstack([a.B, b.B])
    C = np.hstack([a.C, b.C])
    return DescriptorRealization(E, A, B, C, a.D + b.D)


def scale(rlz: DescriptorRealization, factor: float) -> DescriptorRealization:
    return DescriptorRealization(
        rlz.E, rlz.A, rlz.B, factor * rlz.C, factor * rlz.D
    )


def densify_log_grid(grid, factor: int) -> np.ndarray:
    """Log-spaced grid over the same range with ``factor`` times the points."""
    grid = np.asarray(grid, dtype=float).ravel()
    if grid.size < 2:
        raise ValueError("need at least 2 grid points to densify")
    if np.any(grid <= 0):
        raise ValueError("log densification requires positive frequencies")
    return np.geomspace(grid.min(), grid.max(), int(factor) * grid.size)


def realization_to_json(rlz: DescriptorRealization) -> dict:
    return {
        "order": rlz.order,
        "E": rlz.E.tolist(),
        "A": rlz.A.tolist(),
        "B": rlz.B.tolist(),
        "C": rlz.C.tolist(),
        "D": rlz.D,
    }


def realization_from_json(obj: dict) -> DescriptorRealization:
    try:
        n = int(obj["order"])
        rlz = DescriptorRealization(
            E=np.array(obj["E"], dtype=float).reshape(n, n),
            A=np.array(obj["A"], dtype=float).reshape(n, n),
            B=np.array(obj["B"], dtype=float).reshape(n, 1),
            C=np.array(obj["C"], dtype=float).reshape(1, n),
            D=float(obj["D"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        from .errors import DataFormatError

        raise DataFormatError(f"bad realization object: {exc}") from None
    return rlz


def save_realization(rlz: DescriptorRealization, path) -> None:
    Path(path).write_text(json.dumps(realization_to_json(rlz)) + "\n")


def load_realization(path) -> DescriptorRealization:
    from .errors import DataFormatError

    try:
        obj = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    return realization_from_json(obj)
