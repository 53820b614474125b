"""Algebra and analysis on SISO descriptor realizations and transfer maps.

A descriptor realization is the implicit state-space form

    E dx/dt = A x + B u,    y = C x + D u,

with possibly singular E; its transfer function is H(s) = C (sE - A)^{-1} B + D.
This module evaluates such realizations, computes their generalized pole
spectrum, splits them additively into stable and antistable parts, composes
them (series, unity feedback), estimates grid L-infinity norms and forms
delayed closed loops at the evaluator level.

A realization is factored at most once, on first use: its real
generalized Schur form (one LAPACK ``gges`` call, see ``_real_schur``)
is a cached, read-only property that every evaluation, pole query and
split of that realization reads.  That factorization is the package's
one regularity rule: a failed QZ, or a pencil with an exact 0/0
eigenvalue (det(sE - A) identically zero), raises
:class:`SingularPencilError` from the query that ran it and is not
cached, so each later query retries it.  Evaluation back-substitutes
over the form's 1x1 and 2x2 diagonal blocks from the bottom up,
vectorized over the points (Laub, IEEE TAC 1981).  The substitution is
left-looking: each block reads the rows already solved through one real
contraction of its rows of the form.  The form is real, not complex, so
that H(conj s) = conj H(s) holds exactly; each point is solved as the
caller gave it, and no conjugate pairs are folded.  Every contraction
runs over the realization index only, is elementwise over the points and
uses no BLAS product across points, so that no value depends on the
other points evaluated with it.  :func:`poles` reads the form's
eigenvalues, and the stable/antistable split reorders a copy of the form
with LAPACK ``tgsen``.

``gges``, ``tgsen`` and the split's ``tgsyl`` are the only code the
package takes from scipy.  They are bound from scipy's LAPACK extension
file (see ``_bind_lapack``), not through ``import scipy.linalg``, whose
package init cost more than the rest of the library's import.

The :class:`TransferMap` wrapper lets rational realizations and irrational
closed-form models (square roots, delays) flow through the same analysis
code paths.  A map built on a realization remembers the values of the
last grid it was called on (see :meth:`TransferMap.from_realization`), so
each transfer is solved once per grid however many consumers sample it.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    BoundaryPoleError,
    DataFormatError,
    LoopSingularityError,
    PoleHitError,
    SingularityError,
    SingularPencilError,
)

__all__ = [
    "DescriptorRealization",
    "TransferMap",
    "StableSplit",
    "GridNorm",
    "eval_transfer",
    "poles",
    "stable_antistable_split",
    "linf_norm_grid",
    "closed_loop_delay",
    "series",
    "feedback_unity",
    "densify_log_grid",
    "realization_to_json",
    "realization_from_json",
    "save_realization",
    "load_realization",
]

_FLAPACK = "scipy.linalg._flapack"


def _flapack_path() -> str:
    """The file of scipy's LAPACK extension, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "linalg", "_flapack" + suffix)
            if path.is_file():
                return str(path)
    raise ImportError(f"no {_FLAPACK} extension under {spec.submodule_search_locations}")


def _bind_lapack():
    """scipy's LAPACK routines, without the ``scipy.linalg`` package init.

    The module calls three LAPACK routines and nothing else of scipy:
    ``dgges``, ``dtgsen`` and ``dtgsyl``.  ``import scipy.linalg`` runs
    the whole package's init, whose array-API layer imports
    ``numpy.f2py``, ``numpy.testing`` and ``numpy.random``; that was most
    of the library's import time.  So the extension ``_flapack`` is loaded
    from its file.  Its routines are the objects ``scipy.linalg.lapack``
    exposes, so every value is the same bit for bit.  Loading registers
    the extension in ``sys.modules`` while its parent package is not
    imported; that entry is removed, so a later ``import scipy.linalg``
    imports the whole package and finds the same routines.  If the direct
    load fails for any reason (another scipy layout, a missing file), the
    public ``scipy.linalg.lapack`` is imported instead: slower, never
    different.
    """
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    try:
        path = _flapack_path()
        loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
        spec = importlib.util.spec_from_file_location(_FLAPACK, path, loader=loader)
        try:
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
        finally:
            sys.modules.pop(_FLAPACK, None)
        return module
    except Exception:
        # The layout is scipy's private one; whatever broke, the public
        # import below gives the same routines or raises its own error.
        import scipy.linalg.lapack

        return scipy.linalg.lapack


_lapack = _bind_lapack()


def _as_real_matrix(name: str, M, shape: tuple[int, int]) -> np.ndarray:
    """A read-only real copy of ``M``; a complex or non-finite entry or a
    wrong shape raises ``ValueError`` naming the matrix."""
    M = np.asarray(M)
    if np.iscomplexobj(M):
        if np.any(M.imag != 0.0):
            raise ValueError(f"{name} must be real, got complex entries")
        M = M.real
    M = np.atleast_2d(np.array(M, dtype=float))
    if M.shape != shape:
        raise ValueError(f"{name} has shape {M.shape}, expected {shape}")
    if not np.isfinite(M).all():
        raise ValueError(f"{name} has a non-finite entry {M[~np.isfinite(M)][0]}")
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class DescriptorRealization:
    """Real SISO descriptor realization (E, A, B, C, D) of order n.

    Construction copies E, A, B and C into read-only real arrays and
    rejects a complex or non-finite entry, in them or in D, with a
    ``ValueError`` naming the field, so a realization is finite for as
    long as it lives.  Construction checks only what the arrays show and
    factors nothing.  Regularity of the pencil (E, A), det(sE - A) not
    identically zero, is decided by the cached Schur form that the first
    query computes (see ``_real_schur``).  Order zero (pure feed-through
    D) is allowed.
    """

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: float = 0.0

    def __post_init__(self) -> None:
        n = np.atleast_2d(np.asarray(self.A)).shape[0]
        object.__setattr__(self, "E", _as_real_matrix("E", self.E, (n, n)))
        object.__setattr__(self, "A", _as_real_matrix("A", self.A, (n, n)))
        object.__setattr__(self, "B", _as_real_matrix("B", self.B, (n, 1)))
        object.__setattr__(self, "C", _as_real_matrix("C", self.C, (1, n)))
        d = complex(self.D)
        if d.imag != 0.0:
            raise ValueError("D must be real")
        if not math.isfinite(d.real):
            raise ValueError(f"D must be finite, got {d.real}")
        object.__setattr__(self, "D", d.real)

    @property
    def order(self) -> int:
        return self.A.shape[0]

    def transfer_map(self, label: str = "") -> "TransferMap":
        return TransferMap.from_realization(self, label=label)

    @functools.cached_property
    def _schur(self) -> "_SchurForm":
        return _real_schur(self)


@dataclass(frozen=True)
class StableSplit:
    """Additive decomposition H = H_stable + H_antistable.

    The feed-through term is assigned to the stable part; the antistable
    part is strictly proper with all its finite poles in Re(s) >= 0 and
    every infinite eigenvalue of the pencil.  ``antistable_poles`` holds
    the antistable part's finite eigenvalues, read off the reordered Schur
    form (``tgsen``'s eigenvalues) that produced the split.
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
        """The map s -> :func:`eval_transfer` (rlz, s), solved once per grid.

        The map remembers the values of the last array of points it was
        called on.  A call on an array of the same shape and the same bytes
        returns a fresh copy of those values without solving again, so a
        plant, weight, target or controller that several consumers sample
        on one grid is solved once.  The values are the ones a new solve
        would give, since :func:`eval_transfer` depends on nothing but the
        realization and the points.  Any other array is solved and replaces
        the memory; a call that raises leaves it as it was, so it raises
        again on the same points.  A scalar point is solved every time and
        leaves the memory alone.  ``from_callable`` and ``constant`` maps
        remember nothing.
        """
        last = None  # ((shape, bytes) of the points, a private copy of the values)

        def fn(s):
            nonlocal last
            s = np.asarray(s, dtype=complex)
            if s.ndim == 0:
                return eval_transfer(rlz, s)
            key = (s.shape, s.tobytes())
            seen = last
            if seen is not None and seen[0] == key:
                return seen[1].copy()
            vals = eval_transfer(rlz, s)
            last = key, vals.copy()
            return vals

        return TransferMap(fn=fn, label=label, realization=rlz)

    @staticmethod
    def from_callable(fn: Callable, label: str = "") -> "TransferMap":
        return TransferMap(fn=fn, label=label, realization=None)

    @staticmethod
    def constant(value: complex) -> "TransferMap":
        value = complex(value)
        rlz = _empty_realization(value.real) if value.imag == 0.0 else None
        return TransferMap(
            fn=lambda s, v=value: np.full(np.shape(s), v, dtype=complex),
            label=str(value),
            realization=rlz,
        )


def eval_transfer(rlz: DescriptorRealization, s):
    """Evaluate C (sE - A)^{-1} B + D through the realization's real Schur form.

    ``s`` may be a scalar or an ndarray of complex points; the result has
    the same shape.  The form is factored on the realization's first use
    and reused by every later call.  Every point is solved as given by
    :func:`_schur_values`; no conjugate pairs are folded.  The form is
    real, so H(conj s) = conj H(s) holds bit for bit all the same.  A
    point's value does not depend on the other points of the call (the
    solve's contractions run over the realization index only and are
    elementwise over the points), so each value equals the one a separate
    call at that point gives.  A pole hit raises :class:`PoleHitError`
    naming the first point the caller gave on the pole.
    """
    s_arr = np.asarray(s, dtype=complex)
    scalar = s_arr.ndim == 0
    pts = np.atleast_1d(s_arr).ravel()
    if rlz.order == 0:
        vals = np.full(pts.shape, complex(rlz.D))
    else:
        vals = _schur_values(rlz, rlz._schur, pts)
    vals = vals.reshape(s_arr.shape) if not scalar else vals[0]
    return complex(vals) if scalar else vals


class _SchurForm(NamedTuple):
    """Real generalized Schur form Q^T (A, E) Z = (S, T) and its eigenvalues.

    The generalized eigenvalues are (alphar + i alphai) / beta, as LAPACK
    ``gges`` returns them; beta = 0 is an infinite eigenvalue.
    """

    S: np.ndarray
    T: np.ndarray
    Q: np.ndarray
    Z: np.ndarray
    alphar: np.ndarray
    alphai: np.ndarray
    beta: np.ndarray


def _no_sort(*_args):
    return None


def _real_schur(rlz: DescriptorRealization) -> _SchurForm:
    """One real QZ of (A, E): the ``gges`` call ``scipy.linalg.qz`` makes.

    ``dgges`` is the routine object ``scipy.linalg.lapack`` exposes, bound
    by ``_bind_lapack`` without importing ``scipy.linalg``.  Same
    workspace query and arguments, so S, T, Q and Z are qz's bit for
    bit; qz drops the eigenvalues that the same call returns, and this
    keeps them.  Every array is read-only: ``DescriptorRealization._schur``
    caches the form.  A realization is finite from construction on, so
    qz's finiteness check is not repeated.  Any nonzero ``info`` raises
    :class:`SingularPencilError` naming it: for a failed QZ iteration
    (1 <= info <= n) LAPACK does not return a Schur form, and any other
    value means no form at all.  So does an eigenvalue with alphar =
    alphai = beta = 0 exactly: a 0/0 diagonal pair of (S, T) makes
    det(sT - S), and so det(sE - A), vanish for every s.  This is the
    package's one regularity rule, and it is exact: a pencil singular
    only to rounding passes.  The property caches nothing on a raise,
    so the next query factors again.
    """
    A, E = rlz.A, rlz.E
    gges = _lapack.dgges
    lwork = gges(_no_sort, A, E, lwork=-1)[-2][0].real.astype(int)
    S, T, _sdim, alphar, alphai, beta, Q, Z, _work, info = gges(
        _no_sort, A, E, lwork=lwork, sort_t=0
    )
    if info != 0:
        raise SingularPencilError(f"generalized Schur factorization failed (info={info})")
    if np.any((alphar == 0.0) & (alphai == 0.0) & (beta == 0.0)):
        raise SingularPencilError("pencil (E, A) is singular: a 0/0 generalized eigenvalue")
    form = _SchurForm(S, T, Q, Z, alphar, alphai, beta)
    for M in form:
        M.flags.writeable = False
    return form


def _eigenvalues(form: _SchurForm, E: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A form's eigenvalues (alphar + i alphai) / beta and the mask of the
    finite ones under the rule of :func:`poles`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (form.alphar + 1j * form.alphai) / form.beta
    return lam, _finite(form.beta, E)


def _schur_values(
    rlz: DescriptorRealization, form: _SchurForm, s: np.ndarray
) -> np.ndarray:
    """H at each point of ``s`` by block back-substitution (Laub, 1981).

    The real QZ ``form`` of ``rlz`` (from :func:`_real_schur`),
    Q^T (A, E) Z = (S, T) with S quasi-upper-triangular and T upper
    triangular, turns every solve into (sT - S) y = Q^T B, which is block
    upper triangular with 1x1 and 2x2 diagonal blocks: O(n^2) work per
    point after one O(n^3) factorization.  The real form keeps the
    arithmetic at conj(s) the conjugate of that at s, so H(conj s) =
    conj H(s) holds bit for bit with every point solved as given; a
    complex QZ would not, and the identity would hold only to rounding.

    The substitution is left-looking.  Every diagonal entry s T_ii - S_ii
    is formed in one broadcast; the blocks are then walked bottom-up, and
    each block's right-hand side r = Q^T B - s (T y) + S y over the rows
    already solved comes from one contraction of its rows of [T; S],
    stored interleaved so that they are one slice, against the real view
    of y.  The block is solved by Cramer's rule, and H = D + (C Z) y is
    one more contraction at the end.  The contractions use ``einsum``,
    which sums over the realization index in a fixed order for each point
    and is elementwise over the points; a BLAS product may block the
    points and change a value's last bit with its batch.  So no value
    depends on its batch.  A diagonal block that is exactly singular at a
    point is a pole hit, reported as the first such point of ``s``.
    """
    S, T, Q, Z = form.S, form.T, form.Q, form.Z
    n = rlz.order
    # Rows T_0, S_0, T_1, S_1, ...: a block's rows of [T; S] are one slice.
    TS = np.stack([T, S], axis=1).reshape(2 * n, n)
    diag = np.multiply.outer(np.diag(T), s)
    diag -= np.diag(S)[:, None]
    y = np.empty((n, s.size), dtype=complex)
    y[:] = Q.T @ rlz.B
    y_re = y.view(float)
    hi = n
    while hi > 0:
        lo = hi - 2 if hi > 1 and S[hi - 1, hi - 2] != 0.0 else hi - 1
        if hi < n:
            # r = rhs - s (T y) + S y over the rows already solved.
            w = np.einsum("ik,kp->ip", TS[2 * lo:2 * hi, hi:], y_re[hi:]).view(complex)
            # Row by row: on a single point a (rows, points) product would
            # run numpy's strided complex loop, which rounds unlike the
            # contiguous one and would make the value depend on its batch.
            for i in range(hi - lo):
                y[lo + i] -= s * w[2 * i]
                y[lo + i] += w[2 * i + 1]
        if hi - lo == 1:
            det = diag[lo]
        else:
            # T is upper triangular, so the lower corner is -S alone.
            b01 = s * T[lo, lo + 1] - S[lo, lo + 1]
            b10 = -S[lo + 1, lo]
            det = diag[lo] * diag[lo + 1] - b01 * b10
        if not det.all():
            raise PoleHitError(
                f"transfer evaluation hit a pole at s = {complex(s[det == 0.0][0])}"
            )
        if hi - lo == 1:
            y[lo] /= det
        else:
            y0, y1 = y[lo].copy(), y[lo + 1]
            y[lo] = (diag[lo + 1] * y0 - b01 * y1) / det
            y[lo + 1] = (diag[lo] * y1 - b10 * y0) / det
        hi = lo
    h = np.einsum("k,kp->p", (rlz.C @ Z)[0], y_re).view(complex)
    h += rlz.D
    return h


def poles(rlz: DescriptorRealization) -> np.ndarray:
    """The finite generalized eigenvalues of (A, E), as a complex array.

    Directions along which E is singular produce eigenvalues at infinity
    (impulsive modes); they are left out, so the array holds ``rlz.order``
    minus their count.  An eigenvalue alpha/beta counts as finite when
    |beta| > n*eps*||E||_F, the same rule :func:`stable_antistable_split`
    applies to the same cached Schur form that :func:`eval_transfer` reads.
    """
    if rlz.order == 0:
        return np.array([], dtype=complex)
    lam, fin = _eigenvalues(rlz._schur, rlz.E)
    return lam[fin]


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


# Half-width of the band around the imaginary axis in which a finite pole
# aborts stable_antistable_split: such a pole has no reliable side.
SPLIT_GUARD = 1e-8


def _sylvester_residual(A11, R, L, A22, A12):
    num = np.linalg.norm(A11 @ R + L @ A22 + A12)
    den = (
        np.linalg.norm(A11) * np.linalg.norm(R)
        + np.linalg.norm(L) * np.linalg.norm(A22)
        + np.linalg.norm(A12)
    )
    return num / max(den, np.finfo(float).tiny)


def stable_antistable_split(rlz: DescriptorRealization) -> StableSplit:
    """Split a realization into stable and antistable additive parts.

    A copy of the realization's cached real Schur form is reordered with
    LAPACK ``tgsen``, as ``scipy.linalg.ordqz`` does after its own QZ, so
    that the eigenvalues selected as stable, those that are finite (the
    rule of :func:`poles`) with Re < 0, lead; every infinite eigenvalue
    therefore lands in the antistable block.  The guard and the selection
    read the form's eigenvalues once, before anything is reordered: a finite pole
    whose real part lies within ``SPLIT_GUARD`` of the imaginary axis
    raises :class:`BoundaryPoleError`.  A failed reordering, or one whose
    leading block is not the selected set, raises
    :class:`SingularPencilError`.  The off-diagonal coupling blocks are
    then annihilated with a generalized Sylvester solve, yielding two
    decoupled descriptor systems whose transfers sum to the original.
    ``dtgsen`` and ``dtgsyl`` are ``scipy.linalg.lapack``'s routines,
    bound by ``_bind_lapack`` without importing ``scipy.linalg``.
    """
    n = rlz.order
    if n == 0:
        return StableSplit(rlz, _empty_realization(0.0), np.array([], dtype=complex))
    form = rlz._schur
    lam, fin = _eigenvalues(form, rlz.E)
    near = fin & (np.abs(lam.real) < SPLIT_GUARD)
    if near.any():
        raise BoundaryPoleError(
            f"poles within {SPLIT_GUARD:g} of the imaginary axis: {lam[near]}"
        )
    select = fin & (lam.real < 0.0)
    k = int(np.sum(select))
    # The reordering scipy.linalg.ordqz runs after its QZ, same arguments.
    S, T, alphar, alphai, beta, Q, Z, *_, info = _lapack.dtgsen(
        select, form.S, form.T, form.Q, form.Z, ijob=0, lwork=4 * n + 16, liwork=1
    )
    lam, fin = _eigenvalues(_SchurForm(S, T, Q, Z, alphar, alphai, beta), rlz.E)
    if info != 0 or not np.array_equal(fin & (lam.real < 0.0), np.arange(n) < k):
        raise SingularPencilError(f"generalized Schur reordering failed (info={info})")
    anti_poles = lam[k:][fin[k:]]
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
    r_, l_, scale_, _dif, info = _lapack.dtgsyl(S11, S22, -S12, T11, T22, -T12)
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


def _check_delays(taus) -> list[float]:
    """The package's one delay rule: ``taus`` as floats, each finite and
    >= 0, strictly ascending; else ``ValueError`` naming the first bad one."""
    taus = [float(t) for t in taus]
    for prev, tau in zip([-math.inf] + taus, taus):
        if not (0 <= tau < math.inf and tau > prev):
            raise ValueError(f"bad delay {tau}: delays must be finite, >= 0 and strictly ascending")
    return taus


def _log_grid(grid) -> np.ndarray:
    """The package's one log-grid rule: ``grid`` as a 1-D array of positive,
    finite frequencies; else ``ValueError`` naming the first bad one."""
    omega = np.asarray(grid, dtype=float).ravel()
    bad = omega[~((omega > 0) & (omega < math.inf))]
    if bad.size:
        raise ValueError(f"grid frequencies must be positive and finite, got {bad[0]}")
    return omega


def _eval_on_axis(h, omega: np.ndarray) -> np.ndarray:
    """h(i*omega) as a complex array, every sample checked where it is taken.

    This is the one grid sampler of the package: the stability tag, the PI
    tuner's plant and weight samples, grid norms and Nyquist curves all
    read their values through it, so its empty-grid ``ValueError`` is the
    package's only one.  If the evaluation raises, the error is raised
    again with the first failing frequency appended to its message.  A
    sample that is not finite raises :class:`SingularityError` naming the
    first such frequency.
    """
    if omega.size == 0:
        raise ValueError("frequency grid is empty")
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
    mags = np.abs(_eval_on_axis(h, grid))
    idx = int(np.argmax(mags))
    return GridNorm(value=float(mags[idx]), omega=float(grid[idx]))


def closed_loop_delay(h: TransferMap, k: TransferMap, tau: float) -> TransferMap:
    """Complementary-sensitivity style loop with an input delay on feedback.

    Returns the evaluator s -> h(s)k(s) / (1 + h(s)k(s)e^{-tau*s}).  With
    tau = 0 this is the plain unity-feedback closed loop; tau is checked by
    ``_check_delays``.  A non-finite factor gives a non-finite value at
    that point, with no numpy warning, for the grid sampler to name; a
    return difference below 1e-300 raises :class:`LoopSingularityError`.
    """
    _check_delays([tau])

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


def series(g: DescriptorRealization, k: DescriptorRealization) -> DescriptorRealization:
    """Realization of the product transfer g(s) * k(s) (k feeds g).

    Like every construction it factors nothing, so building a connection
    only to close it costs its array copies."""
    ng = g.order
    n = ng + k.order
    E, A = np.zeros((n, n)), np.zeros((n, n))
    E[:ng, :ng], E[ng:, ng:] = g.E, k.E
    A[:ng, :ng], A[ng:, ng:] = g.A, k.A
    A[:ng, ng:] = g.B @ k.C
    return DescriptorRealization(
        E, A, np.vstack([g.B * k.D, k.B]), np.hstack([g.C, g.D * k.C]), g.D * k.D
    )


def feedback_unity(loop: DescriptorRealization) -> DescriptorRealization:
    """Closed loop L/(1+L) of a loop-gain realization under unity feedback;
    raises :class:`LoopSingularityError` when 1 + D vanishes."""
    den = 1.0 + loop.D
    if abs(den) < 1e-12:
        raise LoopSingularityError(
            "unity feedback is singular: 1 + D vanishes"
        )
    return DescriptorRealization(
        loop.E, loop.A - (loop.B @ loop.C) / den, loop.B / den, loop.C / den, loop.D / den
    )


def densify_log_grid(grid, factor: int) -> np.ndarray:
    """Log-spaced grid over the same range with ``factor`` times the points;
    ``grid`` is checked by ``_log_grid`` and needs at least 2 points."""
    grid = _log_grid(grid)
    if grid.size < 2:
        raise ValueError("need at least 2 grid points to densify")
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
    """The realization that ``obj`` holds, already factored; a missing
    field, a bad shape or entry, or a singular pencil raises
    :class:`DataFormatError`.  The Schur form is computed here, so a
    singular file fails at load, and stays cached for every later query."""
    try:
        n = int(obj["order"])
        rlz = DescriptorRealization(
            E=np.array(obj["E"], dtype=float).reshape(n, n),
            A=np.array(obj["A"], dtype=float).reshape(n, n),
            B=np.array(obj["B"], dtype=float).reshape(n, 1),
            C=np.array(obj["C"], dtype=float).reshape(1, n),
            D=float(obj["D"]),
        )
        if n > 0:
            rlz._schur
        return rlz
    except (KeyError, TypeError, ValueError, SingularPencilError) as exc:
        raise DataFormatError(f"bad realization object: {exc}") from None


def save_realization(rlz: DescriptorRealization, path) -> None:
    Path(path).write_text(json.dumps(realization_to_json(rlz)) + "\n")


def load_realization(path) -> DescriptorRealization:
    """Read a realization that :func:`save_realization` wrote.

    A file that cannot be read raises ``OSError``.  Every other failure,
    text that is not JSON or an object that is not a valid realization
    (a singular pencil included), raises :class:`DataFormatError` whose
    message starts with ``path``.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or text that is not UTF-8
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        return realization_from_json(obj)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from None
