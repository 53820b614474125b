"""Data-driven controller synthesis from frequency-response measurements.

Given plant samples Phi_i = H(i*omega_i) and a target closed-loop map M,
the controller that would reproduce M exactly in unity feedback is

    K*(i*omega_i) = M(i*omega_i) / (Phi_i * (1 - M(i*omega_i))),

which is known only where the plant was measured.  The workflow here
computes those samples, interpolates and reduces them with the Loewner
machinery across a range of orders, and converts the reduction error into
a stability certificate through a small-gain bound: any reduced controller
whose deviation from K* stays below 1/gamma on the grid keeps the loop
internally stable, where gamma = max_i |Phi_i * (1 - M(i*omega_i))|.

The certificate is one-sided.  Orders that fail the bound are reported as
"inconclusive", never "unstable"; the test is conservative by nature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .descriptor_ops import (
    DescriptorRealization,
    TransferMap,
    eval_transfer,
    feedback_unity,
    poles,
    series,
)
from .errors import (
    GridMismatchError,
    LoewnerLabError,
    PartitionSizeError,
    SingularityError,
)
from .freq_data import FrequencyDataset, close_conjugate, partition_points
from .loewner_core import build_pencil, reduce_to_realization

__all__ = [
    "ReferenceModelSpec",
    "ConstraintCheck",
    "AchievabilityReport",
    "SweepRow",
    "ReductionSweep",
    "DEFAULT_ORDERS",
    "second_order_reference",
    "closed_loop_reference",
    "reference_from_dataset",
    "ideal_controller_response",
    "check_achievability",
    "small_gain_bound",
    "reduce_controller",
]

DEFAULT_ORDERS = tuple(range(1, 21))

# A constraint at omega = infinity is probed at this finite frequency,
# since a limit cannot be evaluated directly.
INFINITY_PROBE_OMEGA = 1e6

# Poles this many times above the top data frequency are treated as
# parasitic interpolation artifacts rather than controller dynamics.
PARASITIC_POLE_FACTOR = 1e3


@dataclass(frozen=True)
class ReferenceModelSpec:
    """A target closed-loop map M plus its declared design constraints.

    ``vanish_at`` lists frequencies (rad/s, ``math.inf`` allowed) where M
    must be zero, ``unity_at`` lists frequencies where M must equal one.
    The constraint sets record what the designer demanded of M; they are
    checked by :func:`check_achievability`, not enforced on construction.
    """

    transfer: TransferMap
    vanish_at: tuple[float, ...] = ()
    unity_at: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vanish_at", tuple(float(w) for w in self.vanish_at))
        object.__setattr__(self, "unity_at", tuple(float(w) for w in self.unity_at))
        for w in self.vanish_at + self.unity_at:
            if math.isnan(w):
                raise ValueError("constraint frequency is NaN")


@dataclass(frozen=True)
class ConstraintCheck:
    """Outcome of one reference-model constraint evaluation."""

    kind: str  # "vanish" or "unity"
    omega: float
    value: complex
    residual: float
    passed: bool


@dataclass(frozen=True)
class AchievabilityReport:
    """Per-constraint residuals and the combined verdict."""

    checks: tuple[ConstraintCheck, ...]
    achievable: bool
    tolerance: float


@dataclass(frozen=True)
class SweepRow:
    """One order of the controller-reduction sweep.

    ``error`` is max_i |K_r(z_i) - K*(z_i)| over the construction grid and
    ``error_rel`` the same maximum taken relative to |K*(z_i)|.  ``verdict``
    is "stable" when the small-gain certificate holds, "inconclusive" when
    it does not (or no bound was supplied), and "failed" when no realization
    could be built for the order.
    """

    order: int
    realization: Optional[DescriptorRealization]
    error: float
    error_rel: float
    verdict: str
    projection_size: int = 0


@dataclass(frozen=True)
class ReductionSweep:
    """Reduction errors and small-gain verdicts over a range of orders."""

    rows: tuple[SweepRow, ...]
    gamma_bound: Optional[float] = None

    def __post_init__(self) -> None:
        orders = [row.order for row in self.rows]
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError(f"sweep orders must be strictly increasing: {orders}")

    def smallest_safe_order(self) -> Optional[int]:
        for row in self.rows:
            if row.verdict == "stable":
                return row.order
        return None


def second_order_reference(omega0: float = 0.5) -> ReferenceModelSpec:
    """Unit-DC-gain critically-damped-ish second-order target.

    M(s) = 1 / (s^2/omega0^2 + 2 s/omega0 + 1), which is one at s = 0 and
    rolls off to zero at infinity, so both classical tracking constraints
    are declared.
    """
    if omega0 <= 0:
        raise ValueError(f"omega0 must be positive, got {omega0}")
    w2 = omega0 * omega0
    rlz = DescriptorRealization(
        E=np.eye(2),
        A=np.array([[0.0, 1.0], [-w2, -2.0 * omega0]]),
        B=np.array([[0.0], [w2]]),
        C=np.array([[1.0, 0.0]]),
        D=0.0,
    )
    label = f"second-order target (omega0={omega0:g})"
    return ReferenceModelSpec(
        transfer=TransferMap.from_realization(rlz, label=label),
        vanish_at=(math.inf,),
        unity_at=(0.0,),
    )


def closed_loop_reference(
    plant: DescriptorRealization, controller: DescriptorRealization
) -> ReferenceModelSpec:
    """Target equal to the unity-feedback loop of a plant and controller.

    Useful when the desired behaviour is "whatever this known controller
    achieves": the ideal-controller samples then reproduce the controller's
    own response, which makes the construction a strong self-test.
    """
    loop = feedback_unity(series(plant, controller))
    return ReferenceModelSpec(
        transfer=TransferMap.from_realization(loop, label="closed-loop target"),
        vanish_at=(math.inf,),
        unity_at=(0.0,),
    )


def reference_from_dataset(dataset: FrequencyDataset) -> ReferenceModelSpec:
    """Wrap measured reference-model samples as a grid-locked transfer.

    The returned map only answers at the dataset's own points; anything
    else raises :class:`GridMismatchError`.  That keeps downstream grid
    bookkeeping honest when M exists purely as data.
    """
    table = dict(zip(dataset.points().tolist(), dataset.values().tolist()))

    def lookup(z):
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        for idx, point in np.ndenumerate(z):
            try:
                out[idx] = table[complex(point)]
            except KeyError:
                raise GridMismatchError(
                    f"reference-model data has no sample at z = {point}"
                ) from None
        return out

    return ReferenceModelSpec(
        transfer=TransferMap.from_callable(lookup, label="tabulated target")
    )


def ideal_controller_response(
    plant_data: FrequencyDataset, m_ref: ReferenceModelSpec
) -> FrequencyDataset:
    """Samples of the controller that would realize M exactly in feedback.

    Divides M by Phi*(1 - M) pointwise over the plant grid.  A zero plant
    response or M = 1 anywhere on the grid makes the division meaningless
    and raises :class:`SingularityError` naming the offending frequency.
    """
    z = plant_data.points()
    phi = plant_data.values()
    if z.size == 0:
        raise ValueError("plant dataset is empty")
    mvals = np.asarray(m_ref.transfer(z), dtype=complex)
    floor = 4.0 * np.finfo(float).tiny
    dead_plant = np.abs(phi) < floor
    if np.any(dead_plant):
        k = int(np.argmax(dead_plant))
        raise SingularityError(
            f"plant response vanishes at z = {z[k]}; the ideal controller "
            "is undefined there"
        )
    dead_gap = np.abs(1.0 - mvals) < floor
    if np.any(dead_gap):
        k = int(np.argmax(dead_gap))
        raise SingularityError(
            f"reference model equals one at z = {z[k]}; the ideal "
            "controller is undefined there"
        )
    kstar = mvals / (phi * (1.0 - mvals))
    return close_conjugate(FrequencyDataset.from_arrays(z, kstar))


def check_achievability(
    m_ref: ReferenceModelSpec, tol: float = 1e-6
) -> AchievabilityReport:
    """Evaluate M at every declared constraint point and compare.

    Finite constraint frequencies are probed at s = i*omega; the point at
    infinity is probed at s = i*INFINITY_PROBE_OMEGA.  A constraint passes
    when |M - target| <= tol.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    checks: list[ConstraintCheck] = []
    for kind, target, omegas in (
        ("vanish", 0.0, m_ref.vanish_at),
        ("unity", 1.0, m_ref.unity_at),
    ):
        for w in omegas:
            probe = INFINITY_PROBE_OMEGA if math.isinf(w) else w
            try:
                value = complex(m_ref.transfer(1j * probe))
            except LoewnerLabError as exc:
                raise type(exc)(
                    f"{exc} (while checking the {kind} constraint at "
                    f"omega = {w:g} rad/s)"
                ) from exc
            residual = abs(value - target)
            checks.append(
                ConstraintCheck(
                    kind=kind,
                    omega=w,
                    value=value,
                    residual=float(residual),
                    passed=bool(residual <= tol),
                )
            )
    achievable = all(c.passed for c in checks)
    return AchievabilityReport(
        checks=tuple(checks), achievable=achievable, tolerance=float(tol)
    )


def small_gain_bound(
    plant_data: FrequencyDataset, m_ref: ReferenceModelSpec
) -> float:
    """gamma = max_i |Phi_i * (1 - M(z_i))| over the plant grid.

    Reduced controllers whose grid error against the ideal controller stays
    below 1/gamma are certified internally stabilizing.  A reference model
    equal to one everywhere gives gamma = 0; the bound is then vacuous and
    a warning is emitted.
    """
    z = plant_data.points()
    phi = plant_data.values()
    if z.size == 0:
        raise ValueError("plant dataset is empty")
    mvals = np.asarray(m_ref.transfer(z), dtype=complex)
    gamma = float(np.max(np.abs(phi * (1.0 - mvals))))
    if gamma == 0.0:
        warnings.warn(
            "small-gain bound is zero (reference model equals one on the "
            "whole grid); the certificate is vacuous",
            stacklevel=2,
        )
    return gamma


@dataclass(frozen=True)
class _Candidate:
    projection_size: int
    realization: DescriptorRealization
    error: float
    error_rel: float
    dynamic_order: int


def _grid_errors(rlz, z, kstar):
    vals = eval_transfer(rlz, z)
    diff = np.abs(vals - kstar)
    mag = np.abs(kstar)
    err = float(np.max(diff))
    nz = mag > 0.0
    err_rel = float(np.max(diff[nz] / mag[nz])) if np.any(nz) else err
    return err, err_rel


def reduce_controller(
    kstar_data: FrequencyDataset,
    orders: Iterable[int] = DEFAULT_ORDERS,
    gamma_bound: Optional[float] = None,
) -> ReductionSweep:
    """Reduce the ideal-controller data across orders and certify each row.

    For every requested order r the sweep records the most accurate
    projected realization whose count of dynamic poles does not exceed r,
    where "dynamic" means the pole magnitude stays below
    ``PARASITIC_POLE_FACTOR`` times the top grid frequency.  Divided
    differences routinely plant one enormous spurious pole far outside the
    data band; counting it against the order would misname an essentially
    first-order controller as second-order.  Candidate projections of size
    up to max(orders)+1 are considered, and since the eligible set only
    grows with r, the recorded error column is non-increasing.

    With ``gamma_bound`` supplied, rows whose relative grid error is below
    1/gamma_bound are marked "stable"; everything else stays
    "inconclusive".  Orders where no realization could be built are marked
    "failed".
    """
    orders = tuple(sorted({int(r) for r in orders}))
    if not orders:
        raise ValueError("no reduction orders requested")
    if orders[0] < 1:
        raise ValueError(f"orders must be >= 1, got {orders[0]}")
    if not kstar_data.conjugate_closed:
        raise ValueError(
            "ideal-controller data must be conjugate-closed; run "
            "close_conjugate first"
        )
    if len(kstar_data) < 2 * orders[-1]:
        raise PartitionSizeError(
            f"{len(kstar_data)} samples cannot support order {orders[-1]}; "
            f"need at least {2 * orders[-1]}"
        )
    if gamma_bound is not None and gamma_bound < 0:
        raise ValueError(f"gamma_bound must be nonnegative, got {gamma_bound}")

    z = kstar_data.points()
    kstar = kstar_data.values()
    pencil = build_pencil(partition_points(kstar_data))
    parasitic_cut = PARASITIC_POLE_FACTOR * float(np.max(np.abs(z.imag)))

    candidates: list[_Candidate] = []
    q_max = min(orders[-1] + 1, pencil.size)
    for q in range(1, q_max + 1):
        try:
            rlz = reduce_to_realization(pencil, q)
            err, err_rel = _grid_errors(rlz, z, kstar)
            finite = poles(rlz).finite
            dyn = int(np.sum(np.abs(finite) <= parasitic_cut))
        except LoewnerLabError:
            continue
        candidates.append(_Candidate(q, rlz, err, err_rel, dyn))

    safe_level = None
    if gamma_bound is not None and gamma_bound > 0.0:
        safe_level = 1.0 / gamma_bound

    rows: list[SweepRow] = []
    for r in orders:
        eligible = [c for c in candidates if c.dynamic_order <= r]
        if not eligible:
            rows.append(
                SweepRow(
                    order=r,
                    realization=None,
                    error=math.inf,
                    error_rel=math.inf,
                    verdict="failed",
                )
            )
            continue
        best = min(eligible, key=lambda c: (c.error, c.projection_size))
        verdict = "inconclusive"
        if safe_level is not None and best.error_rel < safe_level:
            verdict = "stable"
        rows.append(
            SweepRow(
                order=r,
                realization=best.realization,
                error=best.error,
                error_rel=best.error_rel,
                verdict=verdict,
                projection_size=best.projection_size,
            )
        )
    return ReductionSweep(rows=tuple(rows), gamma_bound=gamma_bound)
