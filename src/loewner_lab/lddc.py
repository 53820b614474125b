"""Data-driven controller synthesis from frequency-response measurements.

Given plant samples Phi_i = H(i*omega_i) and a target closed-loop map M,
the controller that would reproduce M exactly in unity feedback is

    K*(i*omega_i) = M(i*omega_i) / (Phi_i * (1 - M(i*omega_i))),

which is known only where the plant was measured.  The workflow here
computes those samples, interpolates and reduces them with the Loewner
machinery across a range of orders, and converts the reduction error into
a stability certificate through a small-gain bound,
gamma = max_i |Phi_i * (1 - M(i*omega_i))|: a reduced controller is
certified when its grid deviation from K*, taken relative to |K*|, stays
below 1/gamma.  The small-gain argument bounds the absolute deviation, not
the relative one, so the certificate as applied is not the bound it is
derived from.  Nor is it unit-free: the relative error has no units while
1/gamma is in the plant's, so the same data in other units certifies
other orders (the m1 sweep of the built-in plant on the paper grid
certifies from order 13 as given, from order 1 with the plant scaled by
2^-10 and from order 19 with it scaled by 2^10).

The certificate is one-sided.  Orders that fail the bound are reported as
"inconclusive", never "unstable"; the test is conservative by nature.
:func:`reduce_controller` builds each row once, with its verdict, and
:meth:`ReductionSweep.pick` names the row handed out as the controller.

The target M is a plain :class:`TransferMap`, called on the plant grid.
The m1 and closed-loop targets carry their realization, and their maps
remember their last grid's values, so :func:`small_gain_bound` and
:func:`ideal_controller_response` solve such a target once between them; a
tabulated target answers only at its own sample points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

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
from .loewner_core import _sweep_candidates

__all__ = [
    "SweepRow",
    "ReductionSweep",
    "second_order_reference",
    "closed_loop_reference",
    "reference_from_dataset",
    "ideal_controller_response",
    "small_gain_bound",
    "reduce_controller",
]

# Corner frequency of the m1 target, rad/s (see second_order_reference).
M1_OMEGA0 = 0.5

# Poles this many times above the top data frequency are treated as
# parasitic interpolation artifacts rather than controller dynamics.
PARASITIC_POLE_FACTOR = 1e3


@dataclass(frozen=True)
class SweepRow:
    """One order of the controller-reduction sweep.

    ``error`` is max_i |K_r(z_i) - K*(z_i)| over the construction grid and
    ``error_rel`` the same maximum taken relative to |K*(z_i)|.  ``verdict``
    is "stable" when the small-gain certificate holds, "inconclusive" when
    it does not (always so under a bound of 0.0, no certificate), and
    "failed" (no realization, infinite errors) when no realization could
    be built for the order.  The projection size is ``realization.order``.
    """

    order: int
    realization: Optional[DescriptorRealization]
    error: float
    error_rel: float
    verdict: str


@dataclass(frozen=True)
class ReductionSweep:
    """Reduction errors and small-gain verdicts over a range of orders,
    with the bound ``gamma_bound`` they were certified against (0.0: no
    certificate).  :meth:`pick` is the one rule for the row a caller hands
    out as the controller."""

    rows: tuple[SweepRow, ...]
    gamma_bound: float

    def __post_init__(self) -> None:
        orders = [row.order for row in self.rows]
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError(f"sweep orders must be strictly increasing: {orders}")

    def pick(self) -> SweepRow:
        """The first certified row; with none, the first row with the lowest
        ``error_rel``, the error the verdict reads, so a failed row only
        when every row failed."""
        for row in self.rows:
            if row.verdict == "stable":
                return row
        return min(self.rows, key=lambda row: row.error_rel)

    def smallest_safe_order(self) -> Optional[int]:
        row = self.pick()
        return row.order if row.verdict == "stable" else None


# One projection of the sweep; tuples rank by error, then by the distinct
# projection size.  ``poles`` counts the dynamic poles.
class _Candidate(NamedTuple):
    error: float
    size: int
    poles: int
    error_rel: float
    realization: DescriptorRealization


def second_order_reference() -> TransferMap:
    """The m1 target: a unit-DC-gain, critically damped second-order map.

    M(s) = 1 / (s^2/omega0^2 + 2 s/omega0 + 1) with omega0 =
    ``M1_OMEGA0``, which is one at s = 0 and rolls off to zero at
    infinity.  The map carries its realization.
    """
    omega0 = M1_OMEGA0
    w2 = omega0 * omega0
    rlz = DescriptorRealization(
        E=np.eye(2),
        A=np.array([[0.0, 1.0], [-w2, -2.0 * omega0]]),
        B=np.array([[0.0], [w2]]),
        C=np.array([[1.0, 0.0]]),
        D=0.0,
    )
    return TransferMap.from_realization(
        rlz, label=f"second-order target (omega0={omega0:g})"
    )


def closed_loop_reference(
    plant: DescriptorRealization, controller: DescriptorRealization
) -> TransferMap:
    """Target equal to the unity-feedback loop of a plant and controller.

    Useful when the desired behaviour is "whatever this known controller
    achieves": the ideal-controller samples then reproduce the controller's
    own response, which makes the construction a strong self-test.
    """
    loop = feedback_unity(series(plant, controller))
    return TransferMap.from_realization(loop, label="closed-loop target")


def reference_from_dataset(dataset: FrequencyDataset) -> TransferMap:
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

    return TransferMap.from_callable(lookup, label="tabulated target")


def _plant_and_reference(
    plant_data: FrequencyDataset, m_ref: TransferMap
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plant grid z, the plant samples Phi and M sampled on z."""
    z = plant_data.points()
    if z.size == 0:
        raise ValueError("plant dataset is empty")
    return z, plant_data.values(), np.asarray(m_ref(z), dtype=complex)


def ideal_controller_response(
    plant_data: FrequencyDataset, m_ref: TransferMap
) -> FrequencyDataset:
    """Samples of the controller that would realize M exactly in feedback.

    Divides M by Phi*(1 - M) pointwise over the plant grid.  A zero plant
    response or M = 1 anywhere on the grid makes the division meaningless
    and raises :class:`SingularityError` naming the offending frequency.
    """
    z, phi, mvals = _plant_and_reference(plant_data, m_ref)
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


def small_gain_bound(plant_data: FrequencyDataset, m_ref: TransferMap) -> float:
    """gamma = max_i |Phi_i * (1 - M(z_i))| over the plant grid.

    :func:`reduce_controller` certifies a reduced controller whose grid
    error relative to the ideal controller's magnitude, ``error_rel``,
    stays below 1/gamma.  The small-gain argument bounds the absolute
    error, so that rule is not the bound it is derived from, and it
    depends on the plant's units (see the module docstring).  A reference
    model equal to one everywhere gives gamma = 0, the package's one
    spelling of "no certificate": :func:`reduce_controller` certifies no
    row under it, and :func:`ideal_controller_response` raises on the same
    data.
    """
    _, phi, mvals = _plant_and_reference(plant_data, m_ref)
    return float(np.max(np.abs(phi * (1.0 - mvals))))


def reduce_controller(
    kstar_data: FrequencyDataset,
    orders: Iterable[int],
    gamma_bound: float,
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

    The candidates come from ``loewner_core._sweep_candidates``: the
    pencil is factored only as far as the sweep reads it (the leading
    directions up to the top size, by seeded randomized subspace iteration,
    and no singular value) and projected once, at the top size; candidate
    q is the leading q x q block of that projection.  Where the ideal
    controller's spectrum keeps decaying past the top size, the candidates
    match those of full SVDs closely; where it is flat at the rounding
    floor, the sketch, not the data, picks the directions, and those
    candidates differ from the exact ones at that floor.  Each candidate's
    poles and grid values come from its one cached real QZ (:func:`poles`,
    then :func:`eval_transfer` on the whole grid), which also decides its
    regularity: a candidate whose block is a singular pencil, or whose QZ
    fails, raises there and is skipped without losing the others.  A
    candidate with more dynamic poles than max(orders) is eligible for no
    row, so it is skipped before its grid values are solved.  Data that
    are not conjugate-closed raise
    :func:`partition_points`'s :class:`PartitionSizeError`.

    ``gamma_bound`` is the small-gain bound, finite and >= 0, else
    ``ValueError``; 0.0 means no certificate.  Each order's row is built
    once, from the best eligible candidate (lowest grid error, then the
    smaller projection), with its verdict: "stable" when its relative grid
    error is below 1/gamma_bound (see :func:`small_gain_bound` on that
    rule), "inconclusive" otherwise, and "failed" when no candidate is
    eligible.  :meth:`ReductionSweep.pick` chooses among the rows.
    """
    orders = tuple(sorted({int(r) for r in orders}))
    if not orders:
        raise ValueError("no reduction orders requested")
    if orders[0] < 1:
        raise ValueError(f"orders must be >= 1, got {orders[0]}")
    if len(kstar_data) < 2 * orders[-1]:
        raise PartitionSizeError(
            f"{len(kstar_data)} samples cannot support order {orders[-1]}; "
            f"need at least {2 * orders[-1]}"
        )
    if not 0.0 <= gamma_bound < math.inf:
        raise ValueError(f"gamma_bound must be finite and >= 0, got {gamma_bound}")

    # The partition rejects data that are not conjugate-closed.
    partition = partition_points(kstar_data)
    z = kstar_data.points()
    kstar = kstar_data.values()
    mag = np.abs(kstar)
    nz = mag > 0.0
    mag = mag[nz]
    parasitic_cut = PARASITIC_POLE_FACTOR * float(np.max(np.abs(z.imag)))

    candidates: list[_Candidate] = []
    for rlz in _sweep_candidates(partition, min(orders[-1] + 1, partition.size)):
        try:
            dynamic = int(np.sum(np.abs(poles(rlz)) <= parasitic_cut))
            # No row can pick a candidate with more dynamic poles than the
            # top order, so its grid values are never read.
            if dynamic > orders[-1]:
                continue
            vals = eval_transfer(rlz, z)
        except LoewnerLabError:
            continue
        diff = np.abs(vals - kstar)
        err = float(np.max(diff))
        err_rel = float(np.max(diff[nz] / mag)) if nz.any() else err
        candidates.append(_Candidate(err, rlz.order, dynamic, err_rel, rlz))

    # No error lies below the safe level 0 of a zero bound.
    safe_level = 1.0 / gamma_bound if gamma_bound > 0.0 else 0.0

    rows: list[SweepRow] = []
    for r in orders:
        eligible = [c for c in candidates if c.poles <= r]
        if not eligible:
            rows.append(SweepRow(r, None, math.inf, math.inf, "failed"))
            continue
        best = min(eligible)
        verdict = "stable" if best.error_rel < safe_level else "inconclusive"
        rows.append(SweepRow(r, best.realization, best.error, best.error_rel, verdict))
    return ReductionSweep(rows=tuple(rows), gamma_bound=gamma_bound)
