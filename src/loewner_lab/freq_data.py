"""Frequency-response data model and interpolation-point bookkeeping.

A dataset is an ordered, duplicate-free list of (frequency point, response
value) pairs, held as two parallel 1-D complex arrays: ``z[k]`` is a point
and ``phi[k]`` the response there.  Measured data lives on the imaginary
axis, which is also the only on-disk representation (omega plus
real/imaginary response parts); in memory, arbitrary complex points are
allowed so synthetic test data can be placed anywhere in the plane.

Two operations prepare a dataset for the Loewner build: conjugate closure,
which guarantees that realizations projected from the data can be made
real, and partitioning, which splits the points into two disjoint halves
(the "left" and "right" interpolation sets) of equal size.  Both act on the
arrays as a whole and keep the dataset's point order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConjugateConflictError,
    DataFormatError,
    DuplicatePointError,
    PartitionSizeError,
)

__all__ = [
    "FrequencyDataset",
    "PointPartition",
    "load_csv",
    "save_csv",
    "close_conjugate",
    "partition_points",
]

CSV_HEADER = ("omega_rad_s", "re", "im")


@dataclass(frozen=True, eq=False)
class FrequencyDataset:
    """Ordered, duplicate-free frequency samples as two parallel arrays.

    ``z`` holds the complex frequency points and ``phi`` the responses,
    both 1-D complex, equal in length and read-only.  Construction copies
    its inputs and rejects mismatched lengths, non-finite entries and
    repeated points.
    """

    z: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        z = np.array(self.z, dtype=complex).ravel()
        phi = np.array(self.phi, dtype=complex).ravel()
        if z.shape != phi.shape:
            raise ValueError("point and value arrays differ in length")
        bad = np.flatnonzero(~(np.isfinite(z) & np.isfinite(phi)))
        if bad.size:
            k = bad[0]
            if not np.isfinite(z[k]):
                raise ValueError(f"non-finite frequency point {complex(z[k])}")
            raise ValueError(f"non-finite response value {complex(phi[k])}")
        order = np.argsort(z, kind="stable")
        repeats = order[1:][z[order[1:]] == z[order[:-1]]]
        if repeats.size:
            k = int(repeats.min())
            raise DuplicatePointError(
                f"sample {k}: frequency point {complex(z[k])} already present"
            )
        z.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "phi", phi)

    def __len__(self) -> int:
        return self.z.size

    def points(self) -> np.ndarray:
        return self.z

    def values(self) -> np.ndarray:
        return self.phi

    @staticmethod
    def from_arrays(z, phi) -> "FrequencyDataset":
        return FrequencyDataset(z, phi)


@dataclass(frozen=True)
class PointPartition:
    """Equal-size split of a dataset into left and right point sets.

    Each side is itself conjugate-closed, with conjugate partners stored
    adjacently; the realness transform of the Loewner build relies on that
    layout.  The four arrays are complex copies of the inputs and
    read-only, so a pencil built from the partition cannot change under
    its caller.  Construction checks only the sizes; the Loewner build owns
    the other two rules.  A left point that coincides with a right one
    raises its :class:`CoincidentPointError`, and a side whose conjugates
    are not adjacent pairs its ``LoewnerLabError``.  Partitions from
    :func:`partition_points` meet both rules by construction.
    """

    left_points: np.ndarray
    left_values: np.ndarray
    right_points: np.ndarray
    right_values: np.ndarray

    def __post_init__(self) -> None:
        for name in ("left_points", "left_values", "right_points", "right_values"):
            a = np.array(getattr(self, name), dtype=complex)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if self.left_points.shape != self.right_points.shape:
            raise PartitionSizeError(
                f"left/right sizes differ: {self.left_points.size} vs "
                f"{self.right_points.size}"
            )
        if self.left_points.size != self.left_values.size:
            raise ValueError("left point/value length mismatch")
        if self.right_points.size != self.right_values.size:
            raise ValueError("right point/value length mismatch")

    @property
    def size(self) -> int:
        return int(self.left_points.size)


def _parse_float(token: str, where: str, col: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise DataFormatError(
            f"{where}: field '{col}' is not a number: {token!r}"
        ) from None


def _axis_dataset(rows) -> FrequencyDataset:
    """Dataset of (omega, re, im) rows placed at z = i*omega."""
    omega, re, im = np.array(rows, dtype=float).reshape(-1, 3).T
    phi = re.astype(complex)
    phi.imag = im
    return FrequencyDataset(1j * omega, phi)


def _axis_rows(dataset: FrequencyDataset) -> list[tuple]:
    """(omega, re, im) of every sample as Python floats; on-axis data only."""
    off = np.flatnonzero(dataset.z.real != 0.0)
    if off.size:
        k = int(off[0])
        raise DataFormatError(
            f"sample {k}: point {complex(dataset.z[k])} is off the imaginary "
            "axis, cannot be stored in the CSV schema"
        )
    return [(w, p.real, p.imag)
            for w, p in zip(dataset.z.imag.tolist(), dataset.phi.tolist())]


def load_csv(path) -> FrequencyDataset:
    """Read a dataset from ``omega_rad_s,re,im`` CSV.

    Points are placed on the imaginary axis (z = i*omega), so the returned
    dataset is not conjugate-closed unless the file lists both omega and
    -omega; run :func:`close_conjugate` before partitioning.  The file is
    UTF-8 text, with or without a byte-order mark.  Every error about the
    file's contents starts with ``path``.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError(f"{path}: empty file, expected header") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise DataFormatError(
            f"{path}: bad header {header!r}, expected {','.join(CSV_HEADER)}"
        )
    rows: list[list[float]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        where = f"{path}: line {line_no}"
        if len(row) != 3:
            raise DataFormatError(f"{where}: expected 3 fields, got {len(row)}")
        rows.append([_parse_float(tok, where, col) for tok, col in zip(row, CSV_HEADER)])
    try:
        return _axis_dataset(rows)
    except (DuplicatePointError, ValueError) as exc:  # a repeated or non-finite sample
        raise type(exc)(f"{path}: {exc}") from None


def save_csv(dataset: FrequencyDataset, path) -> None:
    """Write a dataset as ``omega_rad_s,re,im`` rows with 17 significant digits.

    Only imaginary-axis data can be stored on disk; points with a nonzero
    real part are rejected.
    """
    rows = _axis_rows(dataset)
    body = "".join(f"{w:.17g},{re:.17g},{im:.17g}\n" for w, re, im in rows)
    Path(path).write_text(",".join(CSV_HEADER) + "\n" + body)


def _conjugate_index(z: np.ndarray) -> np.ndarray:
    """Index in ``z`` of each point's conjugate partner, -1 where there is none.

    Real-axis points have no partner.  The conjugates are looked up in a
    sorted copy of the (duplicate-free) points.
    """
    order = np.argsort(z)
    ranked = z[order]
    zc = np.conj(z)
    pos = np.minimum(np.searchsorted(ranked, zc), z.size - 1)
    found = (z.imag != 0.0) & (ranked[pos] == zc)
    return np.where(found, order[pos], -1)


def _partner_clash(phi: np.ndarray, partner: np.ndarray) -> np.ndarray:
    """Mask of points whose partner is present with a non-conjugate response.

    The partner's response must equal the conjugate of the point's own to
    1e-12 relative; this is the one closure rule, shared by
    :func:`close_conjugate`, which enforces it, and :func:`partition_points`,
    which checks it.
    """
    tol = 1e-12 * np.maximum(np.abs(phi), 1e-300)
    return (partner >= 0) & (np.abs(phi[partner] - np.conj(phi)) > tol)


def close_conjugate(dataset: FrequencyDataset) -> FrequencyDataset:
    """Add the conjugate partner of every non-real-axis point.

    Inserted partners land immediately after their originals, so conjugate
    pairs end up adjacent.  Idempotent.  If a partner is already present
    its response must equal the conjugated response to 1e-12 relative,
    otherwise a :class:`ConjugateConflictError` is raised.
    """
    z, phi = dataset.z, dataset.phi
    partner = _conjugate_index(z)
    clash = _partner_clash(phi, partner)
    if clash.any():
        k = int(np.argmax(clash))
        raise ConjugateConflictError(
            f"point {complex(z[k]).conjugate()}: response "
            f"{complex(phi[partner[k]])} conflicts with conjugate of response "
            f"at {complex(z[k])}"
        )
    missing = (z.imag != 0.0) & (partner < 0)
    take = np.repeat(np.arange(z.size), 1 + missing)
    mirrored = np.zeros(take.size, dtype=bool)
    mirrored[1:] = take[1:] == take[:-1]
    return FrequencyDataset(
        np.where(mirrored, np.conj(z[take]), z[take]),
        np.where(mirrored, np.conj(phi[take]), phi[take]),
    )


def partition_points(dataset: FrequencyDataset) -> PointPartition:
    """Split a conjugate-closed dataset into left and right interpolation sets.

    The dataset must satisfy the closure rule of :func:`close_conjugate`
    (see ``_partner_clash``), whether or not it was passed through it;
    otherwise :class:`PartitionSizeError` is raised.  The two sides share
    no point, since a dataset holds none twice.

    Conjugate units (a point plus its partner, or a lone real-axis point)
    are assigned alternately: unit 1 to the left set, unit 2 to the right
    set, and so on.  Alternation interleaves the frequency coverage of the
    two sides, which conditions the Loewner pencil noticeably better than
    a contiguous split.  A unit starts at its first point in dataset
    order, and each side lists its units in that order.
    """
    z, phi = dataset.z, dataset.phi
    partner = _conjugate_index(z)
    lone = (z.imag != 0.0) & (partner < 0)
    if lone.any():
        raise PartitionSizeError(
            f"point {complex(z[np.argmax(lone)])} has no available conjugate "
            "partner; dataset is not conjugate-closed"
        )
    clash = _partner_clash(phi, partner)
    if clash.any():
        raise PartitionSizeError(
            f"response at {complex(z[np.argmax(clash)])} is not the conjugate "
            "of its partner's; dataset is not conjugate-closed"
        )
    starts = np.flatnonzero((partner < 0) | (partner > np.arange(z.size)))
    if starts.size % 2 != 0:
        raise PartitionSizeError(
            f"cannot split an odd number of conjugate units ({starts.size})"
        )
    # One row per unit: its first point and its partner (-1 for a real point).
    units = np.column_stack([starts, partner[starts]])
    left_idx, right_idx = units[0::2].ravel(), units[1::2].ravel()
    left_idx, right_idx = left_idx[left_idx >= 0], right_idx[right_idx >= 0]
    if left_idx.size != right_idx.size:
        raise PartitionSizeError(
            f"alternating split is unbalanced: {left_idx.size} left vs "
            f"{right_idx.size} right points (mixed real/complex units)"
        )
    return PointPartition(
        left_points=z[left_idx],
        left_values=phi[left_idx],
        right_points=z[right_idx],
        right_values=phi[right_idx],
    )
