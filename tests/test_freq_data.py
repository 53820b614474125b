"""Dataset model, CSV round trips, conjugate closure, partitioning."""

import re

import numpy as np
import pytest

from loewner_lab.errors import (
    ConjugateConflictError,
    DataFormatError,
    DuplicatePointError,
    PartitionSizeError,
)
from loewner_lab.freq_data import (
    FrequencyDataset,
    PointPartition,
    close_conjugate,
    load_csv,
    partition_points,
    save_csv,
)


def _pairs_dataset(n_pairs, rng=None):
    rng = rng or np.random.default_rng(7)
    w = np.sort(rng.uniform(0.1, 10.0, n_pairs))
    vals = rng.normal(size=n_pairs) + 1j * rng.normal(size=n_pairs)
    return close_conjugate(FrequencyDataset.from_arrays(1j * w, vals))


def test_sample_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite frequency point"):
        FrequencyDataset.from_arrays([1j, complex(np.inf, 0)], [1.0, 1.0])
    with pytest.raises(ValueError, match="non-finite response value"):
        FrequencyDataset.from_arrays([1j, 2j], [1.0, complex(np.nan, 0)])


def test_dataset_rejects_duplicates():
    with pytest.raises(DuplicatePointError):
        FrequencyDataset.from_arrays([1j, 1j], [1.0, 2.0])


def test_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(3)
    w = np.sort(rng.uniform(1e-3, 1e3, 40))
    vals = rng.normal(size=40) * 10.0 ** rng.integers(-8, 8, 40) + 1j * rng.normal(size=40)
    ds = FrequencyDataset.from_arrays(1j * w, vals)
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    back = load_csv(path)
    with pytest.raises(PartitionSizeError, match="not conjugate-closed"):
        partition_points(back)
    # 17 significant digits round-trip doubles exactly.
    assert np.array_equal(back.points(), ds.points())
    assert np.array_equal(back.values(), ds.values())


def test_csv_schema_read_back(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("omega_rad_s,re,im\n0.0628,1.2,-3.4\n")
    ds = load_csv(path)
    assert len(ds) == 1
    assert ds.points()[0] == 0.0628j
    assert ds.values()[0] == 1.2 - 3.4j


def test_csv_empty_data_section(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("omega_rad_s,re,im\n")
    assert len(load_csv(path)) == 0


def test_csv_empty_file_names_the_path(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("")
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert type(exc.value) is DataFormatError
    assert str(exc.value) == f"{path}: empty file, expected header"


def test_csv_parse_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    named = re.escape(f"{path}: ")
    path.write_text("omega_rad_s,re,im\n1.0,2.0,3.0\n1.5,oops,0\n")
    with pytest.raises(DataFormatError, match=f"^{named}line 3"):
        load_csv(path)
    path.write_text("wrong,header,here\n1,2,3\n")
    with pytest.raises(DataFormatError, match=f"^{named}bad header"):
        load_csv(path)
    path.write_text("omega_rad_s,re,im\n1.0,2.0\n")
    with pytest.raises(DataFormatError, match=f"^{named}line 2"):
        load_csv(path)
    path.write_text("omega_rad_s,re,im\n1.0,nan,0\n")
    with pytest.raises(ValueError, match=f"^{named}non-finite response value"):
        load_csv(path)


def test_csv_that_is_not_utf8_names_the_path(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"omega_rad_s,re,im\n1,2,\xff\n")
    with pytest.raises(DataFormatError) as exc:
        load_csv(path)
    assert type(exc.value) is DataFormatError
    assert str(exc.value).startswith(f"{path}: not UTF-8 text: ")


def test_csv_with_a_byte_order_mark_reads_as_without(tmp_path):
    text = "omega_rad_s,re,im\r\n0.5,1.25,-2.0\r\n2.0,0.5,0.75\r\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(text.encode("utf-8-sig"))
    want, got = load_csv(plain), load_csv(marked)
    assert np.array_equal(got.points(), want.points())
    assert np.array_equal(got.values(), want.values())
    assert np.array_equal(want.values(), [1.25 - 2.0j, 0.5 + 0.75j])


def test_csv_duplicate_frequency(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("omega_rad_s,re,im\n1.0,2.0,3.0\n1.0,2.0,3.0\n")
    with pytest.raises(DuplicatePointError):
        load_csv(path)


def test_save_csv_rejects_off_axis(tmp_path):
    ds = FrequencyDataset.from_arrays([2j, 1.0 + 1j], [1.0, 2.0])
    with pytest.raises(DataFormatError, match="sample 1"):
        save_csv(ds, tmp_path / "offaxis.csv")
    assert not (tmp_path / "offaxis.csv").exists()


def test_close_conjugate_definition():
    ds = FrequencyDataset.from_arrays([1j], [2.0 + 1j])
    closed = close_conjugate(ds)
    # Closed: the partition passes the closure rule and stops at the count
    # of units, one.
    with pytest.raises(PartitionSizeError, match="odd number of conjugate units"):
        partition_points(closed)
    assert len(closed) == 2
    assert closed.points()[0] == 1j
    assert closed.points()[1] == -1j
    assert closed.values()[1] == 2.0 - 1j


def test_close_conjugate_pairs_adjacent():
    ds = FrequencyDataset.from_arrays([1j, 3j, 7j], [1 + 1j, 2 + 2j, 3 + 3j])
    closed = close_conjugate(ds)
    z = closed.points()
    for k in range(0, 6, 2):
        assert z[k + 1] == np.conj(z[k])


def test_close_conjugate_idempotent():
    ds = _pairs_dataset(5)
    again = close_conjugate(ds)
    assert np.array_equal(again.points(), ds.points())
    assert np.array_equal(again.values(), ds.values())


def test_close_conjugate_conflict():
    ds = FrequencyDataset.from_arrays([1j, -1j], [2.0 + 1j, 5.0 + 0j])
    with pytest.raises(ConjugateConflictError):
        close_conjugate(ds)


def test_close_conjugate_keeps_real_axis_points():
    ds = FrequencyDataset.from_arrays([2.0 + 0j], [1.5 + 0j])
    closed = close_conjugate(ds)
    assert len(closed) == 1


def test_partition_disjoint_and_exhaustive():
    ds = _pairs_dataset(8)
    part = partition_points(ds)
    left = set(map(complex, part.left_points))
    right = set(map(complex, part.right_points))
    assert not left & right
    assert left | right == set(map(complex, ds.points()))
    assert part.size == 8


def test_partition_alternates_pairs():
    ds = _pairs_dataset(4)
    part = partition_points(ds)
    z = ds.points()
    # Pairs 1 and 3 go left, pairs 2 and 4 go right.
    assert set(map(complex, part.left_points)) == {
        complex(z[0]), complex(z[1]), complex(z[4]), complex(z[5])
    }
    assert set(map(complex, part.right_points)) == {
        complex(z[2]), complex(z[3]), complex(z[6]), complex(z[7])
    }


def test_partition_sides_conjugate_closed():
    ds = _pairs_dataset(6)
    part = partition_points(ds)
    for side in (part.left_points, part.right_points):
        assert set(map(complex, side)) == set(map(complex, np.conj(side)))


def test_partition_values_follow_points():
    ds = _pairs_dataset(4)
    part = partition_points(ds)
    lookup = dict(zip(ds.points().tolist(), ds.values().tolist()))
    for pt, val in zip(part.left_points, part.left_values):
        assert lookup[complex(pt)] == val
    for pt, val in zip(part.right_points, part.right_values):
        assert lookup[complex(pt)] == val


def _reference_close_and_split(z, phi):
    """Point-by-point closure and alternating split: the order contract."""
    present = set(z)
    out = []
    for a, b in zip(z, phi):
        out.append((a, b))
        if a.imag != 0.0 and a.conjugate() not in present:
            out.append((a.conjugate(), b.conjugate()))
    index = {a: k for k, (a, _) in enumerate(out)}
    used, units = set(), []
    for k, (a, _) in enumerate(out):
        if k not in used:
            unit = [k] if a.imag == 0.0 else [k, index[a.conjugate()]]
            used.update(unit)
            units.append(unit)
    left = [out[k] for unit in units[0::2] for k in unit]
    right = [out[k] for unit in units[1::2] for k in unit]
    return out, left, right


def test_closure_and_partition_keep_reference_order():
    # Partners present but scattered, partners missing, off-axis points and
    # real points; the reals open and close the list so the split balances.
    rng = np.random.default_rng(11)
    paired = rng.uniform(-1, 1, 6) + 1j * rng.uniform(0.1, 9, 6)
    single = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-9, -0.1, 4)
    middle = np.concatenate([paired, np.conj(paired), single])
    z = np.concatenate([[0.5], rng.permutation(middle), [-2.0]])
    phi = rng.normal(size=z.size) + 1j * rng.normal(size=z.size)
    for k, pt in enumerate(z):
        # Responses at present partners must be conjugate-consistent.
        partner = np.flatnonzero(z == np.conj(pt))
        if pt.imag != 0.0 and partner.size and partner[0] < k:
            phi[k] = np.conj(phi[partner[0]])
    closed = close_conjugate(FrequencyDataset.from_arrays(z, phi))
    part = partition_points(closed)
    out, left, right = _reference_close_and_split(z.tolist(), phi.tolist())
    assert closed.points().tolist() == [a for a, _ in out]
    assert closed.values().tolist() == [b for _, b in out]
    assert part.left_points.tolist() == [a for a, _ in left]
    assert part.left_values.tolist() == [b for _, b in left]
    assert part.right_points.tolist() == [a for a, _ in right]
    assert part.right_values.tolist() == [b for _, b in right]


def test_partition_odd_pair_count():
    ds = _pairs_dataset(3)
    with pytest.raises(PartitionSizeError):
        partition_points(ds)


def test_partition_rejects_an_unbalanced_split():
    # A lone real point and one conjugate pair are two units, an even
    # count, yet the alternating split puts one point left and two right.
    ds = FrequencyDataset.from_arrays([0.5, 1j, -1j], [2.0, 1.0 + 1.0j, 1.0 - 1.0j])
    with pytest.raises(PartitionSizeError) as exc:
        partition_points(ds)
    assert str(exc.value) == (
        "alternating split is unbalanced: 1 left vs 2 right points "
        "(mixed real/complex units)"
    )


@pytest.mark.parametrize("sizes, err, message", [
    ((2, 2, 1, 1), PartitionSizeError, "left/right sizes differ: 2 vs 1"),
    ((2, 1, 2, 2), ValueError, "left point/value length mismatch"),
    ((2, 2, 2, 1), ValueError, "right point/value length mismatch"),
], ids=["sides", "left", "right"])
def test_point_partition_checks_its_sizes(sizes, err, message):
    arrays = [np.array([1j, -1j][:n]) for n in sizes]
    with pytest.raises(err) as exc:
        PointPartition(*arrays)
    assert type(exc.value) is err
    assert str(exc.value) == message


def test_partition_requires_closure():
    ds = FrequencyDataset.from_arrays([1j, 2j], [1.0, 2.0])
    with pytest.raises(PartitionSizeError):
        partition_points(ds)


def test_closed_data_needs_no_closure_pass():
    # Both i*omega and -i*omega listed, with conjugate responses, and never
    # passed through close_conjugate: closed as given.
    w = np.array([0.5, 1.5, 4.0, 9.0])
    vals = np.array([1 + 2j, -0.5 + 1j, 3 - 1j, 0.25j])
    ds = FrequencyDataset.from_arrays(
        np.concatenate([1j * w, -1j * w[::-1]]),
        np.concatenate([vals, np.conj(vals[::-1])]),
    )
    got, ref = partition_points(ds), partition_points(close_conjugate(ds))
    assert got.size == w.size
    for name in ("left_points", "left_values", "right_points", "right_values"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), name


def test_partner_with_other_response_is_not_closed():
    ds = FrequencyDataset.from_arrays([1j, -1j], [2.0 + 1j, 2.0 + 1j])
    with pytest.raises(PartitionSizeError, match="not the conjugate"):
        partition_points(ds)
