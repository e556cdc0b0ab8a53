"""Dataset construction, noise model, and on-disk round trips."""
import json
import os
import shutil

import numpy as np
import pytest

from leocsi.config import KMH_TO_MPS, desk_scenario
from leocsi.dataset import (
    CorruptHeaderError,
    DatasetError,
    DimensionMismatchError,
    ShortReadError,
    TEST_SPEEDS_KMH,
    add_estimation_noise,
    build_dataset,
    load_dataset,
    save_dataset,
)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    scen = desk_scenario()
    meta, records = build_dataset(scen, 20, "test", 8, 2, seed=5)
    path = str(tmp_path_factory.mktemp("ds") / "d0")
    save_dataset(path, meta, records)
    return meta, records, path


def test_round_trip_bit_exact(built):
    meta, records, path = built
    meta2, records2 = load_dataset(path)
    assert meta2 == meta
    assert (len(records2), records2.t_p, records2.t_f) == (len(records), records.t_p, records.t_f)
    for a, b in zip(records, records2):
        assert np.array_equal(a.past.data, b.past.data)
        assert np.array_equal(a.future.data, b.future.data)
        assert np.array_equal(a.device_speed_mps, b.device_speed_mps)
    assert np.array_equal(records2.snr_db, records.snr_db)
    assert np.array_equal(records2.future_noised, records.future_noised)


def test_build_deterministic():
    scen = desk_scenario()
    _, a = build_dataset(scen, 6, "train", 8, 2, seed=9)
    _, b = build_dataset(scen, 6, "train", 8, 2, seed=9)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.past.data, rb.past.data)
        assert np.array_equal(ra.future.data, rb.future.data)


def test_train_split_policy():
    scen = desk_scenario()
    _, records = build_dataset(scen, 30, "train", 8, 2, seed=1)
    lo, hi = scen.device_speed_range_mps
    for r in records:
        assert lo <= r.device_speed_mps[0] <= hi
    assert np.all((5.0 <= records.snr_db) & (records.snr_db <= 20.0))
    assert np.all(records.future_noised)


def test_test_split_policy():
    scen = desk_scenario()
    _, records = build_dataset(scen, 30, "test", 8, 2, seed=1)
    speeds = [round(r.device_speed_mps[0] / KMH_TO_MPS) for r in records]
    # Balanced coverage of the discrete evaluation speeds.
    for v in TEST_SPEEDS_KMH:
        assert speeds.count(int(v)) == 3
    assert np.all(records.snr_db == 15.0)
    assert not np.any(records.future_noised)


def test_estimation_noise_snr():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((200, 4, 8)) + 1j * rng.standard_normal((200, 4, 8))
    noisy = add_estimation_noise(data, 10.0, rng_seed=1)
    snr = np.mean(np.abs(data) ** 2) / np.mean(np.abs(noisy - data) ** 2)
    assert abs(10 * np.log10(snr) - 10.0) < 0.2


def test_estimation_noise_infinite_snr_is_identity():
    csi = np.ones((2, 2, 2), dtype=complex)
    out = add_estimation_noise(csi, float("inf"), rng_seed=0)
    assert np.array_equal(out, csi)
    with pytest.raises(ValueError):
        add_estimation_noise(csi, float("nan"), rng_seed=0)


def test_corrupt_header_raises(built, tmp_path):
    _, _, path = built
    import shutil

    bad = tmp_path / "bad"
    shutil.copytree(path, bad)
    (bad / "meta.json").write_text("{not json")
    with pytest.raises(CorruptHeaderError):
        load_dataset(str(bad))


def test_short_read_raises(built, tmp_path):
    _, _, path = built
    import shutil

    bad = tmp_path / "short"
    shutil.copytree(path, bad)
    blob = (bad / "data.bin").read_bytes()
    (bad / "data.bin").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ShortReadError):
        load_dataset(str(bad))


def test_dimension_mismatch_raises(built, tmp_path):
    _, _, path = built
    import shutil

    bad = tmp_path / "dims"
    shutil.copytree(path, bad)
    meta = json.loads((bad / "meta.json").read_text())
    meta["t_p"] = meta["t_p"] - 1  # data.bin now holds more than meta implies
    (bad / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(DimensionMismatchError):
        load_dataset(str(bad))


def test_build_validation():
    scen = desk_scenario()
    with pytest.raises(ValueError):
        build_dataset(scen, 0, "train", 8, 2)
    with pytest.raises(ValueError):
        build_dataset(scen, 4, "validation", 8, 2)


def test_data_bin_layout(built):
    # [sample][slot][re/im][K][N] little-endian float32, past slots first.
    _, records, path = built
    raw = np.fromfile(os.path.join(path, "data.bin"), dtype="<f4")
    k, n = records[0].past.num_devices, records[0].past.num_antennas
    per_sample = (records.t_p + records.t_f) * 2 * k * n
    assert raw.size == len(records) * per_sample
    first = raw[:per_sample].reshape(records.t_p + records.t_f, 2, k, n)
    expect = records[0].past.data[0]
    assert np.allclose(first[0, 0], expect.real.astype(np.float32), atol=0)
    assert np.allclose(first[0, 1], expect.imag.astype(np.float32), atol=0)


def test_dataset_views_index_and_mask(built):
    _, data, _ = built
    assert (len(data), data.t_p, data.t_f) == (20, 8, 2)
    assert np.shares_memory(data.past, data.csi) and np.shares_memory(data.future, data.csi)
    rec = data[3]
    assert np.array_equal(rec.past.data, data.csi[3, : data.t_p])
    assert np.array_equal(rec.future.data, data.csi[3, data.t_p :])
    assert (rec.past.origin_slot, rec.future.origin_slot) == (0, data.t_p)
    assert np.array_equal(rec.device_speed_mps, data.speeds_mps[3])
    assert [r.device_speed_mps.tolist() for r in data] == data.speeds_mps.tolist()

    mask = data.speeds_mps[:, 0] > 50 * KMH_TO_MPS
    sub = data[mask]
    assert len(sub) == 10 and sub.t_p == data.t_p
    for got, full in ((sub.csi, data.csi), (sub.speeds_mps, data.speeds_mps),
                      (sub.snr_db, data.snr_db), (sub.future_noised, data.future_noised)):
        assert np.array_equal(got, full[mask])
    first = int(np.flatnonzero(mask)[0])
    assert np.array_equal(sub[0].future.data, data[first].future.data)


# Header counts that are not an int >= 1: (key, value written to meta.json).
BAD_COUNTS = {
    "m as a string": ("m", "20"),
    "m as a float": ("m", 20.0),
    "m zero": ("m", 0),
    "t_p negative": ("t_p", -8),
    "t_f as a bool": ("t_f", True),
}


@pytest.mark.parametrize(
    "case", ["nan in data.bin", "speeds of another K", "ragged speeds", *BAD_COUNTS]
)
def test_bad_split_on_disk_is_a_data_error(built, tmp_path, case):
    _, _, path = built
    bad = tmp_path / "bad"
    shutil.copytree(path, bad)
    meta = json.loads((bad / "meta.json").read_text())
    expected = DatasetError
    if case == "nan in data.bin":
        raw = np.fromfile(bad / "data.bin", dtype="<f4")
        raw[5] = np.nan
        raw.tofile(bad / "data.bin")
    elif case == "speeds of another K":
        meta["sample_speeds_mps"] = [s + s[:1] for s in meta["sample_speeds_mps"]]
    elif case == "ragged speeds":
        meta["sample_speeds_mps"][0] = meta["sample_speeds_mps"][0][:1]
    else:
        key, value = BAD_COUNTS[case]
        meta[key] = value
        expected = CorruptHeaderError
    (bad / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(expected):
        load_dataset(str(bad))
