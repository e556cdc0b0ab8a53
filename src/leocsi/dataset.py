"""Dataset construction and on-disk format for (past CSI, future CSI) pairs.

Training samples carry estimation noise on both the history and the label
slots (one SNR draw per sample); test samples carry noise only on the
history, leaving the future slots clean for evaluation.

On disk a dataset is a directory with ``meta.json`` plus ``data.bin`` of
little-endian float32 values laid out as [sample][slot][re/im][K][N], past
slots first.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from .channel import CsiTensor, generate_episode
from .config import KMH_TO_MPS, ScenarioConfig

SCHEMA_VERSION = 1

TEST_SPEEDS_KMH = tuple(float(v) for v in range(10, 101, 10))
TRAIN_SPEED_RANGE_KMH = (10.0, 100.0)
TRAIN_SNR_RANGE_DB = (5.0, 20.0)
DEFAULT_TEST_SNR_DB = 15.0


class DatasetError(Exception):
    """Base class for dataset persistence failures."""


class CorruptHeaderError(DatasetError):
    pass


class DimensionMismatchError(DatasetError):
    pass


class ShortReadError(DatasetError):
    pass


@dataclass(frozen=True)
class SampleRecord:
    """One contiguous episode split into history and label slots."""

    past: CsiTensor       # [t_p, K, N]
    future: CsiTensor     # [t_f, K, N]
    device_speed_mps: np.ndarray  # [K]
    noise_snr_db: float   # +inf means no noise was applied
    future_noised: bool

    def __post_init__(self):
        if self.past.num_slots < 1 or self.future.num_slots < 1:
            raise ValueError("past and future must both be non-empty")


@dataclass(frozen=True)
class DatasetMeta:
    scenario: ScenarioConfig
    m: int
    t_p: int
    t_f: int
    split: str
    seed: int
    snr_policy: str


def add_estimation_noise(csi: CsiTensor, snr_db: float, rng_seed: int) -> CsiTensor:
    """Add circularly-symmetric complex Gaussian noise at the given SNR.

    Noise power is mean(|csi|^2) / 10^(snr_db/10); ``snr_db=inf`` returns
    the input unchanged.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return csi
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    rng = np.random.default_rng(rng_seed)
    signal_power = np.mean(np.abs(csi.data) ** 2)
    noise_power = signal_power / 10.0 ** (snr_db / 10.0)
    noise = np.sqrt(noise_power / 2.0) * (
        rng.standard_normal(csi.data.shape) + 1j * rng.standard_normal(csi.data.shape)
    )
    return CsiTensor(
        data=csi.data + noise,
        slot_interval_s=csi.slot_interval_s,
        origin_slot=csi.origin_slot,
    )


def _quantize(csi: CsiTensor) -> CsiTensor:
    # Round through the on-disk float32 precision so save/load round trips
    # are bit-exact against the in-memory dataset.
    data = csi.data.real.astype(np.float32).astype(np.float64) + 1j * csi.data.imag.astype(
        np.float32
    ).astype(np.float64)
    return CsiTensor(data, csi.slot_interval_s, origin_slot=csi.origin_slot)


def _sample_seed(seed: int, index: int, salt: int) -> int:
    return int(np.random.SeedSequence([seed, index, salt]).generate_state(1)[0])


def build_dataset(
    config: ScenarioConfig,
    count: int,
    split: str = "train",
    t_p: int = 16,
    t_f: int = 4,
    seed: int = 0,
    test_snr_db: float = DEFAULT_TEST_SNR_DB,
) -> tuple[DatasetMeta, list[SampleRecord]]:
    """Build a training or test dataset of (past, future) CSI pairs.

    Training: per-sample device speed uniform over the scenario's
    ``device_speed_range_mps`` (10..100 km/h by default) and SNR
    uniform in 5..20 dB applied to all t_p+t_f slots.  Test: the 10
    discrete speeds, count/10 samples each, noise only on past slots at
    ``test_snr_db``.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")

    total = t_p + t_f
    records: list[SampleRecord] = []
    for i in range(count):
        rng = np.random.default_rng(_sample_seed(seed, i, 0))
        if split == "train":
            speed = rng.uniform(*config.device_speed_range_mps)
            snr_db = rng.uniform(*TRAIN_SNR_RANGE_DB)
        else:
            speed = TEST_SPEEDS_KMH[i % len(TEST_SPEEDS_KMH)] * KMH_TO_MPS
            snr_db = test_snr_db
        speeds = np.full(config.num_devices, speed)

        episode = generate_episode(config, speeds, total, _sample_seed(seed, i, 1))
        past = CsiTensor(episode.data[:t_p], config.slot_interval_s, origin_slot=0)
        future = CsiTensor(episode.data[t_p:], config.slot_interval_s, origin_slot=t_p)

        noise_seed = _sample_seed(seed, i, 2)
        past = add_estimation_noise(past, snr_db, noise_seed)
        future_noised = split == "train"
        if future_noised:
            future = add_estimation_noise(future, snr_db, noise_seed + 1)
        records.append(
            SampleRecord(
                past=_quantize(past),
                future=_quantize(future),
                device_speed_mps=speeds,
                noise_snr_db=snr_db,
                future_noised=future_noised,
            )
        )

    snr_policy = (
        "uniform[5,20]dB past+future" if split == "train" else f"fixed {test_snr_db} dB past-only"
    )
    meta = DatasetMeta(
        scenario=config, m=count, t_p=t_p, t_f=t_f, split=split, seed=seed,
        snr_policy=snr_policy,
    )
    return meta, records


def _scenario_to_dict(cfg: ScenarioConfig) -> dict:
    return asdict(cfg)


def _scenario_from_dict(d: dict) -> ScenarioConfig:
    d = dict(d)
    for key in ("device_speed_range_mps", "los_theta_range", "los_phi_range"):
        if key in d:
            d[key] = tuple(d[key])
    return ScenarioConfig(**d)


def save_dataset(path: str, meta: DatasetMeta, records: list[SampleRecord]) -> None:
    """Persist a dataset as ``meta.json`` + ``data.bin`` (float32 LE)."""
    os.makedirs(path, exist_ok=True)
    k = meta.scenario.num_devices
    n = meta.scenario.num_antennas
    payload = np.empty(
        (len(records), meta.t_p + meta.t_f, 2, k, n), dtype="<f4"
    )
    for i, rec in enumerate(records):
        full = np.concatenate([rec.past.data, rec.future.data], axis=0)
        payload[i, :, 0] = full.real.astype("<f4")
        payload[i, :, 1] = full.imag.astype("<f4")

    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": _scenario_to_dict(meta.scenario),
        "m": meta.m,
        "t_p": meta.t_p,
        "t_f": meta.t_f,
        "split": meta.split,
        "seed": meta.seed,
        "snr_policy": meta.snr_policy,
        "sample_speeds_mps": [rec.device_speed_mps.tolist() for rec in records],
        "sample_snrs_db": [
            "inf" if np.isinf(rec.noise_snr_db) else rec.noise_snr_db for rec in records
        ],
        "sample_future_noised": [rec.future_noised for rec in records],
    }
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    payload.tofile(os.path.join(path, "data.bin"))


def load_dataset(path: str) -> tuple[DatasetMeta, list[SampleRecord]]:
    """Load a dataset directory; raises a distinct error per failure mode."""
    meta_path = os.path.join(path, "meta.json")
    try:
        with open(meta_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorruptHeaderError(f"cannot parse {meta_path}: {exc}") from exc
    try:
        scenario = _scenario_from_dict(doc["scenario"])
        m, t_p, t_f = doc["m"], doc["t_p"], doc["t_f"]
        split, seed = doc["split"], doc["seed"]
        snr_policy = doc["snr_policy"]
        speeds = doc["sample_speeds_mps"]
        snrs = [float(s) for s in doc["sample_snrs_db"]]
        future_noised = doc["sample_future_noised"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptHeaderError(f"missing/invalid key in meta.json: {exc}") from exc

    k = scenario.num_devices
    n = scenario.num_antennas
    expected = m * (t_p + t_f) * 2 * k * n
    raw = np.fromfile(os.path.join(path, "data.bin"), dtype="<f4")
    if raw.size < expected:
        raise ShortReadError(
            f"data.bin holds {raw.size} values, expected {expected}"
        )
    if raw.size != expected:
        raise DimensionMismatchError(
            f"data.bin holds {raw.size} values, meta implies {expected}"
        )
    if len(speeds) != m or len(snrs) != m or len(future_noised) != m:
        raise DimensionMismatchError("per-sample metadata length != m")

    payload = raw.reshape(m, t_p + t_f, 2, k, n)
    records: list[SampleRecord] = []
    for i in range(m):
        full = payload[i, :, 0].astype(np.float64) + 1j * payload[i, :, 1].astype(np.float64)
        records.append(
            SampleRecord(
                past=CsiTensor(full[:t_p], scenario.slot_interval_s, origin_slot=0),
                future=CsiTensor(full[t_p:], scenario.slot_interval_s, origin_slot=t_p),
                device_speed_mps=np.asarray(speeds[i], dtype=float),
                noise_snr_db=snrs[i],
                future_noised=bool(future_noised[i]),
            )
        )
    meta = DatasetMeta(
        scenario=scenario, m=m, t_p=t_p, t_f=t_f, split=split, seed=seed,
        snr_policy=snr_policy,
    )
    return meta, records
