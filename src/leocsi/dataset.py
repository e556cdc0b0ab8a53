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
from dataclasses import asdict, dataclass, replace

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


@dataclass(frozen=True)
class Dataset:
    """One split as whole arrays: ``csi`` is the ``data.bin`` layout rounded
    through float32, ``past``/``future`` are views of it, and the per-sample
    arrays mirror ``meta.json``.  ``data[i]`` (and iteration) gives
    ``SampleRecord`` views; a slice, mask or index array gives a ``Dataset``.
    """

    csi: np.ndarray            # [M, t_p + t_f, K, N] complex
    t_p: int
    speeds_mps: np.ndarray     # [M, K]
    snr_db: np.ndarray         # [M], +inf means no noise was applied
    future_noised: np.ndarray  # [M] bool

    @property
    def t_f(self) -> int:
        return self.csi.shape[1] - self.t_p

    @property
    def past(self) -> np.ndarray:
        return self.csi[:, : self.t_p]

    @property
    def future(self) -> np.ndarray:
        return self.csi[:, self.t_p :]

    def __len__(self) -> int:
        return self.csi.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return SampleRecord(
                past=CsiTensor(self.csi[index, : self.t_p]),
                future=CsiTensor(self.csi[index, self.t_p :], origin_slot=self.t_p),
                device_speed_mps=self.speeds_mps[index],
            )
        return replace(
            self, csi=self.csi[index], speeds_mps=self.speeds_mps[index],
            snr_db=self.snr_db[index], future_noised=self.future_noised[index],
        )


@dataclass(frozen=True)
class DatasetMeta:
    """How a split was made; its sizes are those of its ``Dataset``."""

    scenario: ScenarioConfig
    split: str
    seed: int
    snr_policy: str


def add_estimation_noise(csi: np.ndarray, snr_db: float, rng_seed: int) -> np.ndarray:
    """``csi`` plus circularly-symmetric complex Gaussian noise at the given SNR.

    Noise power is mean(|csi|^2) / 10^(snr_db/10); ``snr_db=inf`` returns
    the input unchanged.
    """
    if np.isinf(snr_db) and snr_db > 0:
        return csi
    if not np.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    rng = np.random.default_rng(rng_seed)
    signal_power = np.mean(np.abs(csi) ** 2)
    noise_power = signal_power / 10.0 ** (snr_db / 10.0)
    noise = np.sqrt(noise_power / 2.0) * (
        rng.standard_normal(csi.shape) + 1j * rng.standard_normal(csi.shape)
    )
    return csi + noise


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
) -> tuple[DatasetMeta, Dataset]:
    """Build a training or test dataset of (past, future) CSI pairs.

    Training: per-sample device speed uniform over the scenario's
    ``device_speed_range_mps`` (10..100 km/h by default) and SNR
    uniform in 5..20 dB applied to all t_p+t_f slots.  Test: the 10
    discrete speeds, count/10 samples each, noise only on past slots at
    ``test_snr_db``.  Sample i depends only on (seed, i).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if split not in ("train", "test"):
        raise ValueError("split must be 'train' or 'test'")

    k = config.num_devices
    future_noised = split == "train"
    csi = np.empty((count, t_p + t_f, k, config.num_antennas), dtype=complex)
    speeds = np.empty((count, k))
    snrs = np.empty(count)
    for i in range(count):
        rng = np.random.default_rng(_sample_seed(seed, i, 0))
        if split == "train":
            speed = rng.uniform(*config.device_speed_range_mps)
            snr_db = rng.uniform(*TRAIN_SNR_RANGE_DB)
        else:
            speed = TEST_SPEEDS_KMH[i % len(TEST_SPEEDS_KMH)] * KMH_TO_MPS
            snr_db = test_snr_db
        speeds[i], snrs[i] = speed, snr_db

        episode = generate_episode(config, speeds[i], t_p + t_f, _sample_seed(seed, i, 1)).data
        noise_seed = _sample_seed(seed, i, 2)
        past = add_estimation_noise(episode[:t_p], snr_db, noise_seed)
        future = episode[t_p:]
        if future_noised:
            future = add_estimation_noise(future, snr_db, noise_seed + 1)
        sample = csi[i]
        sample[:t_p], sample[t_p:] = past, future
        # Round through the on-disk float32 precision so save/load round
        # trips are bit-exact against the in-memory dataset.
        for plane in (sample.real, sample.imag):
            plane[...] = plane.astype(np.float32)

    snr_policy = (
        "uniform[5,20]dB past+future" if split == "train" else f"fixed {test_snr_db} dB past-only"
    )
    meta = DatasetMeta(scenario=config, split=split, seed=seed, snr_policy=snr_policy)
    return meta, Dataset(csi, t_p, speeds, snrs, np.full(count, future_noised))


def _scenario_from_dict(d: dict) -> ScenarioConfig:
    d = dict(d)
    for key in ("device_speed_range_mps", "los_theta_range", "los_phi_range"):
        if key in d:
            d[key] = tuple(d[key])
    return ScenarioConfig(**d)


def save_dataset(path: str, meta: DatasetMeta, data: Dataset) -> None:
    """Persist a dataset as ``meta.json`` + ``data.bin`` (float32 LE)."""
    os.makedirs(path, exist_ok=True)
    m, total, k, n = data.csi.shape
    payload = np.empty((m, total, 2, k, n), dtype="<f4")
    payload[:, :, 0] = data.csi.real
    payload[:, :, 1] = data.csi.imag

    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": asdict(meta.scenario),
        "m": m,
        "t_p": data.t_p,
        "t_f": data.t_f,
        "split": meta.split,
        "seed": meta.seed,
        "snr_policy": meta.snr_policy,
        "sample_speeds_mps": data.speeds_mps.tolist(),
        "sample_snrs_db": ["inf" if np.isinf(s) else s for s in data.snr_db.tolist()],
        "sample_future_noised": data.future_noised.tolist(),
    }
    with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    payload.tofile(os.path.join(path, "data.bin"))


def load_dataset(path: str) -> tuple[DatasetMeta, Dataset]:
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
        speeds = np.asarray(doc["sample_speeds_mps"], dtype=float)
        snrs = np.asarray([float(s) for s in doc["sample_snrs_db"]])
        future_noised = np.asarray(doc["sample_future_noised"], dtype=bool)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptHeaderError(f"missing/invalid key in meta.json: {exc}") from exc
    for key, value in (("m", m), ("t_p", t_p), ("t_f", t_f)):
        # bool is an int subclass, but JSON true is no count.
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise CorruptHeaderError(f"meta.json {key} must be an integer >= 1, got {value!r}")

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
    if (speeds.shape, snrs.shape, future_noised.shape) != ((m, k), (m,), (m,)):
        raise DimensionMismatchError("per-sample metadata does not fit (m, K)")
    if not np.all(np.isfinite(raw)):
        raise DatasetError("data.bin holds NaN/Inf")

    payload = raw.reshape(m, t_p + t_f, 2, k, n)
    csi = np.empty((m, t_p + t_f, k, n), dtype=complex)
    csi.real[...] = payload[:, :, 0]
    csi.imag[...] = payload[:, :, 1]
    meta = DatasetMeta(scenario=scenario, split=split, seed=seed, snr_policy=snr_policy)
    return meta, Dataset(csi, t_p, speeds, snrs, future_noised)
