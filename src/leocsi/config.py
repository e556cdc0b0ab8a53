"""Scenario and geometry configuration for the LEO downlink simulator.

Default values follow the standard LEO MISO evaluation setup: a 4x4 UPA at
5 GHz, 10 single-antenna ground devices, 0.5 ms slots, Rician factor 10 dB.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
import math
import numbers

# Propagation speed used for Doppler and delay conversions.  Kept at the
# round engineering value so the documented 125 kHz satellite-Doppler bound
# (7500 m/s at 5 GHz) holds exactly.
SPEED_OF_LIGHT = 3.0e8

KMH_TO_MPS = 1000.0 / 3600.0


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


_KINDS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def check_fields(cfg) -> None:
    """Check every field of a config dataclass against its annotation.

    ``int`` takes integers and ``float`` real numbers, bools being neither;
    ``str`` and ``bool`` take only themselves; ``tuple[float, float]`` takes
    a tuple of that many; ``X | None`` also takes None.  A float must be
    finite.  Raises ``TypeError`` or ``ValueError`` naming the field.
    """
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        kind = f.type.removesuffix(" | None")
        if value is None and kind != f.type:
            continue
        if kind.startswith("tuple["):
            kinds = kind[len("tuple["):-1].split(", ")
            if not isinstance(value, tuple) or len(value) != len(kinds):
                raise TypeError(f"{f.name} must be {kind}, got {value!r}")
            items = zip(kinds, value)
        else:
            items = ((kind, value),)
        for k, v in items:
            if not _KINDS[k](v):
                raise TypeError(f"{f.name} must be {kind}, got {value!r}")
            if k == "float" and not _finite(v):
                raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform planar array: ``n_x * n_y`` elements with common spacing."""

    n_x: int = 4
    n_y: int = 4
    carrier_hz: float = 5.0e9
    spacing: float | None = None  # defaults to half a wavelength

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ValueError("antenna counts must be >= 1")
        if self.carrier_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.spacing is None:
            object.__setattr__(self, "spacing", self.wavelength / 2.0)
        elif self.spacing <= 0:
            raise ValueError("antenna spacing must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    @property
    def num_antennas(self) -> int:
        return self.n_x * self.n_y


@dataclass(frozen=True)
class ScenarioConfig:
    """Physical parameters of one LEO downlink scenario.

    Angle/Doppler distribution knobs (``los_theta_range`` etc.) are modelling
    choices, not physical constants; they control how per-episode channel
    parameters are drawn.
    """

    carrier_hz: float = 5.0e9
    altitude_m: float = 600e3
    sat_speed_mps: float = 7500.0
    num_paths: int = 6
    rician_db: float = 10.0
    num_devices: int = 10
    slot_interval_s: float = 0.5e-3
    max_delay_spread_s: float = 30e-9
    device_speed_range_mps: tuple[float, float] = (
        10.0 * KMH_TO_MPS,
        100.0 * KMH_TO_MPS,
    )
    noise_power: float = db_to_linear(-10.0)  # -10 dBw
    total_power: float = 1.0  # 0 dBw
    n_x: int = 4
    n_y: int = 4
    # Parameter-draw knobs (radians / fractions).
    los_theta_range: tuple[float, float] = (-math.pi / 3, math.pi / 3)
    los_phi_range: tuple[float, float] = (math.pi / 3, 2 * math.pi / 3)
    nlos_angle_offset: float = math.radians(15.0)
    sat_doppler_cone: float = math.pi / 4
    # When set, the common per-device satellite Doppler term is removed from
    # generated episodes (as if compensated at the gateway), leaving only a
    # residual drawn uniformly in +-sat_doppler_residual_hz.  Off by default.
    compensate_sat_doppler: bool = False
    sat_doppler_residual_hz: float = 0.0

    def __post_init__(self):
        check_fields(self)
        positive = (
            "carrier_hz", "altitude_m", "num_paths", "num_devices",
            "slot_interval_s", "max_delay_spread_s", "noise_power",
            "total_power", "n_x", "n_y",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        non_negative = (
            "sat_speed_mps", "sat_doppler_residual_hz", "nlos_angle_offset", "sat_doppler_cone",
        )
        for name in non_negative:
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        for name in ("device_speed_range_mps", "los_theta_range", "los_phi_range"):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name} must be (low, high) with low <= high")
        try:
            self.rician_linear
        except OverflowError:
            raise ValueError(f"rician_db {self.rician_db} overflows a float") from None

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(n_x=self.n_x, n_y=self.n_y, carrier_hz=self.carrier_hz)

    @property
    def num_antennas(self) -> int:
        return self.n_x * self.n_y

    @property
    def rician_linear(self) -> float:
        return db_to_linear(self.rician_db)

    def replace(self, **kwargs) -> "ScenarioConfig":
        return dataclasses.replace(self, **kwargs)


def desk_scenario(**overrides) -> ScenarioConfig:
    """Small scenario used by the CPU-scale experiments and the test suite.

    The common satellite Doppler is compensated down to a few hundred hertz
    of residual, so slot-to-slot dynamics are dominated by device motion
    plus a common learnable rotation, which keeps short-horizon prediction
    learnable by the toy models while leaving naive extrapolation of the
    newest slot clearly suboptimal.
    """
    cfg = ScenarioConfig(
        num_devices=2,
        n_x=2,
        n_y=2,
        compensate_sat_doppler=True,
        sat_doppler_residual_hz=400.0,
    )
    return cfg.replace(**overrides) if overrides else cfg
