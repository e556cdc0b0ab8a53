"""LEO satellite CSI prediction and predictive beamforming toolkit."""

__version__ = "0.1.0"

from .config import ArrayGeometry, ScenarioConfig, desk_scenario
from .channel import CsiTensor, DeviceChannelParams, generate_episode
from .models import Model, ModelConfig, desk_model_config

__all__ = [
    "ArrayGeometry",
    "ScenarioConfig",
    "desk_scenario",
    "CsiTensor",
    "DeviceChannelParams",
    "generate_episode",
    "Model",
    "ModelConfig",
    "desk_model_config",
]
