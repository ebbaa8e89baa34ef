"""NumPy transformer LM substrate (models, backends, trainer)."""

from repro.model.config import tiny_config
from repro.model.trainer import TrainConfig, train
from repro.model.transformer import TinyGPT

__all__ = [
    "TinyGPT",
    "TrainConfig",
    "tiny_config",
    "train",
]
