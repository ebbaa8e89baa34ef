"""NumPy transformer LM substrate (models, backends, trainer)."""

from repro.model.attention import (
    AccessCounter,
    ExactAttentionBackend,
    TokenPickerBackend,
)
from repro.model.config import (
    FIG8_MODELS,
    HW_EVAL_CONTEXT,
    MODEL_ZOO,
    ModelConfig,
    get_model_config,
    tiny_config,
)
from repro.model.trainer import TrainConfig, TrainResult, sample_batch, train
from repro.model.transformer import KVCache, TinyGPT

__all__ = [
    "AccessCounter",
    "ExactAttentionBackend",
    "FIG8_MODELS",
    "HW_EVAL_CONTEXT",
    "KVCache",
    "MODEL_ZOO",
    "ModelConfig",
    "TinyGPT",
    "TokenPickerBackend",
    "TrainConfig",
    "TrainResult",
    "get_model_config",
    "sample_batch",
    "tiny_config",
    "train",
]
