"""Numpy neural substrate: autograd, layers, optimisers, and the VLM stack."""

from repro.nn.functional import bce_with_logits, mse_loss
from repro.nn.layers import (
    LSTM,
    MLP,
    Embedding,
    LayerNorm,
    Linear,
    LSTMCell,
    Module,
)
from repro.nn.optim import Adam, clip_gradients
from repro.nn.serialization import load_module, load_state_dict, save_module, state_dict
from repro.nn.tensor import Tensor, as_tensor, no_grad
from repro.nn.vit import PatchFeatureEncoder
from repro.nn.vlm import CompactVLM

__all__ = [
    "Adam",
    "CompactVLM",
    "Embedding",
    "LSTM",
    "LSTMCell",
    "LayerNorm",
    "Linear",
    "MLP",
    "Module",
    "PatchFeatureEncoder",
    "Tensor",
    "as_tensor",
    "bce_with_logits",
    "clip_gradients",
    "load_module",
    "load_state_dict",
    "mse_loss",
    "no_grad",
    "save_module",
    "state_dict",
]
