"""Numpy neural substrate: autograd, layers, optimisers, and the VLM stack."""

from repro.nn.attention import MultiHeadSelfAttention, TransformerBlock, TransformerVLM
from repro.nn.functional import bce_with_logits, mse_loss, softmax
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
from repro.nn.tensor import Tensor, as_tensor, concat, no_grad, stack
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
    "MultiHeadSelfAttention",
    "PatchFeatureEncoder",
    "Tensor",
    "TransformerBlock",
    "TransformerVLM",
    "as_tensor",
    "bce_with_logits",
    "clip_gradients",
    "concat",
    "load_module",
    "load_state_dict",
    "mse_loss",
    "no_grad",
    "save_module",
    "softmax",
    "stack",
    "state_dict",
]
