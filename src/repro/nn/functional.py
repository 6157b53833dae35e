"""Loss functions and stateless ops used by the policy heads.

The paper's training objective (Eq. 3 and Eq. 5) combines a mean-squared
error on poses/trajectories with a binary cross-entropy on the gripper
channel, weighted by ``lambda``; both are provided here in autograd form,
along with Corki's masked token-window mix (Fig. 4).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast, as_tensor

__all__ = ["mse_loss", "bce_with_logits", "mix_slots"]


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over all elements."""
    diff = prediction - as_tensor(target)
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Binary cross-entropy on logits, the gripper-channel loss of Eq. 3.

    Uses the numerically stable form
    ``max(z, 0) - z t + log(1 + exp(-|z|))`` expressed through the stable
    sigmoid: ``-t log p - (1 - t) log (1 - p)`` with clamped probabilities.
    """
    target = as_tensor(target)
    probs = logits.sigmoid()
    eps = 1e-7
    probs = probs * (1.0 - 2.0 * eps) + eps  # clamp away from {0, 1}
    loss = -(target * probs.log() + (1.0 - target) * (1.0 - probs).log())
    return loss.mean()


def mix_slots(
    tokens: Tensor,
    features: Tensor,
    mask: Tensor,
    keep: np.ndarray,
    feed: np.ndarray,
    drop: np.ndarray,
) -> Tensor:
    """Corki's per-slot window mix (paper Fig. 4), as one graph node.

    Slot ``(b, t)`` of the result is ``tokens * keep + features * feed +
    mask * drop`` with the ``(batch, window)`` weights taken at ``(b, t)``;
    ``tokens`` and ``features`` are ``(batch, window, dim)`` and ``mask``
    is the ``(dim,)`` learned embedding.  The backward adds the mask's
    per-slot contributions from the last slot to the first, the order in
    which ``Tensor.backward`` visited the per-slot graph, so its gradient
    is bitwise unchanged; summing the slots in one broadcast reduction
    would not be.
    """
    keep, feed, drop = (np.asarray(w, dtype=float)[..., None] for w in (keep, feed, drop))
    data = tokens.data * keep + features.data * feed + mask.data * drop
    # Stored slot-major, so each LSTM step reads one contiguous (batch, dim)
    # block, the layout of a per-slot tensor: a GEMM on a one-column operand
    # takes numpy's vector path, whose bits depend on the stride.
    data = np.swapaxes(np.ascontiguousarray(np.swapaxes(data, -3, -2)), -3, -2)

    def backward(grad: np.ndarray) -> None:
        if tokens.requires_grad:
            tokens._accumulate(grad * keep)
        if features.requires_grad:
            features._accumulate(grad * feed)
        if mask.requires_grad:
            for t in reversed(range(grad.shape[-2])):
                mask._accumulate(_unbroadcast(grad[..., t, :] * drop[..., t, :], mask.shape))

    return Tensor._result(data, (tokens, features, mask), backward)
