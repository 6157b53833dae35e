"""Neural network layers: Linear, MLP, LSTM, Embedding, LayerNorm.

These mirror the structure of the RoboFlamingo policy head (paper Fig. 3):
an LSTM over the 12-token vision-language window followed by two MLP heads.

Each layer has two forward paths:

* ``forward`` builds the autodiff graph on :class:`Tensor` nodes (training);
* ``infer`` runs the identical numpy operations, in the identical order, on
  raw arrays.  Deployment inference needs no graph, and skipping the
  per-operation ``Tensor`` bookkeeping is a large share of the fleet
  engine's tick budget.  The two paths must stay bitwise equal --
  ``tests/test_nn.py`` asserts ``forward(x).numpy() == infer(x)`` exactly
  for every layer, and the fleet equivalence suite pins it end to end.

``LSTM`` and ``LayerNorm`` record their whole forward as one graph node
whose backward closure is hand-derived (backpropagation through time for
the LSTM), instead of one node per elementary op; per-op bookkeeping was
most of a training step.  Every gradient contribution is the numpy
expression of the per-op closure it replaces, accumulated in the per-op
graph's order, so gradients and trained weights are bitwise unchanged --
``tests/test_training_kernels.py`` pins both layers against the per-op
graph.  ``Linear``, ``MLP`` and ``Embedding`` stay on the per-op graph.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast, sigmoid_values

__all__ = ["Module", "Linear", "MLP", "LSTMCell", "LSTM", "Embedding", "LayerNorm"]


class Module:
    """Base class providing parameter discovery and train/eval bookkeeping."""

    def parameters(self) -> list[Tensor]:
        """All trainable tensors reachable from this module, depth-first."""
        found: list[Tensor] = []
        seen: set[int] = set()

        def collect(obj) -> None:
            if isinstance(obj, Tensor):
                if obj.requires_grad and id(obj) not in seen:
                    seen.add(id(obj))
                    found.append(obj)
            elif isinstance(obj, Module):
                for value in vars(obj).values():
                    collect(value)
            elif isinstance(obj, (list, tuple)):
                for item in obj:
                    collect(item)
            elif isinstance(obj, dict):
                for item in obj.values():
                    collect(item)

        collect(self)
        return found

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def parameter_count(self) -> int:
        """Total number of scalar parameters (for model-size reporting)."""
        return sum(p.data.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_in, fan_out))


class Linear(Module):
    """Affine layer ``y = x W + b`` with Glorot-uniform initialisation."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(_glorot(rng, in_features, out_features), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Raw-array forward; bitwise the Tensor ``forward``.

        Stacked inputs collapse to one 2-D GEMM: BLAS row results match the
        batched-matmul loop bit for bit (pinned by ``tests/test_nn.py``) and
        one large product beats many small ones.
        """
        if x.ndim > 2:
            lead = x.shape[:-1]
            flat = x.reshape(-1, x.shape[-1]) @ self.weight.data
            return flat.reshape(*lead, self.out_features) + self.bias.data
        return x @ self.weight.data + self.bias.data


class MLP(Module):
    """Multi-layer perceptron with tanh hidden activations.

    ``sizes`` lists layer widths including input and output, e.g.
    ``MLP([64, 64, 7], rng)`` builds one hidden layer of width 64.
    """

    def __init__(self, sizes: list[int], rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output width")
        self.layers = [Linear(a, b, rng) for a, b in zip(sizes[:-1], sizes[1:])]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = layer(x).tanh()
        return self.layers[-1](x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Raw-array forward; bitwise the Tensor ``forward``."""
        for layer in self.layers[:-1]:
            x = np.tanh(layer.infer(x))
        return self.layers[-1].infer(x)


class LSTMCell(Module):
    """A single LSTM cell with fused gate weights.

    Gate layout in the fused matrices is ``[input, forget, cell, output]``.
    The forget-gate bias is initialised to one, the standard fix for
    vanishing memory early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Tensor(_glorot(rng, input_size, 4 * hidden_size), requires_grad=True)
        self.weight_hh = Tensor(_glorot(rng, hidden_size, 4 * hidden_size), requires_grad=True)
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def infer(
        self,
        gate_inputs: np.ndarray,
        state: tuple[np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw-array cell update from a precomputed input projection.

        ``gate_inputs`` is this step's ``x @ weight_ih`` (the input half of
        the fused gate pre-activations, hoisted out of the recurrence by
        :meth:`LSTM.infer`); adding the recurrent projection and bias in the
        same order as :meth:`LSTM.forward` keeps every gate bitwise identical.
        """
        h_prev, c_prev = state
        gates = gate_inputs + h_prev @ self.weight_hh.data + self.bias.data
        hs = self.hidden_size
        # One logistic over the fused pre-activations (sigmoid is elementwise,
        # so the i/f/o bands of the fused result equal three per-band calls);
        # the cell-gate band alone takes the tanh.
        squashed = sigmoid_values(gates)
        i_gate = squashed[..., 0:hs]
        f_gate = squashed[..., hs : 2 * hs]
        g_gate = np.tanh(gates[..., 2 * hs : 3 * hs])
        o_gate = squashed[..., 3 * hs : 4 * hs]
        c_next = f_gate * c_prev + i_gate * g_gate
        h_next = o_gate * np.tanh(c_next)
        return h_next, c_next


class LSTM(Module):
    """Unidirectional LSTM unrolled over the token window.

    The policy head runs this over the 12-token vision-language window
    ("LSTM x12 loops" in paper Fig. 3) and reads out the final hidden state.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.cell = LSTMCell(input_size, hidden_size, rng)

    def forward(self, sequence: Tensor) -> Tensor:
        """Final hidden state over a ``(batch, window, input)`` tensor, as
        one graph node.

        The forward steps the recurrence on raw arrays, one window step at a
        time, and keeps each step's activations.  The node's backward is
        backpropagation through time.  Each line computes what one per-op
        closure computed, with one GEMM per step.  Parameter gradients are
        accumulated from the last step to the first, the order in which
        ``Tensor.backward`` visited the per-op graph.  Stacking the steps
        into one GEMM would change bits (see ``docs/performance.md``).
        """
        cell = self.cell
        hs = cell.hidden_size
        weight_ih, weight_hh, bias = cell.weight_ih, cell.weight_hh, cell.bias
        inputs = sequence.data
        shape = inputs.shape[:-2] + (hs,)
        h, c = np.zeros(shape), np.zeros(shape)
        steps = []
        for t in range(inputs.shape[-2]):
            x = inputs[..., t, :]
            gates = x @ weight_ih.data + h @ weight_hh.data + bias.data
            squashed = sigmoid_values(gates)
            i, f, o = squashed[..., 0:hs], squashed[..., hs : 2 * hs], squashed[..., 3 * hs :]
            g = np.tanh(gates[..., 2 * hs : 3 * hs])
            c_next = f * c + i * g
            tanh_c = np.tanh(c_next)
            steps.append((x, h, c, i, f, g, o, tanh_c))
            h, c = o * tanh_c, c_next

        def backward(grad: np.ndarray) -> None:
            d_inputs = np.empty_like(inputs) if sequence.requires_grad else None
            d_gates = np.empty(shape[:-1] + (4 * hs,))
            d_h, d_c_next = grad, None
            for t in reversed(range(len(steps))):
                x, h_prev, c_prev, i, f, g, o, tanh_c = steps[t]
                # h = o * tanh(c), then c = f * c_prev + i * g.
                d_c = d_h * o * (1.0 - tanh_c**2)
                if d_c_next is not None:
                    d_c = d_c + d_c_next
                d_gates[..., 0:hs] = d_c * g * i * (1.0 - i)
                d_gates[..., hs : 2 * hs] = d_c * c_prev * f * (1.0 - f)
                d_gates[..., 2 * hs : 3 * hs] = d_c * i * (1.0 - g**2)
                d_gates[..., 3 * hs :] = d_h * tanh_c * o * (1.0 - o)
                # gates = x @ weight_ih + h_prev @ weight_hh + bias.
                if bias.requires_grad:
                    bias._accumulate(_unbroadcast(d_gates, bias.shape))
                if weight_ih.requires_grad:
                    weight_ih._accumulate(
                        _unbroadcast(np.swapaxes(x, -1, -2) @ d_gates, weight_ih.shape)
                    )
                if d_inputs is not None:
                    d_inputs[..., t, :] = d_gates @ np.swapaxes(weight_ih.data, -1, -2)
                if weight_hh.requires_grad:
                    weight_hh._accumulate(
                        _unbroadcast(np.swapaxes(h_prev, -1, -2) @ d_gates, weight_hh.shape)
                    )
                if t:  # the zero initial state needs no gradient
                    d_h = d_gates @ np.swapaxes(weight_hh.data, -1, -2)
                    d_c_next = d_c * f
            if d_inputs is not None:
                sequence._accumulate(d_inputs)

        return Tensor._result(h, (sequence, weight_ih, weight_hh, bias), backward)

    def infer(self, sequence: np.ndarray) -> np.ndarray:
        """Final hidden state over a ``(batch, window, input)`` raw block.

        The input projections of every window step are one stacked matmul
        (row-for-row bitwise equal to the per-step products); only the
        recurrent half stays inside the loop.  Together with the raw-array
        cell this removes all per-operation graph bookkeeping from
        deployment inference.
        """
        cell = self.cell
        gate_inputs = sequence @ cell.weight_ih.data
        shape = sequence.shape[:-2] + (cell.hidden_size,)
        h, c = np.zeros(shape), np.zeros(shape)
        for t in range(sequence.shape[-2]):
            h, c = cell.infer(gate_inputs[..., t, :], (h, c))
        return h


class Embedding(Module):
    """Lookup table for instruction ids and the mask token (paper Fig. 4)."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        self.table = Tensor(rng.normal(0.0, 0.1, size=(num_embeddings, dim)), requires_grad=True)

    def forward(self, index: int | np.ndarray) -> Tensor:
        return self.table[index]

    def infer(self, index: int | np.ndarray) -> np.ndarray:
        """Raw-array lookup; bitwise the Tensor ``forward``."""
        return self.table.data[index]


class LayerNorm(Module):
    """Layer normalisation over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim), requires_grad=True)
        self.shift = Tensor(np.zeros(dim), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        """Normalise ``x`` as one graph node.

        The backward replays the per-op graph's closures in its order:
        ``centred`` takes the normalisation's contribution, then the
        variance square's two, and ``x`` the centring's, then the mean's.
        """
        data = x.data
        count = float(data.shape[-1])
        centred = data - data.sum(axis=-1, keepdims=True) / count
        shifted = (centred * centred).sum(axis=-1, keepdims=True) / count + self.eps
        scale = shifted**-0.5
        normalised = centred * scale
        gain, shift = self.gain, self.shift

        def backward(grad: np.ndarray) -> None:
            if shift.requires_grad:
                shift._accumulate(_unbroadcast(grad, shift.shape))
            if gain.requires_grad:
                gain._accumulate(_unbroadcast(grad * normalised, gain.shape))
            if not x.requires_grad:
                return
            d_normalised = grad * gain.data
            d_scale = _unbroadcast(d_normalised * centred, scale.shape)
            d_variance = d_scale * -0.5 * shifted ** (-0.5 - 1)
            d_square = (d_variance / count) * centred
            d_centred = d_normalised * scale + d_square + d_square
            d_mean = -_unbroadcast(d_centred, scale.shape)
            x._accumulate(d_centred + d_mean / count)

        out = normalised * gain.data + shift.data
        return Tensor._result(out, (x, gain, shift), backward)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Raw-array forward; bitwise the Tensor ``forward`` (whose ``mean``
        is ``sum / count``, replicated here rather than ``np.mean``)."""
        count = float(x.shape[-1])
        mean = x.sum(axis=-1, keepdims=True) / count
        centred = x - mean
        variance = (centred * centred).sum(axis=-1, keepdims=True) / count
        normalised = centred * (variance + self.eps) ** -0.5
        return normalised * self.gain.data + self.shift.data
