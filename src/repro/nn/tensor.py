"""A compact reverse-mode automatic differentiation engine on numpy arrays.

PyTorch is not available in the reproduction environment, so the policy
networks (the RoboFlamingo-style LSTM policy head and the Corki trajectory
head) are trained with this engine.  It implements exactly the operator set
those models need -- dense algebra, the LSTM gate nonlinearities, reductions,
concatenation and slicing -- with full broadcasting support.

Design notes:

* A :class:`Tensor` stores its value, an optional gradient accumulator and a
  backward closure capturing its parents.  :meth:`Tensor.backward` runs a
  topological sweep, so graphs may share subexpressions freely.
* Gradients through broadcast operations are reduced back to the parent's
  shape by :func:`_unbroadcast`, the standard trick.
* The engine is eager and single-threaded; everything is float64 to make
  finite-difference gradient checks tight.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, Union

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "stack",
    "concat",
    "no_grad",
    "is_grad_enabled",
    "sigmoid_values",
]

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


class no_grad:
    """Context manager disabling graph construction (for inference loops)."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def is_grad_enabled() -> bool:
    """Whether operations currently record the autodiff graph."""
    return _GRAD_ENABLED


def sigmoid_values(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a raw array.

    The exponent ``-|z|`` is always the non-positive side of ``z`` (negation
    is exact, so this matches a two-sided branch bit for bit) and ``exp``
    never overflows.  The numerator is ``1`` where ``z >= 0`` (``-0.0``
    included: there ``exp_z <= 1``, so the maximum is exactly ``1.0``) and
    ``exp_z`` elsewhere (``z < 0``, and NaN, whose comparison is false and
    whose ``exp_z`` the maximum propagates).  Every element is therefore the
    one IEEE division the historical masked form ``np.where(z >= 0, 1 / d,
    exp_z / d)`` selected, without computing both branches.  Shared by
    :meth:`Tensor.sigmoid` and the raw-array deployment path in
    :mod:`repro.nn.layers`.
    """
    z = np.asarray(z)
    exp_z = np.exp(-np.abs(z))
    return np.maximum(exp_z, z >= 0) / (1.0 + exp_z)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were expanded from size one.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autodiff graph wrapping a numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=float)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """The underlying array (not a copy); do not mutate while training."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._result(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike | "Tensor") -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other: ArrayLike | "Tensor") -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._result(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike | "Tensor") -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / other.data**2, other.shape)
                )

        return Tensor._result(data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike | "Tensor") -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._result(data, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data)
                else:
                    self._accumulate(_unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad) if other.data.ndim == 2 else grad * self.data)
                else:
                    other._accumulate(_unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape))

        return Tensor._result(data, (self, other), backward)

    # -- elementwise nonlinearities ----------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._result(data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._result(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data**2))

        return Tensor._result(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = sigmoid_values(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._result(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._result(self.data * mask, (self,), backward)

    # -- reductions and shape ops --------------------------------------------------

    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._result(data, (self,), backward)

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._result(data, (self,), backward)

    def transpose(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.T)

        return Tensor._result(self.data.T, (self,), backward)

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        """Exchange two axes (a batched transpose), differentiable.

        One graph node regardless of batch size -- the backward pass swaps
        the gradient's axes back -- unlike a per-slice ``stack`` of 2-D
        transposes, whose graph grows with the leading dimension.
        """
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, axis1, axis2))

        return Tensor._result(np.swapaxes(self.data, axis1, axis2), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._result(data, (self,), backward)

    # -- backward pass ---------------------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (i.e. this tensor is a scalar loss).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        # Iterative DFS to avoid recursion limits on long LSTM chains.
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if id(node) in seen or not node.requires_grad:
                continue
            if processed:
                seen.add(id(node))
                order.append(node)
            else:
                stack.append((node, True))
                for parent in node._parents:
                    if id(parent) not in seen and parent.requires_grad:
                        stack.append((parent, False))

        self._accumulate(np.asarray(grad, dtype=float))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(value: ArrayLike | Tensor) -> Tensor:
    """Wrap ``value`` in a constant :class:`Tensor` unless it already is one."""
    return value if isinstance(value, Tensor) else Tensor(value)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, differentiable in every input."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            if tensor.requires_grad:
                tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._result(data, tuple(tensors), backward)


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an existing axis, differentiable in every input."""
    tensors = [as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(int(start), int(stop))
                tensor._accumulate(grad[tuple(index)])

    return Tensor._result(data, tuple(tensors), backward)
