"""Reverse-mode automatic differentiation on numpy arrays.

This module provides :class:`Tensor`, the fundamental value type of the
``repro.nn`` substrate.  A :class:`Tensor` wraps a ``numpy.ndarray`` and
records, for every differentiable operation, a backward closure on a tape.
Calling :meth:`Tensor.backward` walks the tape in reverse topological order
and accumulates gradients into ``.grad``.

The engine is intentionally small but complete enough to train convolutional
classifiers: broadcasting-aware arithmetic, matmul, reductions, shape
manipulation, indexing, and the nonlinearities used by the model zoo.
Convolution and pooling live in :mod:`repro.nn.functional` but plug into the
same tape mechanism.

Example
-------
>>> import numpy as np
>>> from repro.nn.tensor import Tensor
>>> x = Tensor(np.ones((2, 3)), requires_grad=True)
>>> y = (x * 2.0 + 1.0).sum()
>>> y.backward()
>>> x.grad
array([[2., 2., 2.],
       [2., 2., 2.]], dtype=float32)
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

Scalar = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]

class _GradMode(threading.local):
    """Per-thread grad mode, as in torch: a serving thread's ``no_grad``
    must not switch off tape recording in a thread that is training."""

    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables gradient recording in this thread.

    Mirrors ``torch.no_grad``: inside the block, operations on tensors do not
    build the autograd tape, which saves memory and time during inference.
    """

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations in this thread currently record gradients."""
    return _GRAD_MODE.enabled


def _as_array(value: TensorLike, dtype=np.float32) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype)
    return arr


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum dims that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like initial value; converted to ``float32`` unless it is
        already a floating numpy array.
    requires_grad:
        When True, gradients flowing to this tensor are accumulated into
        ``.grad`` during :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward_fn", "_parents", "name")

    def __init__(
        self,
        data: TensorLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[np.ndarray], None]] = None,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        if isinstance(data, np.floating):
            # 0-d array ops return numpy scalars; keep their precision.
            data = np.asarray(data)
        elif not isinstance(data, np.ndarray):
            data = np.asarray(data, dtype=np.float32)
        elif data.dtype not in (np.float32, np.float64):
            data = data.astype(np.float32)
        self.data: np.ndarray = data
        self.grad: Optional[np.ndarray] = None
        self.requires_grad: bool = requires_grad and _GRAD_MODE.enabled
        self._backward_fn = _backward_fn
        self._parents = _parents
        self.name = name

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Return a detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # order="C", not the astype default "K": incoming grads may be
            # transpose views (e.g. the engine conv backward's channels-last
            # col2im slab), and "K" would preserve that strided layout,
            # making every later read of .grad strided too.
            self.grad = grad.astype(self.data.dtype, order="C", copy=True)
        else:
            self.grad += grad

    def zero_grad(self, set_to_none: bool = True) -> None:
        """Clear the accumulated gradient.

        ``set_to_none=False`` zeroes the existing ``.grad`` buffer in place
        instead of dropping it, so the next backward accumulates into the
        same (hot) memory rather than paying a fresh page-faulting
        allocation — the repeated-backward loops (per-round filter scoring,
        SAM's two backwards per step) use this.
        """
        if set_to_none or self.grad is None:
            self.grad = None
        else:
            self.grad.fill(0.0)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to ones for scalar outputs; required
            for non-scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar output; "
                    f"got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} != tensor shape {self.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create an op-result tensor, recording the tape edge when enabled."""
        parents = tuple(parents)
        needs_grad = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        if not needs_grad:
            return Tensor(data)
        return Tensor(data, requires_grad=True, _parents=parents, _backward_fn=backward_fn)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other: TensorLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: TensorLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self + (-other)

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return Tensor(_as_array(other)) + (-self)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        return self * other.pow(-1.0)

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return Tensor(_as_array(other)) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        """Elementwise power with a constant exponent."""
        out_data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(out_data, (self,), backward)

    __pow__ = pow

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self.pow(0.5)

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * np.sign(self.data))

        return Tensor._make(out_data, (self,), backward)

    def clamp(self, min_value: Optional[float] = None, max_value: Optional[float] = None) -> "Tensor":
        """Clip values to ``[min_value, max_value]``; gradient is a pass-through mask."""
        out_data = np.clip(self.data, min_value, max_value)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                mask = np.ones_like(self.data)
                if min_value is not None:
                    mask = mask * (self.data >= min_value)
                if max_value is not None:
                    mask = mask * (self.data <= max_value)
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(_as_array(other))
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad @ np.swapaxes(other.data, -1, -2), self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(np.swapaxes(self.data, -1, -2) @ grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.shape).astype(self.data.dtype))

        return Tensor._make(np.asarray(out_data), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Population variance (ddof=0), differentiable."""
        mu = self.mean(axis=axis, keepdims=True)
        sq = (self - mu).pow(2.0)
        return sq.mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                expanded = np.expand_dims(out_data, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split gradient evenly across ties to keep the op well-defined.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g / counts)

        return Tensor._make(np.asarray(out_data), (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original_shape))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._make(out_data, (self,), backward)

    def flatten(self, start_dim: int = 0) -> "Tensor":
        """Flatten dimensions from ``start_dim`` onwards."""
        new_shape = self.shape[:start_dim] + (-1,)
        return self.reshape(*new_shape)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

        return Tensor._make(np.ascontiguousarray(out_data), (self,), backward)

    @staticmethod
    def concatenate(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient routing."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(slicer)])

        return Tensor._make(out_data, tensors, backward)

    # ------------------------------------------------------------------
    # Nonlinearities (kept here because they are single-input elementwise)
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        # The backward mask is derived lazily from ``self.data`` so no-grad
        # inference pays for exactly one allocation (the output).
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0.0))

        return Tensor._make(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        out_data = np.where(self.data > 0.0, self.data, self.data * negative_slope)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                scale = np.where(self.data > 0.0, 1.0, negative_slope).astype(self.data.dtype)
                self._accumulate(grad * scale)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Two-branch form avoids exp overflow for large-magnitude inputs.
        x = self.data
        out_data = np.where(
            x >= 0,
            1.0 / (1.0 + np.exp(-np.abs(x))),
            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))),
        ).astype(x.dtype)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (self,), backward)

    def hard_sigmoid(self) -> "Tensor":
        """ReLU6(x + 3) / 6 — MobileNetV3's h-sigmoid."""
        out_data = np.clip(self.data + 3.0, 0.0, 6.0) / 6.0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                mask = ((self.data > -3.0) & (self.data < 3.0)).astype(self.data.dtype) / 6.0
                self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def hard_swish(self) -> "Tensor":
        """x * h-sigmoid(x) — MobileNetV3's h-swish."""
        hsig = np.clip(self.data + 3.0, 0.0, 6.0) / 6.0
        out_data = self.data * hsig

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inner = ((self.data > -3.0) & (self.data < 3.0)).astype(self.data.dtype) / 6.0
                local = hsig + self.data * inner
                self._accumulate(grad * local)

        return Tensor._make(out_data, (self,), backward)

    def silu(self) -> "Tensor":
        """x * sigmoid(x) — the swish used by EfficientNet."""
        sig = 1.0 / (1.0 + np.exp(-self.data))
        out_data = self.data * sig

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                local = sig * (1.0 + self.data * (1.0 - sig))
                self._accumulate(grad * local)

        return Tensor._make(out_data, (self,), backward)

    def log_softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out_data = shifted - log_sum

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                softmax = np.exp(out_data)
                self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        return self.log_softmax(axis=axis).exp()

    # ------------------------------------------------------------------
    # Convenience predicates (non-differentiable)
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)
