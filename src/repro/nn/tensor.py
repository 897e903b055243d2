"""Reverse-mode automatic differentiation over numpy arrays.

This module is the foundation of the ``repro.nn`` deep-learning stack. The
paper implements Env2Vec with Keras/TensorFlow; neither is available here,
so we provide a compact tape-based autograd engine that supports everything
the Env2Vec architecture needs: dense layers, GRU recurrences, embedding
lookups with sparse gradients, dropout, concatenation, and the
sum-of-Hadamard-product prediction head.

The design follows the classic define-by-run model: every operation on a
:class:`Tensor` records a backward closure and its parent tensors; calling
:meth:`Tensor.backward` runs a topological sort of the recorded graph and
accumulates gradients into ``Tensor.grad`` for every tensor created with
``requires_grad=True``.

All gradients are validated against central finite differences in
``tests/nn/test_autograd.py``.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from . import ops

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "apply_op"]


class _GradMode(threading.local):
    """Per-thread graph-recording switch.

    Inference servers run predictions from worker threads; a module-level
    boolean would let one thread's ``no_grad`` block silently disable
    gradient recording in a concurrently training thread. Each thread
    starts with recording enabled (the class attribute default) and only
    ever mutates its own view.
    """

    enabled = True


_GRAD_MODE = _GradMode()


class no_grad:
    """Context manager that disables graph recording (inference mode)."""

    def __enter__(self) -> "no_grad":
        self._prev = _GRAD_MODE.enabled
        _GRAD_MODE.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_MODE.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return _GRAD_MODE.enabled


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            return value.astype(np.float64)
        return value
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional autograd tape entry.

    Parameters
    ----------
    data:
        Array-like payload; stored as ``float64`` for numerically robust
        gradient checks.
    requires_grad:
        When true, :meth:`backward` accumulates this tensor's gradient in
        :attr:`grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Build a result tensor wired into the tape if grad is enabled."""
        needs = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data)
        if needs:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            raise ValueError(f"grad shape {grad.shape} does not match tensor shape {self.data.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(order):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            # Leaf accumulation also happens for intermediate tensors the
            # user explicitly marked; keep gradients only at leaves to
            # bound memory.
            if not node._parents:
                node._accumulate(node_grad)
                continue
            _CURRENT_GRADS.append(grads)
            try:
                node._backward(node_grad)
            finally:
                _CURRENT_GRADS.pop()

    def zero_grad(self) -> None:
        self.grad = None

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the autograd graph."""
        return Tensor(self.data)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            _send(self, _unbroadcast(grad, self.shape))
            _send(other, _unbroadcast(grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            _send(self, -grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(grad: np.ndarray) -> None:
            _send(self, _unbroadcast(grad, self.shape))
            _send(other, _unbroadcast(-grad, other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            _send(self, _unbroadcast(grad * other.data, self.shape))
            _send(other, _unbroadcast(grad * self.data, other.shape))

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            _send(self, _unbroadcast(grad / other.data, self.shape))
            _send(other, _unbroadcast(-grad * self.data / (other.data**2), other.shape))

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            _send(self, grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.ndim == 2 and other.ndim == 2:
                _send(self, grad @ other.data.T)
                _send(other, self.data.T @ grad)
            elif self.ndim == 1 and other.ndim == 2:
                _send(self, grad @ other.data.T)
                _send(other, np.outer(self.data, grad))
            elif self.ndim == 2 and other.ndim == 1:
                _send(self, np.outer(grad, other.data))
                _send(other, self.data.T @ grad)
            else:  # pragma: no cover - not used by the library
                raise NotImplementedError("matmul backward for >2-d operands")

        return Tensor._make(data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            _send(self, np.broadcast_to(g, self.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Non-linearities
    # ------------------------------------------------------------------
    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            _send(self, grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            _send(self, grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            _send(self, grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            _send(self, grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            _send(self, grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            _send(self, grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            _send(self, grad.reshape(original))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    def transpose(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            _send(self, grad.T)

        return Tensor._make(self.data.T, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        original_shape = self.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros(original_shape, dtype=np.float64)
            np.add.at(full, index, grad)
            _send(self, full)

        return Tensor._make(self.data[index], (self,), backward)

    # ------------------------------------------------------------------
    # Structural operations used by the Env2Vec architecture
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Sequence["Tensor"], axis: int = -1) -> "Tensor":
        """Concatenate tensors along ``axis``; gradients split back."""
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                slicer: list = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                _send(tensor, grad[tuple(slicer)])

        return Tensor._make(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: Sequence["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad: np.ndarray) -> None:
            pieces = np.split(grad, len(tensors), axis=axis)
            for tensor, piece in zip(tensors, pieces):
                _send(tensor, np.squeeze(piece, axis=axis))

        return Tensor._make(data, tuple(tensors), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style row gather: ``out[i] = self[indices[i]]``.

        The backward pass scatter-adds into the table
        (:func:`repro.nn.ops.embedding_backward`), giving the sparse
        gradient semantics embedding lookup tables rely on. Negative
        indices count from the end, as in numpy indexing.
        """
        indices = np.asarray(indices, dtype=np.int64)
        rows = len(self.data)
        if indices.size and not -rows <= indices.min() <= indices.max() < rows:
            raise IndexError(f"row indices out of range for a table of {rows} rows")
        indices = np.where(indices < 0, indices + rows, indices)
        out, cache = ops.embedding_forward(self.data, indices)
        return apply_op((self,), out, lambda grad: ops.embedding_backward(grad, cache))

    def dropout(self, rate: float, rng: np.random.Generator) -> "Tensor":
        """Inverted dropout: active only while grad recording is enabled."""
        if rate <= 0.0 or not _GRAD_MODE.enabled:
            return self
        if rate >= 1.0:
            raise ValueError("dropout rate must be < 1")
        mask = (rng.random(self.shape) >= rate) / (1.0 - rate)

        def backward(grad: np.ndarray) -> None:
            _send(self, grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)


# A stack of gradient dictionaries used while a backward pass is running.
# ``_send`` routes a parent's gradient either into the active pass (so it is
# consumed when that parent is visited in topological order) or directly into
# ``Tensor.grad`` for leaves.
_CURRENT_GRADS: list[dict[int, np.ndarray]] = []


def _send(tensor: Tensor, grad: np.ndarray) -> None:
    if not tensor.requires_grad:
        return
    grads = _CURRENT_GRADS[-1]
    key = id(tensor)
    if key in grads:
        grads[key] = grads[key] + grad
    else:
        grads[key] = grad


def apply_op(
    parents: Sequence[Tensor],
    data: np.ndarray,
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]],
) -> Tensor:
    """Wire a fused numpy kernel into the tape as a single graph node.

    ``backward_fn`` receives the output gradient and must return one
    gradient per parent, aligned with ``parents`` (``None`` to skip a
    parent). This is how the :mod:`repro.nn.ops` kernels attach autograd:
    the layer runs the pure-numpy forward once, keeps the kernel's cache in
    the closure, and the whole layer becomes one tape node instead of a
    chain of elementary operations.
    """
    parents = tuple(p if isinstance(p, Tensor) else Tensor(p) for p in parents)

    def backward(grad: np.ndarray) -> None:
        for parent, parent_grad in zip(parents, backward_fn(grad)):
            if parent_grad is not None:
                _send(parent, parent_grad)

    return Tensor._make(data, parents, backward)
