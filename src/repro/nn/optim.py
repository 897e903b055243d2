"""Gradient-descent optimizers.

The paper uses the Adam update rule [Kingma & Ba 2014] to train Env2Vec
(Appendix A.1). SGD (with optional momentum) is provided as a simpler
alternative used in tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam", "clip_gradients"]


def clip_gradients(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm. Standard protection for recurrent models
    whose backpropagated-through-time gradients can occasionally explode.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    parameters = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float(np.sum(p.grad**2)) for p in parameters)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for parameter in parameters:
            parameter.grad *= scale
    return total


class Optimizer:
    """Base optimizer holding a parameter list.

    ``weight_decay`` applies decoupled L2 regularization (AdamW-style for
    Adam): weights shrink by ``lr * weight_decay * w`` each step,
    independent of the gradient moments.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float, weight_decay: float = 0.0):
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.weight_decay = weight_decay

    def _apply_weight_decay(self, parameters: Iterable[Parameter] | None = None) -> None:
        """Decay ``parameters`` (default: every parameter holding a gradient)."""
        if self.weight_decay:
            if parameters is None:
                parameters = [p for p in self.parameters if p.grad is not None]
            for parameter in parameters:
                parameter.data -= self.lr * self.weight_decay * parameter.data

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._apply_weight_decay()
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity -= self.lr * param.grad
                param.data += velocity
            else:
                param.data -= self.lr * param.grad


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates.

    The moments live in two flat float64 vectors with one contiguous slice
    per parameter, next to a flat gradient vector of the same layout, so a
    step is one vectorized pass over all parameters instead of a loop of
    small per-array updates. Elementwise it is the textbook per-parameter
    update with the same scalar operation order, so the flat layout changes
    no bits. :meth:`step` gathers each ``param.grad`` into the gradient
    vector; a compiled training step writes its gradients straight into
    :attr:`grad_views` and calls :meth:`step_gathered`. Weights are updated
    through ``param.data`` on every step, so rebinding a parameter's array
    (``Module.load_state_dict``) between steps is safe.
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr, weight_decay)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._offsets = [0]
        for param in self.parameters:
            self._offsets.append(self._offsets[-1] + param.data.size)
        total = self._offsets[-1]
        self._m = np.zeros(total)
        self._v = np.zeros(total)
        self._grad = np.zeros(total)
        self._delta = np.empty(total)
        self._scratch = np.empty(total)
        spans = list(zip(self.parameters, self._offsets, self._offsets[1:]))
        self._grad_views = [self._grad[lo:hi].reshape(p.data.shape) for p, lo, hi in spans]
        self._delta_views = [self._delta[lo:hi].reshape(p.data.shape) for p, lo, hi in spans]

    @property
    def grad_views(self) -> list[np.ndarray]:
        """Writable per-parameter views of the flat gradient, aligned with ``parameters``."""
        return self._grad_views

    def step(self) -> None:
        """Update every parameter holding a ``.grad``; the others keep weights and moments."""
        present = [param.grad is not None for param in self.parameters]
        for view, param, has_grad in zip(self._grad_views, self.parameters, present):
            if has_grad:
                view[...] = param.grad
        self._update(present)

    def step_gathered(self) -> None:
        """Update every parameter from gradients already written into :attr:`grad_views`."""
        self._update([True] * len(self.parameters))

    def _update(self, present: list[bool]) -> None:
        self._apply_weight_decay([p for p, has in zip(self.parameters, present) if has])
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for lo, hi in _runs(self._offsets, present):
            m, v, grad = self._m[lo:hi], self._v[lo:hi], self._grad[lo:hi]
            delta, scratch = self._delta[lo:hi], self._scratch[lo:hi]
            # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=scratch)
            m += scratch
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=scratch)
            scratch *= grad
            v += scratch
            # delta = lr * (m / bias1) / (sqrt(v / bias2) + eps)
            np.divide(v, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            np.divide(m, bias1, out=delta)
            delta *= self.lr
            delta /= scratch
        for param, delta, has_grad in zip(self.parameters, self._delta_views, present):
            if has_grad:
                param.data -= delta


def _runs(offsets: list[int], present: list[bool]) -> list[tuple[int, int]]:
    """Maximal ``[lo, hi)`` spans of the flat layout covering present parameters."""
    runs: list[tuple[int, int]] = []
    for lo, hi, has_grad in zip(offsets, offsets[1:], present):
        if not has_grad:
            continue
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    return runs
