"""Neural-network layers built on the :mod:`repro.nn.ops` functional core.

The layer set mirrors what the Env2Vec architecture (paper §3.1 and
Appendix A) requires from Keras: ``Dense`` (the FNN and dense combination
layers), ``Embedding`` (per-EM-field lookup tables with an ``<unk>`` row),
``Dropout`` (regularization, Appendix A.1), and ``Sequential`` for stacking.

Each layer's forward runs the pure-numpy kernel from :mod:`repro.nn.ops`
once and attaches the matching backward kernel as a single tape node
(:func:`repro.nn.tensor.apply_op`), so training records one fused node per
layer while the inference engine (:mod:`repro.nn.inference`) reuses the
identical kernels with no tape at all.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from . import init as initializers
from . import ops
from .tensor import Tensor, apply_op, is_grad_enabled

__all__ = ["Module", "Parameter", "Dense", "Dropout", "Embedding", "Sequential", "ACTIVATIONS"]


def _identity(x: Tensor) -> Tensor:
    return x


ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "linear": _identity,
    "relu": Tensor.relu,
    "sigmoid": Tensor.sigmoid,
    "tanh": Tensor.tanh,
}


class Parameter(Tensor):
    """A trainable tensor; always requires grad."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class providing parameter discovery and train/eval switching."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, recursing into child modules."""
        seen: set[int] = set()
        for value in self.__dict__.values():
            yield from _collect_params(value, seen)

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        seen: set[int] = set()
        for key, value in self.__dict__.items():
            yield from _collect_named(key, value, seen)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            for module in _collect_modules(value):
                module._set_mode(training)

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat mapping of dotted parameter names to copies of their data."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} != {param.shape}")
            param.data = value.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _collect_params(value, seen: set[int]) -> Iterator[Parameter]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield value
    elif isinstance(value, Module):
        for param in value.parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect_params(item, seen)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _collect_params(item, seen)


def _collect_named(prefix: str, value, seen: set[int]) -> Iterator[tuple[str, Parameter]]:
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            yield prefix, value
    elif isinstance(value, Module):
        for name, param in value.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield f"{prefix}.{name}", param
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _collect_named(f"{prefix}.{i}", item, seen)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _collect_named(f"{prefix}.{key}", item, seen)


def _collect_modules(value) -> Iterator[Module]:
    if isinstance(value, Module):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _collect_modules(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _collect_modules(item)


class Dense(Module):
    """Fully connected layer: ``activation(x @ W + b)``.

    Matches the FNN hidden layer of Appendix A:
    ``q_t = sigma(W^(q) a_t + b_q)``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "linear",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}; choose from {sorted(ACTIVATIONS)}")
        rng = initializers.ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.activation_name = activation
        self.weight = Parameter(initializers.glorot_uniform((in_features, out_features), rng), name="weight")
        self.bias = Parameter(initializers.zeros((out_features,)), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(x)
        out, cache = ops.dense_forward(
            x.data, self.weight.data, self.bias.data, self.activation_name
        )
        return apply_op(
            (x, self.weight, self.bias), out, lambda grad: ops.dense_backward(grad, cache)
        )


class Dropout(Module):
    """Inverted dropout; identity in eval mode."""

    def __init__(self, rate: float, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = initializers.ensure_rng(rng)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.rate == 0.0 or not is_grad_enabled():
            return x
        out, cache = ops.dropout_forward(x.data, self.rate, self.rng)
        return apply_op((x,), out, lambda grad: ops.dropout_backward(grad, cache))


class Embedding(Module):
    """A lookup table mapping integer ids to dense vectors.

    Paper §3.1 ("Embeddings for environments"): one table per environment
    feature, each row an embedding for one feature value, plus an explicit
    *unknown* row used for values never seen in training — analogous to the
    ``<unk>`` token in NLP. By convention the unknown row is index
    ``num_embeddings - 1`` when the table is built by
    :class:`repro.core.embeddings.EnvironmentVocabulary`.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if num_embeddings < 1:
            raise ValueError("num_embeddings must be >= 1")
        rng = initializers.ensure_rng(rng)
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(
            initializers.embedding_uniform((num_embeddings, embedding_dim), rng), name="weight"
        )

    def check_ids(self, ids: np.ndarray) -> np.ndarray:
        """``ids`` as int64, or ``IndexError`` if any lies outside the table."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return ids

    def forward(self, ids: np.ndarray) -> Tensor:
        out, cache = ops.embedding_forward(self.weight.data, self.check_ids(ids))
        return apply_op((self.weight,), out, lambda grad: ops.embedding_backward(grad, cache))


class Sequential(Module):
    """Applies modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x

    def append(self, module: Module) -> None:
        self.modules.append(module)
