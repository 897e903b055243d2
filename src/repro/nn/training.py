"""Generic training loop with mini-batching and early stopping.

Implements the training regime of the paper's Appendix A.1: MSE loss,
Adam updates, dropout regularization inside the model, and *early stopping*
that halts training when the validation loss stops improving and restores
the best weights observed.

Each mini-batch step runs either on the autograd tape or, when the model's
exact type has a rule registered through :func:`register_train_step`, as a
tape-free *compiled training step*: the forward, backward and update run
straight on :mod:`repro.nn.ops` kernels, and the gradients land in the
optimizer's flat gradient vector. A compiled step reproduces the tape
bitwise — same random draws in the same order, same scalar operation
order, same per-timestep gradient summation order — so which path ran
never shows in the trained weights (DESIGN.md §6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ..obs import get_observability
from . import ops
from .inference import UnsupportedModuleError, compile_module
from .init import ensure_rng
from .layers import Module, Parameter
from .losses import get_loss, mse_loss
from .optim import Adam, Optimizer
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "EarlyStopping",
    "ReduceLROnPlateau",
    "TrainingDiverged",
    "TrainingHistory",
    "Trainer",
    "TrainStep",
    "register_train_step",
    "compile_train_step",
]

Batch = Mapping[str, np.ndarray]

_OBS = get_observability()
_M_EPOCHS = _OBS.counter(
    "repro_nn_epochs_total", "Optimization epochs completed by Trainer.fit."
)
_M_BATCHES = _OBS.counter(
    "repro_nn_batches_total", "Mini-batch gradient steps taken by Trainer.fit."
)
_M_STEPS = _OBS.counter(
    "repro_nn_train_steps_total",
    "Trainer.fit mini-batch steps by path: compiled (tape-free) or tape.",
    labels=("path",),
)


#: Where a compiled step writes each parameter's gradient.
GradOf = Callable[[Parameter], np.ndarray]


class TrainStep(NamedTuple):
    """A module's tape-free training pair.

    ``forward(*inputs)`` returns ``(output, cache)``; ``backward(grad,
    cache)`` overwrites the gradient array of every parameter of the
    module (the arrays the rule's ``grad_of`` hands out). Inputs take no
    gradient.
    """

    forward: Callable[..., tuple[np.ndarray, object]]
    backward: Callable[[np.ndarray, object], None]


_TRAIN_STEPS: dict[type, Callable[[Module, GradOf], TrainStep | None]] = {}


def register_train_step(cls: type):
    """Register a compiled-training rule: ``fn(module, grad_of) -> TrainStep | None``.

    Keyed by exact type, like :func:`repro.nn.inference.register_compiler`
    (a subclass may override ``forward``). The rule returns ``None`` when
    this instance must stay on the tape (e.g. an unsupported sub-module).
    The step must reproduce the module's autograd forward and backward
    bitwise, random draws included.
    """

    def decorator(fn):
        _TRAIN_STEPS[cls] = fn
        return fn

    return decorator


def compile_train_step(module: Module, grad_of: GradOf) -> TrainStep | None:
    """The registered rule's training pair for ``module``, or ``None`` (tape)."""
    rule = _TRAIN_STEPS.get(type(module))
    return None if rule is None else rule(module, grad_of)


class TrainingDiverged(RuntimeError):
    """Training produced a non-finite loss; the fit was aborted.

    Raised by :meth:`Trainer.fit` the moment an epoch's training or
    validation loss goes NaN/Inf — continuing would Adam-step poisoned
    gradients into every weight. The model is left as-is at the failing
    epoch and callers (the training pipeline) are expected to discard it
    and keep the previous published model serving.
    """

    def __init__(self, message: str, epoch: int):
        super().__init__(message)
        self.epoch = epoch


@dataclass
class EarlyStopping:
    """Stop training when a monitored loss has not improved for ``patience`` epochs.

    ``min_delta`` is the smallest decrease counted as an improvement;
    ``restore_best`` reloads the best weights seen when stopping.
    """

    patience: int = 5
    min_delta: float = 0.0
    restore_best: bool = True

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        self.best_loss = np.inf
        self.best_state: dict[str, np.ndarray] | None = None
        self.wait = 0

    def update(self, loss: float, model: Module) -> bool:
        """Record an epoch's validation loss. Returns True when training should stop."""
        if loss < self.best_loss - self.min_delta:
            self.best_loss = loss
            self.wait = 0
            if self.restore_best:
                self.best_state = model.state_dict()
            return False
        self.wait += 1
        return self.wait >= self.patience

    def finalize(self, model: Module) -> None:
        if self.restore_best and self.best_state is not None:
            model.load_state_dict(self.best_state)


@dataclass
class ReduceLROnPlateau:
    """Halve (by ``factor``) the optimizer's learning rate when the
    validation loss stalls for ``patience`` epochs.

    A standard complement to early stopping: the model escapes noisy
    plateaus by taking smaller steps before the stopper gives up.
    """

    patience: int = 3
    factor: float = 0.5
    min_lr: float = 1e-5
    min_delta: float = 0.0

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not 0.0 < self.factor < 1.0:
            raise ValueError("factor must be in (0, 1)")
        if self.min_lr <= 0:
            raise ValueError("min_lr must be positive")
        self.best_loss = np.inf
        self.wait = 0
        self.reductions = 0

    def update(self, loss: float, optimizer: Optimizer) -> bool:
        """Record an epoch's loss; returns True when the lr was reduced."""
        if loss < self.best_loss - self.min_delta:
            self.best_loss = loss
            self.wait = 0
            return False
        self.wait += 1
        if self.wait >= self.patience and optimizer.lr > self.min_lr:
            optimizer.lr = max(self.min_lr, optimizer.lr * self.factor)
            self.wait = 0
            self.reductions += 1
            return True
        return False


@dataclass
class TrainingHistory:
    """Per-epoch loss curves recorded by :class:`Trainer`."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    stopped_epoch: int | None = None

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Trains any :class:`Module` whose ``forward`` accepts keyword arrays.

    The model's ``forward`` is called as ``model(**batch)`` where ``batch``
    maps input names to numpy arrays sliced along axis 0. This keeps the
    trainer agnostic to the Env2Vec model's three heterogeneous inputs
    (contextual features, RU history window, environment id columns).

    ``evaluate`` and ``predict`` route through the tape-free inference
    engine (:mod:`repro.nn.inference`) whenever the model's type has a
    registered compile rule, falling back to the autograd forward under
    ``no_grad`` otherwise.

    Shuffling uses ``rng`` when given, else a generator seeded with
    ``seed`` — pass either to make two identical ``fit`` calls produce
    identical histories.
    """

    def __init__(
        self,
        model: Module,
        loss: str | Callable[[Tensor, Tensor], Tensor] = "mse",
        optimizer: Optimizer | None = None,
        lr: float = 0.001,
        batch_size: int = 128,
        max_epochs: int = 100,
        early_stopping: EarlyStopping | None = None,
        lr_scheduler: "ReduceLROnPlateau | None" = None,
        shuffle: bool = True,
        rng: np.random.Generator | None = None,
        seed: int | None = None,
        verbose: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        self.model = model
        self.loss_fn = get_loss(loss) if isinstance(loss, str) else loss
        self.optimizer = optimizer if optimizer is not None else Adam(model.parameters(), lr=lr)
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.early_stopping = early_stopping
        self.lr_scheduler = lr_scheduler
        self.shuffle = shuffle
        self.rng = ensure_rng(rng, seed)
        self.verbose = verbose

    def fit(
        self,
        inputs: Batch,
        targets: np.ndarray,
        val_inputs: Batch | None = None,
        val_targets: np.ndarray | None = None,
    ) -> TrainingHistory:
        """Run the training loop; returns the loss history."""
        n = _check_sizes(inputs, targets)
        has_val = val_inputs is not None and val_targets is not None
        if self.early_stopping is not None and not has_val:
            raise ValueError("early stopping requires validation data")
        if self.lr_scheduler is not None and not has_val:
            raise ValueError("lr scheduling requires validation data")

        history = TrainingHistory()
        targets = np.asarray(targets, dtype=np.float64)
        step = self._train_step()
        steps_taken = _M_STEPS.labels(path="tape" if step is None else "compiled")
        for epoch in range(self.max_epochs):
            order = self.rng.permutation(n) if self.shuffle else np.arange(n)
            self.model.train()
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                idx = order[start : start + self.batch_size]
                batch = {key: value[idx] for key, value in inputs.items()}
                self.optimizer.zero_grad()
                if step is None:
                    loss = self.loss_fn(self.model(**batch), Tensor(targets[idx]))
                    loss.backward()
                    self.optimizer.step()
                    batch_loss = loss.item()
                else:
                    predicted, cache = step.forward(**batch)
                    batch_loss, d_predicted = ops.mse_forward_backward(predicted, targets[idx])
                    step.backward(d_predicted, cache)
                    self.optimizer.step_gathered()
                epoch_loss += batch_loss * len(idx)
                _M_BATCHES.inc()
                steps_taken.inc()
            train_loss = epoch_loss / n
            if not np.isfinite(train_loss):
                raise TrainingDiverged(
                    f"training loss went non-finite ({train_loss}) at epoch {epoch}",
                    epoch=epoch,
                )
            history.train_loss.append(train_loss)
            _M_EPOCHS.inc()

            if has_val:
                val_loss = self.evaluate(val_inputs, val_targets)
                if not np.isfinite(val_loss):
                    raise TrainingDiverged(
                        f"validation loss went non-finite ({val_loss}) at epoch {epoch}",
                        epoch=epoch,
                    )
                history.val_loss.append(val_loss)
                if self.verbose:  # pragma: no cover - logging only
                    print(f"epoch {epoch}: train={history.train_loss[-1]:.5f} val={val_loss:.5f}")
                if self.lr_scheduler is not None:
                    self.lr_scheduler.update(val_loss, self.optimizer)
                if self.early_stopping is not None and self.early_stopping.update(val_loss, self.model):
                    history.stopped_epoch = epoch
                    break
        if self.early_stopping is not None:
            self.early_stopping.finalize(self.model)
        return history

    def _train_step(self) -> TrainStep | None:
        """The model's compiled training step, or ``None`` to train on the tape.

        Compiled only when every condition of its bitwise contract holds:
        a rule is registered for the model's exact type, the loss is MSE,
        the optimizer is a plain :class:`Adam` over exactly the model's
        parameters, and gradient recording is on (the tape needs it too).
        """
        optimizer = self.optimizer
        if (
            self.loss_fn is not mse_loss
            or type(optimizer) is not Adam
            or not is_grad_enabled()
        ):
            return None
        views = {id(p): view for p, view in zip(optimizer.parameters, optimizer.grad_views)}
        params = list(self.model.parameters())
        if len(views) != len(optimizer.parameters) or views.keys() != {id(p) for p in params}:
            return None
        return compile_train_step(self.model, lambda param: views[id(param)])

    def _compile(self):
        """Snapshot the current weights into a tape-free engine, if possible."""
        try:
            return compile_module(self.model)
        except UnsupportedModuleError:
            return None

    def evaluate(self, inputs: Batch, targets: np.ndarray) -> float:
        """Average loss over the given data, in eval mode, without autograd."""
        n = _check_sizes(inputs, targets)
        targets = np.asarray(targets, dtype=np.float64)
        self.model.eval()
        engine = self._compile()
        total = 0.0
        with no_grad():
            for start in range(0, n, self.batch_size):
                batch = {key: value[start : start + self.batch_size] for key, value in inputs.items()}
                batch_targets = targets[start : start + self.batch_size]
                predicted = Tensor(engine(**batch)) if engine is not None else self.model(**batch)
                loss = self.loss_fn(predicted, Tensor(batch_targets))
                total += loss.item() * len(batch_targets)
        return total / n

    def predict(self, inputs: Batch) -> np.ndarray:
        """Model predictions as a numpy array, in eval mode."""
        n = _check_sizes(inputs, None)
        self.model.eval()
        engine = self._compile()
        if engine is not None:
            return engine.predict(inputs, batch_size=self.batch_size)
        outputs: list[np.ndarray] = []
        with no_grad():
            for start in range(0, n, self.batch_size):
                batch = {key: value[start : start + self.batch_size] for key, value in inputs.items()}
                outputs.append(self.model(**batch).numpy())
        return np.concatenate(outputs, axis=0)


def _check_sizes(inputs: Batch, targets: np.ndarray | None) -> int:
    if not inputs:
        raise ValueError("inputs must contain at least one array")
    sizes = {key: len(value) for key, value in inputs.items()}
    n = next(iter(sizes.values()))
    if any(size != n for size in sizes.values()):
        raise ValueError(f"input arrays disagree on length: {sizes}")
    if targets is not None and len(targets) != n:
        raise ValueError(f"targets length {len(targets)} != inputs length {n}")
    if n == 0:
        raise ValueError("cannot train/evaluate on empty data")
    return n
