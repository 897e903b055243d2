"""Pluggable sequence encoders: one registry for the time-series branch.

The paper fixes the time-series branch to a single GRU over the RU-history
window (§3.1, Appendix A) and §6 sketches attention as future work. Related
work on VNF chains ("Sequential Deep Learning Architectures for Anomaly
Detection in VNF Chains", arXiv 2109.14276) shows detector quality varies
sharply across RNN variants once environments are coupled, so the branch is
worth treating as an axis rather than a constant.

A :class:`SequenceEncoder` owns everything one architecture choice implies:

- its layers and autograd ``forward`` mapping a ``(batch, timesteps,
  input_size)`` sequence to a ``(batch, output_dim)`` summary;
- its compiled-inference counterpart, registered through the standard
  :func:`repro.nn.inference.register_compiler` mechanism (consumers embed
  the plan via :func:`repro.nn.inference.compile_plan`);
- its serialization schema (:meth:`SequenceEncoder.to_config` /
  :func:`encoder_from_config`).

Encoders register by name via :func:`register_encoder`; consumers only ever
see the name. ``Env2VecModel(encoder="lstm")`` and the chained-topology
experiments iterate :func:`available_encoders` without touching a single
recurrent class — the registry is the only entry point to the GRU/LSTM/
attention layers outside ``repro.nn`` (enforced by the REP009 lint rule).

Registered out of the box:

========== =============================================================
name        architecture
========== =============================================================
gru         GRU (ReLU candidate, Appendix A), last hidden state
lstm        LSTM, last hidden state
stacked     2-layer GRU: full state sequence into a second GRU
bidi        forward GRU + time-reversed GRU, states concatenated
attention   GRU keeping all states, pooled by additive attention (§6)
lstm_attention  LSTM keeping all states, pooled by additive attention
========== =============================================================

``bidi`` is registered under ``"bidirectional"``.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from . import ops
from .attention import AdditiveAttention
from .gru import GRU
from .inference import (
    compile_attention,
    compile_recurrent,
    register_compiler,
)
from .layers import Module
from .lstm import LSTM
from .tensor import Tensor
from .training import TrainStep, register_train_step

__all__ = [
    "SequenceEncoder",
    "register_encoder",
    "available_encoders",
    "validate_encoder_name",
    "create_encoder",
    "encoder_from_config",
    "resolve_encoder_name",
    "GRUEncoder",
    "LSTMEncoder",
    "StackedGRUEncoder",
    "BidirectionalGRUEncoder",
    "AttentionGRUEncoder",
    "AttentionLSTMEncoder",
]


class SequenceEncoder(Module):
    """Summarize a ``(batch, timesteps, input_size)`` sequence.

    Subclasses own their layers and draw initial weights from the ``rng``
    they are constructed with, in a fixed order — the seed-determinism
    contract (byte-identical same-seed campaigns) extends through every
    registered encoder.
    """

    #: registry key, set by :func:`register_encoder`.
    name: str = ""

    def __init__(self, input_size: int, hidden_size: int):
        super().__init__()
        if input_size < 1:
            raise ValueError("input_size must be >= 1")
        if hidden_size < 1:
            raise ValueError("hidden_size must be >= 1")
        self.input_size = input_size
        self.hidden_size = hidden_size

    @property
    def output_dim(self) -> int:
        """Width of the summary vector (``hidden_size`` unless overridden)."""
        return self.hidden_size

    def to_config(self) -> dict:
        """JSON-serializable construction recipe (see :func:`encoder_from_config`)."""
        return {
            "name": self.name,
            "input_size": self.input_size,
            "hidden_size": self.hidden_size,
        }

    def _check_input(self, sequence: Tensor) -> Tensor:
        sequence = sequence if isinstance(sequence, Tensor) else Tensor(sequence)
        if sequence.ndim != 3 or sequence.shape[2] != self.input_size:
            raise ValueError(
                f"expected (batch, timesteps, {self.input_size}); got shape {sequence.shape}"
            )
        return sequence


_ENCODERS: dict[str, type[SequenceEncoder]] = {}


def register_encoder(name: str):
    """Class decorator adding a :class:`SequenceEncoder` to the registry.

    The class must be constructible as ``cls(input_size, hidden_size,
    rng=rng, **config_extras)``; its compiled-inference rule is registered
    separately via :func:`repro.nn.inference.register_compiler`.
    """

    def decorator(cls: type[SequenceEncoder]) -> type[SequenceEncoder]:
        if name in _ENCODERS:
            raise ValueError(f"encoder {name!r} is already registered ({_ENCODERS[name].__name__})")
        cls.name = name
        _ENCODERS[name] = cls
        return cls

    return decorator


def available_encoders() -> tuple[str, ...]:
    """Registered encoder names, sorted."""
    return tuple(sorted(_ENCODERS))


def validate_encoder_name(name: str) -> str:
    """The single encoder-name check every consuming layer funnels through."""
    if name not in _ENCODERS:
        raise ValueError(
            f"unknown encoder {name!r}; registered encoders: "
            + ", ".join(available_encoders())
        )
    return name


def create_encoder(
    name: str,
    input_size: int,
    hidden_size: int,
    rng: np.random.Generator | None = None,
    **kwargs,
) -> SequenceEncoder:
    """Instantiate a registered encoder by name."""
    cls = _ENCODERS[validate_encoder_name(name)]
    return cls(input_size, hidden_size, rng=rng, **kwargs)


def encoder_from_config(
    config: dict, rng: np.random.Generator | None = None
) -> SequenceEncoder:
    """Rebuild an encoder from :meth:`SequenceEncoder.to_config` output."""
    config = dict(config)
    try:
        name = config.pop("name")
        input_size = config.pop("input_size")
        hidden_size = config.pop("hidden_size")
    except KeyError as error:
        raise ValueError(f"encoder config is missing {error.args[0]!r}") from None
    return create_encoder(name, input_size, hidden_size, rng=rng, **config)


#: deprecated-alias mapping: (recurrent_unit, use_attention) -> encoder name.
_ALIAS_ENCODERS = {
    ("gru", False): "gru",
    ("gru", True): "attention",
    ("lstm", False): "lstm",
    ("lstm", True): "lstm_attention",
}


def resolve_encoder_name(
    encoder: str | None = None,
    recurrent_unit: str | None = None,
    use_attention: bool | None = None,
) -> str:
    """Resolve ``encoder=`` and its deprecated aliases to one registry name.

    ``recurrent_unit``/``use_attention`` predate the registry and remain
    supported: ``recurrent_unit="lstm"`` means ``encoder="lstm"`` and
    ``use_attention=True`` selects the attention-pooled variant. Passing
    both the new and the old spelling is ambiguous and rejected.
    """
    if encoder is not None:
        if recurrent_unit is not None or use_attention:
            raise ValueError(
                "pass encoder=... or the deprecated recurrent_unit/use_attention "
                "aliases, not both"
            )
        return validate_encoder_name(encoder)
    unit = "gru" if recurrent_unit is None else recurrent_unit
    name = _ALIAS_ENCODERS.get((unit, bool(use_attention)))
    if name is None:
        # An unmapped recurrent_unit that names a registered encoder is
        # accepted as a direct alias — but only without use_attention.
        if not use_attention:
            return validate_encoder_name(unit)
        raise ValueError(
            f"use_attention=True is only supported with recurrent_unit 'gru' or "
            f"'lstm'; got {unit!r}"
        )
    return name


# ---------------------------------------------------------------------------
# The built-in zoo
# ---------------------------------------------------------------------------
@register_encoder("gru")
class GRUEncoder(SequenceEncoder):
    """The paper's branch: a GRU with ReLU candidate, last hidden state."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(input_size, hidden_size)
        rng = initializers.ensure_rng(rng)
        self.activation = activation
        self.gru = GRU(input_size, hidden_size, activation=activation, rng=rng)

    def forward(self, sequence: Tensor) -> Tensor:
        return self.gru(self._check_input(sequence))

    def to_config(self) -> dict:
        return {**super().to_config(), "activation": self.activation}


@register_encoder("lstm")
class LSTMEncoder(SequenceEncoder):
    """An LSTM cell in place of the GRU, last hidden state."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(input_size, hidden_size)
        rng = initializers.ensure_rng(rng)
        self.lstm = LSTM(input_size, hidden_size, rng=rng)

    def forward(self, sequence: Tensor) -> Tensor:
        return self.lstm(self._check_input(sequence))


@register_encoder("stacked")
class StackedGRUEncoder(SequenceEncoder):
    """Two GRU layers: the full state sequence feeds a second GRU."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(input_size, hidden_size)
        rng = initializers.ensure_rng(rng)
        self.activation = activation
        self.lower = GRU(
            input_size, hidden_size, activation=activation, return_sequences=True, rng=rng
        )
        self.upper = GRU(hidden_size, hidden_size, activation=activation, rng=rng)

    def forward(self, sequence: Tensor) -> Tensor:
        return self.upper(self.lower(self._check_input(sequence)))

    def to_config(self) -> dict:
        return {**super().to_config(), "activation": self.activation}


@register_encoder("bidirectional")
class BidirectionalGRUEncoder(SequenceEncoder):
    """Forward GRU + time-reversed GRU, last states concatenated.

    ``output_dim`` is ``2 * hidden_size``: downstream combination layers
    must size themselves from :attr:`output_dim`, never ``hidden_size``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__(input_size, hidden_size)
        rng = initializers.ensure_rng(rng)
        self.activation = activation
        self.forward_gru = GRU(input_size, hidden_size, activation=activation, rng=rng)
        self.backward_gru = GRU(input_size, hidden_size, activation=activation, rng=rng)

    @property
    def output_dim(self) -> int:
        return 2 * self.hidden_size

    def forward(self, sequence: Tensor) -> Tensor:
        sequence = self._check_input(sequence)
        reversed_sequence = sequence[:, ::-1, :]
        return Tensor.concat(
            [self.forward_gru(sequence), self.backward_gru(reversed_sequence)], axis=1
        )

    def to_config(self) -> dict:
        return {**super().to_config(), "activation": self.activation}


@register_encoder("attention")
class AttentionGRUEncoder(SequenceEncoder):
    """§6's extension: keep all GRU states, pool with additive attention."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        activation: str = "relu",
        attention_size: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(input_size, hidden_size)
        rng = initializers.ensure_rng(rng)
        self.activation = activation
        self.gru = GRU(
            input_size, hidden_size, activation=activation, return_sequences=True, rng=rng
        )
        self.attention = AdditiveAttention(hidden_size, attention_size, rng=rng)

    def forward(self, sequence: Tensor) -> Tensor:
        return self.attention(self.gru(self._check_input(sequence)))

    def to_config(self) -> dict:
        return {
            **super().to_config(),
            "activation": self.activation,
            "attention_size": self.attention.attention_size,
        }


@register_encoder("lstm_attention")
class AttentionLSTMEncoder(SequenceEncoder):
    """LSTM keeping all states, pooled by additive attention."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        attention_size: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(input_size, hidden_size)
        rng = initializers.ensure_rng(rng)
        self.lstm = LSTM(input_size, hidden_size, return_sequences=True, rng=rng)
        self.attention = AdditiveAttention(hidden_size, attention_size, rng=rng)

    def forward(self, sequence: Tensor) -> Tensor:
        return self.attention(self.lstm(self._check_input(sequence)))

    def to_config(self) -> dict:
        return {
            **super().to_config(),
            "attention_size": self.attention.attention_size,
        }


# ---------------------------------------------------------------------------
# Compiled-inference rules — each encoder's tape-free counterpart
# ---------------------------------------------------------------------------
@register_compiler(GRUEncoder)
def _compile_gru_encoder(module: GRUEncoder, dtype: np.dtype):
    run = compile_recurrent(module.gru, dtype)

    def forward(sequence: np.ndarray) -> np.ndarray:
        return run(np.asarray(sequence, dtype=dtype))

    return forward


@register_compiler(LSTMEncoder)
def _compile_lstm_encoder(module: LSTMEncoder, dtype: np.dtype):
    run = compile_recurrent(module.lstm, dtype)

    def forward(sequence: np.ndarray) -> np.ndarray:
        return run(np.asarray(sequence, dtype=dtype))

    return forward


@register_compiler(StackedGRUEncoder)
def _compile_stacked_encoder(module: StackedGRUEncoder, dtype: np.dtype):
    lower = compile_recurrent(module.lower, dtype)
    upper = compile_recurrent(module.upper, dtype)

    def forward(sequence: np.ndarray) -> np.ndarray:
        return upper(lower(np.asarray(sequence, dtype=dtype)))

    return forward


@register_compiler(BidirectionalGRUEncoder)
def _compile_bidirectional_encoder(module: BidirectionalGRUEncoder, dtype: np.dtype):
    run_forward = compile_recurrent(module.forward_gru, dtype)
    run_backward = compile_recurrent(module.backward_gru, dtype)

    def forward(sequence: np.ndarray) -> np.ndarray:
        sequence = np.asarray(sequence, dtype=dtype)
        return np.concatenate(
            [run_forward(sequence), run_backward(sequence[:, ::-1, :])], axis=1
        )

    return forward


@register_compiler(AttentionGRUEncoder)
def _compile_attention_gru_encoder(module: AttentionGRUEncoder, dtype: np.dtype):
    run = compile_recurrent(module.gru, dtype)
    pool = compile_attention(module.attention, dtype)

    def forward(sequence: np.ndarray) -> np.ndarray:
        return pool(run(np.asarray(sequence, dtype=dtype)))

    return forward


@register_compiler(AttentionLSTMEncoder)
def _compile_attention_lstm_encoder(module: AttentionLSTMEncoder, dtype: np.dtype):
    run = compile_recurrent(module.lstm, dtype)
    pool = compile_attention(module.attention, dtype)

    def forward(sequence: np.ndarray) -> np.ndarray:
        return pool(run(np.asarray(sequence, dtype=dtype)))

    return forward


# ---------------------------------------------------------------------------
# Compiled-training rules — the single-layer encoders run their sequence
# kernels tape-free; stacked, bidirectional and attention encoders have no
# rule and keep training on the tape.
# ---------------------------------------------------------------------------
@register_train_step(GRUEncoder)
def _train_gru_encoder(module: GRUEncoder, grad_of) -> TrainStep:
    gru = module.gru
    weights = gru.cell.weights
    workspace = ops.Workspace()

    def forward(sequence: np.ndarray):
        return ops.gru_sequence_forward(
            sequence, None, *(w.data for w in weights), act=gru.cell.activation_name,
            return_sequences=gru.return_sequences, workspace=workspace,
        )

    def backward(grad: np.ndarray, cache) -> None:
        ops.gru_sequence_backward(
            grad, cache, input_grad=False, state_grad=False, out=[grad_of(w) for w in weights]
        )

    return TrainStep(forward, backward)


@register_train_step(LSTMEncoder)
def _train_lstm_encoder(module: LSTMEncoder, grad_of) -> TrainStep:
    lstm = module.lstm
    weights = lstm.cell.weights
    workspace = ops.Workspace()

    def forward(sequence: np.ndarray):
        out, _, cache = ops.lstm_sequence_forward(
            sequence, None, None, *(w.data for w in weights),
            return_sequences=lstm.return_sequences, workspace=workspace,
        )
        return out, cache

    def backward(grad: np.ndarray, cache) -> None:
        ops.lstm_sequence_backward(
            grad, cache, input_grad=False, state_grad=False, out=[grad_of(w) for w in weights]
        )

    return TrainStep(forward, backward)
