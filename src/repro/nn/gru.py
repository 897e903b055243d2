"""Gated recurrent units, following the formulation in the paper's Appendix A.

For each timestep t with input ``y_t`` and previous hidden state ``h_{t-1}``:

    z_t  = sigmoid(W^(z) y_t + U^(z) h_{t-1})              (update gate)
    r_t  = sigmoid(W^(r) y_t + U^(r) h_{t-1})              (reset gate)
    h'_t = f(W^(h) y_t + r_t ⊙ (U^(h) h_{t-1}))            (candidate state)
    h_t  = (1 - z_t) ⊙ h'_t + z_t ⊙ h_{t-1}

The paper adopts ReLU as the candidate activation ``f`` empirically
(Appendix A); ``tanh`` is also supported for comparison. The GRU consumes
the sliding window of historical resource-utilization values
``{y_{p-n}, ..., y_{p-1}}`` (RU_history in Figure 2) and its final hidden
state is the summary vector ``v_ts``.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from . import ops
from .layers import ACTIVATIONS, Module, Parameter
from .tensor import Tensor, apply_op

__all__ = ["GRUCell", "GRU"]


class GRUCell(Module):
    """A single GRU step operating on ``(batch, input_size)`` tensors."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        activation: str = "relu",
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = initializers.ensure_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.activation_name = activation
        # Input kernels W^(z), W^(r), W^(h)
        self.w_z = Parameter(initializers.glorot_uniform((input_size, hidden_size), rng), name="w_z")
        self.w_r = Parameter(initializers.glorot_uniform((input_size, hidden_size), rng), name="w_r")
        self.w_h = Parameter(initializers.glorot_uniform((input_size, hidden_size), rng), name="w_h")
        # Recurrent kernels U^(z), U^(r), U^(h)
        self.u_z = Parameter(initializers.orthogonal((hidden_size, hidden_size), rng), name="u_z")
        self.u_r = Parameter(initializers.orthogonal((hidden_size, hidden_size), rng), name="u_r")
        self.u_h = Parameter(initializers.orthogonal((hidden_size, hidden_size), rng), name="u_h")
        # Gate biases
        self.b_z = Parameter(initializers.zeros((hidden_size,)), name="b_z")
        self.b_r = Parameter(initializers.zeros((hidden_size,)), name="b_r")
        self.b_h = Parameter(initializers.zeros((hidden_size,)), name="b_h")

    @property
    def weights(self) -> tuple[Parameter, ...]:
        """The nine parameters in kernel order: ``(w_z, u_z, b_z, w_r, ..., b_h)``."""
        return (
            self.w_z, self.u_z, self.b_z,
            self.w_r, self.u_r, self.b_r,
            self.w_h, self.u_h, self.b_h,
        )

    def forward(self, y_t: Tensor, h_prev: Tensor) -> Tensor:
        """One step: the sequence kernel over a single timestep from ``h_prev``."""
        y_t = y_t if isinstance(y_t, Tensor) else Tensor(y_t)
        h_prev = h_prev if isinstance(h_prev, Tensor) else Tensor(h_prev)
        weights = self.weights
        h, cache = ops.gru_sequence_forward(
            y_t.data[:, None, :], h_prev.data, *(w.data for w in weights),
            act=self.activation_name,
        )

        def backward(grad: np.ndarray):
            d_seq, d_h0, *d_weights = ops.gru_sequence_backward(
                grad, cache, input_grad=y_t.requires_grad, state_grad=h_prev.requires_grad
            )
            return (None if d_seq is None else d_seq[:, 0, :], d_h0, *d_weights)

        return apply_op((y_t, h_prev, *weights), h, backward)


class GRU(Module):
    """Runs the GRU of :class:`GRUCell`'s weights over ``(batch, timesteps, input_size)``.

    Returns the final hidden state ``v_ts`` of shape ``(batch, hidden_size)``
    (or the full hidden sequence if ``return_sequences`` is set).
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        activation: str = "relu",
        return_sequences: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, activation=activation, rng=rng)
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences

    def forward(self, sequence: Tensor) -> Tensor:
        """The whole sequence as one tape node (:func:`ops.gru_sequence_forward`)."""
        sequence = sequence if isinstance(sequence, Tensor) else Tensor(sequence)
        if sequence.ndim != 3:
            raise ValueError(f"GRU expects (batch, timesteps, input_size); got shape {sequence.shape}")
        weights = self.cell.weights
        out, cache = ops.gru_sequence_forward(
            sequence.data, None, *(w.data for w in weights),
            act=self.cell.activation_name, return_sequences=self.return_sequences,
        )
        if sequence.shape[1] == 0:
            return Tensor(out)  # nothing ran: the zero state, off the tape

        def backward(grad: np.ndarray):
            d_seq, _, *d_weights = ops.gru_sequence_backward(
                grad, cache, input_grad=sequence.requires_grad, state_grad=False
            )
            return (d_seq, *d_weights)

        return apply_op((sequence, *weights), out, backward)
