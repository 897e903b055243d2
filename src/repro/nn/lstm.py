"""Long short-term memory cells — the alternative recurrent unit.

The paper chose GRUs for the RU-history branch (§3.1) citing their success
in recommender systems and time-series forecasting, but did not compare
against LSTM, the other standard gated RNN. This module provides an LSTM
with the classic formulation

    i_t = sigmoid(W^(i) x_t + U^(i) h_{t-1} + b_i)     (input gate)
    f_t = sigmoid(W^(f) x_t + U^(f) h_{t-1} + b_f)     (forget gate)
    o_t = sigmoid(W^(o) x_t + U^(o) h_{t-1} + b_o)     (output gate)
    g_t = tanh(W^(g) x_t + U^(g) h_{t-1} + b_g)        (candidate)
    c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t                    (cell state)
    h_t = o_t ⊙ tanh(c_t)                              (hidden state)

so the design choice can be ablated
(``benchmarks/bench_ablation_recurrent.py``). The forget-gate bias is
initialized to 1, the standard trick that eases gradient flow early in
training.
"""

from __future__ import annotations

import numpy as np

from . import init as initializers
from . import ops
from .layers import Module, Parameter
from .tensor import Tensor, apply_op

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM step on ``(batch, input_size)`` tensors."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = initializers.ensure_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        for gate in ("i", "f", "o", "g"):
            setattr(
                self,
                f"w_{gate}",
                Parameter(initializers.glorot_uniform((input_size, hidden_size), rng), name=f"w_{gate}"),
            )
            setattr(
                self,
                f"u_{gate}",
                Parameter(initializers.orthogonal((hidden_size, hidden_size), rng), name=f"u_{gate}"),
            )
            bias = np.ones(hidden_size) if gate == "f" else np.zeros(hidden_size)
            setattr(self, f"b_{gate}", Parameter(bias, name=f"b_{gate}"))

    @property
    def weights(self) -> tuple[Parameter, ...]:
        """The twelve parameters in kernel order: ``(w_i, u_i, b_i, w_f, ..., b_g)``."""
        return tuple(
            getattr(self, f"{kind}_{gate}") for gate in "ifog" for kind in ("w", "u", "b")
        )

    def forward(self, x_t: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
        """One step: the sequence kernel over a single timestep from ``(h_prev, c_prev)``."""
        x_t = x_t if isinstance(x_t, Tensor) else Tensor(x_t)
        h_prev = h_prev if isinstance(h_prev, Tensor) else Tensor(h_prev)
        c_prev = c_prev if isinstance(c_prev, Tensor) else Tensor(c_prev)
        weights = self.weights
        h_data, c_data, cache = ops.lstm_sequence_forward(
            x_t.data[:, None, :], h_prev.data, c_prev.data, *(w.data for w in weights)
        )

        def backward(grad: np.ndarray):
            d_seq, d_h0, d_c0, *d_weights = ops.lstm_sequence_backward(
                grad[0], cache, grad_c=grad[1], input_grad=x_t.requires_grad,
                state_grad=h_prev.requires_grad or c_prev.requires_grad,
            )
            return (None if d_seq is None else d_seq[:, 0, :], d_h0, d_c0, *d_weights)

        # One node carries both outputs stacked; indexing splits them, and
        # gradients reaching either half meet on the node before it runs.
        both = apply_op(
            (x_t, h_prev, c_prev, *weights), np.stack([h_data, c_data]), backward
        )
        return both[0], both[1]


class LSTM(Module):
    """Runs the LSTM of :class:`LSTMCell`'s weights over ``(batch, timesteps, input_size)``.

    Mirrors :class:`repro.nn.gru.GRU`'s interface so the two units are
    drop-in interchangeable inside the Env2Vec backbone.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        return_sequences: bool = False,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.return_sequences = return_sequences

    def forward(self, sequence: Tensor) -> Tensor:
        """The whole sequence as one tape node (:func:`ops.lstm_sequence_forward`)."""
        sequence = sequence if isinstance(sequence, Tensor) else Tensor(sequence)
        if sequence.ndim != 3:
            raise ValueError(f"LSTM expects (batch, timesteps, input_size); got shape {sequence.shape}")
        weights = self.cell.weights
        out, _, cache = ops.lstm_sequence_forward(
            sequence.data, None, None, *(w.data for w in weights),
            return_sequences=self.return_sequences,
        )
        if sequence.shape[1] == 0:
            return Tensor(out)  # nothing ran: the zero state, off the tape

        def backward(grad: np.ndarray):
            d_seq, _, _, *d_weights = ops.lstm_sequence_backward(
                grad, cache, input_grad=sequence.requires_grad, state_grad=False
            )
            return (d_seq, *d_weights)

        return apply_op((sequence, *weights), out, backward)
