"""Finite-difference checks for the whole-sequence GRU/LSTM training kernels.

``ops.gru_sequence_forward/backward`` and ``ops.lstm_sequence_forward/
backward`` back the tape's GRU/LSTM layers and cells (one node per layer)
and the compiled training step. Every analytic gradient — parameters,
input sequence and initial states — is checked against central
differences: through the cells with a nonzero initial state, over a
``return_sequences`` layer, and at a single timestep.
"""

import numpy as np
import pytest

from repro.nn import GRU, LSTM, GRUCell, LSTMCell, Tensor, ops

RNG = np.random.default_rng(83)
EPS = 1e-6


def _numeric_grad(loss, array: np.ndarray) -> np.ndarray:
    grad = np.zeros_like(array)
    flat, out = array.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        plus = loss()
        flat[i] = original - EPS
        minus = loss()
        flat[i] = original
        out[i] = (plus - minus) / (2 * EPS)
    return grad


def _check(loss_tensor, arrays: dict[str, tuple[np.ndarray, np.ndarray]]):
    """``arrays`` maps a name to ``(data, analytic_grad)``."""

    def loss() -> float:
        return loss_tensor().item()

    for name, (data, analytic) in arrays.items():
        assert analytic is not None, name
        numeric = _numeric_grad(loss, data)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6, err_msg=name)


def _weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    # A random linear readout: every output element gets a distinct gradient.
    return (out * Tensor(weights)).sum()


@pytest.mark.parametrize("activation", ["relu", "tanh"])
class TestGRUKernel:
    def test_cell_with_nonzero_initial_state(self, activation):
        cell = GRUCell(2, 3, activation=activation, rng=RNG)
        x = Tensor(RNG.standard_normal((4, 2)), requires_grad=True)
        h0 = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        readout = RNG.standard_normal((4, 3))

        def loss():
            return _weighted_sum(cell(x, h0), readout)

        loss().backward()
        arrays = {name: (p.data, p.grad) for name, p in cell.named_parameters()}
        arrays.update(x=(x.data, x.grad), h0=(h0.data, h0.grad))
        _check(loss, arrays)

    @pytest.mark.parametrize("timesteps", [1, 4])
    def test_layer_return_sequences(self, activation, timesteps):
        gru = GRU(2, 3, activation=activation, return_sequences=True, rng=RNG)
        x = Tensor(RNG.standard_normal((3, timesteps, 2)), requires_grad=True)
        readout = RNG.standard_normal((3, timesteps, 3))

        def loss():
            return _weighted_sum(gru(x), readout)

        loss().backward()
        arrays = {name: (p.data, p.grad) for name, p in gru.named_parameters()}
        arrays["x"] = (x.data, x.grad)
        _check(loss, arrays)

    def test_single_timestep_last_state(self, activation):
        gru = GRU(1, 4, activation=activation, rng=RNG)
        x = Tensor(RNG.standard_normal((5, 1, 1)), requires_grad=True)
        readout = RNG.standard_normal((5, 4))

        def loss():
            return _weighted_sum(gru(x), readout)

        loss().backward()
        arrays = {name: (p.data, p.grad) for name, p in gru.named_parameters()}
        arrays["x"] = (x.data, x.grad)
        _check(loss, arrays)


class TestLSTMKernel:
    def test_cell_with_nonzero_initial_state(self):
        cell = LSTMCell(2, 3, rng=RNG)
        x = Tensor(RNG.standard_normal((4, 2)), requires_grad=True)
        h0 = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        c0 = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        read_h, read_c = RNG.standard_normal((2, 4, 3))

        def loss():
            h, c = cell(x, h0, c0)
            return _weighted_sum(h, read_h) + _weighted_sum(c, read_c)

        loss().backward()
        arrays = {name: (p.data, p.grad) for name, p in cell.named_parameters()}
        arrays.update(x=(x.data, x.grad), h0=(h0.data, h0.grad), c0=(c0.data, c0.grad))
        _check(loss, arrays)

    @pytest.mark.parametrize("timesteps", [1, 4])
    def test_layer_return_sequences(self, timesteps):
        lstm = LSTM(2, 3, return_sequences=True, rng=RNG)
        x = Tensor(RNG.standard_normal((3, timesteps, 2)), requires_grad=True)
        readout = RNG.standard_normal((3, timesteps, 3))

        def loss():
            return _weighted_sum(lstm(x), readout)

        loss().backward()
        arrays = {name: (p.data, p.grad) for name, p in lstm.named_parameters()}
        arrays["x"] = (x.data, x.grad)
        _check(loss, arrays)

    def test_single_timestep_last_state(self):
        lstm = LSTM(1, 4, rng=RNG)
        x = Tensor(RNG.standard_normal((5, 1, 1)), requires_grad=True)
        readout = RNG.standard_normal((5, 4))

        def loss():
            return _weighted_sum(lstm(x), readout)

        loss().backward()
        arrays = {name: (p.data, p.grad) for name, p in lstm.named_parameters()}
        arrays["x"] = (x.data, x.grad)
        _check(loss, arrays)


class TestKernelContract:
    def test_gru_parameter_gradients_written_into_out(self):
        weights = GRUCell(2, 3, rng=RNG).weights
        x = RNG.standard_normal((4, 5, 2))
        out, cache = ops.gru_sequence_forward(x, None, *(w.data for w in weights))
        grad = RNG.standard_normal(out.shape)
        fresh = ops.gru_sequence_backward(grad, cache, input_grad=False, state_grad=False)
        targets = [np.full_like(w.data, np.nan) for w in weights]
        ops.gru_sequence_backward(grad, cache, input_grad=False, state_grad=False, out=targets)
        assert fresh[:2] == (None, None)
        for expected, written in zip(fresh[2:], targets):
            assert expected.tobytes() == written.tobytes()

    def test_zero_timesteps_pass_the_state_through(self):
        weights = LSTMCell(2, 3, rng=RNG).weights
        x = np.empty((4, 0, 2))
        h0, c0 = RNG.standard_normal((2, 4, 3))
        out, c_last, cache = ops.lstm_sequence_forward(x, h0, c0, *(w.data for w in weights))
        np.testing.assert_array_equal(out, h0)
        np.testing.assert_array_equal(c_last, c0)
        grad, grad_c = RNG.standard_normal((2, 4, 3))
        d_seq, d_h0, d_c0, *d_weights = ops.lstm_sequence_backward(grad, cache, grad_c=grad_c)
        assert d_seq.shape == x.shape
        np.testing.assert_array_equal(d_h0, grad)
        np.testing.assert_array_equal(d_c0, grad_c)
        assert all(not d.any() for d in d_weights)

    def test_layers_record_one_tape_node(self):
        gru = GRU(1, 3, rng=RNG)
        out = gru(Tensor(RNG.standard_normal((2, 6, 1))))
        # parents: the input sequence plus the nine cell weights
        assert len(out._parents) == 10
        lstm = LSTM(1, 3, rng=RNG)
        assert len(lstm(Tensor(RNG.standard_normal((2, 6, 1))))._parents) == 13

    def test_unknown_activation_rejected(self):
        weights = GRUCell(1, 2, rng=RNG).weights
        with pytest.raises(ValueError, match="unknown activation"):
            ops.gru_sequence_forward(np.zeros((1, 2, 1)), None, *(w.data for w in weights), act="softmax")
