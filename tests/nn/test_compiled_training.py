"""The pieces of the compiled training step: segment sum, flat Adam, path choice."""

import numpy as np
import pytest

from repro.nn import (
    SGD,
    Adam,
    Dense,
    Module,
    Parameter,
    ReduceLROnPlateau,
    Tensor,
    Trainer,
    ops,
)
from repro.nn.training import compile_train_step
from repro.obs import get_observability

RNG = np.random.default_rng(47)


def _steps(path: str) -> float:
    for sample in get_observability().registry.samples():
        if sample.name == "repro_nn_train_steps_total" and sample.labels == {"path": path}:
            return sample.value
    return 0.0


class TestSegmentSum:
    def _assert_matches_add_at(self, values, ids, rows):
        expected = np.zeros((rows,) + values.shape[1:])
        np.add.at(expected, ids, values)
        got = ops.segment_sum(values, ids, rows)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_duplicate_heavy_ids(self):
        ids = RNG.integers(0, 3, 500)  # ~170 rows per segment, summed in order
        self._assert_matches_add_at(RNG.standard_normal((500, 10)) * 1e3, ids, 7)

    def test_negative_zero_gradients(self):
        values = np.full((6, 4), -0.0)
        values[1] = RNG.standard_normal(4)
        ids = np.array([0, 0, 2, 2, 2, 5])
        self._assert_matches_add_at(values, ids, 6)
        # an untouched row and an all--0.0 row both read +0.0, as with add.at
        assert not np.signbit(ops.segment_sum(values, ids, 6)[2]).any()

    def test_empty_ids(self):
        self._assert_matches_add_at(np.zeros((0, 5)), np.zeros(0, dtype=np.int64), 4)

    def test_strided_gradient_columns(self):
        wide = RNG.standard_normal((64, 30))
        ids = RNG.integers(0, 9, 64)
        self._assert_matches_add_at(wide[:, 10:20], ids, 9)

    def test_take_rows_uses_the_segment_sum(self):
        table = Tensor(RNG.standard_normal((5, 3)), requires_grad=True)
        ids = np.array([4, 1, 1, -1, 0])
        out = table.take_rows(ids)
        np.testing.assert_array_equal(out.numpy(), table.numpy()[ids])
        weights = RNG.standard_normal(out.shape)
        (out * Tensor(weights)).sum().backward()
        expected = np.zeros((5, 3))
        np.add.at(expected, ids, weights)
        assert table.grad.tobytes() == expected.tobytes()
        with pytest.raises(IndexError):
            table.take_rows(np.array([5]))


def _reference_adam(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook per-array Adam update, in its original operation order."""
    state["t"] += 1
    bias1 = 1.0 - beta1 ** state["t"]
    bias2 = 1.0 - beta2 ** state["t"]
    for k, (param, grad) in enumerate(zip(params, grads)):
        if grad is None:
            continue
        m, v = state["m"][k], state["v"][k]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad * grad
        param -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


class TestFlatAdam:
    def _params(self):
        return [Parameter(RNG.standard_normal(shape)) for shape in ((3, 4), (4,), (2, 2, 2))]

    def test_bitwise_matches_per_array_update(self):
        params = self._params()
        reference = [p.data.copy() for p in params]
        state = {"t": 0, "m": [np.zeros_like(r) for r in reference],
                 "v": [np.zeros_like(r) for r in reference]}
        opt = Adam(params, lr=0.05)
        for step in range(6):
            grads = [RNG.standard_normal(p.shape) for p in params]
            if step % 2:
                grads[1] = None  # a gradient-less parameter splits the flat pass
            for p, g in zip(params, grads):
                p.grad = g
            opt.step()
            _reference_adam(reference, grads, state, lr=0.05)
            for p, r in zip(params, reference):
                assert p.data.tobytes() == r.tobytes()

    def test_step_gathered_equals_step(self):
        first = self._params()
        second = [Parameter(p.data.copy()) for p in first]
        a, b = Adam(first, lr=0.01), Adam(second, lr=0.01)
        for _ in range(3):
            grads = [RNG.standard_normal(p.shape) for p in first]
            for p, g in zip(first, grads):
                p.grad = g
            a.step()
            for view, g in zip(b.grad_views, grads):
                view[...] = g
            b.step_gathered()
        for p, q in zip(first, second):
            assert p.data.tobytes() == q.data.tobytes()

    def test_lowered_lr_applies_to_the_next_step(self):
        params = self._params()
        opt = Adam(params, lr=0.1)
        for view in opt.grad_views:
            view[...] = 1.0
        opt.step_gathered()
        before = [p.data.copy() for p in params]
        scheduler = ReduceLROnPlateau(patience=1, factor=0.5)
        scheduler.update(1.0, opt)
        assert scheduler.update(1.0, opt)  # plateau: lr 0.1 -> 0.05
        opt.step_gathered()
        # all-ones gradients: the bias-corrected step is lr * 1 / (1 + eps)
        for p, b in zip(params, before):
            np.testing.assert_allclose(b - p.data, 0.05, rtol=1e-6)

    def test_weight_decay_on_the_gathered_path(self):
        params = self._params()
        start = [p.data.copy() for p in params]
        opt = Adam(params, lr=0.01, weight_decay=0.5)
        for view in opt.grad_views:
            view[...] = 0.0
        opt.step_gathered()
        for p, s in zip(params, start):
            np.testing.assert_allclose(p.data, s - 0.01 * 0.5 * s)

    def test_rebound_data_is_updated(self):
        params = self._params()
        opt = Adam(params, lr=0.1)
        params[0].data = np.zeros(params[0].shape)  # e.g. load_state_dict
        for view in opt.grad_views:
            view[...] = 1.0
        opt.step_gathered()
        np.testing.assert_allclose(params[0].data, -0.1, rtol=1e-6)


class TinyRegressor(Module):
    def __init__(self, rng):
        super().__init__()
        self.hidden = Dense(3, 4, activation="tanh", rng=rng)
        self.out = Dense(4, 1, rng=rng)

    def forward(self, x):
        return self.out(self.hidden(Tensor(x))).reshape(-1)


class TestPathChoice:
    @pytest.fixture
    def data(self):
        x = RNG.standard_normal((30, 3))
        return {"x": x}, x.sum(axis=1)

    def test_model_without_rule_trains_on_the_tape(self, data):
        before = _steps("tape")
        model = TinyRegressor(np.random.default_rng(0))
        Trainer(model, batch_size=8, max_epochs=1, seed=0).fit(*data)
        assert _steps("tape") - before == 4
        assert compile_train_step(model, lambda p: p.data) is None

    def test_sgd_and_lr_scheduler_still_work(self, data):
        model = TinyRegressor(np.random.default_rng(0))
        inputs, targets = data
        trainer = Trainer(
            model, optimizer=SGD(model.parameters(), lr=0.05), batch_size=8, max_epochs=3,
            lr_scheduler=ReduceLROnPlateau(patience=1), seed=0,
        )
        history = trainer.fit(inputs, targets, inputs, targets)
        assert history.train_loss[-1] < history.train_loss[0]
