"""Env2Vec's compiled training step reproduces the tape bitwise.

``Trainer.fit`` trains an :class:`Env2VecModel` with a single-layer encoder
through the tape-free step registered in :mod:`repro.core.model`; a loss
that is not the ``mse_loss`` function itself (here: a wrapper computing the
same MSE) keeps the same fit on the autograd tape. The two must publish the
same bytes: every parameter and every loss value, for every registered
encoder and head, with and without dropout and unknown-dropout, across a
ragged last batch and an early-stopping restore.
"""

import itertools

import numpy as np
import pytest

from repro.core.embeddings import EnvironmentVocabulary
from repro.core.model import PREDICTION_HEADS, Env2VecModel, Env2VecRegressor
from repro.data import TelecomConfig, generate_telecom
from repro.data.environment import Environment
from repro.nn import Adam, EarlyStopping, ReduceLROnPlateau, Trainer, available_encoders, mse_loss
from repro.obs import get_observability
from repro.workflow import TestingCampaign

COMPILED_ENCODERS = {"gru", "lstm"}


def _steps(path: str) -> float:
    for sample in get_observability().registry.samples():
        if sample.name == "repro_nn_train_steps_total" and sample.labels == {"path": path}:
            return sample.value
    return 0.0


def _tape_mse(predicted, target):
    return mse_loss(predicted, target)


def _data(seed=2):
    rng = np.random.default_rng(seed)
    pool = [
        Environment(testbed=f"tb{i % 3}", sut=f"sut{i % 2}", testcase=f"tc{i % 4}", build=f"b{i}")
        for i in range(6)
    ]
    n = 57  # 45 train rows: batches of 16, 16 and a ragged 13
    envs = [pool[i] for i in rng.integers(0, len(pool), n)]
    vocabulary = EnvironmentVocabulary().fit(envs)
    cf = rng.standard_normal((n, 3))
    history = rng.standard_normal((n, 4))
    history[::7, 2] = 0.0  # exact zeros through the recurrent input kernels
    y = history.sum(axis=1) + cf[:, 0] + 0.1 * rng.standard_normal(n)
    inputs = {"cf": cf, "history": history, "env": vocabulary.encode(envs)}
    train = {key: value[:45] for key, value in inputs.items()}
    val = {key: value[45:] for key, value in inputs.items()}
    return vocabulary, train, y[:45], val, y[45:]


def _fit(encoder, head, dropout, unknown_dropout, loss="mse", **trainer_kwargs):
    vocabulary, train, y, val, val_y = _data()
    rng = np.random.default_rng(5)  # one generator: init, shuffles and masks interleave
    model = Env2VecModel(
        n_features=3, n_lags=4, vocabulary=vocabulary, embedding_dim=3, fnn_hidden=6,
        gru_hidden=4, dropout=dropout, head=head, unknown_dropout=unknown_dropout,
        encoder=encoder, rng=rng,
    )
    trainer = Trainer(
        model, loss=loss, lr=0.02, batch_size=16, max_epochs=4, rng=rng,
        # min_delta this large stops after the second epoch and restores the first
        early_stopping=EarlyStopping(patience=1, min_delta=1e9), **trainer_kwargs,
    )
    history = trainer.fit(train, y, val, val_y)
    return [p.data.tobytes() for p in model.parameters()], history


@pytest.mark.parametrize(
    "encoder,head,dropout,unknown_dropout",
    list(itertools.product(available_encoders(), PREDICTION_HEADS, (0.0, 0.1), (0.0, 0.05))),
)
def test_compiled_step_matches_tape_bitwise(encoder, head, dropout, unknown_dropout):
    before = _steps("compiled")
    compiled_params, compiled = _fit(encoder, head, dropout, unknown_dropout)
    ran_compiled = _steps("compiled") - before
    tape_before = _steps("tape")
    tape_params, tape = _fit(encoder, head, dropout, unknown_dropout, loss=_tape_mse)
    assert _steps("tape") - tape_before == 6  # 2 epochs x 3 batches, all on the tape
    assert ran_compiled == (6 if encoder in COMPILED_ENCODERS else 0)
    assert compiled.stopped_epoch == tape.stopped_epoch == 1
    assert compiled.train_loss == tape.train_loss
    assert compiled.val_loss == tape.val_loss
    assert compiled_params == tape_params


@pytest.mark.parametrize("encoder", sorted(COMPILED_ENCODERS))
def test_weight_decay_and_lr_schedule_match_the_tape(encoder):
    def fit(loss):
        vocabulary, train, y, val, val_y = _data(seed=4)
        rng = np.random.default_rng(8)
        model = Env2VecModel(3, 4, vocabulary, embedding_dim=3, fnn_hidden=5, gru_hidden=3,
                             encoder=encoder, unknown_dropout=0.05, rng=rng)
        scheduler = ReduceLROnPlateau(patience=1, factor=0.5, min_delta=1e9)
        trainer = Trainer(
            model, loss=loss, optimizer=Adam(model.parameters(), lr=0.05, weight_decay=0.1),
            batch_size=16, max_epochs=4, lr_scheduler=scheduler, rng=rng,
        )
        history = trainer.fit(train, y, val, val_y)
        assert scheduler.reductions > 0  # later epochs step at the lowered lr
        return [p.data.tobytes() for p in model.parameters()], history.train_loss

    assert fit("mse") == fit(_tape_mse)


def test_refit_after_restore_matches_the_tape():
    """load_state_dict rebinds every .data; the next fit must still train them."""

    def two_fits(loss):
        vocabulary, train, y, val, val_y = _data()
        rng = np.random.default_rng(6)
        model = Env2VecModel(3, 4, vocabulary, embedding_dim=3, fnn_hidden=5, gru_hidden=3, rng=rng)
        trainer = Trainer(model, loss=loss, batch_size=16, max_epochs=3, rng=rng,
                          early_stopping=EarlyStopping(patience=1, min_delta=1e9))
        trainer.fit(train, y, val, val_y)
        restored = [p.data.copy() for p in model.parameters()]
        trainer.early_stopping = None
        trainer.fit(train, y)  # same optimizer, rebound arrays
        moved = [not np.array_equal(p.data, r) for p, r in zip(model.parameters(), restored)]
        assert all(moved)
        return [p.data.tobytes() for p in model.parameters()]

    assert two_fits("mse") == two_fits(_tape_mse)


def test_embeddings_only_fine_tune_stays_on_the_tape():
    vocabulary, train, y, _, _ = _data()
    envs = [Environment(testbed="tb0", sut="sut0", testcase="tc0", build=f"b{i % 6}") for i in range(45)]
    regressor = Env2VecRegressor(n_lags=4, fnn_hidden=5, gru_hidden=3, embedding_dim=3,
                                 max_epochs=1, batch_size=16)
    regressor.fit(envs, train["cf"], train["history"], y)
    before = {path: _steps(path) for path in ("tape", "compiled")}
    regressor.fine_tune(envs[:20], train["cf"][:20], train["history"][:20], y[:20], epochs=1)
    assert _steps("tape") - before["tape"] == 2
    assert _steps("compiled") == before["compiled"]


def _campaign_dataset():
    return generate_telecom(
        TelecomConfig(
            n_chains=4, n_testbeds=2, builds_per_chain=(3, 3), timesteps_per_build=(40, 44),
            n_focus=1, include_rare_testbed=False, seed=3,
        )
    )


def test_default_campaign_trains_only_compiled():
    before = {path: _steps(path) for path in ("tape", "compiled")}
    TestingCampaign(model_params={"max_epochs": 2, "batch_size": 64}).run(_campaign_dataset())
    assert _steps("compiled") > before["compiled"]
    assert _steps("tape") == before["tape"]


def test_stacked_encoder_campaign_trains_on_the_tape():
    before = {path: _steps(path) for path in ("tape", "compiled")}
    TestingCampaign(
        model_params={"max_epochs": 1, "batch_size": 64, "encoder": "stacked"}
    ).run(_campaign_dataset())
    assert _steps("tape") > before["tape"]
    assert _steps("compiled") == before["compiled"]
