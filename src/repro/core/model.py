"""The Env2Vec deep-learning architecture (paper §3.1, §3.2, Appendix A).

Three input branches feed a combination layer:

- an **FNN** with one sigmoid hidden layer over the contextual features
  ``a_t`` produces ``v_fs``;
- a **sequence encoder** over the RU-history window
  ``{y_{p-n}, ..., y_{p-1}}`` produces ``v_ts`` — the paper's GRU (ReLU
  candidate activation, Appendix A) by default, or any variant from the
  :mod:`repro.nn.encoders` registry via ``encoder="lstm"``,
  ``"stacked"``, ``"bidirectional"``, ``"attention"``, ...;
- per-EM-field **embedding lookup tables** produce the concatenated
  environment embedding ``C = [ec^1, ..., ec^k]`` (eq. 1).

``v_s = [v_ts, v_fs]`` passes through a dense layer to ``v_d`` with
``dim(v_d) == dim(C)``, and the prediction is the sum of the Hadamard
product (eq. 2): ``y'_p = Σ v_d ⊙ C``. §3.2 notes two alternatives with
similar results — a bilinear form ``v_d · R · C`` and an MLP over
``[v_d, C]`` — both implemented here as ``head`` options and exercised by
the head ablation benchmark.

:class:`Env2VecModel` is the raw autograd module; :class:`Env2VecRegressor`
is the user-facing estimator handling vocabulary fitting, feature/target
standardization, training with early stopping, and inverse-scaled
prediction.
"""

from __future__ import annotations


import numpy as np

from ..data.environment import EM_FIELDS, Environment
from ..ml.base import Estimator
from ..ml.preprocessing import StandardScaler
from ..obs import active_profiler, get_observability
from ..nn import init as initializers
from ..nn import ops
from ..nn.encoders import create_encoder, resolve_encoder_name
from ..nn.inference import (
    CompiledDense,
    EmbeddingRowCache,
    InferenceModel,
    compile_module,
    compile_plan,
    register_compiler,
    snapshot,
)
from ..nn.layers import Dense, Dropout, Module
from ..nn.tensor import Tensor, no_grad
from ..nn.training import (
    EarlyStopping,
    Trainer,
    TrainingHistory,
    TrainStep,
    compile_train_step,
    register_train_step,
)
from .embeddings import EnvironmentEmbeddings, EnvironmentVocabulary

__all__ = ["Env2VecModel", "Env2VecRegressor", "PREDICTION_HEADS"]

PREDICTION_HEADS = ("hadamard", "bilinear", "mlp")

_OBS = get_observability()
_H_COMPILE = _OBS.histogram(
    "repro_model_compile_seconds",
    "Time for Env2VecRegressor.compile (snapshot + plan build).",
)
_M_PREDICTIONS = _OBS.counter(
    "repro_predictions_total", "Individual RU predictions served by Env2VecRegressor."
)


class Env2VecModel(Module):
    """FNN + sequence encoder + environment embeddings with a Hadamard head."""

    def __init__(
        self,
        n_features: int,
        n_lags: int,
        vocabulary: EnvironmentVocabulary,
        embedding_dim: int = 10,
        fnn_hidden: int = 64,
        gru_hidden: int = 16,
        dropout: float = 0.1,
        head: str = "hadamard",
        unknown_dropout: float = 0.0,
        encoder: str | None = None,
        use_attention: bool | None = None,
        recurrent_unit: str | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if head not in PREDICTION_HEADS:
            raise ValueError(f"unknown head {head!r}; choose from {PREDICTION_HEADS}")
        encoder_name = resolve_encoder_name(encoder, recurrent_unit, use_attention)
        if n_lags < 1:
            raise ValueError("n_lags must be >= 1")
        rng = initializers.ensure_rng(rng)
        self.n_features = n_features
        self.n_lags = n_lags
        self.head = head
        self.encoder_name = encoder_name
        # FNN branch: one sigmoid hidden layer (Appendix A).
        self.fnn = Dense(n_features, fnn_hidden, activation="sigmoid", rng=rng)
        self.fnn_dropout = Dropout(dropout, rng=rng)
        # Time-series branch over the univariate RU history: any registered
        # SequenceEncoder (the paper's GRU with ReLU candidate, Appendix A,
        # by default; the §6 attention extension keeps all hidden states and
        # pools them by additive attention).
        self.encoder = create_encoder(encoder_name, 1, gru_hidden, rng=rng)
        # Embedding branch (with <unk>-row training via unknown-dropout).
        self.embeddings = EnvironmentEmbeddings(
            vocabulary, embedding_dim, unknown_dropout=unknown_dropout, rng=rng
        )
        c_dim = self.embeddings.output_dim
        # Dense combination layer: v_s -> v_d with dim(v_d) == dim(C).
        self.combine = Dense(fnn_hidden + self.encoder.output_dim, c_dim, rng=rng)
        if head == "bilinear":
            from ..nn.layers import Parameter

            self.bilinear = Parameter(
                initializers.glorot_uniform((c_dim, c_dim), rng), name="bilinear"
            )
        elif head == "mlp":
            self.head_hidden = Dense(2 * c_dim, c_dim, activation="relu", rng=rng)
            self.head_out = Dense(c_dim, 1, rng=rng)

    @property
    def use_attention(self) -> bool:
        """Deprecated alias: whether the encoder pools with attention."""
        return "attention" in self.encoder_name

    @property
    def recurrent_unit(self) -> str:
        """Deprecated alias: the recurrent-cell family behind the encoder."""
        return "lstm" if self.encoder_name.startswith("lstm") else "gru"

    def _check_inputs(self, cf: np.ndarray, history: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        cf = np.asarray(cf, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        if cf.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} contextual features, got {cf.shape[1]}")
        if history.shape[1] != self.n_lags:
            raise ValueError(f"expected history window of {self.n_lags}, got {history.shape[1]}")
        return cf, history

    def forward(self, cf: np.ndarray, history: np.ndarray, env: np.ndarray) -> Tensor:
        """Predict ``y'_p`` for a batch.

        ``cf``: (batch, n_features) contextual features;
        ``history``: (batch, n_lags) previous RU values, oldest first;
        ``env``: (batch, n_fields) integer EM ids.
        """
        cf, history = self._check_inputs(cf, history)
        v_fs = self.fnn_dropout(self.fnn(Tensor(cf)))
        v_ts = self.encoder(Tensor(history[:, :, None]))
        v_s = Tensor.concat([v_ts, v_fs], axis=1)
        v_d = self.combine(v_s)
        c = self.embeddings(env)
        if self.head == "hadamard":
            return (v_d * c).sum(axis=1)
        if self.head == "bilinear":
            return ((v_d @ self.bilinear) * c).sum(axis=1)
        merged = Tensor.concat([v_d, c], axis=1)
        return self.head_out(self.head_hidden(merged)).reshape(-1)


@register_train_step(Env2VecModel)
def _train_env2vec(model: Env2VecModel, grad_of) -> TrainStep | None:
    """Compiled training step for the full Env2Vec architecture.

    Mirrors :meth:`Env2VecModel.forward` in training mode on the tape's own
    kernels and in its order: the FNN dense layer and its dropout (one mask
    draw), the encoder's registered training pair (an encoder without one
    keeps the whole model on the tape), the combination layer, the
    per-field embedding gathers (one ``<unk>`` draw per field), and the
    head evaluated as the tape evaluates it — a multiply and a row sum,
    not the inference engine's ``einsum``. The backward pass hands each
    gradient to the matching ``ops`` backward kernel; the embedding tables
    get their scatter-add as a segment sum.
    """
    encoder = compile_train_step(model.encoder, grad_of)
    if encoder is None:
        return None
    dropout, embeddings = model.fnn_dropout, model.embeddings
    tables = [embeddings.tables[field] for field in embeddings.vocabulary.fields]
    head, split, width = model.head, model.encoder.output_dim, embeddings.embedding_dim
    workspace = ops.Workspace()  # this fit's activations, reused batch to batch

    def dense(name: str, x: np.ndarray):
        layer = getattr(model, name)
        return ops.dense_forward(
            x, layer.weight.data, layer.bias.data, layer.activation_name,
            workspace=workspace.child(name),
        )

    def put_dense(name: str, grad: np.ndarray, cache: dict, input_grad: bool = True):
        layer = getattr(model, name)
        d_x, d_weight, d_bias = ops.dense_backward(grad, cache, input_grad=input_grad)
        grad_of(layer.weight)[...] = d_weight
        grad_of(layer.bias)[...] = d_bias
        return d_x

    def concat(name: str, parts: list[np.ndarray]) -> np.ndarray:
        shape = (len(parts[0]), sum(part.shape[1] for part in parts))
        return np.concatenate(parts, axis=1, out=workspace.empty(name, shape))

    def forward(cf: np.ndarray, history: np.ndarray, env: np.ndarray):
        cf, history = model._check_inputs(cf, history)
        v_fs, fnn_cache = dense("fnn", cf)
        drop_cache = None
        if dropout.training and dropout.rate != 0.0:
            v_fs, drop_cache = ops.dropout_forward(
                v_fs, dropout.rate, dropout.rng, workspace=workspace.child("fnn_dropout")
            )
        v_ts, encoder_cache = encoder.forward(history[:, :, None])
        v_d, combine_cache = dense("combine", concat("v_s", [v_ts, v_fs]))
        gathered = [
            ops.embedding_forward(table.weight.data, column)
            for table, column in zip(tables, embeddings.field_ids(env))
        ]
        c = concat("c", [rows for rows, _ in gathered])
        head_cache = None
        if head == "hadamard":
            predicted = np.multiply(v_d, c, out=workspace.empty("product", c.shape)).sum(axis=1)
        elif head == "bilinear":
            head_cache = v_d @ model.bilinear.data
            predicted = np.multiply(head_cache, c, out=workspace.empty("product", c.shape)).sum(axis=1)
        else:
            hidden, hidden_cache = dense("head_hidden", concat("merged", [v_d, c]))
            out, out_cache = dense("head_out", hidden)
            predicted, head_cache = out.reshape(-1), (hidden_cache, out_cache)
        caches = (fnn_cache, drop_cache, encoder_cache, combine_cache, gathered, v_d, c, head_cache)
        return predicted, caches

    def backward(d_predicted: np.ndarray, caches) -> None:
        fnn_cache, drop_cache, encoder_cache, combine_cache, gathered, v_d, c, head_cache = caches
        if head == "hadamard":
            d_v_d, d_c = ops.hadamard_head_backward(d_predicted, v_d, c)
        elif head == "bilinear":
            d_v_d, d_bilinear, d_c = ops.bilinear_head_backward(
                d_predicted, v_d, model.bilinear.data, c, head_cache
            )
            grad_of(model.bilinear)[...] = d_bilinear
        else:
            hidden_cache, out_cache = head_cache
            d_hidden = put_dense("head_out", d_predicted.reshape(-1, 1), out_cache)
            d_merged = put_dense("head_hidden", d_hidden, hidden_cache)
            d_v_d, d_c = d_merged[:, : c.shape[1]], d_merged[:, c.shape[1] :]
        for k, (table, (_, cache)) in enumerate(zip(tables, gathered)):
            piece = d_c[:, k * width : (k + 1) * width]
            grad_of(table.weight)[...] = ops.embedding_backward(piece, cache)[0]
        d_v_s = put_dense("combine", d_v_d, combine_cache)
        d_v_fs = d_v_s[:, split:]
        if drop_cache is not None:
            d_v_fs = ops.dropout_backward(d_v_fs, drop_cache)[0]
        put_dense("fnn", d_v_fs, fnn_cache, input_grad=False)
        encoder.backward(d_v_s[:, :split], encoder_cache)

    return TrainStep(forward, backward)


@register_compiler(Env2VecModel)
def _compile_env2vec(model: Env2VecModel, dtype: np.dtype):
    """Compile rule for the full Env2Vec architecture.

    Mirrors :meth:`Env2VecModel.forward` in eval mode: dropout and
    unknown-dropout are elided, the time-series branch embeds the
    encoder's own registered plan (fused sequence kernels), and the
    embedding branch is served from an LRU :class:`EmbeddingRowCache`
    keyed by the env-id tuple.
    """
    fnn = CompiledDense(model.fnn, dtype)
    encoder = compile_plan(model.encoder, dtype)
    combine = CompiledDense(model.combine, dtype)
    env_cache = EmbeddingRowCache(model.embeddings.table_arrays(), dtype)
    head = model.head
    if head == "bilinear":
        bilinear = snapshot(model.bilinear.data, dtype)
    elif head == "mlp":
        head_hidden = CompiledDense(model.head_hidden, dtype)
        head_out = CompiledDense(model.head_out, dtype)
    n_features, n_lags = model.n_features, model.n_lags

    def forward(cf: np.ndarray, history: np.ndarray, env: np.ndarray) -> np.ndarray:
        cf = np.asarray(cf, dtype=dtype)
        history = np.asarray(history, dtype=dtype)
        if cf.shape[1] != n_features:
            raise ValueError(f"expected {n_features} contextual features, got {cf.shape[1]}")
        if history.shape[1] != n_lags:
            raise ValueError(f"expected history window of {n_lags}, got {history.shape[1]}")
        prof = active_profiler()
        if prof is not None:
            return _profiled_forward(prof, cf, history, env)
        v_fs = fnn(cf)
        v_ts = encoder(history[:, :, None])
        v_d = combine(np.concatenate([v_ts, v_fs], axis=1))
        c = env_cache.rows(env)
        if head == "hadamard":
            return ops.hadamard_head(v_d, c)
        if head == "bilinear":
            return ops.bilinear_head(v_d, bilinear, c)[0]
        return head_out(head_hidden(np.concatenate([v_d, c], axis=1))).reshape(-1)

    def _profiled_forward(prof, cf: np.ndarray, history: np.ndarray, env: np.ndarray) -> np.ndarray:
        # Same ops, same order as the fast path — only timing added.
        with prof.op("fnn"):
            v_fs = fnn(cf)
        with prof.op("encoder"):
            v_ts = encoder(history[:, :, None])
        with prof.op("combine"):
            v_d = combine(np.concatenate([v_ts, v_fs], axis=1))
        with prof.op("env_rows"):
            c = env_cache.rows(env)
        with prof.op("head"):
            if head == "hadamard":
                return ops.hadamard_head(v_d, c)
            if head == "bilinear":
                return ops.bilinear_head(v_d, bilinear, c)[0]
            return head_out(head_hidden(np.concatenate([v_d, c], axis=1))).reshape(-1)

    forward.env_cache = env_cache
    return forward


class Env2VecRegressor(Estimator):
    """High-level estimator: vocabulary + scaling + training + prediction.

    ``fit`` consumes per-sample environments plus aligned contextual
    features, RU-history windows, and targets (as produced by
    :func:`repro.data.windows.build_windows_multi`). The time-series
    branch is selected by ``encoder`` (any name from
    :func:`repro.nn.available_encoders`); ``use_attention`` and
    ``recurrent_unit`` survive as deprecated aliases and normalize into
    ``encoder`` at construction.
    """

    def __init__(
        self,
        n_lags: int = 3,
        embedding_dim: int = 10,
        fnn_hidden: int = 64,
        gru_hidden: int = 16,
        dropout: float = 0.1,
        head: str = "hadamard",
        unknown_dropout: float = 0.05,
        encoder: str | None = None,
        use_attention: bool | None = None,
        recurrent_unit: str | None = None,
        em_fields: tuple[str, ...] = EM_FIELDS,
        lr: float = 0.005,
        batch_size: int = 256,
        max_epochs: int = 60,
        patience: int = 8,
        seed: int = 0,
    ):
        self.n_lags = n_lags
        self.em_fields = tuple(em_fields)
        self.embedding_dim = embedding_dim
        self.fnn_hidden = fnn_hidden
        self.gru_hidden = gru_hidden
        self.dropout = dropout
        self.head = head
        self.unknown_dropout = unknown_dropout
        # Normalize the deprecated aliases away immediately so get_params/
        # clone round-trip through the canonical encoder name alone.
        self.encoder = resolve_encoder_name(encoder, recurrent_unit, use_attention)
        self.use_attention = None
        self.recurrent_unit = None
        self.lr = lr
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.seed = seed
        self.model: Env2VecModel | None = None
        self.vocabulary: EnvironmentVocabulary | None = None
        self.history_: TrainingHistory | None = None
        self._engine: InferenceModel | None = None

    # -- internals --------------------------------------------------------
    def _scale_inputs(self, X, history):
        X = self._x_scaler.transform(np.asarray(X, dtype=np.float64))
        history = (np.asarray(history, dtype=np.float64) - self._y_mean) / self._y_std
        return X, history

    def _batch(self, environments, X, history):
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        if not (len(environments) == len(X) == len(history)):
            raise ValueError("environments, X and history must be aligned")
        X, history = self._scale_inputs(X, history)
        env_ids = self.vocabulary.encode(list(environments))
        return {"cf": X, "history": history, "env": env_ids}

    # -- estimator API ------------------------------------------------------
    def fit(
        self,
        environments: list[Environment],
        X: np.ndarray,
        history: np.ndarray,
        y: np.ndarray,
        val: tuple[list[Environment], np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> "Env2VecRegressor":
        X = np.asarray(X, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not (len(environments) == len(X) == len(history) == len(y)):
            raise ValueError("environments, X, history and y must be aligned")
        if history.shape[1] != self.n_lags:
            raise ValueError(f"history window must have {self.n_lags} columns; got {history.shape[1]}")

        rng = np.random.default_rng(self.seed)
        self.vocabulary = EnvironmentVocabulary(fields=self.em_fields).fit(list(environments))
        self._x_scaler = StandardScaler().fit(X)
        self._y_mean = float(y.mean())
        self._y_std = float(y.std()) or 1.0

        self.model = Env2VecModel(
            n_features=X.shape[1],
            n_lags=self.n_lags,
            vocabulary=self.vocabulary,
            embedding_dim=self.embedding_dim,
            fnn_hidden=self.fnn_hidden,
            gru_hidden=self.gru_hidden,
            dropout=self.dropout,
            head=self.head,
            unknown_dropout=self.unknown_dropout,
            encoder=self.encoder,
            rng=rng,
        )
        inputs = self._batch(environments, X, history)
        targets = (y - self._y_mean) / self._y_std

        val_inputs = val_targets = None
        early_stopping = None
        if val is not None:
            val_envs, val_X, val_history, val_y = val
            val_inputs = self._batch(list(val_envs), val_X, val_history)
            val_targets = (np.asarray(val_y, dtype=np.float64) - self._y_mean) / self._y_std
            early_stopping = EarlyStopping(patience=self.patience)

        trainer = Trainer(
            self.model,
            loss="mse",
            lr=self.lr,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            early_stopping=early_stopping,
            rng=rng,
        )
        self.history_ = trainer.fit(inputs, targets, val_inputs, val_targets)
        self._engine = None  # weights changed; any compiled engine is stale
        self._fitted = True
        return self

    def compile(self, dtype=np.float64) -> InferenceModel:
        """Snapshot the fitted model into a tape-free inference engine.

        The engine is cached and reused by :meth:`predict` until the next
        ``fit``/``fine_tune`` invalidates it. Pass ``np.float32`` to halve
        the weight footprint (at float32 accuracy).
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        with _H_COMPILE.time():
            self.model.eval()
            self._engine = compile_module(self.model, dtype=dtype)
        return self._engine

    def _ensure_engine(self) -> InferenceModel:
        if self._engine is None:
            self.compile()
        return self._engine

    def ensure_compiled(self, dtype=None) -> InferenceModel:
        """Compile on first use, else return the cached engine.

        The parallel campaign executor calls this once before fanning
        out so worker threads never race the lazy first-predict compile.
        With ``dtype`` set, the cached engine is recompiled if it was
        built at a different precision (serving callers pick float32 for
        batch throughput; float64 remains the default everywhere).
        """
        if dtype is not None and (self._engine is None or self._engine.dtype != np.dtype(dtype)):
            return self.compile(dtype=dtype)
        return self._ensure_engine()

    def predict(
        self,
        environments: list[Environment],
        X: np.ndarray,
        history: np.ndarray,
        compiled: bool = True,
    ) -> np.ndarray:
        """Inverse-scaled predictions for aligned environments/features/windows.

        By default this runs the compiled tape-free engine (compiling on
        first use). ``compiled=False`` keeps the autograd forward under
        ``no_grad`` — slower, retained as the parity/benchmark baseline.
        """
        batch = self._batch(environments, X, history)
        if compiled:
            scaled = self._ensure_engine().predict(batch, batch_size=self.batch_size)
        else:
            self.model.eval()
            outputs = []
            with no_grad():
                for start in range(0, len(X), self.batch_size):
                    chunk = {k: v[start : start + self.batch_size] for k, v in batch.items()}
                    outputs.append(self.model(**chunk).numpy())
            scaled = np.concatenate(outputs, axis=0)
        _M_PREDICTIONS.inc(len(scaled))
        return scaled * self._y_std + self._y_mean

    def embed_environments(self, environments: list[Environment]) -> np.ndarray:
        """Concatenated learned embeddings (for Figure 6-style analysis)."""
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.model.embeddings.embed_environments(list(environments))

    def fine_tune(
        self,
        environments: list[Environment],
        X: np.ndarray,
        history: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        lr: float | None = None,
        adapt_embeddings_only: bool = True,
    ) -> "Env2VecRegressor":
        """Incrementally retrain on new data without starting over.

        §4.3 closes with: the reduced detection in unseen environments "is
        resolved by retraining Env2Vec incrementally with the new data from
        the environment." This grows the vocabulary and embedding tables
        for any new EM values (new rows start at the trained ``<unk>``
        embedding) and continues optimization on the new examples with a
        reduced learning rate. Feature/target scaling is kept from the
        original fit so old and new data remain comparable.

        With ``adapt_embeddings_only`` (the default) only the embedding
        tables receive updates: the FNN/GRU backbone already models the
        shared physics, and freezing it prevents a narrow batch of
        new-environment data from catastrophically shifting predictions for
        every other environment. Pass ``False`` for a full-parameter update
        (then the data should include replay examples from old
        environments).
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        X = np.asarray(X, dtype=np.float64)
        history = np.asarray(history, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if not (len(environments) == len(X) == len(history) == len(y)):
            raise ValueError("environments, X, history and y must be aligned")

        added = self.vocabulary.extend(list(environments))
        self.model.embeddings.grow_tables(added)

        inputs = self._batch(environments, X, history)
        targets = (y - self._y_mean) / self._y_std
        if adapt_embeddings_only:
            parameters = list(self.model.embeddings.parameters())
        else:
            parameters = list(self.model.parameters())
        from ..nn.optim import Adam

        trainer = Trainer(
            self.model,
            loss="mse",
            optimizer=Adam(parameters, lr=lr if lr is not None else self.lr * 0.3),
            batch_size=min(self.batch_size, max(1, len(y))),
            max_epochs=epochs,
            rng=np.random.default_rng(self.seed + 1),
        )
        trainer.fit(inputs, targets)
        self._engine = None  # tables grew and weights moved; recompile lazily
        return self

    def coverage(self, environment: Environment) -> dict[str, bool]:
        """Which EM fields of an environment are known to the vocabulary."""
        if self.vocabulary is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return self.vocabulary.is_known(environment)

    # -- serialization (used by the workflow's model store) ----------------
    def to_bytes(self) -> bytes:
        """Serialize weights + vocabulary + scaling into one npz blob.

        §6: the full artifact ("a file containing the environment
        embeddings and the DL model") is what the training pipeline
        publishes over HTTP.
        """
        if self.model is None:
            raise RuntimeError("model is not fitted; call fit() first")
        from ..nn.serialize import save_model_bytes

        config = {
            "hyper": {
                "n_lags": self.n_lags,
                "embedding_dim": self.embedding_dim,
                "fnn_hidden": self.fnn_hidden,
                "gru_hidden": self.gru_hidden,
                "dropout": self.dropout,
                "head": self.head,
                "unknown_dropout": self.unknown_dropout,
                "encoder": self.encoder,
            },
            "n_features": self.model.n_features,
            "vocabulary": self.vocabulary.to_config(),
            "x_mean": self._x_scaler.mean_.tolist(),
            "x_scale": self._x_scaler.scale_.tolist(),
            "y_mean": self._y_mean,
            "y_std": self._y_std,
        }
        return save_model_bytes(self.model, config)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Env2VecRegressor":
        """Reconstruct a fitted regressor from :meth:`to_bytes` output.

        Construction runs under :func:`repro.nn.init.deferred_init`: every
        parameter is about to be overwritten by ``load_state_dict``, so the
        usual Glorot/orthogonal draws (a QR decomposition per recurrent
        kernel) would be thrown away. The deserialized regressor predicts
        through the compiled inference path directly — no Trainer needed.
        """
        from ..nn.serialize import load_model_bytes

        state, config = load_model_bytes(blob)
        hyper = config["hyper"]
        # Legacy blobs (pre-registry) stored the alias pair instead of the
        # canonical encoder name; resolve through the same alias table.
        encoder_name = hyper.get("encoder") or resolve_encoder_name(
            None, hyper.get("recurrent_unit"), hyper.get("use_attention")
        )
        regressor = cls(
            n_lags=hyper["n_lags"],
            embedding_dim=hyper["embedding_dim"],
            fnn_hidden=hyper["fnn_hidden"],
            gru_hidden=hyper["gru_hidden"],
            dropout=hyper["dropout"],
            head=hyper["head"],
            unknown_dropout=hyper.get("unknown_dropout", 0.0),
            encoder=encoder_name,
        )
        regressor.vocabulary = EnvironmentVocabulary.from_config(config["vocabulary"])
        with initializers.deferred_init():
            regressor.model = Env2VecModel(
                n_features=config["n_features"],
                n_lags=hyper["n_lags"],
                vocabulary=regressor.vocabulary,
                embedding_dim=hyper["embedding_dim"],
                fnn_hidden=hyper["fnn_hidden"],
                gru_hidden=hyper["gru_hidden"],
                dropout=hyper["dropout"],
                head=hyper["head"],
                unknown_dropout=hyper.get("unknown_dropout", 0.0),
                encoder=encoder_name,
            )
        regressor.model.load_state_dict(state)
        scaler = StandardScaler()
        scaler.mean_ = np.asarray(config["x_mean"], dtype=np.float64)
        scaler.scale_ = np.asarray(config["x_scale"], dtype=np.float64)
        regressor._x_scaler = scaler
        regressor._y_mean = float(config["y_mean"])
        regressor._y_std = float(config["y_std"])
        regressor._fitted = True
        return regressor
