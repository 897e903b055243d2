"""Environment embeddings (paper §3.1, "Embeddings for environments").

For each EM field (testbed, SUT, testcase, build) there is a lookup table
whose rows are 10-dimensional embeddings, one per field value seen in
training, plus an *unknown* row — "similar to handling unknown words in
NLP, the lookup table also contains an additional unknown vector/embedding
to deal with an unknown environment that has not appeared in the training
data before".

Because each field has its own table, an environment never seen as a whole
can still be embedded by *mix-and-matching* the per-field embeddings it
shares with known environments (§4.3, Figure 5) — the basis for testing
previously unseen environments.
"""

from __future__ import annotations

import numpy as np

from ..data.environment import EM_FIELDS, Environment
from ..ml.preprocessing import LabelEncoder
from ..nn.init import ensure_rng
from ..nn.layers import Embedding, Module
from ..nn.tensor import Tensor

__all__ = ["EnvironmentVocabulary", "EnvironmentEmbeddings"]


class EnvironmentVocabulary:
    """Per-field label encoders over a training set of environments."""

    def __init__(self, fields: tuple[str, ...] = EM_FIELDS):
        if not fields:
            raise ValueError("need at least one EM field")
        self.fields = tuple(fields)
        self._encoders: dict[str, LabelEncoder] = {}

    def fit(self, environments: list[Environment]) -> "EnvironmentVocabulary":
        if not environments:
            raise ValueError("cannot fit a vocabulary on zero environments")
        # Callers pass one environment per window, so the list repeats a
        # few objects thousands of times: fit each field on its distinct
        # values only (same sorted classes, same ids).
        distinct = {id(env): env for env in environments}.values()
        for field in self.fields:
            encoder = LabelEncoder()
            encoder.fit(dict.fromkeys(getattr(env, field) for env in distinct))
            self._encoders[field] = encoder
        return self

    @property
    def fitted(self) -> bool:
        return bool(self._encoders)

    def to_config(self) -> dict:
        """JSON-serializable snapshot of the fitted vocabulary."""
        self._require_fitted()
        return {
            "fields": list(self.fields),
            "classes": {field: self._encoders[field].classes_ for field in self.fields},
        }

    @classmethod
    def from_config(cls, config: dict) -> "EnvironmentVocabulary":
        vocabulary = cls(fields=tuple(config["fields"]))
        for field in vocabulary.fields:
            vocabulary._encoders[field] = LabelEncoder.from_classes(config["classes"][field])
        return vocabulary

    def vocabulary_sizes(self) -> dict[str, int]:
        """Per-field table sizes (known values + the unknown row)."""
        self._require_fitted()
        return {field: encoder.vocabulary_size for field, encoder in self._encoders.items()}

    def encode(self, environments: list[Environment]) -> np.ndarray:
        """Environments -> (n, n_fields) integer id matrix.

        Callers pass one environment per *window*, so the list repeats a
        few objects (every window of an execution shares its EM tuple
        object). Each distinct environment is encoded once and the rows
        gathered back — identical ids, without re-hashing four strings
        per window: a window whose environment object was already seen
        finds its row by identity, and only a new object is hashed.
        """
        self._require_fitted()
        unique: dict[Environment, int] = {}
        by_object: dict[int, int] = {}
        index = []
        for env in environments:
            slot = by_object.get(id(env))
            if slot is None:
                slot = by_object[id(env)] = unique.setdefault(env, len(unique))
            index.append(slot)
        columns = [
            self._encoders[field].transform([getattr(env, field) for env in unique])
            for field in self.fields
        ]
        return np.stack(columns, axis=1)[np.asarray(index, dtype=np.intp)]

    def encode_one(self, environment: Environment) -> np.ndarray:
        return self.encode([environment])[0]

    def is_known(self, environment: Environment) -> dict[str, bool]:
        """Which EM fields of this environment were seen in training.

        §6: an environment whose *testbed* never appeared cannot be
        meaningfully embedded; this lets callers check before trusting
        predictions.
        """
        self._require_fitted()
        ids = self.encode_one(environment)
        return {
            field: int(ids[i]) != self._encoders[field].unknown_id
            for i, field in enumerate(self.fields)
        }

    def known_values(self, field: str) -> list[str]:
        self._require_fitted()
        return list(self._encoders[field].classes_)

    def extend(self, environments: list[Environment]) -> dict[str, list[str]]:
        """Register new EM values; returns the per-field lists of additions.

        Existing ids are preserved (embedding rows stay valid); the unknown
        id shifts to stay last. Pair with
        :meth:`EnvironmentEmbeddings.grow_tables` when extending a trained
        model for incremental retraining (§4.3).
        """
        self._require_fitted()
        return {
            field: self._encoders[field].extend(
                getattr(env, field) for env in environments
            )
            for field in self.fields
        }

    def _require_fitted(self) -> None:
        if not self._encoders:
            raise RuntimeError("vocabulary is not fitted; call fit() first")


class EnvironmentEmbeddings(Module):
    """The per-field lookup tables; output is the concatenation C (eq. 1).

    ``unknown_dropout`` randomly replaces a fraction of ids with the
    unknown id *during training only*. This trains the ``<unk>`` row to a
    sensible field-average embedding, so a genuinely new value at test time
    (e.g. the new build version under test, which by definition never
    appeared in training) degrades gracefully instead of hitting an
    arbitrary random vector — the embedding-table analogue of how NLP
    models train their ``<unk>`` token.
    """

    def __init__(
        self,
        vocabulary: EnvironmentVocabulary,
        embedding_dim: int = 10,
        unknown_dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        if embedding_dim < 1:
            raise ValueError("embedding_dim must be >= 1")
        if not 0.0 <= unknown_dropout < 1.0:
            raise ValueError("unknown_dropout must be in [0, 1)")
        rng = ensure_rng(rng)
        self.vocabulary = vocabulary
        self.embedding_dim = embedding_dim
        self.unknown_dropout = unknown_dropout
        self._rng = rng
        sizes = vocabulary.vocabulary_sizes()
        self.tables = {
            field: Embedding(sizes[field], embedding_dim, rng=rng) for field in vocabulary.fields
        }

    @property
    def output_dim(self) -> int:
        """Dimensionality of C = [ec^1, ..., ec^k]."""
        return self.embedding_dim * len(self.vocabulary.fields)

    def field_ids(self, ids: np.ndarray) -> list[np.ndarray]:
        """Validated per-field id columns for one forward pass.

        In training mode with ``unknown_dropout`` each field, in field
        order, draws one uniform vector from the shared generator (one
        ``(n_fields, n)`` draw: the generator fills it row after row) and
        swaps the drawn rows to its ``<unk>`` id. The tape forward and the
        compiled training step both take their ids (and draws) from here.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or ids.shape[1] != len(self.vocabulary.fields):
            raise ValueError(
                f"expected ids of shape (n, {len(self.vocabulary.fields)}); got {ids.shape}"
            )
        tables = [self.tables[field] for field in self.vocabulary.fields]
        columns = ids.T
        if self.training and self.unknown_dropout > 0.0:
            drawn = self._rng.random(columns.shape) < self.unknown_dropout
            unknown_ids = np.array([[table.num_embeddings - 1] for table in tables])
            columns = np.where(drawn, unknown_ids, columns)
        return [table.check_ids(column) for table, column in zip(tables, columns)]

    def forward(self, ids: np.ndarray) -> Tensor:
        """(n, n_fields) id matrix -> (n, output_dim) concatenated embeddings."""
        pieces = [
            self.tables[field](column)
            for field, column in zip(self.vocabulary.fields, self.field_ids(ids))
        ]
        return Tensor.concat(pieces, axis=1)

    def table_arrays(self) -> list[np.ndarray]:
        """Raw per-field weight matrices in ``vocabulary.fields`` order.

        The inference engine snapshots these into an
        :class:`~repro.nn.inference.EmbeddingRowCache`; keeping the field
        order here means the cache's concatenation matches eq. 1 exactly.
        """
        return [self.tables[field].weight.data for field in self.vocabulary.fields]

    def grow_tables(self, added: dict[str, list[str]], noise: float = 0.01) -> None:
        """Expand the lookup tables after a vocabulary extension.

        For each field with ``m`` new values, ``m`` rows are inserted just
        before the unknown row (which stays last, matching the extended
        encoder's id layout). New rows start from the trained ``<unk>``
        embedding plus small noise — the best prior for a value we know
        nothing about — and then specialize during incremental retraining.
        """
        for field, new_values in added.items():
            if not new_values:
                continue
            table = self.tables[field]
            weights = table.weight.data
            unk_row = weights[-1]
            fresh = unk_row + noise * self._rng.standard_normal(
                (len(new_values), self.embedding_dim)
            )
            table.weight.data = np.vstack([weights[:-1], fresh, unk_row[None, :]])
            table.num_embeddings = len(table.weight.data)
            expected = self.vocabulary.vocabulary_sizes()[field]
            if table.num_embeddings != expected:
                raise RuntimeError(
                    f"table for {field!r} has {table.num_embeddings} rows; "
                    f"vocabulary expects {expected}"
                )

    def embed_environments(self, environments: list[Environment]) -> np.ndarray:
        """Concatenated embedding matrix for analysis (e.g. Figure 6's PCA)."""
        ids = self.vocabulary.encode(environments)
        from ..nn.tensor import no_grad

        was_training = self.training
        self.eval()  # never apply unknown-dropout in analysis
        try:
            with no_grad():
                return self.forward(ids).numpy().copy()
        finally:
            if was_training:
                self.train()
