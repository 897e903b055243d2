"""EnvironmentVocabulary and EnvironmentEmbeddings tests."""

import dataclasses

import numpy as np
import pytest

from repro.core import EnvironmentEmbeddings, EnvironmentVocabulary
from repro.data import Environment

RNG = np.random.default_rng(13)


def _envs():
    return [
        Environment("Testbed_01", "SUT_A", "Testcase_Load", "Build_S01"),
        Environment("Testbed_01", "SUT_B", "Testcase_Load", "Build_S02"),
        Environment("Testbed_02", "SUT_A", "Testcase_Endurance", "Build_D01"),
    ]


class TestVocabulary:
    def test_vocabulary_sizes_include_unknown_row(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        sizes = vocab.vocabulary_sizes()
        assert sizes == {"testbed": 3, "sut": 3, "testcase": 3, "build": 4}

    def test_encode_shape_and_determinism(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        ids = vocab.encode(_envs())
        assert ids.shape == (3, 4)
        np.testing.assert_array_equal(ids, vocab.encode(_envs()))

    def test_same_value_same_id_across_environments(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        ids = vocab.encode(_envs())
        assert ids[0, 0] == ids[1, 0]  # Testbed_01 shared
        assert ids[0, 1] == ids[2, 1]  # SUT_A shared

    def test_unknown_values_map_to_unknown_id(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        new_env = Environment("Testbed_99", "SUT_A", "Testcase_Load", "Build_S01")
        known = vocab.is_known(new_env)
        assert known == {"testbed": False, "sut": True, "testcase": True, "build": True}
        ids = vocab.encode_one(new_env)
        # Unknown testbed gets the last row of its table.
        assert ids[0] == vocab.vocabulary_sizes()["testbed"] - 1

    def test_known_values(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        assert vocab.known_values("sut") == ["SUT_A", "SUT_B"]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            EnvironmentVocabulary().encode(_envs())

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            EnvironmentVocabulary().fit([])

    def test_per_window_lists_give_the_distinct_fit_and_ids(self):
        # one environment object per window, repeated, shuffled, plus
        # equal-but-distinct copies: same classes and ids as the distinct set
        envs = _envs()
        copies = [dataclasses.replace(env) for env in envs]
        windows = [envs[i] for i in np.random.default_rng(5).integers(0, 3, 500)] + copies
        distinct = EnvironmentVocabulary().fit(envs)
        per_window = EnvironmentVocabulary().fit(windows)
        assert per_window.to_config() == distinct.to_config()
        expected = np.stack([distinct.encode_one(env) for env in windows])
        np.testing.assert_array_equal(per_window.encode(windows), expected)
        assert per_window.encode([]).shape == (0, 4)

    def test_custom_fields(self):
        vocab = EnvironmentVocabulary(fields=("sut", "build")).fit(_envs())
        assert vocab.encode(_envs()).shape == (3, 2)
        with pytest.raises(ValueError):
            EnvironmentVocabulary(fields=())


class TestEnvironmentEmbeddings:
    def test_output_dim_is_fields_times_dim(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=10, rng=RNG)
        assert emb.output_dim == 40
        out = emb(vocab.encode(_envs()))
        assert out.shape == (3, 40)

    def test_concatenation_order_matches_fields(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=4, rng=RNG)
        ids = vocab.encode(_envs())
        out = emb(ids).numpy()
        testbed_part = emb.tables["testbed"].weight.numpy()[ids[:, 0]]
        np.testing.assert_allclose(out[:, :4], testbed_part)
        build_part = emb.tables["build"].weight.numpy()[ids[:, 3]]
        np.testing.assert_allclose(out[:, -4:], build_part)

    def test_shared_em_values_share_embedding_slices(self):
        # Mix-and-match (§4.3): two environments sharing a testbed have
        # identical testbed slices in C.
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=5, rng=RNG)
        matrix = emb.embed_environments(_envs())
        np.testing.assert_allclose(matrix[0, :5], matrix[1, :5])  # same testbed
        assert not np.allclose(matrix[0, :5], matrix[2, :5])  # different testbed

    def test_unseen_environment_composes_known_slices(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=5, rng=RNG)
        unseen = Environment("Testbed_02", "SUT_B", "Testcase_Load", "Build_D01")
        matrix = emb.embed_environments(_envs() + [unseen])
        # Unseen env's testbed slice equals env 2's, sut slice equals env 1's.
        np.testing.assert_allclose(matrix[3, :5], matrix[2, :5])
        np.testing.assert_allclose(matrix[3, 5:10], matrix[1, 5:10])

    def test_gradients_flow_to_tables(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=3, rng=RNG)
        out = emb(vocab.encode(_envs()))
        out.sum().backward()
        assert emb.tables["testbed"].weight.grad is not None
        # Testbed_01 appears twice -> its row's gradient is 2x the others'.
        ids = vocab.encode(_envs())
        grad = emb.tables["testbed"].weight.grad
        np.testing.assert_allclose(grad[ids[0, 0]], 2.0)
        np.testing.assert_allclose(grad[ids[2, 0]], 1.0)

    def test_bad_id_shape_rejected(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, rng=RNG)
        with pytest.raises(ValueError):
            emb(np.zeros((3, 2), dtype=np.int64))

    def test_invalid_embedding_dim(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        with pytest.raises(ValueError):
            EnvironmentEmbeddings(vocab, embedding_dim=0)

    def test_parameters_cover_all_tables(self):
        vocab = EnvironmentVocabulary().fit(_envs())
        emb = EnvironmentEmbeddings(vocab, embedding_dim=2, rng=RNG)
        assert len(list(emb.parameters())) == 4
