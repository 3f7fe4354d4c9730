from __future__ import annotations

import struct

import numpy as np
import pytest

from verseshift import corpus, trainer

from conftest import (
    TINY_GLOBAL_COUNT0,
    TINY_SLOT_COUNT0,
    TINY_SLOT_YEARS,
    TINY_WORD0,
    make_model,
    make_table,
    make_vocab,
    write_tiny_model,
)


def tiny_docs():
    """Two slots, two context-sharing word groups."""
    rng = np.random.default_rng(4)
    group_a = ["könig", "fürst", "thron", "krone"]
    group_b = ["apfel", "birne", "baum", "garten"]
    docs_by_slot = []
    for _ in range(2):
        docs = []
        for _ in range(150):
            pick = group_a if rng.random() < 0.5 else group_b
            docs.append([pick[j] for j in rng.integers(0, len(pick), 6)])
        docs_by_slot.append(docs)
    return docs_by_slot


def quick_config(**overrides):
    params = dict(
        dim=16,
        context_window=2,
        negatives=3,
        epochs=3,
        subsample_threshold=0.0,
        seed=11,
        batch_size=256,
    )
    params.update(overrides)
    return trainer.TrainConfig(**params)


def train_tiny(config=None, docs=None):
    docs = docs or tiny_docs()
    vocab = corpus.build_vocab_from_tokens(docs, min_count=1)
    table = make_table([1700, 1750])
    return trainer.train(docs, vocab, table, config or quick_config())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 1},
            {"context_window": 0},
            {"negatives": 0},
            {"epochs": 0},
            {"initial_lr": 0.001, "final_lr": 0.01},
            {"final_lr": 0.0},
            {"subsample_threshold": -1.0},
            {"workers": 0},
            {"batch_size": 0},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            quick_config(**kwargs)

    def test_workers_capped_at_cpu_count(self):
        quick_config(workers=trainer.max_workers())
        with pytest.raises(ValueError, match="CPU count"):
            quick_config(workers=trainer.max_workers() + 1)


class TestEmbeddingOf:
    def test_zero_delta_returns_base(self):
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        deltas = np.zeros((2, 2, 2))
        model = make_model(["a", "b"], [1600, 1650], base, deltas)
        assert np.array_equal(model.embedding_of("a", 0), [1.0, 2.0])

    def test_vector_addition(self):
        base = np.array([[1.0, 0.0]])
        deltas = np.array([[[0.0, 1.0]], [[0.0, 0.0]]])
        model = make_model(["w"], [1600, 1650], base, deltas)
        assert np.array_equal(model.embedding_of("w", 0), [1.0, 1.0])
        assert np.array_equal(model.embedding_of("w", 1), [1.0, 0.0])

    def test_unknown_word_or_slot_errors(self):
        model = make_model(["a"], [1600, 1650], np.ones((1, 2)), np.zeros((2, 1, 2)))
        with pytest.raises(ValueError):
            model.embedding_of("fehlt", 0)
        with pytest.raises(ValueError):
            model.embedding_of("a", 2)


def random_problem(seed, n_words, dim, n_slots, size, n_groups, k):
    rng = np.random.default_rng(seed)
    base = rng.normal(scale=0.4, size=(n_words, dim)).astype(np.float32)
    deltas = rng.normal(scale=0.2, size=(n_slots, n_words, dim)).astype(np.float32)
    ctx = rng.normal(scale=0.4, size=(n_words, dim)).astype(np.float32)
    batch = trainer.TrainingBatch(
        words=rng.integers(0, n_words, size),
        slots=rng.integers(0, n_slots, size),
        contexts=rng.integers(0, n_words, size),
        negatives=rng.integers(0, n_words, (n_groups, k)),
    )
    return base, deltas, ctx, batch


def per_pair_reference(base, deltas, ctx, batch):
    """Loss and dense gradients with every pair scoring its own row of negatives."""
    base, deltas, ctx = (t.astype(np.float64) for t in (base, deltas, ctx))
    u = base[batch.words] + deltas[batch.slots, batch.words]
    c_pos = ctx[batch.contexts]
    c_neg = ctx[batch.negatives]  # (B, k, d)
    s_pos = np.einsum("bd,bd->b", u, c_pos)
    s_neg = np.einsum("bd,bkd->bk", u, c_neg)
    loss = np.logaddexp(0.0, -s_pos).sum() + np.logaddexp(0.0, s_neg).sum()
    g_pos = 1.0 / (1.0 + np.exp(-s_pos)) - 1.0
    g_neg = 1.0 / (1.0 + np.exp(-s_neg))
    grad_u = g_pos[:, None] * c_pos + np.einsum("bk,bkd->bd", g_neg, c_neg)
    g_base, g_deltas, g_ctx = np.zeros_like(base), np.zeros_like(deltas), np.zeros_like(ctx)
    np.add.at(g_base, batch.words, grad_u)
    np.add.at(g_deltas, (batch.slots, batch.words), grad_u)
    np.add.at(g_ctx, batch.contexts, g_pos[:, None] * u)
    np.add.at(g_ctx, batch.negatives, np.einsum("bk,bd->bkd", g_neg, u))
    return loss, g_base, g_deltas, g_ctx


class TestGradients:
    def test_against_finite_differences(self):
        rng = np.random.default_rng(21)
        n_words, dim, n_slots, size, k = 10, 4, 3, 6, 2
        base = rng.normal(scale=0.4, size=(n_words, dim)).astype(np.float32)
        deltas = rng.normal(scale=0.2, size=(n_slots, n_words, dim)).astype(np.float32)
        ctx = rng.normal(scale=0.4, size=(n_words, dim)).astype(np.float32)
        batch = trainer.TrainingBatch(
            words=rng.integers(0, n_words, size),
            slots=rng.integers(0, n_slots, size),
            contexts=rng.integers(0, n_words, size),
            negatives=rng.integers(0, n_words, (size, k)),
        )
        _, g_base, g_deltas, g_ctx = trainer.batch_gradients(base, deltas, ctx, batch)
        h = 1e-5
        tensors = [base.astype(np.float64), deltas.astype(np.float64), ctx.astype(np.float64)]
        for which, grad in ((0, g_base), (1, g_deltas), (2, g_ctx)):
            it = np.nditer(tensors[which], flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                plus = [t.copy() for t in tensors]
                minus = [t.copy() for t in tensors]
                plus[which][idx] += h
                minus[which][idx] -= h
                fd = (trainer.batch_loss(*plus, batch) - trainer.batch_loss(*minus, batch)) / (2 * h)
                rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1.0)
                assert rel < 1e-4

    @pytest.mark.parametrize("size,n_groups", [(11, 3), (10, 6), (7, 1)])
    def test_grouped_negatives_against_finite_differences(self, size, n_groups):
        # ceil(size / n_groups) pairs per group; the last group is padded, and
        # with (10, 6) the sixth negative set is scored by no real pair at all
        base, deltas, ctx, batch = random_problem(5, 9, 3, 2, size, n_groups, 3)
        _, g_base, g_deltas, g_ctx = trainer.batch_gradients(base, deltas, ctx, batch)
        tensors = [base.astype(np.float64), deltas.astype(np.float64), ctx.astype(np.float64)]
        h = 1e-5
        for which, grad in ((0, g_base), (1, g_deltas), (2, g_ctx)):
            flat = tensors[which].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = trainer.batch_loss(*tensors, batch)
                flat[j] = orig - h
                down = trainer.batch_loss(*tensors, batch)
                flat[j] = orig
                fd = (up - down) / (2 * h)
                got = grad.reshape(-1)[j]
                assert abs(fd - got) / max(abs(fd), abs(got), 1.0) < 1e-4

    def test_one_group_per_pair_matches_per_pair_reference(self):
        base, deltas, ctx, batch = random_problem(8, 12, 5, 3, 9, 9, 4)
        got = trainer.batch_gradients(base, deltas, ctx, batch)
        want = per_pair_reference(base, deltas, ctx, batch)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        for g, w in zip(got[1:], want[1:]):
            assert np.allclose(g, w, rtol=1e-10, atol=1e-12)

    def test_grouped_pairs_match_reference_with_repeated_negatives(self):
        # sharing a set is the per-pair estimator with each set's row repeated
        base, deltas, ctx, batch = random_problem(9, 12, 5, 3, 10, 4, 3)
        per_pair = trainer.TrainingBatch(
            batch.words, batch.slots, batch.contexts, np.repeat(batch.negatives, 3, axis=0)[:10]
        )
        got = trainer.batch_gradients(base, deltas, ctx, batch)
        want = per_pair_reference(base, deltas, ctx, per_pair)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        for g, w in zip(got[1:], want[1:]):
            assert np.allclose(g, w, rtol=1e-10, atol=1e-12)

    def test_grouped_step_matches_dense_gradients(self):
        base, deltas, ctx, batch = random_problem(34, 14, 6, 4, 70, 3, 5)
        loss_dense, g_base, g_deltas, g_ctx = trainer.batch_gradients(base, deltas, ctx, batch)
        lr = 0.05
        base2, deltas2, ctx2 = base.copy(), deltas.copy(), ctx.copy()
        loss_fused = trainer.sgd_step(base2, deltas2.reshape(-1, 6), ctx2, 14, batch, lr)
        assert loss_fused == pytest.approx(loss_dense, rel=1e-5)
        assert np.allclose(base2, base - (lr * g_base).astype(np.float32), atol=1e-6)
        assert np.allclose(deltas2, deltas - (lr * g_deltas).astype(np.float32), atol=1e-6)
        assert np.allclose(ctx2, ctx - (lr * g_ctx).astype(np.float32), atol=1e-6)

    def test_fused_step_matches_dense_gradients(self):
        rng = np.random.default_rng(33)
        n_words, dim, n_slots, size, k = 14, 6, 4, 32, 3
        base = rng.normal(scale=0.3, size=(n_words, dim)).astype(np.float32)
        deltas = rng.normal(scale=0.1, size=(n_slots, n_words, dim)).astype(np.float32)
        ctx = rng.normal(scale=0.3, size=(n_words, dim)).astype(np.float32)
        batch = trainer.TrainingBatch(
            words=rng.integers(0, n_words, size),
            slots=rng.integers(0, n_slots, size),
            contexts=rng.integers(0, n_words, size),
            negatives=rng.integers(0, n_words, (size, k)),
        )
        loss_dense, g_base, g_deltas, g_ctx = trainer.batch_gradients(base, deltas, ctx, batch)
        lr = 0.05
        base2, deltas2, ctx2 = base.copy(), deltas.copy(), ctx.copy()
        loss_fused = trainer.sgd_step(base2, deltas2.reshape(-1, dim), ctx2, n_words, batch, lr)
        assert loss_fused == pytest.approx(loss_dense, rel=1e-5)
        assert np.allclose(base2, base - (lr * g_base).astype(np.float32), atol=1e-6)
        assert np.allclose(deltas2, deltas - (lr * g_deltas).astype(np.float32), atol=1e-6)
        assert np.allclose(ctx2, ctx - (lr * g_ctx).astype(np.float32), atol=1e-6)


class TestTraining:
    def test_single_worker_determinism(self):
        m1 = train_tiny()
        m2 = train_tiny()
        assert np.array_equal(m1.base, m2.base)
        assert np.array_equal(m1.deltas, m2.deltas)
        assert np.array_equal(m1.context, m2.context)
        assert m1.epoch_losses == m2.epoch_losses

    def test_seed_changes_model(self):
        m1 = train_tiny(quick_config(seed=1))
        m2 = train_tiny(quick_config(seed=2))
        assert not np.array_equal(m1.base, m2.base)

    def test_epoch_loss_non_increasing(self):
        model = train_tiny(quick_config(epochs=5))
        losses = model.epoch_losses
        for before, after in zip(losses, losses[1:]):
            assert after <= before * 1.01

    def test_absent_word_keeps_zero_delta(self):
        docs = [[["nur", "hier", "nur", "hier"]] * 30, [["ganz", "anders", "ganz"]] * 30]
        vocab = corpus.build_vocab_from_tokens(docs, min_count=1)
        table = make_table([1700, 1750])
        model = trainer.train(docs, vocab, table, quick_config())
        for word in ("nur", "hier"):
            row = vocab.index[word]
            assert np.all(model.deltas[1, row] == 0.0)
            # reverting to the shared representation where the word is unseen
            assert np.array_equal(model.embedding_of(word, 1), model.base[row].astype(np.float64))
        assert np.all(model.deltas[0, vocab.index["ganz"]] == 0.0)

    def test_empty_slot_warns_and_stays_zero(self, caplog):
        docs = [[["a", "b", "a", "b"]] * 40, []]
        vocab = corpus.build_vocab_from_tokens(docs, min_count=1)
        table = make_table([1700, 1750])
        with caplog.at_level("WARNING"):
            model = trainer.train(docs, vocab, table, quick_config())
        assert np.all(model.deltas[1] == 0.0)
        assert any("slot 1" in m for m in caplog.messages)

    def test_matrices_finite(self):
        model = train_tiny()
        for mat in (model.base, model.deltas, model.context):
            assert np.isfinite(mat).all()

    def test_needs_two_slots(self):
        docs = [[["a", "b"]]]
        vocab = corpus.build_vocab_from_tokens(docs, min_count=1)
        table = corpus.TimeSlotTable(
            slots=(corpus.TimeSlot(1700, 1750, "1700-1750"),), window_years=50, step_years=50
        )
        with pytest.raises(ValueError):
            trainer.train(docs, vocab, table, quick_config())

    def test_workers_run_to_completion(self):
        model = train_tiny(quick_config(workers=2))
        for mat in (model.base, model.deltas, model.context):
            assert np.isfinite(mat).all()

    def test_one_negative_set_per_pair_group(self, monkeypatch):
        shapes = []
        step = trainer.sgd_step

        def recording_step(base, deltas_flat, context, n_words, batch, lr):
            shapes.append((batch.words.size, batch.negatives.shape))
            return step(base, deltas_flat, context, n_words, batch, lr)

        monkeypatch.setattr(trainer, "sgd_step", recording_step)
        model = train_tiny(quick_config(batch_size=1000, epochs=1))
        # 5400 pairs: five batches of 1000 (32 sets, the last group padded) and one of 400
        assert shapes == [(1000, (32, 3))] * 5 + [(400, (13, 3))]
        assert np.isfinite(model.epoch_losses).all()


class TestTrainedSemantics:
    def test_synonym_clusters(self, synonym_model):
        from verseshift.linalg import cosine_similarity

        model = synonym_model

        def sim(a, b):
            return cosine_similarity(model.embedding_of(a, 0), model.embedding_of(b, 0))

        assert sim("koenig", "fuerst") > sim("koenig", "apfel")
        assert sim("koenig", "fuerst") > sim("koenig", "birne")
        assert sim("apfel", "birne") > sim("apfel", "koenig")
        assert sim("apfel", "birne") > sim("birne", "fuerst")

    def test_nearest_neighbor_of_koenig_is_fuerst(self, synonym_model):
        neighbors = synonym_model.nearest_neighbors("koenig", 0, 1)
        assert neighbors[0][0] == "fuerst"

    def test_shifted_word_less_self_similar_than_stable(self, synonym_model):
        from verseshift.linalg import cosine_similarity

        model = synonym_model
        moved = cosine_similarity(model.embedding_of("wandel", 0), model.embedding_of("wandel", 1))
        stable = cosine_similarity(model.embedding_of("fels", 0), model.embedding_of("fels", 1))
        assert moved < stable


class TestNearestNeighbors:
    def _model(self):
        base = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
        deltas = np.zeros((2, 4, 2))
        return make_model(["a", "b", "c", "d"], [1600, 1650], base, deltas)

    def test_k_zero_empty(self):
        assert self._model().nearest_neighbors("a", 0, 0) == []

    def test_identical_vector_first_with_cosine_one(self):
        result = self._model().nearest_neighbors("a", 0, 3)
        assert result[0][0] == "b"
        assert result[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_ties_break_by_vocabulary_index(self):
        base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]])
        model = make_model(["q", "x", "y", "z"], [1600, 1650], base, np.zeros((2, 4, 2)))
        names = [w for w, _ in model.nearest_neighbors("q", 0, 3)]
        assert names == ["x", "y", "z"]

    def test_oversized_k_truncates(self):
        result = self._model().nearest_neighbors("a", 0, 99)
        assert len(result) == 3  # everything except the query


class TestModelFile:
    def test_roundtrip_bit_exact(self, tmp_path, synonym_model):
        path1 = tmp_path / "m1.bin"
        path2 = tmp_path / "m2.bin"
        trainer.save_model(synonym_model, path1)
        loaded = trainer.load_model(path1)
        assert np.array_equal(loaded.base, synonym_model.base)
        assert np.array_equal(loaded.deltas, synonym_model.deltas)
        assert np.array_equal(loaded.context, synonym_model.context)
        assert loaded.vocab.words == synonym_model.vocab.words
        assert np.array_equal(loaded.vocab.slot_counts, synonym_model.vocab.slot_counts)
        assert [
            (s.start, s.end) for s in loaded.slot_table
        ] == [(s.start, s.end) for s in synonym_model.slot_table]
        trainer.save_model(loaded, path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_truncated_file_errors(self, tmp_path, synonym_model):
        path = tmp_path / "m.bin"
        trainer.save_model(synonym_model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(trainer.ModelFormatError, match="truncated"):
            trainer.load_model(path)

    def test_wrong_magic_errors(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"KEIN" + b"\x00" * 64)
        with pytest.raises(trainer.ModelFormatError, match="not a model file"):
            trainer.load_model(path)

    def test_unsupported_version_errors(self, tmp_path, synonym_model):
        path = tmp_path / "m.bin"
        trainer.save_model(synonym_model, path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(trainer.ModelFormatError, match="version"):
            trainer.load_model(path)

    def test_oversized_header_errors_before_allocating(self, tmp_path):
        # 36 bytes claiming 2**32 - 1 words once made numpy try to allocate 32 GiB
        path = tmp_path / "m.bin"
        header = struct.pack("<IIII", 1, 100, 2**32 - 1, 2) + struct.pack("<iiii", 1600, 1650, 1650, 1700)
        path.write_bytes(trainer.MODEL_MAGIC + header)
        assert path.stat().st_size == 36
        with pytest.raises(trainer.ModelFormatError, match="truncated"):
            trainer.load_model(path)

    def test_trailing_bytes_error(self, tmp_path, synonym_model):
        path = tmp_path / "m.bin"
        trainer.save_model(synonym_model, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(trainer.ModelFormatError):
            trainer.load_model(path)

    @pytest.mark.parametrize("offset", [TINY_GLOBAL_COUNT0, TINY_SLOT_COUNT0], ids=["global", "slot"])
    def test_count_beyond_int64_errors(self, tmp_path, offset):
        path = tmp_path / "m.bin"
        write_tiny_model(path, offset, struct.pack("<Q", 2**63))
        with pytest.raises(trainer.ModelFormatError, match="int64"):
            trainer.load_model(path)

    def test_count_at_int64_max_loads(self, tmp_path):
        path = tmp_path / "m.bin"
        write_tiny_model(path, TINY_SLOT_COUNT0, struct.pack("<Q", 2**63 - 1))
        assert trainer.load_model(path).vocab.slot_counts[0, 0] == 2**63 - 1

    def test_invalid_utf8_word_errors(self, tmp_path):
        path = tmp_path / "m.bin"
        write_tiny_model(path, TINY_WORD0, b"\xff")
        with pytest.raises(trainer.ModelFormatError, match="UTF-8"):
            trainer.load_model(path)

    def test_non_increasing_slot_years_error(self, tmp_path):
        path = tmp_path / "m.bin"
        write_tiny_model(path, TINY_SLOT_YEARS, struct.pack("<iiii", 1650, 1700, 1600, 1650))
        with pytest.raises(trainer.ModelFormatError, match="slot years"):
            trainer.load_model(path)
