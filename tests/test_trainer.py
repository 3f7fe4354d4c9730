from __future__ import annotations

import os
import re
import struct
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from verseshift import analysis, corpus, trainer
from verseshift.linalg import rowwise_cosine

from _oracles import (
    batch_gradients,
    batch_loss,
    log_sigmoid_logaddexp,
    scatter_add_rows_reduceat,
    sgd_step_reference,
    slot_encoding,
    slot_pairs,
    train_reference,
)
from conftest import (
    TINY_BASE,
    TINY_CONTEXT,
    TINY_DELTA1,
    TINY_DIM_FIELD,
    TINY_GLOBAL_COUNT0,
    TINY_SLOT_COUNT0,
    TINY_SLOT_YEARS,
    TINY_WORD0,
    make_model,
    make_table,
    make_vocab,
    random_model,
    slot_documents,
    working_bytes,
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
    table = make_table([1700, 1750])
    docs = slot_documents(docs or tiny_docs(), table)
    vocab = corpus.build_vocab(docs, table, min_count=1)
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
            {"subsample_threshold": float("nan")},
            {"initial_lr": float("inf")},
            {"seed": -1},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            quick_config(**kwargs)

    def test_workers_capped_at_cpu_count(self):
        quick_config(workers=trainer.max_workers())
        with pytest.raises(ValueError, match="CPUs this process may run on"):
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
        _, g_base, g_deltas, g_ctx = batch_gradients(base, deltas, ctx, batch)
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
                fd = (batch_loss(*plus, batch) - batch_loss(*minus, batch)) / (2 * h)
                rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1.0)
                assert rel < 1e-4

    @pytest.mark.parametrize("size,n_groups", [(11, 3), (10, 6), (7, 1)])
    def test_grouped_negatives_against_finite_differences(self, size, n_groups):
        # ceil(size / n_groups) pairs per group; the last group is padded, and
        # with (10, 6) the sixth negative set is scored by no real pair at all
        base, deltas, ctx, batch = random_problem(5, 9, 3, 2, size, n_groups, 3)
        _, g_base, g_deltas, g_ctx = batch_gradients(base, deltas, ctx, batch)
        tensors = [base.astype(np.float64), deltas.astype(np.float64), ctx.astype(np.float64)]
        h = 1e-5
        for which, grad in ((0, g_base), (1, g_deltas), (2, g_ctx)):
            flat = tensors[which].reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                up = batch_loss(*tensors, batch)
                flat[j] = orig - h
                down = batch_loss(*tensors, batch)
                flat[j] = orig
                fd = (up - down) / (2 * h)
                got = grad.reshape(-1)[j]
                assert abs(fd - got) / max(abs(fd), abs(got), 1.0) < 1e-4

    def test_one_group_per_pair_matches_per_pair_reference(self):
        base, deltas, ctx, batch = random_problem(8, 12, 5, 3, 9, 9, 4)
        got = batch_gradients(base, deltas, ctx, batch)
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
        got = batch_gradients(base, deltas, ctx, batch)
        want = per_pair_reference(base, deltas, ctx, per_pair)
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        for g, w in zip(got[1:], want[1:]):
            assert np.allclose(g, w, rtol=1e-10, atol=1e-12)

    def test_grouped_step_matches_dense_gradients(self):
        base, deltas, ctx, batch = random_problem(34, 14, 6, 4, 70, 3, 5)
        loss_dense, g_base, g_deltas, g_ctx = batch_gradients(base, deltas, ctx, batch)
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
        loss_dense, g_base, g_deltas, g_ctx = batch_gradients(base, deltas, ctx, batch)
        lr = 0.05
        base2, deltas2, ctx2 = base.copy(), deltas.copy(), ctx.copy()
        loss_fused = trainer.sgd_step(base2, deltas2.reshape(-1, dim), ctx2, n_words, batch, lr)
        assert loss_fused == pytest.approx(loss_dense, rel=1e-5)
        assert np.allclose(base2, base - (lr * g_base).astype(np.float32), atol=1e-6)
        assert np.allclose(deltas2, deltas - (lr * g_deltas).astype(np.float32), atol=1e-6)
        assert np.allclose(ctx2, ctx - (lr * g_ctx).astype(np.float32), atol=1e-6)


def scatter_rows(n: int, d: int, seed: int) -> np.ndarray:
    """Float32 rows with magnitudes from 1e-8 to 1e8, so a different order of float64 additions shows."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-8, 8, (n, d))).astype(np.float32)


def runs(lengths, seed: int = 0) -> np.ndarray:
    """Shuffled indices where index i occurs lengths[i] times."""
    return np.random.default_rng(seed).permutation(np.repeat(np.arange(len(lengths)), lengths))


def assert_scatter_matches_reduceat(mat: np.ndarray, idx: np.ndarray, rows: np.ndarray, scale: float = -0.025):
    want = mat.copy()
    scatter_add_rows_reduceat(want, idx, rows, scale)
    trainer._scatter_add_rows(mat, idx, rows, scale)
    assert np.array_equal(mat, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
class TestScatterAddRows:
    """The training scatter is bit-identical to one float64 np.add.reduceat per index."""

    def test_empty_index(self, dtype):
        mat = np.ones((3, 4), dtype=dtype)
        assert_scatter_matches_reduceat(mat, np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.float32))
        assert (mat == 1).all()

    def test_one_word_vocabulary(self, dtype):
        idx = np.zeros(5000, dtype=np.int64)
        assert_scatter_matches_reduceat(np.ones((1, 8), dtype=dtype), idx, scatter_rows(5000, 8, 1))

    def test_runs_around_the_cutoff(self, dtype):
        c = trainer.SCATTER_CUTOFF
        lengths = [c - 1, c, c + 1, 2 * c, 1, 2, 3, c, c + 1, 1]
        idx = runs(lengths)
        assert_scatter_matches_reduceat(np.ones((len(lengths), 5), dtype=dtype), idx, scatter_rows(idx.size, 5, 2))

    def test_order_of_wide_magnitudes_is_reduceats(self, dtype):
        lengths = list(range(1, 2 * trainer.SCATTER_CUTOFF + 2)) * 3
        idx, rows = runs(lengths, 3), scatter_rows(sum(lengths), 6, 3)
        big = np.random.default_rng(3).random(rows.shape) < 0.5  # ±1e8 cancel, so order shows in float32 too
        rows[big] = np.copysign(np.float32(1e8), rows[big])
        assert_scatter_matches_reduceat(np.zeros((len(lengths), 6), dtype=dtype), idx, rows)
        # these rows tell orders apart: a plain left-to-right float64 sum rounds differently
        order = np.argsort(idx)
        left_to_right = np.zeros((len(lengths), 6))
        for i in order:
            left_to_right[idx[i]] += rows[i]
        want = np.zeros((len(lengths), 6))
        scatter_add_rows_reduceat(want, idx, rows, 1.0)
        assert not np.array_equal(left_to_right, want)

    def test_delta_stack_view(self, dtype):
        n_slots, n_words, d = 3, 7, 4
        deltas = np.random.default_rng(4).standard_normal((n_slots, n_words, d)).astype(dtype)
        want = deltas.copy()
        idx = runs([1, 9, 2, 8, 3, 17, 1, 5, 4], 4) * 2 + 1  # flat (slot, word) rows across slots
        rows = scatter_rows(idx.size, d, 4)
        scatter_add_rows_reduceat(want.reshape(-1, d), idx, rows, -0.05)
        deltas_flat = deltas.reshape(-1, d)
        assert np.shares_memory(deltas_flat, deltas)
        trainer._scatter_add_rows(deltas_flat, idx, rows, -0.05)
        assert np.array_equal(deltas, want)

    @settings(max_examples=60, deadline=None)
    @given(n_rows=st.integers(1, 60), n=st.integers(0, 600), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_random_batches(self, dtype, n_rows, n, d, seed):
        idx = np.random.default_rng(seed).integers(0, n_rows, n)
        assert_scatter_matches_reduceat(np.ones((n_rows, d), dtype=dtype), idx, scatter_rows(n, d, seed))


def test_log_sigmoid_matches_logaddexp():
    x = np.array([0.0, 1e-300, 1.0, 40.0, 745.0, 1e308])
    x = np.concatenate([x, -x])
    np.testing.assert_allclose(trainer._log_sigmoid(x), log_sigmoid_logaddexp(x), rtol=1e-14, atol=0.0)
    pos_inf, neg_inf, nan = trainer._log_sigmoid(np.array([np.inf, -np.inf, np.nan]))
    assert pos_inf == 0.0 and neg_inf == -np.inf and np.isnan(nan)


class TestStepMatchesOracle:
    """sgd_step gives bit for bit the parameters of the step with fancy-index gathers and padded groups."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_words=st.integers(1, 40),
        n_slots=st.integers(1, 4),
        d=st.integers(1, 8),
        size=st.one_of(st.integers(1, 4).map(lambda g: g * trainer.PAIR_GROUP), st.integers(1, 160)),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_words=5, n_slots=3, d=4, size=2 * trainer.PAIR_GROUP, k=3, seed=0)  # full groups: no padding
    @example(n_words=5, n_slots=3, d=4, size=2 * trainer.PAIR_GROUP + 7, k=3, seed=0)  # padded last group
    def test_steps_bit_identical(self, n_words, n_slots, d, size, k, seed):
        rng = np.random.default_rng(seed)
        base = rng.normal(scale=0.5, size=(n_words, d)).astype(np.float32)
        deltas = rng.normal(scale=0.2, size=(n_slots, n_words, d)).astype(np.float32)
        context = rng.normal(scale=0.5, size=(n_words, d)).astype(np.float32)
        want = [base.copy(), deltas.copy(), context.copy()]
        n_groups = -(-size // trainer.PAIR_GROUP)
        for lr in (0.5, 0.05, 0.005):
            batch = trainer.TrainingBatch(
                words=rng.integers(0, n_words, size, dtype=np.int32),
                slots=rng.integers(0, n_slots, size, dtype=np.int32),
                contexts=rng.integers(0, n_words, size, dtype=np.int32),
                negatives=rng.integers(0, n_words, (n_groups, k), dtype=np.int32),
            )
            loss = trainer.sgd_step(base, deltas.reshape(-1, d), context, n_words, batch, lr)
            want_loss = sgd_step_reference(want[0], want[1].reshape(-1, d), want[2], n_words, batch, lr)
            assert loss == pytest.approx(want_loss, rel=1e-12)
            assert np.array_equal(base, want[0])
            assert np.array_equal(deltas, want[1])
            assert np.array_equal(context, want[2])


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
        table = make_table([1700, 1750])
        docs = slot_documents([[["nur", "hier", "nur", "hier"]] * 30, [["ganz", "anders", "ganz"]] * 30], table)
        vocab = corpus.build_vocab(docs, table, min_count=1)
        model = trainer.train(docs, vocab, table, quick_config())
        for word in ("nur", "hier"):
            row = vocab.index[word]
            assert np.all(model.deltas[1, row] == 0.0)
            # reverting to the shared representation where the word is unseen
            assert np.array_equal(model.embedding_of(word, 1), model.base[row].astype(np.float64))
        assert np.all(model.deltas[0, vocab.index["ganz"]] == 0.0)

    def test_empty_slot_warns_and_stays_zero(self, caplog):
        table = make_table([1700, 1750])
        docs = slot_documents([[["a", "b", "a", "b"]] * 40, []], table)
        vocab = corpus.build_vocab(docs, table, min_count=1)
        with caplog.at_level("WARNING"):
            model = trainer.train(docs, vocab, table, quick_config())
        assert np.all(model.deltas[1] == 0.0)
        assert sum("slot 1 has no trainable documents" in m for m in caplog.messages) == 1

    def test_matrices_finite(self):
        model = train_tiny()
        for mat in (model.base, model.deltas, model.context):
            assert np.isfinite(mat).all()

    def test_matrices_are_views_of_the_model_file_block(self, tmp_path):
        model = train_tiny(quick_config(epochs=1))
        block = model.base.base
        n_slots, (n_words, d) = model.n_slots, model.base.shape
        assert block.shape == (n_slots + 2, n_words, d) and block.dtype == np.float32 and block.flags.c_contiguous
        assert model.deltas.base is block and model.context.base is block
        slab = n_words * d * block.itemsize  # base, the delta of each slot, then context, as model.bin holds them
        starts = [m.ctypes.data - block.ctypes.data for m in (model.base, model.deltas, model.context)]
        assert starts == [0, slab, (n_slots + 1) * slab]
        trainer.save_model(model, tmp_path / "m.bin")
        assert (tmp_path / "m.bin").read_bytes().endswith(block.astype("<f4").tobytes())

    def test_base_is_init_plus_the_sum_of_the_deltas(self):
        # every pair applies the same update to base[w] and to its slot's delta, and the deltas start at zero
        config = quick_config()
        model = train_tiny(config)
        d = config.dim
        init = np.random.default_rng([config.seed, 0]).uniform(-0.5 / d, 0.5 / d, size=model.base.shape)
        residual = model.base - init.astype(np.float32).astype(np.float64) - model.deltas.sum(axis=0, dtype=np.float64)
        assert np.abs(residual).max() <= 1e-5 * np.abs(model.base).max()

    def test_non_finite_context_after_an_epoch_names_its_slab(self, monkeypatch):
        step, calls = trainer.sgd_step, []

        def counting_step(*args):
            calls.append(args[-1])
            return step(*args)

        monkeypatch.setattr(trainer, "sgd_step", counting_step)
        train_tiny(quick_config(epochs=1))
        epoch_steps, calls = len(calls), []

        def poisoning_step(base, deltas_flat, context, n_words, batch, lr):
            loss = step(base, deltas_flat, context, n_words, batch, lr)
            calls.append(lr)
            if len(calls) == epoch_steps:  # the last step of epoch 1
                context[3] = np.inf
            return loss

        monkeypatch.setattr(trainer, "sgd_step", poisoning_step)
        with pytest.raises(trainer.NumericError, match="non-finite value in context after epoch 0"):
            train_tiny(quick_config(epochs=2))
        assert len(calls) == epoch_steps

    def test_needs_two_slots(self):
        table = corpus.TimeSlotTable((corpus.TimeSlot(1700, 1750),))
        docs = slot_documents([[["a", "b"]]], table)
        vocab = corpus.build_vocab(docs, table, min_count=1)
        with pytest.raises(ValueError):
            trainer.train(docs, vocab, table, quick_config())

    def test_workers_run_to_completion(self, monkeypatch):
        monkeypatch.setattr(trainer, "max_workers", lambda: 2)  # so one usable CPU still allows 2 workers
        model = train_tiny(quick_config(workers=2))
        for mat in (model.base, model.deltas, model.context):
            assert np.isfinite(mat).all()

    def test_one_thread_pool_serves_every_epoch(self, monkeypatch):
        monkeypatch.setattr(trainer, "max_workers", lambda: 2)
        pools = []
        pool_class = trainer.ThreadPoolExecutor

        def counted_pool(*args, **kwargs):
            pools.append(kwargs)
            return pool_class(*args, **kwargs)

        monkeypatch.setattr(trainer, "ThreadPoolExecutor", counted_pool)
        train_tiny(quick_config(epochs=3, workers=2))
        assert pools == [{"max_workers": 2}]

    def test_one_worker_trains_on_the_calling_thread(self, monkeypatch):
        threads = threading.active_count()
        seen = []
        step = trainer.sgd_step

        def recording_step(*args):
            seen.append((threading.current_thread() is threading.main_thread(), threading.active_count()))
            return step(*args)

        monkeypatch.setattr(trainer, "sgd_step", recording_step)
        train_tiny(quick_config(epochs=2))
        assert len(seen) == 2 * 22 and set(seen) == {(True, threads)}  # 22 batches of 256 in 5400 pairs

    @pytest.mark.parametrize("failure", ["nan", "interrupt"])
    def test_a_failed_share_stops_every_worker(self, monkeypatch, failure):
        """A NaN loss or Ctrl-C in one share ends the other worker's share before its next batch."""
        monkeypatch.setattr(trainer, "max_workers", lambda: 2)
        lock, callers, failed_at = threading.Lock(), [], []
        step = trainer.sgd_step

        def failing_step(*args):
            with lock:
                callers.append(threading.get_ident())
                # from the 5th step on, once both shares have stepped, so the other one is under way
                if not failed_at and len(callers) >= 5 and len(set(callers)) == 2:
                    failed_at.append(len(callers))
                    if failure == "interrupt":
                        raise KeyboardInterrupt
                    return float("nan")
            return step(*args)

        monkeypatch.setattr(trainer, "sgd_step", failing_step)
        with pytest.raises(KeyboardInterrupt if failure == "interrupt" else trainer.NumericError):
            train_tiny(quick_config(epochs=1, batch_size=8, workers=2))  # 675 batches
        assert len(callers) <= failed_at[0] + 1  # at most the other share's step in flight

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


    def test_window_beyond_longest_document_counts_and_pairs_as_that_window(self):
        tokens = np.arange(9, dtype=np.int32)
        doc_ids = np.array([0, 0, 0, 1, 1, 1, 1, 1, 2], dtype=np.int32)  # longest document: 5 tokens
        assert [off for off, _ in trainer._near_positions(doc_ids, 10**18)] == [1, 2, 3, 4]
        assert trainer._epoch_count(iter([(tokens, doc_ids)]), 10**18) == (26, 9)
        got = record_triples([(tokens, doc_ids)], 10**18)
        assert np.array_equal(got, record_triples([(tokens, doc_ids)], 5))
        assert np.array_equal(got, oracle_triples([(tokens, doc_ids)], 5))
        assert len(got) == 26


def record_triples(slots, window):
    """train's pair codes of per-slot (tokens, doc_ids), decoded into (word, slot, context) rows in code order.

    As in train, the reach is the window or, if shorter, the longest
    document of the slots less one token. The codes are sized by train's
    count pass, which must give the pair oracle's count. A code is
    center * 2 * reach + j; j below reach steps forward by j + 1, else back
    by j - reach + 1.
    """
    longest = max((np.unique(doc_ids, return_counts=True)[1].max(initial=1) for _, doc_ids in slots), default=1)
    reach = min(window, int(longest) - 1)
    n_pairs, n_tokens = trainer._epoch_count(iter(slots), reach)
    assert n_pairs == len(oracle_triples(slots, window))
    assert n_tokens == sum(tokens.size for tokens, _ in slots)
    tokens, slot_ends, codes = trainer._epoch_records(iter(slots), n_tokens, n_pairs, reach)
    assert codes.shape == (n_pairs,) and codes.dtype == np.uint32
    centers, j = np.divmod(codes.astype(np.int64), max(2 * reach, 1))
    contexts = np.where(j < reach, centers + j + 1, centers - (j - reach + 1))
    slots_of = np.searchsorted(slot_ends, centers, side="right")
    return np.column_stack((tokens[centers], slots_of, tokens[contexts]))


def oracle_triples(slots, window):
    """The pair oracle's (word, slot, context) rows, slot after slot."""
    rows = [np.empty((0, 3), dtype=np.int64)]
    for slot, (tokens, doc_ids) in enumerate(slots):
        w, c = slot_pairs(tokens, doc_ids, window)
        rows.append(np.column_stack((w, np.full(w.size, slot), c)))
    return np.concatenate(rows)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 12), max_size=8), min_size=1, max_size=4), st.integers(1, 14))
def test_pair_count_sizes_the_pair_block(slot_lengths, window):
    # documents left empty by subsampling leave gaps in the document numbers, and a slot may keep no token
    slots, first = [], 100
    for lengths in slot_lengths:
        doc_ids = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
        slots.append((np.arange(first, first + doc_ids.size, dtype=np.int32), doc_ids))  # every token id distinct
        first += doc_ids.size
    want = oracle_triples(slots, window)
    assert sum(2 * near.size for _, doc_ids in slots for _, near in trainer._near_positions(doc_ids, window)) == len(want)
    assert np.array_equal(record_triples(slots, window), want)


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_int32_shuffle_is_permutation(n):
    """train's epoch shuffle: n uint32 pair codes shuffled in place take numpy's permutation(n).

    So does an int32 arange shuffled in place. The negatives are drawn from
    the same generator afterwards, so the generators must also leave the
    shuffle in the same state.
    """
    by_permutation = np.random.default_rng([3, 2, 0])
    perm = by_permutation.permutation(n)
    after = by_permutation.random(8)

    by_shuffle = np.random.default_rng([3, 2, 0])
    arange = np.arange(n, dtype=np.int32)
    by_shuffle.shuffle(arange)
    assert np.array_equal(arange, perm)
    assert np.array_equal(by_shuffle.random(8), after)

    by_shuffle = np.random.default_rng([3, 2, 0])
    codes = np.arange(n, dtype=np.uint32) * np.uint32(2**22) + np.uint32(7)  # codes above 2**31 among them
    want = codes[perm]
    by_shuffle.shuffle(codes)
    assert np.array_equal(codes, want)
    assert np.array_equal(by_shuffle.random(8), after)


@pytest.mark.parametrize("bound, refused", [(1799, True), (1800, False)])
def test_epoch_beyond_uint32_codes_refused(monkeypatch, bound, refused):
    """The tiny corpus keeps 1800 slot tokens an epoch, paired up to offset 2, so 4 steps per code.

    A code bound for ``bound`` such tokens refuses one token more before any
    slot pass is made.
    """
    monkeypatch.setattr(trainer, "MAX_EPOCH_CODES", 4 * bound)
    passes, built = [], []
    slot_passes, epoch_records = trainer._slot_passes, trainer._epoch_records
    monkeypatch.setattr(trainer, "_slot_passes", lambda *args: passes.append(args) or slot_passes(*args))
    monkeypatch.setattr(trainer, "_epoch_records", lambda *args: built.append(args) or epoch_records(*args))
    if refused:
        with pytest.raises(ValueError, match="an epoch of 1800 slot tokens times 4 pair steps is more than the 7196 .*uint32"):
            train_tiny(quick_config(epochs=1))
        assert passes == [] and built == []
    else:
        train_tiny(quick_config(epochs=1))
        assert len(passes) == 2 and len(built) == 1  # the count pass, then the training pass


class TestProgressLog:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_logs_each_twentieth_of_an_epoch(self, caplog, monkeypatch, workers):
        monkeypatch.setattr(trainer, "max_workers", lambda: 2)  # so one usable CPU still allows 2 workers
        config = quick_config(epochs=1, batch_size=27, workers=workers)  # 5400 pairs: a mark every 10 batches
        with caplog.at_level("INFO", logger="verseshift.trainer"):
            model = train_tiny(config)
        lines = [re.fullmatch(r"epoch 1/1: (\d+)/5400 pairs, (\d+) pairs/s, lr (\S+), mean loss (\S+)", m)
                 for m in caplog.messages if "pairs/s" in m]
        assert all(lines) and len(lines) == 20
        assert [int(line[1]) for line in lines] == [270 * k for k in range(1, 21)]
        assert all(int(line[2]) > 0 for line in lines)
        lrs = np.array([float(line[3]) for line in lines])
        if workers == 1:  # the batch that reaches a mark starts 27 pairs before it
            span = config.final_lr - config.initial_lr
            want = config.initial_lr + span * (np.arange(270, 5401, 270) - 27) / 5400
            assert lrs == pytest.approx(want, rel=1e-5)
        assert ((config.final_lr <= lrs) & (lrs <= config.initial_lr)).all()
        assert float(lines[-1][4]) == pytest.approx(model.epoch_losses[0], abs=1e-5)


def test_epoch_working_memory_is_under_eight_bytes_per_pair():
    """One epoch's traced peak above the model it returns, per pair, on about 400k pairs.

    An epoch holds a 4-byte code per pair and 4 bytes per kept slot token
    (7.3 bytes per pair in all here); (center, context) int32 records held 8
    bytes per pair (11.3 in all), and a (word, slot, context) int32 block with
    an int32 shuffling permutation would hold 16.
    """
    table = make_table([1700, 1750])
    rng = np.random.default_rng(2)
    docs_by_slot = [[[f"w{i}" for i in rng.integers(0, 40, 12)] for _ in range(2250)] for _ in range(2)]
    docs = slot_documents(docs_by_slot, table)
    vocab = corpus.build_vocab(docs, table, min_count=1)
    config = quick_config(dim=2, context_window=5, negatives=1, epochs=1, batch_size=1024)
    _, extra = working_bytes(lambda: trainer.train(docs, vocab, table, config))
    n_pairs = 4500 * 2 * (11 + 10 + 9 + 8 + 7)  # 4500 documents of 12 tokens
    assert n_pairs >= 200_000
    assert extra / n_pairs < 8.0


def reference_corpus(table):
    """Documents of 1 to 10 tokens over 30 Zipf-weighted words, years spread over the table."""
    rng = np.random.default_rng(8)
    words = [f"w{i:02d}" for i in range(30)]
    p = 1.0 / np.arange(1, 31)
    token_lists = [list(rng.choice(words, size=rng.integers(1, 11), p=p / p.sum())) for _ in range(240)]
    years = rng.integers(table[0].start, table[-1].end, size=len(token_lists))
    return corpus.Documents.from_tokens(token_lists, years.tolist())


class TestTrainMatchesReference:
    """train gives bit for bit the model of the loop with up-front masks and permuted pair copies."""

    @pytest.mark.parametrize("table", [corpus.build_slots(1700, 1800, 25, 25), corpus.build_slots(1700, 1800, 50, 25)],
                             ids=["fixed", "sliding"])
    @pytest.mark.parametrize("subsample", [0.0, 0.01])
    @pytest.mark.parametrize("epochs", [1, 3])
    def test_bit_identical(self, table, subsample, epochs):
        docs = reference_corpus(table)
        vocab = corpus.build_vocab(docs, table, min_count=1)
        config = quick_config(epochs=epochs, subsample_threshold=subsample, batch_size=97, seed=5)
        encoded = slot_encoding(docs, vocab, table)
        n_pairs = sum(slot_pairs(tokens, doc_ids, config.context_window)[0].size for tokens, doc_ids in encoded)
        assert n_pairs % config.batch_size  # the last batch of an unsubsampled epoch is partial
        if subsample:
            assert trainer._keep_probabilities(vocab, subsample).min() < 0.5  # frequent words are dropped
        self.assert_matches_reference(docs, vocab, table, config)

    def test_window_beyond_every_document(self):
        table = corpus.build_slots(1700, 1800, 50, 25)
        docs = reference_corpus(table)
        assert docs.lengths.max() == 10
        vocab = corpus.build_vocab(docs, table, min_count=1)
        config = quick_config(context_window=12, epochs=2, subsample_threshold=0.01, batch_size=97, seed=5)
        self.assert_matches_reference(docs, vocab, table, config)

    @staticmethod
    def assert_matches_reference(docs, vocab, table, config):
        got = trainer.train(docs, vocab, table, config)
        want = train_reference(docs, vocab, table, config)
        assert np.array_equal(got.base, want.base)
        assert np.array_equal(got.deltas, want.deltas)
        assert np.array_equal(got.context, want.context)
        assert got.epoch_losses == want.epoch_losses
        assert len(got.epoch_losses) == config.epochs


class TestTrainedSemantics:
    def test_synonym_clusters(self, synonym_model):
        model = synonym_model

        def sim(a, b):
            return rowwise_cosine(model.embedding_of(a, 0), model.embedding_of(b, 0))

        assert sim("koenig", "fuerst") > sim("koenig", "apfel")
        assert sim("koenig", "fuerst") > sim("koenig", "birne")
        assert sim("apfel", "birne") > sim("apfel", "koenig")
        assert sim("apfel", "birne") > sim("birne", "fuerst")

    def test_nearest_neighbor_of_koenig_is_fuerst(self, synonym_model):
        neighbors = synonym_model.nearest_neighbors("koenig", 0, 1)
        assert neighbors[0][0] == "fuerst"

    def test_shifted_word_less_self_similar_than_stable(self, synonym_model):
        model = synonym_model
        moved = rowwise_cosine(model.embedding_of("wandel", 0), model.embedding_of("wandel", 1))
        stable = rowwise_cosine(model.embedding_of("fels", 0), model.embedding_of("fels", 1))
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
        vocab = synonym_model.vocab
        # a lemma may hold multi-byte UTF-8 and an internal space
        words = ["grüne au", "straße", "日本語", *vocab.words[3:]]
        starts = [s.start for s in synonym_model.slot_table]
        model = make_model(
            words, starts, synonym_model.base, synonym_model.deltas, synonym_model.context,
            vocab.slot_counts, vocab.global_counts,
        )
        trainer.save_model(model, path1)
        loaded = trainer.load_model(path1)
        assert np.array_equal(loaded.base, model.base)
        assert np.array_equal(loaded.deltas, model.deltas)
        assert np.array_equal(loaded.context, model.context)
        assert loaded.vocab.words == words
        assert np.array_equal(loaded.vocab.global_counts, vocab.global_counts)
        assert np.array_equal(loaded.vocab.slot_counts, vocab.slot_counts)
        assert [(s.start, s.end) for s in loaded.slot_table] == [(s.start, s.end) for s in synonym_model.slot_table]
        trainer.save_model(loaded, path2)
        assert path1.read_bytes() == path2.read_bytes()

    def test_tiny_model_bytes(self, tmp_path):
        """The file format, byte for byte, so a change on the write side shows even when load agrees."""
        assert write_tiny_model(tmp_path / "m.bin") == bytes.fromhex(
            "444c4b56 02000000"  # magic, version
            " 02000000 02000000 02000000"  # dim, words, slots
            " 40060000 72060000 72060000 a4060000"  # slot years 1600-1650, 1650-1700
            " 01000000 01000000"  # word byte lengths
            " 1400000000000000 0a00000000000000 0a00000000000000"  # "a": global count, per-slot counts
            " 1400000000000000 0a00000000000000 0a00000000000000"  # "b"
            " 6162"  # the words
            " 0000803f 0000003f 0000003f 0000803f"  # base
            " cdcccc3d 00000000 00000000 cdcc4c3e"  # slot 0 delta
            " 00000000 9a99993e cdcccc3e 00000000"  # slot 1 delta
            " 00000000 00000000 00000000 00000000"  # context
        )

    def test_loaded_matrices_are_read_only(self, tmp_path):
        path = tmp_path / "m.bin"
        write_tiny_model(path)
        model = trainer.load_model(path)
        for mat in (model.base, model.deltas, model.context):
            assert not mat.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 1.0

    def test_loaded_model_keeps_values_when_path_is_saved_over(self, tmp_path, synonym_model):
        path = tmp_path / "m.bin"
        trainer.save_model(synonym_model, path)
        loaded = trainer.load_model(path)
        starts = [s.start for s in synonym_model.slot_table]
        vocab = synonym_model.vocab
        other = make_model(
            vocab.words, starts, synonym_model.base + 1.0, synonym_model.deltas * 2.0,
            synonym_model.context - 1.0, vocab.slot_counts, vocab.global_counts,
        )
        trainer.save_model(other, path)
        # the analysis reads through the descriptor of the file that was loaded, not the path
        cosines = analysis.pairwise_self_similarity(loaded, top_n=len(vocab)).cosines
        want_cosines = analysis.pairwise_self_similarity(synonym_model, top_n=len(vocab)).cosines
        assert all(np.array_equal(got, want) for got, want in zip(cosines, want_cosines, strict=True))
        for got, want in ((loaded.base, synonym_model.base), (loaded.deltas, synonym_model.deltas),
                          (loaded.context, synonym_model.context)):
            assert np.array_equal(got, want)
        assert np.array_equal(trainer.load_model(path).base, other.base)

    def test_analysis_of_a_model_truncated_after_its_load_raises_format_error(self, tmp_path):
        n_words = 20_000
        path = tmp_path / "m.bin"
        trainer.save_model(random_model(n_words, 4, 50, 28), path)
        assert path.stat().st_size > 20 << 20
        loaded = trainer.load_model(path)
        os.truncate(path, 3 << 20)  # in place: the mapping now runs past the file's end
        with pytest.raises(trainer.ModelFormatError, match="truncated model file"):
            analysis.pairwise_self_similarity(loaded, top_n=n_words)

    def test_a_loaded_model_leaves_no_descriptor_open_once_collected(self, tmp_path, synonym_model):
        path = tmp_path / "m.bin"
        trainer.save_model(synonym_model, path)
        open_fds = len(os.listdir("/dev/fd"))
        model = trainer.load_model(path)
        assert len(os.listdir("/dev/fd")) > open_fds  # the reads go through a descriptor of their own
        del model
        assert len(os.listdir("/dev/fd")) == open_fds

    def test_failed_save_leaves_old_file(self, tmp_path, synonym_model):
        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise OSError("no space left on device")

        path = tmp_path / "m.bin"
        trainer.save_model(synonym_model, path)
        before = path.read_bytes()
        broken = trainer.JointEmbeddingModel(
            synonym_model.vocab, synonym_model.slot_table, synonym_model.base, synonym_model.deltas, Unwritable()
        )
        with pytest.raises(OSError, match="no space"):
            trainer.save_model(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.bin"]  # no temporary file left behind

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

    @pytest.mark.parametrize("version", [1, 99])
    def test_unsupported_version_errors(self, tmp_path, synonym_model, version):
        path = tmp_path / "m.bin"
        trainer.save_model(synonym_model, path)
        data = bytearray(path.read_bytes())
        data[4] = version
        path.write_bytes(bytes(data))
        with pytest.raises(trainer.ModelFormatError, match=f"version {version} "):
            trainer.load_model(path)

    def test_oversized_header_errors_before_allocating(self, tmp_path):
        # 36 bytes claiming 2**32 - 1 words once made numpy try to allocate 32 GiB
        path = tmp_path / "m.bin"
        header = struct.pack("<IIII", trainer.MODEL_VERSION, 100, 2**32 - 1, 2) + struct.pack("<iiii", 1600, 1650, 1650, 1700)
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

    @pytest.mark.parametrize("step", [1, -1], ids=["plus-one", "minus-one"])
    @pytest.mark.parametrize("field", [0, 4, 8], ids=["dim", "words", "slots"])
    def test_header_size_off_by_one_is_a_length_error(self, tmp_path, field, step):
        """Every block is viewed and the length checked before any word is decoded or count checked."""
        path = tmp_path / "m.bin"
        (size,) = struct.unpack_from("<I", write_tiny_model(path), TINY_DIM_FIELD + field)
        write_tiny_model(path, TINY_DIM_FIELD + field, struct.pack("<I", size + step))
        with pytest.raises(trainer.ModelFormatError, match="truncated|its header says"):
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
        write_tiny_model(path, TINY_WORD0 + 1, b"\xff")
        with pytest.raises(trainer.ModelFormatError, match="word 1 .* UTF-8"):
            trainer.load_model(path)

    def test_repeated_word_errors(self, tmp_path):
        path = tmp_path / "m.bin"
        write_tiny_model(path, TINY_WORD0 + 1, b"a")  # the words "a" and "a"
        with pytest.raises(trainer.ModelFormatError, match="repeated word"):
            trainer.load_model(path)

    def test_non_increasing_slot_years_error(self, tmp_path):
        path = tmp_path / "m.bin"
        write_tiny_model(path, TINY_SLOT_YEARS, struct.pack("<iiii", 1650, 1700, 1600, 1650))
        with pytest.raises(trainer.ModelFormatError, match="slot years"):
            trainer.load_model(path)

    @pytest.mark.parametrize(
        "offset, value, slab",
        [(TINY_BASE, np.nan, "base"), (TINY_DELTA1 + 4, np.inf, "slot 1 delta"), (TINY_CONTEXT + 12, -np.inf, "context")],
        ids=["nan-base", "inf-delta", "inf-context"],
    )
    def test_non_finite_matrix_errors(self, tmp_path, offset, value, slab):
        path = tmp_path / "m.bin"
        write_tiny_model(path, offset, np.float32(value).astype("<f4").tobytes())
        with pytest.raises(trainer.ModelFormatError, match=f"non-finite value in the {slab} matrix"):
            trainer.load_model(path)

    def test_non_finite_value_in_a_later_read_names_its_matrix(self, tmp_path, monkeypatch):
        monkeypatch.setattr(trainer, "CHECK_BYTES", 8)  # one row of the tiny model per read
        path = tmp_path / "m.bin"
        write_tiny_model(path, TINY_DELTA1 + 12, np.float32(np.nan).astype("<f4").tobytes())  # its second row
        with pytest.raises(trainer.ModelFormatError, match="non-finite value in the slot 1 delta matrix"):
            trainer.load_model(path)
