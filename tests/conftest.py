from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from verseshift import corpus, synthgen, trainer


def make_stanza(sid="s1", year=1700, lines=("Eine Zeile hier",), tokens=(), author="a", poem=None):
    return corpus.Stanza(
        id=sid,
        poem_id=poem or sid,
        author=author,
        year=year,
        lines=list(lines),
        tokens=list(tokens),
    )


def stanza_documents(stanzas):
    """Columnar documents of normalized stanzas, as the cache would load them."""
    return corpus.Documents.from_tokens([s.tokens for s in stanzas], [s.year for s in stanzas])


def slot_documents(docs_by_slot, table):
    """Columnar documents from per-slot token lists; each slot's documents fall in its start year.

    For a fixed table this places every document in exactly its own slot.
    """
    token_lists = [doc for docs in docs_by_slot for doc in docs]
    years = [slot.start for slot, docs in zip(table, docs_by_slot) for _ in docs]
    return corpus.Documents.from_tokens(token_lists, years)


def make_vocab(words, slot_counts, global_counts=None):
    """Vocabulary straight from arrays; slot_counts is (S, V)."""
    slot_counts = np.asarray(slot_counts, dtype=np.int64)
    if global_counts is None:
        global_counts = slot_counts.sum(axis=0)
    return corpus.Vocabulary(
        words=list(words),
        index={w: i for i, w in enumerate(words)},
        global_counts=np.asarray(global_counts, dtype=np.int64),
        slot_counts=slot_counts,
        slot_total_tokens=slot_counts.sum(axis=1),
    )


def make_table(starts, width=50):
    return corpus.TimeSlotTable(tuple(corpus.TimeSlot(s, s + width) for s in starts))


def make_model(words, slot_starts, base, deltas, context=None, slot_counts=None, global_counts=None):
    """Hand-assembled model for analysis tests; counts default to all-present."""
    base = np.asarray(base, dtype=np.float32)
    deltas = np.asarray(deltas, dtype=np.float32)
    n_slots = deltas.shape[0]
    if slot_counts is None:
        slot_counts = np.full((n_slots, len(words)), 10, dtype=np.int64)
    vocab = make_vocab(words, slot_counts, global_counts)
    table = make_table(list(slot_starts))
    if context is None:
        context = np.zeros_like(base)
    return trainer.JointEmbeddingModel(vocab, table, base, deltas, np.asarray(context, np.float32))


def random_model(n_words, n_slots, dim, seed, **counts):
    """Words ``w0``, ``w1``, ... over 50-year slots from 1600, with standard normal base and deltas."""
    rng = np.random.default_rng(seed)
    return make_model(
        [f"w{i}" for i in range(n_words)], [1600 + 50 * t for t in range(n_slots)],
        rng.standard_normal((n_words, dim), dtype=np.float32),
        rng.standard_normal((n_slots, n_words, dim), dtype=np.float32), **counts,
    )


def working_bytes(fn):
    """Run ``fn``; returns its result and its traced peak above what that result keeps.

    ``fn`` runs once untraced first, so one-time imports and caches do not count.
    """
    fn()
    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - kept


def stack_model(n_words=6000, n_slots=13, dim=32, seed=0):
    """A model at the analysis-memory test shape; every word is in every slot 60 times."""
    rng = np.random.default_rng(seed)
    return make_model(
        [f"w{i}" for i in range(n_words)], [1575 + 25 * t for t in range(n_slots)],
        rng.normal(size=(n_words, dim)), rng.normal(scale=0.3, size=(n_slots, n_words, dim)),
        slot_counts=np.full((n_slots, n_words), 60), global_counts=np.full(n_words, 800),
    )


# Byte offsets in the file write_tiny_model saves: 20-byte header (magic,
# version, dim, words, slots), then one block per column: a <ii start/end pair
# per slot, a u32 byte length per word, per word its u64 global count and one
# u64 count per slot, the words' UTF-8 bytes back to back, then the float32
# matrices: base, the delta of each slot, context, 16 bytes each.
TINY_DIM_FIELD = 8
TINY_SLOT_YEARS = 20
TINY_WORD_LENGTHS = 36
TINY_GLOBAL_COUNT0 = 44
TINY_SLOT_COUNT0 = 52
TINY_WORD0 = 92
TINY_BASE = 94
TINY_DELTA1 = 126
TINY_CONTEXT = 142


def write_tiny_model(path, offset: int | None = None, raw: bytes = b"") -> bytes:
    """Save a 2-word, 2-slot, 2-d model, overwrite ``raw`` at ``offset``; returns the bytes."""
    deltas = [[[0.1, 0.0], [0.0, 0.2]], [[0.0, 0.3], [0.4, 0.0]]]
    model = make_model(["a", "b"], [1600, 1650], base=[[1.0, 0.5], [0.5, 1.0]], deltas=deltas)
    trainer.save_model(model, path)
    data = bytearray(path.read_bytes())
    if offset is not None:
        data[offset : offset + len(raw)] = raw
    path.write_bytes(bytes(data))
    return bytes(data)


# Byte offsets in the file write_tiny_cache saves: the magic, the version, then
# <u8 counts of types, tokens and documents, a u32 byte length per type, the
# types' UTF-8 bytes ("a", "b", "ä"), the <i4 ids of the 5 tokens, the <i8
# offsets of the 2 documents and their <i8 years.
TINY_CACHE_VERSION_FIELD = 4
TINY_CACHE_COUNTS = 8
TINY_CACHE_TYPE_LENGTHS = 32
TINY_CACHE_TYPES = 44
TINY_CACHE_IDS = 48
TINY_CACHE_OFFSETS = 68
TINY_CACHE_YEARS = 92


def write_tiny_cache(path, offset: int | None = None, raw: bytes = b"") -> bytes:
    """Save a 2-document corpus cache, overwrite ``raw`` at ``offset``; returns the bytes."""
    stanzas = [make_stanza("s1", 1610, tokens=["a", "b", "a"]), make_stanza("s2", 1660, tokens=["b", "ä"])]
    corpus.save_normalized(stanzas, path)
    data = bytearray(path.read_bytes())
    if offset is not None:
        data[offset : offset + len(raw)] = raw
    path.write_bytes(bytes(data))
    return bytes(data)


@pytest.fixture(scope="session")
def synonym_model():
    """Small trained model with two planted synonym pairs and one shifting word.

    koenig/fuerst share one context cluster, apfel/birne another; 'wandel'
    swaps clusters at slot 1 of 2 while 'fels' stays put.
    """
    cluster_a = [f"tha{j}" for j in range(8)]
    cluster_b = [f"obs{j}" for j in range(8)]
    planted = [
        synthgen.PlantedWord("koenig", "stable", occurrences_per_slot=120, context_words=cluster_a),
        synthgen.PlantedWord("fuerst", "stable", occurrences_per_slot=120, context_words=cluster_a),
        synthgen.PlantedWord("apfel", "stable", occurrences_per_slot=120, context_words=cluster_b),
        synthgen.PlantedWord("birne", "stable", occurrences_per_slot=120, context_words=cluster_b),
        synthgen.PlantedWord("fels", "stable", occurrences_per_slot=120, cluster_size=8),
        synthgen.PlantedWord(
            "wandel", "abrupt_shift", shift_slot=1, occurrences_per_slot=120, cluster_size=8
        ),
    ]
    spec = synthgen.SynthSpec(
        slot_count=2,
        start_year=1700,
        slot_width=50,
        filler_words=12,
        tokens_per_slot=10_000,
        seed=9,
        planted=planted,
    )
    records = synthgen.generate(spec)
    stanzas = [
        corpus.Stanza(r["id"], r["poem_id"], r["author"], r["year"], r["lines"]) for r in records
    ]
    docs = stanza_documents(corpus.normalize(stanzas))
    table = corpus.build_slots(1700, 1800, 50, 50)
    vocab = corpus.build_vocab(docs, table, min_count=1)
    config = trainer.TrainConfig(
        dim=32,
        context_window=3,
        negatives=5,
        epochs=4,
        subsample_threshold=0.0,
        seed=5,
        batch_size=1024,
    )
    return trainer.train(docs, vocab, table, config)
