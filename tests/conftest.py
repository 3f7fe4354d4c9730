from __future__ import annotations

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
    slots = tuple(corpus.TimeSlot(s, s + width, f"{s}-{s + width}") for s in starts)
    step = starts[1] - starts[0] if len(starts) > 1 else width
    return corpus.TimeSlotTable(slots=slots, window_years=width, step_years=step)


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


# Byte offsets in the file write_tiny_model saves: 20-byte header (magic,
# version, dim, words, slots), one <ii start/end pair per slot, then per word
# a u32 length, the UTF-8 word, its u64 global count and one u64 per slot.
TINY_DIM_FIELD = 8
TINY_SLOT_YEARS = 20
TINY_WORD0 = 40
TINY_GLOBAL_COUNT0 = 41
TINY_SLOT_COUNT0 = 49


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
    stanzas = corpus.normalize(stanzas)
    table = corpus.build_slots(1700, 1800, 50, 50)
    assignment = corpus.assign_slots(stanzas, table)
    vocab = corpus.build_vocab(assignment, min_count=1)
    docs = [[s.tokens for s in slot] for slot in assignment.per_slot]
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
