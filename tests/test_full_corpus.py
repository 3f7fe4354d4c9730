"""Reference-corpus regression checks, only run when the corpus is supplied.

Point DLK_CORPUS at the released JSON Lines stanza file (optionally
DLK_LEMMA_MAP and DLK_STOPWORDS at the matching resources) to enable.
These checks pin the published corpus-level numbers; they are skipped on
the synthetic desk-scale suite.
"""

from __future__ import annotations

import os

import pytest

from verseshift import analysis, corpus, trainer, tropes

from conftest import stanza_documents

CORPUS_ENV = "DLK_CORPUS"

REFERENCE_COUNTS = {
    "tokens": 11_849_112,
    "stanzas": 280_234,
    "poems": 74_155,
    "authors": 269,
}
REFERENCE_DUPLICATES = 9_600
REFERENCE_ELIGIBLE_WORDS = 472
REFERENCE_RISING_WORDS = {
    "frische", "veilchen", "niedersinken", "duftig", "jenseits", "zauber",
    "entgleiten", "künden", "hoffend", "efeu", "enthüllen", "erfüllung",
    "heimat", "trübe", "gloria",
}

pytestmark = pytest.mark.skipif(
    not os.environ.get(CORPUS_ENV),
    reason=f"set {CORPUS_ENV} to the released corpus file to run the reference checks",
)


@pytest.fixture(scope="module")
def prepared():
    result = corpus.ingest(os.environ[CORPUS_ENV])
    lemma_path = os.environ.get("DLK_LEMMA_MAP")
    lemma_map = corpus.load_lemma_map(lemma_path) if lemma_path else {}
    normalized = corpus.normalize(result.stanzas, lemma_map)
    return result, normalized


def test_reference_corpus_size(prepared):
    result, normalized = prepared
    assert len(result.stanzas) == REFERENCE_COUNTS["stanzas"]
    assert len({s.poem_id for s in result.stanzas}) == REFERENCE_COUNTS["poems"]
    assert len({s.author for s in result.stanzas}) == REFERENCE_COUNTS["authors"]
    assert sum(len(s.tokens) for s in normalized) == REFERENCE_COUNTS["tokens"]


def test_reference_duplicate_removal(prepared):
    _, normalized = prepared
    deduped = corpus.dedup_first_line(normalized)
    assert len(normalized) - len(deduped) == REFERENCE_DUPLICATES


@pytest.fixture(scope="module")
def sliding_model(prepared):
    _, normalized = prepared
    deduped = corpus.dedup_first_line(normalized)
    docs = stanza_documents(deduped)
    table = corpus.build_slots(1575, 1925, 50, 25)
    vocab = corpus.build_vocab(docs, table, min_count=5)
    config = trainer.TrainConfig(seed=1)
    return trainer.train(docs, vocab, table, config)


def test_reference_eligible_word_count(sliding_model):
    stop_path = os.environ.get("DLK_STOPWORDS")
    stopwords = corpus.load_stopwords(stop_path) if stop_path else frozenset()
    total = analysis.total_self_similarity(sliding_model, min_per_slot=50, stopwords=stopwords)
    # 5% slack for tokenizer and lemma-table divergence
    assert abs(len(total.words) - REFERENCE_ELIGIBLE_WORDS) <= REFERENCE_ELIGIBLE_WORDS * 0.05


def test_reference_rising_tropes(prepared):
    _, normalized = prepared
    deduped = corpus.dedup_first_line(normalized)
    docs = stanza_documents(deduped)
    table = corpus.build_slots(1575, 1925, 50, 50, merge_first=True)
    vocab = corpus.build_vocab(docs, table, min_count=5)
    model = trainer.train(docs, vocab, table, trainer.TrainConfig(seed=1))
    trajectories = tropes.build_trajectories(model, "liebe", min_global=30, min_per_slot=2)
    report = tropes.orient_components(tropes.trajectory_pca(trajectories, 4, 25))
    rising = set(report.component_members(1, "pos"))
    assert len(rising & REFERENCE_RISING_WORDS) >= 5
