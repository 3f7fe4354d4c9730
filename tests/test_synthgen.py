from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from verseshift import corpus, synthgen


def small_spec(**overrides):
    params = dict(
        slot_count=3,
        start_year=1600,
        slot_width=50,
        filler_words=8,
        tokens_per_slot=2000,
        seed=42,
        planted=[
            synthgen.PlantedWord("alpha", "stable", occurrences_per_slot=20),
            synthgen.PlantedWord("beta", "abrupt_shift", shift_slot=1, occurrences_per_slot=20),
            synthgen.PlantedWord("gamma", "linear_drift", drift_rate=1.0, occurrences_per_slot=20),
        ],
    )
    params.update(overrides)
    return synthgen.SynthSpec(**params)


class TestGenerate:
    def test_ingest_accepts_everything(self, tmp_path):
        path = tmp_path / "c.jsonl"
        n = synthgen.generate_jsonl(small_spec(), path)
        result = corpus.ingest(path)
        assert len(result.stanzas) == n
        assert result.dropped == 0
        normalized = corpus.normalize(result.stanzas)
        assert len(normalized) == n  # every stanza keeps its tokens

    def test_planted_counts_met_exactly(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "c.jsonl"
        synthgen.generate_jsonl(spec, path)
        stanzas = corpus.normalize(corpus.ingest(path).stanzas)
        table = corpus.build_slots(1600, 1750, 50, 50)
        member = corpus.assign_slots([s.year for s in stanzas], table)
        for in_slot in member.T:
            counts = Counter(tok for s, hit in zip(stanzas, in_slot) if hit for tok in s.tokens)
            for item in spec.planted:
                assert counts[item.word] == item.occurrences_per_slot

    def test_token_budget_respected(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "c.jsonl"
        synthgen.generate_jsonl(spec, path)
        stanzas = corpus.normalize(corpus.ingest(path).stanzas)
        table = corpus.build_slots(1600, 1750, 50, 50)
        member = corpus.assign_slots([s.year for s in stanzas], table)
        for in_slot in member.T:
            total = sum(len(s.tokens) for s, hit in zip(stanzas, in_slot) if hit)
            assert spec.tokens_per_slot - spec.stanza_tokens < total <= spec.tokens_per_slot

    def test_seed_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        synthgen.generate_jsonl(small_spec(), p1)
        synthgen.generate_jsonl(small_spec(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_bytes_are_pinned(self, tmp_path):
        # every kind of planted word, and a context word ending in a NUL, which a "<U" numpy array would drop
        spec = synthgen.SynthSpec(slot_count=6, tokens_per_slot=50_000, seed=7, planted=[
            synthgen.PlantedWord("alpha", "stable", occurrences_per_slot=120, context_words=["ka", "kb\x00"]),
            synthgen.PlantedWord("beta", "abrupt_shift", shift_slot=3, occurrences_per_slot=80),
            synthgen.PlantedWord("gamma", "linear_drift", drift_rate=0.7, occurrences_per_slot=60, cluster_size=4),
        ])
        synthgen.generate_jsonl(spec, tmp_path / "c.jsonl")
        digest = hashlib.sha256((tmp_path / "c.jsonl").read_bytes()).hexdigest()
        assert digest == "6f2376378b32581c6accd2243848bb78e1de8906402e50d740b2d6f72e98d124"

    def test_different_seed_differs(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        synthgen.generate_jsonl(small_spec(seed=1), p1)
        synthgen.generate_jsonl(small_spec(seed=2), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_abrupt_shift_changes_contexts(self, tmp_path):
        spec = small_spec()
        records = synthgen.generate(spec)
        before, after = spec.resolved_clusters()["beta"]
        for rec in records:
            tokens = " ".join(rec["lines"]).split()
            if "beta" not in tokens:
                continue
            others = [t for t in tokens if t != "beta"]
            slot = (rec["year"] - 1600) // 50
            cluster = after if slot >= 1 else before
            assert set(others) <= set(cluster)

    def test_budget_too_small_errors(self):
        with pytest.raises(ValueError, match="too small"):
            small_spec(tokens_per_slot=300).validate()

    def test_duplicate_planted_words_error(self):
        spec = small_spec()
        spec.planted.append(synthgen.PlantedWord("alpha"))
        with pytest.raises(ValueError, match="distinct"):
            spec.validate()

    def test_shift_slot_range_checked(self):
        with pytest.raises(ValueError):
            small_spec(
                planted=[synthgen.PlantedWord("x", "abrupt_shift", shift_slot=3)]
            ).validate()

    def test_unknown_kind_errors(self):
        with pytest.raises(ValueError):
            small_spec(planted=[synthgen.PlantedWord("x", "sprunghaft")]).validate()

    def test_negative_seed_errors_naming_it(self):
        small_spec(seed=0).validate()
        with pytest.raises(ValueError, match="seed must be at least 0"):
            small_spec(seed=-3).validate()


class TestSpecFile:
    def test_load_spec_roundtrip(self, tmp_path):
        spec_obj = {
            "slot_count": 4,
            "start_year": 1700,
            "slot_width": 25,
            "filler_words": 5,
            "tokens_per_slot": 1500,
            "seed": 7,
            "planted": [
                {"word": "rose", "kind": "stable", "occurrences_per_slot": 10},
                {"word": "mond", "kind": "abrupt_shift", "shift_slot": 2, "occurrences_per_slot": 10},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec_obj), encoding="utf-8")
        spec = synthgen.load_spec(path)
        assert spec.slot_count == 4
        assert spec.planted[1].shift_slot == 2
        records = synthgen.generate(spec)
        assert records

    def test_context_pool_covers_all_clusters(self):
        spec = small_spec()
        pool = set(spec.context_word_pool())
        for before, after in spec.resolved_clusters().values():
            assert set(before) <= pool
            assert set(after) <= pool
