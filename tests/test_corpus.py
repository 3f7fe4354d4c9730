from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseshift import corpus

from conftest import make_stanza


def write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n", encoding="utf-8")


def record(i=1, year=1700, lines=("Ich liebe dich", "noch eine Zeile"), **extra):
    rec = {"id": f"s{i}", "poem_id": f"p{i}", "author": "A. Dichter", "year": year, "lines": list(lines)}
    rec.update(extra)
    return rec


class TestIngest:
    def test_three_valid_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(1), record(2), record(3)])
        result = corpus.ingest(path)
        assert len(result.stanzas) == 3
        assert result.dropped == 0
        assert [s.id for s in result.stanzas] == ["s1", "s2", "s3"]

    def test_missing_year_dropped_and_counted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record(1)
        del rec["year"]
        write_jsonl(path, [rec, record(2)])
        result = corpus.ingest(path)
        assert len(result.stanzas) == 1
        assert result.dropped_missing_year == 1

    @pytest.mark.parametrize("year", [999, 2101, "1800", 1800.5, True])
    def test_invalid_year_dropped(self, tmp_path, year):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(1, year=year)])
        result = corpus.ingest(path)
        assert not result.stanzas
        assert result.dropped_invalid_year == 1

    def test_year_bounds_inclusive(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [record(1, year=1000), record(2, year=2100)])
        assert len(corpus.ingest(path).stanzas) == 2

    def test_malformed_line_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "s1", broken\n' + json.dumps(record(2)) + "\n", encoding="utf-8")
        result = corpus.ingest(path)
        assert len(result.stanzas) == 1
        assert result.dropped_malformed == 1

    def test_malformed_schema_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "s1", "year": 1700}, record(2)])  # no lines
        result = corpus.ingest(path)
        assert len(result.stanzas) == 1
        assert result.dropped_malformed == 1

    def test_strict_mode_aborts(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError):
            corpus.ingest(path, strict=True)

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(corpus.CorpusError):
            corpus.ingest(tmp_path / "missing.jsonl")

    def test_unknown_keys_ignored_and_poem_default(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = record(1, zusatz="egal")
        del rec["poem_id"]
        write_jsonl(path, [rec])
        result = corpus.ingest(path)
        assert result.stanzas[0].poem_id == "s1"


class TestDedup:
    def test_earliest_year_wins(self):
        a = make_stanza("x2", 1800, ["Ich liebe dich"])
        b = make_stanza("x1", 1700, ["Ich liebe dich"])
        kept = corpus.dedup_first_line([a, b])
        assert kept == [b]

    def test_tie_breaks_by_smallest_id(self):
        a = make_stanza("b", 1700, ["Ich liebe dich"])
        b = make_stanza("a", 1700, ["Ich liebe dich"])
        kept = corpus.dedup_first_line([a, b])
        assert [s.id for s in kept] == ["a"]

    def test_distinct_first_lines_unchanged(self):
        stanzas = [make_stanza(f"s{i}", 1700, [f"Zeile {i}"]) for i in range(4)]
        assert corpus.dedup_first_line(stanzas) == stanzas

    def test_normalization_collapses_variants(self):
        a = make_stanza("s1", 1700, ["Ich  liebe, dich!"])
        b = make_stanza("s2", 1800, ["ich liebe dich"])
        assert len(corpus.dedup_first_line([a, b])) == 1

    def test_first_line_only(self):
        a = make_stanza("s1", 1700, ["gleiche zeile", "anders"])
        b = make_stanza("s2", 1800, ["gleiche zeile", "ganz anders"])
        assert len(corpus.dedup_first_line([a, b])) == 1

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 30),
                st.sampled_from(["Liebe brennt", "kalter Wind", "Morgenrot", "stilles Tal"]),
                st.integers(1500, 1900),
            ),
            max_size=25,
        )
    )
    def test_idempotent(self, rows):
        stanzas = [make_stanza(f"s{i}_{n}", year, [line]) for i, (n, line, year) in enumerate(rows)]
        once = corpus.dedup_first_line(stanzas)
        assert corpus.dedup_first_line(once) == once


class TestNormalize:
    def test_lemma_applied(self):
        stanza = make_stanza(lines=["Die Liebe blüht."])
        out = corpus.normalize([stanza], {"blüht": "blühen"})
        assert out[0].tokens == ["die", "liebe", "blühen"]

    def test_unknown_token_passthrough(self):
        stanza = make_stanza(lines=["Unbekanntes Wort"])
        out = corpus.normalize([stanza], {"blüht": "blühen"})
        assert out[0].tokens == ["unbekanntes", "wort"]

    def test_empty_line_contributes_nothing(self):
        stanza = make_stanza(lines=["", "ein wort"])
        out = corpus.normalize([stanza])
        assert out[0].tokens == ["ein", "wort"]

    def test_tokenless_stanza_dropped(self):
        stanza = make_stanza(lines=["...", "—"])
        assert corpus.normalize([stanza]) == []

    def test_unicode_punctuation_stripped(self):
        assert corpus.tokenize_line("»Herz«, sagt’s") == ["herz", "sagt’s"]

    def test_stopwords_not_removed_here(self):
        stanza = make_stanza(lines=["die und der"])
        out = corpus.normalize([stanza])
        assert out[0].tokens == ["die", "und", "der"]


class TestTables:
    def test_lemma_map_later_overrides(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("geht\tgehen\ngeht\tgang\n", encoding="utf-8")
        assert corpus.load_lemma_map(p)["geht"] == "gang"

    def test_lemma_map_skips_malformed(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("nur-eine-spalte\ngeht\tgehen\n", encoding="utf-8")
        assert corpus.load_lemma_map(p) == {"geht": "gehen"}

    def test_stopwords_comments(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# kommentar\nund\n\nDie\n", encoding="utf-8")
        assert corpus.load_stopwords(p) == frozenset({"und", "die"})


class TestBuildSlots:
    def test_fixed_with_merge_first(self):
        table = corpus.build_slots(1575, 1925, 50, 50, merge_first=True)
        bounds = [(s.start, s.end) for s in table]
        assert bounds == [
            (1575, 1675),
            (1675, 1725),
            (1725, 1775),
            (1775, 1825),
            (1825, 1875),
            (1875, 1925),
        ]
        assert not table.is_sliding

    def test_sliding_thirteen_slots(self):
        table = corpus.build_slots(1575, 1925, 50, 25)
        assert len(table) == 13
        assert [s.start for s in table] == list(range(1575, 1900, 25))
        assert all(s.end - s.start == 50 for s in table)
        assert table.is_sliding

    def test_single_slot_is_error(self):
        with pytest.raises(ValueError):
            corpus.build_slots(1600, 1650, 50, 50)

    def test_merge_first_requires_fixed(self):
        with pytest.raises(ValueError):
            corpus.build_slots(1575, 1925, 50, 25, merge_first=True)

    def test_uncovered_range_is_error(self):
        with pytest.raises(ValueError):
            corpus.build_slots(1575, 1930, 50, 50)

    def test_step_beyond_window_is_error(self):
        with pytest.raises(ValueError):
            corpus.build_slots(1500, 1800, 50, 100)


class TestAssign:
    def test_fixed_membership(self):
        table = corpus.build_slots(1575, 1925, 50, 50, merge_first=True)
        assignment = corpus.assign_slots([make_stanza(year=1610, tokens=["a"])], table)
        hits = [i for i, docs in enumerate(assignment.per_slot) if docs]
        assert hits == [0]  # the merged [1575, 1675) slot

    def test_sliding_double_membership(self):
        table = corpus.build_slots(1575, 1925, 50, 25)
        assignment = corpus.assign_slots([make_stanza(year=1610)], table)
        starts = [table[i].start for i, docs in enumerate(assignment.per_slot) if docs]
        assert starts == [1575, 1600]

    def test_out_of_range_dropped(self):
        table = corpus.build_slots(1575, 1925, 50, 50, merge_first=True)
        assignment = corpus.assign_slots([make_stanza(year=1950)], table)
        assert assignment.dropped == 1
        assert not assignment.stanzas

    def test_boundary_year_goes_to_next_slot(self):
        table = corpus.build_slots(1600, 1800, 50, 50)
        assignment = corpus.assign_slots([make_stanza(year=1650)], table)
        hits = [i for i, docs in enumerate(assignment.per_slot) if docs]
        assert hits == [1]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1575, 1924), max_size=30))
    def test_fixed_partitions(self, years):
        table = corpus.build_slots(1575, 1925, 50, 50)
        stanzas = [make_stanza(f"s{i}", y) for i, y in enumerate(years)]
        assignment = corpus.assign_slots(stanzas, table)
        assert sum(len(d) for d in assignment.per_slot) == len(years)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1575, 1924), max_size=30))
    def test_sliding_membership_counts(self, years):
        table = corpus.build_slots(1575, 1925, 50, 25)
        stanzas = [make_stanza(f"s{i}", y) for i, y in enumerate(years)]
        assignment = corpus.assign_slots(stanzas, table)
        per_stanza = {}
        for docs in assignment.per_slot:
            for s in docs:
                per_stanza[s.id] = per_stanza.get(s.id, 0) + 1
        for stanza in stanzas:
            expected = 1 if stanza.year < 1600 or stanza.year >= 1900 else 2
            assert per_stanza[stanza.id] == expected


def _assigned(docs_tokens_years, table):
    stanzas = [
        make_stanza(f"s{i}", year, tokens=tokens)
        for i, (tokens, year) in enumerate(docs_tokens_years)
    ]
    return corpus.assign_slots(stanzas, table)


class TestVocabulary:
    def test_min_count_filters(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        assignment = _assigned([(["a", "a", "b"], 1610), (["a"], 1660)], table)
        vocab = corpus.build_vocab(assignment, min_count=2)
        assert vocab.words == ["a"]

    def test_min_count_one_keeps_all(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        assignment = _assigned([(["a", "b", "c"], 1610)], table)
        vocab = corpus.build_vocab(assignment, min_count=1)
        assert set(vocab.words) == {"a", "b", "c"}

    def test_empty_vocab_is_error(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        assignment = _assigned([(["a"], 1610)], table)
        with pytest.raises(corpus.CorpusError):
            corpus.build_vocab(assignment, min_count=5)

    def test_all_slot_flag(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        docs = [(["oft"] * 50 + ["selten"], 1610), (["oft"] * 50, 1660)]
        vocab = corpus.build_vocab(_assigned(docs, table), min_count=1)
        assert vocab.all_slot_words(min_per_slot=50) == ["oft"]
        assert vocab.all_slot_words(min_per_slot=51) == []

    def test_fixed_mode_counts_sum_to_global(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        docs = [(["a", "b", "a"], 1610), (["a", "b"], 1660)]
        vocab = corpus.build_vocab(_assigned(docs, table), min_count=1)
        assert np.array_equal(vocab.slot_counts.sum(axis=0), vocab.global_counts)

    def test_sliding_mode_counts_tracked_separately(self):
        table = corpus.build_slots(1600, 1700, 50, 25)
        # year 1630 lands in two slots; global count stays at the unique total
        vocab = corpus.build_vocab(_assigned([(["a", "a"], 1630)], table), min_count=1)
        assert vocab.global_counts[vocab.index["a"]] == 2
        assert vocab.slot_counts.sum(axis=0)[vocab.index["a"]] == 4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["rot", "grün", "blau", "gold"]), min_size=1, max_size=40))
    def test_index_bijection(self, tokens):
        table = corpus.build_slots(1600, 1700, 50, 50)
        vocab = corpus.build_vocab(_assigned([(tokens, 1610)], table), min_count=1)
        for word, idx in vocab.index.items():
            assert vocab.words[idx] == word
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_frequency_order(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        vocab = corpus.build_vocab(
            _assigned([(["b", "a", "a", "c", "c", "c"], 1610)], table), min_count=1
        )
        assert vocab.words == ["c", "a", "b"]


class TestNormalizedCache:
    def test_roundtrip(self, tmp_path):
        stanzas = corpus.normalize([make_stanza(lines=["Die Liebe blüht."])])
        path = tmp_path / "cache.jsonl"
        corpus.save_normalized(stanzas, path)
        loaded = corpus.load_normalized(path)
        assert loaded[0].tokens == stanzas[0].tokens
        assert loaded[0].year == stanzas[0].year

    def test_missing_cache_actionable(self, tmp_path):
        with pytest.raises(corpus.CorpusError, match="ingest"):
            corpus.load_normalized(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "record",
        [
            {"tokens": ["a"]},
            5,
            {"id": "x", "author": "a", "year": 1700, "lines": ["x"], "tokens": 7},
            {"id": "x", "author": "a", "year": "1700", "lines": ["x"], "tokens": ["x"]},
            {"id": "x", "author": "a", "year": True, "lines": ["x"], "tokens": ["x"]},
            {"id": "x", "author": "a", "year": 1700, "lines": ["x"], "tokens": ["x", 1]},
            {"id": "x", "author": "a", "year": 1700, "lines": [], "tokens": ["x"]},
        ],
    )
    def test_schema_violation_names_line(self, tmp_path, record):
        path = tmp_path / "cache.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match=":2:"):
            corpus.load_normalized(path)
