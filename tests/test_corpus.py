from __future__ import annotations

import codecs
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verseshift import corpus, trainer

from _oracles import build_vocab_counter, encode_documents, first_line_key, route_documents, tokenize_line
from conftest import (
    TINY_CACHE_COUNTS,
    TINY_CACHE_IDS,
    TINY_CACHE_OFFSETS,
    TINY_CACHE_TYPES,
    TINY_CACHE_VERSION_FIELD,
    TINY_CACHE_YEARS,
    make_stanza,
    make_table,
    stanza_documents,
    working_bytes,
    write_tiny_cache,
)


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

    def test_line_ends_and_line_numbers(self, tmp_path, caplog):
        # \r\n and lone \r end lines as \n does, so the \r inside the record
        # on line 4 splits it into two malformed lines; the file has no final newline
        no_year = record(4)
        del no_year["year"]
        text = (
            json.dumps(record(1)) + "\r\n"  # line 1
            + "\r\n"  # 2: blank
            + " \t \r\n"  # 3: whitespace only
            + '{"id": "s9",\r "author": "X", "year": 1700, "lines": ["a"]}\n'  # 4 and 5
            + json.dumps(no_year) + "\r"  # 6
            + json.dumps(record(5, year=3000)) + "\n"  # 7
            + '{"id": "s6", "year": 1700}\r\n'  # 8: no lines
            + "\n"  # 9: blank
            + json.dumps(record(2)) + "\n"  # 10
            + "   " + json.dumps(record(3))  # 11
        )
        path = tmp_path / "c.jsonl"
        path.write_bytes(text.encode("utf-8"))
        with caplog.at_level("WARNING"):
            result = corpus.ingest(path)
        assert [(s.id, s.year, s.lines) for s in result.stanzas] == [
            (f"s{i}", 1700, ["Ich liebe dich", "noch eine Zeile"]) for i in (1, 2, 3)
        ]
        assert (result.dropped_missing_year, result.dropped_invalid_year, result.dropped_malformed) == (1, 1, 3)
        assert caplog.messages == [
            f"{path}:4: skipping malformed JSON line",
            f"{path}:5: skipping malformed JSON line",
            f"{path}:8: skipping record that does not match the stanza schema",
        ]
        with pytest.raises(json.JSONDecodeError) as want:
            json.loads('{"id": "s9",')
        with pytest.raises(corpus.CorpusError) as got:
            corpus.ingest(path, strict=True)
        assert str(got.value) == f"{path}:4: malformed JSON: {want.value}"
        path.write_bytes(text.replace('"s9",\r', '"s9",').encode("utf-8"))  # line 4 parses, 8 is now 7
        with pytest.raises(corpus.CorpusError) as got:
            corpus.ingest(path, strict=True)
        assert str(got.value) == f"{path}:7: record does not match the stanza schema"

    def test_non_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b"".join(json.dumps(record(i)).encode() + b"\n" for i in range(3000)) + b'{"id": "\xff"}\n')
        with pytest.raises(corpus.CorpusError) as got:
            corpus.ingest(path)
        assert str(got.value) == f"{path}: line 3001 is not UTF-8 (invalid start byte)"

    def test_non_utf8_line_counts_universal_newlines_after_a_bom(self, tmp_path):
        path = tmp_path / "c.jsonl"
        lines = [json.dumps(record(i)).encode() for i in range(3)]
        path.write_bytes(codecs.BOM_UTF8 + lines[0] + b"\r\n" + lines[1] + b"\r" + lines[2] + b"\n" + b'{"id": "\xc3("}\n')
        with pytest.raises(corpus.CorpusError, match=re.escape(f"{path}: line 4 is not UTF-8 (invalid continuation byte)")):
            corpus.ingest(path)

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

    def test_control_characters_separate_key_words(self):
        """The key splits as tokens do, so first lines with the same tokens are duplicates."""
        a = make_stanza("s1", 1700, ["Rosen\x01und Dornen"])
        b = make_stanza("s2", 1800, ["Rosen und\x7f\x00Dornen"])
        c = make_stanza("s3", 1900, ["Rosen und Dornen"])
        assert corpus.dedup_first_line([a, b, c]) == [a]

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
        assert corpus.normalize([make_stanza(lines=["»Herz«, sagt’s"])])[0].tokens == ["herz", "sagt’s"]

    def test_control_characters_separate_tokens(self):
        assert corpus.normalize([make_stanza(lines=["ab t\x01 \x02x \x7fz\x00\x1b"])])[0].tokens == ["ab", "t", "x", "z"]
        out = corpus.normalize([make_stanza(lines=["Ab\x01cd\x7f", "\x00"])])
        assert out[0].tokens == ["ab", "cd"]

    def test_stopwords_not_removed_here(self):
        stanza = make_stanza(lines=["die und der"])
        out = corpus.normalize([stanza])
        assert out[0].tokens == ["die", "und", "der"]


# letters whose lower() and casefold() differ (ß, İ), ASCII and Unicode
# punctuation, whitespace that str.split() splits on besides the space, and controls it keeps
LINE_CHARS = "aAbBäÖßİ .,;!?'\"-»«’—\t\u2028\x01\x7f"
# short first lines from few characters, so stanzas often share a key (ß casefolds to ss)
FIRST_LINE_CHARS = "sSß .»’\x01"
# a lemma that is only punctuation and an empty lemma are appended as they stand
LEMMAS = {"a": "b", "ab": "»«", "b": "", "ä": "a"}


class TestIngestMemo:
    """normalize and dedup_first_line agree with the per-character tokenizer and first-line key."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet=FIRST_LINE_CHARS, max_size=4),
                st.lists(st.text(alphabet=LINE_CHARS, max_size=16), max_size=2),
                st.integers(1700, 1702),
            ),
            max_size=12,
        )
    )
    def test_matches_per_character_reference(self, drawn):
        stanzas = [make_stanza(sid=f"s{i}", year=year, lines=[first, *rest]) for i, (first, rest, year) in enumerate(drawn)]
        want = {}
        for s in stanzas:
            tokens = [LEMMAS.get(t, t) for line in s.lines for t in tokenize_line(line)]
            if tokens:
                want[s.id] = tokens
        kept = corpus.normalize(stanzas, LEMMAS)
        assert {s.id: s.tokens for s in kept} == want
        assert [s.id for s in kept] == list(want)
        best = {}
        for s in kept:
            key = first_line_key(s.lines[0])
            if key not in best or (s.year, s.id) < (best[key].year, best[key].id):
                best[key] = s
        survivors = [s.id for s in kept if best[first_line_key(s.lines[0])] is s]
        assert [s.id for s in corpus.dedup_first_line(kept)] == survivors

    def test_lemma_of_punctuation_kept(self):
        out = corpus.normalize([make_stanza(lines=["Ab b, AB"])], LEMMAS)
        assert out[0].tokens == ["»«", "", "»«"]


class TestTables:
    def test_lemma_map_later_overrides(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("geht\tgehen\ngeht\tgang\n", encoding="utf-8")
        assert corpus.load_lemma_map(p)["geht"] == "gang"

    def test_lemma_map_skips_malformed(self, tmp_path):
        p = tmp_path / "l.tsv"
        p.write_text("nur-eine-spalte\ngeht\tgehen\n", encoding="utf-8")
        assert corpus.load_lemma_map(p) == {"geht": "gehen"}

    def test_lemma_map_skips_blank_lemma_and_key(self, tmp_path, caplog):
        p = tmp_path / "l.tsv"
        p.write_text("und\t \n \tnacht\ngeht\tgehen\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            lemmas = corpus.load_lemma_map(p)
        assert lemmas == {"geht": "gehen"}
        assert sum("malformed lemma row" in m for m in caplog.messages) == 2
        stanzas = corpus.normalize([make_stanza(lines=["Rosen und Dornen und Nacht"])], lemmas)
        assert stanzas[0].tokens == ["rosen", "und", "dornen", "und", "nacht"]
        vocab = corpus.build_vocab(stanza_documents(stanzas), make_table([1700, 1750]), min_count=1)
        assert "und" in vocab.index and "" not in vocab.index

    def test_stopwords_comments(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("# kommentar\nund\n\nDie\n", encoding="utf-8")
        assert corpus.load_stopwords(p) == frozenset({"und", "die"})

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        """A leading BOM is no line: errors name the same line as in the file without it."""
        for bom in (b"", b"\xef\xbb\xbf"):
            p = tmp_path / "s.txt"
            p.write_bytes(bom + b"und\r\nnacht\n\xff\n")
            with pytest.raises(corpus.CorpusError, match="line 3 is not UTF-8"):
                corpus.load_stopwords(p)
            p.write_bytes(bom + json.dumps(record(1)).encode() + b"\n{broken\n")
            with pytest.raises(corpus.CorpusError, match=":2: malformed JSON"):
                corpus.ingest(p, strict=True)


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

    def test_sliding_thirteen_slots(self):
        table = corpus.build_slots(1575, 1925, 50, 25)
        assert len(table) == 13
        assert [s.start for s in table] == list(range(1575, 1900, 25))
        assert all(s.end - s.start == 50 for s in table)

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

    @pytest.mark.parametrize(
        "start, end", [(1600, 10**30), (1600, corpus.YEAR_MAX + 50), (corpus.YEAR_MIN - 50, 1600), (-(10**30), 1600)]
    )
    def test_years_outside_stanza_range_are_error(self, start, end):
        with pytest.raises(ValueError, match="must be years"):
            corpus.build_slots(start, end, 50, 50)

    def test_years_at_range_bounds_lay_out(self):
        table = corpus.build_slots(corpus.YEAR_MIN, corpus.YEAR_MAX, 50, 50)
        assert (table[0].start, table[-1].end) == (corpus.YEAR_MIN, corpus.YEAR_MAX)


class TestAssign:
    def test_fixed_membership(self):
        table = corpus.build_slots(1575, 1925, 50, 50, merge_first=True)
        member = corpus.assign_slots([1610], table)
        hits = np.flatnonzero(member[0]).tolist()
        assert hits == [0]  # the merged [1575, 1675) slot

    def test_sliding_double_membership(self):
        table = corpus.build_slots(1575, 1925, 50, 25)
        member = corpus.assign_slots([1610], table)
        starts = [table[i].start for i in np.flatnonzero(member[0])]
        assert starts == [1575, 1600]

    def test_out_of_range_dropped(self, caplog):
        table = corpus.build_slots(1575, 1925, 50, 50, merge_first=True)
        with caplog.at_level("WARNING"):
            member = corpus.assign_slots([1950], table)
        assert np.count_nonzero(~member.any(axis=1)) == 1
        assert not member.any()
        assert caplog.messages == []  # build_vocab warns, once per vocabulary
        with caplog.at_level("WARNING"):
            corpus.build_vocab(_documents([(["a"], 1600), (["b"], 1950)]), table, min_count=1)
        assert caplog.messages == ["1 stanzas fall outside all time slots"]

    def test_boundary_year_goes_to_next_slot(self):
        table = corpus.build_slots(1600, 1800, 50, 50)
        member = corpus.assign_slots([1650], table)
        hits = np.flatnonzero(member[0]).tolist()
        assert hits == [1]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1575, 1924), max_size=30))
    def test_fixed_partitions(self, years):
        table = corpus.build_slots(1575, 1925, 50, 50)
        member = corpus.assign_slots(years, table)
        assert member.sum() == len(years)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1575, 1924), max_size=30))
    def test_sliding_membership_counts(self, years):
        table = corpus.build_slots(1575, 1925, 50, 25)
        member = corpus.assign_slots(years, table)
        for year, per_stanza in zip(years, member.sum(axis=1)):
            expected = 1 if year < 1600 or year >= 1900 else 2
            assert per_stanza == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(corpus.YEAR_MIN, corpus.YEAR_MAX), max_size=30), st.booleans())
    def test_matches_slots_for_year(self, years, sliding):
        table = corpus.build_slots(1575, 1925, 50, 25 if sliding else 50)
        member = corpus.assign_slots(years, table)
        for year, row in zip(years, member):
            assert np.flatnonzero(row).tolist() == table.slots_for_year(year)


def _documents(docs_tokens_years):
    return corpus.Documents.from_tokens([tokens for tokens, _ in docs_tokens_years],
                                        [year for _, year in docs_tokens_years])


class TestVocabulary:
    def test_min_count_filters(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        docs = _documents([(["a", "a", "b"], 1610), (["a"], 1660)])
        vocab = corpus.build_vocab(docs, table, min_count=2)
        assert vocab.words == ["a"]

    def test_min_count_one_keeps_all(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        docs = _documents([(["a", "b", "c"], 1610)])
        vocab = corpus.build_vocab(docs, table, min_count=1)
        assert set(vocab.words) == {"a", "b", "c"}

    def test_empty_vocab_is_error(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        docs = _documents([(["a"], 1610)])
        with pytest.raises(corpus.CorpusError):
            corpus.build_vocab(docs, table, min_count=5)

    def test_all_slot_flag(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        docs = [(["oft"] * 50 + ["selten"], 1610), (["oft"] * 50, 1660)]
        vocab = corpus.build_vocab(_documents(docs), table, min_count=1)
        assert vocab.words == ["oft", "selten"]
        assert vocab.slot_counts.min(axis=0).tolist() == [50, 0]  # oft reaches 50 in every slot, selten in none

    def test_fixed_mode_counts_sum_to_global(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        docs = [(["a", "b", "a"], 1610), (["a", "b"], 1660)]
        vocab = corpus.build_vocab(_documents(docs), table, min_count=1)
        assert np.array_equal(vocab.slot_counts.sum(axis=0), vocab.global_counts)

    def test_sliding_mode_counts_tracked_separately(self):
        table = corpus.build_slots(1600, 1700, 50, 25)
        # year 1630 lands in two slots; global count stays at the unique total
        vocab = corpus.build_vocab(_documents([(["a", "a"], 1630)]), table, min_count=1)
        assert vocab.global_counts[vocab.index["a"]] == 2
        assert vocab.slot_counts.sum(axis=0)[vocab.index["a"]] == 4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["rot", "grün", "blau", "gold"]), min_size=1, max_size=40))
    def test_index_bijection(self, tokens):
        table = corpus.build_slots(1600, 1700, 50, 50)
        vocab = corpus.build_vocab(_documents([(tokens, 1610)]), table, min_count=1)
        for word, idx in vocab.index.items():
            assert vocab.words[idx] == word
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    def test_frequency_order(self):
        table = corpus.build_slots(1600, 1700, 50, 50)
        vocab = corpus.build_vocab(
            _documents([(["b", "a", "a", "c", "c", "c"], 1610)]), table, min_count=1
        )
        assert vocab.words == ["c", "a", "b"]

    def test_memory_is_below_an_int64_membership(self):
        """100k ten-token stanzas, the reference corpus's stanza length, over 13 sliding slots.

        Each slot is counted from a read of its own tokens; the (D, S)
        membership cast to int64 for the slot totals took 8 * D * S bytes.
        """
        table = corpus.build_slots(1575, 1925, 50, 25)
        n_docs, n_slots = 100_000, len(table)
        assert n_slots == 13
        rng = np.random.default_rng(0)
        docs = corpus.Documents(
            [f"w{i}" for i in range(50)], rng.integers(0, 50, 10 * n_docs).astype(np.int32),
            np.arange(n_docs + 1, dtype=np.int64) * 10, rng.integers(1575, 1925, n_docs),
        )
        vocab, extra = working_bytes(lambda: corpus.build_vocab(docs, table, min_count=1))
        assert vocab.slot_total_tokens.sum() == 10 * np.count_nonzero(corpus.assign_slots(docs.years, table))
        assert extra < 8 * n_docs * n_slots


# "a" and "a\x00" differ only by a trailing NUL, which a fixed-width numpy string drops
ORACLE_TOKENS = ["ä", "Z", "a", "a\x00", "b", "zz", "é"]
ORACLE_YEARS = [corpus.YEAR_MIN, 1574, 1575, 1599, 1600, 1624, 1625, 1650, 1899, 1900, 1924, 1925, corpus.YEAR_MAX]
ORACLE_TABLES = {
    "fixed": corpus.build_slots(1575, 1925, 50, 50),
    "merged": corpus.build_slots(1575, 1925, 50, 50, merge_first=True),
    "sliding": corpus.build_slots(1575, 1925, 50, 25),
}
oracle_docs = st.lists(
    st.tuples(
        st.lists(st.sampled_from(ORACLE_TOKENS), max_size=8),
        st.sampled_from(ORACLE_YEARS) | st.integers(1550, 1950),
    ),
    max_size=12,
)


class TestColumnarOracle:
    """Vocabulary and an unsubsampled epoch's slot tokens against the per-token Python path they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(oracle_docs, st.sampled_from(sorted(ORACLE_TABLES)), st.integers(-1, 4))
    def test_matches_counter_path(self, docs_years, table_name, min_count):
        table = ORACLE_TABLES[table_name]
        token_lists = [tokens for tokens, _ in docs_years]
        years = [year for _, year in docs_years]
        per_slot, in_range = route_documents(token_lists, years, table)
        expected = build_vocab_counter(per_slot, in_range, min_count)
        docs = corpus.Documents.from_tokens(token_lists, years)
        if expected is None:
            with pytest.raises(corpus.CorpusError):
                corpus.build_vocab(docs, table, min_count=min_count)
            return
        vocab = corpus.build_vocab(docs, table, min_count=min_count)
        assert vocab.words == expected.words
        assert vocab.index == expected.index
        for name in ("global_counts", "slot_counts", "slot_total_tokens"):
            assert np.array_equal(getattr(vocab, name), getattr(expected, name)), name

        # the vocabulary index of each type (-1 out of vocabulary), as train looks it up
        lookup = np.array([vocab.index.get(t, -1) for t in docs.types], dtype=np.int32)
        member = corpus.assign_slots(docs.years, table)
        encoded = list(trainer._slot_passes(docs, lookup, member, None, seed=0, epoch=0))
        assert len(encoded) == len(table)
        for (tokens, doc_ids), (want_tokens, want_doc_ids) in zip(encoded, encode_documents(per_slot, vocab.index)):
            assert np.array_equal(tokens, want_tokens)
            assert np.array_equal(np.flatnonzero(np.diff(doc_ids)), np.flatnonzero(np.diff(want_doc_ids)))

    def test_from_tokens_columns(self):
        docs = corpus.Documents.from_tokens([["b", "a", "b"], [], ["a\x00", "a"]], [1600, 1610, 1620])
        assert docs.types == ["b", "a", "a\x00"]
        assert docs.ids.tolist() == [0, 1, 0, 2, 1]
        assert docs.offsets.tolist() == [0, 3, 3, 5]
        assert docs.years.tolist() == [1600, 1610, 1620]
        assert len(docs) == 3
        with pytest.raises(ValueError, match="one year per token list"):
            corpus.Documents.from_tokens([["a"]], [])

    def test_select_reads_the_chosen_documents_in_corpus_order(self):
        docs = corpus.Documents.from_tokens([["b", "a", "b"], [], ["c"], ["a", "c"]], [1600, 1610, 1620, 1630])
        types, doc_ids = docs.select(np.array([True, True, False, True]))
        assert types.tolist() == [0, 1, 0, 1, 2]
        assert doc_ids.tolist() == [0, 0, 0, 3, 3] and doc_ids.dtype == np.int32
        types, doc_ids = docs.select(np.zeros(4, dtype=bool))
        assert types.size == 0 and doc_ids.size == 0

    def test_ties_break_by_str_order_not_first_seen(self):
        table = ORACLE_TABLES["fixed"]
        docs = _documents([(["ä", "a\x00", "Z", "a"], 1600)])
        assert corpus.build_vocab(docs, table, min_count=1).words == ["Z", "a", "a\x00", "ä"]

    def test_out_of_range_documents_not_counted(self):
        table = ORACLE_TABLES["fixed"]
        docs = _documents([(["a", "b"], 1600), (["a", "a", "c"], 1950), ([], 1610)])
        vocab = corpus.build_vocab(docs, table, min_count=1)
        assert vocab.words == ["a", "b"]
        assert vocab.global_counts.tolist() == [1, 1]
        assert vocab.slot_total_tokens.tolist() == [2] + [0] * (len(table) - 1)


class TestNormalizedCache:
    def test_roundtrip(self, tmp_path):
        stanzas = corpus.normalize([make_stanza(lines=["Die Liebe blüht."]), make_stanza("s2", 1650, ["Ja, ja."])])
        path = tmp_path / "normalized.bin"
        corpus.save_normalized(stanzas, path)
        loaded = corpus.load_normalized(path)
        want = stanza_documents(stanzas)
        assert loaded.types == want.types
        for column in ("ids", "offsets", "years"):
            assert np.array_equal(getattr(loaded, column), getattr(want, column))
        assert [loaded.types[i] for i in loaded.ids[: loaded.offsets[1]]] == stanzas[0].tokens
        assert [p.name for p in tmp_path.iterdir()] == ["normalized.bin"]  # no temporary file left behind

    def test_tiny_cache_bytes(self, tmp_path):
        """The file format, byte for byte, so a change on the write side shows even when load agrees."""
        assert write_tiny_cache(tmp_path / "normalized.bin") == bytes.fromhex(
            "444c4b43 01000000"  # magic, version
            " 0300000000000000 0500000000000000 0200000000000000"  # types, tokens, documents
            " 01000000 01000000 02000000"  # type byte lengths
            " 6162c3a4"  # the types "a", "b", "ä"
            " 00000000 01000000 00000000 01000000 02000000"  # token ids
            " 0000000000000000 0300000000000000 0500000000000000"  # document offsets
            " 4a06000000000000 7c06000000000000"  # years 1610, 1660
        )

    def test_empty_corpus_roundtrip(self, tmp_path):
        path = tmp_path / "normalized.bin"
        corpus.save_normalized([], path)
        loaded = corpus.load_normalized(path)
        assert (loaded.types, loaded.ids.size, loaded.offsets.tolist(), len(loaded)) == ([], 0, [0], 0)

    def test_missing_cache_actionable(self, tmp_path):
        with pytest.raises(corpus.CorpusError, match="ingest"):
            corpus.load_normalized(tmp_path / "nope.jsonl")

    @pytest.mark.parametrize(
        "offset, raw, message",
        [
            (0, b"DLKV", "not a normalized corpus cache"),
            (TINY_CACHE_VERSION_FIELD, struct.pack("<I", 2), "version 2 "),
            (TINY_CACHE_TYPES + 2, b"\xff", "type 2 .* UTF-8"),
            (TINY_CACHE_TYPES + 1, b"a", "repeated type"),
            (TINY_CACHE_IDS + 4, struct.pack("<i", 3), "token id outside"),
            (TINY_CACHE_IDS + 4, struct.pack("<i", -1), "token id outside"),
            (TINY_CACHE_OFFSETS, struct.pack("<q", 1), "offsets"),
            (TINY_CACHE_OFFSETS + 8, struct.pack("<q", 6), "offsets"),
            (TINY_CACHE_OFFSETS + 16, struct.pack("<q", 4), "offsets"),
            (TINY_CACHE_YEARS, struct.pack("<q", corpus.YEAR_MIN - 1), "year outside"),
            (TINY_CACHE_YEARS + 8, struct.pack("<q", corpus.YEAR_MAX + 1), "year outside"),
            (TINY_CACHE_COUNTS + 8, struct.pack("<Q", 2**64 - 1), "truncated"),
        ],
        ids=["magic", "version", "utf8", "repeated-type", "id-high", "id-negative", "first-offset",
             "decreasing-offset", "last-offset", "year-low", "year-high", "inflated-tokens"],
    )
    def test_damaged_cache_names_file(self, tmp_path, offset, raw, message):
        path = tmp_path / "normalized.bin"
        write_tiny_cache(path, offset, raw)
        with pytest.raises(corpus.CorpusError, match=message) as err:
            corpus.load_normalized(path)
        assert str(path) in str(err.value) and "run the ingest command" in str(err.value)

    def test_trailing_bytes_error(self, tmp_path):
        path = tmp_path / "normalized.bin"
        path.write_bytes(write_tiny_cache(path) + b"\0")
        with pytest.raises(corpus.CorpusError, match="109 bytes"):
            corpus.load_normalized(path)

    @pytest.mark.parametrize("step", [1, -1], ids=["plus-one", "minus-one"])
    @pytest.mark.parametrize("field", [0, 8, 16], ids=["types", "tokens", "docs"])
    def test_header_count_off_by_one_is_a_length_error(self, tmp_path, field, step):
        """Every block is viewed and the length checked before any type is decoded or column checked."""
        path = tmp_path / "normalized.bin"
        (count,) = struct.unpack_from("<Q", write_tiny_cache(path), TINY_CACHE_COUNTS + field)
        write_tiny_cache(path, TINY_CACHE_COUNTS + field, struct.pack("<Q", count + step))
        with pytest.raises(corpus.CorpusError, match="truncated|its header says"):
            corpus.load_normalized(path)

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
        """A JSON Lines cache of the earlier format is refused whatever its records hold,
        with a message that names the file and asks for a new ingest run."""
        path = tmp_path / "cache.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(corpus.CorpusError, match="not a normalized corpus cache .*run the ingest command") as err:
            corpus.load_normalized(path)
        assert str(path) in str(err.value)
