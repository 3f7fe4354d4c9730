"""Stanza corpus ingestion, normalization, time slotting, and vocabularies."""

from __future__ import annotations

import json
import logging
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

YEAR_MIN = 1000
YEAR_MAX = 2100


class CorpusError(Exception):
    """Unreadable or structurally invalid corpus input."""


@dataclass
class Stanza:
    """One document unit: a stanza with its source metadata.

    ``tokens`` stays empty until :func:`normalize` has run.
    """

    id: str
    poem_id: str
    author: str
    year: int
    lines: list[str]
    tokens: list[str] = field(default_factory=list)


@dataclass
class IngestResult:
    stanzas: list[Stanza]
    dropped_missing_year: int = 0
    dropped_invalid_year: int = 0
    dropped_malformed: int = 0

    @property
    def dropped(self) -> int:
        return self.dropped_missing_year + self.dropped_invalid_year + self.dropped_malformed


def _is_str_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _parse_record(obj: object) -> Stanza | None:
    """Validate one decoded JSON object; None means structurally malformed."""
    if not isinstance(obj, dict):
        return None
    sid = obj.get("id")
    lines = obj.get("lines")
    if not isinstance(sid, str) or not sid:
        return None
    if not _is_str_list(lines) or not lines:
        return None
    author = obj.get("author")
    if not isinstance(author, str):
        return None
    poem_id = obj.get("poem_id")
    if poem_id is None:
        poem_id = sid  # stanza stands for its own poem when no grouping is given
    elif not isinstance(poem_id, str):
        return None
    return Stanza(id=sid, poem_id=poem_id, author=author, year=0, lines=list(lines))


def _is_year(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and YEAR_MIN <= value <= YEAR_MAX


def ingest(path: str | Path, strict: bool = False) -> IngestResult:
    """Read a JSON Lines stanza file.

    One object per line with fields id, author, year, lines (poem_id
    optional, unknown keys ignored). Records without a usable year are
    dropped and counted; malformed lines are skipped with a diagnostic,
    or abort the run when ``strict`` is set. An unreadable file is fatal.
    """
    path = Path(path)
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    result = IngestResult(stanzas=[])
    for lineno, line in enumerate(raw.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            if strict:
                raise CorpusError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            log.warning("%s:%d: skipping malformed JSON line", path, lineno)
            result.dropped_malformed += 1
            continue
        stanza = _parse_record(obj)
        if stanza is None:
            if strict:
                raise CorpusError(f"{path}:{lineno}: record does not match the stanza schema")
            log.warning("%s:%d: skipping record that does not match the stanza schema", path, lineno)
            result.dropped_malformed += 1
            continue
        year = obj.get("year")
        if year is None:
            result.dropped_missing_year += 1
            continue
        if not _is_year(year):
            result.dropped_invalid_year += 1
            continue
        stanza.year = year
        result.stanzas.append(stanza)
    return result


def _first_line_key(line: str) -> str:
    cleaned = "".join(c for c in line.casefold() if not unicodedata.category(c).startswith("P"))
    return " ".join(cleaned.split())


def dedup_first_line(stanzas: list[Stanza]) -> list[Stanza]:
    """Keep one stanza per normalized first line.

    The earliest-year stanza wins; equal years break the tie by the
    lexicographically smallest id. Input order of survivors is preserved,
    so the operation is idempotent.
    """
    best: dict[str, Stanza] = {}
    for stanza in stanzas:
        key = _first_line_key(stanza.lines[0])
        cur = best.get(key)
        if cur is None or (stanza.year, stanza.id) < (cur.year, cur.id):
            best[key] = stanza
    keep = {id(s) for s in best.values()}
    return [s for s in stanzas if id(s) in keep]


def _strip_edge_punct(token: str) -> str:
    start, end = 0, len(token)
    while start < end and unicodedata.category(token[start]).startswith("P"):
        start += 1
    while end > start and unicodedata.category(token[end - 1]).startswith("P"):
        end -= 1
    return token[start:end]


def tokenize_line(line: str) -> list[str]:
    """Split on whitespace, strip edge punctuation, lowercase."""
    out = []
    for piece in line.split():
        tok = _strip_edge_punct(piece).lower()
        if tok:
            out.append(tok)
    return out


def normalize(stanzas: list[Stanza], lemma_map: dict[str, str] | None = None) -> list[Stanza]:
    """Fill stanza tokens, mapping each token through the lemma table.

    Tokens missing from the table pass through unchanged. Stopword removal
    is deliberately not applied here; it is an analysis-time filter.
    Stanzas that end up with no tokens are dropped with a logged reason.
    """
    lemma_map = lemma_map or {}
    kept: list[Stanza] = []
    dropped = 0
    for stanza in stanzas:
        tokens: list[str] = []
        for line in stanza.lines:
            for tok in tokenize_line(line):
                tokens.append(lemma_map.get(tok, tok))
        if tokens:
            stanza.tokens = tokens
            kept.append(stanza)
        else:
            dropped += 1
            log.info("dropping stanza %s: no tokens after normalization", stanza.id)
    if dropped:
        log.warning("normalization dropped %d token-less stanzas", dropped)
    return kept


def load_lemma_map(path: str | Path) -> dict[str, str]:
    """Read a two-column token<TAB>lemma table; later duplicates override.

    Keys and lemmas are casefolded so lookups agree with the lowercased
    token stream.
    """
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2 or not parts[0] or not parts[1]:
            log.warning("%s:%d: skipping malformed lemma row", path, lineno)
            continue
        mapping[parts[0].strip().lower()] = parts[1].strip().lower()
    return mapping


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One word per line; '#' starts a comment line."""
    words = set()
    for line in Path(path).read_text(encoding="utf-8").split("\n"):
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


@dataclass(frozen=True)
class TimeSlot:
    start: int  # inclusive
    end: int  # exclusive
    label: str

    def contains(self, year: int) -> bool:
        return self.start <= year < self.end


@dataclass(frozen=True)
class TimeSlotTable:
    """Ordered year intervals, either disjoint (fixed) or overlapping (sliding)."""

    slots: tuple[TimeSlot, ...]
    window_years: int
    step_years: int

    def __post_init__(self) -> None:
        starts = [s.start for s in self.slots]
        if sorted(set(starts)) != starts:
            raise ValueError("slot starts must be strictly increasing")
        for s in self.slots:
            if s.end <= s.start:
                raise ValueError(f"empty slot interval {s}")

    def __len__(self) -> int:
        return len(self.slots)

    def __iter__(self):
        return iter(self.slots)

    def __getitem__(self, i: int) -> TimeSlot:
        return self.slots[i]

    @property
    def is_sliding(self) -> bool:
        return self.step_years < self.window_years

    def slots_for_year(self, year: int) -> list[int]:
        return [i for i, s in enumerate(self.slots) if s.contains(year)]


def build_slots(
    start: int,
    end: int,
    window_years: int,
    step_years: int,
    merge_first: bool = False,
) -> TimeSlotTable:
    """Lay out [start, end) as windows of ``window_years`` every ``step_years``.

    step == window gives disjoint slots; step < window gives a sliding
    table with consecutive overlap of window - step years. With
    ``merge_first`` (fixed mode only) the first two slots are fused into
    one wide slot, absorbing a sparse early period.
    """
    if end <= start:
        raise ValueError("end must be greater than start")
    if window_years <= 0 or step_years <= 0:
        raise ValueError("window_years and step_years must be positive")
    if step_years > window_years:
        raise ValueError("step_years must not exceed window_years")
    if (end - start - window_years) % step_years != 0:
        raise ValueError(
            f"range [{start},{end}) is not covered exactly by window {window_years} step {step_years}"
        )
    n = (end - start - window_years) // step_years + 1
    bounds = [(start + i * step_years, start + i * step_years + window_years) for i in range(n)]
    if merge_first:
        if step_years != window_years:
            raise ValueError("merge_first is only defined for fixed (step == window) tables")
        if len(bounds) < 3:
            raise ValueError("merge_first needs at least three raw slots")
        bounds = [(bounds[0][0], bounds[1][1])] + bounds[2:]
    if len(bounds) < 2:
        raise ValueError(f"degenerate slotting: only {len(bounds)} slot(s)")
    slots = tuple(TimeSlot(a, b, f"{a}-{b}") for a, b in bounds)
    return TimeSlotTable(slots=slots, window_years=window_years, step_years=step_years)


@dataclass
class SlotAssignment:
    """Stanzas routed to every slot containing their year."""

    table: TimeSlotTable
    per_slot: list[list[Stanza]]
    stanzas: list[Stanza]  # unique in-range stanzas
    dropped: int  # out-of-range stanzas


def assign_slots(stanzas: list[Stanza], table: TimeSlotTable) -> SlotAssignment:
    """Route each stanza into all slots whose interval contains its year.

    Fixed tables partition; sliding tables duplicate a stanza into up to
    ceil(window/step) slots. Out-of-range stanzas are dropped and counted.
    """
    per_slot: list[list[Stanza]] = [[] for _ in table]
    in_range: list[Stanza] = []
    dropped = 0
    for stanza in stanzas:
        hits = table.slots_for_year(stanza.year)
        if not hits:
            dropped += 1
            continue
        in_range.append(stanza)
        for i in hits:
            per_slot[i].append(stanza)
    if dropped:
        log.warning("%d stanzas fall outside all time slots", dropped)
    return SlotAssignment(table=table, per_slot=per_slot, stanzas=in_range, dropped=dropped)


@dataclass
class Vocabulary:
    """Dense word index with global and per-slot occurrence counts.

    In fixed-mode slotting the per-slot counts of a word sum to its global
    count; in sliding mode slot counts overlap and may exceed it, which is
    why the global count is tracked from the unique stanza set.
    """

    words: list[str]
    index: dict[str, int]
    global_counts: np.ndarray  # (V,) int64
    slot_counts: np.ndarray  # (S, V) int64
    slot_total_tokens: np.ndarray  # (S,) int64, includes out-of-vocabulary tokens

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.index

    @property
    def n_slots(self) -> int:
        return int(self.slot_counts.shape[0])

    def all_slot_words(self, min_per_slot: int = 50) -> list[str]:
        """Words occurring at least ``min_per_slot`` times in every slot."""
        ok = (self.slot_counts >= min_per_slot).all(axis=0)
        return [self.words[i] for i in np.flatnonzero(ok)]


def _vocab_from_counts(
    global_counter: Counter,
    slot_counters: list[Counter],
    slot_total_tokens: list[int],
    min_count: int,
) -> Vocabulary:
    words = [w for w, c in global_counter.items() if c >= min_count]
    if not words:
        raise CorpusError(f"no words reach min_count={min_count}; vocabulary is empty")
    # frequency-descending order, ties alphabetical, keeps top-N selection stable
    words.sort(key=lambda w: (-global_counter[w], w))
    index = {w: i for i, w in enumerate(words)}
    global_counts = np.array([global_counter[w] for w in words], dtype=np.int64)
    slot_counts = np.zeros((len(slot_counters), len(words)), dtype=np.int64)
    for s, counter in enumerate(slot_counters):
        for w, c in counter.items():
            i = index.get(w)
            if i is not None:
                slot_counts[s, i] = c
    return Vocabulary(
        words=words,
        index=index,
        global_counts=global_counts,
        slot_counts=slot_counts,
        slot_total_tokens=np.array(slot_total_tokens, dtype=np.int64),
    )


def build_vocab(assignment: SlotAssignment, min_count: int = 5) -> Vocabulary:
    """Count words over an assignment and keep those with global count >= min_count."""
    global_counter: Counter = Counter()
    for stanza in assignment.stanzas:
        global_counter.update(stanza.tokens)
    slot_counters = []
    slot_totals = []
    for docs in assignment.per_slot:
        counter: Counter = Counter()
        total = 0
        for stanza in docs:
            counter.update(stanza.tokens)
            total += len(stanza.tokens)
        slot_counters.append(counter)
        slot_totals.append(total)
    return _vocab_from_counts(global_counter, slot_counters, slot_totals, min_count)


def build_vocab_from_tokens(docs_by_slot: list[list[list[str]]], min_count: int = 1) -> Vocabulary:
    """Vocabulary straight from per-slot token documents.

    Assumes disjoint slots (global counts are the per-slot sums); handy for
    small fixtures that skip the stanza plumbing.
    """
    global_counter: Counter = Counter()
    slot_counters = []
    slot_totals = []
    for docs in docs_by_slot:
        counter: Counter = Counter()
        total = 0
        for doc in docs:
            counter.update(doc)
            total += len(doc)
        slot_counters.append(counter)
        slot_totals.append(total)
        global_counter.update(counter)
    return _vocab_from_counts(global_counter, slot_counters, slot_totals, min_count)


def save_normalized(stanzas: list[Stanza], path: str | Path) -> None:
    """Write the normalized corpus cache (JSON Lines with tokens filled)."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in stanzas:
            rec = {
                "id": s.id,
                "poem_id": s.poem_id,
                "author": s.author,
                "year": s.year,
                "lines": s.lines,
                "tokens": s.tokens,
            }
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def load_normalized(path: str | Path) -> list[Stanza]:
    """Read a normalized corpus cache written by :func:`save_normalized`."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(
            f"normalized corpus cache {path} does not exist; run the ingest command first"
        )
    stanzas = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: malformed JSON in normalized cache: {exc}") from exc
        stanza = _parse_record(obj)
        if stanza is None or not _is_year(obj.get("year")) or not _is_str_list(obj.get("tokens")):
            raise CorpusError(
                f"{path}:{lineno}: not a normalized cache record (stanza fields, a year and string tokens)"
            )
        stanza.year, stanza.tokens = obj["year"], list(obj["tokens"])
        stanzas.append(stanza)
    return stanzas
