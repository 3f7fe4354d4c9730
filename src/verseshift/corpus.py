"""Stanza corpus ingestion, normalization, time slotting, and vocabularies."""

from __future__ import annotations

import codecs
import json
import logging
import re
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .blockfile import BlockReader, replacing

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


@dataclass
class Documents:
    """A corpus in columns: document d holds ``types[ids[offsets[d]:offsets[d + 1]]]``.

    ``ids`` is the only per-token column; :meth:`select` reads the tokens of
    chosen documents from it.
    """

    types: list[str]  # distinct tokens, in the order first seen
    ids: np.ndarray  # (N,) int32 indices into types
    offsets: np.ndarray  # (D + 1,) int64 document bounds in ids
    years: np.ndarray  # (D,) int64

    @classmethod
    def from_tokens(cls, token_lists: list[list[str]], years) -> Documents:
        if len(token_lists) != len(years):
            raise ValueError("need one year per token list")
        index: dict[str, int] = {}
        lengths = np.fromiter(map(len, token_lists), dtype=np.int64, count=len(token_lists))
        ids = np.fromiter(
            (index.setdefault(t, len(index)) for tokens in token_lists for t in tokens),
            dtype=np.int32,
            count=int(lengths.sum()),
        )
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        return cls(types=list(index), ids=ids, offsets=offsets, years=np.asarray(years, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.years)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def select(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The type id and the int32 document number of each token of the documents ``mask`` selects, in corpus order.

        ``mask`` is ``(D,)`` bool. One gather reads the ids at the tokens'
        positions: each document's offset less its start among the selected
        tokens, repeated, plus a running count. So the cost grows with the
        selected tokens, whose int64 positions are freed before the document
        numbers are made, and no corpus-length array is made.
        """
        rows = np.flatnonzero(mask)
        starts = self.offsets[rows]
        n = self.offsets[rows + 1] - starts
        local = np.cumsum(n) - n
        positions = np.repeat(starts - local, n)
        positions += np.arange(positions.size)
        types = self.ids[positions]
        del positions
        return types, np.repeat(rows.astype(np.int32), n)


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
    or abort the run when ``strict`` is set. A leading UTF-8 byte-order
    mark is skipped. An unreadable or non-UTF-8 file is fatal.
    """
    path = Path(path)
    result = IngestResult(stanzas=[])
    try:
        # universal newlines, as read_text: \r\n and a lone \r end a line too
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
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
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc
    except UnicodeDecodeError:  # decoded a chunk at a time, so its position is not the file's
        read_text(path)  # decodes the whole file at once, so it raises naming the line
        raise
    return result


class _Memo(dict):
    """A dict that computes and stores the value of a missing key with ``fn``."""

    def __init__(self, fn) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _punct_or_self(code: int) -> int | None:
    """A ``str.translate`` entry: None deletes a punctuation character, its own code keeps it."""
    return None if unicodedata.category(chr(code)).startswith("P") else code


def dedup_first_line(stanzas: list[Stanza]) -> list[Stanza]:
    """Keep one stanza per normalized first line.

    The key is the casefolded first line without punctuation characters
    (Unicode category P*), its :func:`_pieces` joined by one space. The
    punctuation is removed by ``str.translate`` with a table that this call
    fills as it meets each new character. The earliest-year stanza wins;
    equal years break the tie by the lexicographically smallest id. Input
    order of survivors is preserved, so the operation is idempotent.
    """
    punct = _Memo(_punct_or_self)
    best: dict[str, Stanza] = {}
    for stanza in stanzas:
        key = " ".join(_pieces(stanza.lines[0].casefold().translate(punct)))
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


_CONTROL = re.compile(r"[\x00-\x1f\x7f]")  # C0 controls and DEL separate tokens as whitespace does


def _pieces(text: str) -> list[str]:
    """``text`` split on whitespace and on C0 control characters and DEL."""
    return _CONTROL.sub(" ", text).split()


def normalize(stanzas: list[Stanza], lemma_map: dict[str, str] | None = None) -> list[Stanza]:
    """Fill stanza tokens: its :func:`_pieces`, edge punctuation stripped, lowercased, through the lemma table.

    Edge punctuation is Unicode category P*; a piece of punctuation alone
    is no token. Tokens missing from the table pass through unchanged; a
    lemma is taken as it stands, even an empty one. Each stanza is split
    once, and each distinct piece is stripped, lowercased and looked up once
    per call, so repeated tokens share one ``str``. Stopword removal is
    deliberately not applied here; it is an analysis-time filter. Stanzas
    that end up with no tokens are dropped with a logged reason.
    """
    lemma_map = lemma_map or {}

    def token_of(piece: str) -> str | None:
        tok = _strip_edge_punct(piece).lower()
        return lemma_map.get(tok, tok) if tok else None

    memo = _Memo(token_of)
    kept: list[Stanza] = []
    dropped = 0
    for stanza in stanzas:
        # joined with a space, the lines split into the same pieces as one by one
        tokens = [tok for tok in map(memo.__getitem__, _pieces(" ".join(stanza.lines))) if tok is not None]
        if tokens:
            stanza.tokens = tokens
            kept.append(stanza)
        else:
            dropped += 1
            log.info("dropping stanza %s: no tokens after normalization", stanza.id)
    if dropped:
        log.warning("normalization dropped %d token-less stanzas", dropped)
    return kept


def read_text(path: str | Path) -> str:
    """A UTF-8 text file without a leading byte-order mark, with universal newlines, as ``Path.read_text``.

    A file that is not UTF-8 raises CorpusError naming its first such line.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n").count(b"\n") + 1
        raise CorpusError(f"{path}: line {line} is not UTF-8 ({exc.reason})") from exc


def load_lemma_map(path: str | Path) -> dict[str, str]:
    """Read a two-column token<TAB>lemma table; later duplicates override.

    Keys and lemmas are stripped and lowercased so lookups agree with the
    lowercased token stream; a row whose key or lemma is then empty is
    skipped with a warning.
    """
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        parts = [part.strip().lower() for part in line.split("\t")]
        if len(parts) < 2 or not parts[0] or not parts[1]:
            log.warning("%s:%d: skipping malformed lemma row", path, lineno)
            continue
        mapping[parts[0]] = parts[1]
    return mapping


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One word per line; '#' starts a comment line."""
    words = set()
    for line in read_text(path).split("\n"):
        word = line.strip()
        if word and not word.startswith("#"):
            words.add(word.lower())
    return frozenset(words)


@dataclass(frozen=True)
class TimeSlot:
    start: int  # inclusive
    end: int  # exclusive

    @property
    def label(self) -> str:
        return f"{self.start}-{self.end}"

    def contains(self, year: int) -> bool:
        return self.start <= year < self.end


class TimeSlotTable(tuple):
    """Ordered year intervals, either disjoint (fixed) or overlapping (sliding): a tuple of TimeSlot."""

    __slots__ = ()

    def __new__(cls, slots):
        table = super().__new__(cls, slots)
        starts = [s.start for s in table]
        if sorted(set(starts)) != starts:
            raise ValueError("slot starts must be strictly increasing")
        for s in table:
            if s.end <= s.start:
                raise ValueError(f"empty slot interval {s}")
        return table

    def slots_for_year(self, year: int) -> list[int]:
        return [i for i, s in enumerate(self) if s.contains(year)]


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
    one wide slot, absorbing a sparse early period. ``start`` and ``end``
    must lie in YEAR_MIN..YEAR_MAX, the range of a stanza year.
    """
    if not (YEAR_MIN <= start <= YEAR_MAX and YEAR_MIN <= end <= YEAR_MAX):
        raise ValueError(f"start and end must be years in {YEAR_MIN}..{YEAR_MAX}")
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
    return TimeSlotTable(TimeSlot(a, b) for a, b in bounds)


def assign_slots(years, table: TimeSlotTable) -> np.ndarray:
    """(D, S) bool membership: document d is in slot s when its year lies in it.

    Fixed tables partition; sliding tables put a document in up to
    ceil(window/step) slots. Out-of-range documents are in no slot.
    """
    years = np.asarray(years, dtype=np.int64).reshape(-1, 1)
    starts = np.array([s.start for s in table], dtype=np.int64)
    ends = np.array([s.end for s in table], dtype=np.int64)
    return (years >= starts) & (years < ends)


@dataclass
class Vocabulary:
    """Dense word index with global and per-slot occurrence counts.

    Global counts cover the documents in at least one slot, once each; a
    slot counts every document it holds. In fixed-mode slotting the
    per-slot counts of a word sum to its global count; in sliding mode slot
    counts overlap and may exceed it.
    """

    words: list[str]
    index: dict[str, int]
    global_counts: np.ndarray  # (V,) int64
    slot_counts: np.ndarray  # (S, V) int64
    # (S,) int64 tokens per slot: build_vocab counts out-of-vocabulary tokens too, while
    # load_model can only sum the in-vocabulary slot counts, as model.bin holds no others
    slot_total_tokens: np.ndarray

    def __len__(self) -> int:
        return len(self.words)


def build_vocab(docs: Documents, table: TimeSlotTable, min_count: int = 5) -> Vocabulary:
    """Count words over the slotted documents and keep those with global count >= min_count.

    Words are ordered by global count descending, ties by ``str`` order,
    which keeps top-N selection stable. Documents outside every slot are
    counted in a warning. Each slot is counted with ``np.bincount`` over one
    :meth:`Documents.select` read of its documents, whose size is the slot's
    total tokens; the global counts are those of the whole id column less
    those of a read of the documents outside every slot.
    """
    member = assign_slots(docs.years, table)
    in_range = member.any(axis=1)
    if not in_range.all():
        log.warning("%d stanzas fall outside all time slots", np.count_nonzero(~in_range))
    n_types = len(docs.types)
    counts = np.bincount(docs.ids, minlength=n_types) - np.bincount(docs.select(~in_range)[0], minlength=n_types)
    kept = np.flatnonzero(counts >= max(min_count, 1)).tolist()
    if not kept:
        raise CorpusError(f"no words reach min_count={min_count}; vocabulary is empty")
    by_count = counts.tolist()
    kept.sort(key=lambda t: (-by_count[t], docs.types[t]))
    words = [docs.types[t] for t in kept]
    slot_counts = np.zeros((len(table), len(kept)), dtype=np.int64)
    slot_total_tokens = np.zeros(len(table), dtype=np.int64)
    for s, in_slot in enumerate(member.T):
        types = docs.select(in_slot)[0]
        slot_counts[s] = np.bincount(types, minlength=n_types)[kept]
        slot_total_tokens[s] = types.size
    return Vocabulary(
        words=words,
        index={w: i for i, w in enumerate(words)},
        global_counts=counts[kept],
        slot_counts=slot_counts,
        slot_total_tokens=slot_total_tokens,
    )


CACHE_MAGIC = b"DLKC"
CACHE_VERSION = 1


def _cache_error(message: str) -> CorpusError:
    return CorpusError(f"{message}; run the ingest command to write the cache")


def save_normalized(stanzas: list[Stanza], path: str | Path) -> None:
    """Write the tokens and years of normalized stanzas as the binary corpus cache.

    The little-endian file holds :class:`Documents` in blocks: the magic and
    a ``<u4`` version, ``<u8`` counts of types, tokens and documents, the
    ``<u4`` byte length of each type, the UTF-8 types, then ``<i4`` ids,
    ``<i8`` offsets and ``<i8`` years. It replaces ``path`` whole
    (:func:`blockfile.replacing`).
    """
    docs = Documents.from_tokens([s.tokens for s in stanzas], [s.year for s in stanzas])
    raw = [t.encode("utf-8") for t in docs.types]
    with replacing(path, CACHE_MAGIC, CACHE_VERSION) as fh:
        fh.write(np.array([len(raw), docs.ids.size, len(docs)], dtype="<u8"))
        fh.write(np.array([len(r) for r in raw], dtype="<u4"))
        fh.write(b"".join(raw))
        for column, dtype in ((docs.ids, "<i4"), (docs.offsets, "<i8"), (docs.years, "<i8")):
            fh.write(np.ascontiguousarray(column, dtype=dtype))


def load_normalized(path: str | Path) -> Documents:
    """Read the corpus cache written by :func:`save_normalized`, viewing its columns in place.

    Every block is viewed, and together they must fill the file exactly,
    before any is decoded or checked, so a damaged count fails as a length
    error and allocates nothing. Then the types must be distinct UTF-8, the
    ids index them, the offsets rise from 0 to the token count, and every
    year lies in YEAR_MIN..YEAR_MAX. Any other file raises CorpusError.
    """
    reader = BlockReader(path, "normalized corpus cache", CACHE_MAGIC, CACHE_VERSION, _cache_error)
    n_types, n_tokens, n_docs = reader.block("<u8", (3,)).tolist()
    lengths = reader.block("<u4", (n_types,))
    raw = reader.block("u1", (int(lengths.sum(dtype=np.uint64)),))
    ids = reader.block("<i4", (n_tokens,))
    offsets = reader.block("<i8", (n_docs + 1,))
    years = reader.block("<i8", (n_docs,))
    reader.end()
    types = reader.strings(raw, lengths, "type")
    if len(set(types)) != n_types:
        raise _cache_error(f"repeated type in {path}")
    if n_tokens and not (0 <= ids.min() and ids.max() < n_types):
        raise _cache_error(f"token id outside the {n_types} types in {path}")
    if offsets[0] != 0 or offsets[-1] != n_tokens or (np.diff(offsets) < 0).any():
        raise _cache_error(f"document offsets of {path} do not rise from 0 to its {n_tokens} tokens")
    if n_docs and not (YEAR_MIN <= years.min() and years.max() <= YEAR_MAX):
        raise _cache_error(f"year outside {YEAR_MIN}..{YEAR_MAX} in {path}")
    return Documents(types=types, ids=ids, offsets=offsets, years=years)
