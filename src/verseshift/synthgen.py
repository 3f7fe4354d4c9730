"""Synthetic stanza corpora with planted semantic behavior.

Each planted word appears a fixed number of times per slot inside
pseudo-stanzas whose remaining tokens are drawn from the word's context
cluster: stable words keep one cluster, abrupt-shift words swap clusters at
a chosen slot, and drifting words mix the two clusters with slot-linear
weights. Background stanzas of uniform filler tokens pad every slot to the
requested size. Output is the same JSON Lines stanza format the ingest
pipeline reads, and generation is byte-deterministic under the seed.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import read_text

KINDS = ("stable", "abrupt_shift", "linear_drift")


@dataclass
class PlantedWord:
    word: str
    kind: str = "stable"
    occurrences_per_slot: int = 100
    cluster_size: int = 10
    shift_slot: int | None = None  # first slot using the after-cluster
    drift_rate: float = 1.0  # 1.0 reaches the after-cluster in the last slot
    context_words: list[str] | None = None
    context_words_after: list[str] | None = None


@dataclass
class SynthSpec:
    slot_count: int = 6
    start_year: int = 1600
    slot_width: int = 50
    filler_words: int = 30
    tokens_per_slot: int = 50_000
    stanza_tokens: int = 10
    seed: int = 1
    planted: list[PlantedWord] = field(default_factory=list)

    def validate(self) -> None:
        if self.slot_count < 2:
            raise ValueError("slot_count must be at least 2")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        if self.slot_width < 1 or self.filler_words < 1 or self.stanza_tokens < 2:
            raise ValueError("slot_width, filler_words and stanza_tokens must be positive")
        names = [p.word for p in self.planted]
        if len(set(names)) != len(names):
            raise ValueError("planted words must be distinct")
        for p in self.planted:
            if p.kind not in KINDS:
                raise ValueError(f"unknown planted kind {p.kind!r}")
            if p.occurrences_per_slot < 1 or p.cluster_size < 1:
                raise ValueError("occurrences_per_slot and cluster_size must be positive")
            if p.kind == "abrupt_shift":
                if p.shift_slot is None or not (0 < p.shift_slot < self.slot_count):
                    raise ValueError(
                        f"abrupt_shift word {p.word!r} needs shift_slot in (0, {self.slot_count})"
                    )
        planted_tokens = sum(p.occurrences_per_slot for p in self.planted) * self.stanza_tokens
        if planted_tokens > self.tokens_per_slot:
            raise ValueError(
                f"tokens_per_slot={self.tokens_per_slot} is too small for the planted "
                f"occurrences ({planted_tokens} tokens per slot)"
            )

    def filler_word_list(self) -> list[str]:
        return [f"w{i:03d}" for i in range(self.filler_words)]

    def slot_bounds(self) -> list[tuple[int, int]]:
        return [
            (self.start_year + s * self.slot_width, self.start_year + (s + 1) * self.slot_width)
            for s in range(self.slot_count)
        ]

    def resolved_clusters(self) -> dict[str, tuple[list[str], list[str]]]:
        """Before/after context clusters per planted word; defaults are
        disjoint auto-named word sets."""
        out = {}
        for i, p in enumerate(self.planted):
            before = p.context_words or [f"c{i:03d}a{j:02d}" for j in range(p.cluster_size)]
            if p.kind == "stable":
                after = list(before)
            else:
                after = p.context_words_after or [f"c{i:03d}b{j:02d}" for j in range(p.cluster_size)]
            out[p.word] = (list(before), after)
        return out

    def context_word_pool(self) -> list[str]:
        pool: list[str] = []
        seen = set()
        for before, after in self.resolved_clusters().values():
            for w in before + after:
                if w not in seen:
                    seen.add(w)
                    pool.append(w)
        return pool


def _after_weight(item: PlantedWord, slot: int, slot_count: int) -> float:
    if item.kind == "stable":
        return 0.0
    if item.kind == "abrupt_shift":
        return 1.0 if slot >= item.shift_slot else 0.0
    return float(np.clip(item.drift_rate * slot / (slot_count - 1), 0.0, 1.0))


def generate(spec: SynthSpec) -> list[dict]:
    """Produce stanza records for the whole synthetic corpus.

    Planted per-slot occurrence counts are met exactly; background stanzas
    fill the remaining token budget. Years are uniform within each slot.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    clusters = spec.resolved_clusters()
    for p in spec.planted:
        before, after = clusters[p.word]
        if p.word in before or p.word in after:
            raise ValueError(f"planted word {p.word!r} may not appear in its own cluster")
    fillers = spec.filler_word_list()
    n_ctx = spec.stanza_tokens - 1

    records: list[dict] = []
    for slot, (year_lo, year_hi) in enumerate(spec.slot_bounds()):
        slot_rows: list[list[str]] = []
        for item in spec.planted:
            before, after = clusters[item.word]
            w_after = _after_weight(item, slot, spec.slot_count)
            n = item.occurrences_per_slot
            use_after = rng.random((n, n_ctx)) < w_after
            pick_before = rng.integers(0, len(before), size=(n, n_ctx))
            pick_after = rng.integers(0, len(after), size=(n, n_ctx))
            positions = rng.integers(0, spec.stanza_tokens, size=n)
            for r in range(n):
                row = [
                    after[pick_after[r, c]] if use_after[r, c] else before[pick_before[r, c]]
                    for c in range(n_ctx)
                ]
                row.insert(int(positions[r]), item.word)
                slot_rows.append(row)
        planted_tokens = len(slot_rows) * spec.stanza_tokens
        n_background = (spec.tokens_per_slot - planted_tokens) // spec.stanza_tokens
        if n_background > 0:
            picks = rng.integers(0, len(fillers), size=(n_background, spec.stanza_tokens))
            for r in range(n_background):
                slot_rows.append([fillers[j] for j in picks[r]])

        order = rng.permutation(len(slot_rows))
        years = rng.integers(year_lo, year_hi, size=len(slot_rows))
        for pos, row_idx in enumerate(order):
            row = slot_rows[row_idx]
            half = len(row) // 2
            rec_id = f"s{len(records):07d}"
            records.append(
                {
                    "id": rec_id,
                    "poem_id": rec_id,
                    "author": "synthetic",
                    "year": int(years[pos]),
                    "lines": [" ".join(row[:half]), " ".join(row[half:])],
                }
            )
    return records


def generate_jsonl(spec: SynthSpec, path: str | Path) -> int:
    """Write :func:`generate`'s records to ``path`` as JSON lines; returns their count."""
    records = generate(spec)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")
    return len(records)


def _matches(value, hint) -> bool:
    """Whether a JSON value has a field's declared type; a planted entry is checked when it is built."""
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_matches(v, typing.get_args(hint)[0]) for v in value)
    if typing.get_args(hint):  # a union such as int | None
        return any(_matches(value, h) for h in typing.get_args(hint))
    accepted = (int, float) if hint is float else hint
    # bool is a subclass of int, but JSON true and false are not numbers
    return hint is PlantedWord or (not isinstance(value, bool) and isinstance(value, accepted))


def _build(cls, obj, where: str):
    """``cls`` from a JSON object of its fields, each of its declared type; anything else raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object, not {type(obj).__name__}")
    try:
        built = cls(**obj)
    except TypeError as exc:  # an unknown or a missing field
        raise ValueError(f"{where}: {exc}") from exc
    for key, hint in typing.get_type_hints(cls).items():
        value = getattr(built, key)
        if not _matches(value, hint):
            raise ValueError(f"{where}: {key} must be {getattr(hint, '__name__', hint)}, not {type(value).__name__}")
    return built


def load_spec(path: str | Path) -> SynthSpec:
    """Read a generator spec from a JSON document mirroring :class:`SynthSpec`, read by :func:`corpus.read_text`."""
    spec = _build(SynthSpec, json.loads(read_text(path)), "spec")
    spec.planted = [_build(PlantedWord, item, f"planted entry {i}") for i, item in enumerate(spec.planted)]
    return spec
