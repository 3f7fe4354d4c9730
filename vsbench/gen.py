"""Seeded inputs for the benchmark workloads.

Usage: python3 gen.py WORKLOAD SEED OUT_DIR

Writes the workload's inputs under OUT_DIR, plus ``setup.json`` with the
file paths, the ground truth the output checks use, the sha256 of every
file and the seconds that generating and writing took.

The generators live here, not in ``verseshift.synthgen``, so that a change to
the program's own generator never changes what the benchmark measures. Every
input is a pure function of the workload seed.

- :func:`shift6_corpus` mirrors acceptance criterion 3: six fixed 50-year
  slots, a 30-word filler and 60 words whose context cluster switches at the
  fourth slot (1750).
- :func:`sliding13_corpus` is shaped like the reference corpus: thirteen
  sliding slots, a Zipf vocabulary of 20k types and 60 words whose contexts
  switch in 1750.
- :func:`reports_model` builds a trained-looking model directly: Zipf counts,
  a group of frequent words that turns at a known slot, and one target word
  with high, low, rising and falling candidate groups.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

@dataclass
class Corpus:
    """A JSON Lines stanza corpus plus held-out stanzas from the same process."""

    jsonl: str
    heldout: list[tuple[int, list[str]]]  # (year, tokens), never part of the corpus
    shift_year: int


def _records(rows: list[list[str]], years: np.ndarray) -> str:
    out = []
    for i, (row, year) in enumerate(zip(rows, years)):
        half = len(row) // 2
        sid = f"s{i:07d}"
        out.append(
            f'{{"id": "{sid}", "poem_id": "{sid}", "author": "bench", "year": {int(year)}, '
            f'"lines": ["{" ".join(row[:half])}", "{" ".join(row[half:])}"]}}\n'
        )
    return "".join(out)


def _planted_rows(rng, word: str, cluster: list[str], n: int, n_ctx: int) -> list[list[str]]:
    picks = rng.integers(0, len(cluster), size=(n, n_ctx))
    positions = rng.integers(0, n_ctx + 1, size=n)
    rows = []
    for r in range(n):
        row = [cluster[j] for j in picks[r]]
        row.insert(int(positions[r]), word)
        rows.append(row)
    return rows


def shift6_corpus(seed: int, tokens_per_slot: int, occurrences: int, heldout_per_word: int = 2) -> Corpus:
    """Criterion-3 corpus: 60 abrupt-shift words switch clusters in slot 3 (1750)."""
    rng = np.random.default_rng([seed, 6])
    fillers = [f"w{i:03d}" for i in range(30)]
    shift_words = [f"shift{i:02d}" for i in range(60)]
    before = [[f"c{i:03d}a{j:02d}" for j in range(10)] for i in range(60)]
    after = [[f"c{i:03d}b{j:02d}" for j in range(10)] for i in range(60)]
    stanza_tokens, shift_slot = 10, 3

    rows: list[list[str]] = []
    years: list[np.ndarray] = []
    heldout: list[tuple[int, list[str]]] = []
    for slot in range(6):
        lo = 1600 + 50 * slot
        slot_rows = []
        for i, word in enumerate(shift_words):
            cluster = after[i] if slot >= shift_slot else before[i]
            planted = _planted_rows(rng, word, cluster, occurrences + heldout_per_word, stanza_tokens - 1)
            slot_rows += planted[:occurrences]
            heldout += [(lo, row) for row in planted[occurrences:]]
        n_background = (tokens_per_slot - len(slot_rows) * stanza_tokens) // stanza_tokens
        picks = rng.integers(0, len(fillers), size=(n_background, stanza_tokens))
        slot_rows += [[fillers[j] for j in row] for row in picks]
        order = rng.permutation(len(slot_rows))
        rows += [slot_rows[k] for k in order]
        years.append(rng.integers(lo, lo + 50, size=len(slot_rows)))
    return Corpus(_records(rows, np.concatenate(years)), heldout, 1600 + 50 * shift_slot)


def _zipf_sampler(rng, n_types: int, exponent: float):
    weights = 1.0 / np.arange(1, n_types + 1) ** exponent
    cdf = np.cumsum(weights / weights.sum())
    names = np.array([f"z{r:05d}" for r in range(n_types)])

    def draw(n: int) -> np.ndarray:
        return names[np.minimum(np.searchsorted(cdf, rng.random(n), side="right"), n_types - 1)]

    return draw


def sliding13_corpus(
    seed: int, background_stanzas: int, occurrences: int, heldout_stanzas: int = 400
) -> Corpus:
    """Reference-shaped corpus: Zipf background over 20k types, 60 words shift in 1750.

    Years are uniform over 1575-1924, so interior years fall in two of the
    thirteen sliding slots. Planted stanzas carry five cluster words and four
    background words around the planted word.
    """
    rng = np.random.default_rng([seed, 13])
    draw = _zipf_sampler(rng, 20_000, 1.0)
    shift_words = [f"shift{i:02d}" for i in range(60)]
    before = [[f"k{i:02d}a{j}" for j in range(8)] for i in range(60)]
    after = [[f"k{i:02d}b{j}" for j in range(8)] for i in range(60)]
    shift_year = 1750

    def stanza_rows(n: int):
        lengths = rng.integers(6, 15, size=n)
        flat = draw(int(lengths.sum())).tolist()
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]

    def planted(n: int):
        years = rng.integers(1575, 1925, size=n)
        which = rng.integers(0, 60, size=n)
        background = draw(4 * n).reshape(n, 4).tolist()
        picks = rng.integers(0, 8, size=(n, 5))
        positions = rng.integers(0, 10, size=n)
        rows = []
        for r in range(n):
            i = which[r]
            cluster = after[i] if years[r] >= shift_year else before[i]
            row = [cluster[j] for j in picks[r]] + background[r]
            row.insert(int(positions[r]), shift_words[i])
            rows.append(row)
        return rows, years

    n_planted = 60 * occurrences
    p_rows, p_years = planted(n_planted)
    b_rows = stanza_rows(background_stanzas)
    b_years = rng.integers(1575, 1925, size=background_stanzas)
    rows = p_rows + b_rows
    years = np.concatenate([p_years, b_years])
    order = rng.permutation(len(rows))
    h_rows, h_years = planted(heldout_stanzas // 2)
    h_rows += stanza_rows(heldout_stanzas - len(h_rows))
    h_years = np.concatenate([h_years, rng.integers(1575, 1925, size=heldout_stanzas - len(h_years))])
    heldout = [(int(y), row) for y, row in zip(h_years, h_rows)]
    return Corpus(_records([rows[k] for k in order], years[order]), heldout, shift_year)


@dataclass
class ReportsModel:
    """Arrays of a planted model plus the ground truth the checks compare against."""

    words: list[str]
    global_counts: np.ndarray
    slot_counts: np.ndarray
    base: np.ndarray
    deltas: np.ndarray
    context: np.ndarray
    turn_year: int
    target: str
    groups: dict[str, list[str]]  # trope class -> planted candidates
    other_targets: list[str]
    stopwords: list[str]


REPORTS_STARTS = list(range(1575, 1876, 25))  # 13 sliding slots of 50 years


def reports_model(seed: int, n_words: int, dim: int = 100, group_size: int = 40) -> ReportsModel:
    """A reference-vocabulary model with a planted turn and planted trope groups.

    Every word gets a random base vector and small per-slot deltas, so
    adjacent-slot self-similarity is high. Two thirds of the 3000 most
    frequent words turn at slot 7 (1750): from there on their deltas add a
    fixed random offset, which makes the (1725, 1750) pair the deepest dip.
    Against the target word, four groups of mid-frequency candidates follow
    a high, low, rising or falling cosine trajectory.
    """
    rng = np.random.default_rng([seed, 60])
    n_slots = len(REPORTS_STARTS)
    turn_slot = 7
    ranks = np.arange(1, n_words + 1)
    global_counts = np.maximum(5, np.round(4.0e6 / ranks)).astype(np.int64)
    # counts per 25-year half-slot; a sliding slot holds two neighbouring halves
    halves = rng.poisson(global_counts[None, :] / (n_slots + 1), size=(n_slots + 1, n_words))
    slot_counts = (halves[:-1] + halves[1:]).astype(np.int64)
    global_counts = halves.sum(axis=0).astype(np.int64)
    order = np.lexsort((np.arange(n_words), -global_counts))
    global_counts, slot_counts = global_counts[order], slot_counts[:, order]
    words = [f"r{i:05d}" for i in range(n_words)]

    base = rng.normal(size=(n_words, dim)).astype(np.float32)
    deltas = (0.12 * rng.normal(size=(n_slots, n_words, dim))).astype(np.float32)
    context = rng.normal(scale=0.1, size=(n_words, dim)).astype(np.float32)

    top = min(3000, n_words)
    turners = rng.permutation(top)[: (2 * top) // 3]
    offset = rng.normal(scale=0.9, size=(turners.size, dim)).astype(np.float32)
    deltas[turn_slot:, turners] += offset[None]

    # trope groups come from mid-frequency words present in every slot
    mid = np.flatnonzero((slot_counts >= 2).all(axis=0) & (global_counts >= 30))
    mid = mid[mid >= top]
    picked = rng.choice(mid, size=1 + 4 * group_size + 4, replace=False)
    target_i = int(picked[0])
    groups_i = picked[1 : 1 + 4 * group_size].reshape(4, group_size)
    other_targets = [words[i] for i in picked[1 + 4 * group_size :]]
    deltas[:, target_i] = 0.0
    unit_t = base[target_i].astype(np.float64) / np.linalg.norm(base[target_i])
    ramp = np.linspace(-0.6, 0.6, n_slots)
    shapes = {
        "high": np.full(n_slots, 0.85),
        "low": np.full(n_slots, -0.85),
        "rising": ramp,
        "falling": ramp[::-1],
    }
    groups = {}
    for (label, shape), members in zip(shapes.items(), groups_i):
        for i in members:
            w = rng.normal(size=dim)
            w -= (w @ unit_t) * unit_t
            w /= np.linalg.norm(w)
            cos = shape + rng.normal(scale=0.02, size=n_slots)
            vecs = cos[:, None] * unit_t + np.sqrt(1.0 - cos**2)[:, None] * w
            vecs *= np.sqrt(dim)
            base[i] = vecs.mean(axis=0)
            deltas[:, i] = vecs - base[i]
        groups[label] = [words[i] for i in members]
    return ReportsModel(
        words=words,
        global_counts=global_counts,
        slot_counts=slot_counts,
        base=base,
        deltas=deltas,
        context=context,
        turn_year=REPORTS_STARTS[turn_slot],
        target=words[target_i],
        groups=groups,
        other_targets=other_targets,
        stopwords=words[:50],
    )


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_inputs(workload: str, seed: int, root: Path) -> dict:
    """Generate one workload's inputs under ``root``; returns file paths and ground truth."""
    if workload in ("shift6", "sliding13"):
        if workload == "shift6":
            c = shift6_corpus(seed, tokens_per_slot=18_000, occurrences=25)
        else:
            c = sliding13_corpus(seed, background_stanzas=6_500, occurrences=45)
        (root / "corpus.jsonl").write_text(c.jsonl, encoding="utf-8")
        (root / "heldout.json").write_text(json.dumps(c.heldout), encoding="utf-8")
        files = {"corpus": root / "corpus.jsonl", "heldout": root / "heldout.json"}
        return {"files": files, "truth": {"shift_year": c.shift_year}}
    if workload != "reports":
        raise ValueError(f"unknown workload {workload!r}")

    from verseshift import corpus, trainer

    m = reports_model(seed, n_words=15_000)
    vocab = corpus.Vocabulary(
        words=m.words,
        index={w: i for i, w in enumerate(m.words)},
        global_counts=m.global_counts,
        slot_counts=m.slot_counts,
        slot_total_tokens=m.slot_counts.sum(axis=1),
    )
    table = corpus.build_slots(REPORTS_STARTS[0], REPORTS_STARTS[-1] + 50, 50, 25)
    trainer.save_model(trainer.JointEmbeddingModel(vocab, table, m.base, m.deltas, m.context), root / "model.bin")
    (root / "stopwords.txt").write_text("\n".join(m.stopwords) + "\n", encoding="utf-8")
    truth = {"turn_year": m.turn_year, "target": m.target, "groups": m.groups, "others": m.other_targets}
    return {"files": {"model": root / "model.bin", "stopwords": root / "stopwords.txt"}, "truth": truth}


def main() -> int:
    workload, seed, root = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    root.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    inputs = write_inputs(workload, seed, root)
    seconds = time.perf_counter() - start
    files = {k: str(p) for k, p in inputs["files"].items()}
    digests = {k: sha256_file(p) for k, p in inputs["files"].items()}
    with open(root / "setup.json", "w", encoding="utf-8") as fh:
        json.dump({"files": files, "truth": inputs["truth"], "sha256": digests, "seconds": seconds}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
