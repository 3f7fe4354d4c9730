"""Self-similarity of words over time: adjacent-slot series, change points,
distance-aggregated totals with frequency bands and a linearity fit."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .corpus import TimeSlot
from .linalg import row_norms, rowwise_cosine
from .trainer import ROW_BLOCK, JointEmbeddingModel

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DistributionSummary:
    """Box-plot statistics of a sample, its whiskers by matplotlib's ``whis=1.5`` rule.

    A whisker reaches the farthest datum within 1.5 IQR of its quartile, or
    stays at the quartile when no datum lies between them, as matplotlib's
    ``boxplot_stats`` does; ``outliers_lo`` and ``outliers_hi`` count the
    data beyond each whisker. ``p5`` and ``p95`` are the 5th and 95th
    percentiles.
    """

    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    mean: float
    n: int
    p5: float
    p95: float
    outliers_lo: int
    outliers_hi: int

    @classmethod
    def from_values(cls, values: np.ndarray) -> "DistributionSummary":
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot summarize an empty sample")
        p5, q1, med, q3, p95 = np.percentile(values, [5, 25, 50, 75, 95])
        reach = 1.5 * (q3 - q1)
        lo = values[values >= q1 - reach].min(initial=q1)
        hi = values[values <= q3 + reach].max(initial=q3)
        return cls(
            median=float(med),
            q1=float(q1),
            q3=float(q3),
            whisker_lo=float(lo),
            whisker_hi=float(hi),
            mean=float(values.mean()),
            n=int(values.size),
            p5=float(p5),
            p95=float(p95),
            outliers_lo=int(np.count_nonzero(values < lo)),
            outliers_hi=int(np.count_nonzero(values > hi)),
        )


@dataclass
class SelfSimSeries:
    """Per adjacent slot pair: the measured words' vocabulary rows, their cosines and its summary."""

    pairs: list[tuple[TimeSlot, TimeSlot]]
    summaries: list[DistributionSummary]
    rows: list[np.ndarray]  # (n,) vocabulary indices
    cosines: list[np.ndarray]  # (n,) float64, one per row


def pairwise_self_similarity(
    model: JointEmbeddingModel,
    top_n: int = 3000,
    words: list[str] | None = None,
    frequency_scope: str = "global",
) -> SelfSimSeries:
    """Cosine of each frequent word with itself across adjacent slots.

    Candidates are the ``top_n`` most frequent vocabulary words (corpus-wide
    by default; ``frequency_scope="pair"`` ranks by the two slots of each
    pair instead), or an explicit ``words`` list. A word absent from either
    slot of a pair is skipped for that pair, never imputed. Pairs with no
    measurable word are dropped with a warning; ValueError if all are. The
    two slots' vectors are built ROW_BLOCK words at a time.
    """
    vocab = model.vocab
    if model.n_slots < 2:
        raise ValueError("need at least 2 slots for pairwise self-similarity")
    if frequency_scope not in ("global", "pair"):
        raise ValueError("frequency_scope must be 'global' or 'pair'")
    if words is not None:
        fixed = np.array([model._word_index(w) for w in words], dtype=np.int64)
    else:
        if top_n < 1 or top_n > len(vocab):
            raise ValueError(f"top_n must be in [1, {len(vocab)}]")
        fixed = np.argsort(-vocab.global_counts, kind="stable")[:top_n] if frequency_scope == "global" else None

    pairs: list[tuple[TimeSlot, TimeSlot]] = []
    summaries: list[DistributionSummary] = []
    rows: list[np.ndarray] = []
    cosines: list[np.ndarray] = []
    for i in range(model.n_slots - 1):
        j = i + 1
        if fixed is None:
            cand = np.argsort(-(vocab.slot_counts[i] + vocab.slot_counts[j]), kind="stable")[:top_n]
        else:
            cand = fixed
        present = cand[(vocab.slot_counts[i, cand] > 0) & (vocab.slot_counts[j, cand] > 0)]
        if present.size == 0:
            log.warning(
                "no words shared by slots %s and %s; dropping the pair",
                model.slot_table[i].label,
                model.slot_table[j].label,
            )
            continue
        cos = np.concatenate([rowwise_cosine(*vecs) for _, vecs in model.slot_blocks(present, (i, j))])
        pairs.append((model.slot_table[i], model.slot_table[j]))
        summaries.append(DistributionSummary.from_values(cos))
        rows.append(present)
        cosines.append(cos)
    if not pairs:
        raise ValueError("no adjacent slot pair shares a measured word")
    return SelfSimSeries(pairs=pairs, summaries=summaries, rows=rows, cosines=cosines)


def detect_change_points(series: SelfSimSeries, k: int) -> list[tuple[int, float]]:
    """The k deepest interior local minima of the per-pair median sequence.

    Depth is the mean of the neighboring medians minus the minimum's median,
    so the measure is invariant under shifting all medians by a constant.
    Each change point is reported as (start year of the later slot, depth),
    deepest first, ties broken by the earlier year. Depths are compared
    rounded to 12 decimals, so dips that differ only by rounding noise tie;
    the reported depth is not rounded. Fewer minima than ``k`` yields a
    shorter list.
    """
    medians = [s.median for s in series.summaries]
    if len(medians) < 3:
        raise ValueError("change-point detection needs at least 3 slot pairs")
    points = []
    for i in range(1, len(medians) - 1):
        if medians[i] < medians[i - 1] and medians[i] < medians[i + 1]:
            depth = (medians[i - 1] + medians[i + 1]) / 2.0 - medians[i]
            points.append((series.pairs[i][1].start, depth))
    points.sort(key=lambda p: (-round(p[1], 12), p[0]))
    return points[: max(0, k)]


@dataclass
class TotalSelfSim:
    """Per-word mean cosine at every slot-distance, plus per-distance summaries."""

    distances: list[int]  # year gaps between slot starts, ascending
    words: list[str]
    word_indices: np.ndarray  # (n,) vocabulary indices
    global_counts: np.ndarray  # (n,)
    word_means: np.ndarray  # (n, n_distances)
    summaries: list[DistributionSummary]


def total_self_similarity(
    model: JointEmbeddingModel,
    min_per_slot: int = 50,
    stopwords: frozenset[str] = frozenset(),
) -> TotalSelfSim:
    """Self-similarity aggregated by the year distance between slot starts.

    Only non-stopwords occurring at least ``min_per_slot`` times in every
    slot are measured. For each such word the cosines of all unordered slot
    pairs are bucketed by distance and averaged, leaving one value per word
    and distance; the summaries then describe the word sample per distance.
    The slot vectors are built ROW_BLOCK words at a time (see
    :meth:`JointEmbeddingModel.slot_blocks`), so the memory beyond the model
    is one block, whatever the number of eligible words.
    """
    vocab = model.vocab
    if model.n_slots < 2:
        raise ValueError("need at least 2 slots for total self-similarity")
    eligible_mask = (vocab.slot_counts >= min_per_slot).all(axis=0)
    for w in stopwords:
        i = vocab.index.get(w)
        if i is not None:
            eligible_mask[i] = False
    word_indices = np.flatnonzero(eligible_mask)
    if word_indices.size == 0:
        raise ValueError(
            f"no words occur at least {min_per_slot} times in every slot (after stopword removal)"
        )

    starts = np.array([slot.start for slot in model.slot_table])
    first, second = np.triu_indices(model.n_slots, 1)  # every unordered slot pair
    distances, column, counts = np.unique(abs(starts[first] - starts[second]), return_inverse=True, return_counts=True)

    sums = np.zeros((word_indices.size, len(distances)))
    for lo, vecs in model.slot_blocks(word_indices):
        vecs = list(vecs)  # every slot pair is compared
        norms = [row_norms(v) for v in vecs]
        rows = slice(lo, lo + ROW_BLOCK)
        for i, j, k in zip(first.tolist(), second.tolist(), column.tolist()):
            sums[rows, k] += rowwise_cosine(vecs[i], vecs[j], norms[i], norms[j])
    word_means = sums / counts[None, :]
    summaries = [DistributionSummary.from_values(word_means[:, k]) for k in range(len(distances))]
    return TotalSelfSim(
        distances=distances.tolist(),
        words=[vocab.words[i] for i in word_indices],
        word_indices=word_indices,
        global_counts=vocab.global_counts[word_indices],
        word_means=word_means,
        summaries=summaries,
    )


@dataclass
class FrequencyBands:
    """Low/high frequency halves of the eligible words with per-band summaries."""

    band_of: dict[str, str]  # word -> "low" | "high"
    summaries: dict[str, list[DistributionSummary]]  # band -> per distance of TotalSelfSim.distances


def frequency_bands(total: TotalSelfSim) -> FrequencyBands:
    """Split the eligible words into equal low/high frequency bands.

    Words sort by global count (vocabulary index breaks ties); the lower
    half is the low band, and an odd word count puts the median word there.
    """
    n = len(total.words)
    if n < 2:
        raise ValueError("frequency bands need at least 2 eligible words")
    order = np.argsort(total.global_counts, kind="stable")  # rows are in vocabulary order
    n_low = (n + 1) // 2
    bands = {"low": order[:n_low], "high": order[n_low:]}
    band_of = {total.words[r]: band for band, rows in bands.items() for r in rows}
    summaries = {
        band: [DistributionSummary.from_values(total.word_means[rows, k]) for k in range(len(total.distances))]
        for band, rows in bands.items()
    }
    return FrequencyBands(band_of=band_of, summaries=summaries)


@dataclass(frozen=True)
class LinearFit:
    slope: float  # change in mean cosine per year of distance
    intercept: float
    r_squared: float


def linearity_fit(total: TotalSelfSim) -> LinearFit:
    """Ordinary least squares of per-distance mean cosine against distance.

    Constant means are reported as slope 0 with r-squared defined as 0.
    """
    if len(total.distances) < 3:
        raise ValueError("linearity fit needs at least 3 distinct distances")
    x = np.array(total.distances, dtype=np.float64)
    y = np.array([s.mean for s in total.summaries])
    if np.ptp(y) == 0.0:  # polyfit's slope would be off zero by rounding
        return LinearFit(slope=0.0, intercept=float(y.mean()), r_squared=0.0)
    slope, intercept = np.polyfit(x, y, 1)
    r_squared = 1.0 - float(((y - (slope * x + intercept)) ** 2).sum()) / float(((y - y.mean()) ** 2).sum())
    return LinearFit(slope=float(slope), intercept=float(intercept), r_squared=r_squared)
