"""Word-pair similarity trajectories, their PCA, and component-extreme classes.

A trajectory is the per-slot cosine between a target word and one candidate.
PCA over the trajectory matrix separates stable high/low association from
rising/falling association; the extreme candidates on each oriented
component give the emerging, vanishing, and stable pair lists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import PcaResult, pca, row_norms, rowwise_cosine
from .trainer import JointEmbeddingModel

log = logging.getLogger(__name__)

MAX_MISSING = 1  # slots a candidate may fall short in, filled by interpolation


@dataclass
class SimilarityTrajectory:
    target: str
    candidate: str
    values: np.ndarray  # (S,) per-slot cosine, imputed where marked
    imputed: np.ndarray  # (S,) bool


def build_trajectories(
    model: JointEmbeddingModel,
    target: str,
    min_global: int = 30,
    min_per_slot: int = 2,
) -> list[SimilarityTrajectory]:
    """Per-slot cosine trajectories of every eligible candidate against ``target``.

    Candidates need a global count of at least ``min_global`` and at least
    ``min_per_slot`` occurrences per slot; up to MAX_MISSING slots may
    fall short and are filled by linear interpolation between the
    neighboring measured slots (edges copy the nearest measured value).
    The returned list is ordered by vocabulary index. All trajectories
    share one ``(C, S)`` value matrix and one imputed mask: each ``values``
    and ``imputed`` is a row view. The matrix is filled ROW_BLOCK candidates
    at a time (see :meth:`JointEmbeddingModel.slot_blocks`).
    """
    vocab = model.vocab
    ti = model._word_index(target)
    if not (vocab.slot_counts[:, ti] >= 1).all():
        missing = [model.slot_table[s].label for s in np.flatnonzero(vocab.slot_counts[:, ti] < 1)]
        raise ValueError(f"target {target!r} is absent from slot(s): {', '.join(missing)}")

    missing_slots = vocab.slot_counts < min_per_slot
    cand_mask = (
        (vocab.global_counts >= min_global)
        & (missing_slots.sum(axis=0) <= MAX_MISSING)
    )
    cand_mask[ti] = False
    cand = np.flatnonzero(cand_mask)
    if cand.size == 0:
        raise ValueError(f"no candidate words pass the thresholds for target {target!r}")

    n_slots = model.n_slots
    values = np.empty((cand.size, n_slots))
    targets = [model.embedding_of(target, t) for t in range(n_slots)]
    target_norms = [row_norms(v) for v in targets]
    for lo, vecs in model.slot_blocks(cand):
        block = values[lo : lo + len(vecs[0])]
        for t, v in enumerate(vecs):
            block[:, t] = rowwise_cosine(v, targets[t], norm_b=target_norms[t])

    imputed = np.ascontiguousarray(missing_slots[:, cand].T)
    slot_axis = np.arange(n_slots, dtype=np.float64)
    for row in np.flatnonzero(imputed.any(axis=1)):
        mask = imputed[row]
        values[row, mask] = np.interp(slot_axis[mask], slot_axis[~mask], values[row, ~mask])
    return [
        SimilarityTrajectory(target=target, candidate=vocab.words[c], values=vals, imputed=mask)
        for c, vals, mask in zip(cand.tolist(), values, imputed)
    ]


@dataclass(frozen=True)
class ExtremeEntry:
    candidate: str
    projection: float


@dataclass
class TropeReport:
    """PCA over a trajectory set with the extreme candidates per component."""

    pca: PcaResult
    trajectories: list[SimilarityTrajectory]
    top_k: int
    extremes: list[tuple[list[ExtremeEntry], list[ExtremeEntry]]]  # per component (pos, neg)
    oriented: bool = False
    undetermined: set[int] = field(default_factory=set)

    def component_members(self, component: int, end: str) -> list[str]:
        pos, neg = self.extremes[component]
        entries = pos if end == "pos" else neg
        return [e.candidate for e in entries]


def _extreme_lists(
    projections: np.ndarray, trajectories: list[SimilarityTrajectory], top_k: int
) -> list[tuple[list[ExtremeEntry], list[ExtremeEntry]]]:
    n, q = projections.shape
    rows = np.arange(n)
    out = []
    for c in range(q):
        col = projections[:, c]
        pos_order = np.lexsort((rows, -col))[:top_k]
        neg_order = np.lexsort((rows, col))[:top_k]
        pos = [ExtremeEntry(trajectories[r].candidate, float(col[r])) for r in pos_order]
        neg = [ExtremeEntry(trajectories[r].candidate, float(col[r])) for r in neg_order]
        out.append((pos, neg))
    return out


def trajectory_pca(
    trajectories: list[SimilarityTrajectory], n_components: int = 4, top_k: int = 25
) -> TropeReport:
    """PCA of the stacked trajectory rows with top-k extreme candidates.

    Trajectory order is the tie-break for equal projections, which matches
    vocabulary order when the list comes from :func:`build_trajectories`.
    Both ends of a component list top_k candidates, so there must be at
    least 2 * top_k trajectories, or the two lists would share candidates.
    """
    if len(trajectories) < n_components + 1:
        raise ValueError(f"need at least {n_components + 1} trajectories for {n_components} components")
    if 2 * top_k > len(trajectories):
        raise ValueError(f"need at least {2 * top_k} trajectories for top_k={top_k} at both ends of a component")
    matrix = np.vstack([t.values for t in trajectories])
    result = pca(matrix, n_components)
    if result.degenerate:
        log.warning("trajectory matrix has zero variance; components are arbitrary")
    extremes = _extreme_lists(result.projections, trajectories, top_k)
    return TropeReport(pca=result, trajectories=trajectories, top_k=top_k, extremes=extremes)


def _mean_level(report: TropeReport, names: list[str]) -> float:
    by_name = {t.candidate: t for t in report.trajectories}
    return float(np.mean([by_name[n].values.mean() for n in names]))


def _mean_slope(report: TropeReport, names: list[str]) -> float:
    by_name = {t.candidate: t for t in report.trajectories}
    xs = np.arange(report.trajectories[0].values.size, dtype=np.float64)
    xc = xs - xs.mean()
    sxx = float((xc**2).sum())
    slopes = [float((xc * by_name[n].values).sum() / sxx) for n in names]
    return float(np.mean(slopes))


def orient_components(report: TropeReport) -> TropeReport:
    """Fix the sign of the first two components to a data-driven meaning.

    Component 1 points toward trajectories with the higher mean level
    ("high"); component 2 points toward the higher mean least-squares slope
    ("rising"). Components whose calibration statistic ties are flagged
    undetermined and left as-is. Orienting an already sign-flipped report
    yields the identical result.
    """
    projections = report.pca.projections.copy()
    components = report.pca.components.copy()
    undetermined: set[int] = set()
    q = projections.shape[1]
    calibrations = (_mean_level, _mean_slope)
    for c in range(min(2, q)):
        pos, neg = report.extremes[c]
        stat = calibrations[c]
        pos_stat = stat(report, [e.candidate for e in pos])
        neg_stat = stat(report, [e.candidate for e in neg])
        if pos_stat == neg_stat:
            undetermined.add(c)
            log.warning("component %d orientation is undetermined (tied calibration)", c + 1)
            continue
        if pos_stat < neg_stat:
            projections[:, c] *= -1.0
            components[c] *= -1.0
    oriented_pca = replace(report.pca, projections=projections, components=components)
    extremes = _extreme_lists(projections, report.trajectories, report.top_k)
    return TropeReport(
        pca=oriented_pca,
        trajectories=report.trajectories,
        top_k=report.top_k,
        extremes=extremes,
        oriented=True,
        undetermined=undetermined,
    )


_LABELS = {(0, "pos"): "high", (0, "neg"): "low", (1, "pos"): "rising", (1, "neg"): "falling"}


def classify_trajectory(report: TropeReport, candidate: str) -> list[str]:
    """Class labels of a candidate from the oriented extreme lists.

    Membership in a component-1 extreme gives high/low, component 2 gives
    rising/falling; a candidate may carry one label from each. Candidates
    in no extreme list are labeled mixed.
    """
    if not report.oriented:
        raise ValueError("report must be oriented before classification")
    if all(t.candidate != candidate for t in report.trajectories):
        raise ValueError(f"candidate {candidate!r} is not part of the report")
    labels = []
    for c in range(min(2, len(report.extremes))):
        if c in report.undetermined:
            continue
        for end in ("pos", "neg"):
            if candidate in report.component_members(c, end):
                labels.append(_LABELS[(c, end)])
    return labels if labels else ["mixed"]
