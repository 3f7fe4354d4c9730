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
from .trainer import ROW_BLOCK, JointEmbeddingModel

log = logging.getLogger(__name__)

MAX_MISSING = 1  # slots a candidate may fall short in, filled by interpolation


@dataclass
class Trajectories:
    """Per-slot cosines of candidates against one target word, one row per candidate."""

    target: str
    candidates: list[str]  # row order
    values: np.ndarray  # (C, S) per-slot cosine, imputed where marked
    imputed: np.ndarray  # (C, S) bool

    def __len__(self) -> int:
        return len(self.candidates)


def build_trajectories(
    model: JointEmbeddingModel,
    target: str,
    min_global: int = 30,
    min_per_slot: int = 2,
) -> Trajectories:
    """Per-slot cosine trajectories of every eligible candidate against ``target``.

    Candidates need a global count of at least ``min_global`` and at least
    ``min_per_slot`` occurrences per slot; up to MAX_MISSING slots may
    fall short and are filled by linear interpolation between the
    neighboring measured slots (edges copy the nearest measured value).
    Candidates are in vocabulary order. The ``(C, S)`` value matrix is
    filled ROW_BLOCK candidates at a time (see
    :meth:`JointEmbeddingModel.slot_blocks`).
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
        block = values[lo : lo + ROW_BLOCK]
        for t, v in enumerate(vecs):  # one slot's vectors at a time
            block[:, t] = rowwise_cosine(v, targets[t], norm_b=target_norms[t])

    imputed = np.ascontiguousarray(missing_slots[:, cand].T)
    slot_axis = np.arange(n_slots, dtype=np.float64)
    for row in np.flatnonzero(imputed.any(axis=1)):
        mask = imputed[row]
        values[row, mask] = np.interp(slot_axis[mask], slot_axis[~mask], values[row, ~mask])
    return Trajectories(target, [vocab.words[c] for c in cand.tolist()], values, imputed)


@dataclass
class TropeReport:
    """PCA over a trajectory set with the extreme candidates per component."""

    pca: PcaResult
    trajectories: Trajectories
    extremes: list[tuple[np.ndarray, np.ndarray]]  # per component (pos, neg) rows, most extreme first
    oriented: bool = False
    undetermined: set[int] = field(default_factory=set)

    def rows(self, component: int, end: str) -> np.ndarray:
        pos, neg = self.extremes[component]
        return pos if end == "pos" else neg

    def component_members(self, component: int, end: str) -> list[str]:
        return [self.trajectories.candidates[r] for r in self.rows(component, end).tolist()]


def _extreme_lists(projections: np.ndarray, top_k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (np.argsort(-col, kind="stable")[:top_k], np.argsort(col, kind="stable")[:top_k]) for col in projections.T
    ]


def trajectory_pca(trajectories: Trajectories, n_components: int = 4, top_k: int = 25) -> TropeReport:
    """PCA of the trajectory rows with top-k extreme candidates.

    Row order is the tie-break for equal projections, which is vocabulary
    order for :func:`build_trajectories` output. Both ends of a component
    list top_k candidates, so there must be at least 2 * top_k trajectories,
    or the two lists would share candidates.
    """
    n_slots = trajectories.values.shape[1]
    if n_components > n_slots:
        raise ValueError(f"{n_components} components need at least {n_components} slots; the model has {n_slots}")
    if len(trajectories) < n_components + 1:
        raise ValueError(f"need at least {n_components + 1} trajectories for {n_components} components")
    if 2 * top_k > len(trajectories):
        raise ValueError(f"need at least {2 * top_k} trajectories for top_k={top_k} at both ends of a component")
    result = pca(trajectories.values, n_components)
    if result.degenerate:
        log.warning("trajectory matrix has zero variance; components are arbitrary")
    extremes = _extreme_lists(result.projections, top_k)
    return TropeReport(pca=result, trajectories=trajectories, extremes=extremes)


def _mean_level(values: np.ndarray, rows: np.ndarray) -> float:
    return float(values[rows].mean(axis=1).mean())


def _mean_slope(values: np.ndarray, rows: np.ndarray) -> float:
    xs = np.arange(values.shape[1], dtype=np.float64)
    xc = xs - xs.mean()
    return float(((values[rows] * xc).sum(axis=1) / (xc**2).sum()).mean())


def orient_components(report: TropeReport) -> TropeReport:
    """Fix the sign of the first two components to a data-driven meaning.

    Component 1 points toward trajectories with the higher mean level
    ("high"); component 2 points toward the higher mean least-squares slope
    ("rising"). Components whose calibration statistic ties are flagged
    undetermined and left as-is. A flipped component swaps its extreme
    lists, which the row tie-break keeps equal to a fresh sort. Orienting
    an already sign-flipped report yields the identical result.
    """
    projections = report.pca.projections.copy()
    components = report.pca.components.copy()
    extremes = list(report.extremes)
    undetermined: set[int] = set()
    values = report.trajectories.values
    calibrations = (_mean_level, _mean_slope)
    for c in range(min(2, projections.shape[1])):
        pos, neg = extremes[c]
        pos_stat = calibrations[c](values, pos)
        neg_stat = calibrations[c](values, neg)
        if pos_stat == neg_stat:
            undetermined.add(c)
            log.warning("component %d orientation is undetermined (tied calibration)", c + 1)
            continue
        if pos_stat < neg_stat:
            projections[:, c] *= -1.0
            components[c] *= -1.0
            extremes[c] = (neg, pos)
    oriented_pca = replace(report.pca, projections=projections, components=components)
    return replace(report, pca=oriented_pca, extremes=extremes, oriented=True, undetermined=undetermined)


_LABELS = {(0, "pos"): "high", (0, "neg"): "low", (1, "pos"): "rising", (1, "neg"): "falling"}


def classify_trajectory(report: TropeReport, candidate: str) -> list[str]:
    """Class labels of a candidate from the oriented extreme lists.

    Membership in a component-1 extreme gives high/low, component 2 gives
    rising/falling; a candidate may carry one label from each. Candidates
    in no extreme list are labeled mixed.
    """
    if not report.oriented:
        raise ValueError("report must be oriented before classification")
    if candidate not in report.trajectories.candidates:
        raise ValueError(f"candidate {candidate!r} is not part of the report")
    labels = []
    for c in range(min(2, len(report.extremes))):
        if c in report.undetermined:
            continue
        for end in ("pos", "neg"):
            if candidate in report.component_members(c, end):
                labels.append(_LABELS[(c, end)])
    return labels if labels else ["mixed"]
