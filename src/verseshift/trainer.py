"""Joint skip-gram training: one shared base vector per word plus per-slot deltas.

A word's vector in slot t is base[word] + delta[t, word]. The two matrices
receive identical gradient updates for every training pair, so words that
never occur in a slot keep an exactly zero delta there and fall back to the
shared base representation.

Negative sampling follows word2vec (unigram counts to the 0.75), except
that each group of PAIR_GROUP consecutive pairs in a minibatch shares one
set of k negatives, as in Ji et al. (arXiv:1604.04661). Every pair still
scores k independent draws, so the expected per-pair objective is
unchanged; only pairs within a group are correlated. Sharing turns the
scores and gradients into small matrix products and cuts the sampled
context rows to update by the group size.
"""

from __future__ import annotations

import logging
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .corpus import TimeSlot, TimeSlotTable, Vocabulary
from .linalg import rowwise_cosine

log = logging.getLogger(__name__)

MODEL_MAGIC = b"DLKV"
MODEL_VERSION = 1
PAIR_GROUP = 32  # consecutive pairs of a minibatch that share one negative set


class ModelFormatError(Exception):
    """Model file is missing, corrupt, or of an unsupported version."""


class NumericError(Exception):
    """Training produced a non-finite value."""


def max_workers() -> int:
    """Upper bound on training threads: the machine's CPU count."""
    return os.cpu_count() or 1


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe in both directions
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def _setting(default, text: str, flag: str | None = None):
    """A TrainConfig field carrying its ``train`` help text and, if not its name, its flag."""
    return field(default=default, metadata={"help": text, "flag": flag})


@dataclass
class TrainConfig:
    """Training settings; the single source of the ``train`` flags and defaults."""

    dim: int = _setting(100, "embedding dimension")
    context_window: int = _setting(5, "tokens each side, never crossing stanza bounds")
    negatives: int = _setting(5, f"negatives per pair, shared by groups of {PAIR_GROUP} pairs")
    epochs: int = _setting(5, "training epochs")
    initial_lr: float = _setting(0.025, "learning rate at the first pair")
    final_lr: float = _setting(1e-4, "learning rate at the last pair")
    subsample_threshold: float = _setting(1e-4, "frequent-word threshold, 0 disables", flag="subsample")
    seed: int = _setting(1, "training seed")
    workers: int = _setting(1, "parallel workers, 1 to the CPU count; >1 is nondeterministic")
    batch_size: int = _setting(1024, "pairs per SGD step")

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.context_window < 1:
            raise ValueError("context_window must be at least 1")
        if self.negatives < 1:
            raise ValueError("negatives must be at least 1")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if not (self.initial_lr > self.final_lr > 0.0):
            raise ValueError("need initial_lr > final_lr > 0")
        if self.subsample_threshold < 0.0:
            raise ValueError("subsample_threshold must be >= 0")
        if not (1 <= self.workers <= max_workers()):
            raise ValueError(f"workers must be between 1 and the CPU count ({max_workers()})")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class TrainingBatch:
    """Index view of a block of (target, context) pairs with drawn negatives."""

    words: np.ndarray  # (B,) target word indices
    slots: np.ndarray  # (B,) slot index of each target
    contexts: np.ndarray  # (B,) positive context indices
    negatives: np.ndarray  # (G, k) one negative set per group of ceil(B/G) pairs


def _batch_terms(u: np.ndarray, c_pos: np.ndarray, c_neg: np.ndarray):
    """Loss and raw gradients for a batch at fixed parameters, in u's dtype.

    u and c_pos are (B, d): the summed target vector and the positive
    context of each pair. c_neg is (G, k, d): the B pairs fall into G
    contiguous groups of ceil(B/G) and every pair in a group scores the same
    k negatives, so scores and gradients are stacked matrix products. The
    last group is padded with zero rows of u, which add nothing to the
    negative-context gradient; the loss sums real pairs only, in float64.
    Gradients w.r.t. u apply identically to the base matrix and the delta.
    """
    n_pairs, d = u.shape
    n_groups, k, _ = c_neg.shape
    size = -(-n_pairs // n_groups)
    u_grouped = np.zeros((n_groups * size, d), dtype=u.dtype)
    u_grouped[:n_pairs] = u
    u_grouped = u_grouped.reshape(n_groups, size, d)
    s_pos = np.einsum("bd,bd->b", u, c_pos)
    s_neg = u_grouped @ c_neg.transpose(0, 2, 1)  # (G, size, k)
    g_pos = _sigmoid(s_pos) - 1.0
    g_neg = _sigmoid(s_neg)
    loss = -(
        _log_sigmoid(s_pos.astype(np.float64)).sum()
        + _log_sigmoid(-s_neg.reshape(-1, k)[:n_pairs].astype(np.float64)).sum()
    )
    grad_u = g_pos[:, None] * c_pos + (g_neg @ c_neg).reshape(-1, d)[:n_pairs]
    grad_c_pos = g_pos[:, None] * u
    grad_c_neg = g_neg.transpose(0, 2, 1) @ u_grouped  # (G, k, d)
    return float(loss), grad_u, grad_c_pos, grad_c_neg


def _gather_u(base: np.ndarray, deltas: np.ndarray, batch: TrainingBatch) -> np.ndarray:
    return base[batch.words].astype(np.float64) + deltas[batch.slots, batch.words].astype(np.float64)


def batch_loss(base: np.ndarray, deltas: np.ndarray, context: np.ndarray, batch: TrainingBatch) -> float:
    """Summed negative-sampling loss of a pair batch at fixed parameters."""
    u = _gather_u(base, deltas, batch)
    c_pos = context[batch.contexts].astype(np.float64)
    c_neg = context[batch.negatives].astype(np.float64)
    return _batch_terms(u, c_pos, c_neg)[0]


def batch_gradients(
    base: np.ndarray, deltas: np.ndarray, context: np.ndarray, batch: TrainingBatch
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Dense parameter gradients of :func:`batch_loss`; intended for small shapes."""
    u = _gather_u(base, deltas, batch)
    c_pos = context[batch.contexts].astype(np.float64)
    c_neg = context[batch.negatives].astype(np.float64)
    loss, grad_u, grad_c_pos, grad_c_neg = _batch_terms(u, c_pos, c_neg)
    g_base = np.zeros(base.shape, dtype=np.float64)
    g_deltas = np.zeros(deltas.shape, dtype=np.float64)
    g_context = np.zeros(context.shape, dtype=np.float64)
    np.add.at(g_base, batch.words, grad_u)
    np.add.at(g_deltas, (batch.slots, batch.words), grad_u)
    np.add.at(g_context, batch.contexts, grad_c_pos)
    d = context.shape[1]
    np.add.at(g_context, batch.negatives.ravel(), grad_c_neg.reshape(-1, d))
    return loss, g_base, g_deltas, g_context


def _scatter_add_rows(mat: np.ndarray, idx: np.ndarray, rows: np.ndarray, scale: float) -> None:
    """mat[idx] += scale * rows with duplicate indices accumulated in float64."""
    if idx.size == 0:
        return
    order = np.argsort(idx)
    sorted_idx = idx[order]
    boundary = np.empty(sorted_idx.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    sums = np.add.reduceat(rows[order], starts, axis=0, dtype=np.float64)
    sums *= scale
    mat[sorted_idx[starts]] += sums.astype(mat.dtype)


def sgd_step(
    base: np.ndarray,
    deltas_flat: np.ndarray,
    context: np.ndarray,
    n_words: int,
    batch: TrainingBatch,
    lr: float,
) -> float:
    """Apply one minibatch SGD step in place; returns the batch loss.

    ``deltas_flat`` is the (S*V, d) view of the per-slot delta stack. All
    gradients are taken at the batch-start parameter values; per-pair terms
    use the stored float32 precision while the per-row sums over the batch
    accumulate in float64 before the single write-back.
    """
    words = batch.words.astype(np.int64)
    flat_delta_idx = batch.slots.astype(np.int64) * n_words + words
    u = base[words] + deltas_flat[flat_delta_idx]
    loss, grad_u, grad_c_pos, grad_c_neg = _batch_terms(
        u, context[batch.contexts], context[batch.negatives]
    )
    _scatter_add_rows(base, words, grad_u, -lr)
    _scatter_add_rows(deltas_flat, flat_delta_idx, grad_u, -lr)
    context_idx = np.concatenate([batch.contexts, batch.negatives.ravel()]).astype(np.int64)
    context_rows = np.concatenate([grad_c_pos, grad_c_neg.reshape(-1, context.shape[1])])
    _scatter_add_rows(context, context_idx, context_rows, -lr)
    return loss


class JointEmbeddingModel:
    """Trained vocabulary embeddings conditioned on time slots."""

    def __init__(
        self,
        vocab: Vocabulary,
        slot_table: TimeSlotTable,
        base: np.ndarray,
        deltas: np.ndarray,
        context: np.ndarray,
    ) -> None:
        if deltas.shape[0] != len(slot_table):
            raise ValueError("need one delta matrix per time slot")
        self.vocab = vocab
        self.slot_table = slot_table
        self.base = base  # (V, d) float32
        self.deltas = deltas  # (S, V, d) float32
        self.context = context  # (V, d) float32
        self.epoch_losses: list[float] = []

    @property
    def dim(self) -> int:
        return int(self.base.shape[1])

    @property
    def n_slots(self) -> int:
        return len(self.slot_table)

    def _word_index(self, word: str) -> int:
        try:
            return self.vocab.index[word]
        except KeyError:
            raise ValueError(f"word {word!r} is not in the vocabulary") from None

    def _check_slot(self, slot: int) -> int:
        if not (0 <= slot < self.n_slots):
            raise ValueError(f"slot {slot} out of range [0, {self.n_slots})")
        return slot

    def embedding_of(self, word: str, slot: int) -> np.ndarray:
        """The word's vector in a slot: shared base row plus the slot delta row."""
        wi = self._word_index(word)
        self._check_slot(slot)
        return self.base[wi].astype(np.float64) + self.deltas[slot, wi].astype(np.float64)

    def slot_vectors(self, slot: int, rows: np.ndarray | None = None) -> np.ndarray:
        """Float64 matrix of per-slot vectors, optionally restricted to ``rows``."""
        self._check_slot(slot)
        if rows is None:
            return self.base.astype(np.float64) + self.deltas[slot].astype(np.float64)
        return self.base[rows].astype(np.float64) + self.deltas[slot][rows].astype(np.float64)

    def nearest_neighbors(self, word: str, slot: int, k: int) -> list[tuple[str, float]]:
        """Top-k vocabulary words by cosine against the query word in a slot.

        The query itself is excluded and zero vectors are skipped; cosine
        ties break by vocabulary index. Asking for more neighbors than exist
        truncates the list. A zero query vector raises ValueError.
        """
        wi = self._word_index(word)
        self._check_slot(slot)
        if k <= 0:
            return []
        vectors = self.slot_vectors(slot)
        sims = np.full(len(vectors), -np.inf)
        ok = vectors.any(axis=1)  # zero rows have no direction to compare
        sims[ok] = rowwise_cosine(vectors[ok], vectors[wi])
        sims[wi] = -np.inf
        order = np.lexsort((np.arange(sims.size), -sims))
        out = []
        for i in order[:k]:
            if not np.isfinite(sims[i]):
                break
            out.append((self.vocab.words[i], float(sims[i])))
        return out


def _encode_documents(
    docs_by_slot: list[list[list[str]]], vocab: Vocabulary
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per slot: concatenated in-vocabulary token ids and their document ids."""
    encoded = []
    for slot, docs in enumerate(docs_by_slot):
        tokens: list[int] = []
        doc_ids: list[int] = []
        n_docs = 0
        for doc in docs:
            ids = [vocab.index[t] for t in doc if t in vocab.index]
            if not ids:
                continue
            tokens.extend(ids)
            doc_ids.extend([n_docs] * len(ids))
            n_docs += 1
        if n_docs == 0:
            log.warning("slot %d has no trainable documents; its deltas stay zero", slot)
        encoded.append((np.array(tokens, dtype=np.int32), np.array(doc_ids, dtype=np.int32)))
    return encoded


def _keep_probabilities(vocab: Vocabulary, threshold: float) -> np.ndarray | None:
    if threshold <= 0.0:
        return None
    total = float(vocab.global_counts.sum())
    freq = vocab.global_counts / total
    with np.errstate(divide="ignore"):
        ratio = threshold / freq
    return np.minimum(1.0, np.sqrt(ratio) + ratio)


def _pair_count(lengths: np.ndarray, window: int) -> int:
    total = 0
    for off in range(1, window + 1):
        total += 2 * int(np.maximum(lengths - off, 0).sum())
    return total


def _slot_pairs(tokens: np.ndarray, doc_ids: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered (center, context) pairs within the window, per document."""
    centers = []
    contexts = []
    for off in range(1, window + 1):
        if off >= tokens.size:
            break
        same_doc = doc_ids[off:] == doc_ids[:-off]
        a = tokens[:-off][same_doc]
        b = tokens[off:][same_doc]
        centers.append(a)
        contexts.append(b)
        centers.append(b)
        contexts.append(a)
    if not centers:
        return np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int32)
    return np.concatenate(centers), np.concatenate(contexts)


def train(
    docs_by_slot: list[list[list[str]]],
    vocab: Vocabulary,
    slot_table: TimeSlotTable,
    config: TrainConfig,
) -> JointEmbeddingModel:
    """Train the joint model over per-slot token documents.

    Every (target-in-slot, context) pair within the window contributes a
    negative-sampling step; each group of PAIR_GROUP consecutive pairs
    shares k negatives drawn from the corpus-wide unigram distribution
    raised to 0.75. The learning rate decays linearly over all scheduled
    pairs. Single-worker runs with a fixed seed are fully
    deterministic; extra workers update the shared matrices without locks
    and trade determinism for speed.
    """
    if len(docs_by_slot) != len(slot_table):
        raise ValueError("docs_by_slot must have one entry per time slot")
    if len(slot_table) < 2:
        raise ValueError("training needs at least 2 time slots")
    n_words = len(vocab)
    d = config.dim

    rng_init = np.random.default_rng([config.seed, 0])
    base = rng_init.uniform(-0.5 / d, 0.5 / d, size=(n_words, d)).astype(np.float32)
    deltas = np.zeros((len(slot_table), n_words, d), dtype=np.float32)
    context = np.zeros((n_words, d), dtype=np.float32)
    model = JointEmbeddingModel(vocab, slot_table, base, deltas, context)

    encoded = _encode_documents(docs_by_slot, vocab)
    keep_prob = _keep_probabilities(vocab, config.subsample_threshold)

    weights = vocab.global_counts.astype(np.float64) ** 0.75
    neg_cdf = np.cumsum(weights / weights.sum())

    # Per-epoch subsampling masks are drawn up front so the total pair count
    # (and with it the exact linear learning-rate schedule) is known.
    masks: list[list[np.ndarray | None]] = []
    epoch_pair_counts: list[int] = []
    for epoch in range(config.epochs):
        rng_mask = np.random.default_rng([config.seed, 1, epoch])
        slot_masks: list[np.ndarray | None] = []
        count = 0
        for tokens, doc_ids in encoded:
            if keep_prob is None:
                slot_masks.append(None)
                kept_doc_ids = doc_ids
            else:
                mask = rng_mask.random(tokens.size) < keep_prob[tokens]
                slot_masks.append(mask)
                kept_doc_ids = doc_ids[mask]
            if kept_doc_ids.size:
                lengths = np.bincount(kept_doc_ids)
                count += _pair_count(lengths, config.context_window)
        masks.append(slot_masks)
        epoch_pair_counts.append(count)
    total_pairs = sum(epoch_pair_counts)
    if total_pairs == 0:
        log.warning("no training pairs were scheduled; returning the initial model")
        return model

    deltas_flat = deltas.reshape(len(slot_table) * n_words, d)
    lr_span = config.final_lr - config.initial_lr
    pairs_done = 0
    for epoch in range(config.epochs):
        rng_epoch = np.random.default_rng([config.seed, 2, epoch])
        parts_w, parts_c, parts_s = [], [], []
        for slot, (tokens, doc_ids) in enumerate(encoded):
            mask = masks[epoch][slot]
            if mask is not None:
                tokens = tokens[mask]
                doc_ids = doc_ids[mask]
            w, c = _slot_pairs(tokens, doc_ids, config.context_window)
            parts_w.append(w)
            parts_c.append(c)
            parts_s.append(np.full(w.size, slot, dtype=np.int32))
        all_w = np.concatenate(parts_w)
        all_c = np.concatenate(parts_c)
        all_s = np.concatenate(parts_s)
        # pair-level shuffle keeps every slot represented across the whole
        # learning-rate range instead of letting large slots dominate the tail
        perm = rng_epoch.permutation(all_w.size)
        all_w = all_w[perm]
        all_c = all_c[perm]
        all_s = all_s[perm]

        bounds = list(range(0, all_w.size, config.batch_size)) + [all_w.size]
        batch_jobs = []
        offset = pairs_done
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            lr = config.initial_lr + lr_span * (offset / total_pairs)
            batch_jobs.append((lo, hi, lr))
            offset = offset + (hi - lo)

        def run_batches(jobs, rng) -> float:
            loss_sum = 0.0
            for lo, hi, lr in jobs:
                n_groups = -(-(hi - lo) // PAIR_GROUP)
                negs = np.searchsorted(
                    neg_cdf, rng.random((n_groups, config.negatives)), side="right"
                ).astype(np.int32)
                np.clip(negs, 0, n_words - 1, out=negs)
                batch = TrainingBatch(all_w[lo:hi], all_s[lo:hi], all_c[lo:hi], negs)
                loss = sgd_step(base, deltas_flat, context, n_words, batch, lr)
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss in epoch {epoch}")
                loss_sum += loss
            return loss_sum

        if config.workers == 1:
            epoch_loss = run_batches(batch_jobs, rng_epoch)
        else:
            chunks = [batch_jobs[i :: config.workers] for i in range(config.workers)]
            rngs = rng_epoch.spawn(config.workers)
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                epoch_loss = sum(pool.map(run_batches, chunks, rngs))

        pairs_done += epoch_pair_counts[epoch]
        mean_loss = epoch_loss / max(1, epoch_pair_counts[epoch])
        model.epoch_losses.append(mean_loss)
        log.info(
            "epoch %d/%d: %d pairs, mean loss %.5f",
            epoch + 1,
            config.epochs,
            epoch_pair_counts[epoch],
            mean_loss,
        )
        for name, mat in (("base", base), ("deltas", deltas), ("context", context)):
            if not np.isfinite(mat).all():
                raise NumericError(f"non-finite values in {name} after epoch {epoch}")
    return model


def save_model(model: JointEmbeddingModel, path) -> None:
    """Write the little-endian binary model file."""
    vocab = model.vocab
    n_slots = model.n_slots
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<IIII", MODEL_VERSION, model.dim, len(vocab), n_slots))
        for slot in model.slot_table:
            fh.write(struct.pack("<ii", slot.start, slot.end))
        for i, word in enumerate(vocab.words):
            raw = word.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<Q", int(vocab.global_counts[i])))
            fh.write(vocab.slot_counts[:, i].astype("<u8").tobytes())
        fh.write(np.ascontiguousarray(model.base, dtype="<f4").tobytes())
        for t in range(n_slots):
            fh.write(np.ascontiguousarray(model.deltas[t], dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(model.context, dtype="<f4").tobytes())


class _Reader:
    def __init__(self, data: bytes, path) -> None:
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ModelFormatError(f"truncated model file {self.path}")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out


def load_model(path) -> JointEmbeddingModel:
    """Read a model file written by :func:`save_model`.

    Header sizes are checked against the file length before any array is
    allocated, so a corrupt header fails as ModelFormatError.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    r = _Reader(data, path)
    if r.take(4) != MODEL_MAGIC:
        raise ModelFormatError(f"{path} is not a model file (bad magic)")
    version, d, n_words, n_slots = struct.unpack("<IIII", r.take(16))
    if version != MODEL_VERSION:
        raise ModelFormatError(f"unsupported model version {version} in {path}")
    if n_words == 0 or n_slots == 0 or d == 0:
        raise ModelFormatError(f"empty dimensions in model header of {path}")
    payload = 4 * d * n_words * (n_slots + 2)
    # slot years, per-word fixed fields (empty words), then the f32 matrices
    if len(data) < 20 + 8 * n_slots + n_words * (12 + 8 * n_slots) + payload:
        raise ModelFormatError(f"truncated model file {path}: header sizes exceed its length")
    slots = []
    for _ in range(n_slots):
        start, end = struct.unpack("<ii", r.take(8))
        slots.append(TimeSlot(start, end, f"{start}-{end}"))
    starts = [s.start for s in slots]
    widths = [s.end - s.start for s in slots]
    step = min(np.diff(starts)) if len(starts) > 1 else widths[0]
    try:
        table = TimeSlotTable(slots=tuple(slots), window_years=min(widths), step_years=int(step))
    except ValueError as exc:
        raise ModelFormatError(f"invalid slot years in {path}: {exc}") from exc

    words = []
    # per word: the global count, then one count per slot
    counts = np.empty((n_words, n_slots + 1), dtype="<u8")
    for i in range(n_words):
        (wlen,) = struct.unpack("<I", r.take(4))
        try:
            words.append(r.take(wlen).decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"word {i} in {path} is not valid UTF-8") from exc
        counts[i] = np.frombuffer(r.take(8 * (n_slots + 1)), dtype="<u8")
    if (counts >= np.uint64(1 << 63)).any():
        raise ModelFormatError(f"word count beyond the int64 range in {path}")
    counts = counts.astype(np.int64)
    global_counts = np.ascontiguousarray(counts[:, 0])
    slot_counts = np.ascontiguousarray(counts[:, 1:].T)
    vocab = Vocabulary(
        words=words,
        index={w: i for i, w in enumerate(words)},
        global_counts=global_counts,
        slot_counts=slot_counts,
        slot_total_tokens=slot_counts.sum(axis=1),
    )

    if len(data) - r.pos < payload:
        raise ModelFormatError(f"truncated model file {path}")
    if len(data) - r.pos > payload:
        raise ModelFormatError(f"trailing bytes after model payload in {path}")
    # one float32 block: base, the per-slot deltas, then context
    mats = np.frombuffer(data, dtype="<f4", offset=r.pos).reshape(n_slots + 2, n_words, d)
    mats = mats.astype(np.float32)
    return JointEmbeddingModel(vocab, table, mats[0], mats[1:-1], mats[-1])
