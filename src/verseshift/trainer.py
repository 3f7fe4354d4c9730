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

An epoch holds each of its pairs as one 4-byte uint32 code, the position of
its center among the epoch's kept slot tokens and its context's step from
it, and shuffles the codes in place (:func:`train`).
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import corpus
from .blockfile import BlockReader, replacing
from .corpus import Documents, TimeSlot, TimeSlotTable, Vocabulary
from .linalg import rowwise_cosine

log = logging.getLogger(__name__)

MODEL_MAGIC = b"DLKV"
MODEL_VERSION = 2
PAIR_GROUP = 32  # consecutive pairs of a minibatch that share one negative set
# Longest run of one index that _scatter_add_rows sums position by position.
# numpy's pairwise sum adds fewer than 8 terms left to right, so up to 8 rows
# reduceat's order is the first row plus a left-to-right sum of the rest.
SCATTER_CUTOFF = 8
ROW_BLOCK = 256  # words whose float64 slot vectors an analysis holds at once
CHECK_BYTES = 1 << 20  # bytes of a matrix that load_model reads per finiteness check
MAX_EPOCH_CODES = 2**32  # uint32 pair codes: a run's slot tokens times its 2 * reach pair steps
PROGRESS_MARKS = 20  # train logs its progress at each 5% of an epoch's pairs


class ModelFormatError(Exception):
    """Model file is missing, corrupt, or of an unsupported version."""


class NumericError(Exception):
    """Training produced a non-finite value."""


def max_workers() -> int:
    """Upper bound on training threads: the CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on every platform
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is overflow-safe in both directions
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _log_sigmoid(x: np.ndarray) -> np.ndarray:
    """log(sigmoid(x)) as -(max(-x, 0) + log1p(exp(-|x|))), overflow-safe in both directions.

    The values of ``-np.logaddexp(0, -x)`` to within a few ulps, with ufuncs
    that numpy vectorises. +inf gives 0, -inf gives -inf and NaN stays NaN,
    so the epoch loss still turns non-finite when a score does.
    """
    return -(np.maximum(-x, 0.0) + np.log1p(np.exp(-np.abs(x))))


def _setting(default, text: str, flag: str | None = None, minimum: int | None = None):
    """A TrainConfig field carrying its ``train`` help text, its flag if not its name, and its least value."""
    return field(default=default, metadata={"help": text, "flag": flag, "minimum": minimum})


@dataclass
class TrainConfig:
    """Training settings; the single source of the ``train`` flags, defaults and minima."""

    dim: int = _setting(100, "embedding dimension", minimum=2)
    context_window: int = _setting(5, "tokens each side, never crossing stanza bounds", minimum=1)
    negatives: int = _setting(5, f"negatives per pair, shared by groups of {PAIR_GROUP} pairs", minimum=1)
    epochs: int = _setting(5, "training epochs", minimum=1)
    initial_lr: float = _setting(0.025, "learning rate at the first pair")
    final_lr: float = _setting(1e-4, "learning rate at the last pair")
    subsample_threshold: float = _setting(1e-4, "frequent-word threshold, 0 disables", flag="subsample")
    seed: int = _setting(1, "training seed", minimum=0)
    workers: int = _setting(
        1, "parallel workers, up to the CPUs this process may run on; >1 is nondeterministic", minimum=1
    )
    batch_size: int = _setting(1024, "pairs per SGD step", minimum=1)

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.metadata["minimum"] is not None and getattr(self, f.name) < f.metadata["minimum"]:
                raise ValueError(f"{f.name} must be at least {f.metadata['minimum']}")
        if not (np.inf > self.initial_lr > self.final_lr > 0.0):
            raise ValueError("need finite initial_lr > final_lr > 0")
        if not self.subsample_threshold >= 0.0:  # NaN as well
            raise ValueError("subsample_threshold must be >= 0")
        if self.workers > max_workers():
            raise ValueError(f"workers must be at most the CPUs this process may run on ({max_workers()})")


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
    negative-context gradient; when the groups are full (every full
    minibatch), u is only reshaped, not copied. The loss sums real pairs
    only, in float64. Gradients w.r.t. u apply identically to the base
    matrix and the delta.
    """
    n_pairs, d = u.shape
    n_groups, k, _ = c_neg.shape
    size = -(-n_pairs // n_groups)
    if n_groups * size == n_pairs:
        u_grouped = u.reshape(n_groups, size, d)
    else:
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
    grad_u = g_pos[:, None] * c_pos
    grad_u += (g_neg @ c_neg).reshape(-1, d)[:n_pairs]
    grad_c_pos = g_pos[:, None] * u
    grad_c_neg = g_neg.transpose(0, 2, 1) @ u_grouped  # (G, k, d)
    return float(loss), grad_u, grad_c_pos, grad_c_neg


def _scatter_add_rows(mat: np.ndarray, idx: np.ndarray, rows: np.ndarray, scale: float) -> None:
    """mat[idx] += scale * rows with duplicate indices accumulated in float64.

    The rows of each index are summed in float64 in ``np.argsort(idx)`` order,
    bit for bit as ``np.add.reduceat`` sums them: the first row plus numpy's
    pairwise sum of the others, which below 8 terms is a left-to-right sum.
    Runs of at most SCATTER_CUTOFF rows are sorted longest first, so the runs
    that have a p-th row form a prefix, and are summed one position at a time
    over all runs at once; longer runs go through reduceat itself. The cost is
    per position, not per run (reduceat pays a buffered cast for each run).
    """
    if idx.size == 0:
        return
    order = np.argsort(idx)
    sorted_idx = idx[order]
    boundary = np.empty(sorted_idx.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_idx[1:], sorted_idx[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    lengths = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
    lengths[-1] = idx.size - starts[-1]
    # longest first; runs past the cutoff tie, and int8 keys take numpy's radix sort
    by_length = np.argsort(-np.minimum(lengths, SCATTER_CUTOFF + 1).astype(np.int8), kind="stable")
    starts, lengths = starts[by_length], lengths[by_length]
    sums = np.empty((starts.size, rows.shape[1]))
    n_long = int(np.count_nonzero(lengths > SCATTER_CUTOFF))
    if n_long:
        long = lengths[:n_long]
        local = np.cumsum(long) - long
        positions = np.repeat(starts[:n_long] - local, long) + np.arange(long.sum())
        sums[:n_long] = np.add.reduceat(np.take(rows, order[positions], axis=0), local, axis=0, dtype=np.float64)
    first = starts[n_long:]
    longer = np.searchsorted(-lengths[n_long:], -np.arange(SCATTER_CUTOFF))  # runs with more than p rows
    rest = np.take(rows, order[first[: longer[1]] + 1], axis=0).astype(np.float64)
    for p in range(2, SCATTER_CUTOFF):
        rest[: longer[p]] += np.take(rows, order[first[: longer[p]] + p], axis=0)
    sums[n_long:] = np.take(rows, order[first], axis=0)
    sums[n_long : n_long + longer[1]] += rest
    del rest
    sums *= scale
    sums = sums.astype(mat.dtype)  # the float64 sums are freed before the write-back gathers its rows
    mat[sorted_idx[starts]] += sums


def sgd_step(
    base: np.ndarray,
    deltas_flat: np.ndarray,
    context: np.ndarray,
    n_words: int,
    batch: TrainingBatch,
    lr: float,
) -> float:
    """Apply one minibatch SGD step in place; returns the batch loss.

    ``deltas_flat`` is the (S*V, d) view of the per-slot delta stack. Rows
    are gathered with ``np.take``, about twice as fast as fancy indexing here.
    All gradients are taken at the batch-start parameter values; per-pair
    terms use the stored float32 precision while the per-row sums over the
    batch accumulate in float64, in ``argsort`` order, before the single
    write-back (:func:`_scatter_add_rows`; runs longer than SCATTER_CUTOFF
    rows take the ``np.add.reduceat`` path). Each (B, d) temporary is
    dropped once its last use is past, and the context matrix is updated
    first, so the context rows are gone before grad_u's two scatters; the
    three matrices are disjoint, so the order leaves every value as it is.
    """
    words = batch.words.astype(np.int64)
    flat_delta_idx = batch.slots.astype(np.int64) * n_words + words
    u = np.take(base, words, axis=0)
    u += np.take(deltas_flat, flat_delta_idx, axis=0)
    loss, grad_u, grad_c_pos, grad_c_neg = _batch_terms(
        u, np.take(context, batch.contexts, axis=0), np.take(context, batch.negatives, axis=0)
    )
    del u
    context_idx = np.concatenate([batch.contexts, batch.negatives.ravel()]).astype(np.int64)
    context_rows = np.concatenate([grad_c_pos, grad_c_neg.reshape(-1, context.shape[1])])
    del grad_c_pos, grad_c_neg
    _scatter_add_rows(context, context_idx, context_rows, -lr)
    del context_rows
    _scatter_add_rows(base, words, grad_u, -lr)
    _scatter_add_rows(deltas_flat, flat_delta_idx, grad_u, -lr)
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
        read_rows=None,
    ) -> None:
        if deltas.shape[0] != len(slot_table):
            raise ValueError("need one delta matrix per time slot")
        self.vocab = vocab
        self.slot_table = slot_table
        self.base = base  # (V, d) float32
        self.deltas = deltas  # (S, V, d) float32
        self.context = context  # (V, d) float32
        # read_rows(mat, lo, hi): rows [lo, hi) of one matrix; BlockReader.rows of a loaded model, else a slice
        self._read_rows = read_rows or (lambda mat, lo, hi: mat[lo:hi])
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
        for _, vecs in self.slot_blocks(np.array([self._word_index(word)]), (slot,)):
            return next(vecs)[0]

    def slot_blocks(self, rows: np.ndarray, slots=None):
        """The vectors of ``rows`` in each of ``slots`` (default every slot), ROW_BLOCK rows at a time.

        The one read of the matrices. Yields the offset of each block in
        ``rows`` and an iterator over ``slots`` of the block's float64
        vectors, base plus delta rows, built one slot at a time as it is
        advanced; take it before the next block. Each block reads the rows
        from its least to its greatest index of the base, and of each slot's
        delta, then takes its own rows from them: a loaded model reads them
        from the file (``BlockReader.rows``), so no analysis maps a matrix
        page, and an in-memory model slices its arrays. At worst, a block
        whose rows span the vocabulary reads one whole ``(V, d)`` matrix at
        a time. A caller that takes every slot of a block holds
        len(slots) * ROW_BLOCK * d floats, one that takes one slot at a
        time ROW_BLOCK * d.
        """
        slots = range(self.n_slots) if slots is None else [self._check_slot(t) for t in slots]
        for lo in range(0, rows.size, ROW_BLOCK):
            block = rows[lo : lo + ROW_BLOCK]
            first, end = int(block.min()), int(block.max()) + 1
            local = block - first
            base = self._read_rows(self.base, first, end)[local].astype(np.float64)
            yield lo, self._slot_vectors(base, first, end, local, slots)

    def _slot_vectors(self, base: np.ndarray, first: int, end: int, local: np.ndarray, slots):
        for t in slots:
            yield base + self._read_rows(self.deltas[t], first, end)[local]

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
        query = self.embedding_of(word, slot)
        sims = np.full(len(self.vocab), -np.inf)
        for lo, vecs in self.slot_blocks(np.arange(len(self.vocab)), (slot,)):
            (vec,) = vecs
            block = sims[lo : lo + ROW_BLOCK]
            ok = vec.any(axis=1)  # zero rows have no direction to compare
            block[ok] = rowwise_cosine(vec[ok], query)
        sims[wi] = -np.inf
        order = np.argsort(-sims, kind="stable")
        out = []
        for i in order[:k]:
            if not np.isfinite(sims[i]):
                break
            out.append((self.vocab.words[i], float(sims[i])))
        return out


def _keep_probabilities(vocab: Vocabulary, threshold: float) -> np.ndarray | None:
    if threshold <= 0.0:
        return None
    total = float(vocab.global_counts.sum())
    freq = vocab.global_counts / total
    with np.errstate(divide="ignore"):
        ratio = threshold / freq
    return np.minimum(1.0, np.sqrt(ratio) + ratio)


def _slot_passes(ids: np.ndarray, doc_ids: np.ndarray, member: np.ndarray, keep_prob: np.ndarray | None,
                 seed: int, epoch: int):
    """Each slot's kept (tokens, doc_ids) in one epoch, slot by slot, taken from the corpus columns.

    A slot keeps its documents' in-vocabulary tokens (``ids`` >= 0), narrowing one corpus-length
    mask in place, then those the draws of ``default_rng([seed, 1, epoch])`` keep, made in slot
    order, so that the pair count pass and the training pass keep the same tokens.
    """
    rng = np.random.default_rng([seed, 1, epoch])
    for in_slot in member.T:
        keep = in_slot[doc_ids]
        np.greater_equal(ids, 0, out=keep, where=keep)
        if keep_prob is not None:
            keep[keep] = rng.random(np.count_nonzero(keep)) < keep_prob[ids[keep]]
        yield ids[keep], doc_ids[keep]


def _near_positions(doc_ids: np.ndarray, window: int):
    """The pair rule: for off = 1 .. window, the positions p whose token shares its document with the token at p + off."""
    for off in range(1, window + 1):
        near = np.flatnonzero(doc_ids[off:] == doc_ids[:-off])
        if not near.size:  # a document's tokens are contiguous, so none pairs farther apart either
            return
        yield off, near


def _epoch_count(slots, reach: int) -> tuple[int, int]:
    """An epoch's (pairs, kept slot tokens) from each slot's kept (tokens, doc_ids)."""
    n_pairs = n_tokens = 0
    for _, doc_ids in slots:
        n_pairs += 2 * sum(near.size for _, near in _near_positions(doc_ids, reach))
        n_tokens += doc_ids.size
    return n_pairs, n_tokens


def _epoch_records(slots, n_tokens: int, n_pairs: int, reach: int):
    """An epoch's kept slot tokens, the end of each slot in them, and its N uint32 pair codes.

    ``slots`` yields each slot's kept (tokens, doc_ids); its tokens are
    written into one int32 array one slot at a time. A pair is the code
    ``center * 2 * reach + j`` of its center's position in that array and
    its context's step ``j``: ``center + j + 1`` below ``reach``, else
    ``center - (j - reach + 1)``. The codes are filled slot by slot and
    offset by offset: for the positions p of the pair rule
    (:func:`_near_positions`), the forward half (p, p + off), then the
    backward half (p + off, p).
    """
    span = 2 * reach
    tokens = np.empty(n_tokens, dtype=np.int32)
    codes = np.empty(n_pairs, dtype=np.uint32)
    ends = []
    start = filled = 0
    for slot_tokens, doc_ids in slots:
        tokens[start : start + slot_tokens.size] = slot_tokens
        for off, near in _near_positions(doc_ids, reach):
            near += start
            near *= span
            near += off - 1
            codes[filled : filled + near.size] = near
            near += off * span + reach  # the center moves to p + off, j by reach
            codes[filled + near.size : filled + 2 * near.size] = near
            filled += 2 * near.size
        start += slot_tokens.size
        ends.append(start)
    return tokens, np.array(ends, dtype=np.int32), codes


class _EpochProgress:
    """An epoch's pairs done and loss sum, logged at INFO at each of its PROGRESS_MARKS marks.

    Batches report under a lock, so with several workers the thread whose
    batch crosses a mark logs it; with one, the loss is summed in batch order.
    """

    def __init__(self, epoch: int, n_epochs: int, n_pairs: int) -> None:
        self.epoch, self.n_epochs, self.n_pairs = epoch, n_epochs, n_pairs
        self.done = 0
        self.loss_sum = 0.0
        self.marks = 0
        self.started = time.perf_counter()
        self.lock = threading.Lock()

    def add(self, n_pairs: int, loss: float, lr: float) -> None:
        with self.lock:
            self.done += n_pairs
            self.loss_sum += loss
            marks = self.done * PROGRESS_MARKS // self.n_pairs
            if marks > self.marks:
                self.marks = marks
                rate = self.done / max(time.perf_counter() - self.started, 1e-9)
                log.info(
                    "epoch %d/%d: %d/%d pairs, %.0f pairs/s, lr %.6g, mean loss %.5f",
                    self.epoch + 1, self.n_epochs, self.done, self.n_pairs, rate, lr, self.loss_sum / self.done,
                )


def train(
    docs: Documents,
    vocab: Vocabulary,
    slot_table: TimeSlotTable,
    config: TrainConfig,
) -> JointEmbeddingModel:
    """Train the joint model over the documents of every time slot.

    A document trains in each slot that contains its year, with its
    out-of-vocabulary tokens removed; context windows never cross documents.
    Every (target-in-slot, context) pair within the window contributes a
    negative-sampling step; each group of PAIR_GROUP consecutive pairs shares k
    negatives drawn from the corpus-wide unigram distribution raised to 0.75.
    The learning rate decays linearly over all scheduled pairs. The corpus is
    held as two int32 columns, each token's vocabulary id and document number,
    and each pass takes every slot's kept tokens from them
    (:func:`_slot_passes`). Each epoch writes its kept slot tokens into one
    int32 array and holds each pair as one uint32 code of its center's position
    in that array and its context's step from it, 4 bytes per pair
    (:func:`_epoch_records`). Every epoch's codes span 2 * reach steps, reach
    being the window or, if shorter, the longest slotted stanza less one token;
    a run whose slot tokens, the most an epoch keeps, times that span pass
    MAX_EPOCH_CODES is refused before any slot pass. The codes are shuffled in
    place, which gives ``permutation(N)``'s order from the same draws. A batch
    is a slice of the codes; its words and contexts are the tokens at the
    positions they decode to, its slots the slots whose token range holds each
    center. The matrices are views of model.bin's one ``(S+2, V, d)`` float32
    block (base, the delta of each slot, then context), allocated once the
    pairs are counted; a non-finite value in any of them after an epoch
    raises NumericError naming its slab (:func:`_check_finite`). Progress
    is logged at each 5% of an epoch's pairs. An epoch's batches are dealt
    round-robin into ``workers`` shares: the calling thread runs the first,
    a thread of the run's one pool each other, and a failure or Ctrl-C in
    any share ends them all before their next batch. Single-worker runs start no thread and with
    a fixed seed are fully deterministic; extra workers update the shared
    matrices without locks and trade determinism for speed.
    """
    if len(slot_table) < 2:
        raise ValueError("training needs at least 2 time slots")
    member = corpus.assign_slots(docs.years, slot_table)
    reach = min(config.context_window, int(docs.lengths[member.any(axis=1)].max(initial=1)) - 1)
    forward = np.arange(1, reach + 1)
    steps = np.concatenate((forward, -forward))  # the context's step from its center for each j of a code
    if (n_slot_tokens := int(vocab.slot_counts.sum())) * steps.size > MAX_EPOCH_CODES:  # the most an epoch keeps
        raise ValueError(
            f"an epoch of {n_slot_tokens} slot tokens times {steps.size} pair steps is more than the "
            f"{MAX_EPOCH_CODES} codes its uint32 pairs can hold; train fewer or narrower slots"
        )

    for slot in np.flatnonzero(~vocab.slot_counts.any(axis=1)):
        log.warning("slot %d has no trainable documents; its deltas stay zero", slot)
    ids = np.array([vocab.index.get(t, -1) for t in docs.types], dtype=np.int32)[docs.ids]  # -1 out of vocabulary
    doc_ids = np.repeat(np.arange(len(docs), dtype=np.int32), docs.lengths)
    keep_prob = _keep_probabilities(vocab, config.subsample_threshold)

    weights = vocab.global_counts.astype(np.float64) ** 0.75
    neg_cdf = np.cumsum(weights / weights.sum())
    neg_cdf[-1] = 1.0  # so a draw in [0, 1) always lands below n_words

    # Every epoch's pairs are counted first, so the exact linear
    # learning-rate schedule is known before the first step.
    epoch_counts = [  # (pairs, kept slot tokens) of each epoch
        _epoch_count(_slot_passes(ids, doc_ids, member, keep_prob, config.seed, epoch), reach)
        for epoch in range(config.epochs)
    ]
    total_pairs = sum(n_pairs for n_pairs, _ in epoch_counts)

    n_words, d = len(vocab), config.dim
    mats = np.zeros((len(slot_table) + 2, n_words, d), dtype=np.float32)  # model.bin's matrix block
    mats[0] = np.random.default_rng([config.seed, 0]).uniform(-0.5 / d, 0.5 / d, size=(n_words, d))
    model = JointEmbeddingModel(vocab, slot_table, mats[0], mats[1:-1], mats[-1])
    if total_pairs == 0:
        log.warning("no training pairs were scheduled; returning the initial model")
        return model

    deltas_flat = mats[1:-1].reshape(len(slot_table) * n_words, d)
    lr_span = config.final_lr - config.initial_lr
    pairs_done = 0
    with ThreadPoolExecutor(max_workers=config.workers) as pool:  # the calling thread runs share 0
        for epoch, (n_pairs, n_tokens) in enumerate(epoch_counts):
            rng_epoch = np.random.default_rng([config.seed, 2, epoch])
            tokens, slot_ends, codes = _epoch_records(
                _slot_passes(ids, doc_ids, member, keep_prob, config.seed, epoch), n_tokens, n_pairs, reach
            )
            # pair-level shuffle keeps every slot represented across the whole
            # learning-rate range instead of letting large slots dominate the tail;
            # numpy's 1-D shuffle makes the same swaps from the same draws for any
            # item size, so the codes take permutation(n_pairs)'s order
            rng_epoch.shuffle(codes)
            progress = _EpochProgress(epoch, config.epochs, n_pairs)

            starts = range(0, n_pairs, config.batch_size)
            rngs = [rng_epoch, *rng_epoch.spawn(config.workers - 1)]  # a single worker draws from rng_epoch alone
            stop = threading.Event()  # set once any share fails, so the others end before their next batch

            def run_batches(share: int) -> None:
                for lo in starts[share :: config.workers]:
                    if stop.is_set():
                        return
                    centers, j = np.divmod(codes[lo : lo + config.batch_size], steps.size)
                    n_groups = -(-centers.size // PAIR_GROUP)
                    negs = np.searchsorted(
                        neg_cdf, rngs[share].random((n_groups, config.negatives)), side="right"
                    ).astype(np.int32)
                    lr = config.initial_lr + lr_span * ((pairs_done + lo) / total_pairs)
                    words, contexts = np.take(tokens, centers), np.take(tokens, centers + steps[j])
                    batch = TrainingBatch(words, np.searchsorted(slot_ends, centers, side="right"), contexts, negs)
                    loss = sgd_step(model.base, deltas_flat, model.context, n_words, batch, lr)
                    if not np.isfinite(loss):
                        raise NumericError(f"non-finite loss in epoch {epoch}")
                    progress.add(centers.size, loss, lr)

            try:
                helpers = [pool.submit(run_batches, share) for share in range(1, config.workers)]
                for helper in helpers:
                    helper.add_done_callback(lambda done: done.exception() and stop.set())
                run_batches(0)
                for helper in helpers:
                    helper.result()  # raises a helper's error
            finally:
                stop.set()  # on an error or Ctrl-C, every helper ends before the pool joins it
            del tokens, codes  # before the next epoch builds its own

            pairs_done += n_pairs
            mean_loss = progress.loss_sum / max(1, n_pairs)
            model.epoch_losses.append(mean_loss)
            log.info("epoch %d/%d: %d pairs, mean loss %.5f", epoch + 1, config.epochs, n_pairs, mean_loss)
            _check_finite(enumerate(mats), len(slot_table),
                          lambda name: NumericError(f"non-finite value in {name} after epoch {epoch}"))
    return model


def _check_finite(slabs, n_slots: int, error) -> None:
    """Raise ``error(name)`` for the first slab of a ``(S+2, V, d)`` matrix block holding a non-finite value.

    The block is model.bin's: base, the delta of each slot, then context;
    ``name`` is ``base``, ``slot k delta`` or ``context``. ``slabs`` yields
    ``(i, values)`` pairs in slab order, the values of slab ``i`` whole or
    one part of them at a time, so no temporary is larger than a part.
    """
    for i, values in slabs:
        if not np.isfinite(values).all():
            raise error("base" if i == 0 else "context" if i == n_slots + 1 else f"slot {i - 1} delta")


def save_model(model: JointEmbeddingModel, path) -> None:
    """Write the little-endian binary model file: a header, then one block per column.

    The file is written under a temporary name next to ``path`` and then
    renamed over it (:func:`blockfile.replacing`), so a reader never sees a
    partial file.
    """
    vocab = model.vocab
    raw = [word.encode("utf-8") for word in vocab.words]
    with replacing(path, MODEL_MAGIC, MODEL_VERSION) as fh:
        fh.write(np.array([model.dim, len(vocab), model.n_slots], dtype="<u4"))
        fh.write(np.array([(slot.start, slot.end) for slot in model.slot_table], dtype="<i4"))
        fh.write(np.array([len(r) for r in raw], dtype="<u4"))
        fh.write(np.column_stack((vocab.global_counts, vocab.slot_counts.T)).astype("<u8", order="C"))
        fh.write(b"".join(raw))
        for mat in (model.base, model.deltas, model.context):
            fh.write(np.ascontiguousarray(mat, dtype="<f4"))


def load_model(path) -> JointEmbeddingModel:
    """Map a model file written by :func:`save_model` read-only and view each block in place.

    Every block is viewed, and together they must fill the file exactly,
    before any is decoded or checked, so a damaged size fails as a length
    error and allocates nothing. A corrupt file, one of another version or
    a non-finite matrix value raises ModelFormatError.
    The matrices are read-only views of the mapped file, so loading costs
    no copy. The header pages are released from the process once decoded
    (``BlockReader.release``); the finiteness check and every
    :meth:`JointEmbeddingModel.slot_blocks` read matrix rows from the file
    (``BlockReader.rows``), the check CHECK_BYTES at a time, so neither
    maps a matrix page and a load returns with no matrix resident. A file
    truncated in place after the load makes the next read raise
    ModelFormatError (:func:`save_model` replaces a file instead of
    rewriting it); only indexing the views themselves would fault.
    """
    reader = BlockReader(path, "model file", MODEL_MAGIC, MODEL_VERSION, ModelFormatError)
    d, n_words, n_slots = reader.block("<u4", (3,)).tolist()
    if n_words == 0 or n_slots == 0 or d == 0:
        raise ModelFormatError(f"empty dimensions in model header of {path}")
    years = reader.block("<i4", (n_slots, 2))
    lengths = reader.block("<u4", (n_words,))
    counts = reader.block("<u8", (n_words, n_slots + 1))  # the global count, then one count per slot
    raw = reader.block("u1", (int(lengths.sum(dtype=np.uint64)),))
    header = reader.bytes[: reader.offset]
    mats = reader.block("<f4", (n_slots + 2, n_words, d))  # base, the per-slot deltas, then context
    reader.end()

    words = reader.strings(raw, lengths, "word")
    try:
        table = TimeSlotTable(TimeSlot(start, end) for start, end in years.tolist())
    except ValueError as exc:
        raise ModelFormatError(f"invalid slot years in {path}: {exc}") from exc
    if (counts >= np.uint64(1 << 63)).any():
        raise ModelFormatError(f"word count beyond the int64 range in {path}")
    counts = counts.T.astype(np.int64, order="C")  # (S+1, V): the global counts, then one row per slot
    index = {w: i for i, w in enumerate(words)}
    if len(index) != n_words:
        raise ModelFormatError(f"repeated word in {path}")
    vocab = Vocabulary(words, index, counts[0], counts[1:], slot_total_tokens=counts[1:].sum(axis=1))
    reader.release(header)  # copied out by now
    step = max(1, CHECK_BYTES // (4 * d))  # rows per read
    chunks = ((i, reader.rows(mat, lo, min(lo + step, n_words)))
              for i, mat in enumerate(mats) for lo in range(0, n_words, step))
    _check_finite(chunks, n_slots, lambda name: ModelFormatError(f"non-finite value in the {name} matrix of {path}"))
    return JointEmbeddingModel(vocab, table, mats[0], mats[1:-1], mats[-1], reader.rows)
