"""Independent reference computations used to check the library numerics.

Nothing here may call into verseshift.linalg: the eigenvalue oracle bisects
the eigenvalue-counting function of the shifted matrix (negative pivots of
an LDL^T elimination, Sylvester's law of inertia). It handles repeated
roots and calls no numpy.linalg routine, so it is independent of the
``eigh``-based PCA under test. The corpus oracles are the per-token Python
routing, counting and encoding that the columnar corpus replaced, and the
per-character tokenizer and first-line key that the ingest memo tables
replaced. The step oracle is the training step with fancy-index gathers, a
padded copy of every group and the ``logaddexp`` loss. The loss and
gradient oracles gather a batch in float64 and scatter its gradients into
dense matrices with ``np.add.at``, through the package's ``_batch_terms``,
for the finite-difference and criterion-1 checks. The training oracle
is the single-worker loop that drew every epoch's subsampling masks up
front over slot tokens from the routing and encoding oracles, and
shuffled concatenated per-slot (word, context) token arrays, built and
counted by the pair oracle, by permuted copies.
The analysis oracles build every float64 slot vector of the measured words
at once, as the analyses did before they worked in row blocks, with the
cosine written out in the kernel's own operations.
"""

from __future__ import annotations

import unicodedata
from collections import Counter
from types import SimpleNamespace

import numpy as np

from verseshift.trainer import _batch_terms


def count_eigenvalues_below(matrix: np.ndarray, x: float) -> int:
    """Eigenvalues of a symmetric matrix strictly below x, by pivot signs."""
    a = np.array(matrix, dtype=np.float64)
    p = a.shape[0]
    a[np.diag_indices(p)] -= x
    negatives = 0
    for j in range(p):
        pivot = a[j, j]
        if pivot == 0.0:
            pivot = -1e-300  # x coincides with an eigenvalue; nudge past it
        if pivot < 0.0:
            negatives += 1
        if j + 1 < p:
            col = a[j + 1 :, j] / pivot
            a[j + 1 :, j + 1 :] -= np.outer(col, a[j, j + 1 :])
            a[j + 1 :, j] = 0.0
    return negatives


def eigenvalues_by_bisection(matrix: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, descending, by pure bisection."""
    a = np.asarray(matrix, dtype=np.float64)
    p = a.shape[0]
    radius = float(np.abs(a).sum(axis=1).max()) + 1.0  # Gershgorin bound
    eigs = []
    for i in range(p):  # i-th smallest
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_eigenvalues_below(a, mid) >= i + 1:
                hi = mid
            else:
                lo = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(eigs)[::-1]


def ols_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(slope, intercept, r_squared) via numpy polyfit, as a second opinion."""
    slope, intercept = np.polyfit(np.asarray(x, float), np.asarray(y, float), 1)
    y = np.asarray(y, float)
    pred = slope * np.asarray(x, float) + intercept
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        return float(slope), float(intercept), 0.0
    return float(slope), float(intercept), 1.0 - float(((y - pred) ** 2).sum()) / sst


def scatter_add_rows_reduceat(mat: np.ndarray, idx: np.ndarray, rows: np.ndarray, scale: float) -> None:
    """mat[idx] += scale * rows, each index's rows summed by one float64 np.add.reduceat.

    The training scatter as it was before it summed runs position by
    position; the float64 additions it makes define the exact result.
    """
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


def log_sigmoid_logaddexp(x: np.ndarray) -> np.ndarray:
    return -np.logaddexp(0.0, -x)


def batch_terms_padded(u: np.ndarray, c_pos: np.ndarray, c_neg: np.ndarray):
    """Loss and raw gradients of a pair batch, with u always copied into zero-padded groups."""
    n_pairs, d = u.shape
    n_groups, k, _ = c_neg.shape
    size = -(-n_pairs // n_groups)
    u_grouped = np.zeros((n_groups * size, d), dtype=u.dtype)
    u_grouped[:n_pairs] = u
    u_grouped = u_grouped.reshape(n_groups, size, d)
    s_pos = np.einsum("bd,bd->b", u, c_pos)
    s_neg = u_grouped @ c_neg.transpose(0, 2, 1)
    g_pos = 0.5 * (np.tanh(0.5 * s_pos) + 1.0) - 1.0
    g_neg = 0.5 * (np.tanh(0.5 * s_neg) + 1.0)
    loss = -(
        log_sigmoid_logaddexp(s_pos.astype(np.float64)).sum()
        + log_sigmoid_logaddexp(-s_neg.reshape(-1, k)[:n_pairs].astype(np.float64)).sum()
    )
    grad_u = g_pos[:, None] * c_pos + (g_neg @ c_neg).reshape(-1, d)[:n_pairs]
    grad_c_pos = g_pos[:, None] * u
    grad_c_neg = g_neg.transpose(0, 2, 1) @ u_grouped
    return float(loss), grad_u, grad_c_pos, grad_c_neg


def sgd_step_reference(base, deltas_flat, context, n_words: int, batch, lr: float) -> float:
    """One training step with fancy-index gathers and one reduceat per scatter; returns the loss."""
    words = batch.words.astype(np.int64)
    flat_delta_idx = batch.slots.astype(np.int64) * n_words + words
    u = base[words] + deltas_flat[flat_delta_idx]
    loss, grad_u, grad_c_pos, grad_c_neg = batch_terms_padded(u, context[batch.contexts], context[batch.negatives])
    scatter_add_rows_reduceat(base, words, grad_u, -lr)
    scatter_add_rows_reduceat(deltas_flat, flat_delta_idx, grad_u, -lr)
    context_idx = np.concatenate([batch.contexts, batch.negatives.ravel()]).astype(np.int64)
    context_rows = np.concatenate([grad_c_pos, grad_c_neg.reshape(-1, context.shape[1])])
    scatter_add_rows_reduceat(context, context_idx, context_rows, -lr)
    return loss


def _gather_u(base: np.ndarray, deltas: np.ndarray, batch) -> np.ndarray:
    return base[batch.words].astype(np.float64) + deltas[batch.slots, batch.words].astype(np.float64)


def batch_loss(base: np.ndarray, deltas: np.ndarray, context: np.ndarray, batch) -> float:
    """Summed negative-sampling loss of a pair batch at fixed parameters, in float64."""
    u = _gather_u(base, deltas, batch)
    return _batch_terms(u, context[batch.contexts].astype(np.float64), context[batch.negatives].astype(np.float64))[0]


def batch_gradients(base: np.ndarray, deltas: np.ndarray, context: np.ndarray, batch):
    """Loss and dense float64 parameter gradients of :func:`batch_loss`; for small shapes."""
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
    np.add.at(g_context, batch.negatives.ravel(), grad_c_neg.reshape(-1, context.shape[1]))
    return loss, g_base, g_deltas, g_context


def _is_punct(c: str) -> bool:
    return unicodedata.category(c).startswith("P")


def tokenize_line(line: str) -> list[str]:
    """Pieces between whitespace and C0 or DEL controls, edge punctuation stripped character by character,
    lowercased; empty ones dropped."""
    out = []
    for piece in "".join(" " if c < " " or c == "\x7f" else c for c in line).split():
        start, end = 0, len(piece)
        while start < end and _is_punct(piece[start]):
            start += 1
        while end > start and _is_punct(piece[end - 1]):
            end -= 1
        tok = piece[start:end].lower()
        if tok:
            out.append(tok)
    return out


def first_line_key(line: str) -> str:
    """The casefolded line without punctuation characters, runs of whitespace, C0 controls and DEL collapsed."""
    cleaned = "".join(" " if c < " " or c == "\x7f" else c for c in line.casefold() if not _is_punct(c))
    return " ".join(cleaned.split())


def route_documents(token_lists: list[list[str]], years: list[int], table) -> tuple[list[list[list[str]]], list[list[str]]]:
    """Per slot, the token lists of the documents whose year it contains; and the in-range documents.

    The per-stanza routing of ``slots_for_year`` that slot assignment did
    before the corpus was columnar.
    """
    per_slot: list[list[list[str]]] = [[] for _ in table]
    in_range = []
    for tokens, year in zip(token_lists, years):
        hits = table.slots_for_year(year)
        if hits:
            in_range.append(tokens)
        for i in hits:
            per_slot[i].append(tokens)
    return per_slot, in_range


def build_vocab_counter(per_slot: list[list[list[str]]], in_range: list[list[str]], min_count: int):
    """Words, index and counts as the Counter-based vocabulary builder made them; None when no word is kept."""
    global_counter: Counter = Counter()
    for tokens in in_range:
        global_counter.update(tokens)
    slot_counters = []
    slot_totals = []
    for docs in per_slot:
        counter: Counter = Counter()
        total = 0
        for tokens in docs:
            counter.update(tokens)
            total += len(tokens)
        slot_counters.append(counter)
        slot_totals.append(total)
    words = [w for w, c in global_counter.items() if c >= min_count]
    if not words:
        return None
    words.sort(key=lambda w: (-global_counter[w], w))
    index = {w: i for i, w in enumerate(words)}
    slot_counts = np.zeros((len(slot_counters), len(words)), dtype=np.int64)
    for s, counter in enumerate(slot_counters):
        for w, c in counter.items():
            i = index.get(w)
            if i is not None:
                slot_counts[s, i] = c
    return SimpleNamespace(
        words=words,
        index=index,
        global_counts=np.array([global_counter[w] for w in words], dtype=np.int64),
        slot_counts=slot_counts,
        slot_total_tokens=np.array(slot_totals, dtype=np.int64),
    )


def encode_documents(per_slot: list[list[list[str]]], index: dict[str, int]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per slot: concatenated in-vocabulary token ids and contiguous numbers of the documents that keep any."""
    encoded = []
    for docs in per_slot:
        tokens: list[int] = []
        doc_ids: list[int] = []
        n_docs = 0
        for doc in docs:
            ids = [index[t] for t in doc if t in index]
            if not ids:
                continue
            tokens.extend(ids)
            doc_ids.extend([n_docs] * len(ids))
            n_docs += 1
        encoded.append((np.array(tokens, dtype=np.int32), np.array(doc_ids, dtype=np.int32)))
    return encoded


def slot_pairs(tokens: np.ndarray, doc_ids: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray]:
    """All ordered (center, context) pairs within the window, per document."""
    centers = []
    contexts = []
    longest = int(np.bincount(doc_ids).max(initial=0))
    for off in range(1, window + 1):
        if off >= longest:  # no document has a pair this far apart
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


def slot_encoding(docs, vocab, slot_table) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per slot, the in-vocabulary token ids and document numbers of a columnar corpus, by the routing and encoding oracles."""
    token_lists = [[docs.types[i] for i in docs.ids[a:b]] for a, b in zip(docs.offsets[:-1], docs.offsets[1:])]
    per_slot, _ = route_documents(token_lists, docs.years.tolist(), slot_table)
    return encode_documents(per_slot, vocab.index)


def train_reference(docs, vocab, slot_table, config):
    """Single-worker training with masks drawn up front and permuted copies of the epoch's pairs.

    The slot tokens come from :func:`slot_encoding` and the pairs and their
    count from :func:`slot_pairs`; the step, the keep probabilities and the
    model class are the package's. So it pins the slot tokens, the pairs,
    the order of the random draws, the batches and the learning rates.
    """
    from verseshift import trainer

    n_words, d = len(vocab), config.dim
    rng_init = np.random.default_rng([config.seed, 0])
    base = rng_init.uniform(-0.5 / d, 0.5 / d, size=(n_words, d)).astype(np.float32)
    deltas = np.zeros((len(slot_table), n_words, d), dtype=np.float32)
    context = np.zeros((n_words, d), dtype=np.float32)
    model = trainer.JointEmbeddingModel(vocab, slot_table, base, deltas, context)
    encoded = slot_encoding(docs, vocab, slot_table)
    keep_prob = trainer._keep_probabilities(vocab, config.subsample_threshold)
    weights = vocab.global_counts.astype(np.float64) ** 0.75
    neg_cdf = np.cumsum(weights / weights.sum())

    epoch_pairs = []  # per epoch: (words, contexts, slots) of every slot's pairs, slot after slot
    for epoch in range(config.epochs):
        rng_mask = np.random.default_rng([config.seed, 1, epoch])
        parts = []
        for slot, (tokens, doc_ids) in enumerate(encoded):
            if keep_prob is not None:
                mask = rng_mask.random(tokens.size) < keep_prob[tokens]
                tokens, doc_ids = tokens[mask], doc_ids[mask]
            w, c = slot_pairs(tokens, doc_ids, config.context_window)
            parts.append((w, c, np.full(w.size, slot, dtype=np.int32)))
        epoch_pairs.append([np.concatenate(column) for column in zip(*parts)])
    total_pairs = sum(w.size for w, _, _ in epoch_pairs)
    if total_pairs == 0:
        return model

    deltas_flat = deltas.reshape(len(slot_table) * n_words, d)
    lr_span = config.final_lr - config.initial_lr
    pairs_done = 0
    for epoch, (all_w, all_c, all_s) in enumerate(epoch_pairs):
        rng_epoch = np.random.default_rng([config.seed, 2, epoch])
        perm = rng_epoch.permutation(all_w.size)
        all_w, all_c, all_s = all_w[perm], all_c[perm], all_s[perm]
        epoch_loss, offset = 0.0, pairs_done
        for lo in range(0, all_w.size, config.batch_size):
            hi = min(lo + config.batch_size, all_w.size)
            lr = config.initial_lr + lr_span * (offset / total_pairs)
            offset += hi - lo
            n_groups = -(-(hi - lo) // trainer.PAIR_GROUP)
            negs = np.searchsorted(neg_cdf, rng_epoch.random((n_groups, config.negatives)), side="right").astype(np.int32)
            np.clip(negs, 0, n_words - 1, out=negs)
            batch = trainer.TrainingBatch(all_w[lo:hi], all_s[lo:hi], all_c[lo:hi], negs)
            epoch_loss += trainer.sgd_step(base, deltas_flat, context, n_words, batch, lr)
        pairs_done += all_w.size
        model.epoch_losses.append(epoch_loss / max(1, all_w.size))
    return model


def _cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The row cosine in the operations of linalg.rowwise_cosine, for bit-equal comparisons."""
    na = np.sqrt(np.einsum("...d,...d->...", a, a))
    nb = np.sqrt(np.einsum("...d,...d->...", b, b))
    return np.einsum("...d,...d->...", a, b) / (na * nb)


def _slot_vectors(model, slot: int, rows: np.ndarray) -> np.ndarray:
    return model.base[rows].astype(np.float64) + model.deltas[slot][rows].astype(np.float64)


def selfsim_unblocked(model, top_n: int, frequency_scope: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per adjacent slot pair, the measured rows and their cosines from both slots' vectors of every row at once."""
    counts = model.vocab.slot_counts
    out = []
    for i in range(len(model.slot_table) - 1):
        rank = model.vocab.global_counts if frequency_scope == "global" else counts[i] + counts[i + 1]
        cand = np.argsort(-rank, kind="stable")[:top_n]
        rows = cand[(counts[i, cand] > 0) & (counts[i + 1, cand] > 0)]
        out.append((rows, _cosine(_slot_vectors(model, i, rows), _slot_vectors(model, i + 1, rows))))
    return out


def total_word_means_unblocked(model, word_indices: np.ndarray) -> np.ndarray:
    """(n, distances) mean cosine per word and slot distance from all n * S slot vectors at once."""
    starts = [slot.start for slot in model.slot_table]
    n_slots = len(starts)
    pairs = [(i, j) for i in range(n_slots) for j in range(i + 1, n_slots)]
    distances = sorted({starts[j] - starts[i] for i, j in pairs})
    sums = np.zeros((word_indices.size, len(distances)))
    counts = np.zeros(len(distances), dtype=np.int64)
    slot_mats = [_slot_vectors(model, t, word_indices) for t in range(n_slots)]
    for i, j in pairs:
        k = distances.index(starts[j] - starts[i])
        sums[:, k] += _cosine(slot_mats[i], slot_mats[j])
        counts[k] += 1
    return sums / counts[None, :]


def trajectory_values_unblocked(model, target: int, cand: np.ndarray, imputed: np.ndarray) -> np.ndarray:
    """(C, S) cosines of the candidates against the target, each slot over all candidates at once.

    Rows marked in ``imputed`` are interpolated between their measured slots.
    """
    n_slots = len(model.slot_table)
    values = np.empty((cand.size, n_slots))
    for t in range(n_slots):
        values[:, t] = _cosine(_slot_vectors(model, t, cand), _slot_vectors(model, t, np.array([target]))[0])
    slot_axis = np.arange(n_slots, dtype=np.float64)
    for row in np.flatnonzero(imputed.any(axis=1)):
        mask = imputed[row]
        values[row, mask] = np.interp(slot_axis[mask], slot_axis[~mask], values[row, ~mask])
    return values
