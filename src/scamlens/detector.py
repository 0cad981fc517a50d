"""Small differentiable scam classifier with analytic embedding gradients.

Desk-scale stand-in for a fine-tuned transformer detector: a subword
tokenizer with word alignment, mean-pooled trainable embeddings, one tanh
hidden layer, and a logistic output. The architecture is deliberately the
smallest one that keeps embedding-space attribution non-trivial while
leaving every gradient hand-derivable:

    pooled  p = mean_i x_i                      (x_i: piece embedding rows)
    hidden  h = act(W1^T p + b1)                (act: tanh, or identity in
                                                 linear test fixtures)
    logit   z = w2 . h + b2
    P(scam) = logistic(z)

so dz/dx_i = (1/n) W1 (w2 * act'(h)) for every position i.

The vocabulary is the most frequent character n-grams of the distinct
lowered words. They are counted with numpy as exact integer keys, each built
from the id of the gram's shorter prefix, so no alphabet overflows them, and
counting memory grows with the characters of the distinct words.

Training is full-batch gradient descent with early stopping on validation
macro F1; there is no minibatch shuffling, so a (config, seed) pair always
yields identical weights. Training holds the (N, V) bag matrix B, and for
the gradient its transpose, in one sparse type held by rows with one
product, and pools the hidden projection E W1 rather than the embedding E,
so its bag products cost O(nnz * h) time and O(nnz) temporary memory for
nnz distinct (message, piece) pairs, never O(N * V). Each vocabulary memoizes
the segmentation of every word it has seen, so a word is segmented once
however many messages and stages tokenize it.
"""

from __future__ import annotations

import itertools
import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .corpus import (
    CHANNEL_MARKERS,
    MARKER_TOKENS,
    FormattedText,
    Label,
    MessageSet,
    finite_float,
    format_input,
    truncate_front,
)

CHECKPOINT_FORMAT = "vexa-detector-v1"

PAD_PIECE = "<pad>"
UNK_PIECE = "<unk>"
SPECIAL_PIECES: tuple[str, ...] = (PAD_PIECE, UNK_PIECE) + tuple(
    CHANNEL_MARKERS[ch] for ch in CHANNEL_MARKERS
)
# Every vocabulary starts with SPECIAL_PIECES (`Vocab.from_pieces`).
PAD_ID, UNK_ID = 0, 1

MAX_NGRAM = 4
DEFAULT_PIECE_LIMIT = 512


class DetectorError(Exception):
    """A detector-stage failure."""


# ---------------------------------------------------------------------------
# Vocabulary and tokenization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vocab:
    """Ordered subword pieces with PAD at index 0 and atomic channel markers.

    `segments` memoizes each word's pieces for the vocabulary's life; it is
    a cache, so it takes no part in construction, equality or repr.
    """

    pieces: tuple[str, ...]
    index: Mapping[str, int] = field(repr=False)
    max_piece_len: int
    segments: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.pieces)

    @classmethod
    def from_pieces(cls, pieces: Sequence[str]) -> "Vocab":
        pieces = tuple(pieces)
        if pieces[: len(SPECIAL_PIECES)] != SPECIAL_PIECES:
            raise ValueError(f"vocabulary must start with the special pieces {SPECIAL_PIECES}")
        index = {piece: i for i, piece in enumerate(pieces)}
        if len(index) != len(pieces):
            raise ValueError("vocabulary contains duplicate pieces")
        plain = [p for p in pieces if p not in SPECIAL_PIECES]
        max_len = max((len(p) for p in plain), default=1)
        return cls(pieces=pieces, index=index, max_piece_len=max_len)


def _gram_counts(
    ranks: np.ndarray, n_chars: int, left: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One position, the length and the weighted count of each distinct gram.

    Per character of the joined words: `ranks` holds its rank by code point
    among the `n_chars` distinct ones, `left` the characters from it to the
    end of its word, and `weights` its word's count. The key of a length-n
    gram is the id of its first n-1 characters times `n_chars` plus the rank
    of its last one; its id is its key's index among the distinct keys.
    """
    positions: list[np.ndarray] = []
    lengths: list[np.ndarray] = []
    counts: list[np.ndarray] = []
    starts = np.arange(len(ranks))
    ids = np.zeros_like(ranks)  # at each start, the id of the (n-1)-gram there
    for n in range(1, MAX_NGRAM + 1):
        starts = starts[left[starts] >= n]
        keys = ids[starts] * n_chars + ranks[starts + n - 1]
        distinct, inverse = np.unique(keys, return_inverse=True)
        ids[starts] = inverse
        position = np.empty(len(distinct), dtype=np.intp)
        position[inverse] = starts
        positions.append(position)
        lengths.append(np.full(len(distinct), n))
        # Float sums of integer counts are exact below 2**53.
        counts.append(np.bincount(inverse, weights=weights[starts], minlength=len(distinct)))
    return np.concatenate(positions), np.concatenate(lengths), np.concatenate(counts)


def build_vocab(corpus: MessageSet, max_size: int) -> Vocab:
    """Most frequent character n-grams (n in 1..4) plus special pieces.

    Every single character seen in the corpus is force-included so
    segmentation of in-corpus text never needs the unknown piece. Ties in
    frequency break lexicographically; the result is a pure function of the
    corpus content and order.

    The distinct lowered words are joined into one text, and each gram
    inside a word is counted once, weighted by its word's count, as an
    integer key, one gram length at a time (`_gram_counts`). A length-n key
    is built from the id of the gram's first n-1 characters, not from n
    packed character ranks, so it stays below (characters) x (alphabet
    size) and is exact for any alphabet; four packed ranks would overflow 64
    bits at 65536 distinct characters. Grams are then ranked by count, then
    by their character ranks padded with 0, which compare like the strings.
    Memory grows with the characters of the distinct words, not with the
    corpus size, and only the kept pieces are decoded.
    """
    if len(corpus) == 0:
        raise DetectorError("cannot build a vocabulary from an empty corpus")
    words = Counter(itertools.chain.from_iterable(format_input(m).text.split() for m in corpus))
    lowered: dict[str, int] = {}
    for word, count in words.items():
        if word not in MARKER_TOKENS:
            word = word.lower()
            lowered[word] = lowered.get(word, 0) + count
    text = "".join(lowered)
    # One code unit per character, lone surrogates included, so an index
    # into `codes` is an index into `text`.
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    alphabet, ranks = np.unique(codes, return_inverse=True)
    minimum = len(SPECIAL_PIECES) + len(alphabet)
    if max_size < minimum:
        raise DetectorError(
            f"max_size {max_size} below specials + alphabet ({minimum}); cannot cover the corpus"
        )
    lengths = np.fromiter(map(len, lowered), dtype=np.intp, count=len(lowered))
    weights = np.repeat(np.fromiter(lowered.values(), dtype=np.float64, count=len(lowered)), lengths)
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(text))
    position, length, counts = _gram_counts(ranks, len(alphabet), left, weights)
    padded = [
        np.where(length > k, ranks[np.minimum(position + k, len(text) - 1)] + 1, 0)
        for k in range(MAX_NGRAM)
    ]
    ranked = np.lexsort((*reversed(padded), -counts))
    multi = length[ranked] > 1
    kept = np.concatenate((ranked[~multi], ranked[multi][: max_size - minimum]))
    pieces = [text[p : p + n] for p, n in zip(position[kept].tolist(), length[kept].tolist())]
    return Vocab.from_pieces(SPECIAL_PIECES + tuple(pieces))


@dataclass(frozen=True)
class TokenizedInput:
    """Subword piece ids plus a piece-to-word alignment map.

    `alignment[i]` is the index into `words` of the word that produced piece
    position i. Front truncation drops leading pieces and re-indexes piece
    positions, but word indices keep referring to the full `words` tuple.
    """

    piece_ids: tuple[int, ...]
    alignment: tuple[int, ...]
    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.piece_ids) != len(self.alignment):
            raise ValueError("piece_ids and alignment must have equal length")
        if not all(map(operator.le, self.alignment, self.alignment[1:])):
            raise ValueError("alignment must be monotonically non-decreasing")
        if self.alignment and self.alignment[-1] >= len(self.words):
            raise ValueError("alignment references a word position out of range")


def _segment_word(word: str, vocab: Vocab) -> tuple[int, ...]:
    """Greedy longest-match segmentation with single-character fallback."""
    if word in MARKER_TOKENS:
        return (vocab.index[word],)
    lowered = word.lower()
    get = vocab.index.get
    longest = vocab.max_piece_len
    end = len(lowered)
    ids: list[int] = []
    i = 0
    while i < end:
        for j in range(min(i + longest, end), i, -1):
            piece_id = get(lowered[i:j])
            if piece_id is not None:
                break
        else:
            piece_id, j = UNK_ID, i + 1
        ids.append(piece_id)
        i = j
    return tuple(ids)


def _segment_words(words: Sequence[str], vocab: Vocab, limit: int) -> tuple[list[int], list[int]]:
    """Piece ids and their word positions, front-truncated to `limit` pieces.

    Each word's pieces come from the vocabulary's `segments` memo, so a word
    is segmented once however often it recurs in the vocabulary's life.
    """
    memo = vocab.segments
    piece_ids: list[int] = []
    alignment: list[int] = []
    for word_pos, word in enumerate(words):
        pieces = memo.get(word)
        if pieces is None:
            pieces = memo[word] = _segment_word(word, vocab)
        for piece_id in pieces:
            piece_ids.append(piece_id)
            alignment.append(word_pos)
    if len(piece_ids) > limit:
        piece_ids = truncate_front(piece_ids, limit)
        alignment = truncate_front(alignment, limit)
    return piece_ids, alignment


def tokenize(text: FormattedText, vocab: Vocab, limit: int = DEFAULT_PIECE_LIMIT) -> TokenizedInput:
    """Segment each whitespace word into pieces and record its word position."""
    words = tuple(text.text.split())
    piece_ids, alignment = _segment_words(words, vocab, limit)
    return TokenizedInput(tuple(piece_ids), tuple(alignment), words)


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

# Activations mapped to (f, f' expressed in terms of f's output).
ACTIVATIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]] = {
    "tanh": (np.tanh, lambda out: 1.0 - out * out),
    "identity": (lambda x: x, np.ones_like),
}


@dataclass(frozen=True)
class Prediction:
    scam_probability: float
    predicted_label: Label
    logit: float

    def __post_init__(self) -> None:
        finite_float(self.scam_probability)
        finite_float(self.logit)


def prediction_to_record(message_id: str, prediction: Prediction) -> dict[str, object]:
    return {
        "id": message_id,
        "scam_probability": prediction.scam_probability,
        "logit": prediction.logit,
        "predicted_label": prediction.predicted_label.value,
    }


def prediction_from_record(record: Mapping[str, Any]) -> tuple[str, Prediction]:
    """(message id, prediction); a non-finite number or an unknown label is refused."""
    label = Label(record["predicted_label"])
    return str(record["id"]), Prediction(float(record["scam_probability"]), label, float(record["logit"]))


@dataclass(frozen=True)
class DetectorModel:
    """Embedding table + mean pooling + one hidden layer + logistic output.

    The "identity" activation exists for linear test fixtures only; real
    models use tanh. Construction refuses non-finite weights and stores
    float64 read-only copies of the weight arrays, so a model's weights never
    change after it is built and the caller's arrays stay independent of it.
    """

    vocab: Vocab
    embedding: np.ndarray  # (V, d)
    hidden_w: np.ndarray  # (d, h)
    hidden_b: np.ndarray  # (h,)
    out_w: np.ndarray  # (h,)
    out_b: float
    activation: str = "tanh"
    piece_limit: int = DEFAULT_PIECE_LIMIT
    seed: int = 0
    val_macro_f1: float | None = None
    epochs_run: int | None = None

    def __post_init__(self) -> None:
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.piece_limit < 1:
            raise ValueError(f"piece_limit must be >= 1, got {self.piece_limit}")
        for name in ("embedding", "hidden_w", "hidden_b", "out_w"):
            array = np.array(getattr(self, name), dtype=np.float64)
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        d, h = self.embedding.shape[-1], self.out_w.shape[-1]
        expected = {
            "embedding": (len(self.vocab), d),
            "hidden_w": (d, h),
            "hidden_b": (h,),
            "out_w": (h,),
        }
        for name, shape in expected.items():
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {getattr(self, name).shape}")
        if d < 2 or h < 1:
            raise ValueError("embedding dim must be >= 2 and hidden dim >= 1")
        if not all(np.isfinite(getattr(self, name)).all() for name in (*expected, "out_b")):
            raise DetectorError("model weights contain non-finite values")

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, and never overflows.
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    # Keep the probability strictly inside (0, 1) even for extreme logits.
    return np.clip(out, 5e-324, np.nextafter(1.0, 0.0))


def logits_from_pooled(model: DetectorModel, pooled: np.ndarray) -> np.ndarray:
    """Scam logits for a batch of pooled embedding vectors, shape (S, d) -> (S,)."""
    act, _ = ACTIVATIONS[model.activation]
    hidden = act(pooled @ model.hidden_w + model.hidden_b)
    return hidden @ model.out_w + model.out_b


def grad_wrt_pooled(model: DetectorModel, pooled: np.ndarray) -> np.ndarray:
    """d(logit)/d(pooled) for a batch of pooled vectors, shape (S, d) -> (S, d)."""
    act, dact = ACTIVATIONS[model.activation]
    hidden = act(pooled @ model.hidden_w + model.hidden_b)
    dz_dhidden = dact(hidden) * model.out_w
    return dz_dhidden @ model.hidden_w.T


def embed(model: DetectorModel, tokenized: TokenizedInput) -> np.ndarray:
    """Embedding rows for the input pieces, shape (n, d)."""
    ids = np.asarray(tokenized.piece_ids, dtype=np.intp)
    if ids.size == 0:
        raise ValueError("cannot embed an input with no pieces")
    if ids.max() >= len(model.vocab):
        raise DetectorError(
            f"piece id {int(ids.max())} out of range for vocabulary of {len(model.vocab)}"
        )
    return model.embedding[ids]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig:
    # Full-batch descent needs a large step: the +/-0.1 init leaves the
    # logit path (embedding -> hidden -> output) with tiny initial gradients.
    # Training pools the h-wide projection E @ W1, so h > d stays correct but
    # pools wider than the embedding itself would.
    lr: float = 5.0
    epochs: int = 300
    patience: int = 30
    d: int = 16
    h: int = 8
    val_fraction: float = 0.2
    seed: int = 0
    vocab_size: int = 2000
    limit: int = DEFAULT_PIECE_LIMIT

    def __post_init__(self) -> None:
        if not self.lr > 0.0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not (0.0 < self.val_fraction < 1.0):
            raise ValueError("val_fraction must be in (0, 1)")
        if self.epochs < 1 or self.patience < 1:
            raise ValueError("epochs and patience must be >= 1")
        if self.d < 2 or self.h < 1:
            raise ValueError("d must be >= 2 and h must be >= 1")
        if self.limit < 1:
            raise ValueError("limit must be >= 1")


def _corpus_piece_ids(corpus: MessageSet, vocab: Vocab, limit: int) -> list[list[int]]:
    """Each message's `tokenize(...).piece_ids`, through the vocabulary's
    segmentation memo, so a later `tokenize` of the same words segments none
    of them again."""
    return [_segment_words(format_input(m).text.split(), vocab, limit)[0] for m in corpus]


@dataclass(frozen=True)
class _Sparse:
    """Sparse (n_rows, n_cols) matrix held by rows: listed row `rows[i]` holds
    the columns `cols` and values `weights` from `starts[i]` up to the next
    start; a row that is not listed is zero.

    Training's bag matrix B (`bags`) has row i hold message i's piece
    frequencies over its piece count, so B @ E is the mean-pooled input and
    B @ (E @ W1) its hidden projection; its `transpose()` takes the gradient
    B.T @ G through the same product. For an operand w columns wide, the
    product gathers one column at a time into an nnz-long array and sums its
    runs, so its cost grows with nnz * w and its temporary memory with nnz,
    not n_rows x n_cols; training passes w = h.
    """

    n_rows: int
    n_cols: int
    rows: np.ndarray
    starts: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    @classmethod
    def _grouped(
        cls, n_rows: int, n_cols: int, row_of: np.ndarray, cols: np.ndarray, weights: np.ndarray
    ) -> "_Sparse":
        """From entries sorted by row, `row_of` holding each one's row."""
        counts = np.bincount(row_of, minlength=n_rows)
        rows = np.flatnonzero(counts)
        return cls(n_rows, n_cols, rows, (np.cumsum(counts) - counts)[rows], cols, weights)

    @classmethod
    def bags(cls, pieces: Sequence[Sequence[int]], n_cols: int) -> "_Sparse":
        """The bag matrix of messages' piece ids; each must hold one piece or more."""
        lengths = np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces))
        keys = np.fromiter(itertools.chain.from_iterable(pieces), dtype=np.intp, count=int(lengths.sum()))
        keys += np.repeat(np.arange(len(pieces), dtype=np.intp) * n_cols, lengths)
        keys.sort()
        run_start = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=run_start[1:])
        starts = np.flatnonzero(run_start)
        del run_start
        counts = np.diff(starts, append=len(keys))
        row, cols = np.divmod(keys[starts], n_cols)
        del keys, starts
        return cls._grouped(len(pieces), n_cols, row, cols, counts / lengths[row])

    def transpose(self) -> "_Sparse":
        """The transpose, sorted stably, so each row sums in self's row order."""
        row_of = np.repeat(self.rows, np.diff(self.starts, append=len(self.cols)))
        order = np.argsort(self.cols, kind="stable")
        return self._grouped(self.n_cols, self.n_rows, self.cols[order], row_of[order], self.weights[order])

    def __matmul__(self, operand: np.ndarray) -> np.ndarray:
        """self @ operand, shape (n_cols, w) -> (n_rows, w)."""
        product = np.zeros((operand.shape[1], self.n_rows))
        # One nnz-long buffer, refilled for each column. The operand has
        # n_cols rows, so every index is in range and mode="clip" never clips;
        # unlike "raise", it fills `out` without allocating a temporary first.
        entries = np.empty(len(self.cols))
        # B lists every row, so its sums go straight into row j; a transpose
        # leaves out the piece ids no message uses.
        every_row = len(self.rows) == self.n_rows
        for j, column in enumerate(operand.T):
            np.take(column, self.cols, out=entries, mode="clip")
            entries *= self.weights
            if every_row:
                np.add.reduceat(entries, self.starts, out=product[j])
            else:
                product[j, self.rows] = np.add.reduceat(entries, self.starts)
        # The transpose of a C-ordered (w, n_rows) array: `hidden @ out_w` and
        # `d_hidden.sum(axis=0)` in `train` sum in the order this layout gives.
        return product.T


def _split_indices(
    labels: np.ndarray, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified train/validation split with at least one of each side per class."""
    train: list[int] = []
    val: list[int] = []
    for value in (0.0, 1.0):
        idx = rng.permutation(np.flatnonzero(labels == value))
        n_val = int(round(val_fraction * len(idx)))
        n_val = min(max(n_val, 1), len(idx) - 1)
        val.extend(idx[:n_val].tolist())
        train.extend(idx[n_val:].tolist())
    return np.array(sorted(train)), np.array(sorted(val))


def train(corpus: MessageSet, config: TrainConfig) -> DetectorModel:
    """Full-batch cross-entropy descent with early stopping on validation macro F1.

    Returns the best-validation checkpoint. Deterministic: weight
    init, the train/validation split, and the update schedule all derive from
    config.seed. Each distinct word is segmented once, into the returned
    model's vocabulary memo. The split bags are sparse and pool the hidden
    projection E @ W1, so each epoch costs O(nnz * h) rather than O(N * V);
    only the training bags build a transpose, for the gradient.
    Its gradients are the pooled-embedding ones reassociated:
    B.T @ (G @ W1.T) = (B.T @ G) @ W1.T and (B @ E).T @ G = E.T @ (B.T @ G).
    """
    label_values = {m.label for m in corpus}
    if len(label_values) < 2:
        raise DetectorError("training corpus must contain both scam and ham messages")

    rng = np.random.default_rng(config.seed)
    vocab = build_vocab(corpus, config.vocab_size)
    embedding = rng.uniform(-0.1, 0.1, size=(len(vocab), config.d))
    hidden_w = rng.uniform(-0.1, 0.1, size=(config.d, config.h))
    hidden_b = rng.uniform(-0.1, 0.1, size=config.h)
    out_w = rng.uniform(-0.1, 0.1, size=config.h)
    out_b = float(rng.uniform(-0.1, 0.1))

    piece_ids = _corpus_piece_ids(corpus, vocab, config.limit)
    y = np.array([1.0 if m.label is Label.SCAM else 0.0 for m in corpus])
    train_idx, val_idx = _split_indices(y, config.val_fraction, rng)
    if val_idx.size == 0:
        raise DetectorError("corpus too small to hold out a validation split")
    bags_train = _Sparse.bags([piece_ids[i] for i in train_idx], len(vocab))
    bags_train_t = bags_train.transpose()
    bags_val = _Sparse.bags([piece_ids[i] for i in val_idx], len(vocab))
    y_train = y[train_idx]
    val_scam = y[val_idx] == 1.0

    act, dact = ACTIVATIONS["tanh"]
    best: tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]] | None = None
    wait = 0
    for epochs_run in range(1, config.epochs + 1):
        hidden = act(bags_train @ (embedding @ hidden_w) + hidden_b)
        probs = _sigmoid(hidden @ out_w + out_b)
        dz = (probs - y_train) / len(y_train)
        d_out_w = hidden.T @ dz
        d_out_b = float(dz.sum())
        d_hidden = dact(hidden) * np.outer(dz, out_w)
        d_projection = bags_train_t @ d_hidden
        d_hidden_w = embedding.T @ d_projection
        d_hidden_b = d_hidden.sum(axis=0)
        d_embedding = d_projection @ hidden_w.T

        embedding -= config.lr * d_embedding
        hidden_w -= config.lr * d_hidden_w
        hidden_b -= config.lr * d_hidden_b
        out_w -= config.lr * d_out_w
        out_b -= config.lr * d_out_b

        val_logits = act(bags_val @ (embedding @ hidden_w) + hidden_b) @ out_w + out_b
        f1 = _logit_macro_f1(val_logits, val_scam)
        if best is None or f1 > best[0]:
            best = (f1, (embedding.copy(), hidden_w.copy(), hidden_b.copy(), out_w.copy(), float(out_b)))
            wait = 0
        else:
            wait += 1
            if wait >= config.patience:
                break

    assert best is not None
    f1, (embedding, hidden_w, hidden_b, out_w, out_b) = best
    return DetectorModel(
        vocab=vocab,
        embedding=embedding,
        hidden_w=hidden_w,
        hidden_b=hidden_b,
        out_w=out_w,
        out_b=out_b,
        activation="tanh",
        piece_limit=config.limit,
        seed=config.seed,
        val_macro_f1=f1,
        epochs_run=epochs_run,
    )


def predict_set(model: DetectorModel, message_set: MessageSet) -> dict[str, Prediction]:
    """Predictions keyed by message id: one batched forward pass over the pooled inputs."""
    pooled = np.empty((len(message_set), model.dim))
    for row, message in enumerate(message_set):
        tokenized = tokenize(format_input(message), model.vocab, model.piece_limit)
        pooled[row] = embed(model, tokenized).mean(axis=0)
    logits = logits_from_pooled(model, pooled)
    probabilities = _sigmoid(logits)
    return {
        message.id: Prediction(float(p), Label.SCAM if p >= 0.5 else Label.HAM, float(z))
        for message, z, p in zip(message_set, logits, probabilities)
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _class_f1(tp: int, fp: int, fn: int) -> float:
    # A class absent from both sides contributes 0 by convention.
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def _f1_from_counts(tp: int, fp: int, fn: int, tn: int) -> float:
    """Macro F1 from the confusion counts with scam as the positive class."""
    return 0.5 * (_class_f1(tp, fp, fn) + _class_f1(tn, fn, fp))


def _logit_macro_f1(logits: np.ndarray, scam: np.ndarray) -> float:
    """`macro_f1` of the predictions `logits >= 0` (scam) against the boolean
    labels `scam`, counted on the arrays."""
    predicted = logits >= 0
    tp = int(np.count_nonzero(predicted & scam))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(scam)) - tp
    return _f1_from_counts(tp, fp, fn, len(scam) - tp - fp - fn)


def macro_f1(predicted: Sequence[Label], actual: Sequence[Label]) -> float:
    """Unweighted mean of per-class F1 over scam and ham."""
    if len(predicted) != len(actual) or len(predicted) == 0:
        raise DetectorError(
            f"predicted and actual must be equal-length and non-empty "
            f"({len(predicted)} vs {len(actual)})"
        )
    pairs = Counter(zip(predicted, actual))
    scam, ham = Label.SCAM, Label.HAM
    return _f1_from_counts(pairs[scam, scam], pairs[scam, ham], pairs[ham, scam], pairs[ham, ham])


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def save_model(model: DetectorModel, path: str | Path) -> None:
    """Single-file JSON checkpoint; floats round-trip exactly via repr."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "pieces": list(model.vocab.pieces),
        "embedding": model.embedding.tolist(),
        "hidden_w": model.hidden_w.tolist(),
        "hidden_b": model.hidden_b.tolist(),
        "out_w": model.out_w.tolist(),
        "out_b": model.out_b,
        "activation": model.activation,
        "piece_limit": model.piece_limit,
        "seed": model.seed,
        "val_macro_f1": model.val_macro_f1,
        "epochs_run": model.epochs_run,
    }
    # `json.dumps` runs the C encoder; `json.dump` streams through the Python one.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.write("\n")


def load_model(path: str | Path) -> DetectorModel:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DetectorError(f"{path}: checkpoint is not valid JSON ({exc})") from None
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise DetectorError(
            f"{path}: expected checkpoint format {CHECKPOINT_FORMAT!r}, got {found!r}"
        )
    try:
        return DetectorModel(
            vocab=Vocab.from_pieces(payload["pieces"]),
            embedding=payload["embedding"],
            hidden_w=payload["hidden_w"],
            hidden_b=payload["hidden_b"],
            out_w=payload["out_w"],
            out_b=float(payload["out_b"]),
            activation=payload["activation"],
            piece_limit=int(payload["piece_limit"]),
            seed=int(payload["seed"]),
            val_macro_f1=payload.get("val_macro_f1"),
            epochs_run=payload.get("epochs_run"),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise DetectorError(f"{path}: malformed checkpoint ({type(exc).__name__}: {exc})") from None
