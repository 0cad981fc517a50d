"""Embedding-space attribution for the detector.

Expected-gradients sampling against a fixed all-PAD baseline, aggregation of
subword scores into word scores via the tokenizer alignment, and filtering
into a compact ranked evidence set. Scores stay signed end to end; ranking
by raw score means negatively attributed words sort to the bottom.

Work that cannot change within a process is done once: the random draws for
each (seed, n_samples, d), and, in `lexicon.is_content_token`'s memo, the
content-word test of each distinct word the filter tests. The filter tests
words in rank order and stops once it has k, so a word ranked below a
message's k-th kept word is never tested. Both memos live for the process,
and every score and evidence set is the same as without them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Mapping, Sequence

import numpy as np

from . import lexicon
from .corpus import MARKER_TOKENS, finite_float
from .detector import PAD_ID, DetectorModel, TokenizedInput, embed, grad_wrt_pooled, logits_from_pooled


class AttributionError(Exception):
    """An attribution-stage failure."""


@dataclass(frozen=True)
class AttributionConfig:
    n_samples: int = 64
    noise_std: float = 0.01
    seed: int = 0
    k: int = 8  # evidence phrases kept per message

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be non-negative")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class EvidenceSet:
    """Ranked, filtered word-level evidence phrases with attribution scores."""

    phrases: tuple[tuple[str, float], ...]
    k: int

    def __post_init__(self) -> None:
        if len(self.phrases) > self.k:
            raise ValueError("evidence set larger than its selection size k")
        for _, score in self.phrases:
            finite_float(score)

    def words(self) -> tuple[str, ...]:
        return tuple(word for word, _ in self.phrases)


def evidence_to_record(message_id: str, evidence: EvidenceSet, seed: int) -> dict[str, object]:
    return {
        "id": message_id,
        "phrases": [{"word": w, "score": s} for w, s in evidence.phrases],
        "k": evidence.k,
        "seed": seed,
    }


def evidence_from_record(record: Mapping[str, Any]) -> tuple[str, EvidenceSet]:
    """(message id, evidence set); the attribution seed is provenance only."""
    phrases = tuple((str(p["word"]), finite_float(p["score"])) for p in record["phrases"])
    return str(record["id"]), EvidenceSet(phrases=phrases, k=int(record["k"]))


@lru_cache(maxsize=8)
def _draws(seed: int, n_samples: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(alphas, standard): `n_samples` uniform [0, 1) interpolation
    coefficients, then an (n_samples, d) standard-normal block, drawn in that
    order from `default_rng(seed)`. Read-only, since every message with these
    arguments shares them; a run uses one entry."""
    rng = np.random.default_rng(seed)
    alphas = rng.uniform(0.0, 1.0, size=n_samples)
    standard = rng.standard_normal((n_samples, d))
    alphas.flags.writeable = False
    standard.flags.writeable = False
    return alphas, standard


def gradient_shap(
    model: DetectorModel, tokenized: TokenizedInput, config: AttributionConfig
) -> tuple[float, ...]:
    """Signed score per piece position: expected gradients of the scam logit
    against the all-PAD baseline.

    Each sample draws an interpolation coefficient alpha uniform in [0, 1)
    and evaluates the gradient at baseline + alpha * (input - baseline) plus
    Gaussian noise of standard deviation noise_std per embedding coordinate,
    then averages (input - baseline) * gradient over samples. The logit sees
    the embeddings only through their mean over the n positions, so the
    noise is drawn on that mean directly, with standard deviation
    noise_std / sqrt(n): the distribution of the mean of n per-position
    draws. Per-piece scores sum the embedding coordinates. Pure function of
    (weights, input, config).

    The draws depend on (seed, n_samples, d) alone, so they are made once
    (`_draws`) and each message scales the shared standard normals by its
    own noise_std / sqrt(n). `0.0 + scale * z` is the formula numpy's
    `Generator.normal(0.0, scale)` evaluates, so the noise is bitwise the
    same as a fresh `default_rng(seed)` per message would draw.
    """
    x = embed(model, tokenized)  # (n, d)
    n, d = x.shape
    baseline_row = model.embedding[PAD_ID]
    diff = x - baseline_row  # broadcasts the PAD row across positions

    alphas, standard = _draws(config.seed, config.n_samples, d)
    noise = 0.0 + (config.noise_std / np.sqrt(n)) * standard
    pooled = baseline_row + alphas[:, None] * (x.mean(axis=0) - baseline_row) + noise
    mean_grad = grad_wrt_pooled(model, pooled).mean(axis=0)

    # Every position sees the pooled gradient scaled by 1/n.
    attribution = diff * (mean_grad / n)
    return tuple(attribution.sum(axis=1).tolist())


def completeness_gap(
    model: DetectorModel, tokenized: TokenizedInput, scores: tuple[float, ...]
) -> float:
    """|sum of piece scores - (logit(input) - logit(baseline))|."""
    x = embed(model, tokenized)
    pooled = np.stack([x.mean(axis=0), model.embedding[PAD_ID]])
    logit_input, logit_baseline = logits_from_pooled(model, pooled)
    return abs(sum(scores) - float(logit_input - logit_baseline))


def aggregate_to_words(scores: tuple[float, ...], tokenized: TokenizedInput) -> dict[int, float]:
    """Word position -> sum of its piece scores; conserves the total exactly."""
    if len(scores) != len(tokenized.alignment):
        raise AttributionError(
            f"{len(scores)} piece scores vs alignment of {len(tokenized.alignment)}"
        )
    by_word: dict[int, float] = {}
    for word_pos, score in zip(tokenized.alignment, scores):
        by_word[word_pos] = by_word.get(word_pos, 0.0) + score
    return by_word


def filter_evidence(scores: Mapping[int, float], words: Sequence[str], k: int) -> EvidenceSet:
    """Drop channel markers and words without content, take the top k.
    `scores` maps positions in `words` to their scores.

    A word has content by `lexicon.is_content_token`, so risk tokens
    (URL-like, currency, emphatic punctuation) bypass the stopword drop.
    Ranking is by signed score descending with earlier word position
    breaking ties; words are tested in that order until k are kept, so no
    word below the k-th kept one is tested. An empty result is legal;
    callers flag it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = sorted(scores, key=lambda position: (-scores[position], position))
    keeps = (p for p in ranked if words[p] not in MARKER_TOKENS and lexicon.is_content_token(words[p]))
    kept = itertools.islice(keeps, k)
    return EvidenceSet(phrases=tuple((words[p], scores[p]) for p in kept), k=k)
