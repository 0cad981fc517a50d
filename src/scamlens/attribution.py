"""Embedding-space attribution for the detector.

Expected-gradients sampling against a fixed all-PAD baseline, aggregation of
subword scores into word scores via the tokenizer alignment, and filtering
into a compact ranked evidence set. Scores stay signed end to end; ranking
by raw score means negatively attributed words sort to the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from . import lexicon
from .corpus import MARKER_TOKENS
from .detector import PAD_ID, DetectorModel, TokenizedInput, embed, grad_wrt_pooled, logits_from_pooled


class AttributionError(Exception):
    """Base class for attribution-stage failures."""


class ZeroSamplesError(AttributionError, ValueError):
    """The sample count must be at least one."""


class AlignmentMismatchError(AttributionError):
    """Piece scores and tokenizer alignment have different lengths."""


@dataclass(frozen=True)
class AttributionConfig:
    n_samples: int = 64
    noise_std: float = 0.01
    seed: int = 0
    k: int = 8  # evidence phrases kept per message

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ZeroSamplesError("n_samples must be >= 1")
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
    phrases = tuple((str(p["word"]), float(p["score"])) for p in record["phrases"])
    return str(record["id"]), EvidenceSet(phrases=phrases, k=int(record["k"]))


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
    """
    x = embed(model, tokenized)  # (n, d)
    n, d = x.shape
    baseline_row = model.embedding[PAD_ID]
    diff = x - baseline_row  # broadcasts the PAD row across positions

    rng = np.random.default_rng(config.seed)
    alphas = rng.uniform(0.0, 1.0, size=config.n_samples)
    noise = rng.normal(0.0, config.noise_std / np.sqrt(n), size=(config.n_samples, d))
    pooled = baseline_row + alphas[:, None] * (x.mean(axis=0) - baseline_row) + noise
    mean_grad = grad_wrt_pooled(model, pooled).mean(axis=0)

    # Every position sees the pooled gradient scaled by 1/n.
    attribution = diff * (mean_grad / n)
    return tuple(float(s) for s in attribution.sum(axis=1))


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
        raise AlignmentMismatchError(
            f"{len(scores)} piece scores vs alignment of {len(tokenized.alignment)}"
        )
    by_word: dict[int, float] = {}
    for word_pos, score in zip(tokenized.alignment, scores):
        by_word[word_pos] = by_word.get(word_pos, 0.0) + score
    return by_word


def filter_evidence(scores: Mapping[int, float], words: Sequence[str], k: int) -> EvidenceSet:
    """Drop stopwords and channel markers, keep risk tokens, take the top k.
    `scores` maps positions in `words` to their scores.

    Risk tokens (URL-like, currency, emphatic punctuation) bypass the
    stopword drop. Ranking is by signed score descending with earlier word
    position breaking ties. An empty result is legal; callers flag it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    survivors: list[tuple[float, int, str]] = []
    for position in sorted(scores):
        word = words[position]
        if word in MARKER_TOKENS:
            continue
        if not lexicon.is_risk_token(word) and lexicon.is_stopword_surface(word):
            continue
        survivors.append((scores[position], position, word))
    survivors.sort(key=lambda item: (-item[0], item[1]))
    top = survivors[:k]
    return EvidenceSet(phrases=tuple((word, score) for score, _, word in top), k=k)
