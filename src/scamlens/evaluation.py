"""Automatic explanation-quality metrics and per-condition reporting.

Three metrics per explanation:

  faithfulness  overlap between detector evidence lemmas and explanation
                lemmas, as a fraction of the evidence set
  correctness   entailment-based support for a fixed risk hypothesis,
                entailment probability plus alpha-weighted neutrality
  fkgl          Flesch-Kincaid grade level with the standard coefficients
                0.39 / 11.8 / 15.59

The entailment probabilities come from an external scoring endpoint or from
a deterministic lexicon-based mock. Aggregation reports mean and sample
standard deviation per condition in the shape of a four-row results table.

Explanation tokens count towards faithfulness by `lexicon.is_content_token`,
the rule evidence filtering keeps words by. Per-token work (content lemma,
syllable count, and the lemma of each evidence word) is memoized in LRU
caches of fixed size `lexicon.TOKEN_MEMO_SIZE` that live for the process,
and the last explanation's lemma set is kept for the faithfulness score that
follows its mock entailment score; every score is the same as without them.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import lru_cache
from statistics import mean, stdev
from typing import Any, Iterable, Mapping, Sequence

from . import lexicon
from .attribution import EvidenceSet
from .corpus import finite_float
from .generation import Condition, EndpointConfig, Explanation, post_json_with_retry, run_batch

RISK_HYPOTHESIS = "The explanation identifies cues that support assessing message risk."

CONDITION_LABELS: dict[Condition, str] = {
    Condition.PURE_LLM: "No XAI",
    Condition.XAI_ONLY: "XAI Only",
    Condition.XAI_HIGH_VULNERABILITY: "XAI + High Vulnerability",
    Condition.XAI_LOW_VULNERABILITY: "XAI + Low Vulnerability",
}


class EvaluationError(Exception):
    """An evaluation-stage failure."""


@dataclass(frozen=True)
class EvaluationConfig:
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must be in [0, 1]")


# ---------------------------------------------------------------------------
# Lemmatization
# ---------------------------------------------------------------------------

# Suffix endings that mark "es" as a true inserted suffix; elsewhere the bare
# "s" rule applies so forms like "prizes" keep their stem's final "e".
_ES_STEM_ENDINGS = ("ss", "sh", "ch", "x", "zz")


def lemmatize(token: str) -> str:
    """Lowercase and stem one token with ordered suffix rules.

    Risk tokens (URLs, currency, emphatic punctuation) pass through with
    only lowercasing so they stay matchable verbatim. Everything else is
    stripped of edge punctuation, then the first matching rule wins:
    -ies > -y, -sses > -ss, -es, -s, -ing, -ed (the last four only when the
    remaining stem keeps at least three characters).
    """
    lowered = token.lower()
    if lexicon.is_risk_token(lowered):
        return lowered
    word = lowered.strip(string.punctuation)
    if not word:
        return ""
    if word.endswith("ies"):
        word = word[:-3] + "y"
    elif word.endswith("sses"):
        word = word[:-2]
    elif word.endswith("es") and len(word) >= 5 and word[:-2].endswith(_ES_STEM_ENDINGS):
        word = word[:-2]
    elif word.endswith("s") and not word.endswith("ss") and len(word) >= 4:
        word = word[:-1]
    elif word.endswith("ing") and len(word) >= 6:
        word = word[:-3]
    elif word.endswith("ed") and len(word) >= 5:
        word = word[:-2]
    # Stripping a possessive or plural suffix can expose inner punctuation
    # ("grandma's" -> "grandma'"); clean the edges again so the lemma is a
    # fixed point.
    return word.strip(string.punctuation)


@lru_cache(maxsize=lexicon.TOKEN_MEMO_SIZE)
def _content_lemma(token: str) -> str:
    # "" for a token without content, by the rule evidence filtering keeps
    # words by, so an echoed evidence word is never lost on one side only.
    return lemmatize(token) if lexicon.is_content_token(token) else ""


# Mock scoring and faithfulness read an explanation's lemmas one right after
# the other, so one entry spares the second computation.
@lru_cache(maxsize=1)
def explanation_lemmas(text: str) -> frozenset[str]:
    """Lemmatized content-token set of an explanation."""
    return frozenset(filter(None, map(_content_lemma, text.split())))


# Each evidence set is scored once per evidence condition, so its words recur.
_evidence_lemma = lru_cache(maxsize=lexicon.TOKEN_MEMO_SIZE)(lemmatize)


def evidence_lemmas(evidence: EvidenceSet) -> frozenset[str]:
    return frozenset(filter(None, map(_evidence_lemma, evidence.words())))


def faithfulness(evidence: EvidenceSet, explanation: Explanation) -> float:
    """Fraction of evidence lemmas that appear in the explanation.

    Membership is exact lemma equality, never substring matching.
    """
    reference = evidence_lemmas(evidence)
    if not reference:
        raise EvaluationError(
            f"message {explanation.message_id!r}: evidence set is empty, cannot score"
        )
    found = explanation_lemmas(explanation.text)
    return len(reference & found) / len(reference)


# ---------------------------------------------------------------------------
# Entailment scoring
# ---------------------------------------------------------------------------

_PROBABILITY_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class NliScores:
    p_entailment: float
    p_neutral: float
    p_contradiction: float

    def __post_init__(self) -> None:
        total = self.p_entailment + self.p_neutral + self.p_contradiction
        if abs(total - 1.0) > _PROBABILITY_SUM_TOLERANCE:
            raise EvaluationError(f"entailment probabilities sum to {total!r}, expected 1")
        for p in (self.p_entailment, self.p_neutral, self.p_contradiction):
            if not (0.0 <= p <= 1.0):
                raise EvaluationError(f"probability {p!r} outside [0, 1]")


def score_nli(config: EndpointConfig, explanation: Explanation) -> NliScores:
    """Score one explanation against the risk hypothesis over HTTP."""
    payload = {"premise": explanation.text, "hypothesis": RISK_HYPOTHESIS}
    url, body = post_json_with_retry(config, "/nli", payload)
    try:
        entailment = float(body["entailment"])
        neutral = float(body["neutral"])
        contradiction = float(body["contradiction"])
    except (KeyError, TypeError, ValueError) as exc:
        raise EvaluationError(f"{url}: malformed entailment response ({exc})") from None
    return NliScores(
        p_entailment=entailment, p_neutral=neutral, p_contradiction=contradiction
    )


def _scored(config: EndpointConfig, explanation: Explanation) -> tuple[Explanation, NliScores]:
    # Calls `score_nli` through the module, so a wrapper patched onto it sees each request.
    return explanation, score_nli(config, explanation)


def score_nli_many(
    config: EndpointConfig, explanations: Iterable[Explanation]
) -> list[tuple[Explanation, NliScores]]:
    """Each explanation with its scores, in input order (see
    `generation.run_batch`). `explanations` may be a lazy stream, such as
    `generation.generate_many`'s: each is scored as soon as it is read."""
    return list(run_batch(_scored, config, explanations))


# Fixed simplex points for the offline scorer, keyed by how many distinct
# risk-cue lemmas the explanation mentions.
_MOCK_RICH = NliScores(0.80, 0.15, 0.05)
_MOCK_THIN = NliScores(0.40, 0.35, 0.25)
_MOCK_BARE = NliScores(0.10, 0.30, 0.60)

_RISK_CUE_LEMMAS = frozenset(lemmatize(w) for w in lexicon.RISK_CUE_WORDS)


def mock_score_nli(explanation: Explanation) -> NliScores:
    """Deterministic lexicon-based entailment scorer for offline runs."""
    found = explanation_lemmas(explanation.text) & _RISK_CUE_LEMMAS
    if len(found) >= 2:
        return _MOCK_RICH
    if len(found) == 1:
        return _MOCK_THIN
    return _MOCK_BARE


def correctness(scores: NliScores, config: EvaluationConfig) -> float:
    """Entailment plus alpha-weighted neutrality."""
    return scores.p_entailment + config.alpha * scores.p_neutral


# ---------------------------------------------------------------------------
# Readability
# ---------------------------------------------------------------------------

_SENTENCE_SPLIT = re.compile(r"[.!?]+(?:\s+|$)")
_WORD_CHAR = re.compile(r"\w")
_VOWEL_RUN = re.compile(r"[aeiouy]+")


def split_sentences(text: str) -> list[str]:
    """Split on terminator runs followed by whitespace or end of text.

    Segments without word characters are discarded; a text with no
    terminator at all is a single sentence.
    """
    if not text.strip():
        raise EvaluationError("cannot split an empty text")
    segments = [s for s in _SENTENCE_SPLIT.split(text) if _WORD_CHAR.search(s)]
    if not segments:
        raise EvaluationError("text contains no word characters")
    return segments


def count_syllables(word: str) -> int:
    """Vowel-run heuristic with a silent terminal 'e' adjustment, minimum 1."""
    lowered = word.lower()
    if not any(ch.isalpha() for ch in lowered):
        raise EvaluationError(f"no letters in {word!r}")
    runs = len(_VOWEL_RUN.findall(lowered))
    if runs > 1 and lowered.endswith("e") and not lowered.endswith("le"):
        runs -= 1
    return max(runs, 1)


@lru_cache(maxsize=lexicon.TOKEN_MEMO_SIZE)
def _word_syllables(token: str) -> int:
    """Syllables of one whitespace token: 0 for a non-word, 1 for a number."""
    if not any(ch.isalpha() for ch in token):
        return int(any(ch.isalnum() for ch in token))
    return count_syllables(token)


@dataclass(frozen=True)
class ReadabilityBreakdown:
    words: int
    sentences: int
    syllables: int
    sc: float
    ld: float
    fkgl: float


def fkgl(text: str) -> ReadabilityBreakdown:
    """Flesch-Kincaid grade level; may be negative for very simple text.

    Words are whitespace tokens containing at least one letter or digit;
    all-digit tokens count one syllable.
    """
    sentences = split_sentences(text)
    counts = list(map(_word_syllables, text.split()))
    words = len(counts) - counts.count(0)
    if not words:
        raise EvaluationError("no countable words in text")
    syllables = sum(counts)
    sc = words / len(sentences)
    ld = syllables / words
    value = 0.39 * sc + 11.8 * ld - 15.59
    return ReadabilityBreakdown(
        words=words,
        sentences=len(sentences),
        syllables=syllables,
        sc=sc,
        ld=ld,
        fkgl=value,
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageMetrics:
    """Per-message scores for one condition; faithfulness is None when the
    condition had no evidence access."""

    message_id: str
    condition: Condition
    correctness: float
    fkgl: float
    faithfulness: float | None = None

    def __post_init__(self) -> None:
        for score in (self.correctness, self.fkgl, self.faithfulness):
            if score is not None:
                finite_float(score)


def metrics_to_record(metrics: MessageMetrics) -> dict[str, object]:
    return {
        "message_id": metrics.message_id,
        "condition": metrics.condition.value,
        "faithfulness": metrics.faithfulness,
        "correctness": metrics.correctness,
        "fkgl": metrics.fkgl,
    }


def metrics_from_record(record: Mapping[str, Any]) -> MessageMetrics:
    faith = record["faithfulness"]
    return MessageMetrics(
        message_id=str(record["message_id"]),
        condition=Condition(record["condition"]),
        correctness=finite_float(record["correctness"]),
        fkgl=finite_float(record["fkgl"]),
        faithfulness=None if faith is None else finite_float(faith),
    )


@dataclass(frozen=True)
class MeanStd:
    mean: float
    std: float


@dataclass(frozen=True)
class ConditionReport:
    condition: Condition
    n: int
    correctness: MeanStd
    fkgl: MeanStd
    faithfulness: MeanStd | None


def _mean_std(values: Sequence[float]) -> MeanStd:
    # Sample (n-1) standard deviation; defined as 0 for a single value.
    return MeanStd(mean=mean(values), std=stdev(values) if len(values) > 1 else 0.0)


def aggregate_report(metrics: Sequence[MessageMetrics]) -> tuple[ConditionReport, ...]:
    """Mean and sample std of each metric per condition with rows, in `Condition`
    order. Faithfulness is omitted for a condition without evidence."""
    if not metrics:
        raise EvaluationError("no metric rows to aggregate")
    rows = []
    for condition in Condition:
        group = [m for m in metrics if m.condition is condition]
        if not group:
            continue
        faith: MeanStd | None = None
        if condition.wants_evidence:
            values = [m.faithfulness for m in group]
            if any(v is None for v in values):
                raise EvaluationError(
                    f"condition {condition.value} has rows without faithfulness scores"
                )
            faith = _mean_std([v for v in values if v is not None])
        rows.append(
            ConditionReport(
                condition=condition,
                n=len(group),
                correctness=_mean_std([m.correctness for m in group]),
                fkgl=_mean_std([m.fkgl for m in group]),
                faithfulness=faith,
            )
        )
    return tuple(rows)


def report_to_json(report: Sequence[ConditionReport]) -> dict[str, object]:
    conditions = []
    for row in report:
        entry: dict[str, object] = {
            "condition": row.condition.value,
            "label": CONDITION_LABELS[row.condition],
            "n": row.n,
            "correctness": {"mean": row.correctness.mean, "std": row.correctness.std},
            "fkgl": {"mean": row.fkgl.mean, "std": row.fkgl.std},
            "faithfulness": None
            if row.faithfulness is None
            else {"mean": row.faithfulness.mean, "std": row.faithfulness.std},
        }
        conditions.append(entry)
    return {"conditions": conditions}


def render_report_table(report: Sequence[ConditionReport]) -> str:
    """Aligned plain-text table with one row per condition."""
    header = ("Condition", "Faithfulness", "Correctness", "FKGL")
    rows = [header]
    for row in report:
        faith = (
            "--"
            if row.faithfulness is None
            else f"{row.faithfulness.mean:.3f} ± {row.faithfulness.std:.3f}"
        )
        rows.append(
            (
                CONDITION_LABELS[row.condition],
                faith,
                f"{row.correctness.mean:.3f} ± {row.correctness.std:.3f}",
                f"{row.fkgl.mean:.2f} ± {row.fkgl.std:.2f}",
            )
        )
    widths = [max(len(r[col]) for r in rows) for col in range(4)]
    lines = []
    for r in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"
