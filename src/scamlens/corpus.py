"""Multi-channel message corpus: ingestion, formatting, sampling, filtering.

Messages arrive from email, SMS, or social feeds, get normalized into a
channel-tagged canonical form, and are filtered down to the subset the
explanation stages consume. All operations are pure functions of their
inputs plus an explicit seed, so corpora and samples reproduce exactly.
"""

from __future__ import annotations

import json
import math
import random
import string
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar


class Channel(Enum):
    EMAIL = "email"
    SMS = "sms"
    SNS = "sns"


class Label(Enum):
    SCAM = "scam"
    HAM = "ham"


CHANNEL_MARKERS: dict[Channel, str] = {
    Channel.EMAIL: "<Email>",
    Channel.SMS: "<SMS>",
    Channel.SNS: "<SNS>",
}

MARKER_TOKENS: frozenset[str] = frozenset(CHANNEL_MARKERS.values())

# Raw labels accepted on input records.
LABEL_ALIASES: dict[str, Label] = {"spam": Label.SCAM, "scam": Label.SCAM, "ham": Label.HAM}

# Bodies longer than this many whitespace tokens are front-truncated before
# explanation; a noise guard, not a model constraint.
EXPLANATION_TOKEN_CAP = 1500

# English heuristic: fraction of characters that must be plain ASCII
# letters/digits/punctuation/whitespace.
ENGLISH_ASCII_MIN_FRACTION = 0.90


class CorpusError(Exception):
    """A corpus-stage failure."""


@dataclass(frozen=True)
class Message:
    """One channel-tagged communication item."""

    id: str
    channel: Channel
    body: str
    label: Label
    subject: str | None = None
    source: str = ""

    def __post_init__(self) -> None:
        if not self.body.strip():
            raise ValueError(f"message {self.id!r}: body is empty")
        if self.subject is not None and self.channel is not Channel.EMAIL:
            raise ValueError(f"message {self.id!r}: subject is only valid for email")


@dataclass(frozen=True)
class FormattedText:
    """Detector-ready text beginning with exactly one channel marker."""

    text: str
    channel_marker: str

    def __post_init__(self) -> None:
        if self.channel_marker not in MARKER_TOKENS:
            raise ValueError(f"unknown channel marker {self.channel_marker!r}")
        if not self.text.startswith(self.channel_marker + " "):
            raise ValueError("formatted text must start with its channel marker and a space")


@dataclass(frozen=True)
class MessageSet:
    """An immutable, ordered collection of messages with unique ids."""

    messages: tuple[Message, ...]

    def __post_init__(self) -> None:
        counts = Counter(m.id for m in self.messages)
        dupes = sorted(i for i, n in counts.items() if n > 1)
        if dupes:
            raise ValueError(f"duplicate message ids: {dupes[:5]}")

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)


def ingest_jsonl(path: str | Path, channel: Channel) -> MessageSet:
    """A JSON-lines file of raw field-maps as Messages on `channel`, each parsed
    by `message_from_record`; the source defaults to "ingest"."""
    def parse(raw: Mapping[str, Any]) -> Message:
        source = raw.get("source") or "ingest"
        return message_from_record({**raw, "channel": channel.value, "source": source})

    return _message_set(read_jsonl(path, parse), path)


def format_input(message: Message) -> FormattedText:
    """Prepend the channel marker; email joins subject and body with a newline."""
    marker = CHANNEL_MARKERS[message.channel]
    if message.subject:
        content = f"{message.subject}\n{message.body}"
    else:
        content = message.body
    return FormattedText(text=f"{marker} {content}", channel_marker=marker)


T = TypeVar("T")


def truncate_front(tokens: Sequence[T], limit: int) -> list[T]:
    """Keep the last `limit` tokens, preserving order; no-op when short enough."""
    if limit <= 0:
        raise ValueError(f"limit must be positive, got {limit}")
    if len(tokens) <= limit:
        return list(tokens)
    return list(tokens[-limit:])


def stratified_sample(message_set: MessageSet, per_channel_per_label: int, seed: int) -> MessageSet:
    """Select exactly N scam and N ham messages per channel, deterministically."""
    if per_channel_per_label <= 0:
        raise CorpusError(f"per_channel_per_label must be positive, got {per_channel_per_label}")
    rng = random.Random(seed)
    selected: list[int] = []
    present = {m.channel for m in message_set}
    for channel in Channel:
        if channel not in present:
            continue
        for label in (Label.SCAM, Label.HAM):
            stratum = [
                i
                for i, m in enumerate(message_set.messages)
                if m.channel is channel and m.label is label
            ]
            if len(stratum) < per_channel_per_label:
                raise CorpusError(
                    f"{channel.value}/{label.value}: requested {per_channel_per_label}, "
                    f"have {len(stratum)}"
                )
            selected.extend(rng.sample(stratum, per_channel_per_label))
    selected.sort()
    return MessageSet(tuple(message_set.messages[i] for i in selected))


def _is_plain_ascii(ch: str) -> bool:
    return ch.isascii() and (ch.isalnum() or ch in string.punctuation or ch.isspace())


# `str.translate` table deleting every plain-ASCII character. Only ASCII can
# be plain, so the 128 ASCII code points decide it.
_DROP_PLAIN = {cp: None for cp in range(128) if _is_plain_ascii(chr(cp))}


def is_mostly_ascii_english(text: str) -> bool:
    """Transparent stand-in for language detection: share of plain-ASCII chars."""
    if not text:
        return False
    ok = len(text) - len(text.translate(_DROP_PLAIN))
    return ok / len(text) >= ENGLISH_ASCII_MIN_FRACTION


def filter_for_explanation(
    message_set: MessageSet, predictions: Mapping[str, Label]
) -> MessageSet:
    """Keep correctly-classified scam messages suitable for explanation.

    Retains messages whose true and predicted labels are both scam, drops
    non-English-looking bodies, and front-truncates bodies longer than the
    explanation token cap.
    """
    kept = []
    for message in message_set:
        if message.id not in predictions:
            raise CorpusError(f"no prediction for message {message.id!r}")
        if message.label is not Label.SCAM or predictions[message.id] is not Label.SCAM:
            continue
        if not is_mostly_ascii_english(message.body):
            continue
        words = message.body.split()
        if len(words) > EXPLANATION_TOKEN_CAP:
            message = replace(message, body=" ".join(truncate_front(words, EXPLANATION_TOKEN_CAP)))
        kept.append(message)
    return MessageSet(tuple(kept))


# ---------------------------------------------------------------------------
# Synthetic corpus
#
# Desk-scale substitute for the public datasets: templated scam messages
# built from urgency terms, reward phrases, shortened-URL-like strings, and
# currency mentions, plus mundane benign messages. Scam and ham content
# vocabularies are disjoint, so the corpus is linearly separable by
# construction.
# ---------------------------------------------------------------------------

_NAMES = ("Alex", "Jordan", "Sam", "Riley", "Casey", "Morgan", "Taylor", "Quinn")
_AMOUNTS = (45, 60, 80, 250, 500, 750, 900, 1200)
_HOURS = (12, 24, 48)
_SHORTENERS = ("snip.ly", "lnk.do", "bit.ly", "t.co")
_CODE_ALPHABET = "abcdefghjkmnpqrstuvwxyz23456789"

_EMAIL_SCAM = (
    ("Urgent security alert", "Your account was locked after unusual activity. Verify your password within {hours} hours at {url} or access will be suspended."),
    ("You are our winner", "Congratulations {name}! You won a ${amount} gift card. Claim your prize today at {url} before it expires."),
    ("Final notice on your refund", "A tax refund of ${amount} is waiting. Confirm your bank details at {url} immediately to receive the transfer."),
    ("Payment required for delivery", "Your package is on hold. Pay the ${amount} customs fee at {url} today or the parcel returns to sender."),
    ("Exclusive bonus inside", "Limited offer!! Redeem a ${amount} cash bonus now. Click {url} and enter code {code} before midnight."),
)

_EMAIL_HAM = (
    ("Meeting notes", "Hi {name}, the notes from the Tuesday sync are attached. Tell me if anything needs fixing."),
    ("Lunch tomorrow", "Hi {name}, are we still on for lunch at noon tomorrow? The new ramen spot sounds fun."),
    ("Weekend plans", "Hi {name}, grandma is visiting this weekend. Could you pick up groceries for dinner on Saturday?"),
    ("Project draft", "Hi {name}, the first draft of the report is ready. I left comments in the shared folder near the figures."),
    ("Book club", "Hi {name}, we moved book club to Thursday. Chapter twelve was great, bring your favorite quote."),
)

_SMS_SCAM = (
    "URGENT: your bank card is frozen. Unlock it now at {url} or the account stays blocked.",
    "You won ${amount} in the holiday draw!! Claim at {url} within {hours} hours.",
    "Delivery failed. Pay the ${amount} redelivery fee at {url} today.",
    "Final chance {name}: redeem your ${amount} reward with code {code} at {url} before midnight!!",
    "Security alert!! Unusual login on your account. Verify now at {url}.",
)

_SMS_HAM = (
    "Running ten minutes late, order me a coffee please",
    "Practice moved to six, can you grab my cleats",
    "Movie tonight? The early one so we can eat after",
    "Happy birthday! Cake at ours on Sunday, bring whatever you like",
    "Train is delayed again, start dinner without me",
)

_SNS_SCAM = (
    "Get 5000 free followers instantly!! Tap {url} and log in with your account",
    "Flash giveaway: win a ${amount} gift card. Claim at {url} before midnight!!",
    "Your profile was flagged. Verify your password at {url} within {hours} hours or lose access",
    "Crypto deal of the day: turn ${amount} into double overnight. Transfer via {url} now",
    "Exclusive discount with code {code}: everything free today only at {url}!!",
)

_SNS_HAM = (
    "The sunset from the trail tonight was unreal, photo dump soon",
    "Made grandma's dumpling recipe and the kitchen survived",
    "Our team pulled off the comeback, what a game",
    "Museum day with the cousins, the whale skeleton wins again",
    "New coffee spot on fifth has the best oat latte, fight me",
)


def _fill(template: str, rng: random.Random) -> str:
    return template.format(
        name=rng.choice(_NAMES),
        amount=rng.choice(_AMOUNTS),
        hours=rng.choice(_HOURS),
        url=f"{rng.choice(_SHORTENERS)}/{''.join(rng.choice(_CODE_ALPHABET) for _ in range(5))}",
        code="".join(rng.choice(_CODE_ALPHABET) for _ in range(6)).upper(),
    )


def synth_corpus(seed: int, per_channel_per_label: int) -> MessageSet:
    """Deterministic synthetic corpus: N scam and N ham messages per channel."""
    if per_channel_per_label <= 0:
        raise ValueError("per_channel_per_label must be positive")
    rng = random.Random(seed)
    messages = []
    plans = (
        (Channel.EMAIL, Label.SCAM, _EMAIL_SCAM),
        (Channel.EMAIL, Label.HAM, _EMAIL_HAM),
        (Channel.SMS, Label.SCAM, _SMS_SCAM),
        (Channel.SMS, Label.HAM, _SMS_HAM),
        (Channel.SNS, Label.SCAM, _SNS_SCAM),
        (Channel.SNS, Label.HAM, _SNS_HAM),
    )
    for channel, label, templates in plans:
        for i in range(per_channel_per_label):
            template = templates[i % len(templates)]
            if channel is Channel.EMAIL:
                subject, body_template = template
                subject = _fill(subject, rng)
                body = _fill(body_template, rng)
            else:
                subject = None
                body = _fill(template, rng)
            messages.append(
                Message(
                    id=f"synth-{channel.value}-{label.value}-{i:04d}",
                    channel=channel,
                    body=body,
                    label=label,
                    subject=subject,
                    source="synth",
                )
            )
    return MessageSet(tuple(messages))


# ---------------------------------------------------------------------------
# JSON Lines persistence
# ---------------------------------------------------------------------------


def message_to_record(message: Message) -> dict[str, object]:
    record: dict[str, object] = {
        "id": message.id,
        "channel": message.channel.value,
        "body": message.body,
        "label": message.label.value,
        "source": message.source,
    }
    if message.subject is not None:
        record["subject"] = message.subject
    return record


def message_from_record(record: Mapping[str, Any]) -> Message:
    """Parse one corpus record. The subject is kept for email only, and a
    missing id stays empty until `_message_set` assigns one."""
    raw_channel = str(record.get("channel", "")).strip().lower()
    try:
        channel = Channel(raw_channel)
    except ValueError:
        raise CorpusError(f"unknown channel {raw_channel!r}") from None
    raw_label = record.get("label")
    if raw_label is None:
        raise CorpusError("record missing label")
    label = LABEL_ALIASES.get(str(raw_label).strip().lower())
    if label is None:
        raise CorpusError(f"cannot map label {raw_label!r}")
    body = record.get("body")
    if body is None or not str(body).strip():
        raise CorpusError("record missing body")
    subject = record.get("subject") if channel is Channel.EMAIL else None
    return Message(
        id=str(record.get("id") or ""),
        channel=channel,
        body=str(body),
        label=label,
        subject=None if subject is None else str(subject),
        source=str(record.get("source") or ""),
    )


def _message_set(messages: Iterable[Message], origin: str | Path) -> MessageSet:
    """A message without an id gets `{source}:{channel}:{number}`, numbered
    from 0 in input order, so ids never depend on the file path. Duplicate
    ids raise a CorpusError naming `origin`."""
    numbered = tuple(
        m if m.id else replace(m, id=f"{m.source}:{m.channel.value}:{number:06d}")
        for number, m in enumerate(messages)
    )
    try:
        return MessageSet(numbered)
    except ValueError as exc:
        raise CorpusError(f"{origin}: {exc}") from None


_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, allow_nan=False)


def written_jsonl(path: str | Path, items: Iterable[T], to_record: Callable[[T], Mapping]) -> Iterator[T]:
    """Each item, passed on once `to_record(item)` is written to `path` as a JSON line with
    sorted keys; the only JSON-lines writer. The file opens when the first item is asked for.
    Like `read_jsonl`, it refuses NaN and the infinities."""
    with open(path, "w", encoding="utf-8") as handle:
        for item in items:
            handle.write(_JSONL_ENCODER.encode(to_record(item)) + "\n")
            yield item


def write_jsonl(path: str | Path, records: Iterable[Mapping[str, Any]]) -> None:
    for _ in written_jsonl(path, records, lambda record: record):
        pass


def finite_float(value: Any) -> float:
    """`float(value)`, refusing NaN and the infinities; the record parsers'
    one rule for a float field, and `read_jsonl`'s for a NaN or Infinity literal."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value} is not a finite number")
    return number


def read_jsonl(path: str | Path, parse: Callable[[Mapping[str, Any]], T]) -> list[T]:
    """Parse each non-blank line with `parse`; the only JSON-lines reader.
    Invalid UTF-8 or JSON, a NaN or Infinity literal, a non-object line or a
    `parse` failure raises a CorpusError naming the file and the line number."""
    parsed = []
    with open(path, "rb") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"), parse_constant=finite_float)
                if not isinstance(record, dict):
                    raise TypeError(f"expected a JSON object, got {type(record).__name__}")
                parsed.append(parse(record))
            except (CorpusError, KeyError, TypeError, ValueError) as exc:
                raise CorpusError(
                    f"{path}: record {number} is malformed ({type(exc).__name__}: {exc})"
                ) from None
    return parsed


def save_jsonl(message_set: MessageSet, path: str | Path) -> None:
    write_jsonl(path, map(message_to_record, message_set))


def load_jsonl(path: str | Path) -> MessageSet:
    return _message_set(read_jsonl(path, message_from_record), path)
