"""Shared word lists and token patterns.

Houses the pinned stopword list, the risk-token patterns that exempt words
from it in `is_content_token` (the one content-word rule), and the risk-cue
word list used by the offline entailment scorer. All are versioned so metric
values stay stable across runs.
"""

from __future__ import annotations

import re
import string
from functools import lru_cache

STOPWORDS_VERSION = "en-core-v1"

# Entries per per-word memo (evaluation's token memos, `is_content_token`);
# fixed, so remote text cannot grow memory unbounded.
TOKEN_MEMO_SIZE = 1 << 16

# Common English function words. Pinned here (rather than pulled from an NLP
# package) so evidence filtering and faithfulness scores are reproducible.
STOPWORDS: frozenset[str] = frozenset(
    """
    a about above across after again against all along also am among an and
    any are aren't around as at
    be because been before behind being below beneath beside between beyond
    both but by
    can cannot could couldn't
    despite did didn't do does doesn't doing don't down during
    each either else ever every
    few for from further
    had hadn't has hasn't have haven't having he her here hers herself him
    himself his how however
    i if i'm in inside into is isn't it it's its itself i've
    just
    may me might mightn't mine more most much must mustn't my myself
    near neither no none nor not now
    of off on once only onto or other others our ours ourselves out outside
    over own
    per
    rather
    same shall she she's should shouldn't since so some such
    than that that'll the their theirs them themselves then there these they
    this those though through throughout till to too toward towards
    under underneath until unto up upon us
    very via
    was wasn't we were weren't what when whenever where whether which while
    who whom whose why will with within without would wouldn't
    yet you you'd you'll your you're yours yourself yourselves you've
    """.split()
)

# Currency denominations recognized when glued to a digit ("500usd").
_CURRENCY_WORDS = r"usd|eur|gbp|jpy|krw|dollars?|euros?|pounds?|yen|won|cents?|bucks?"

# URL-like: a scheme separator anywhere, or a shortener-style host/path shape.
URL_PATTERN = re.compile(r"://|\b\w+\.[a-z]{2,}/", re.IGNORECASE)
CURRENCY_PATTERN = re.compile(rf"[$€£¥₩]|\d(?:{_CURRENCY_WORDS})\b", re.IGNORECASE)
EMPHATIC_PATTERN = re.compile(r"[!?]{2,}")


def is_risk_token(token: str) -> bool:
    """True for tokens that carry risk signal on their surface form.

    Such tokens bypass stopword filtering and are never reshaped by the
    lemmatizer: URL-like strings, currency mentions, and emphatic
    punctuation runs.
    """
    return bool(
        URL_PATTERN.search(token)
        or CURRENCY_PATTERN.search(token)
        or EMPHATIC_PATTERN.search(token)
    )


def is_stopword_surface(word: str) -> bool:
    """Stopword test on a raw token: lowercased, edge punctuation stripped.

    A token of ASCII punctuation alone ("--", "...") strips to nothing, has
    no content and counts as a stopword.
    """
    stripped = word.lower().strip(string.punctuation)
    return not stripped or stripped in STOPWORDS


@lru_cache(maxsize=TOKEN_MEMO_SIZE)
def is_content_token(token: str) -> bool:
    """A risk token, or not a stopword surface: the rule evidence filtering keeps
    words by and faithfulness counts explanation tokens by, so an echoed
    evidence word is never dropped on one side only."""
    return is_risk_token(token) or not is_stopword_surface(token)


# Word list for the deterministic offline entailment scorer: surface forms of
# cues that a risk-supporting explanation is expected to mention. Matched on
# lemmas, see scamlens.evaluation.
RISK_CUE_WORDS: frozenset[str] = frozenset(
    """
    urgent urgently urgency immediately hurry deadline expire expires expired
    suspend suspended verify verification confirm click clicking tap link
    account password login credential credentials prize winner reward bonus
    cash money pay payment transfer bank gift free claim refund fee redeem
    limited exclusive giveaway discount unsafe suspicious deceptive scam fraud
    fraudulent phishing impersonation flagged alert locked blocked frozen
    """.split()
)
