from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from scamlens import lexicon

# Letters whose lower-casing changes length or leaves ASCII: dotted capital I
# (two code points), dotless i, long s, and the Kelvin sign (to ASCII "k").
_ODD_LETTERS = "\u0130\u0131\u017f\u212a"


def _evidence_keep_reference(token):
    # The evidence filter's former keep-test, less its channel-marker check.
    return lexicon.is_risk_token(token) or not lexicon.is_stopword_surface(token)


def _content_lemma_reference(token):
    # The former test by which faithfulness lemmatized an explanation token.
    return not (lexicon.is_stopword_surface(token) and not lexicon.is_risk_token(token.lower()))


def _mixed_case(word):
    return st.tuples(*(st.sampled_from((ch.lower(), ch.upper())) for ch in word)).map("".join)


_EDGE = st.text(alphabet=string.punctuation, max_size=3)
_CORE = st.one_of(
    st.sampled_from(sorted(lexicon.STOPWORDS)).flatmap(_mixed_case),
    st.text(alphabet=string.punctuation, min_size=1, max_size=6),
    st.sampled_from(["$500", "bit.ly/x", "now!!", "bit.\u0130\u0130/x", "500\u212arw", "\u017f\u0131"]),
    st.text(alphabet=_ODD_LETTERS + "aeiknost'", min_size=1, max_size=6),
)
_TOKENS = st.tuples(_EDGE, _CORE, _EDGE).map("".join)


class TestContentToken:
    @given(_TOKENS)
    @settings(max_examples=500, deadline=None)
    def test_equals_the_rules_evidence_filtering_and_faithfulness_used(self, token):
        assert lexicon.is_content_token(token) == _evidence_keep_reference(token)
        assert lexicon.is_content_token(token) == _content_lemma_reference(token)

    def test_lower_casing_can_change_a_risk_match_but_not_on_a_stopword_surface(self):
        # The two former rules differ only where lower-casing changes a risk
        # match on a stopword surface; the first needs a non-ASCII letter,
        # which no stopword surface holds.
        token = "bit.\u0130\u0130/x"
        assert lexicon.is_risk_token(token) != lexicon.is_risk_token(token.lower())
        assert not lexicon.is_stopword_surface(token)
        assert all(word.isascii() and "k" not in word for word in lexicon.STOPWORDS)
