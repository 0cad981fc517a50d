from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import gradient_shap_reference, make_model
from scamlens import attribution, lexicon
from scamlens.attribution import (
    AttributionConfig,
    AttributionError,
    EvidenceSet,
    aggregate_to_words,
    completeness_gap,
    evidence_from_record,
    evidence_to_record,
    filter_evidence,
    gradient_shap,
)
from scamlens.corpus import MARKER_TOKENS, Label, format_input
from scamlens.detector import PAD_ID, TokenizedInput, tokenize


def frozen_random_model(seed=0, activation="tanh"):
    return make_model(np.random.default_rng(seed), activation=activation)


def simple_input(model, n=6, start=5):
    ids = tuple(range(start, start + n))
    assert max(ids) < len(model.vocab)
    return TokenizedInput(ids, tuple(range(n)), tuple(f"w{i}" for i in range(n)))


class TestGradientShap:
    def test_baseline_input_gets_zero_scores(self):
        model = frozen_random_model(1)
        tok = TokenizedInput((PAD_ID,) * 3, (0, 1, 2), ("a", "b", "c"))
        scores = gradient_shap(model, tok, AttributionConfig(n_samples=8, seed=0))
        assert scores == (0.0, 0.0, 0.0)

    def test_one_python_float_per_piece(self):
        model = frozen_random_model(1)
        tok = simple_input(model)
        scores = gradient_shap(model, tok, AttributionConfig(n_samples=8, seed=0))
        assert isinstance(scores, tuple) and len(scores) == len(tok.piece_ids)
        assert all(type(s) is float for s in scores)

    @pytest.mark.parametrize("n_samples", [1, 16, 256])
    def test_linear_model_completeness(self, n_samples):
        model = frozen_random_model(2, activation="identity")
        tok = simple_input(model)
        scores = gradient_shap(
            model, tok, AttributionConfig(n_samples=n_samples, noise_std=0.0, seed=9)
        )
        assert completeness_gap(model, tok, scores) < 1e-9

    def test_deterministic_given_seed(self):
        model = frozen_random_model(3)
        tok = simple_input(model)
        config = AttributionConfig(n_samples=32, seed=17)
        assert gradient_shap(model, tok, config) == gradient_shap(model, tok, config)

    def test_seed_changes_output(self):
        model = frozen_random_model(3)
        tok = simple_input(model)
        a = gradient_shap(model, tok, AttributionConfig(n_samples=32, seed=1))
        b = gradient_shap(model, tok, AttributionConfig(n_samples=32, seed=2))
        assert a != b

    def test_zero_samples_rejected(self):
        model = frozen_random_model(0)
        tok = simple_input(model)
        with pytest.raises(ValueError, match="n_samples must be >= 1"):
            gradient_shap(model, tok, AttributionConfig(n_samples=0, seed=0))

    def test_sampling_error_shrinks_with_more_samples(self, frozen_model, small_corpus):
        from scamlens.corpus import Label

        scams = [m for m in small_corpus if m.label is Label.SCAM][:10]

        def mean_gap(n_samples):
            total = 0.0
            for i, message in enumerate(scams):
                tok = tokenize(
                    format_input(message), frozen_model.vocab, frozen_model.piece_limit
                )
                scores = gradient_shap(
                    frozen_model,
                    tok,
                    AttributionConfig(n_samples=n_samples, noise_std=0.0, seed=100 + i),
                )
                total += completeness_gap(frozen_model, tok, scores)
            return total / len(scams)

        assert mean_gap(1024) <= mean_gap(16)

    def test_chunked_sampling_matches_single_pass(self):
        # Many samples are drawn and evaluated as one batch; the result stays
        # a pure function of the seed.
        model = frozen_random_model(5)
        tok = simple_input(model)
        config = AttributionConfig(n_samples=300, seed=4)
        assert gradient_shap(model, tok, config) == gradient_shap(model, tok, config)

    def test_memory_does_not_grow_with_input_length(self):
        # Noise is drawn on the pooled vector, so the sample batch costs
        # O(n_samples * d) whatever the number of pieces.
        model = frozen_random_model(6)
        n = 512
        ids = tuple(5 + i % (len(model.vocab) - 5) for i in range(n))
        tok = TokenizedInput(ids, tuple(range(n)), tuple(f"w{i}" for i in range(n)))
        tracemalloc.start()
        try:
            gradient_shap(model, tok, AttributionConfig(n_samples=256, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def cycled_input(model, n):
    ids = tuple(5 + i % (len(model.vocab) - 5) for i in range(n))
    return TokenizedInput(ids, tuple(range(n)), tuple(f"w{i}" for i in range(n)))


def float_bytes(scores):
    # Bitwise comparison: `==` would equate 0.0 with -0.0.
    return np.array(scores, dtype=np.float64).tobytes()


class TestSharedDraws:
    """The draws shared across messages give the scores a fresh generator
    per message gives, bit for bit."""

    @pytest.mark.parametrize("noise_std", [0.0, 0.01, 0.5])
    def test_matches_per_message_rng_oracle(self, noise_std):
        model = frozen_random_model(4)
        for seed in (0, 3, 2**31 + 5):
            config = AttributionConfig(n_samples=32, noise_std=noise_std, seed=seed)
            for n in (1, 2, 7, 64, 512, 7):
                tok = cycled_input(model, n)
                expected = gradient_shap_reference(model, tok, config)
                assert float_bytes(gradient_shap(model, tok, config)) == float_bytes(expected)

    def test_matches_oracle_on_trained_model(self, frozen_model, small_corpus):
        config = AttributionConfig(n_samples=64, seed=11)
        scams = [m for m in small_corpus if m.label is Label.SCAM][:20]
        for message in scams:
            tok = tokenize(format_input(message), frozen_model.vocab, frozen_model.piece_limit)
            expected = gradient_shap_reference(frozen_model, tok, config)
            assert float_bytes(gradient_shap(frozen_model, tok, config)) == float_bytes(expected)

    def test_shared_draws_are_read_only(self):
        alphas, standard = attribution._draws(0, 8, 4)
        assert alphas.shape == (8,) and standard.shape == (8, 4)
        for array in (alphas, standard):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestAggregateToWords:
    def test_pieces_sum_into_their_word(self):
        tok = TokenizedInput((5, 6), (0, 0), ("winner",))
        out = aggregate_to_words((0.2, 0.3), tok)
        assert out == {0: pytest.approx(0.5)}

    def test_single_piece_word_is_identity(self):
        tok = TokenizedInput((5,), (0,), ("urgent",))
        out = aggregate_to_words((0.7,), tok)
        assert out == {0: 0.7}

    def test_length_mismatch_rejected(self):
        tok = TokenizedInput((5,), (0,), ("urgent",))
        with pytest.raises(AttributionError, match="2 piece scores vs alignment of 1"):
            aggregate_to_words((0.1, 0.2), tok)

    @given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=10), st.data())
    @settings(max_examples=50)
    def test_total_score_conserved(self, pieces_per_word, data):
        alignment = tuple(
            word for word, count in enumerate(pieces_per_word) for _ in range(count)
        )
        scores = tuple(
            data.draw(
                st.floats(min_value=-10, max_value=10, allow_nan=False, allow_infinity=False)
            )
            for _ in alignment
        )
        tok = TokenizedInput(
            tuple(5 for _ in alignment), alignment, tuple(f"w{i}" for i in pieces_per_word)
        )
        out = aggregate_to_words(scores, tok)
        assert sum(out.values()) == pytest.approx(sum(scores), abs=1e-12)


class TestFilterEvidence:
    def test_stopword_dropped_content_word_kept(self):
        scores, words = {0: 0.9, 1: 0.5}, ("the", "urgent")
        out = filter_evidence(scores, words, k=5)
        assert out.words() == ("urgent",)

    def test_currency_token_bypasses_stopword_filter(self):
        scores, words = {0: 0.9, 1: 0.1}, ("the", "$500")
        out = filter_evidence(scores, words, k=5)
        assert out.words() == ("$500",)

    def test_top_k_by_score(self):
        scores = {0: 0.1, 1: 0.5, 2: 0.3, 3: 0.9, 4: 0.2}
        words = ("alpha", "bravo", "charlie", "delta", "echo")
        out = filter_evidence(scores, words, k=2)
        assert out.words() == ("delta", "bravo")

    def test_ties_break_toward_earlier_position(self):
        scores, words = {0: 0.5, 1: 0.5}, ("bravo", "alpha")
        out = filter_evidence(scores, words, k=1)
        assert out.words() == ("bravo",)

    def test_channel_marker_never_appears(self):
        scores, words = {0: 5.0, 1: 0.1}, ("<SMS>", "urgent")
        out = filter_evidence(scores, words, k=5)
        assert out.words() == ("urgent",)

    def test_emphatic_stopword_retained(self):
        scores, words = {0: 0.4}, ("the!!",)
        out = filter_evidence(scores, words, k=5)
        assert out.words() == ("the!!",)

    def test_url_like_token_retained(self):
        scores, words = {0: -0.2}, ("bit.ly/abc12",)
        out = filter_evidence(scores, words, k=3)
        assert out.words() == ("bit.ly/abc12",)

    def test_punctuation_only_words_dropped(self):
        # They strip to nothing, so they carry no content (their lemma is "").
        # "!!" strips to nothing too, but is a risk token and stays.
        scores = {0: 0.9, 1: 0.8, 2: 0.7, 3: 0.6, 4: 0.1}
        words = ("--", "...", "-", "!!", "urgent")
        assert all(lexicon.is_stopword_surface(w) for w in words[:4])
        out = filter_evidence(scores, words, k=2)
        assert out.words() == ("!!", "urgent")

    def test_k_must_be_positive(self):
        scores, words = {0: 0.1}, ("urgent",)
        with pytest.raises(ValueError):
            filter_evidence(scores, words, k=0)

    def test_result_never_exceeds_k(self):
        with pytest.raises(ValueError):
            EvidenceSet(phrases=(("a", 0.1), ("b", 0.2)), k=1)

    def test_empty_result_is_legal(self):
        scores, words = {0: 0.9}, ("the",)
        out = filter_evidence(scores, words, k=5)
        assert out.phrases == ()


class TestEndToEndEvidence:
    def test_scam_cues_surface_in_evidence(self, frozen_model, small_corpus):
        from scamlens.corpus import Label

        scam = next(m for m in small_corpus if m.label is Label.SCAM)
        tok = tokenize(format_input(scam), frozen_model.vocab, frozen_model.piece_limit)
        piece_scores = gradient_shap(frozen_model, tok, AttributionConfig(n_samples=64, seed=0))
        evidence = filter_evidence(aggregate_to_words(piece_scores, tok), tok.words, k=8)
        assert 1 <= len(evidence.phrases) <= 8
        listed = [w for w, _ in evidence.phrases]
        assert all(w in tok.words for w in listed)
        scores = [s for _, s in evidence.phrases]
        assert scores == sorted(scores, reverse=True)

    def test_evidence_invariants_over_corpus(self, frozen_model, small_corpus):
        from scamlens.corpus import MARKER_TOKENS, Label
        from scamlens.lexicon import is_risk_token, is_stopword_surface

        scams = [m for m in small_corpus if m.label is Label.SCAM][:20]
        config = AttributionConfig(n_samples=32, seed=2)
        for message in scams:
            tok = tokenize(format_input(message), frozen_model.vocab, frozen_model.piece_limit)
            scores = aggregate_to_words(gradient_shap(frozen_model, tok, config), tok)
            for word, _ in filter_evidence(scores, tok.words, k=8).phrases:
                assert word not in MARKER_TOKENS
                assert is_risk_token(word) or not is_stopword_surface(word)


def _keeps_reference(word):
    if word in MARKER_TOKENS:
        return False
    return lexicon.is_risk_token(word) or not lexicon.is_stopword_surface(word)


def _filter_evidence_reference(scores, words, k):
    survivors = sorted(
        ((scores[p], p, words[p]) for p in scores if _keeps_reference(words[p])),
        key=lambda item: (-item[0], item[1]),
    )
    return tuple((word, score) for score, _, word in survivors[:k])


# Markers, risk tokens, stopwords in several cases and with edge punctuation,
# punctuation-only tokens, content words and arbitrary text.
_EVIDENCE_WORDS = st.one_of(
    st.sampled_from(sorted(MARKER_TOKENS) + ["<sms>", "<Email>,"]),
    st.sampled_from(["$500", "bit.ly/x", "HTTP://X.CO/A", "500USD", "500usd", "now!!", "it??", "€20,"]),
    st.sampled_from(["The", "the", "THE", "it's,", "(you)", "IF:", "you're.", "--", "...", "-", "!", "?!"]),
    st.sampled_from(["urgent", "Urgent", "URGENT!", "click", "prize.", "café", "日本語", "—"]),
    st.text(min_size=1, max_size=8),
)


class TestEvidenceKeepMemo:
    @given(st.lists(_EVIDENCE_WORDS, min_size=1, max_size=30), st.data())
    @settings(max_examples=200, deadline=None)
    def test_memoized_keep_test_matches_uncached_rule(self, words, data):
        for word in words:
            assert (word not in MARKER_TOKENS and lexicon.is_content_token(word)) == _keeps_reference(word)
        positions = data.draw(st.sets(st.integers(0, len(words) - 1)))
        scores = {
            p: data.draw(st.one_of(st.sampled_from([0.0, 0.5, -0.5]), st.floats(-1, 1)))
            for p in positions
        }
        k = data.draw(st.integers(1, 10))
        for _ in range(2):
            assert filter_evidence(scores, words, k).phrases == _filter_evidence_reference(
                scores, words, k
            )

    def test_memo_is_bounded(self):
        assert lexicon.is_content_token.cache_info().maxsize == lexicon.TOKEN_MEMO_SIZE

    def test_tests_words_in_rank_order_until_it_has_k(self, monkeypatch):
        tested = []

        def keeps(word):
            tested.append(word)
            return word != "the"

        monkeypatch.setattr(lexicon, "is_content_token", keeps)
        words = ("low", "the", "top", "mid", "tie", "last")
        scores = {0: 0.1, 1: 0.9, 2: 0.8, 3: 0.5, 4: 0.5, 5: -0.2}
        evidence = filter_evidence(scores, words, k=3)
        assert evidence.phrases == (("top", 0.8), ("mid", 0.5), ("tie", 0.5))
        assert tested == ["the", "top", "mid", "tie"]


@st.composite
def evidence_sets(draw):
    phrases = draw(
        # `evidence_from_record` refuses a score that is not finite.
        st.lists(st.tuples(st.text(), st.floats(allow_nan=False, allow_infinity=False)), max_size=8).map(tuple)
    )
    k = draw(st.integers(min_value=max(1, len(phrases)), max_value=64))
    return EvidenceSet(phrases=phrases, k=k)


class TestEvidenceRecord:
    @given(st.text(), evidence_sets(), st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_json(self, message_id, evidence, seed):
        record = evidence_to_record(message_id, evidence, seed)
        text = json.dumps(record, sort_keys=True, ensure_ascii=False)
        assert evidence_from_record(json.loads(text)) == (message_id, evidence)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_refuses_a_score_that_is_not_finite(self, bad):
        with pytest.raises(ValueError, match="is not a finite number"):
            EvidenceSet(phrases=(("verify", 0.5), ("now", bad)), k=8)
