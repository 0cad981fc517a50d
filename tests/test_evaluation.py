from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scamlens import evaluation, lexicon
from scamlens.attribution import EvidenceSet
from scamlens.corpus import format_input, synth_corpus
from scamlens.evaluation import (
    CONDITION_LABELS,
    EvaluationConfig,
    EvaluationError,
    MessageMetrics,
    NliScores,
    RISK_HYPOTHESIS,
    aggregate_report,
    correctness,
    count_syllables,
    evidence_lemmas,
    explanation_lemmas,
    faithfulness,
    fkgl,
    lemmatize,
    metrics_from_record,
    metrics_to_record,
    mock_score_nli,
    render_report_table,
    report_to_json,
    score_nli,
    split_sentences,
)
from scamlens.generation import Condition, EndpointConfig, Explanation, GeneratorKind


def make_explanation(text, condition=Condition.XAI_ONLY, mid="m1"):
    return Explanation(
        message_id=mid,
        condition=condition,
        text=text,
        generator=GeneratorKind.MOCK,
        model_name="mock",
    )


def make_evidence(*words):
    return EvidenceSet(phrases=tuple((w, 0.1) for w in words), k=max(len(words), 1))


class TestLemmatize:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("Clicking", "click"),
            ("urgent", "urgent"),
            ("prizes", "prize"),
            ("companies", "company"),
            ("classes", "class"),
            ("boxes", "box"),
            ("wishes", "wish"),
            ("locked", "lock"),
            ("Verify.", "verify"),
            ("expires,", "expire"),
            ("THE", "the"),
        ],
    )
    def test_suffix_rules(self, token, expected):
        assert lemmatize(token) == expected

    @pytest.mark.parametrize("token", ["$500", "bit.ly/abc12", "now!!", "really??"])
    def test_risk_tokens_pass_through_lowercased_only(self, token):
        assert lemmatize(token) == token.lower()
        assert lemmatize(token.upper()) == token.lower()

    def test_short_stems_protected(self):
        assert lemmatize("sing") == "sing"
        assert lemmatize("red") == "red"
        assert lemmatize("its") == "its"

    def test_punctuation_only_token_becomes_empty(self):
        assert lemmatize(",") == ""

    def test_idempotent_over_corpus_words(self):
        seen = set()
        for message in synth_corpus(seed=7, per_channel_per_label=100):
            seen.update(format_input(message).text.split())
        for word in sorted(seen):
            once = lemmatize(word)
            assert lemmatize(once) == once, word


class TestFaithfulness:
    def test_full_overlap(self):
        evidence = make_evidence("urgent", "click", "prize")
        explanation = make_explanation("This is urgent : click nothing , the prize is fake.")
        assert faithfulness(evidence, explanation) == 1.0

    def test_partial_overlap_is_exact_fraction(self):
        evidence = make_evidence("urgent", "click", "prize")
        explanation = make_explanation("Never click a link to claim a prize.")
        assert faithfulness(evidence, explanation) == pytest.approx(2 / 3)

    def test_empty_evidence_rejected(self):
        evidence = EvidenceSet(phrases=(), k=8)
        with pytest.raises(EvaluationError, match="evidence set is empty, cannot score"):
            faithfulness(evidence, make_explanation("whatever text"))

    def test_membership_is_lemma_equality_not_substring(self):
        evidence = make_evidence("click")
        explanation = make_explanation("clicks clicking clicked")
        # Every surface form lemmatizes to "click", so this counts.
        assert faithfulness(evidence, explanation) == 1.0
        unrelated = make_explanation("clickbaity")
        assert faithfulness(evidence, unrelated) == 0.0

    def test_matches_brute_force_recomputation_on_random_pairs(self):
        pool = [
            "urgent", "click", "prize", "winner", "verify", "account", "bank",
            "transfer", "deadline", "reward", "$500", "bit.ly/ab1cd", "now!!",
            "package", "refund", "password", "gift", "bonus", "expired", "claims",
        ]
        filler = ["please", "consider", "carefully", "report", "anyone", "today"]
        rng = random.Random(12345)
        for _ in range(100):
            words = rng.sample(pool, rng.randint(1, 8))
            evidence = make_evidence(*words)
            mentioned = [w for w in words if rng.random() < 0.6]
            text_tokens = mentioned + rng.sample(filler, rng.randint(1, 4))
            rng.shuffle(text_tokens)
            explanation = make_explanation(" ".join(text_tokens) + ".")

            # Independent oracle: explicit set construction by nested loops.
            reference = []
            for w in words:
                lemma = lemmatize(w)
                if lemma and lemma not in reference:
                    reference.append(lemma)
            hits = 0
            explanation_lemmas = [lemmatize(t) for t in explanation.text.split()]
            for lemma in reference:
                if any(t == lemma for t in explanation_lemmas):
                    hits += 1
            expected = hits / len(reference)

            assert faithfulness(evidence, explanation) == pytest.approx(expected)

    @given(st.data())
    @settings(max_examples=40)
    def test_monotone_in_explanation_content(self, data):
        pool = ["urgent", "click", "prize", "verify", "bank", "reward"]
        words = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
        base_text = data.draw(st.sampled_from(["stay away from this", "report and move on"]))
        evidence = make_evidence(*words)
        added = data.draw(st.sampled_from(words))
        before = faithfulness(evidence, make_explanation(base_text))
        after = faithfulness(evidence, make_explanation(base_text + " " + added))
        assert after >= before


class TestExplanationTokens:
    def test_drops_stopwords_and_empties(self):
        lemmas = explanation_lemmas("The urgent , thing is the link .")
        assert "the" not in lemmas
        assert "" not in lemmas
        assert "urgent" in lemmas
        assert "link" in lemmas

    def test_evidence_lemmas_deduplicate(self):
        evidence = make_evidence("click", "clicks")
        assert evidence_lemmas(evidence) == frozenset({"click"})


# Tokens of the kinds explanations hold: template words, stopwords with edge
# punctuation, risk tokens, numbers, bare punctuation and non-ASCII letters.
_MEMO_TOKENS = st.one_of(
    st.sampled_from(
        ["Take", "breath.", "scam.", "signs", "cues", "indicators", "fraudulent",
         "solicitation", "transferring", "clicking", "replying", "money.", "friend",
         "Systematic", "categorical", "delete", "prizes", "grandma's"]
    ),
    st.sampled_from(["The", "the", "it's,", "(you)", "Do", "not", "is", "IF:", "you're."]),
    st.sampled_from(["$500", "http://x.co/a", "!!", "500usd", "bit.ly/x", "now!!", "it??", "€20,"]),
    st.sampled_from(["500", "3.5", "2026,", "42.", ",", ":", ".", "...", "—", "-", "_"]),
    st.sampled_from(["café", "naïve", "über", "Ärger", "İstanbul", "straße", "日本語", "½"]),
    st.text(min_size=1, max_size=6),
)
_MEMO_TEXTS = st.lists(_MEMO_TOKENS, min_size=1, max_size=20).map(" ".join)


def _reference_lemmas(text):
    return frozenset(
        lemma
        for token in text.split()
        if not (lexicon.is_stopword_surface(token) and not lexicon.is_risk_token(token.lower()))
        for lemma in [lemmatize(token)]
        if lemma
    )


def _reference_words_syllables(text):
    words = [t for t in text.split() if any(ch.isalnum() for ch in t)]
    syllables = sum(count_syllables(w) if any(ch.isalpha() for ch in w) else 1 for w in words)
    return len(words), syllables


class TestTokenMemo:
    """The memoized per-token paths give the same results as the uncached rules."""

    @given(_MEMO_TEXTS)
    @settings(max_examples=200, deadline=None)
    def test_explanation_lemmas_match_uncached_reference(self, text):
        expected = _reference_lemmas(text)
        assert explanation_lemmas(text) == expected
        assert explanation_lemmas(text) == expected

    @given(_MEMO_TEXTS)
    @settings(max_examples=200, deadline=None)
    def test_fkgl_matches_uncached_reference(self, text):
        words, syllables = _reference_words_syllables(text)
        for _ in range(2):
            if not words:
                with pytest.raises(
                    EvaluationError, match="empty text|no word characters|no countable words"
                ):
                    fkgl(text)
                continue
            breakdown = fkgl(text)
            sentences = len(split_sentences(text))
            assert breakdown.words == words
            assert breakdown.syllables == syllables
            assert breakdown.fkgl == 0.39 * (words / sentences) + 11.8 * (syllables / words) - 15.59

    @given(st.lists(_MEMO_TOKENS, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_evidence_lemmas_match_uncached_lemmas(self, words):
        evidence = make_evidence(*words)
        expected = frozenset(lemma for lemma in map(lemmatize, words) if lemma)
        assert evidence_lemmas(evidence) == expected
        assert evidence_lemmas(evidence) == expected

    @pytest.mark.parametrize(
        "memo", [evaluation._content_lemma, evaluation._word_syllables, evaluation._evidence_lemma]
    )
    def test_memo_is_bounded(self, memo):
        maxsize = memo.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0


class TestNliScores:
    def test_valid_simplex_accepted(self):
        scores = NliScores(0.7, 0.2, 0.1)
        assert scores.p_entailment == 0.7

    def test_sum_violation_rejected(self):
        with pytest.raises(EvaluationError, match="entailment probabilities sum to"):
            NliScores(0.7, 0.7, 0.1)

    def test_negative_probability_rejected(self):
        with pytest.raises(EvaluationError, match=r"probability 1.2 outside \[0, 1\]"):
            NliScores(1.2, -0.1, -0.1)


class TestScoreNli:
    def test_parses_endpoint_response(self, stub_server):
        stub_server.script = [
            {"status": 200, "body": {"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}}
        ]
        scores = score_nli(EndpointConfig(base_url=stub_server.url), make_explanation("text here"))
        assert scores == NliScores(0.7, 0.2, 0.1)
        path, headers, body = stub_server.requests[0]
        assert path == "/nli"
        assert "Authorization" not in headers
        assert body == {"premise": "text here", "hypothesis": RISK_HYPOTHESIS}

    def test_endpoint_sum_violation_raises(self, stub_server):
        stub_server.script = [
            {"status": 200, "body": {"entailment": 0.7, "neutral": 0.7, "contradiction": 0.1}}
        ]
        with pytest.raises(EvaluationError, match="entailment probabilities sum to"):
            score_nli(EndpointConfig(base_url=stub_server.url), make_explanation("text"))

    @pytest.mark.parametrize(
        "body, cause",
        [
            ({"neutral": 0.2, "contradiction": 0.1}, "'entailment'"),
            ({"entailment": "high", "neutral": 0.2, "contradiction": 0.1}, "could not convert"),
        ],
        ids=["missing_entailment", "non_numeric_entailment"],
    )
    def test_malformed_body_names_the_url(self, stub_server, body, cause):
        stub_server.script = [{"status": 200, "body": body}]
        with pytest.raises(EvaluationError, match="malformed entailment response") as info:
            score_nli(EndpointConfig(base_url=stub_server.url), make_explanation("text"))
        assert f"{stub_server.url}/nli" in str(info.value)
        assert cause in str(info.value)
        assert len(stub_server.requests) == 1

    def test_non_retryable_status_is_named_not_retried(self, stub_server):
        from scamlens.generation import TransportError

        stub_server.script = [{"status": 404, "body": {"error": "no such route"}}]
        with pytest.raises(TransportError, match="404"):
            score_nli(EndpointConfig(base_url=stub_server.url), make_explanation("text"))
        assert len(stub_server.requests) == 1

    def test_non_json_body_raises_transport_error_naming_the_url(self, stub_server):
        from scamlens.generation import TransportError

        stub_server.script = [{"status": 200, "raw": b"<html>not json</html>"}]
        with pytest.raises(TransportError, match=f"{stub_server.url}/nli"):
            score_nli(EndpointConfig(base_url=stub_server.url), make_explanation("text"))

    def test_configured_but_unset_key_fails_before_any_request(self, stub_server, monkeypatch):
        from scamlens.generation import TransportError

        monkeypatch.delenv("TEST_NLI_KEY", raising=False)
        config = EndpointConfig(base_url=stub_server.url, api_key_env_var="TEST_NLI_KEY")
        with pytest.raises(TransportError, match="variable TEST_NLI_KEY is not set"):
            score_nli(config, make_explanation("text"))
        assert stub_server.requests == []

    def test_configured_key_is_sent_as_bearer_token(self, stub_server, monkeypatch):
        monkeypatch.setenv("TEST_NLI_KEY", "nli-token")
        stub_server.script = [
            {"status": 200, "body": {"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}}
        ]
        config = EndpointConfig(base_url=stub_server.url, api_key_env_var="TEST_NLI_KEY")
        score_nli(config, make_explanation("text"))
        assert stub_server.requests[0][1]["Authorization"] == "Bearer nli-token"

    def test_many_keeps_input_order_under_concurrency(self, stub_server):
        from scamlens.evaluation import score_nli_many

        def respond(path, body):
            # Encode the premise back into the probabilities so order is
            # observable: premise "p<i>" -> entailment (i+1)/10.
            i = int(body["premise"][1:])
            return {
                "entailment": (i + 1) / 10,
                "neutral": 1.0 - (i + 1) / 10,
                "contradiction": 0.0,
            }

        stub_server.script = [
            {"status": 200, "body": respond, "delay": 0.05},
            {"status": 200, "body": respond},
            {"status": 200, "body": respond},
            {"status": 200, "body": respond},
        ]
        explanations = [make_explanation(f"p{i}", mid=f"m{i}") for i in range(4)]
        results = score_nli_many(EndpointConfig(base_url=stub_server.url), explanations)
        assert [e for e, _ in results] == explanations
        assert [s.p_entailment for _, s in results] == pytest.approx([0.1, 0.2, 0.3, 0.4])


class TestMockNli:
    def test_two_or_more_cues_hit_the_rich_point(self):
        scores = mock_score_nli(make_explanation("this urgent link is a scam"))
        assert scores == NliScores(0.8, 0.15, 0.05)

    def test_single_cue_hits_the_thin_point(self):
        scores = mock_score_nli(make_explanation("an urgent situation developed today"))
        assert scores == NliScores(0.4, 0.35, 0.25)

    def test_no_cues_hit_the_bare_point(self):
        scores = mock_score_nli(make_explanation("the weather was pleasant yesterday evening"))
        assert scores == NliScores(0.1, 0.3, 0.6)

    def test_inflected_cues_count_via_lemmas(self):
        scores = mock_score_nli(make_explanation("clicking suspicious attachments"))
        assert scores == NliScores(0.8, 0.15, 0.05)


class TestCorrectness:
    @pytest.mark.parametrize(
        "triple,expected",
        [((1.0, 0.0, 0.0), 1.0), ((0.2, 0.6, 0.2), 0.5), ((0.0, 0.0, 1.0), 0.0)],
    )
    def test_fixture_points_at_default_alpha(self, triple, expected):
        scores = NliScores(*triple)
        assert correctness(scores, EvaluationConfig()) == pytest.approx(expected)

    def test_mass_moving_to_contradiction_lowers_score(self):
        config = EvaluationConfig()
        high = correctness(NliScores(0.6, 0.3, 0.1), config)
        low = correctness(NliScores(0.4, 0.3, 0.3), config)
        assert low < high

    def test_alpha_bounds_enforced(self):
        with pytest.raises(ValueError):
            EvaluationConfig(alpha=1.5)


class TestSplitSentences:
    def test_basic_split(self):
        assert split_sentences("Hi. Click now!") == ["Hi", "Click now"]

    def test_no_terminator_is_one_sentence(self):
        assert split_sentences("no terminator here") == ["no terminator here"]

    def test_blank_text_rejected(self):
        with pytest.raises(EvaluationError, match="cannot split an empty text"):
            split_sentences("   ")

    def test_punctuation_only_rejected(self):
        with pytest.raises(EvaluationError, match="text contains no word characters"):
            split_sentences("?! ... !!")

    def test_terminator_runs_collapse(self):
        assert split_sentences("Wait... what?! Really.") == ["Wait", "what", "Really"]


class TestCountSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("cat", 1),
            ("table", 2),
            ("rhythm", 1),
            ("free", 1),
            ("delete", 2),
            ("message", 2),
            ("immediately", 5),
            ("time", 1),
        ],
    )
    def test_heuristic(self, word, expected):
        assert count_syllables(word) == expected

    def test_no_letters_rejected(self):
        with pytest.raises(EvaluationError, match="no letters in '500'"):
            count_syllables("500")

    def test_minimum_one(self):
        assert count_syllables("hmm") == 1


class TestFkgl:
    # counts hand-traced from the stated rules: (text, words, sentences, syllables)
    FIXTURES = [
        ("The cat sat.", 3, 1, 3),
        ("Hi. Click now!", 3, 2, 3),
        ("Delete this urgent message immediately. Never send money.", 8, 2, 17),
        ("Go", 1, 1, 1),
        (
            "Systematic analysis of the communication reveals coordinated deception indicators.",
            9,
            1,
            28,
        ),
    ]

    @pytest.mark.parametrize("text,words,sentences,syllables", FIXTURES)
    def test_hand_computed_fixtures(self, text, words, sentences, syllables):
        breakdown = fkgl(text)
        assert breakdown.words == words
        assert breakdown.sentences == sentences
        assert breakdown.syllables == syllables
        expected = 0.39 * (words / sentences) + 11.8 * (syllables / words) - 15.59
        assert math.isclose(breakdown.fkgl, expected, abs_tol=1e-9)

    def test_digit_tokens_count_as_words_with_one_syllable(self):
        breakdown = fkgl("Send 500 now.")
        assert breakdown.words == 3
        assert breakdown.syllables == 3

    def test_single_word_can_go_negative(self):
        assert fkgl("Go").fkgl == pytest.approx(0.39 + 11.8 - 15.59)

    def test_empty_text_rejected(self):
        with pytest.raises(EvaluationError, match="cannot split an empty text"):
            fkgl("   ")

    @given(
        st.lists(
            st.sampled_from(["risk", "alert", "consider", "immediately", "stop", "phone"]),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=40)
    def test_defining_identity_holds_exactly(self, words):
        text = " ".join(words) + "."
        breakdown = fkgl(text)
        recomputed = 0.39 * breakdown.sc + 11.8 * breakdown.ld - 15.59
        assert breakdown.fkgl == recomputed


class TestAggregateReport:
    def _metrics(self, condition, values, faith=0.5):
        return [
            MessageMetrics(
                message_id=f"m{i}",
                condition=condition,
                correctness=v,
                fkgl=10.0,
                faithfulness=None if condition is Condition.PURE_LLM else faith,
            )
            for i, v in enumerate(values)
        ]

    def test_mean_and_sample_std(self):
        (row,) = aggregate_report(self._metrics(Condition.XAI_ONLY, [0.5, 0.7]))
        assert row.condition is Condition.XAI_ONLY
        assert row.correctness.mean == pytest.approx(0.6)
        assert row.correctness.std == pytest.approx(0.1414, abs=1e-4)

    def test_single_value_std_is_zero(self):
        (row,) = aggregate_report(self._metrics(Condition.XAI_ONLY, [0.4]))
        assert row.condition is Condition.XAI_ONLY
        assert row.correctness.std == 0.0

    def test_pure_llm_row_omits_faithfulness(self):
        (row,) = aggregate_report(self._metrics(Condition.PURE_LLM, [0.3]))
        assert row.condition is Condition.PURE_LLM
        assert row.faithfulness is None

    def test_empty_group_rejected(self):
        with pytest.raises(EvaluationError, match="no metric rows to aggregate"):
            aggregate_report([])

    def test_missing_faithfulness_in_evidence_condition_rejected(self):
        rows = [
            MessageMetrics(
                message_id="m0",
                condition=Condition.XAI_ONLY,
                correctness=0.5,
                fkgl=10.0,
                faithfulness=None,
            )
        ]
        with pytest.raises(Exception):
            aggregate_report(rows)


class TestReportRendering:
    @staticmethod
    def _rows(order):
        """Three metric rows per condition, read in `order`."""
        return [
            MessageMetrics(
                message_id=f"{condition.value}-{i}",
                condition=condition,
                correctness=0.5 + 0.01 * i,
                fkgl=10.0 + i,
                faithfulness=None if condition is Condition.PURE_LLM else 1.0,
            )
            for condition, i in order
        ]

    def _full_report(self):
        return aggregate_report(self._rows((c, i) for c in Condition for i in range(3)))

    def test_four_rows_in_fixed_order(self):
        report = self._full_report()
        assert [r.condition for r in report] == [
            Condition.PURE_LLM,
            Condition.XAI_ONLY,
            Condition.XAI_HIGH_VULNERABILITY,
            Condition.XAI_LOW_VULNERABILITY,
        ]

    def test_interleaved_rows_are_grouped_in_condition_order(self):
        # Rows interleaved across conditions, in reverse `Condition` order.
        rows = self._rows((c, i) for i in range(3) for c in reversed(Condition))
        report = aggregate_report(rows)
        assert [(r.condition, r.n) for r in report] == [(c, 3) for c in Condition]
        assert report == self._full_report()

    def test_text_table_shape(self):
        table = render_report_table(self._full_report())
        lines = table.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].split()[0] == "Condition"
        assert "No XAI" in lines[1]
        assert "--" in lines[1]
        for label in ("XAI Only", "XAI + High Vulnerability", "XAI + Low Vulnerability"):
            assert any(label in line for line in lines[2:])

    def test_json_shape(self):
        payload = report_to_json(self._full_report())
        assert len(payload["conditions"]) == 4
        first = payload["conditions"][0]
        assert first["label"] == CONDITION_LABELS[Condition.PURE_LLM]
        assert first["faithfulness"] is None
        assert set(first) == {"condition", "label", "n", "correctness", "fkgl", "faithfulness"}


finite = st.floats(allow_nan=False, allow_infinity=False)
message_metrics = st.builds(
    MessageMetrics,
    message_id=st.text(),
    condition=st.sampled_from(Condition),
    correctness=finite,
    fkgl=finite,
    faithfulness=st.none() | finite,
)


class TestMetricsRecord:
    @given(message_metrics)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_json(self, metrics):
        text = json.dumps(metrics_to_record(metrics), sort_keys=True, ensure_ascii=False)
        assert metrics_from_record(json.loads(text)) == metrics

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["correctness", "fkgl", "faithfulness"])
    def test_refuses_a_score_that_is_not_finite(self, field, bad):
        scores = {"correctness": 0.5, "fkgl": 6.0, "faithfulness": 1.0, field: bad}
        with pytest.raises(ValueError, match="is not a finite number"):
            MessageMetrics(message_id="m1", condition=Condition.XAI_ONLY, **scores)
