from __future__ import annotations

import json
import string
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scamlens import corpus, lexicon
from scamlens.corpus import (
    ENGLISH_ASCII_MIN_FRACTION,
    EXPLANATION_TOKEN_CAP,
    Channel,
    CorpusError,
    FormattedText,
    Label,
    Message,
    MessageSet,
    filter_for_explanation,
    format_input,
    ingest_jsonl,
    is_mostly_ascii_english,
    load_jsonl,
    read_jsonl,
    save_jsonl,
    stratified_sample,
    synth_corpus,
    truncate_front,
    write_jsonl,
)


def _corpus_text(message_set) -> str:
    return "\n".join(
        f"{m.id}|{m.subject}|{m.body}|{m.label.value}" for m in message_set
    )


def ingest(tmp_path, records, channel, name="raw.jsonl"):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return ingest_jsonl(path, channel)


class TestIngest:
    def test_sms_spam_record_maps_to_scam(self, tmp_path):
        ms = ingest(tmp_path, [{"body": "Win cash now", "label": "spam"}], Channel.SMS)
        assert len(ms) == 1
        assert ms.messages[0].channel is Channel.SMS
        assert ms.messages[0].label is Label.SCAM
        assert ms.messages[0].subject is None

    def test_email_record_keeps_subject_and_body(self, tmp_path):
        ms = ingest(
            tmp_path, [{"subject": "Invoice", "body": "Pay today", "label": "ham"}], Channel.EMAIL
        )
        assert ms.messages[0].subject == "Invoice"
        assert ms.messages[0].body == "Pay today"
        assert ms.messages[0].label is Label.HAM

    def test_missing_body_raises(self, tmp_path):
        with pytest.raises(CorpusError, match=r"\(CorpusError: record missing body\)"):
            ingest(tmp_path, [{"label": "spam"}], Channel.SMS)

    def test_missing_label_raises(self, tmp_path):
        with pytest.raises(CorpusError, match=r"\(CorpusError: record missing label\)"):
            ingest(tmp_path, [{"body": "hello"}], Channel.SMS)

    def test_unmappable_label_raises(self, tmp_path):
        with pytest.raises(CorpusError, match=r"\(CorpusError: cannot map label 'unsure'\)"):
            ingest(tmp_path, [{"body": "hello", "label": "unsure"}], Channel.SMS)

    def test_ids_are_deterministic_from_order_and_source(self, tmp_path):
        records = [{"body": "a", "label": "ham", "source": "src"} for _ in range(2)]
        first = ingest(tmp_path, records, Channel.SNS, name="first.jsonl")
        second = ingest(tmp_path, records, Channel.SNS, name="second.jsonl")
        assert [m.id for m in first] == [m.id for m in second]
        assert len({m.id for m in first}) == 2

    def test_subject_ignored_outside_email(self, tmp_path):
        ms = ingest(tmp_path, [{"subject": "hey", "body": "text", "label": "ham"}], Channel.SMS)
        assert ms.messages[0].subject is None


class TestFormatInput:
    def test_sms_marker_prepended(self):
        m = Message(id="1", channel=Channel.SMS, body="Win now", label=Label.SCAM)
        assert format_input(m).text == "<SMS> Win now"

    def test_email_subject_and_body_joined_by_newline(self):
        m = Message(
            id="1", channel=Channel.EMAIL, body="Pay", label=Label.SCAM, subject="Invoice"
        )
        assert format_input(m).text == "<Email> Invoice\nPay"

    def test_sns_body_only(self):
        m = Message(id="1", channel=Channel.SNS, body="free followers", label=Label.HAM)
        assert format_input(m).text == "<SNS> free followers"

    def test_marker_matches_channel(self):
        m = Message(id="1", channel=Channel.EMAIL, body="x", label=Label.HAM)
        assert format_input(m).channel_marker == "<Email>"

    def test_unknown_marker_rejected(self):
        with pytest.raises(ValueError, match="unknown channel marker '<Fax>'"):
            FormattedText("<Fax> hello", "<Fax>")

    @pytest.mark.parametrize("text", ["hello <SMS>", "<SMS>hello", "<Email> hello"])
    def test_text_without_its_marker_and_a_space_rejected(self, text):
        with pytest.raises(ValueError, match="formatted text must start with its channel marker and a space"):
            FormattedText(text, "<SMS>")

    def test_preserves_count_and_is_deterministic(self, small_corpus):
        once = [format_input(m).text for m in small_corpus]
        twice = [format_input(m).text for m in small_corpus]
        assert once == twice
        assert len(once) == len(small_corpus)


class TestMessageInvariants:
    def test_empty_body_rejected(self):
        with pytest.raises(ValueError):
            Message(id="1", channel=Channel.SMS, body="   ", label=Label.HAM)

    def test_subject_on_sms_rejected(self):
        with pytest.raises(ValueError):
            Message(id="1", channel=Channel.SMS, body="x", label=Label.HAM, subject="s")

    def test_duplicate_ids_rejected(self):
        m = Message(id="1", channel=Channel.SMS, body="x", label=Label.HAM)
        with pytest.raises(ValueError):
            MessageSet((m, m))


class TestTruncateFront:
    def test_over_limit_keeps_final_tokens(self):
        tokens = list(range(1, 601))
        out = truncate_front(tokens, 512)
        assert len(out) == 512
        assert out[0] == 89
        assert out[-1] == 600

    def test_under_limit_unchanged(self):
        assert truncate_front(list(range(10)), 512) == list(range(10))

    def test_exact_limit_unchanged(self):
        tokens = list(range(512))
        assert truncate_front(tokens, 512) == tokens

    def test_nonpositive_limit_rejected(self):
        with pytest.raises(ValueError):
            truncate_front([1, 2], 0)

    @given(st.lists(st.integers(), max_size=40), st.integers(min_value=1, max_value=30))
    @settings(max_examples=50)
    def test_idempotent(self, tokens, limit):
        once = truncate_front(tokens, limit)
        assert truncate_front(once, limit) == once


class TestStratifiedSample:
    def test_exact_counts_per_channel(self):
        full = synth_corpus(seed=1, per_channel_per_label=500)
        sampled = stratified_sample(full, 100, seed=42)
        assert Counter((m.channel, m.label) for m in sampled) == {
            (ch, label): 100 for ch in Channel for label in Label
        }

    def test_same_seed_selects_same_ids(self):
        full = synth_corpus(seed=1, per_channel_per_label=50)
        a = stratified_sample(full, 10, seed=42)
        b = stratified_sample(full, 10, seed=42)
        assert [m.id for m in a] == [m.id for m in b]

    def test_insufficient_stratum_raises(self):
        full = synth_corpus(seed=1, per_channel_per_label=500)
        with pytest.raises(CorpusError, match="requested 600, have 500"):
            stratified_sample(full, 600, seed=0)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20)
    def test_scam_equals_ham_per_channel(self, seed):
        full = synth_corpus(seed=3, per_channel_per_label=20)
        sampled = stratified_sample(full, 7, seed=seed)
        assert Counter((m.channel, m.label) for m in sampled) == {
            (ch, label): 7 for ch in Channel for label in Label
        }


class TestFilterForExplanation:
    def _message(self, mid, label, body="Watch out", channel=Channel.SMS):
        return Message(id=mid, channel=channel, body=body, label=label)

    def test_misclassified_scam_removed(self):
        ms = MessageSet((self._message("a", Label.SCAM),))
        out = filter_for_explanation(ms, {"a": Label.HAM})
        assert len(out) == 0

    def test_ham_removed_even_when_correct(self):
        ms = MessageSet((self._message("a", Label.HAM),))
        out = filter_for_explanation(ms, {"a": Label.HAM})
        assert len(out) == 0

    def test_long_scam_body_truncated(self):
        body = " ".join(f"w{i}" for i in range(2000))
        ms = MessageSet(
            (
                Message(
                    id="a",
                    channel=Channel.EMAIL,
                    body=body,
                    label=Label.SCAM,
                    subject="s",
                ),
            )
        )
        out = filter_for_explanation(ms, {"a": Label.SCAM})
        words = out.messages[0].body.split()
        assert len(words) == EXPLANATION_TOKEN_CAP
        assert words[0] == "w500"
        assert words[-1] == "w1999"

    def test_missing_prediction_raises(self):
        ms = MessageSet((self._message("a", Label.SCAM),))
        with pytest.raises(CorpusError, match="no prediction for message 'a'"):
            filter_for_explanation(ms, {})

    def test_non_ascii_message_removed(self):
        ms = MessageSet(
            (self._message("a", Label.SCAM, body="ура приз сейчас"),)
        )
        out = filter_for_explanation(ms, {"a": Label.SCAM})
        assert len(out) == 0

    def test_output_subset_with_scam_labels_only(self, small_corpus):
        predictions = {m.id: m.label for m in small_corpus}
        out = filter_for_explanation(small_corpus, predictions)
        ids = {m.id for m in small_corpus}
        assert all(m.id in ids for m in out)
        assert all(m.label is Label.SCAM for m in out)


def _ascii_english_reference(text):
    # The per-character rule the translate table stands in for.
    if not text:
        return False
    ok = sum(1 for ch in text if corpus._is_plain_ascii(ch))
    return ok / len(text) >= ENGLISH_ASCII_MIN_FRACTION


class TestAsciiEnglish:
    def test_every_code_point_below_0x3000_matches_per_character_rule(self):
        # Nine letters and one probe character sit on the 0.9 threshold, and
        # eight letters and two probes below it, so each probe decides.
        for cp in range(0x3000):
            ch = chr(cp)
            plain = corpus._is_plain_ascii(ch)
            assert is_mostly_ascii_english(ch) is plain, hex(cp)
            assert is_mostly_ascii_english("abcdefgh" + ch + ch) is plain, hex(cp)
            assert is_mostly_ascii_english("abcdefghi" + ch) is True, hex(cp)

    @given(st.text(alphabet=st.one_of(st.characters(max_codepoint=127), st.characters())))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_character_rule_on_text(self, text):
        assert is_mostly_ascii_english(text) is _ascii_english_reference(text)


class TestSynthCorpus:
    def test_total_count(self):
        ms = synth_corpus(seed=7, per_channel_per_label=100)
        assert len(ms) == 600
        assert Counter((m.channel, m.label) for m in ms) == {
            (ch, label): 100 for ch in Channel for label in Label
        }

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_rejected(self, size):
        with pytest.raises(ValueError, match="per_channel_per_label must be positive"):
            synth_corpus(seed=7, per_channel_per_label=size)

    def test_same_seed_byte_identical(self):
        a = _corpus_text(synth_corpus(seed=7, per_channel_per_label=25))
        b = _corpus_text(synth_corpus(seed=7, per_channel_per_label=25))
        assert a == b

    def test_different_seed_differs(self):
        a = _corpus_text(synth_corpus(seed=7, per_channel_per_label=25))
        b = _corpus_text(synth_corpus(seed=8, per_channel_per_label=25))
        assert a != b

    def test_every_scam_message_carries_a_risk_cue(self):
        urgency = {
            "urgent", "urgently", "immediately", "now", "today", "final", "midnight",
            "within", "hours", "chance", "expires", "hurry", "alert", "instantly",
        }
        reward = {
            "won", "winner", "prize", "reward", "bonus", "gift", "cash",
            "congratulations", "giveaway", "free", "discount", "refund",
        }
        ms = synth_corpus(seed=7, per_channel_per_label=100)
        for message in ms:
            if message.label is not Label.SCAM:
                continue
            text = format_input(message).text
            words = [w.lower().strip(string.punctuation) for w in text.split()]
            has_pattern = any(lexicon.is_risk_token(w) for w in text.split())
            assert has_pattern or urgency & set(words) or reward & set(words), message.id

    def test_email_messages_have_subjects(self):
        ms = synth_corpus(seed=7, per_channel_per_label=5)
        for message in ms:
            if message.channel is Channel.EMAIL:
                assert message.subject
            else:
                assert message.subject is None


@st.composite
def messages(draw):
    channel = draw(st.sampled_from(Channel))
    return Message(
        id=draw(st.text()),
        channel=channel,
        body=draw(st.text().filter(str.strip)),
        label=draw(st.sampled_from(Label)),
        subject=draw(st.none() | st.text()) if channel is Channel.EMAIL else None,
        source=draw(st.text()),
    )


class TestJsonlRoundTrip:
    @given(messages())
    @settings(max_examples=100, deadline=None)
    def test_record_round_trip_through_json(self, message):
        text = json.dumps(corpus.message_to_record(message), sort_keys=True, ensure_ascii=False)
        assert corpus.message_from_record(json.loads(text)) == message

    def test_save_load_preserves_messages(self, tmp_path, small_corpus):
        path = tmp_path / "corpus.jsonl"
        save_jsonl(small_corpus, path)
        loaded = load_jsonl(path)
        assert loaded.messages == small_corpus.messages

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = '{"id": "a", "channel": "sms", "body": "hi there", "label": "ham"}'
        path.write_text(record + "\n\n" + record.replace('"a"', '"b"') + "\n")
        loaded = load_jsonl(path)
        assert [m.id for m in loaded] == ["a", "b"]

    def test_idless_corpus_ids_do_not_depend_on_the_path(self, tmp_path):
        records = [
            {"channel": "sms", "body": "win cash now", "label": "spam", "source": "feed"},
            {"channel": "email", "body": "lunch at noon?", "label": "ham"},
        ]
        text = "".join(json.dumps(r) + "\n" for r in records)
        first, second = tmp_path / "a" / "corpus.jsonl", tmp_path / "b" / "other.jsonl"
        for path in (first, second):
            path.parent.mkdir()
            path.write_text(text)
        ids = [m.id for m in load_jsonl(first)]
        assert ids == [m.id for m in load_jsonl(second)]
        assert ids == ["feed:sms:000000", ":email:000001"]

    def test_subject_dropped_outside_email(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = {"id": "a", "channel": "sms", "subject": "hey", "body": "text", "label": "ham"}
        path.write_text(json.dumps(record) + "\n")
        (message,) = load_jsonl(path)
        assert message.subject is None

    @pytest.mark.parametrize(
        "lines, number",
        [
            (["[1, 2]"], 1),
            (['{"id": "a", "channel": "sms", "body": "hi"}'], 1),
            (["", '{"id": "a", "channel": "sms", "body": "hi", "label": "ham"', ""], 2),
            (['{"id": "a", "channel": "sms", "body": "caf\xe9", "label": "ham"}'], 1),
            (
                [
                    '{"id": "a", "channel": "sms", "body": "hi", "label": "ham"}',
                    '{"id": "b", "channel": "fax", "body": "hi", "label": "ham"}',
                ],
                2,
            ),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, lines, number):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        with pytest.raises(CorpusError, match=f"record {number} is malformed") as info:
            load_jsonl(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_names_file_and_line(self, tmp_path, literal):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"score": 1.5}\n' + f'{{"score": {literal}}}\n')
        with pytest.raises(CorpusError, match=f"record 2 is malformed .*{literal} is not a finite number") as info:
            read_jsonl(path, dict)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, bad):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            write_jsonl(tmp_path / "rows.jsonl", [{"score": 1.5}, {"score": bad}])

    def test_duplicate_ids_name_the_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        record = '{"id": "a", "channel": "sms", "body": "hi there", "label": "ham"}\n'
        path.write_text(record * 2)
        with pytest.raises(CorpusError, match="duplicate message ids") as info:
            load_jsonl(path)
        assert str(path) in str(info.value)
