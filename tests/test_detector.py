from __future__ import annotations

import hashlib
import json
import random
import string
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grad_wrt_embeddings, logit_from_embeddings, make_model, make_vocab, zero_model
from scamlens import detector
from scamlens.corpus import (
    MARKER_TOKENS,
    Channel,
    FormattedText,
    Label,
    Message,
    MessageSet,
    format_input,
    synth_corpus,
)
from scamlens.detector import (
    CHECKPOINT_FORMAT,
    MAX_NGRAM,
    PAD_ID,
    PAD_PIECE,
    SPECIAL_PIECES,
    UNK_ID,
    UNK_PIECE,
    DetectorError,
    DetectorModel,
    Prediction,
    TokenizedInput,
    TrainConfig,
    Vocab,
    _Sparse,
    _corpus_piece_ids,
    _sigmoid,
    _split_indices,
    build_vocab,
    embed,
    load_model,
    macro_f1,
    predict_set,
    prediction_from_record,
    prediction_to_record,
    save_model,
    tokenize,
    train,
)

WEIGHT_NAMES = ("embedding", "hidden_w", "hidden_b", "out_w")


class TestBuildVocab:
    def test_frequent_ngram_becomes_piece(self):
        body = " ".join(["free"] * 50)
        ms = MessageSet(
            (Message(id="1", channel=Channel.SMS, body=body, label=Label.SCAM),)
        )
        vocab = build_vocab(ms, max_size=200)
        assert "free" in vocab.index

    def test_pad_is_index_zero_and_markers_present(self, small_corpus):
        vocab = build_vocab(small_corpus, max_size=500)
        assert vocab.pieces[0] == "<pad>"
        for marker in ("<Email>", "<SMS>", "<SNS>"):
            assert marker in vocab.index

    def test_deterministic(self, small_corpus):
        a = build_vocab(small_corpus, max_size=400)
        b = build_vocab(small_corpus, max_size=400)
        assert a.pieces == b.pieces

    def test_empty_corpus_raises(self):
        with pytest.raises(DetectorError, match="cannot build a vocabulary from an empty corpus"):
            build_vocab(MessageSet(()), max_size=100)

    def test_max_size_below_alphabet_raises(self):
        ms = MessageSet(
            (Message(id="1", channel=Channel.SMS, body="abcdefgh", label=Label.HAM),)
        )
        with pytest.raises(DetectorError, match=r"max_size 6 below specials \+ alphabet"):
            build_vocab(ms, max_size=6)


def reference_build_vocab(corpus: MessageSet, max_size: int) -> Vocab:
    """The vocabulary as counted per word occurrence, one n-gram at a time."""
    counts: Counter[str] = Counter()
    chars: set[str] = set()
    for message in corpus:
        for word in format_input(message).text.split():
            if word in MARKER_TOKENS:
                continue
            lowered = word.lower()
            chars.update(lowered)
            for n in range(1, MAX_NGRAM + 1):
                for i in range(len(lowered) - n + 1):
                    counts[lowered[i : i + n]] += 1
    minimum = len(SPECIAL_PIECES) + len(chars)
    if max_size < minimum:
        raise DetectorError(
            f"max_size {max_size} below specials + alphabet ({minimum}); cannot cover the corpus"
        )
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    singles = [p for p, _ in ranked if len(p) == 1]
    multis = [p for p, _ in ranked if len(p) > 1]
    budget = max_size - len(SPECIAL_PIECES) - len(singles)
    return Vocab.from_pieces(SPECIAL_PIECES + tuple(singles) + tuple(multis[: max(budget, 0)]))


# Short words over a tiny mixed-case alphabet repeat often; "İ" lower-cases
# to two characters; marker tokens inside a body are not counted.
vocab_words = st.one_of(
    st.text(alphabet="abAB\u0130", min_size=1, max_size=5),
    st.sampled_from(sorted(MARKER_TOKENS)),
)


@st.composite
def vocab_messages(draw, index: int) -> Message:
    channel = draw(st.sampled_from(Channel))
    body = " ".join(draw(st.lists(vocab_words, min_size=1, max_size=12)))
    subject = None
    if channel is Channel.EMAIL and draw(st.booleans()):
        subject = " ".join(draw(st.lists(vocab_words, min_size=1, max_size=4)))
    return Message(id=f"m{index}", channel=channel, body=body, label=Label.HAM, subject=subject)


vocab_corpora = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*(vocab_messages(i) for i in range(n))).map(MessageSet)
)


def assert_matches_reference(corpus: MessageSet, max_size: int) -> None:
    """`build_vocab` gives the reference's pieces, or raises its error text."""
    try:
        expected = reference_build_vocab(corpus, max_size)
    except DetectorError as exc:
        with pytest.raises(DetectorError) as raised:
            build_vocab(corpus, max_size)
        assert str(raised.value) == str(exc)
        return
    assert build_vocab(corpus, max_size).pieces == expected.pieces


def sms_corpus(*bodies: str) -> MessageSet:
    return MessageSet(
        tuple(Message(id=f"m{i}", channel=Channel.SMS, body=b, label=Label.HAM) for i, b in enumerate(bodies))
    )


# A lone surrogate, as `json.loads` yields it from a JSON-lines corpus.
LONE_SURROGATE = json.loads('"\\ud800"')

# 70000 distinct code points from U+20000 on, which have no case, so the
# character of rank r is chr(0x20000 + r). Each word is five of them, and
# every 7th word recurs, so counts tie at 1 and at 2. Past 65536 ranks, four
# packed ranks overflow 64 bits: the key of the 4-gram whose ranks are the
# base-70000 digits of 2**64 wraps to that of four rank-0 characters, so
# both are in the corpus, three times each.
_WIDE = [chr(0x20000 + i) for i in np.random.default_rng(0).permutation(70000).tolist()]
_WIDE_WORDS = ["".join(_WIDE[i : i + 5]) for i in range(0, len(_WIDE), 5)]
_WRAPPING = ["".join(chr(0x20000 + (2**64 // 70000**p) % 70000) for p in (3, 2, 1, 0)), chr(0x20000) * 4]
WIDE_BODY = " ".join(_WIDE_WORDS + _WIDE_WORDS[::7] + _WRAPPING * 3)


class TestBuildVocabEquivalence:
    @given(vocab_corpora, st.integers(1, 80))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_per_occurrence_count(self, corpus, max_size):
        assert_matches_reference(corpus, max_size)

    def test_equals_the_per_occurrence_count_on_a_synthetic_corpus(self, small_corpus):
        assert build_vocab(small_corpus, 600).pieces == reference_build_vocab(small_corpus, 600).pieces

    @pytest.mark.parametrize(
        "bodies, max_size",
        [
            # NUL ranks first, so "a" < "a\0" < "a\0b" < "ab" must all hold.
            (("a\x00b ab a\x00 \x00\x00 ab",), 40),
            # Astral characters are one code point each, above every BMP one.
            (("\U0001F600\U0001F600x x\U0001F600 \uffff\U0001F600 \U0001F600\U0001F600x",), 30),
            # A lone surrogate ranks between its BMP neighbours.
            ((f"a{LONE_SURROGATE}b ab a{LONE_SURROGATE} {LONE_SURROGATE}\ud7ff \ue000{LONE_SURROGATE}",), 30),
            # Only marker tokens: no character and no gram.
            (("<SMS> <Email>", "<SNS>"), len(SPECIAL_PIECES)),
            (("<SMS> <Email>", "<SNS>"), len(SPECIAL_PIECES) - 1),
            # Every gram of "abcd" ties at 2, across all four lengths; the
            # budget ends between "abcd" and "bc".
            (("abcd abcd",), len(SPECIAL_PIECES) + 4 + 3),
            (("abcd abcd xyz",), 10_000),
            (("abcdefgh",), 6),
            ((WIDE_BODY,), len(SPECIAL_PIECES) + 70000 + 500),
            ((WIDE_BODY,), len(SPECIAL_PIECES) + 69999),
        ],
        ids=[
            "nul",
            "astral",
            "lone_surrogate",
            "markers_only",
            "markers_only_below_specials",
            "ties_across_lengths",
            "max_size_above_distinct_grams",
            "max_size_below_alphabet",
            "alphabet_above_65536",
            "alphabet_above_65536_below_alphabet",
        ],
    )
    def test_equals_the_reference_on_edge_corpora(self, bodies, max_size):
        assert_matches_reference(sms_corpus(*bodies), max_size)

    def test_ties_across_lengths_break_by_string(self):
        vocab = build_vocab(sms_corpus("abcd abcd"), len(SPECIAL_PIECES) + 4 + 3)
        assert vocab.pieces[len(SPECIAL_PIECES) :] == ("a", "b", "c", "d", "ab", "abc", "abcd")


def filler_corpus(seed: int) -> MessageSet:
    """A synthetic corpus whose bodies end in random pseudo-words, so most of
    its n-grams occur once and string order alone ranks them."""
    rng = random.Random(seed)
    return MessageSet(
        tuple(
            replace(
                message,
                body=" ".join(
                    [message.body]
                    + [
                        "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 9)))
                        for _ in range(rng.randint(5, 15))
                    ]
                ),
            )
            for message in synth_corpus(seed, per_channel_per_label=20)
        )
    )


class TestManyDistinctWords:
    def test_checkpoint_bytes_are_pinned(self, tmp_path):
        corpus = filler_corpus(17)
        config = TrainConfig(seed=17, epochs=3, patience=3, vocab_size=4000)
        vocab = build_vocab(corpus, config.vocab_size)
        counts = Counter(
            word.lower()[i : i + n]
            for m in corpus
            for word in format_input(m).text.split()
            if word not in MARKER_TOKENS
            for n in range(2, MAX_NGRAM + 1)
            for i in range(len(word) - n + 1)
        )
        # The budget ends inside a run of count-1 grams, ranked by string alone.
        assert sum(c == 1 for c in counts.values()) > 5000
        assert len(vocab) == config.vocab_size and counts[vocab.pieces[-1]] == 1
        path = tmp_path / "model.json"
        save_model(train(corpus, config), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ac97613f05e394dfe8dd8815f607955626ea6a6cd71e069faf174cbf3deb54d1"
        )


def dense_bags(rows, n_cols: int) -> np.ndarray:
    """The (N, V) bag matrix as a dense array: piece counts over piece count."""
    bags = np.zeros((len(rows), n_cols))
    for row, ids in enumerate(rows):
        np.add.at(bags[row], np.asarray(ids, dtype=np.intp), 1.0)
        bags[row] /= len(ids)
    return bags


def reference_bags(rows, n_cols: int) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """The arrays `_Sparse.bags` must build for B, and its `transpose()` for
    B.T, dtype for dtype, derived with `np.unique`."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    flat = np.fromiter((i for r in rows for i in r), dtype=np.intp, count=int(lengths.sum()))
    row_of = np.repeat(np.arange(len(rows), dtype=np.intp), lengths)
    keys, counts = np.unique(row_of * n_cols + flat, return_counts=True)
    row, ids = np.divmod(keys, n_cols)
    weights = counts / lengths[row]
    indptr = np.zeros(len(rows) + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=len(rows)), out=indptr[1:])
    order = np.argsort(ids, kind="stable")
    used, col_starts = np.unique(ids[order], return_index=True)
    bags = {"rows": np.arange(len(rows), dtype=np.intp), "starts": indptr[:-1], "cols": ids, "weights": weights}
    transposed = {"rows": used, "starts": col_starts, "cols": row[order], "weights": weights[order]}
    return bags, transposed


def reference_pool(bags: dict[str, np.ndarray], embedding: np.ndarray) -> np.ndarray:
    """B @ embedding through one (w, nnz) gather: the values and the layout
    `_Sparse.__matmul__` must give."""
    products = np.take(embedding.T, bags["cols"], axis=1)
    products *= bags["weights"]
    return np.add.reduceat(products, bags["starts"], axis=1).T


def reference_pool_grad(transposed: dict[str, np.ndarray], n_cols: int, d_pooled: np.ndarray) -> np.ndarray:
    """B.T @ d_pooled through one (w, nnz) gather: the values
    `_Sparse.__matmul__` must give."""
    products = np.take(d_pooled.T, transposed["cols"], axis=1)
    products *= transposed["weights"]
    grad = np.zeros((n_cols, d_pooled.shape[1]))
    grad[transposed["rows"]] = np.add.reduceat(products, transposed["starts"], axis=1).T
    return grad


class TestBags:
    def _check(self, rows, n_cols, seed=0, width=5):
        rng = np.random.default_rng(seed)
        bags = _Sparse.bags(rows, n_cols)
        transposed = bags.transpose()
        expected_bags, expected_transposed = reference_bags(rows, n_cols)
        for matrix, shape, arrays in (
            (bags, (len(rows), n_cols), expected_bags),
            (transposed, (n_cols, len(rows)), expected_transposed),
        ):
            assert (matrix.n_rows, matrix.n_cols) == shape
            for name, expected in arrays.items():
                actual = getattr(matrix, name)
                assert actual.dtype == expected.dtype and np.array_equal(actual, expected), name
        dense = dense_bags(rows, n_cols)
        embedding = rng.normal(size=(n_cols, width))
        d_pooled = rng.normal(size=(len(rows), width))
        pooled, expected = bags @ embedding, reference_pool(expected_bags, embedding)
        np.testing.assert_allclose(pooled, dense @ embedding, rtol=0, atol=1e-12)
        assert np.array_equal(pooled, expected)
        # Same strides too: `train` sums `hidden @ out_w` and
        # `d_hidden.sum(axis=0)` in an order the layout sets.
        assert pooled.strides == expected.strides
        grad = transposed @ d_pooled
        np.testing.assert_allclose(grad, dense.T @ d_pooled, rtol=0, atol=1e-12)
        assert np.array_equal(grad, reference_pool_grad(expected_transposed, n_cols, d_pooled))

    @pytest.mark.parametrize("width", [1, 3, 8])
    def test_equals_the_reference_on_repeated_and_one_piece_rows(self, width):
        rows = [[0, 3, 3, 7, 0, 0], [5], [2, 8, 6, 3, 0, 5, 5, 2, 8, 8, 7, 6, 3, 2, 0, 0, 5], [7, 7]]
        assert {1, 4, 9}.isdisjoint(_Sparse.bags(rows, 10).transpose().rows.tolist())
        self._check(rows, 10, seed=width, width=width)

    def test_matches_dense_products_on_tokenized_messages(self):
        # "zz" and "qqq" are never produced, so their gradient rows stay zero.
        vocab = make_vocab("win", "ner", "zz", "qqq")
        bodies = ["winner winner win", "a a a a b", "abc " * 40 + "winner"]
        corpus = MessageSet(
            tuple(
                Message(id=f"m{i}", channel=Channel.SMS, body=body, label=Label.SCAM)
                for i, body in enumerate(bodies)
            )
        )
        rows = _corpus_piece_ids(corpus, vocab, limit=30)
        assert len(rows[2]) == 30  # truncated past the limit
        assert len(set(rows[0])) < len(rows[0])  # repeated pieces
        transposed = _Sparse.bags(rows, len(vocab)).transpose()
        unused = sorted(set(range(len(vocab))) - set(transposed.rows.tolist()))
        assert {vocab.index["zz"], vocab.index["qqq"]} <= set(unused)
        self._check(rows, len(vocab))
        assert not (transposed @ np.ones((3, 2)))[unused].any()

    def test_training_transposes_its_training_bags_only(self, small_corpus, monkeypatch):
        built, transposed = [], []
        bags, transpose = _Sparse.bags, _Sparse.transpose

        def recording_bags(pieces, n_cols):
            built.append(bags(pieces, n_cols))
            return built[-1]

        def recording_transpose(matrix):
            transposed.append(matrix)
            return transpose(matrix)

        monkeypatch.setattr(_Sparse, "bags", recording_bags)
        monkeypatch.setattr(_Sparse, "transpose", recording_transpose)
        train(small_corpus, TrainConfig(seed=1, epochs=2, patience=2))
        # The training bags are built first, then the validation bags.
        assert len(built) == 2 and len(transposed) == 1 and transposed[0] is built[0]

    @given(
        st.integers(1, 30).flatmap(
            lambda v: st.tuples(
                st.just(v),
                st.lists(st.lists(st.integers(0, v - 1), min_size=1, max_size=12), min_size=1, max_size=10),
            )
        ),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_products_on_random_rows(self, shape_rows, seed):
        n_cols, rows = shape_rows
        self._check(rows, n_cols, seed)


class TestTrainPieceIds:
    @pytest.mark.parametrize("limit", [20, 512])
    def test_equal_tokenize_for_every_message(self, small_corpus, limit):
        vocab = build_vocab(small_corpus, 400)
        # A separate vocabulary, so the expected ids come from its own memo.
        fresh = Vocab.from_pieces(vocab.pieces)
        expected = [list(tokenize(format_input(m), fresh, limit).piece_ids) for m in small_corpus]
        assert _corpus_piece_ids(small_corpus, vocab, limit) == expected
        assert any(len(ids) == limit for ids in expected) == (limit == 20)


class TestSegmentationMemo:
    def test_memo_filled_by_training_ids_tokenizes_like_a_fresh_vocab(self, small_corpus):
        vocab = build_vocab(small_corpus, 400)
        # The memo holds whole words, so a later, longer limit sees every piece.
        _corpus_piece_ids(small_corpus, vocab, limit=20)
        assert vocab.segments
        fresh = Vocab.from_pieces(vocab.pieces)
        for message in small_corpus:
            text = format_input(message)
            assert tokenize(text, vocab) == tokenize(text, fresh)

    def test_each_distinct_word_segmented_once_across_train_and_predict(self, monkeypatch):
        corpus = synth_corpus(seed=3, per_channel_per_label=10)
        calls: Counter[str] = Counter()
        segment_word = detector._segment_word

        def counting(word, vocab):
            calls[word] += 1
            return segment_word(word, vocab)

        monkeypatch.setattr(detector, "_segment_word", counting)
        model = train(corpus, TrainConfig(seed=3, epochs=2, patience=2))
        predict_set(model, corpus)
        words = {word for message in corpus for word in format_input(message).text.split()}
        assert calls == Counter(words)

    def test_equality_and_repr_ignore_the_memo(self):
        used, unused = make_vocab("win"), make_vocab("win")
        tokenize(FormattedText("<SMS> win now", "<SMS>"), used)
        assert set(used.segments) == {"<SMS>", "win", "now"}
        assert not unused.segments
        assert used == unused
        assert repr(used) == repr(unused)
        assert "segments" not in repr(used)

    def test_constructor_takes_no_memo(self):
        vocab = make_vocab()
        with pytest.raises(TypeError):
            Vocab(pieces=vocab.pieces, index=vocab.index, max_piece_len=vocab.max_piece_len, segments={})


def reference_segment(word: str, vocab: Vocab) -> tuple[int, ...]:
    """Plain greedy longest match over every non-special piece, of any length."""
    if word in MARKER_TOKENS:
        return (vocab.index[word],)
    plain = {p: i for p, i in vocab.index.items() if p not in SPECIAL_PIECES}
    text = word.lower()
    ids: list[int] = []
    i = 0
    while i < len(text):
        match = max((p for p in plain if text.startswith(p, i)), key=len, default=None)
        ids.append(UNK_ID if match is None else plain[match])
        i += 1 if match is None else len(match)
    return tuple(ids)


# "z" and "ω" are in no vocabulary below; "İ" lower-cases to "i" + U+0307.
segment_chars = "abcdiz\u0130\u0307ω"


class TestSegmentWord:
    @given(
        st.lists(st.text(alphabet="abcdi\u0307", min_size=2, max_size=6), max_size=12),
        st.lists(
            st.one_of(st.text(alphabet=segment_chars, min_size=1, max_size=14), st.sampled_from(sorted(MARKER_TOKENS))),
            min_size=1,
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_plain_greedy_longest_match(self, extra, words):
        vocab = Vocab.from_pieces(SPECIAL_PIECES + tuple("abcdi") + tuple(dict.fromkeys(extra)))
        for word in words:
            assert detector._segment_word(word, vocab) == reference_segment(word, vocab), word

    def test_words_longer_than_the_longest_piece(self):
        vocab = make_vocab("ab", "abc", "cab")
        assert vocab.max_piece_len == 3
        word = "abcabcababzc\u0130"
        assert len(word) > vocab.max_piece_len
        assert detector._segment_word(word, vocab) == reference_segment(word, vocab)
        assert [vocab.pieces[i] for i in detector._segment_word("ABCABZ", vocab)] == ["abc", "ab", "z"]


class TestTokenize:
    def test_unequal_piece_and_alignment_lengths_rejected(self):
        with pytest.raises(ValueError, match="piece_ids and alignment must have equal length"):
            TokenizedInput((5, 6), (0,), ("ab",))

    def test_alignment_past_the_words_rejected(self):
        with pytest.raises(ValueError, match="alignment references a word position out of range"):
            TokenizedInput((5, 6), (0, 1), ("ab",))

    def test_special_ids_are_their_pieces_positions(self):
        assert SPECIAL_PIECES[PAD_ID] == PAD_PIECE
        assert SPECIAL_PIECES[UNK_ID] == UNK_PIECE
        vocab = make_vocab()
        assert (vocab.index[PAD_PIECE], vocab.index[UNK_PIECE]) == (PAD_ID, UNK_ID)

    def test_greedy_longest_match_with_alignment(self):
        vocab = make_vocab("win", "ner")
        tok = tokenize(FormattedText("<SMS> winner", "<SMS>"), vocab)
        assert tok.words == ("<SMS>", "winner")
        assert tok.piece_ids == (
            vocab.index["<SMS>"],
            vocab.index["win"],
            vocab.index["ner"],
        )
        assert tok.alignment == (0, 1, 1)

    def test_marker_only_text(self):
        vocab = make_vocab()
        tok = tokenize(FormattedText("<SMS> ", "<SMS>"), vocab)
        assert tok.piece_ids == (vocab.index["<SMS>"],)
        assert tok.alignment == (0,)

    def test_character_fallback_without_unk(self):
        vocab = make_vocab()
        tok = tokenize(FormattedText("<SNS> zqxj", "<SNS>"), vocab)
        pieces = [vocab.pieces[i] for i in tok.piece_ids[1:]]
        assert pieces == ["z", "q", "x", "j"]
        assert UNK_ID not in tok.piece_ids
        assert set(tok.alignment[1:]) == {1}

    def test_unseen_character_maps_to_unk(self):
        vocab = make_vocab()
        tok = tokenize(FormattedText("<SNS> aωb", "<SNS>"), vocab)
        assert UNK_ID in tok.piece_ids

    def test_front_truncation_reindexes_pieces_not_words(self):
        vocab = make_vocab()
        tok = tokenize(FormattedText("<SMS> abc def ghi", "<SMS>"), vocab, limit=4)
        assert len(tok.piece_ids) == 4
        assert tok.words == ("<SMS>", "abc", "def", "ghi")
        # Marker and the first word's pieces fall off the front.
        assert tok.alignment == (2, 3, 3, 3)

    def test_case_folded(self):
        vocab = make_vocab("win")
        upper = tokenize(FormattedText("<SMS> WIN", "<SMS>"), vocab)
        lower = tokenize(FormattedText("<SMS> win", "<SMS>"), vocab)
        assert upper.piece_ids == lower.piece_ids

    def test_alignment_must_be_monotone(self):
        with pytest.raises(ValueError):
            TokenizedInput((1, 2), (1, 0), ("a", "b"))


def predict_one(model: DetectorModel, message: Message):
    return predict_set(model, MessageSet((message,)))[message.id]


def sms(body: str) -> Message:
    return Message(id="m", channel=Channel.SMS, body=body, label=Label.SCAM)


class TestForward:
    def test_zero_weights_give_half_probability(self):
        pred = predict_one(zero_model(), sms("abc"))
        assert pred.scam_probability == 0.5
        assert pred.logit == 0.0
        assert pred.predicted_label is Label.SCAM

    def test_trained_model_flags_scam_template(self, frozen_model, small_corpus):
        scam = next(m for m in small_corpus if m.label is Label.SCAM)
        assert predict_one(frozen_model, scam).predicted_label is Label.SCAM

    def test_bit_identical_across_calls(self, frozen_model, small_corpus):
        message = small_corpus.messages[0]
        assert predict_one(frozen_model, message) == predict_one(frozen_model, message)

    def test_out_of_vocab_id_raises(self):
        model = zero_model()
        tok = TokenizedInput((len(model.vocab),), (0,), ("x",))
        with pytest.raises(DetectorError, match="out of range for vocabulary of"):
            embed(model, tok)

    def test_input_without_pieces_cannot_be_embedded(self):
        with pytest.raises(ValueError, match="cannot embed an input with no pieces"):
            embed(zero_model(), TokenizedInput((), (), ()))

    def test_probability_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        model = make_model(rng, scale=80.0)
        p = predict_one(model, sms("abc def")).scam_probability
        assert 0.0 < p < 1.0


def _two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, 5e-324, np.nextafter(1.0, 0.0))


_LOGITS = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, 5e-324, -5e-324]),
        st.floats(allow_nan=False),
        st.floats(-800.0, 800.0),
    ),
    min_size=1,
    max_size=64,
)


class TestSigmoid:
    @given(_LOGITS)
    @settings(max_examples=300, deadline=None)
    def test_bitwise_equal_to_the_two_branch_form(self, values):
        z = np.array(values)
        assert _sigmoid(z).tobytes() == _two_branch_sigmoid(z).tobytes()


class TestPredictionRecord:
    @given(
        st.text(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from(Label),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_through_json(self, message_id, probability, label, logit):
        prediction = Prediction(probability, label, logit)
        text = json.dumps(prediction_to_record(message_id, prediction), sort_keys=True, ensure_ascii=False)
        assert prediction_from_record(json.loads(text)) == (message_id, prediction)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["scam_probability", "logit"])
    def test_refuses_a_number_that_is_not_finite(self, field, bad):
        values = {"scam_probability": 0.9, "logit": 2.2, field: bad}
        with pytest.raises(ValueError, match="is not a finite number"):
            Prediction(predicted_label=Label.SCAM, **values)
        record = {"id": "m1", "predicted_label": "scam", **values}
        with pytest.raises(ValueError, match="is not a finite number"):
            prediction_from_record(record)

    def test_refuses_an_unknown_label(self):
        record = {"id": "m1", "scam_probability": 0.9, "logit": 2.2, "predicted_label": "spam"}
        with pytest.raises(ValueError, match="'spam' is not a valid Label"):
            prediction_from_record(record)


class TestGradients:
    def test_zero_output_weights_zero_gradient(self):
        model = zero_model()
        x = np.random.default_rng(1).normal(size=(5, model.dim))
        assert np.all(grad_wrt_embeddings(model, x) == 0.0)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(42)
        step = 1e-4
        for _ in range(6):
            model = make_model(rng)
            n = int(rng.integers(2, 8))
            x = rng.uniform(-0.8, 0.8, size=(n, model.dim))
            analytic = grad_wrt_embeddings(model, x)
            fd = np.zeros_like(x)
            for i in range(n):
                for j in range(model.dim):
                    xp, xm = x.copy(), x.copy()
                    xp[i, j] += step
                    xm[i, j] -= step
                    fd[i, j] = (
                        logit_from_embeddings(model, xp) - logit_from_embeddings(model, xm)
                    ) / (2 * step)
            rel = np.abs(analytic - fd) / np.maximum(
                np.maximum(np.abs(analytic), np.abs(fd)), 1e-6
            )
            assert rel.max() < 1e-4

    def test_linear_model_gradient_is_weight_composition_over_n(self):
        rng = np.random.default_rng(3)
        model = make_model(rng, activation="identity")
        n = 5
        x = rng.normal(size=(n, model.dim))
        grads = grad_wrt_embeddings(model, x)
        expected = (model.hidden_w @ model.out_w) / n
        for row in grads:
            assert np.allclose(row, expected, atol=1e-12)

    def test_gradient_constant_across_positions(self):
        rng = np.random.default_rng(4)
        model = make_model(rng)
        x = rng.normal(size=(7, model.dim))
        grads = grad_wrt_embeddings(model, x)
        assert np.allclose(grads, grads[0])


def dense_reference_train(corpus: MessageSet, config: TrainConfig) -> tuple[float, tuple]:
    """`train` on a dense bag matrix with the pooled-embedding gradients:
    pooled = B @ E, d_hidden_w = pooled.T @ d_hidden and
    d_embedding = B.T @ (d_hidden @ W1.T). Returns the best validation F1
    and its (embedding, hidden_w, hidden_b, out_w, out_b)."""
    rng = np.random.default_rng(config.seed)
    vocab = build_vocab(corpus, config.vocab_size)
    embedding = rng.uniform(-0.1, 0.1, size=(len(vocab), config.d))
    hidden_w = rng.uniform(-0.1, 0.1, size=(config.d, config.h))
    hidden_b = rng.uniform(-0.1, 0.1, size=config.h)
    out_w = rng.uniform(-0.1, 0.1, size=config.h)
    out_b = float(rng.uniform(-0.1, 0.1))
    rows = [tokenize(format_input(m), vocab, config.limit).piece_ids for m in corpus]
    y = np.array([1.0 if m.label is Label.SCAM else 0.0 for m in corpus])
    train_idx, val_idx = _split_indices(y, config.val_fraction, rng)
    bags_train = dense_bags([rows[i] for i in train_idx], len(vocab))
    bags_val = dense_bags([rows[i] for i in val_idx], len(vocab))
    val_labels = [Label.SCAM if y[i] == 1.0 else Label.HAM for i in val_idx]
    best = None
    for _ in range(config.epochs):
        pooled = bags_train @ embedding
        hidden = np.tanh(pooled @ hidden_w + hidden_b)
        dz = (_sigmoid(hidden @ out_w + out_b) - y[train_idx]) / len(train_idx)
        d_hidden = (1.0 - hidden * hidden) * np.outer(dz, out_w)
        d_hidden_w = pooled.T @ d_hidden
        d_embedding = bags_train.T @ (d_hidden @ hidden_w.T)
        embedding = embedding - config.lr * d_embedding
        hidden_w = hidden_w - config.lr * d_hidden_w
        hidden_b = hidden_b - config.lr * d_hidden.sum(axis=0)
        out_w = out_w - config.lr * (hidden.T @ dz)
        out_b = out_b - config.lr * float(dz.sum())
        val_logits = np.tanh(bags_val @ embedding @ hidden_w + hidden_b) @ out_w + out_b
        f1 = macro_f1([Label.SCAM if z >= 0 else Label.HAM for z in val_logits], val_labels)
        if best is None or f1 > best[0]:
            best = (f1, (embedding, hidden_w, hidden_b, out_w, out_b))
    return best


class TestTrain:
    @pytest.mark.parametrize(
        "config",
        [
            TrainConfig(seed=3, epochs=1),
            TrainConfig(seed=4, epochs=3),
            TrainConfig(seed=5, epochs=2, d=3, h=12),  # h > d: pools wider than d
        ],
        ids=["one_epoch", "three_epochs", "hidden_wider_than_embedding"],
    )
    def test_projected_gradients_equal_the_embedding_wide_ones(self, small_corpus, config):
        model = train(small_corpus, config)
        f1, weights = dense_reference_train(small_corpus, config)
        assert model.val_macro_f1 == f1
        for name, expected in zip((*WEIGHT_NAMES, "out_b"), weights):
            np.testing.assert_allclose(getattr(model, name), expected, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("lr", [0.0, -5.0, float("nan")])
    def test_non_positive_learning_rate_rejected(self, lr):
        with pytest.raises(ValueError, match="lr must be > 0"):
            TrainConfig(lr=lr)

    def test_reaches_high_validation_f1(self, trained_model):
        assert trained_model.val_macro_f1 is not None
        assert trained_model.val_macro_f1 >= 0.90

    def test_deterministic_given_seed(self, small_corpus):
        config = TrainConfig(seed=11, epochs=40, patience=40)
        a = train(small_corpus, config)
        b = train(small_corpus, config)
        assert all(np.array_equal(getattr(a, name), getattr(b, name)) for name in WEIGHT_NAMES)
        assert a.out_b == b.out_b

    def test_plateau_halts_before_epoch_budget(self, small_corpus):
        # A 1e-12 step flips no validation prediction, so F1 stays flat and
        # early stopping fires at 1 + patience (lr=0 is refused).
        model = train(small_corpus, TrainConfig(lr=1e-12, epochs=200, patience=3, seed=0))
        assert model.epochs_run == 4

    def test_single_class_corpus_rejected(self):
        ms = MessageSet(
            tuple(
                Message(id=f"m{i}", channel=Channel.SMS, body=f"hello there {i}", label=Label.HAM)
                for i in range(10)
            )
        )
        with pytest.raises(DetectorError, match="must contain both scam and ham messages"):
            train(ms, TrainConfig(seed=0))

    def test_corpus_too_small_for_validation_split_rejected(self):
        ms = MessageSet(
            (
                Message(id="a", channel=Channel.SMS, body="win cash", label=Label.SCAM),
                Message(id="b", channel=Channel.SMS, body="see you soon", label=Label.HAM),
            )
        )
        with pytest.raises(DetectorError, match="too small to hold out a validation split"):
            train(ms, TrainConfig(seed=0))

    # At N 600 / V 2000 the peak is about a third of one dense N x V float64
    # matrix, so only the whole matrix is a safe bound there. At N 6000 /
    # V 8000 it is about 4 % (14.9 of 384 MB), and the bound is an eighth of
    # the matrix: a dense bag matrix in training would exceed it eightfold.
    @pytest.mark.parametrize(
        "per_stratum, vocab_size, margin", [(100, 2000, 1), (1000, 8000, 8)], ids=["N600", "N6000"]
    )
    def test_peak_memory_stays_below_one_dense_bag_matrix(self, per_stratum, vocab_size, margin):
        corpus = synth_corpus(seed=5, per_channel_per_label=per_stratum)
        tracemalloc.start()
        try:
            model = train(corpus, TrainConfig(seed=5, epochs=3, patience=3, vocab_size=vocab_size))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(corpus), len(model.vocab)) == (6 * per_stratum, vocab_size)
        dense = len(corpus) * len(model.vocab) * np.dtype(np.float64).itemsize
        assert peak < dense / margin

    def test_temporaries_do_not_grow_with_nnz_times_hidden_width(self, monkeypatch):
        # Widening h from 8 to 64 adds (N, h) and (V, h) arrays, but the bag
        # products must stay O(nnz): the peak may not grow by a quarter of
        # one more (56, nnz) float64 gather.
        corpus = synth_corpus(seed=5, per_channel_per_label=500)
        nnz = []
        bags = _Sparse.bags

        def recording_bags(pieces, n_cols):
            matrix = bags(pieces, n_cols)
            nnz.append(len(matrix.cols))
            return matrix

        monkeypatch.setattr(_Sparse, "bags", recording_bags)
        peaks = {}
        for h in (8, 64):
            tracemalloc.start()
            try:
                train(corpus, TrainConfig(seed=5, epochs=3, patience=3, h=h))
                _, peaks[h] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        # Each `train` builds its training bags first, then its validation bags.
        train_nnz = max(nnz[0], nnz[2])
        assert peaks[64] - peaks[8] < 56 * train_nnz * np.dtype(np.float64).itemsize / 4

    def test_generalizes_to_fresh_corpus(self, frozen_model):
        from scamlens.corpus import synth_corpus

        fresh = synth_corpus(seed=99, per_channel_per_label=20)
        predictions = predict_set(frozen_model, fresh)
        predicted = [predictions[m.id].predicted_label for m in fresh]
        actual = [m.label for m in fresh]
        assert macro_f1(predicted, actual) >= 0.90


class TestImmutability:
    @pytest.mark.parametrize("source", ["trained", "loaded", "constructed"])
    def test_weight_arrays_are_read_only(self, trained_model, tmp_path, source):
        if source == "trained":
            model = trained_model
        elif source == "loaded":
            save_model(trained_model, tmp_path / "model.json")
            model = load_model(tmp_path / "model.json")
        else:
            inputs = {name: getattr(trained_model, name).copy() for name in WEIGHT_NAMES}
            model = DetectorModel(vocab=trained_model.vocab, out_b=trained_model.out_b, **inputs)
            # The model owns its weights: editing the caller's arrays changes nothing.
            for array in inputs.values():
                array[...] = 0.0
        for name in WEIGHT_NAMES:
            array = getattr(model, name)
            assert array.dtype == np.float64
            with pytest.raises(ValueError):
                array[0] = 1.0
            assert np.array_equal(array, getattr(trained_model, name))


    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("name", [*WEIGHT_NAMES, "out_b"])
    def test_non_finite_weight_rejected_at_construction(self, trained_model, name, bad):
        weights = {w: getattr(trained_model, w).copy() for w in WEIGHT_NAMES}
        weights["out_b"] = trained_model.out_b
        if name == "out_b":
            weights[name] = bad
        else:
            weights[name].flat[-1] = bad
        with pytest.raises(DetectorError, match="model weights contain non-finite values"):
            DetectorModel(vocab=trained_model.vocab, **weights)

    @pytest.mark.parametrize("d, h", [(1, 3), (4, 0)])
    def test_too_small_dimensions_rejected(self, d, h):
        with pytest.raises(ValueError, match="embedding dim must be >= 2 and hidden dim >= 1"):
            zero_model(d=d, h=h)


class TestLogitMacroF1:
    """The epoch's count-based F1 of `logits >= 0` equals `macro_f1` on labels."""

    @staticmethod
    def check(logits, scam) -> None:
        logits, scam = np.asarray(logits, dtype=np.float64), np.asarray(scam, dtype=bool)
        predicted = [Label.SCAM if z >= 0 else Label.HAM for z in logits]
        actual = [Label.SCAM if s else Label.HAM for s in scam]
        assert detector._logit_macro_f1(logits, scam) == macro_f1(predicted, actual)

    @given(
        st.lists(
            st.tuples(st.sampled_from([0.0, -0.0, 1e-300, -1e-300]) | st.floats(-5, 5), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=200)
    def test_equals_macro_f1_on_random_vectors(self, pairs):
        self.check([z for z, _ in pairs], [s for _, s in pairs])

    @pytest.mark.parametrize(
        "logits, scam",
        [
            ([1.0, 2.0, 0.0], [True, True, True]),  # one class, all right
            ([-1.0, -2.0], [False, False]),  # the other class alone
            ([-1.0, 0.5, -3.0], [True, True, True]),  # one class, some wrong
            ([-1.0, 2.0, -0.5, 0.0], [True, False, True, False]),  # all wrong
            ([0.0, 0.0, -0.0], [True, False, False]),  # exact zeros predict scam
        ],
        ids=["one_class", "other_class", "one_class_mixed", "all_wrong", "zero_logits"],
    )
    def test_equals_macro_f1_on_edge_vectors(self, logits, scam):
        self.check(logits, scam)


class TestMacroF1:
    def test_perfect_predictions(self):
        labels = [Label.SCAM, Label.HAM, Label.SCAM]
        assert macro_f1(labels, labels) == 1.0

    def test_all_scam_on_balanced_set(self):
        actual = [Label.SCAM] * 5 + [Label.HAM] * 5
        predicted = [Label.SCAM] * 10
        assert macro_f1(predicted, actual) == pytest.approx(1 / 3)

    def test_empty_lists_rejected(self):
        with pytest.raises(DetectorError, match=r"equal-length and non-empty \(0 vs 0\)"):
            macro_f1([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DetectorError, match=r"equal-length and non-empty \(1 vs 2\)"):
            macro_f1([Label.SCAM], [Label.SCAM, Label.HAM])

    def test_absent_class_contributes_zero(self):
        actual = [Label.HAM, Label.HAM]
        predicted = [Label.HAM, Label.HAM]
        assert macro_f1(predicted, actual) == 0.5

    @given(
        st.lists(st.booleans(), min_size=1, max_size=30),
        st.lists(st.booleans(), min_size=30, max_size=30),
    )
    @settings(max_examples=50)
    def test_symmetric_under_label_renaming(self, pred_bits, actual_bits):
        n = len(pred_bits)
        predicted = [Label.SCAM if b else Label.HAM for b in pred_bits]
        actual = [Label.SCAM if b else Label.HAM for b in actual_bits[:n]]
        swapped_p = [Label.HAM if p is Label.SCAM else Label.SCAM for p in predicted]
        swapped_a = [Label.HAM if a is Label.SCAM else Label.SCAM for a in actual]
        assert macro_f1(predicted, actual) == pytest.approx(macro_f1(swapped_p, swapped_a))


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path, trained_model, small_corpus):
        path = tmp_path / "model.json"
        save_model(trained_model, path)
        loaded = load_model(path)
        message = small_corpus.messages[0]
        assert predict_one(loaded, message) == predict_one(trained_model, message)
        assert loaded.val_macro_f1 == trained_model.val_macro_f1

    def test_bytes_equal_streaming_json_dump(self, tmp_path, trained_model):
        import io
        import json

        path = tmp_path / "model.json"
        save_model(trained_model, path)
        written = path.read_text(encoding="utf-8")
        streamed = io.StringIO()
        json.dump(json.loads(written), streamed)
        assert written == streamed.getvalue() + "\n"

    def test_header_written(self, tmp_path, trained_model):
        import json

        path = tmp_path / "model.json"
        save_model(trained_model, path)
        payload = json.loads(path.read_text())
        assert payload["format"] == CHECKPOINT_FORMAT

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DetectorError, match="expected checkpoint format"):
            load_model(path)

    def test_non_finite_checkpoint_rejected(self, tmp_path, trained_model):
        import json

        path = tmp_path / "model.json"
        save_model(trained_model, path)
        payload = json.loads(path.read_text())
        payload["out_b"] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(DetectorError, match="model weights contain non-finite values"):
            load_model(path)

    def test_non_finite_embedding_checkpoint_rejected(self, tmp_path, trained_model):
        # A NaN in a weight array, where the test above puts one in the scalar bias.
        import json

        path = tmp_path / "model.json"
        save_model(trained_model, path)
        payload = json.loads(path.read_text())
        payload["embedding"][0][0] = float("nan")
        path.write_text(json.dumps(payload))
        with pytest.raises(DetectorError, match="model weights contain non-finite values"):
            load_model(path)

    @pytest.mark.parametrize(
        ("edit", "cause"),
        [
            (lambda payload: payload.pop("embedding"), "KeyError: 'embedding'"),
            (lambda payload: payload.update(activation="relu"), "unknown activation"),
            (lambda payload: payload.update(out_b="not a number"), "could not convert"),
            (
                lambda payload: payload.update(embedding=payload["embedding"][:50]),
                "embedding must have shape",
            ),
            (
                lambda payload: payload.update(hidden_w=[row[:-1] for row in payload["hidden_w"]]),
                "hidden_w must have shape",
            ),
            (lambda payload: payload.update(piece_limit=0), "piece_limit must be >= 1"),
            (
                lambda payload: payload.update(pieces=payload["pieces"][1:]),
                "must start with the special pieces",
            ),
            (
                lambda payload: payload.update(pieces=payload["pieces"] + payload["pieces"][-1:]),
                "duplicate pieces",
            ),
            # Loading 1.9 as seed 1, or 2.7 as piece_limit 2, would misreport
            # the run's provenance or silently change tokenization.
            (lambda payload: payload.update(seed=1.9), "seed must be int, got 1.9"),
            (lambda payload: payload.update(seed=True), "seed must be int, got True"),
            (lambda payload: payload.update(piece_limit=2.7), "piece_limit must be int, got 2.7"),
            (lambda payload: payload.update(val_macro_f1="abc"), "could not convert string to float: 'abc'"),
            (lambda payload: payload.update(val_macro_f1=float("nan")), "nan is not a finite number"),
            (lambda payload: payload.update(epochs_run=[1]), "epochs_run must be int | None, got [1]"),
        ],
        ids=[
            "missing_embedding",
            "unknown_activation",
            "non_numeric_bias",
            "embedding_rows_short",
            "hidden_w_column_short",
            "piece_limit_zero",
            "pieces_lack_specials",
            "pieces_repeat_one",
            "float_seed",
            "bool_seed",
            "float_piece_limit",
            "string_val_macro_f1",
            "nan_val_macro_f1",
            "list_epochs_run",
        ],
    )
    def test_malformed_checkpoint_names_the_file(self, tmp_path, trained_model, edit, cause):
        import json

        path = tmp_path / "model.json"
        save_model(trained_model, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DetectorError, match="malformed checkpoint") as info:
            load_model(path)
        assert str(path) in str(info.value)
        assert cause in str(info.value)

    @pytest.mark.parametrize("f1", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_val_macro_f1_refused_at_construction(self, trained_model, f1):
        with pytest.raises(ValueError, match="is not a finite number"):
            replace(trained_model, val_macro_f1=f1)

    def test_absent_provenance_still_loads(self, tmp_path, trained_model):
        path = tmp_path / "model.json"
        save_model(replace(trained_model, val_macro_f1=None, epochs_run=None), path)
        loaded = load_model(path)
        assert loaded.val_macro_f1 is None and loaded.epochs_run is None

    def test_legacy_frozen_key_ignored(self, tmp_path, trained_model):
        import json

        path = tmp_path / "model.json"
        save_model(trained_model, path)
        payload = json.loads(path.read_text())
        assert "frozen" not in payload
        payload["frozen"] = True
        path.write_text(json.dumps(payload))
        loaded = load_model(path)
        assert np.array_equal(loaded.embedding, trained_model.embedding)
        assert not loaded.embedding.flags.writeable
