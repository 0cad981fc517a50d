from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
import weakref
from collections import Counter
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from conftest import subprocess_env
from scamlens import attribution, cli, corpus, detector, evaluation, generation, lexicon, persona
from scamlens.attribution import AttributionConfig, EvidenceSet
from scamlens.cli import ConfigError, interpolate_env, load_run_config, parse_conditions
from scamlens.evaluation import EvaluationConfig
from scamlens.generation import MAX_IN_FLIGHT, OPENING_GATE, Condition, Explanation, GeneratorKind

ARTIFACTS = (
    "corpus.jsonl",
    "predictions.jsonl",
    "filtered.jsonl",
    "subset.jsonl",
    "evidence.jsonl",
    "explanations.jsonl",
    "metrics.jsonl",
    "report.json",
    "report.txt",
    "manifest.json",
)

# SHA-256 of the artifacts of `pipeline --mock --train` with the default
# `write_config` values. A change that alters these bytes on purpose re-pins
# them and says why.
GOLDEN_DIGESTS = {
    "predictions.jsonl": "d5cac40109c6958bb2a29b0b364f752047a4e7d90774ee8b39018a56c6b2a48d",
    "evidence.jsonl": "01abb6451bcaa6707560c6fcbfe728bc7fba72bfc3975081634abcbc32d46a06",
    "explanations.jsonl": "40c29179b1ba9ffc77a8d9869cca4a5bba52da6d7701ec669cce5a62b74e154a",
    "metrics.jsonl": "d66a53443b8828022bd3e4323c68d430fdb9a91b142dda2258f8c65739987767",
    "report.json": "f7f7394622108a47bba9a06b5f7985f0a481bd277525a3fc0369aa47a5dbd7bf",
    "report.txt": "a0013541b2bee9e365d3d0c021f3779249aac779be2a849b02521b5407e661ab",
}

# An endpoint key variable that no test sets.
_UNSET_KEY = {"api_key_env_var": "SCAMLENS_TEST_UNSET_KEY"}
# A generator that refuses every connection at once.
_UNREACHABLE_LLM = {"base_url": "http://127.0.0.1:9", "model_name": "m", "api_key_env_var": None, "max_retries": 0}


def write_config(path: Path, **overrides) -> Path:
    data = {
        "synth": {"seed": 7, "per_channel_per_label": 25},
        "train": {"seed": 7},
        "attribution": {"n_samples": 32, "noise_std": 0.01, "seed": 11, "k": 8},
        "sample_fraction": 0.3,
        "sample_seed": 5,
    }
    data.update(overrides)
    config_path = path / "config.json"
    config_path.write_text(json.dumps(data), encoding="utf-8")
    return config_path


class TestConfig:
    def test_env_interpolation(self, monkeypatch):
        monkeypatch.setenv("SOME_HOST", "example.internal")
        value = interpolate_env({"url": "http://${SOME_HOST}/v1", "n": 3})
        assert value == {"url": "http://example.internal/v1", "n": 3}

    def test_unset_variable_rejected(self, monkeypatch):
        monkeypatch.delenv("NOT_SET_ANYWHERE", raising=False)
        with pytest.raises(ConfigError):
            interpolate_env("${NOT_SET_ANYWHERE}")

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"bogus_key": 1}')
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_unknown_condition_rejected(self):
        with pytest.raises(ConfigError):
            parse_conditions(["xai_only", "nonsense"])

    def test_defaults_without_file(self):
        config = load_run_config(None)
        assert config.sample_fraction == 0.10
        assert config.conditions == (
            Condition.PURE_LLM,
            Condition.XAI_ONLY,
            Condition.XAI_HIGH_VULNERABILITY,
            Condition.XAI_LOW_VULNERABILITY,
        )

    def test_mock_flags_from_config_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"llm": {"mock": True}, "nli": {"mock": True}}))
        config = load_run_config(path)
        assert config.mock_llm and config.mock_nli
        assert config.llm is None and config.nli is None

    @pytest.mark.parametrize(
        "section, key",
        [
            ("synth", "sed"),
            ("train", "epoch"),
            ("attribution", "n_sample"),
            ("evaluation", "alhpa"),
            ("llm", "model"),
            ("nli", "base_ur"),
        ],
    )
    def test_misspelt_section_key_rejected(self, tmp_path, section, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: {key: 1}}))
        with pytest.raises(ConfigError, match=rf"{section}.*{key}"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "section, values, key",
        [
            ("synth", {"seed": "abc"}, "seed"),
            ("train", {"val_fraction": 2}, "val_fraction"),
            ("train", {"epochs": 0}, "epochs"),
            ("attribution", {"noise_std": -1}, "noise_std"),
            ("attribution", {"n_samples": 0}, "n_samples"),
            ("attribution", {"k": 0}, "k"),
            ("evaluation", {"alpha": 1.5}, "alpha"),
            ("llm", {"base_url": "http://x", "model_name": "m", "timeout": 0}, "timeout"),
            ("nli", {"base_url": "http://x", "max_retries": "many"}, "max_retries"),
            ("nli", {"base_url": "http://x", "max_retries": -1}, "max_retries"),
            ("nli", {"base_url": "http://x", "timeout": 0}, "timeout"),
            ("llm", {"mock": "false"}, "mock"),
            ("nli", {"mock": 1}, "mock"),
            ("nli", {"base_url": "http://x", "api_key_env_var": 5}, "api_key_env_var"),
            ("llm", {"base_url": "http://x", "model_name": 5}, "model_name"),
            ("train", {"limit": 0}, "limit"),
            ("train", {"d": 1}, "d"),
            ("train", {"h": 0}, "h"),
            ("train", {"epochs": 2.7}, "epochs"),
            ("train", {"lr": True}, "lr"),
            ("synth", {"seed": True}, "seed"),
            ("nli", {"base_url": "http://x", "max_retries": True}, "max_retries"),
            ("llm", {"base_url": "file:///etc/hosts", "model_name": "m"}, "base_url"),
            ("nli", {"base_url": "localhost:8000"}, "base_url"),
            ("train", {"lr": 0}, "lr"),
            ("train", {"lr": -5}, "lr"),
        ],
    )
    def test_invalid_section_value_rejected(self, tmp_path, section, values, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({section: values}))
        with pytest.raises(ConfigError, match=rf"{section}.*{key}"):
            load_run_config(path)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_interpolated_float_refuses_non_finite(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("LEARNING_RATE", value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"train": {"lr": "${LEARNING_RATE}"}}))
        with pytest.raises(ConfigError, match=rf"^config key train.lr must be float, got '{value}'$"):
            load_run_config(path)

    def test_sections_parse_into_stage_configs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ATTRIBUTION_SEED", "11")
        path = tmp_path / "config.json"
        data = {
            "attribution": {"n_samples": 3, "k": 5, "seed": "${ATTRIBUTION_SEED}"},
            "evaluation": {"alpha": 0.9},
            "train": {"epochs": 3},
        }
        path.write_text(json.dumps(data))
        config = load_run_config(path)
        assert config.attribution == AttributionConfig(n_samples=3, seed=11, k=5)
        assert config.evaluation == EvaluationConfig(alpha=0.9)
        assert detector.TrainConfig(**config.train) == detector.TrainConfig(epochs=3)

    def test_conditions_from_config_file_interpolate_inside_the_list(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIRST_CONDITION", "pure_llm")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"conditions": ["${FIRST_CONDITION}", "xai_only"]}))
        config = load_run_config(path)
        assert config.conditions == (Condition.PURE_LLM, Condition.XAI_ONLY)

    @pytest.mark.parametrize(
        "document, cause",
        [
            ('{"conditions": ["${NOT_SET_ANYWHERE}"]}', "unset environment variable NOT_SET_ANYWHERE"),
            ('{"conditions": []}', "condition list is empty"),
            ('{"conditions": ["xai_only", "nonsense"]}', "unknown condition 'nonsense'"),
            ('{"sample_fraction": 0}', "sample_fraction must be in (0, 1]"),
            ('{"sample_fraction": 1.5}', "sample_fraction must be in (0, 1]"),
            ('{"train": [1]}', "config section 'train' must be a JSON object"),
            ('{"synth": 7}', "config section 'synth' must be a JSON object"),
            ("[1, 2]", "config document must be a JSON object"),
            ('{"train": {"epochs": 2.7}}', "config key train.epochs must be int, got 2.7"),
            ('{"sample_seed": true}', "config key sample_seed must be int, got True"),
            ('{"sample_fraction": true}', "config key sample_fraction must be float, got True"),
            ('{"conditions": ["xai_only", "xai_only"]}', "condition 'xai_only' is listed more than once"),
            ('{"attribution": {"noise_std": NaN}}', "config key attribution.noise_std must be float, got nan"),
            ('{"train": {"lr": Infinity}}', "config key train.lr must be float, got inf"),
            ('{"train": {"lr": 0}}', "config section 'train': lr must be > 0, got 0.0"),
            ('{"train": {"lr": -5}}', "config section 'train': lr must be > 0, got -5.0"),
            ('{"sample_fraction": -Infinity}', "config key sample_fraction must be float, got -inf"),
            ('{"conditions": ["xai_only", 5]}', "config key conditions must be a list of names, got ['xai_only', 5]"),
            ('{"conditions": "xai_only"}', "config key conditions must be a list of names, got 'xai_only'"),
        ],
        ids=[
            "unset_variable_in_list",
            "empty_conditions",
            "unknown_condition",
            "sample_fraction_zero",
            "sample_fraction_above_one",
            "section_is_a_list",
            "section_is_a_number",
            "document_is_a_list",
            "fractional_int",
            "boolean_int",
            "boolean_float",
            "repeated_condition",
            "nan_float",
            "infinite_float",
            "zero_lr",
            "negative_lr",
            "negative_infinite_float",
            "non_string_condition",
            "conditions_not_a_list",
        ],
    )
    def test_rejected_config_document_fails_before_out_dir(
        self, tmp_path, capsys, monkeypatch, document, cause
    ):
        monkeypatch.delenv("NOT_SET_ANYWHERE", raising=False)
        path = tmp_path / "config.json"
        path.write_text(document)
        with pytest.raises(ConfigError) as info:
            load_run_config(path)
        assert cause in str(info.value)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--config", str(path), "--mock", "--train", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not out.exists()


class TestScoreAll:
    def test_scores_through_the_module_attributes_once_per_explanation(self, tmp_path, monkeypatch):
        # perfbench's span tracer wraps these three names on the module, so
        # scoring must keep calling them through it, once per explanation.
        calls = {name: [] for name in ("mock_score_nli", "faithfulness", "fkgl")}

        def counting(name):
            wrapped = getattr(evaluation, name)

            def wrapper(*args):
                calls[name].append(args[-1])
                return wrapped(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(evaluation, name, counting(name))
        evidence = {
            "m1": EvidenceSet(phrases=(("urgent", 0.3), ("prize", 0.2)), k=8),
            "m2": EvidenceSet(phrases=(("$500", 0.4),), k=8),
        }
        explanations = [
            Explanation(
                message_id=mid,
                condition=condition,
                text=f"Do not reply to {mid} : urgent , prize , $500 . Delete it.",
                generator=GeneratorKind.MOCK,
                model_name="mock",
            )
            for mid in evidence
            for condition in Condition
        ]
        path = tmp_path / "metrics.jsonl"
        metrics = cli._evaluate(cli.RunConfig(mock_nli=True), iter(explanations), evidence, path)

        assert [(m.message_id, m.condition) for m in metrics] == [
            (e.message_id, e.condition) for e in explanations
        ]
        assert calls["mock_score_nli"] == explanations
        assert calls["faithfulness"] == [e for e in explanations if e.condition.wants_evidence]
        assert calls["fkgl"] == [e.text for e in explanations]
        records = corpus.read_jsonl(path, evaluation.metrics_from_record)
        assert [(m.message_id, m.condition) for m in records] == [
            (e.message_id, e.condition) for e in explanations
        ]

    def test_mock_scoring_lemmatizes_each_explanation_once(self, tmp_path, monkeypatch):
        # The mock scorer and faithfulness both read an explanation's lemma
        # set; each explanation's tokens go through the lemmatizer once.
        evaluation.explanation_lemmas("")  # so no earlier text is remembered
        lemmatized = []
        content_lemma = evaluation._content_lemma

        def counting(token):
            lemmatized.append(token)
            return content_lemma(token)

        monkeypatch.setattr(evaluation, "_content_lemma", counting)
        evidence = {"m1": EvidenceSet(phrases=(("urgent", 0.3), ("prize", 0.2)), k=8)}
        explanations = [
            Explanation(
                message_id="m1",
                condition=condition,
                text=f"{condition.value} : urgent prize , claim now .",
                generator=GeneratorKind.MOCK,
                model_name="mock",
            )
            for condition in Condition
        ]
        metrics = cli._evaluate(
            cli.RunConfig(mock_nli=True), iter(explanations), evidence, tmp_path / "metrics.jsonl"
        )
        assert lemmatized == [token for e in explanations for token in e.text.split()]
        assert [m.faithfulness for m in metrics] == [
            1.0 if e.condition.wants_evidence else None for e in explanations
        ]


class TestBuildPrompts:
    # SHA-256 of the JSON list [system_text, user_text] of each condition's
    # prompt for MESSAGE and EVIDENCE. The mock generator ignores the style
    # text, so the golden digests cannot see these bytes; this pins them.
    PROMPT_DIGESTS = {
        "pure_llm": "b8c6f4d5e569f37f5407a44c2b3959158836aa2c2e94a11580248857c9c4a0f4",
        "xai_only": "fddc1e2cf52811e7cd7f26558df8d93d78582ff6ea552957f62273d02ba9b424",
        "xai_high_vulnerability": "3bf540581e49d103df639c6a3ce014f7dcbf4a7e41c2eb3aca846f48bcf73661",
        "xai_low_vulnerability": "566fa41f70bd263c7be6827f729365e970f6583d2483fd42eb58472053f2a07d",
    }
    MESSAGE = corpus.Message(
        id="m-000001",
        channel=corpus.Channel.EMAIL,
        body="Your account is locked. Verify at bit.ly/k2j3m within 24 hours!",
        label=corpus.Label.SCAM,
        subject="Final notice",
    )
    EVIDENCE = EvidenceSet(phrases=(("Verify", 0.5), ("bit.ly/k2j3m", 0.4), ("locked.", 0.1)), k=8)

    def test_every_prompt_byte_is_pinned(self):
        messages = corpus.MessageSet((self.MESSAGE,))
        prompts = list(cli._build_prompts(cli.RunConfig(), messages, {self.MESSAGE.id: self.EVIDENCE}))
        digests = {
            p.condition.value: hashlib.sha256(
                json.dumps([p.system_text, p.user_text]).encode("utf-8")
            ).hexdigest()
            for p in prompts
        }
        assert [p.condition for p in prompts] == list(Condition)
        assert {p.message_id for p in prompts} == {self.MESSAGE.id}
        assert digests == self.PROMPT_DIGESTS


class TestExplanationSubset:
    def test_a_channel_without_messages_draws_nothing(self):
        # No SNS message passes the filter, so only email and SMS are drawn from.
        messages = [
            m
            for m in corpus.synth_corpus(seed=3, per_channel_per_label=6)
            if m.label is corpus.Label.SCAM and m.channel is not corpus.Channel.SNS
        ]
        rng = random.Random(11)
        drawn = []
        for channel in (corpus.Channel.EMAIL, corpus.Channel.SMS):
            stratum = [i for i, m in enumerate(messages) if m.channel is channel]
            drawn.extend(rng.sample(stratum, 3))  # floor(0.5 * 6 + 0.5)
        config = cli.RunConfig(sample_fraction=0.5, sample_seed=11)
        subset = cli._explanation_subset(config, corpus.MessageSet(tuple(messages)))
        assert subset.messages == tuple(messages[i] for i in sorted(drawn))


class TestPipelineCommand:
    def test_mock_pipeline_writes_all_artifacts(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        rc = cli.main(
            ["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)]
        )
        assert rc == 0
        for name in ARTIFACTS:
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert len(report["conditions"]) == 4
        stdout = capsys.readouterr().out
        assert "No XAI" in stdout

    def test_identical_runs_are_byte_identical(self, tmp_path):
        config = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out_a)]) == 0
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out_b)]) == 0
        for name in ("evidence.jsonl", "explanations.jsonl", "metrics.jsonl", "report.json", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_mock_run_matches_golden_digests(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_DIGESTS}
        assert digests == GOLDEN_DIGESTS

    def test_runs_in_the_same_second_get_their_own_directories(
        self, tmp_path, frozen_model, monkeypatch
    ):
        class FrozenDatetime(datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)

        monkeypatch.setattr(cli, "datetime", FrozenDatetime)
        monkeypatch.chdir(tmp_path)
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        config = write_config(tmp_path, model_path=str(model_path))
        for _ in range(2):
            assert cli.main(["pipeline", "--config", str(config), "--mock"]) == 0
        runs = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert runs == ["20260102T030405Z", "20260102T030405Z-1"]
        for name in runs:
            assert (tmp_path / "runs" / name / "manifest.json").exists()

    def test_missing_model_without_train_flag_fails(self, tmp_path, capsys):
        config = write_config(tmp_path, model_path=str(tmp_path / "missing-model.json"))
        rc = cli.main(
            ["pipeline", "--config", str(config), "--mock", "--out", str(tmp_path / "run")]
        )
        assert rc != 0
        assert "model" in capsys.readouterr().err.lower()

    def test_ham_only_corpus_leaves_nothing_to_explain(
        self, tmp_path, frozen_model, small_corpus, capsys
    ):
        corpus_path = tmp_path / "corpus.jsonl"
        ham = corpus.MessageSet(tuple(m for m in small_corpus if m.label is corpus.Label.HAM))
        corpus.save_jsonl(ham, corpus_path)
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        config = write_config(tmp_path, corpus_path=str(corpus_path), model_path=str(model_path))
        rc = cli.main(["pipeline", "--config", str(config), "--mock", "--out", str(tmp_path / "run")])
        assert rc == 1
        assert capsys.readouterr().err == "error: no messages survived the explanation filter\n"

    def test_punctuation_only_words_leave_the_evidence_its_content(self, tmp_path):
        # A predicted scam whose strongest words are "--" kept only those as
        # evidence, which lemmatize to nothing, and scoring then failed.
        base = corpus.synth_corpus(seed=7, per_channel_per_label=25)
        punct = corpus.Message(
            id="punct-1",
            channel=corpus.Channel.SMS,
            body="-- -- -- -- -- -- -- -- -- urgent",
            label=corpus.Label.SCAM,
        )
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.save_jsonl(corpus.MessageSet(base.messages + (punct,)), corpus_path)
        model_path = tmp_path / "model.json"
        detector.save_model(detector.train(base, detector.TrainConfig(seed=7)), model_path)
        config = write_config(
            tmp_path, corpus_path=str(corpus_path), model_path=str(model_path), sample_fraction=1.0
        )
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--out", str(out)]) == 0
        predictions = {
            r["id"]: r for r in map(json.loads, (out / "predictions.jsonl").read_text().splitlines())
        }
        assert predictions["punct-1"]["predicted_label"] == "scam"
        evidence = {
            r["id"]: r for r in map(json.loads, (out / "evidence.jsonl").read_text().splitlines())
        }
        assert [p["word"] for p in evidence["punct-1"]["phrases"]] == ["urgent"]

    def test_existing_nonempty_out_dir_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        rc = cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)])
        assert rc != 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"attribution": {"noise_std": -1}},
            {"train": {"val_fraction": 2}},
            {"nli": {"base_url": "http://x", "max_retries": -1}},
            {"nli": {"base_url": "http://x", "timeout": 0}},
            {"train": {"limit": 0}},
            {"train": {"d": 1}},
        ],
    )
    def test_invalid_config_value_fails_before_out_dir(self, tmp_path, capsys, overrides):
        config = write_config(tmp_path, **overrides)
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_subset_shared_across_conditions(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)])
        per_condition: dict[str, set[str]] = {}
        for line in (out / "explanations.jsonl").read_text().splitlines():
            record = json.loads(line)
            per_condition.setdefault(record["condition"], set()).add(record["message_id"])
        id_sets = list(per_condition.values())
        assert len(id_sets) == 4
        assert all(ids == id_sets[0] for ids in id_sets)

    def test_manifest_records_seeds_and_config_hash(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == {"synth": 7, "train": 7, "sample": 5, "attribution": 11}
        assert manifest["generator"] == "mock"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["stopwords_version"] == lexicon.STOPWORDS_VERSION
        assert manifest["phrase_bank_version"] == persona.PHRASE_BANK_VERSION

    def test_manifest_train_seed_is_the_loaded_models(self, tmp_path, small_corpus):
        model_path = tmp_path / "model.json"
        detector.save_model(detector.train(small_corpus, detector.TrainConfig(seed=3)), model_path)
        config = write_config(tmp_path, model_path=str(model_path))
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"]["train"] == 3

    def test_remote_pipeline_against_stub_endpoints(self, tmp_path, stub_server, monkeypatch):
        monkeypatch.setenv("STUB_LLM_KEY", "k1")
        monkeypatch.setenv("STUB_NLI_KEY", "k2")

        def respond(path, body):
            if path == "/chat/completions":
                return {
                    "choices": [
                        {"message": {"content": "This urgent link is a scam. Do not click it."}}
                    ]
                }
            return {"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}

        stub_server.script = [{"status": 200, "body": respond}]
        config = write_config(
            tmp_path,
            llm={
                "base_url": stub_server.url,
                "model_name": "stub-model",
                "api_key_env_var": "STUB_LLM_KEY",
                "max_retries": 1,
                "timeout": 10,
                "backoff_base": 0.01,
            },
            nli={
                "base_url": stub_server.url,
                "api_key_env_var": "STUB_NLI_KEY",
                "max_retries": 1,
                "timeout": 10,
                "backoff_base": 0.01,
            },
        )
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--config", str(config), "--train", "--out", str(out)])
        assert rc == 0
        explanations = [
            json.loads(l) for l in (out / "explanations.jsonl").read_text().splitlines()
        ]
        assert explanations
        assert all(r["generator"] == "remote" for r in explanations)
        assert all(r["model_name"] == "stub-model" for r in explanations)
        metrics = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        # The stub's simplex point (0.7, 0.2, 0.1) scores 0.7 + 0.5 * 0.2.
        assert all(abs(m["correctness"] - 0.8) < 1e-12 for m in metrics)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["generator"] == "remote"
        assert manifest["nli"] == "remote"

    @pytest.mark.parametrize(
        "overrides, flags",
        [
            ({"llm": {"base_url": "http://x"}, "nli": {"mock": True}}, ["--train"]),
            ({"llm": {"mock": True}}, ["--train"]),
            (
                {
                    "llm": {"base_url": "http://127.0.0.1:9", "model_name": "m", **_UNSET_KEY},
                    "nli": {"mock": True},
                },
                ["--train"],
            ),
            (
                {"llm": {"mock": True}, "nli": {"base_url": "http://127.0.0.1:9", **_UNSET_KEY}},
                ["--train"],
            ),
            ({"model_path": "nomodel.json"}, ["--mock"]),
            # The detector comes from model_path or from --train, never both.
            ({"model_path": "ext/model.json", "llm": _UNREACHABLE_LLM, "nli": {"mock": True}}, ["--train"]),
            ({"model_path": "nodir/model.json"}, ["--mock", "--train"]),
            ({"model_path": "checkpoint.json"}, ["--mock", "--train"]),
        ],
    )
    def test_unusable_setup_fails_before_out_dir(
        self, tmp_path, capsys, monkeypatch, frozen_model, overrides, flags
    ):
        monkeypatch.delenv(_UNSET_KEY["api_key_env_var"], raising=False)
        monkeypatch.setattr(detector, "train", lambda *args, **kwargs: pytest.fail("the detector was trained"))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ext").mkdir()
        detector.save_model(frozen_model, tmp_path / "checkpoint.json")
        config = write_config(tmp_path, **overrides)
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "run"
        rc = cli.main(["pipeline", "--config", str(config), "--out", str(out), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
        assert sorted(tmp_path.rglob("*")) == before

    def test_remote_pipeline_without_endpoint_config_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = cli.main(["pipeline", "--config", str(config), "--train", "--out", str(tmp_path / "r")])
        assert rc != 0
        assert "llm.base_url" in capsys.readouterr().err

    def test_condition_subset_via_flag(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        rc = cli.main(
            [
                "pipeline",
                "--config",
                str(config),
                "--mock",
                "--train",
                "--out",
                str(out),
                "--conditions",
                "xai_only,xai_low_vulnerability",
            ]
        )
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert [c["condition"] for c in report["conditions"]] == [
            "xai_only",
            "xai_low_vulnerability",
        ]

    @pytest.mark.parametrize(
        "stage, target",
        [
            ("corpus", "corpus.synth_corpus"),
            ("model", "detector.train"),
            ("predict", "detector.predict_set"),
            ("filter", "corpus.filter_for_explanation"),
            ("subset", "cli._explanation_subset"),
            ("attribution", "attribution.gradient_shap"),
            ("prompts", "generation.build_prompt"),
            ("generate", "generation.mock_generate"),
            ("evaluate", "evaluation.fkgl"),
            ("report", "evaluation.aggregate_report"),
        ],
    )
    def test_every_stage_names_itself(self, tmp_path, capsys, monkeypatch, stage, target):
        boom = RuntimeError("boom")

        def fail(*args, **kwargs):
            raise boom

        monkeypatch.setattr(f"scamlens.{target}", fail)
        config_path = write_config(tmp_path)
        rc = cli.main(["pipeline", "--config", str(config_path), "--mock", "--train", "--out", str(tmp_path / "a")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: stage '{stage}' failed: boom\n"

        config = load_run_config(config_path)
        config.mock_llm = config.mock_nli = True
        config.out_dir = str(tmp_path / "b")
        with pytest.raises(cli.StageError) as info:
            cli.run_pipeline(config, allow_train=True)
        assert info.value.stage == stage
        assert info.value.__cause__ is boom

    def test_a_non_finite_evidence_score_fails_attribution_and_leaves_no_run_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        # The stage that made the value fails, rather than writing an artifact
        # that the stage commands' reader would refuse.
        def infinite(model, tokenized, config):
            return (math.inf,) * len(tokenized.piece_ids)

        monkeypatch.setattr(attribution, "gradient_shap", infinite)
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: stage 'attribution' failed: inf is not a finite number\n"
        assert not out.exists() and not (tmp_path / "run.partial").exists()

    def test_a_non_finite_logit_fails_predict_and_leaves_no_run_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(detector, "logits_from_pooled", lambda model, pooled: np.full(len(pooled), np.inf))
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: stage 'predict' failed: inf is not a finite number\n"
        assert not out.exists() and not (tmp_path / "run.partial").exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_json_writer_refuses_what_json_readers_refuse(self, tmp_path, bad):
        with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
            cli._write_json(tmp_path / "report.json", {"mean": bad})


class TestRunDirectory:
    """`pipeline`, `explain` and `report` write into `<out>.partial` and rename
    it to `<out>` when they succeed."""

    @staticmethod
    def _argv(tmp_path, frozen_model, command):
        """`command`'s arguments, all but --out."""
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        if command == "pipeline":
            config = write_config(tmp_path, model_path=str(model_path))
            return ["pipeline", "--config", str(config), "--mock"]
        if command == "explain":
            corpus_path = tmp_path / "messages.jsonl"
            corpus.save_jsonl(corpus.synth_corpus(seed=7, per_channel_per_label=2), corpus_path)
            return ["explain", "--corpus", str(corpus_path), "--model", str(model_path), "--mock"]
        metrics_path = tmp_path / "metrics.jsonl"
        row = {"message_id": "m1", "condition": "xai_only", "faithfulness": 1.0, "correctness": 0.5, "fkgl": 3.0}
        metrics_path.write_text(json.dumps(row) + "\n")
        return ["report", "--metrics", str(metrics_path)]

    @pytest.mark.parametrize("command", ["pipeline", "explain", "report"])
    def test_an_existing_partial_directory_is_refused_and_left_alone(
        self, tmp_path, frozen_model, capsys, command
    ):
        out = tmp_path / "run"
        partial = tmp_path / "run.partial"
        partial.mkdir()
        (partial / "corpus.jsonl").write_text("{}\n")
        rc = cli.main([*self._argv(tmp_path, frozen_model, command), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {partial} exists: another run is writing it,"
            " or a killed run left it and it can be deleted\n"
        )
        assert [p.name for p in partial.iterdir()] == ["corpus.jsonl"]
        assert (partial / "corpus.jsonl").read_text() == "{}\n"
        assert not out.exists()

    def test_a_second_claim_of_one_out_is_refused_until_the_first_is_published(self, tmp_path):
        out = tmp_path / "same"
        with cli._run_dir(str(out)) as (run, published):
            assert (run, published) == (tmp_path / "same.partial", out)
            (run / "report.txt").write_text("x")
            with pytest.raises(ConfigError, match="same.partial exists: another run is writing it"):
                with cli._run_dir(str(out)):
                    pass
        assert [p.name for p in out.iterdir()] == ["report.txt"]
        with pytest.raises(ConfigError, match="already exists and is not empty"):
            with cli._run_dir(str(out)):
                pass
        assert sorted(p.name for p in tmp_path.iterdir()) == ["same"]

    def test_an_interrupted_run_leaves_no_directory(self, tmp_path, frozen_model, monkeypatch):
        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("scamlens.evaluation.fkgl", interrupt)
        out = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            cli.main([*self._argv(tmp_path, frozen_model, "pipeline"), "--out", str(out)])
        assert not out.exists() and not (tmp_path / "run.partial").exists()

    def test_an_existing_empty_out_gets_a_full_run(self, tmp_path, frozen_model):
        out = tmp_path / "run"
        out.mkdir()
        assert cli.main([*self._argv(tmp_path, frozen_model, "pipeline"), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
        assert not (tmp_path / "run.partial").exists()

    def test_the_manifest_lists_the_published_directory(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert "model.json" in manifest["artifacts"]
        assert manifest["model_path"] == str(out / "model.json")
        assert Path(manifest["model_path"]).is_file()

    @pytest.mark.parametrize("name", [".", "..", "/"])
    def test_an_out_without_a_name_of_its_own_is_refused(
        self, tmp_path, frozen_model, capsys, monkeypatch, name
    ):
        argv = [*self._argv(tmp_path, frozen_model, "pipeline"), "--out", name]
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.chdir(empty)
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: output directory {name!r} has no name of its own\n"
        assert list(empty.iterdir()) == []

    def test_a_stamped_run_passes_over_a_partial_directory(self, tmp_path, frozen_model, monkeypatch):
        class FrozenDatetime(datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)

        monkeypatch.setattr(cli, "datetime", FrozenDatetime)
        argv = self._argv(tmp_path, frozen_model, "pipeline")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "runs" / "20260102T030405Z.partial").mkdir(parents=True)
        assert cli.main(argv) == 0
        runs = sorted(p.name for p in (tmp_path / "runs").iterdir())
        assert runs == ["20260102T030405Z-1", "20260102T030405Z.partial"]
        assert list((tmp_path / "runs" / "20260102T030405Z.partial").iterdir()) == []


def _stub_answer(path, body):
    if path == "/chat/completions":
        return {"choices": [{"message": {"content": "This urgent link is a scam. Do not click it."}}]}
    return {"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}


class TestRemoteOverlap:
    """Generation and scoring run at once against one ScriptedServer, which
    serves both endpoints and tells them apart by path."""

    @staticmethod
    def _run(tmp_path, frozen_model, stub_server, monkeypatch, status=200, hold=None):
        monkeypatch.setenv("STUB_LLM_KEY", "k1")
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        stub_server.script = [{"status": status, "body": _stub_answer, "delay": 0.01, "hold": hold or {}}]
        endpoint = {"base_url": stub_server.url, "max_retries": 0, "timeout": 10}
        config = write_config(
            tmp_path,
            model_path=str(model_path),
            llm={**endpoint, "model_name": "stub-model", "api_key_env_var": "STUB_LLM_KEY"},
            nli=endpoint,
        )
        out = tmp_path / "run"
        return cli.main(["pipeline", "--config", str(config), "--out", str(out)]), out

    @staticmethod
    def _count(stub_server, path):
        return sum(1 for p, _, _ in stub_server.requests if p == path)

    def test_scoring_starts_before_generation_ends_and_keeps_input_order(
        self, tmp_path, frozen_model, keep_alive_server, monkeypatch
    ):
        # Chat requests wait until MAX_IN_FLIGHT are open, so a worker that is
        # between two requests when the others overlap cannot hide the peak.
        hold = {"/chat/completions": MAX_IN_FLIGHT}
        rc, out = self._run(tmp_path, frozen_model, keep_alive_server, monkeypatch, hold=hold)
        assert rc == 0
        assert keep_alive_server.peak_in_flight["/chat/completions"] == MAX_IN_FLIGHT
        assert keep_alive_server.peak_in_flight["/nli"] <= MAX_IN_FLIGHT
        events = keep_alive_server.events
        first_nli = events.index(("request", "/nli"))
        last_chat_answer = max(i for i, e in enumerate(events) if e == ("answer", "/chat/completions"))
        assert first_nli < last_chat_answer

        subset = [json.loads(l)["id"] for l in (out / "subset.jsonl").read_text().splitlines()]
        expected = [(mid, c.value) for c in Condition for mid in subset]
        rows = {
            name: [json.loads(l) for l in (out / name).read_text().splitlines()]
            for name in ("explanations.jsonl", "metrics.jsonl")
        }
        for name, records in rows.items():
            assert [(r["message_id"], r["condition"]) for r in records] == expected, name
        assert self._count(keep_alive_server, "/nli") == self._count(keep_alive_server, "/chat/completions") == len(expected)

    def test_a_server_that_closes_every_connection_sees_the_opening_gate(
        self, tmp_path, frozen_model, stub_server, monkeypatch
    ):
        rc, out = self._run(tmp_path, frozen_model, stub_server, monkeypatch)
        assert rc == 0
        assert stub_server.peak_in_flight["/chat/completions"] == OPENING_GATE
        assert stub_server.peak_in_flight["/nli"] <= OPENING_GATE
        explained = len((out / "evidence.jsonl").read_text().splitlines())
        assert self._count(stub_server, "/nli") == self._count(stub_server, "/chat/completions") == 4 * explained

    def test_rejected_scoring_key_stops_generation(
        self, tmp_path, frozen_model, stub_server, monkeypatch, capsys
    ):
        rc, out = self._run(
            tmp_path, frozen_model, stub_server, monkeypatch,
            status=lambda path: 401 if path == "/nli" else 200,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'evaluate' failed:") and "401" in err
        assert not out.exists() and not out.with_name("run.partial").exists()
        # The evidence does not depend on the generator, so a mock run of the
        # same config explains as many messages.
        mock = tmp_path / "mock"
        assert cli.main(["pipeline", "--config", str(tmp_path / "config.json"), "--mock", "--out", str(mock)]) == 0
        explained = len((mock / "evidence.jsonl").read_text().splitlines())
        # The first rejected scoring call stops its batch: only the calls
        # already running send a request. A batch reads at most
        # 2 * MAX_IN_FLIGHT items before it waits for its first result, so
        # generation sends at most that many more than scoring has read.
        assert self._count(stub_server, "/nli") <= MAX_IN_FLIGHT
        assert self._count(stub_server, "/chat/completions") <= 4 * MAX_IN_FLIGHT < 4 * explained

    def test_rejected_generation_key_mid_batch_names_generate(
        self, tmp_path, frozen_model, stub_server, monkeypatch, capsys
    ):
        chat_requests = itertools.count(1)

        def status(path):
            if path == "/chat/completions" and next(chat_requests) > 3 * MAX_IN_FLIGHT:
                return 401
            return 200

        rc, out = self._run(tmp_path, frozen_model, stub_server, monkeypatch, status=status)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stage 'generate' failed:") and "401" in err
        assert self._count(stub_server, "/nli") >= 1
        assert not out.exists() and not out.with_name("run.partial").exists()


def _echo_answer(path, body):
    """A completion that echoes the prompt's evidence lines, so explanations differ by prompt."""
    if path == "/chat/completions":
        user = body["messages"][-1]["content"]
        cues = " , ".join(line[2:] for line in user.splitlines() if line.startswith("- "))
        return {"choices": [{"message": {"content": f"This message is a scam : {cues or 'no cues'} ."}}]}
    return {"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}


class TestRetryBudget:
    """A 503 is retried up to `max_retries` times, so a run whose requests
    draw no more 503s than that writes the same bytes as a run that draws none."""

    @staticmethod
    def _pipeline(tmp_path, server, max_retries, out):
        endpoint = {"base_url": server.url, "api_key_env_var": None, "max_retries": max_retries,
                    "timeout": 10, "backoff_base": 0.001}
        config = write_config(tmp_path, llm={**endpoint, "model_name": "stub-model"}, nli=endpoint)
        return cli.main(["pipeline", "--config", str(config), "--train", "--out", str(out)])

    # With one request in flight per endpoint, the first request draws all k 503s in a row.
    @pytest.mark.parametrize("in_flight", [1, MAX_IN_FLIGHT])
    @pytest.mark.parametrize("k", [1, 3])
    def test_503s_within_the_budget_change_no_artifact_byte(
        self, tmp_path, keep_alive_server, monkeypatch, k, in_flight
    ):
        monkeypatch.setattr(generation, "MAX_IN_FLIGHT", in_flight)
        rejections = iter(range(k))
        status = lambda path: 503 if next(rejections, None) is not None else 200  # noqa: E731
        keep_alive_server.script = [{"status": status, "body": _echo_answer}]
        out = tmp_path / "run"
        assert self._pipeline(tmp_path, keep_alive_server, k, out) == 0
        assert next(rejections, None) is None, "every 503 was drawn"
        retried = out.rename(tmp_path / "retried")
        assert self._pipeline(tmp_path, keep_alive_server, k, out) == 0
        # Each run sends one chat and one NLI request per explanation, and the first k more.
        explanations = len((out / "explanations.jsonl").read_text().splitlines())
        assert len(keep_alive_server.requests) == 2 * 2 * explanations + k
        assert sorted(p.name for p in retried.iterdir()) == sorted(p.name for p in out.iterdir())
        for path in out.iterdir():
            if path.name != "manifest.json":
                assert (retried / path.name).read_bytes() == path.read_bytes(), path.name
        manifests = [json.loads((run / "manifest.json").read_text()) for run in (retried, out)]
        for manifest in manifests:
            del manifest["created_utc"]
        assert manifests[0] == manifests[1]

    def test_an_nli_request_that_draws_only_503s_fails_stage_evaluate(self, tmp_path, keep_alive_server, capsys):
        keep_alive_server.script = [{"status": lambda path: 503 if path == "/nli" else 200, "body": _echo_answer}]
        out = tmp_path / "run"
        assert self._pipeline(tmp_path, keep_alive_server, 3, out) == 1
        expected = f"error: stage 'evaluate' failed: {keep_alive_server.url}/nli: server error (503)\n"
        assert capsys.readouterr().err == expected
        assert not out.exists() and not (tmp_path / "run.partial").exists()


class TestStageCommands:
    def test_ingest_then_sample_round_trip(self, tmp_path):
        raw = tmp_path / "raw.jsonl"
        rows = []
        for i in range(6):
            label = "spam" if i % 2 == 0 else "ham"
            rows.append(json.dumps({"body": f"message body {i}", "label": label}))
        raw.write_text("\n".join(rows) + "\n")

        messages = tmp_path / "messages.jsonl"
        assert cli.main(["ingest", "--in", str(raw), "--channel", "sms", "--out", str(messages)]) == 0
        loaded = corpus.load_jsonl(messages)
        assert len(loaded) == 6

        sampled = tmp_path / "sampled.jsonl"
        assert cli.main(
            ["sample", "--in", str(messages), "--out", str(sampled), "--per-stratum", "2", "--seed", "3"]
        ) == 0
        out = corpus.load_jsonl(sampled)
        assert Counter((m.channel, m.label) for m in out) == {
            (corpus.Channel.SMS, corpus.Label.SCAM): 2,
            (corpus.Channel.SMS, corpus.Label.HAM): 2,
        }

    def test_sample_rejects_a_non_positive_count(self, tmp_path, small_corpus, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.save_jsonl(small_corpus, corpus_path)
        out = tmp_path / "sampled.jsonl"
        rc = cli.main(["sample", "--in", str(corpus_path), "--out", str(out), "--per-stratum", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["model", "config"])
    def test_invalid_json_names_the_file(self, tmp_path, small_corpus, capsys, bad):
        bad_path = tmp_path / "bad.json"
        bad_path.write_text("not json")
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.save_jsonl(small_corpus, corpus_path)
        out = str(tmp_path / "out")
        args = {
            "model": ["predict", "--corpus", str(corpus_path), "--model", str(bad_path), "--out", out],
            "config": ["pipeline", "--config", str(bad_path), "--mock", "--train", "--out", out],
        }[bad]
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad_path) in err

    def test_train_and_predict_commands(self, tmp_path, small_corpus):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.save_jsonl(small_corpus, corpus_path)
        model_path = tmp_path / "model.json"
        assert cli.main(
            ["train", "--corpus", str(corpus_path), "--out", str(model_path), "--seed", "7"]
        ) == 0
        model = detector.load_model(model_path)
        assert model.val_macro_f1 is not None and model.val_macro_f1 >= 0.9

        predictions_path = tmp_path / "predictions.jsonl"
        assert cli.main(
            [
                "predict",
                "--corpus",
                str(corpus_path),
                "--model",
                str(model_path),
                "--out",
                str(predictions_path),
            ]
        ) == 0
        lines = predictions_path.read_text().splitlines()
        assert len(lines) == len(small_corpus)
        record = json.loads(lines[0])
        assert set(record) == {"id", "scam_probability", "logit", "predicted_label"}

    def test_train_reads_config(self, tmp_path, small_corpus, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.save_jsonl(small_corpus, corpus_path)
        model_path = tmp_path / "model.json"
        args = ["train", "--corpus", str(corpus_path), "--out", str(model_path)]
        config = write_config(tmp_path, train={"epochs": 2, "patience": 2})
        assert cli.main(args + ["--config", str(config)]) == 0
        assert detector.load_model(model_path).epochs_run <= 2

        model_path.unlink()
        config = write_config(tmp_path, train={"val_fraction": 2})
        assert cli.main(args + ["--config", str(config)]) == 1
        assert "val_fraction" in capsys.readouterr().err
        assert not model_path.exists()

    def test_train_and_pipeline_name_stage_model(self, tmp_path, small_corpus, capsys):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus.save_jsonl(corpus.MessageSet(tuple(m for m in small_corpus if m.label is corpus.Label.HAM)), corpus_path)
        refusal = "error: stage 'model' failed: training corpus must contain both scam and ham messages\n"
        model_path = tmp_path / "model.json"
        assert cli.main(["train", "--corpus", str(corpus_path), "--out", str(model_path)]) == 1
        assert capsys.readouterr().err == refusal
        assert not model_path.exists()
        config = write_config(tmp_path, corpus_path=str(corpus_path))
        out = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)]) == 1
        assert capsys.readouterr().err == refusal
        assert not out.exists() and not (tmp_path / "run.partial").exists()

    @pytest.mark.parametrize("out", ["nodir/out.json", "."], ids=["missing_parent", "directory"])
    def test_commands_check_their_out_before_any_work(
        self, tmp_path, small_corpus, frozen_model, stub_server, capsys, monkeypatch, out
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(detector, "train", lambda *args, **kwargs: pytest.fail("the detector was trained"))
        monkeypatch.setattr(detector, "predict_set", lambda *args, **kwargs: pytest.fail("the detector predicted"))
        stub_server.script = [{"body": {"entailment": 0.7, "neutral": 0.2, "contradiction": 0.1}}]
        corpus.save_jsonl(small_corpus, "corpus.jsonl")
        detector.save_model(frozen_model, "model.json")
        phrases = [{"word": "urgent", "score": 0.5}]
        Path("evidence.jsonl").write_text(json.dumps({"id": "m1", "phrases": phrases, "k": 8, "seed": 0}) + "\n")
        row = {"message_id": "m1", "condition": "xai_only", "text": "Urgent.", "generator": "mock", "model_name": "mock"}
        Path("explanations.jsonl").write_text(json.dumps(row) + "\n")
        config = write_config(tmp_path, nli={"base_url": stub_server.url, "api_key_env_var": None})
        commands = [
            ["ingest", "--in", "corpus.jsonl", "--channel", "sms", "--out", out],
            ["sample", "--in", "corpus.jsonl", "--out", out, "--per-stratum", "2"],
            ["train", "--corpus", "corpus.jsonl", "--out", out],
            ["predict", "--corpus", "corpus.jsonl", "--model", "model.json", "--out", out],
            ["evaluate", "--config", str(config), "--evidence", "evidence.jsonl",
             "--explanations", "explanations.jsonl", "--out", out],
        ]
        for command in commands:
            assert cli.main(command) == 1, command[0]
            assert capsys.readouterr().err == f"error: --out {out!r} names no file in an existing directory\n"
        assert stub_server.requests == []

    def test_train_help_lists_no_train_config_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["train", "--help"])
        usage = capsys.readouterr().out
        assert "--config" in usage and "--seed" in usage
        for flag in ("--lr", "--epochs", "--patience", "--dim", "--hidden", "--val-fraction", "--vocab-size"):
            assert flag not in usage

    def test_explain_command_writes_evidence_and_explanations(
        self, tmp_path, frozen_model, small_corpus, capsys
    ):
        scams = tuple(m for m in small_corpus if m.label is corpus.Label.SCAM)[:4]
        # Only stopwords: no evidence, so no prompt, and one drop.
        bare = corpus.Message(
            id="m-bare", channel=corpus.Channel.SMS, body="the and of to", label=corpus.Label.SCAM
        )
        corpus_path = tmp_path / "scams.jsonl"
        corpus.save_jsonl(corpus.MessageSet((scams[0], bare, *scams[1:])), corpus_path)
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        out = tmp_path / "explained"
        rc = cli.main(
            [
                "explain",
                "--corpus",
                str(corpus_path),
                "--model",
                str(model_path),
                "--out",
                str(out),
                "--mock",
                "--conditions",
                "xai_only",
            ]
        )
        assert rc == 0
        evidence_rows = [json.loads(l) for l in (out / "evidence.jsonl").read_text().splitlines()]
        explanation_rows = [
            json.loads(l) for l in (out / "explanations.jsonl").read_text().splitlines()
        ]
        assert [r["id"] for r in evidence_rows] == [m.id for m in scams]
        assert [r["message_id"] for r in explanation_rows] == [m.id for m in scams]
        assert all(r["condition"] == "xai_only" for r in explanation_rows)
        assert capsys.readouterr().out == "explained 4 messages (1 dropped for empty evidence)\n"

    def test_evaluate_and_report_commands(self, tmp_path):
        evidence_path = tmp_path / "evidence.jsonl"
        evidence_path.write_text(
            json.dumps(
                {
                    "id": "m1",
                    "phrases": [{"word": "urgent", "score": 0.5}, {"word": "link", "score": 0.2}],
                    "k": 8,
                    "seed": 0,
                }
            )
            + "\n"
        )
        explanations_path = tmp_path / "explanations.jsonl"
        rows = [
            {
                "message_id": "m1",
                "condition": "xai_only",
                "text": "The urgent link is a scam trap.",
                "generator": "mock",
                "model_name": "mock",
            },
            {
                "message_id": "m1",
                "condition": "pure_llm",
                "text": "Be wary of strangers bearing gifts.",
                "generator": "mock",
                "model_name": "mock",
            },
        ]
        explanations_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")

        metrics_path = tmp_path / "metrics.jsonl"
        assert cli.main(
            [
                "evaluate",
                "--evidence",
                str(evidence_path),
                "--explanations",
                str(explanations_path),
                "--out",
                str(metrics_path),
                "--mock",
            ]
        ) == 0
        metrics = [json.loads(l) for l in metrics_path.read_text().splitlines()]
        xai_row = next(m for m in metrics if m["condition"] == "xai_only")
        assert xai_row["faithfulness"] == 1.0

        report_dir = tmp_path / "report"
        assert cli.main(["report", "--metrics", str(metrics_path), "--out", str(report_dir)]) == 0
        table = (report_dir / "report.txt").read_text()
        assert "No XAI" in table and "--" in table


    def explain_args(self, tmp_path, frozen_model, messages, out):
        corpus_path = tmp_path / "messages.jsonl"
        corpus.save_jsonl(messages, corpus_path)
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        return ["explain", "--corpus", str(corpus_path), "--model", str(model_path), "--out", str(out), "--mock"]

    def test_explain_refuses_nonempty_out_dir(self, tmp_path, frozen_model, small_corpus, capsys):
        scams = corpus.MessageSet(tuple(m for m in small_corpus if m.label is corpus.Label.SCAM)[:2])
        out = tmp_path / "explained"
        out.mkdir()
        (out / "stale.jsonl").write_text("{}\n")
        rc = cli.main(self.explain_args(tmp_path, frozen_model, scams, out))
        assert rc != 0
        assert "not empty" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["stale.jsonl"]

    def test_explain_fails_when_every_evidence_set_is_empty(self, tmp_path, frozen_model, capsys):
        # Only stopwords: the evidence filter keeps nothing.
        message = corpus.Message(
            id="m1", channel=corpus.Channel.SMS, body="the and of to", label=corpus.Label.SCAM
        )
        rc = cli.main(
            self.explain_args(tmp_path, frozen_model, corpus.MessageSet((message,)), tmp_path / "out")
        )
        assert rc != 0
        assert "empty evidence" in capsys.readouterr().err

    def test_evaluate_rejects_malformed_evidence_record(self, tmp_path, capsys):
        evidence_path = tmp_path / "evidence.jsonl"
        evidence_path.write_text(json.dumps({"id": "m1", "phrases": [], "seed": 0}) + "\n")
        explanations_path = tmp_path / "explanations.jsonl"
        explanations_path.write_text("")
        rc = cli.main(
            [
                "evaluate",
                "--evidence",
                str(evidence_path),
                "--explanations",
                str(explanations_path),
                "--out",
                str(tmp_path / "metrics.jsonl"),
                "--mock",
            ]
        )
        assert rc != 0
        err = capsys.readouterr().err
        assert str(evidence_path) in err and "record 1" in err

    def test_evaluate_names_missing_evidence_row(self, tmp_path, capsys):
        evidence_path = tmp_path / "evidence.jsonl"
        phrases = [{"word": "urgent", "score": 0.5}]
        evidence_path.write_text(json.dumps({"id": "m1", "phrases": phrases, "k": 8, "seed": 0}) + "\n")
        explanations_path = tmp_path / "explanations.jsonl"
        row = {"message_id": "m2", "condition": "xai_only", "text": "Urgent.", "generator": "mock", "model_name": "mock"}
        explanations_path.write_text(json.dumps(row) + "\n")
        metrics_path = tmp_path / "metrics.jsonl"
        rc = cli.main(
            [
                "evaluate",
                "--evidence",
                str(evidence_path),
                "--explanations",
                str(explanations_path),
                "--out",
                str(metrics_path),
                "--mock",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(evidence_path) in err and "'m2'" in err
        assert not metrics_path.exists()

    def test_report_refuses_nonempty_out_dir(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        row = {"message_id": "m1", "condition": "xai_only", "faithfulness": 1.0, "correctness": 0.5, "fkgl": 3.0}
        metrics_path.write_text(json.dumps(row) + "\n")
        out = tmp_path / "report"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        rc = cli.main(["report", "--metrics", str(metrics_path), "--out", str(out)])
        assert rc == 1
        assert "not empty" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["stale.txt"]

    @pytest.mark.parametrize("rows", [1, 2])
    def test_report_refuses_non_finite_metric(self, tmp_path, capsys, rows):
        metrics_path = tmp_path / "metrics.jsonl"
        row = '{"message_id": "m%d", "condition": "xai_only", "faithfulness": 1.0, "correctness": NaN, "fkgl": 3.0}\n'
        metrics_path.write_text("".join(row % n for n in range(rows)))
        out = tmp_path / "report"
        rc = cli.main(["report", "--metrics", str(metrics_path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(metrics_path) in err and "record 1" in err and "NaN" in err
        assert not out.exists()

    def test_report_refuses_a_file_without_records(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        metrics_path.write_text("\n")
        out = tmp_path / "report"
        rc = cli.main(["report", "--metrics", str(metrics_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {metrics_path} holds no metric records\n"
        assert not out.exists()

    def test_evaluate_refuses_non_finite_evidence_score(self, tmp_path, capsys):
        evidence_path = tmp_path / "evidence.jsonl"
        evidence_path.write_text('{"id": "m1", "phrases": [{"word": "urgent", "score": NaN}], "k": 8, "seed": 0}\n')
        explanations_path = tmp_path / "explanations.jsonl"
        row = {"message_id": "m1", "condition": "xai_only", "text": "Urgent.", "generator": "mock", "model_name": "mock"}
        explanations_path.write_text(json.dumps(row) + "\n")
        metrics_path = tmp_path / "metrics.jsonl"
        rc = cli.main(
            [
                "evaluate",
                "--evidence",
                str(evidence_path),
                "--explanations",
                str(explanations_path),
                "--out",
                str(metrics_path),
                "--mock",
            ]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert str(evidence_path) in err and "record 1" in err and "NaN" in err
        assert not metrics_path.exists()

    @pytest.mark.parametrize("value", ['"nan"', '"inf"', "1e400"])
    @pytest.mark.parametrize("field", ["correctness", "fkgl", "faithfulness", "score"])
    def test_parsers_refuse_non_finite_numbers(self, tmp_path, capsys, field, value):
        # A string or an overflowing literal is no NaN or Infinity literal, so
        # the record parsers refuse it themselves. "@" marks the value's place.
        if field == "score":
            path, out = tmp_path / "evidence.jsonl", tmp_path / "metrics.jsonl"
            record = {"id": "m1", "phrases": [{"word": "urgent", "score": "@"}], "k": 8, "seed": 0}
            explanations = tmp_path / "explanations.jsonl"
            row = {"message_id": "m1", "condition": "xai_only", "text": "Urgent.", "generator": "mock", "model_name": "mock"}
            explanations.write_text(json.dumps(row) + "\n")
            argv = ["evaluate", "--evidence", str(path), "--explanations", str(explanations), "--mock"]
        else:
            path, out = tmp_path / "metrics.jsonl", tmp_path / "report"
            record = {"message_id": "m1", "condition": "xai_only", "faithfulness": 1.0, "correctness": 0.5, "fkgl": 3.0}
            record[field] = "@"
            argv = ["report", "--metrics", str(path)]
        path.write_text(json.dumps(record).replace('"@"', value) + "\n")
        rc = cli.main([*argv, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: record 1 is malformed (") and err.count("\n") == 1
        assert not out.exists()

    def test_report_rejects_unknown_condition(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.jsonl"
        row = {"message_id": "m1", "condition": "bogus", "faithfulness": None, "correctness": 0.5, "fkgl": 3.0}
        metrics_path.write_text(json.dumps(row) + "\n")
        rc = cli.main(["report", "--metrics", str(metrics_path), "--out", str(tmp_path / "report")])
        assert rc != 0
        err = capsys.readouterr().err
        assert str(metrics_path) in err and "record 1" in err


MALFORMED_CORPORA = {
    "not_an_object": "[1, 2]\n",
    "missing_label": json.dumps({"id": "m1", "channel": "sms", "body": "win cash"}) + "\n",
    "duplicate_id": 2 * (json.dumps({"id": "m1", "channel": "sms", "body": "win", "label": "spam"}) + "\n"),
}


class TestMalformedCorpus:
    def args(self, command, tmp_path, corpus_path, model_path):
        out = str(tmp_path / "out")
        return {
            "predict": ["predict", "--corpus", corpus_path, "--model", model_path, "--out", out],
            "train": ["train", "--corpus", corpus_path, "--out", out],
            "sample": ["sample", "--in", corpus_path, "--out", out, "--per-stratum", "1"],
            "explain": ["explain", "--corpus", corpus_path, "--model", model_path, "--out", out, "--mock"],
            "pipeline": [
                "pipeline",
                "--config",
                str(write_config(tmp_path, corpus_path=corpus_path)),
                "--mock",
                "--train",
                "--out",
                out,
            ],
        }[command]

    @pytest.mark.parametrize("kind", sorted(MALFORMED_CORPORA))
    @pytest.mark.parametrize("command", ["predict", "train", "sample", "explain", "pipeline"])
    def test_fails_with_one_line_naming_the_file(self, tmp_path, frozen_model, capsys, command, kind):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(MALFORMED_CORPORA[kind])
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        rc = cli.main(self.args(command, tmp_path, str(corpus_path), str(model_path)))
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(corpus_path) in err

    def test_ingest_names_file_and_record_number(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        raw.write_text(json.dumps({"body": "hi", "label": "ham"}) + "\n" + json.dumps({"body": "hi"}) + "\n")
        out = tmp_path / "messages.jsonl"
        rc = cli.main(["ingest", "--in", str(raw), "--channel", "sms", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(raw) in err and "record 2" in err and "label" in err
        assert not out.exists()


class TestExplainOne:
    def test_mock_explain_one_prints_evidence_and_text(self, tmp_path, frozen_model, capsys):
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        rc = cli.main(
            [
                "explain-one",
                "--text",
                "URGENT: your account is frozen, verify now at bit.ly/ab1cd",
                "--channel",
                "sms",
                "--model",
                str(model_path),
                "--persona",
                "high",
                "--mock",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "prediction:" in out
        assert "evidence:" in out
        assert "condition: xai_high_vulnerability" in out
        assert "explanation (mock):" in out

    def test_stopword_only_text_has_no_evidence_to_explain(self, tmp_path, frozen_model, capsys):
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        # Stopwords only, which the detector predicts scam (p_scam 0.5111).
        argv = ["explain-one", "--text", "before your now", "--channel", "sms"]
        rc = cli.main([*argv, "--model", str(model_path), "--persona", "high", "--mock"])
        out = capsys.readouterr().out
        assert rc == 1
        assert out.endswith("evidence:\n  (empty)\n")
        assert "explanation" not in out

    def test_a_message_predicted_ham_is_not_explained(self, tmp_path, frozen_model, capsys):
        # `pipeline` explains only what filter_for_explanation keeps, and so
        # does explain-one: no evidence, and no claim that this was flagged.
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        text = "See you at lunch tomorrow, bring the project notes please"
        rc = cli.main(["explain-one", "--text", text, "--channel", "sms", "--model", str(model_path), "--mock"])
        assert rc == 1
        assert capsys.readouterr().out == (
            "prediction: ham (p_scam=0.4960, logit=-0.0159)\n"
            "not explained: like pipeline, explain-one explains only English messages predicted scam\n"
        )

    def test_persona_none_maps_to_xai_only(self, tmp_path, frozen_model, capsys):
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        rc = cli.main(
            [
                "explain-one",
                "--text",
                "You won a $500 gift card, claim today at snip.ly/q2w3e",
                "--channel",
                "sms",
                "--model",
                str(model_path),
                "--persona",
                "none",
                "--mock",
            ]
        )
        assert rc == 0
        assert "condition: xai_only" in capsys.readouterr().out

    def test_mock_from_config_file_is_honoured(self, tmp_path, frozen_model, capsys):
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"llm": {"mock": True}}))
        rc = cli.main(
            [
                "explain-one",
                "--text",
                "URGENT: your account is frozen, verify now at bit.ly/ab1cd",
                "--channel",
                "sms",
                "--model",
                str(model_path),
                "--config",
                str(config_path),
            ]
        )
        assert rc == 0
        assert "explanation (mock):" in capsys.readouterr().out

    def test_unreachable_endpoint_surfaces_stage_error(self, tmp_path, frozen_model, capsys, monkeypatch):
        monkeypatch.setenv("TEST_LLM_KEY", "k")
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "llm": {
                        "base_url": "http://127.0.0.1:9",
                        "model_name": "m",
                        "api_key_env_var": "TEST_LLM_KEY",
                        "max_retries": 0,
                        "timeout": 0.5,
                        "backoff_base": 0.01,
                    }
                }
            )
        )
        rc = cli.main(
            [
                "explain-one",
                "--text",
                "URGENT: claim your prize now at bit.ly/zz9xx",
                "--channel",
                "sms",
                "--model",
                str(model_path),
                "--config",
                str(config_path),
            ]
        )
        assert rc != 0
        err = capsys.readouterr().err
        assert "generate" in err


def _artifact_bytes(run: Path) -> dict[str, bytes]:
    """Every file of a run directory except `manifest.json`, which records
    paths and times."""
    return {p.name: p.read_bytes() for p in sorted(run.iterdir()) if p.name != "manifest.json"}


class TestAimLedger:
    """Clauses of the roadmap's aims that hold today, each pinned by a test
    that names it."""

    def test_aim2_stage_subcommands_and_pipeline_call_the_same_stage_functions(self, tmp_path):
        config = write_config(tmp_path)
        run = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(run)]) == 0
        staged = tmp_path / "staged"
        model = str(run / "model.json")
        commands = [
            ["train", "--config", str(config), "--corpus", str(run / "corpus.jsonl"),
             "--out", str(tmp_path / "model.json")],
            ["predict", "--corpus", str(run / "corpus.jsonl"), "--model", model,
             "--out", str(tmp_path / "predictions.jsonl")],
            ["explain", "--config", str(config), "--mock", "--corpus", str(run / "subset.jsonl"),
             "--model", model, "--out", str(staged)],
            ["evaluate", "--config", str(config), "--mock", "--evidence", str(staged / "evidence.jsonl"),
             "--explanations", str(staged / "explanations.jsonl"), "--out", str(staged / "metrics.jsonl")],
            ["report", "--metrics", str(staged / "metrics.jsonl"), "--out", str(tmp_path / "report")],
        ]
        for command in commands:
            assert cli.main(command) == 0, command[0]
        produced = {
            "predictions.jsonl": tmp_path / "predictions.jsonl",
            "evidence.jsonl": staged / "evidence.jsonl",
            "explanations.jsonl": staged / "explanations.jsonl",
            "metrics.jsonl": staged / "metrics.jsonl",
            "report.json": tmp_path / "report" / "report.json",
            "report.txt": tmp_path / "report" / "report.txt",
        }
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in produced.items()}
        assert digests == GOLDEN_DIGESTS
        assert (tmp_path / "model.json").read_bytes() == (run / "model.json").read_bytes()

    def test_aim2_every_artifact_reads_back_to_its_own_bytes(self, tmp_path):
        config = write_config(tmp_path)
        run = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(run)]) == 0
        seed = load_run_config(config).attribution.seed
        messages = (corpus.message_from_record, corpus.message_to_record)
        formats = {
            "corpus.jsonl": messages,
            "filtered.jsonl": messages,
            "subset.jsonl": messages,
            "predictions.jsonl": (detector.prediction_from_record, lambda pair: detector.prediction_to_record(*pair)),
            "evidence.jsonl": (attribution.evidence_from_record, lambda pair: attribution.evidence_to_record(*pair, seed)),
            "explanations.jsonl": (generation.explanation_from_record, generation.explanation_to_record),
            "metrics.jsonl": (evaluation.metrics_from_record, evaluation.metrics_to_record),
        }
        assert set(formats) == {p.name for p in run.glob("*.jsonl")}
        copies = tmp_path / "copies"
        copies.mkdir()
        for name, (parse, to_record) in formats.items():
            corpus.write_jsonl(copies / name, map(to_record, corpus.read_jsonl(run / name, parse)))
            assert (copies / name).read_bytes() == (run / name).read_bytes(), name
        metrics = corpus.read_jsonl(run / "metrics.jsonl", evaluation.metrics_from_record)
        cli._write_json(copies / "report.json", evaluation.report_to_json(evaluation.aggregate_report(metrics)))
        assert (copies / "report.json").read_bytes() == (run / "report.json").read_bytes()

    def test_aim3_a_failed_run_never_leaves_a_half_written_run_directory(
        self, tmp_path, frozen_model, small_corpus, capsys
    ):
        # A ham-only corpus fails at the explanation filter, after the corpus
        # and the predictions are written; the same command then fails the
        # same way instead of finding a half-written directory.
        corpus_path = tmp_path / "corpus.jsonl"
        ham = corpus.MessageSet(tuple(m for m in small_corpus if m.label is corpus.Label.HAM))
        corpus.save_jsonl(ham, corpus_path)
        model_path = tmp_path / "model.json"
        detector.save_model(frozen_model, model_path)
        config = write_config(tmp_path, corpus_path=str(corpus_path), model_path=str(model_path))
        out = tmp_path / "hamrun"
        for _ in range(2):
            rc = cli.main(["pipeline", "--config", str(config), "--mock", "--out", str(out)])
            assert rc == 1
            assert capsys.readouterr().err == "error: no messages survived the explanation filter\n"
            assert not out.exists() and not (tmp_path / "hamrun.partial").exists()

    def test_aim3_a_failed_run_writes_nothing_outside_its_run_directory(self, tmp_path, capsys, monkeypatch):
        # A --train run fits the detector into its own run directory, so a
        # failure at stage 'generate' takes the checkpoint with it; an
        # external model_path with --train is refused before anything is written.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ext").mkdir()
        before = sorted(tmp_path.rglob("*"))
        config = write_config(tmp_path, llm=_UNREACHABLE_LLM, nli={"mock": True})
        assert cli.main(["pipeline", "--config", str(config), "--train", "--out", "run"]) == 1
        assert capsys.readouterr().err.startswith("error: stage 'generate' failed: ")
        config = write_config(tmp_path, llm=_UNREACHABLE_LLM, nli={"mock": True}, model_path="ext/model.json")
        assert cli.main(["pipeline", "--config", str(config), "--train", "--out", "run"]) == 1
        assert sorted(p for p in tmp_path.rglob("*") if p != config) == before

    def test_aim3_explain_and_evaluate_hold_one_explanation_at_a_time(self, tmp_path, monkeypatch):
        # A mock run builds, generates and scores each explanation before it
        # builds the next prompt, so no list of prompts or explanations lives.
        calls = []
        for module, name in (
            (generation, "build_prompt"), (generation, "mock_generate"), (evaluation, "mock_score_nli")
        ):
            def recorded(*args, _call=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _call(*args, **kwargs)

            monkeypatch.setattr(module, name, recorded)
        config = write_config(tmp_path)
        run = tmp_path / "run"
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(run)]) == 0
        explanations = len((run / "explanations.jsonl").read_text().splitlines())
        assert explanations > 1
        assert calls == ["build_prompt", "mock_generate", "mock_score_nli"] * explanations

    def test_aim3_a_run_releases_the_corpus_after_the_filter_and_the_detector_after_attribution(
        self, tmp_path, monkeypatch
    ):
        # Each per-run structure lives as long as the last stage that reads
        # it: the subset stage runs without the corpus or its predictions, and
        # explanation starts without the detector.
        refs: dict[str, weakref.ref] = {}
        alive_at: dict[str, list[str]] = {}

        def recording(module, name, record=None, pick=lambda result: result, check=None):
            call = getattr(module, name)

            def wrapper(*args, **kwargs):
                if check and check not in alive_at:
                    alive_at[check] = sorted(key for key, ref in refs.items() if ref() is not None)
                result = call(*args, **kwargs)
                if record:
                    refs[record] = weakref.ref(pick(result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        recording(corpus, "synth_corpus", record="corpus")
        recording(detector, "train", record="model")
        recording(detector, "predict_set", record="prediction", pick=lambda by_id: next(iter(by_id.values())))
        recording(cli, "_explanation_subset", check="subset")
        recording(generation, "build_prompt", check="prompts")
        config = write_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(tmp_path / "run")]) == 0
        assert sorted(refs) == ["corpus", "model", "prediction"]
        assert alive_at == {"subset": ["model"], "prompts": []}

    def test_aim3_outputs_are_a_pure_function_of_config_and_seeds_not_the_hash_seed(self, tmp_path):
        # perfbench pins PYTHONHASHSEED to 0, so only a test can see an
        # artifact that depends on set or dict-of-str iteration order.
        config = write_config(tmp_path)
        runs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"hash-seed-{hash_seed}"
            result = subprocess.run(
                [sys.executable, "-m", "scamlens", "pipeline", "--config", str(config),
                 "--mock", "--train", "--out", str(out)],
                capture_output=True,
                text=True,
                env=subprocess_env(PYTHONHASHSEED=hash_seed),
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            runs.append(_artifact_bytes(out))
        assert "model.json" in runs[0]
        assert runs[0] == runs[1]

    def test_aim3_outputs_are_a_pure_function_of_input_content_not_its_path(self, tmp_path):
        golden = tmp_path / "golden"
        config = write_config(tmp_path)
        assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(golden)]) == 0
        content = (golden / "corpus.jsonl").read_bytes()
        runs = []
        for name in ("a/corpus.jsonl", "b/another name.jsonl"):
            corpus_path = tmp_path / name
            corpus_path.parent.mkdir()
            corpus_path.write_bytes(content)
            config = write_config(corpus_path.parent, corpus_path=str(corpus_path))
            out = corpus_path.parent / "run"
            assert cli.main(["pipeline", "--config", str(config), "--mock", "--train", "--out", str(out)]) == 0
            runs.append(_artifact_bytes(out))
        assert runs[0] == runs[1]
        assert runs[0] == _artifact_bytes(golden)
