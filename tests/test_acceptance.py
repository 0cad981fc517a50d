"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured values. Run with `pytest -s` to see the
lines for passing criteria as well."""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import grad_wrt_embeddings, logit_from_embeddings, make_model, subprocess_env
from scamlens import cli, corpus
from scamlens.attribution import AttributionConfig, EvidenceSet, completeness_gap, gradient_shap
from scamlens.detector import (
    TokenizedInput,
    TrainConfig,
    tokenize,
    train,
)
from scamlens.evaluation import EvaluationConfig, NliScores, correctness, faithfulness, fkgl, lemmatize
from scamlens.generation import Condition, Explanation, GeneratorKind


def _announce(criterion: int, detail: str) -> None:
    print(f"[acceptance {criterion}] PASS - {detail}")


@pytest.fixture(scope="session")
def acceptance_corpus():
    return corpus.synth_corpus(seed=7, per_channel_per_label=100)


@pytest.fixture(scope="session")
def acceptance_model(acceptance_corpus):
    return train(acceptance_corpus, TrainConfig(seed=7))


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory):
    """Two full mock pipeline runs with identical config and seeds."""
    base = tmp_path_factory.mktemp("acceptance-pipeline")
    outs = []
    for name in ("run-a", "run-b"):
        config = cli.RunConfig(
            synth_seed=7,
            synth_per_stratum=40,
            train={"seed": 7},
            attribution=AttributionConfig(n_samples=64, noise_std=0.01, seed=11, k=8),
            sample_fraction=0.25,
            sample_seed=5,
            mock_llm=True,
            mock_nli=True,
            out_dir=str(base / name),
        )
        outs.append(cli.run_pipeline(config, allow_train=True))
    return outs


def _load_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_criterion_1_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(20240001)
    step = 1e-4
    worst = 0.0
    for _ in range(20):
        model = make_model(rng)
        n = int(rng.integers(2, 9))
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
        rel = np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 10.0
    _announce(1, f"gradient check: max relative error {worst:.3e} over 20 pairs in {elapsed:.2f}s")


def test_criterion_2_linear_fixture_completeness():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    model = make_model(rng, activation="identity")
    ids = tuple(int(i) for i in rng.integers(0, len(model.vocab), size=7))
    tok = TokenizedInput(ids, tuple(range(7)), tuple(f"w{i}" for i in range(7)))
    worst = 0.0
    for n_samples in (1, 16, 256):
        config = AttributionConfig(n_samples=n_samples, noise_std=0.0, seed=3)
        scores = gradient_shap(model, tok, config)
        gap = completeness_gap(model, tok, scores)
        assert gap <= 1e-9, n_samples
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _announce(2, f"linear completeness: worst gap {worst:.3e} for n_samples in {{1,16,256}} in {elapsed:.2f}s")


def test_criterion_3_sampling_converges(acceptance_corpus, acceptance_model):
    started = time.perf_counter()
    scams = [m for m in acceptance_corpus if m.label is corpus.Label.SCAM][:50]
    assert len(scams) == 50

    def mean_gap(n_samples: int) -> float:
        total = 0.0
        for i, message in enumerate(scams):
            tok = tokenize(
                corpus.format_input(message), acceptance_model.vocab, acceptance_model.piece_limit
            )
            config = AttributionConfig(n_samples=n_samples, noise_std=0.0, seed=1000 + i)
            total += completeness_gap(
                acceptance_model, tok, gradient_shap(acceptance_model, tok, config)
            )
        return total / len(scams)

    gap_small = mean_gap(16)
    gap_large = mean_gap(4096)
    elapsed = time.perf_counter() - started
    assert gap_large <= gap_small
    assert elapsed < 60.0
    _announce(
        3,
        f"completeness gap shrinks: {gap_small:.3e} @16 -> {gap_large:.3e} @4096 "
        f"over 50 inputs in {elapsed:.1f}s",
    )


def test_criterion_4_metric_oracles():
    # Faithfulness: brute-force set recomputation, exact equality.
    pool = [
        "urgent", "click", "prize", "winner", "verify", "account", "bank",
        "transfer", "deadline", "reward", "$500", "bit.ly/ab1cd", "now!!",
        "package", "refund", "password", "gift", "bonus", "expired", "claims",
    ]
    filler = ["please", "consider", "carefully", "report", "anyone", "today"]
    rng = random.Random(424242)
    for _ in range(100):
        words = rng.sample(pool, rng.randint(1, 8))
        evidence = EvidenceSet(phrases=tuple((w, 0.1) for w in words), k=8)
        mentioned = [w for w in words if rng.random() < 0.6]
        tokens = mentioned + rng.sample(filler, rng.randint(1, 4))
        rng.shuffle(tokens)
        explanation = Explanation(
            message_id="m",
            condition=Condition.XAI_ONLY,
            text=" ".join(tokens) + ".",
            generator=GeneratorKind.MOCK,
            model_name="mock",
        )
        reference = []
        for w in words:
            lemma = lemmatize(w)
            if lemma and lemma not in reference:
                reference.append(lemma)
        explanation_lemmas = [lemmatize(t) for t in explanation.text.split()]
        hits = sum(1 for lemma in reference if any(t == lemma for t in explanation_lemmas))
        assert faithfulness(evidence, explanation) == hits / len(reference)

    # Correctness: the three fixture points at alpha = 0.5.
    config = EvaluationConfig(alpha=0.5)
    assert correctness(NliScores(1.0, 0.0, 0.0), config) == pytest.approx(1.0, abs=1e-12)
    assert correctness(NliScores(0.2, 0.6, 0.2), config) == pytest.approx(0.5, abs=1e-12)
    assert correctness(NliScores(0.0, 0.0, 1.0), config) == pytest.approx(0.0, abs=1e-12)

    # FKGL: hand-counted fixtures, 1e-9 tolerance.
    fixtures = [
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
    for text, words, sentences, syllables in fixtures:
        breakdown = fkgl(text)
        assert (breakdown.words, breakdown.sentences, breakdown.syllables) == (
            words,
            sentences,
            syllables,
        )
        expected = 0.39 * (words / sentences) + 11.8 * (syllables / words) - 15.59
        assert math.isclose(breakdown.fkgl, expected, abs_tol=1e-9)

    _announce(4, "faithfulness oracle exact on 100 pairs; correctness and FKGL fixtures match")


def test_criterion_5_detector_trains_to_target_f1():
    # Run in a subprocess with BLAS threading pinned to one thread so the
    # single-threaded runtime bound is honest.
    script = (
        "import time\n"
        "from scamlens import corpus, detector\n"
        "c = corpus.synth_corpus(seed=7, per_channel_per_label=100)\n"
        "t0 = time.perf_counter()\n"
        "model = detector.train(c, detector.TrainConfig(seed=7))\n"
        "print(f'{model.val_macro_f1} {time.perf_counter() - t0}')\n"
    )
    env = subprocess_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    f1_text, elapsed_text = result.stdout.split()
    f1, elapsed = float(f1_text), float(elapsed_text)
    assert f1 >= 0.90
    assert elapsed < 60.0
    _announce(5, f"validation macro F1 {f1:.4f} in {elapsed:.2f}s single-threaded")


def test_criterion_6_mock_pipeline_trends(pipeline_runs):
    run = pipeline_runs[0]
    metrics = _load_jsonl(run / "metrics.jsonl")
    evidence_records = _load_jsonl(run / "evidence.jsonl")
    explanations = _load_jsonl(run / "explanations.jsonl")

    by_condition: dict[str, list[dict]] = {}
    for row in metrics:
        by_condition.setdefault(row["condition"], []).append(row)
    assert set(by_condition) == {c.value for c in Condition}

    # (a) evidence-echoing conditions score faithfulness 1.0 exactly; the
    # evidence-blind condition scores 0.0 exactly against the same evidence.
    echo_values = [
        row["faithfulness"]
        for condition in ("xai_only", "xai_high_vulnerability", "xai_low_vulnerability")
        for row in by_condition[condition]
    ]
    assert echo_values and all(v == 1.0 for v in echo_values)

    evidence_by_id = {
        r["id"]: EvidenceSet(
            phrases=tuple((p["word"], p["score"]) for p in r["phrases"]), k=r["k"]
        )
        for r in evidence_records
    }
    blind_values = []
    for record in explanations:
        if record["condition"] != "pure_llm":
            continue
        explanation = Explanation(
            message_id=record["message_id"],
            condition=Condition.PURE_LLM,
            text=record["text"],
            generator=GeneratorKind.MOCK,
            model_name=record["model_name"],
        )
        blind_values.append(faithfulness(evidence_by_id[record["message_id"]], explanation))
    assert blind_values and all(v == 0.0 for v in blind_values)

    # (b) every evidence-grounded condition beats the blind baseline on
    # correctness, strictly.
    def mean(condition: str, key: str) -> float:
        rows = by_condition[condition]
        return sum(r[key] for r in rows) / len(rows)

    blind_correctness = mean("pure_llm", "correctness")
    for condition in ("xai_only", "xai_high_vulnerability", "xai_low_vulnerability"):
        assert mean(condition, "correctness") > blind_correctness

    # (c) the high-vulnerability style reads strictly easier than the
    # low-vulnerability style.
    fkgl_high = mean("xai_high_vulnerability", "fkgl")
    fkgl_low = mean("xai_low_vulnerability", "fkgl")
    assert fkgl_high < fkgl_low

    _announce(
        6,
        "trends hold: faithfulness 1.0 echo / 0.0 blind; correctness "
        f"{mean('xai_only', 'correctness'):.3f} > {blind_correctness:.3f}; "
        f"FKGL {fkgl_high:.2f} < {fkgl_low:.2f}",
    )


def test_criterion_7_pipeline_determinism(pipeline_runs):
    run_a, run_b = pipeline_runs
    compared = []
    for name in ("evidence.jsonl", "explanations.jsonl", "metrics.jsonl", "report.json", "report.txt"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
        compared.append(name)
    _announce(7, f"byte-identical across two runs: {', '.join(compared)}")


def test_criterion_8_report_shape(pipeline_runs):
    run = pipeline_runs[0]
    table_lines = (run / "report.txt").read_text(encoding="utf-8").strip().splitlines()
    assert len(table_lines) == 5
    header = table_lines[0]
    for column in ("Condition", "Faithfulness", "Correctness", "FKGL"):
        assert column in header
    expected_rows = ("No XAI", "XAI Only", "XAI + High Vulnerability", "XAI + Low Vulnerability")
    for line, label in zip(table_lines[1:], expected_rows):
        assert line.startswith(label)
    assert "--" in table_lines[1]

    payload = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert [c["condition"] for c in payload["conditions"]] == [
        "pure_llm",
        "xai_only",
        "xai_high_vulnerability",
        "xai_low_vulnerability",
    ]
    for entry in payload["conditions"]:
        assert set(entry) == {"condition", "label", "n", "correctness", "fkgl", "faithfulness"}
        if entry["condition"] == "pure_llm":
            assert entry["faithfulness"] is None
        else:
            assert entry["faithfulness"] is not None

    _announce(8, "four-row table with three metric columns; faithfulness blank for the no-evidence row")
