"""Seeded workload inputs for the scamlens benchmark.

Every input a workload needs (corpus, run config, checkpoint) is generated
here from the benchmark seed; the program under test only reads the files.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path

from scamlens import corpus, detector

CONDITIONS = ("pure_llm", "xai_only", "xai_high_vulnerability", "xai_low_vulnerability")

# The API key variable and the stub URL are resolved from the workload
# process's environment through the config's ${NAME} interpolation, so the
# secret never appears in a file.
API_KEY_ENV = "SCAMLENS_BENCH_API_KEY"
STUB_URL_ENV = "SCAMLENS_BENCH_STUB_URL"

# Pinned training budget: with patience equal to epochs, early stopping never
# fires, so every seed trains for the same number of epochs and run_s measures
# the cost of an epoch rather than how quickly a given corpus converges.
TRAIN_EPOCHS = 80


@dataclass(frozen=True)
class Size:
    per_stratum: int  # short synthetic messages per (channel, label)
    long_per_stratum: int  # long messages per (channel, label)
    sample_fraction: float


# "full" is what the benchmark measures; "tiny" keeps the self-test quick.
SIZES: dict[str, dict[str, Size]] = {
    "full": {
        "cold-train": Size(500, 0, 0.10),
        "warm-explain": Size(300, 50, 1.0),
        "remote-stub": Size(100, 0, 0.25),
    },
    "tiny": {
        "cold-train": Size(20, 0, 0.10),
        "warm-explain": Size(12, 3, 1.0),
        "remote-stub": Size(12, 0, 0.25),
    },
}

# Long messages: several synthetic bodies of one (channel, label) stratum,
# joined with runs of pseudo-word filler. The ranges put the median near 330
# pieces with roughly one message in eight over the detector's 512-piece
# limit, so front truncation fires without dominating.
_LONG_BODIES = (3, 9)
_FILLER_WORDS = (5, 22)
_FILLER_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _pseudo_word(rng: random.Random) -> str:
    return "".join(rng.choice(_FILLER_LETTERS) for _ in range(rng.randint(3, 9)))


def long_messages(seed: int, per_stratum: int) -> list[corpus.Message]:
    """`per_stratum` long messages for each (channel, label) stratum."""
    rng = random.Random(seed)
    pool = corpus.synth_corpus(seed + 1, 40)
    strata: dict[tuple[corpus.Channel, corpus.Label], list[corpus.Message]] = {}
    for message in pool:
        strata.setdefault((message.channel, message.label), []).append(message)
    out = []
    for (channel, label), bodies in strata.items():
        for i in range(per_stratum):
            parts = []
            for j in range(rng.randint(*_LONG_BODIES)):
                if j:
                    parts.append(" ".join(_pseudo_word(rng) for _ in range(rng.randint(*_FILLER_WORDS))))
                parts.append(rng.choice(bodies).body)
            out.append(
                corpus.Message(
                    id=f"long-{channel.value}-{label.value}-{i:04d}",
                    channel=channel,
                    body=" ".join(parts),
                    label=label,
                    subject=bodies[0].subject,
                    source="bench-long",
                )
            )
    return out


def input_properties(messages: corpus.MessageSet, vocab: detector.Vocab) -> dict[str, float]:
    """Properties the pipeline's cost depends on, for the workload record."""
    pieces = []
    truncated = 0
    words: list[str] = []
    for message in messages:
        formatted = corpus.format_input(message)
        full = detector.tokenize(formatted, vocab, limit=1 << 30)
        pieces.append(len(full.piece_ids))
        truncated += len(full.piece_ids) > detector.DEFAULT_PIECE_LIMIT
        words.extend(w.lower() for w in formatted.text.split())
    return {
        "messages": len(messages),
        "pieces_p50": statistics.median(pieces),
        "pieces_max": max(pieces),
        "truncated_share": truncated / len(messages),
        "distinct_word_share": len(set(words)) / len(words),
    }


def _train_config(seed: int) -> dict[str, int]:
    return {"seed": seed, "epochs": TRAIN_EPOCHS, "patience": TRAIN_EPOCHS}


def build(workload: str, seed: int, size: str, workdir: Path) -> None:
    """Write the workload's config (and corpus and checkpoint) into workdir.

    Everything written is a pure function of (workload, seed, size).
    """
    spec = SIZES[size][workload]
    workdir.mkdir(parents=True, exist_ok=True)
    config: dict[str, object] = {
        "train": _train_config(seed),
        "attribution": {"seed": seed},
        "sample_fraction": spec.sample_fraction,
        "sample_seed": seed,
        "conditions": list(CONDITIONS),
    }
    if workload == "cold-train":
        config["synth"] = {"seed": seed, "per_channel_per_label": spec.per_stratum}
    else:
        short = list(corpus.synth_corpus(seed, spec.per_stratum))
        messages = corpus.MessageSet(tuple(short + long_messages(seed, spec.long_per_stratum)))
        corpus.save_jsonl(messages, workdir / "corpus.jsonl")
        model = detector.train(messages, detector.TrainConfig(**_train_config(seed)))
        detector.save_model(model, workdir / "model.json")
        config["corpus_path"] = str(workdir / "corpus.jsonl")
        config["model_path"] = str(workdir / "model.json")
    if workload == "remote-stub":
        endpoint = {"api_key_env_var": API_KEY_ENV, "backoff_base": 0.005, "timeout": 10}
        config["llm"] = dict(endpoint, base_url=f"${{{STUB_URL_ENV}}}/v1", model_name="bench-stub")
        config["nli"] = dict(endpoint, base_url=f"${{{STUB_URL_ENV}}}")
    else:
        config["llm"] = {"mock": True}
        config["nli"] = {"mock": True}
    (workdir / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
