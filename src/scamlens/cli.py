"""Command-line interface wiring the full pipeline.

Subcommands cover each stage (ingest, sample, train, predict, explain,
evaluate, report) plus the end-to-end `pipeline` run and a single-message
`explain-one` inspection utility. A JSON config file drives the pipeline;
string values may interpolate environment variables as ${NAME} so secrets
never land in run manifests.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import itertools
import json
import math
import os
import random
import re
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from . import __version__, attribution, corpus, detector, evaluation, generation, lexicon, persona


class ConfigError(Exception):
    """Configuration is incomplete or inconsistent."""


class StageError(Exception):
    """A pipeline stage failed; `stage` names it and `__cause__` is the failure."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


_ENV_VAR = re.compile(r"\$\{(\w+)\}")


def interpolate_env(value: Any) -> Any:
    """Replace ${NAME} in strings with environment values, recursively."""
    if isinstance(value, str):
        def repl(match: re.Match[str]) -> str:
            name = match.group(1)
            if name not in os.environ:
                raise ConfigError(f"config references unset environment variable {name}")
            return os.environ[name]

        return _ENV_VAR.sub(repl, value)
    if isinstance(value, dict):
        return {k: interpolate_env(v) for k, v in value.items()}
    if isinstance(value, list):
        return [interpolate_env(v) for v in value]
    return value


@dataclasses.dataclass
class RunConfig:
    """Resolved pipeline configuration with defaults suitable for mock runs.

    Stage settings are held in the stage's own config type, which defines
    their defaults; `train` stays a dict of `detector.TrainConfig` keywords.
    """

    corpus_path: str | None = None
    synth_seed: int = 7
    synth_per_stratum: int = 100
    model_path: str | None = None
    train: dict[str, Any] = dataclasses.field(default_factory=dict)
    sample_fraction: float = 0.10
    sample_seed: int = 0
    conditions: tuple[generation.Condition, ...] = tuple(generation.Condition)
    llm: generation.LlmClientConfig | None = None
    nli: generation.EndpointConfig | None = None
    mock_llm: bool = False
    mock_nli: bool = False
    out_dir: str | None = None
    config_sha256: str | None = None
    # Declared last because these names shadow the modules in the class body.
    attribution: attribution.AttributionConfig = attribution.AttributionConfig()
    evaluation: evaluation.EvaluationConfig = evaluation.EvaluationConfig()

    def __post_init__(self) -> None:
        if not (0.0 < self.sample_fraction <= 1.0):
            raise ConfigError("sample_fraction must be in (0, 1]")


# Top-level config keys that set the RunConfig field of the same name.
_PLAIN_KEYS = ("corpus_path", "model_path", "sample_fraction", "sample_seed", "out_dir")
# Keys of the `synth` section and the RunConfig fields they set.
_SYNTH_KEYS = {"seed": "synth_seed", "per_channel_per_label": "synth_per_stratum"}
_KNOWN_KEYS = {*_PLAIN_KEYS, "synth", "train", "attribution", "evaluation", "conditions", "llm", "nli"}
# Numbers may arrive as strings through ${NAME} interpolation, so they are
# converted; booleans and strings must arrive as their own JSON type.
_CASTS: dict[str, Callable[[Any], Any]] = {"int": int, "float": float}
_JSON_TYPES: dict[str, tuple[type, ...]] = {
    "bool": (bool,),
    "str": (str,),
    "str | None": (str, type(None)),
}


def _cast(key: str, value: Any, annotation: str) -> Any:
    """`value` converted to the field type named by `annotation` if numeric,
    else checked against it: a "bool" field takes only a JSON boolean, a
    "str" field only a string, and a "str | None" field a string or null.
    A numeric field refuses a JSON boolean, an "int" field a fraction, and a
    "float" field NaN and infinity."""
    json_types = _JSON_TYPES.get(annotation)
    cast = _CASTS.get(annotation)
    refused = json_types is not None and not isinstance(value, json_types)
    refused |= cast is not None and isinstance(value, bool)
    refused |= cast is int and isinstance(value, float) and not value.is_integer()
    if not refused:
        try:
            result = cast(value) if cast else value
            if cast is not float or math.isfinite(result):
                return result
        except (TypeError, ValueError):
            pass
    raise ConfigError(f"config key {key} must be {annotation}, got {value!r}")


def _section(data: Mapping[str, Any], name: str, types: Mapping[str, str]) -> dict[str, Any]:
    """Config section `name`, with each key checked against `types`, which
    maps the section's keys to their type annotations."""
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be a JSON object")
    unknown = sorted(set(section) - set(types))
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {unknown}")
    return {key: _cast(f"{name}.{key}", value, types[key]) for key, value in section.items()}


def _stage_config(data: Mapping[str, Any], name: str, cls: type, **extra: str) -> tuple[Any, dict]:
    """The stage config `cls` built from section `name` (None while a field
    without a default is unset) and the section's values of the `extra` keys."""
    fields = dataclasses.fields(cls)
    section = _section(data, name, {**{f.name: str(f.type) for f in fields}, **extra})
    extras = {key: section.pop(key) for key in extra if key in section}
    if any(f.name not in section for f in fields if f.default is dataclasses.MISSING):
        return None, extras
    try:
        return cls(**section), extras
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config section {name!r}: {exc}") from None


def parse_conditions(names: Sequence[str]) -> tuple[generation.Condition, ...]:
    out = []
    for name in names:
        try:
            condition = generation.Condition(name.strip())
        except ValueError:
            valid = ", ".join(c.value for c in generation.Condition)
            raise ConfigError(f"unknown condition {name!r}; valid: {valid}") from None
        if condition in out:
            raise ConfigError(f"condition {condition.value!r} is listed more than once")
        out.append(condition)
    if not out:
        raise ConfigError("condition list is empty")
    return tuple(out)


def load_run_config(path: str | Path | None) -> RunConfig:
    """Parse a JSON config. Every section is checked here, so a misspelt key
    or an invalid value fails before any stage runs."""
    raw_text = ""
    data: dict[str, Any] = {}
    if path is not None:
        try:
            raw_text = Path(path).read_text(encoding="utf-8")
            parsed = json.loads(raw_text)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: config is not valid JSON ({exc})") from None
        if not isinstance(parsed, dict):
            raise ConfigError("config document must be a JSON object")
        unknown = set(parsed) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = interpolate_env(parsed)

    run_types = {f.name: str(f.type) for f in dataclasses.fields(RunConfig)}
    fields = {key: _cast(key, data[key], run_types[key]) for key in _PLAIN_KEYS if key in data}
    synth = _section(data, "synth", {key: run_types[f] for key, f in _SYNTH_KEYS.items()})
    fields.update((_SYNTH_KEYS[key], value) for key, value in synth.items())
    if "conditions" in data:
        names = data["conditions"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ConfigError(f"config key conditions must be a list of names, got {names!r}")
        fields["conditions"] = parse_conditions(names)
    llm, llm_extra = _stage_config(data, "llm", generation.LlmClientConfig, mock="bool")
    nli, nli_extra = _stage_config(data, "nli", generation.EndpointConfig, mock="bool")
    return RunConfig(
        **fields,
        train=dataclasses.asdict(_stage_config(data, "train", detector.TrainConfig)[0]),
        attribution=_stage_config(data, "attribution", attribution.AttributionConfig)[0],
        evaluation=_stage_config(data, "evaluation", evaluation.EvaluationConfig)[0],
        llm=llm,
        nli=nli,
        mock_llm=llm_extra.get("mock", False),
        mock_nli=nli_extra.get("mock", False),
        config_sha256=hashlib.sha256(raw_text.encode("utf-8")).hexdigest() if raw_text else None,
    )


def apply_overrides(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        config.synth_seed = args.seed
        config.sample_seed = args.seed
        config.attribution = dataclasses.replace(config.attribution, seed=args.seed)
        config.train = dict(config.train, seed=args.seed)
    if getattr(args, "mock", False):
        config.mock_llm = True
        config.mock_nli = True
    if getattr(args, "conditions", None):
        config.conditions = parse_conditions(args.conditions.split(","))
    if getattr(args, "out", None):
        config.out_dir = args.out
    return config


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
        handle.write("\n")


@contextlib.contextmanager
def _run_dir(out_dir: str | None) -> Iterator[tuple[Path, Path]]:
    """Yields (`<out>.partial`, `out`): the first is claimed by an exclusive mkdir
    before `out` is checked, so two runs never share a directory, and is renamed
    to `out` when the block succeeds or removed when it raises. `out` defaults to
    ./runs/<UTC stamp>, suffixed -1, -2, ... while the name is taken."""
    if not out_dir:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
        names: Iterable[Path] = (Path("runs") / (f"{stamp}-{n}" if n else stamp) for n in itertools.count())
    elif Path(out_dir).name in ("", ".."):
        raise ConfigError(f"output directory {out_dir!r} has no name of its own")
    else:
        names = [Path(out_dir)]
    for out in names:
        partial = out.with_name(out.name + ".partial")
        try:
            partial.mkdir(parents=True)
        except FileExistsError:
            refusal = f"{partial} exists: another run is writing it, or a killed run left it and it can be deleted"
            continue
        try:
            if not (out.exists() and any(out.iterdir())):
                yield partial, out
                partial.rename(out)
                return
        except BaseException:
            shutil.rmtree(partial)
            raise
        partial.rmdir()
        refusal = f"output directory {out} already exists and is not empty"
    raise ConfigError(refusal)


# ---------------------------------------------------------------------------
# Pipeline stages. `run_pipeline` and the stage subcommands share one function
# per stage (`_predict`, `_explain`, `_evaluate`, `_report`) that runs the stage
# and writes its artifacts.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _stage(name: str) -> Iterator[None]:
    """Its block run as stage `name`, a failure raised as a StageError naming it.
    A StageError from a stream that an earlier stage handed on keeps its name."""
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


_T = TypeVar("_T")


def _staged(name: str, stream: Iterable[_T]) -> Iterator[_T]:
    """`stream` read as stage `name`, so a lazy stream read by a later stage
    still names the stage that made it."""
    with _stage(name):
        yield from stream


_GENERATOR_MISSING = "remote generation needs llm.base_url and llm.model_name, or --mock"
_SCORER_MISSING = "remote scoring needs nli.base_url, or --mock"


def _check_endpoint(mock: bool, endpoint: generation.EndpointConfig | None, missing: str) -> None:
    """Unless mocked, the endpoint must be configured and have its key, if it names one."""
    if mock:
        return
    if endpoint is None:
        raise ConfigError(missing)
    generation.auth_headers(endpoint)


def _check_out_file(path: str) -> None:
    """An --out file must be in an existing directory and not be a directory itself."""
    if Path(path).is_dir() or not Path(path).parent.is_dir():
        raise ConfigError(f"--out {path!r} names no file in an existing directory")


def _explanation_subset(
    config: RunConfig, filtered: corpus.MessageSet
) -> corpus.MessageSet:
    """Stratified fraction of filtered scam messages per channel, shared by
    every condition in the run."""
    rng = random.Random(config.sample_seed)
    selected: list[int] = []
    for channel in corpus.Channel:
        stratum = [i for i, m in enumerate(filtered.messages) if m.channel is channel]
        if not stratum:
            continue
        # Never above len(stratum), because sample_fraction <= 1.
        count = max(1, int(math.floor(config.sample_fraction * len(stratum) + 0.5)))
        selected.extend(rng.sample(stratum, count))
    selected.sort()
    return corpus.MessageSet(tuple(filtered.messages[i] for i in selected))


def _compute_evidence(
    config: RunConfig, model: detector.DetectorModel, messages: corpus.MessageSet
) -> dict[str, attribution.EvidenceSet]:
    """Evidence by message id in input order, computed as stage 'attribution';
    a message whose evidence is empty is left out."""
    evidence_by_id: dict[str, attribution.EvidenceSet] = {}
    with _stage("attribution"):
        for message in messages:
            tokenized = detector.tokenize(
                corpus.format_input(message), model.vocab, model.piece_limit
            )
            scores = attribution.gradient_shap(model, tokenized, config.attribution)
            by_word = attribution.aggregate_to_words(scores, tokenized)
            evidence = attribution.filter_evidence(by_word, tokenized.words, config.attribution.k)
            if evidence.phrases:
                evidence_by_id[message.id] = evidence
    return evidence_by_id


# explain-one's --persona values.
_PERSONA_CONDITIONS = {
    "high": generation.Condition.XAI_HIGH_VULNERABILITY,
    "low": generation.Condition.XAI_LOW_VULNERABILITY,
    "none": generation.Condition.XAI_ONLY,
}


def _build_prompts(
    config: RunConfig,
    messages: corpus.MessageSet,
    evidence_by_id: Mapping[str, attribution.EvidenceSet],
) -> Iterator[generation.Prompt]:
    for condition in config.conditions:
        for message in messages:
            if message.id in evidence_by_id:
                yield generation.build_prompt(
                    condition,
                    corpus.format_input(message),
                    evidence_by_id[message.id] if condition.wants_evidence else None,
                    message_id=message.id,
                )


def _generate_all(
    config: RunConfig, prompts: Iterable[generation.Prompt]
) -> Iterator[generation.Explanation]:
    """Explanations in prompt order, a lazy stream whose failures name stage
    'generate'. Scoring reads the stream, so a mock explanation is scored
    before the next prompt is built, and requests for later prompts overlap
    the scoring of earlier explanations."""
    if config.mock_llm:
        return _staged("generate", map(generation.mock_generate, prompts))
    return _staged("generate", generation.generate_many(config.llm, prompts))


def _predict(
    model: detector.DetectorModel, messages: corpus.MessageSet, path: Path
) -> dict[str, detector.Prediction]:
    with _stage("predict"):
        predictions = detector.predict_set(model, messages)
    records = (detector.prediction_to_record(mid, p) for mid, p in predictions.items())
    corpus.write_jsonl(path, records)
    return predictions


def _explain(
    config: RunConfig, model: detector.DetectorModel, messages: corpus.MessageSet, out: Path
) -> tuple[dict[str, attribution.EvidenceSet], Iterator[generation.Explanation]]:
    """Evidence by message id (see `_compute_evidence`) and the explanation stream (see
    `_generate_all`), each explanation written to explanations.jsonl as it is read."""
    evidence_by_id = _compute_evidence(config, model, messages)
    if not evidence_by_id:
        raise ConfigError("every message to explain produced an empty evidence set")
    seed = config.attribution.seed
    records = (attribution.evidence_to_record(mid, e, seed) for mid, e in evidence_by_id.items())
    corpus.write_jsonl(out / "evidence.jsonl", records)
    prompts = _staged("prompts", _build_prompts(config, messages, evidence_by_id))
    explanations = _generate_all(config, prompts)
    path = out / "explanations.jsonl"
    return evidence_by_id, corpus.written_jsonl(path, explanations, generation.explanation_to_record)


def _evaluate(
    config: RunConfig,
    explanations: Iterable[generation.Explanation],
    evidence_by_id: Mapping[str, attribution.EvidenceSet],
    path: Path,
) -> list[evaluation.MessageMetrics]:
    """Metrics of the explanations, read once by the NLI scorer, in input order.

    A mock score is measured before the next explanation is read, so its
    faithfulness reuses the lemma set the mock scorer just computed."""
    with _stage("evaluate"):
        if config.mock_nli:
            scored = ((e, evaluation.mock_score_nli(e)) for e in explanations)
        else:
            scored = evaluation.score_nli_many(config.nli, explanations)
        rows = (
            evaluation.MessageMetrics(
                message_id=e.message_id,
                condition=e.condition,
                correctness=evaluation.correctness(scores, config.evaluation),
                fkgl=evaluation.fkgl(e.text).fkgl,
                faithfulness=evaluation.faithfulness(evidence_by_id[e.message_id], e)
                if e.condition.wants_evidence
                else None,
            )
            for e, scores in scored
        )
        return list(corpus.written_jsonl(path, rows, evaluation.metrics_to_record))


def _report(metrics: Sequence[evaluation.MessageMetrics], out: Path) -> str:
    with _stage("report"):
        report = evaluation.aggregate_report(metrics)
    _write_json(out / "report.json", evaluation.report_to_json(report))
    table = evaluation.render_report_table(report)
    (out / "report.txt").write_text(table, encoding="utf-8")
    return table


def run_pipeline(config: RunConfig, allow_train: bool) -> Path:
    _check_endpoint(config.mock_llm, config.llm, _GENERATOR_MISSING)
    _check_endpoint(config.mock_nli, config.nli, _SCORER_MISSING)
    if bool(config.model_path) == allow_train:
        raise ConfigError("the detector needs exactly one source: model_path (a checkpoint to load) or --train")
    if config.model_path and not Path(config.model_path).is_file():
        raise ConfigError(f"model_path {config.model_path!r} names no file; make one with scamlens train --out")
    with _run_dir(config.out_dir) as (run, out):
        with _stage("corpus"):
            if config.corpus_path:
                messages = corpus.load_jsonl(config.corpus_path)
            else:
                messages = corpus.synth_corpus(config.synth_seed, config.synth_per_stratum)
        corpus.save_jsonl(messages, run / "corpus.jsonl")

        with _stage("model"):
            if config.model_path:
                model = detector.load_model(config.model_path)
            else:
                model = detector.train(messages, detector.TrainConfig(**config.train))
                detector.save_model(model, run / "model.json")

        predictions = _predict(model, messages, run / "predictions.jsonl")

        predicted_labels = {mid: p.predicted_label for mid, p in predictions.items()}
        with _stage("filter"):
            filtered = corpus.filter_for_explanation(messages, predicted_labels)
        del messages, predictions, predicted_labels  # the corpus and its predictions
        if len(filtered) == 0:
            raise ConfigError("no messages survived the explanation filter")
        corpus.save_jsonl(filtered, run / "filtered.jsonl")

        with _stage("subset"):
            subset = _explanation_subset(config, filtered)
        del filtered  # the filtered set; the subset holds what is explained
        corpus.save_jsonl(subset, run / "subset.jsonl")

        train_seed = model.seed
        evidence_by_id, generated = _explain(config, model, subset, run)
        del model  # the detector, with its vocabulary's segmentation memo
        metrics = _evaluate(config, generated, evidence_by_id, run / "metrics.jsonl")
        _report(metrics, run)

        manifest = {
            "package_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "config_sha256": config.config_sha256,
            "generator": "mock" if config.mock_llm else "remote",
            "nli": "mock" if config.mock_nli else "remote",
            "seeds": {
                "synth": config.synth_seed,
                "train": train_seed,
                "sample": config.sample_seed,
                "attribution": config.attribution.seed,
            },
            "sample_fraction": config.sample_fraction,
            "conditions": [c.value for c in config.conditions],
            "stopwords_version": lexicon.STOPWORDS_VERSION,
            "phrase_bank_version": persona.PHRASE_BANK_VERSION,
            "model_path": str(Path(config.model_path or out / "model.json")),
            "empty_evidence_dropped": len(subset) - len(evidence_by_id),
            "artifacts": sorted(p.name for p in run.iterdir()),
        }
        _write_json(run / "manifest.json", manifest)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_ingest(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    message_set = corpus.ingest_jsonl(args.infile, corpus.Channel(args.channel))
    corpus.save_jsonl(message_set, args.out)
    print(f"ingested {len(message_set)} messages to {args.out}")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    message_set = corpus.load_jsonl(args.infile)
    sampled = corpus.stratified_sample(message_set, args.per_stratum, args.seed)
    corpus.save_jsonl(sampled, args.out)
    print(f"sampled {len(sampled)} messages to {args.out}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    config = apply_overrides(load_run_config(args.config), args)
    messages = corpus.load_jsonl(args.corpus)
    model = detector.train(messages, detector.TrainConfig(**config.train))
    detector.save_model(model, args.out)
    print(f"trained detector (validation macro F1 {model.val_macro_f1:.4f}) -> {args.out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    messages = corpus.load_jsonl(args.corpus)
    model = detector.load_model(args.model)
    predictions = _predict(model, messages, Path(args.out))
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    config = apply_overrides(load_run_config(args.config), args)
    out = run_pipeline(config, allow_train=args.train)
    print(f"pipeline complete: {out}")
    print((out / "report.txt").read_text(encoding="utf-8"), end="")
    return 0


def _cmd_explain_one(args: argparse.Namespace) -> int:
    config = apply_overrides(load_run_config(args.config), args)
    config.conditions = (_PERSONA_CONDITIONS[args.persona],)
    _check_endpoint(config.mock_llm, config.llm, _GENERATOR_MISSING)
    model = detector.load_model(args.model)
    message = corpus.Message(
        id="adhoc-000000",
        channel=corpus.Channel(args.channel),
        body=args.text,
        label=corpus.Label.SCAM,
        subject=args.subject if args.channel == "email" else None,
        source="cli",
    )
    single = corpus.MessageSet((message,))
    prediction = detector.predict_set(model, single)[message.id]
    print(
        f"prediction: {prediction.predicted_label.value} "
        f"(p_scam={prediction.scam_probability:.4f}, logit={prediction.logit:+.4f})"
    )
    single = corpus.filter_for_explanation(single, {message.id: prediction.predicted_label})
    if len(single) == 0:
        print("not explained: like pipeline, explain-one explains only English messages predicted scam")
        return 1
    evidence_by_id = _compute_evidence(config, model, single)
    print("evidence:")
    for evidence in evidence_by_id.values():
        for word, score in evidence.phrases:
            print(f"  {score:+.5f}  {word}")
    if not evidence_by_id:
        print("  (empty)")
        return 1
    (explanation,) = _generate_all(config, _build_prompts(config, single, evidence_by_id))
    print(f"condition: {explanation.condition.value}")
    print(f"explanation ({explanation.generator.value}):")
    print(explanation.text)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    config = apply_overrides(load_run_config(args.config), args)
    _check_endpoint(config.mock_llm, config.llm, _GENERATOR_MISSING)
    messages = corpus.load_jsonl(args.corpus)
    model = detector.load_model(args.model)
    with _run_dir(config.out_dir) as (run, _):
        evidence_by_id, generated = _explain(config, model, messages, run)
        for _ in generated:
            pass
    dropped = len(messages) - len(evidence_by_id)
    print(f"explained {len(evidence_by_id)} messages ({dropped} dropped for empty evidence)")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    config = apply_overrides(load_run_config(args.config), args)
    _check_endpoint(config.mock_nli, config.nli, _SCORER_MISSING)
    evidence_by_id = dict(corpus.read_jsonl(args.evidence, attribution.evidence_from_record))
    explanations = corpus.read_jsonl(args.explanations, generation.explanation_from_record)
    wanted = {e.message_id for e in explanations if e.condition.wants_evidence}
    if missing := sorted(wanted - evidence_by_id.keys()):
        raise corpus.CorpusError(f"{args.evidence} has no evidence row for message {missing[0]!r}")
    metrics = _evaluate(config, explanations, evidence_by_id, Path(args.out))
    print(f"scored {len(metrics)} explanations to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    metrics = corpus.read_jsonl(args.metrics, evaluation.metrics_from_record)
    if not metrics:
        raise corpus.CorpusError(f"{args.metrics} holds no metric records")
    with _run_dir(args.out) as (run, _):
        print(_report(metrics, run), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scamlens",
        description="Scam-message explanation pipeline with evidence-grounded generation",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # Options that apply_overrides folds into the run config.
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config")
    seeded = argparse.ArgumentParser(add_help=False, parents=[configured])
    seeded.add_argument("--seed", type=int)
    mock = argparse.ArgumentParser(add_help=False)
    mock.add_argument("--mock", action="store_true")

    p = sub.add_parser("ingest", help="normalize raw JSONL records into the corpus format")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--channel", required=True, choices=[c.value for c in corpus.Channel])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("sample", help="stratified per-channel per-label sampling")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-stratum", dest="per_stratum", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("train", parents=[seeded], help="train the detector on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="run the detector over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("explain", parents=[seeded, mock], help="attribution + generation for a prepared corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--conditions")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("evaluate", parents=[configured, mock], help="score explanations against evidence")
    p.add_argument("--evidence", required=True)
    p.add_argument("--explanations", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="aggregate per-message metrics into the results table")
    p.add_argument("--metrics", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("pipeline", parents=[seeded, mock], help="run every stage end to end")
    p.add_argument("--train", action="store_true", help="fit the detector into <out>/model.json (no model_path)")
    p.add_argument("--conditions")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("explain-one", parents=[seeded, mock], help="inspect one message end to end")
    p.add_argument("--text", required=True)
    p.add_argument("--channel", required=True, choices=[c.value for c in corpus.Channel])
    p.add_argument("--subject")
    p.add_argument("--model", required=True)
    p.add_argument("--persona", choices=list(_PERSONA_CONDITIONS), default="none")
    p.set_defaults(func=_cmd_explain_one)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        StageError,
        ConfigError,
        corpus.CorpusError,
        detector.DetectorError,
        attribution.AttributionError,
        generation.GenerationError,
        evaluation.EvaluationError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
