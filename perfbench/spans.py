"""In-memory span tracing of scamlens, applied from outside the package.

`Tracer.installed()` replaces public functions of the scamlens modules with
wrappers that record a span per call (name, start, end, parent span, run id)
and a few counts at the same boundary, and restores them on exit. Nothing in
the package changes.

A wrapper must replace the name the caller looks up: `attribution` imports
`grad_wrt_pooled` by name, so only `attribution.grad_wrt_pooled` sees the
calls gradient_shap makes. `Tracer.fired()` counts calls per target so the
self-test can assert that every wrapper fired.

Hooks and counts run only for targets called on the pipeline's own thread;
the HTTP clients' worker threads only append spans (a single list append).
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import itertools
import statistics
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterator


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    main_thread: bool
    run: int


Hook = Callable[["Tracer", tuple, Any], None]


def _on_tokenize(tracer: "Tracer", args: tuple, result: Any) -> None:
    # The channel marker is word 0 and one piece, so the first piece belongs
    # to a later word exactly when front truncation dropped leading pieces.
    truncated = bool(result.alignment) and result.alignment[0] > 0
    tracer.tokenized[args[0].text] = (len(result.piece_ids), truncated)
    tracer.counts["tokenize_calls"] += 1


def _on_load(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["messages"] += len(result)


def _on_train(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["train_epochs"] += result.epochs_run or 0


def _on_filter(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["filter_in"] += len(args[0])
    tracer.counts["filter_kept"] += len(result)


def _on_grad(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["grad_rows"] += args[1].shape[0]


def _on_evidence(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["empty_dropped"] += not result.phrases


@dataclasses.dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: bool = True  # False: count the call and run the hook, record no span
    hook: Hook | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS: tuple[Target, ...] = (
    Target("cli", "run_pipeline"),
    Target("corpus", "load_jsonl", hook=_on_load),
    Target("corpus", "synth_corpus", hook=_on_load),
    Target("corpus", "filter_for_explanation", hook=_on_filter),
    Target("detector", "train", hook=_on_train),
    Target("detector", "tokenize", hook=_on_tokenize),
    Target("detector", "predict_set"),
    Target("attribution", "gradient_shap"),
    Target("attribution", "grad_wrt_pooled", span=False, hook=_on_grad),
    Target("attribution", "aggregate_to_words"),
    Target("attribution", "filter_evidence", hook=_on_evidence),
    Target("persona", "build_instruction"),
    Target("generation", "build_prompt"),
    Target("generation", "mock_generate"),
    Target("generation", "generate_many"),
    Target("generation", "generate"),
    Target("evaluation", "mock_score_nli"),
    Target("evaluation", "score_nli_many"),
    Target("evaluation", "score_nli"),
    Target("evaluation", "faithfulness"),
    Target("evaluation", "fkgl"),
    Target("evaluation", "aggregate_report"),
    Target("evaluation", "report_to_json"),
    Target("evaluation", "render_report_table"),
)

# Layer time = self time of the layer's spans on the pipeline's own thread.
# Spans that run in the clients' worker threads give latencies only: the
# pipeline thread waits for them inside generate_many / score_nli_many.
SELF_TIME: dict[str, tuple[str, ...]] = {
    "corpus.load_s": ("corpus.load_jsonl", "corpus.synth_corpus"),
    "corpus.filter_s": ("corpus.filter_for_explanation",),
    "detector.train_s": ("detector.train",),
    "detector.tokenize_s": ("detector.tokenize",),
    "detector.predict_s": ("detector.predict_set",),
    "attribution.shap_s": ("attribution.gradient_shap",),
    "attribution.filter_s": ("attribution.aggregate_to_words", "attribution.filter_evidence"),
    "generation.prompts_s": ("persona.build_instruction", "generation.build_prompt"),
    "generation.generate_s": ("generation.mock_generate", "generation.generate_many"),
    "evaluation.nli_s": ("evaluation.mock_score_nli", "evaluation.score_nli_many"),
    "evaluation.faithfulness_s": ("evaluation.faithfulness",),
    "evaluation.fkgl_s": ("evaluation.fkgl",),
    "evaluation.report_s": (
        "evaluation.aggregate_report",
        "evaluation.report_to_json",
        "evaluation.render_report_table",
    ),
    "cli.self_s": ("cli.run_pipeline",),
}

# Per-call latency percentiles, in ms. A generator or scorer call is an HTTP
# request (retries included) on the remote workload and an in-process mock
# call on the others.
LATENCY: dict[str, tuple[str, ...]] = {
    "attribution.shap_ms": ("attribution.gradient_shap",),
    "generation.request_ms": ("generation.generate", "generation.mock_generate"),
    "evaluation.nli_request_ms": ("evaluation.score_nli", "evaluation.mock_score_nli"),
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Records spans and counts for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unspanned_calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.tokenized: dict[str, tuple[int, bool]] = {}
        self.missing: list[str] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._stack: list[int] = []
        self._main = threading.get_ident()

    def reset(self, run: int) -> None:
        """Start a new run: drop the previous run's spans and counts."""
        self.run = run
        self.spans = []
        self.counts = Counter()
        self.tokenized = {}
        self.unspanned_calls = Counter()

    def _wrap(self, target: Target, fn: Callable[..., Any]) -> Callable[..., Any]:
        name = target.name
        hook = target.hook
        if not target.span:
            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                if threading.get_ident() == self._main:
                    self.unspanned_calls[name] += 1
                    if hook is not None:
                        hook(self, args, result)
                return result

            return counted

        def spanned(*args: Any, **kwargs: Any) -> Any:
            main = threading.get_ident() == self._main
            span_id = next(self._ids)
            # Worker-thread spans hang off the pipeline-thread span that is
            # waiting for them (generate_many or score_nli_many).
            parent = self._stack[-1] if self._stack else None
            if main:
                self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if main:
                    self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, main, self.run))
            if main and hook is not None:
                hook(self, args, result)
            return result

        return spanned

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every target that exists; restore the originals on exit."""
        originals = []
        self.missing = []
        try:
            for target in TARGETS:
                module = importlib.import_module(f"scamlens.{target.module}")
                fn = getattr(module, target.attr, None)
                if fn is None:
                    self.missing.append(target.name)
                    continue
                originals.append((module, target.attr, fn))
                setattr(module, target.attr, self._wrap(target, fn))
            if self.missing:
                print(f"trace: no such function: {', '.join(self.missing)}", file=sys.stderr)
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, over pipeline-thread spans."""
        child_time: Counter[int] = Counter()
        main_spans = [s for s in self.spans if s.main_thread]
        for span in main_spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: Counter[str] = Counter()
        for span in main_spans:
            out[span.name] += span.end - span.start - child_time[span.id]
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer values of the current run (times in s, latencies in ms)."""
        self_times = self.self_times()
        metrics = {
            metric: sum(self_times.get(name, 0.0) for name in names)
            for metric, names in SELF_TIME.items()
        }
        for metric, names in LATENCY.items():
            durations = [
                (s.end - s.start) * 1e3 for s in self.spans if s.name in names
            ] or [0.0]
            metrics[f"{metric}.p50"] = percentile(durations, 50)
            metrics[f"{metric}.p95"] = percentile(durations, 95)
        counts = self.counts
        # Piece statistics are over the distinct texts the detector saw.
        distinct = self.tokenized.values()
        metrics.update(
            {
                "corpus.kept_share": counts["filter_kept"] / max(counts["filter_in"], 1),
                "detector.train_epochs": counts["train_epochs"],
                "detector.tokenize_per_message": counts["tokenize_calls"] / max(counts["messages"], 1),
                "detector.pieces_p50": statistics.median(n for n, _ in distinct) if distinct else 0,
                "detector.truncated_share": sum(t for _, t in distinct) / max(len(distinct), 1),
                "attribution.grad_rows": counts["grad_rows"],
                "attribution.empty_dropped": counts["empty_dropped"],
            }
        )
        return metrics

    def fired(self) -> Counter[str]:
        """Calls recorded in the current run, per target name."""
        return Counter(s.name for s in self.spans) + self.unspanned_calls

    def span_records(self) -> list[dict[str, Any]]:
        return [dataclasses.asdict(s) for s in self.spans]
