"""One workload process of the scamlens benchmark.

`setup` writes a workload's inputs into a directory; `measure` runs
`run_pipeline` on them back to back, one run at a time, checks every run's
artifacts and writes `result.json` beside the inputs. run.py starts both as
fresh processes, so the peak RSS of `measure` belongs to its workload alone.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy is imported, so numbers from
# different commits and machines compare.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import http.client  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
from scamlens import cli, corpus, detector, generation  # noqa: E402

# Enough runs for a median even when one run outlasts --seconds; a traced
# measurement alternates untraced and traced runs, so it needs two of each.
MIN_RUNS = 3
MIN_TRACED_RUNS = 4
API_KEY = "bench-key"


def _setup(args: argparse.Namespace) -> None:
    workdir = Path(args.dir)
    tracer = spans.Tracer() if args.trace else None
    with tracer.installed() if tracer else contextlib.nullcontext():
        inputs.build(args.workload, args.seed, args.size, workdir)
    if tracer is not None:
        # The checkpoint is trained here, outside the timed runs; its
        # training numbers stand in for the detector.train_* layer metrics.
        layers = tracer.layer_metrics()
        keep = ("detector.train_s", "detector.train_epochs")
        (workdir / "setup_trace.json").write_text(json.dumps({k: layers[k] for k in keep}))


def _stub_stats(url: str) -> dict[str, int]:
    """The stub endpoint's counters."""
    host, port = url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=10)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle)


def _check(out: Path, n_conditions: int) -> tuple[list[str], int, int]:
    """Problems found in one run's artifacts, plus the explained and explanation counts."""
    manifest = json.loads((out / "manifest.json").read_text())
    problems = [f"missing artifact {a}" for a in manifest["artifacts"] if not (out / a).is_file()]
    explained = _count_lines(out / "evidence.jsonl")
    explanations = _count_lines(out / "explanations.jsonl")
    rows = json.loads((out / "report.json").read_text())["conditions"]
    if len(rows) != n_conditions:
        problems.append(f"report.json has {len(rows)} rows for {n_conditions} conditions")
    problems += [
        f"report row {r['condition']} has n={r['n']}, expected {explained}"
        for r in rows
        if r["n"] != explained
    ]
    return problems, explained, explanations


def _digests(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact except the manifest, which holds a timestamp."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }


def _transport_failure(exc: BaseException | None) -> bool:
    while exc is not None:
        if isinstance(exc, generation.TransportError):
            return True
        exc = exc.__cause__
    return False


def _input_properties(out: Path, config: cli.RunConfig) -> dict[str, object]:
    messages = corpus.load_jsonl(out / "corpus.jsonl")
    vocab = detector.load_model(config.model_path or out / "model.json").vocab
    props: dict[str, object] = {"all": inputs.input_properties(messages, vocab)}
    long = corpus.MessageSet(tuple(m for m in messages if m.id.startswith("long-")))
    if len(long):
        props["long"] = inputs.input_properties(long, vocab)
    props["explained"] = _count_lines(out / "evidence.jsonl")
    return props


def _train_peak_mb(out: Path, config: cli.RunConfig) -> float:
    """tracemalloc peak of one detector.train call on the run's corpus and training config.

    Measured in a call of its own: tracing allocations doubles the time of
    train, which would distort detector.train_s.
    """
    messages = corpus.load_jsonl(out / "corpus.jsonl")
    tracemalloc.start()
    try:
        detector.train(messages, detector.TrainConfig(**config.train))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _measure(args: argparse.Namespace) -> None:
    workdir = Path(args.dir)
    config_path = workdir / "config.json"
    stub = args.stub_url
    if stub:
        os.environ[inputs.API_KEY_ENV] = API_KEY
        os.environ[inputs.STUB_URL_ENV] = stub
    tracer = spans.Tracer() if args.trace else None
    min_runs = MIN_TRACED_RUNS if tracer else MIN_RUNS
    allow_train = args.workload == "cold-train"

    runs: list[dict[str, object]] = []
    reference: tuple[int, dict[str, str]] | None = None
    last_ok: Path | None = None
    deadline = time.perf_counter() + args.seconds
    i = 0
    while i < min_runs or time.perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        out = workdir / f"run{i:03d}"
        config = cli.load_run_config(config_path)
        config.out_dir = str(out)
        before = _stub_stats(stub) if stub else None
        if traced:
            tracer.reset(i)
        error: BaseException | None = None
        start = time.perf_counter()
        try:
            with tracer.installed() if traced else contextlib.nullcontext():
                cli.run_pipeline(config, allow_train=allow_train)
        except Exception as exc:  # a failed run is counted, and the loop goes on
            error = exc
            traceback.print_exc()
        run_s = time.perf_counter() - start
        after = _stub_stats(stub) if stub else None

        record: dict[str, object] = {"run": i, "traced": traced, "run_s": run_s}
        problems = [f"run raised {error!r}"] if error else []
        explanations = 0
        if error is None:
            try:
                found, explained, explanations = _check(out, len(config.conditions))
                digests = _digests(out)
            except (OSError, KeyError, ValueError) as exc:
                found, explained, digests = [f"unreadable artifacts: {exc!r}"], 0, {}
            problems += found
            if reference is None:
                reference = (i, digests)
            else:
                differ = sorted(k for k in digests.keys() | reference[1].keys()
                                if digests.get(k) != reference[1].get(k))
                if differ:
                    problems.append(f"artifacts differ from run {reference[0]}: {differ}")
            record["explained"] = explained
            record["explanations"] = explanations
            record["artifact_mb"] = sum(p.stat().st_size for p in out.iterdir()) / 2**20
        if stub:
            delta = {k: after[k] - before[k] for k in after}
            record["http"] = delta
            record["requests"] = delta["ok"]
            failed_requests = int(_transport_failure(error))
        else:
            # In-process calls: one generator and one scorer call per explanation.
            record["requests"] = 2 * explanations
            failed_requests = 0
        # Operations: the pipeline run, plus each HTTP request it made.
        record["ops_attempted"] = 1 + (record["requests"] + failed_requests if stub else 0)
        record["ops_failed"] = int(bool(problems)) + failed_requests
        record["problems"] = problems
        if traced:
            layers = tracer.layer_metrics()
            layers["cli.artifact_mb"] = record.get("artifact_mb", 0.0)
            http = record.get("http")
            if http:
                layers["generation.retries"] = http["rejected"]
                layers["generation.requests_per_connection"] = http["attempts"] / max(http["connections"], 1)
            record["layers"] = layers
            record["fired"] = dict(tracer.fired())
            with open(workdir / "trace.jsonl", "a", encoding="utf-8") as handle:
                for span_record in tracer.span_records():
                    handle.write(json.dumps(span_record) + "\n")
        runs.append(record)

        # Keep the reference run and the newest good run for inspection.
        if not problems:
            if last_ok is not None and last_ok.name != f"run{reference[0]:03d}":
                shutil.rmtree(last_ok)
            last_ok = out
        i += 1

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "runs": runs,
        "peak_rss_mb": peak_rss_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "inputs": _input_properties(last_ok, config) if last_ok else None,
        "missing_targets": tracer.missing if tracer else [],
    }
    if tracer and last_ok:
        result["train_peak_mb"] = _train_peak_mb(last_ok, config)
    setup_trace = workdir / "setup_trace.json"
    if setup_trace.exists():
        result["setup_trace"] = json.loads(setup_trace.read_text())
    (workdir / "result.json").write_text(json.dumps(result, indent=1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--workload", required=True, choices=sorted(inputs.SIZES["full"]))
    setup.add_argument("--seed", type=int, required=True)
    setup.add_argument("--size", default="full", choices=sorted(inputs.SIZES))
    setup.add_argument("--dir", required=True)
    setup.add_argument("--trace", action="store_true")
    measure = sub.add_parser("measure")
    measure.add_argument("--workload", required=True, choices=sorted(inputs.SIZES["full"]))
    measure.add_argument("--dir", required=True)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--stub-url")
    measure.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.command == "setup":
        _setup(args)
    else:
        _measure(args)


if __name__ == "__main__":
    sys.exit(main())
