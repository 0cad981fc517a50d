"""scamlens benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload warm-explain --seed 1 --seconds 20 --trace 0

Run from the root of a scamlens checkout; the package is imported from its
`src/`. One client runs one pipeline at a time, back to back (a closed loop),
for --seconds, in a fresh process per workload. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`,
the end-to-end metrics with --trace 0 and the per-layer metrics with
--trace 1. Everything else the run found (per-run values, input properties,
environment) goes to `.bench_work/<workload>/summary.json`. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold-train", "warm-explain", "remote-stub")

# Set-up is repeated and its median reported, so that one slow start does
# not decide the metric. A cheap set-up is repeated more often (up to
# SETUP_MAX_REPS, until SETUP_BUDGET_S is spent), because process start-up
# jitter is a large share of it.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 9
SETUP_BUDGET_S = 5.0
# The whole invocation must end well inside 180 s.
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "explanations_per_s": "1/s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "corpus.load_s": "s",
    "corpus.filter_s": "s",
    "corpus.kept_share": "share",
    "detector.train_s": "s",
    "detector.train_epochs": "count",
    "detector.train_peak_mb": "MB",
    "detector.tokenize_s": "s",
    "detector.tokenize_per_message": "count",
    "detector.pieces_p50": "count",
    "detector.predict_s": "s",
    "attribution.shap_s": "s",
    "attribution.shap_ms.p50": "ms",
    "attribution.shap_ms.p95": "ms",
    "attribution.grad_rows": "count",
    "attribution.filter_s": "s",
    "generation.prompts_s": "s",
    "generation.generate_s": "s",
    "generation.request_ms.p50": "ms",
    "generation.request_ms.p95": "ms",
    "evaluation.nli_s": "s",
    "evaluation.nli_request_ms.p50": "ms",
    "evaluation.nli_request_ms.p95": "ms",
    "evaluation.faithfulness_s": "s",
    "evaluation.fkgl_s": "s",
    "evaluation.report_s": "s",
    "cli.self_s": "s",
    "cli.artifact_mb": "MB",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
}
# Layer values that are 0 on some workload: no truncation on the short
# corpora, no empty evidence, and no HTTP (so no retries or connections) on
# the mock workloads. A metric must never be 0, because a change relative to
# 0 is undefined, so like failed_share these are printed and written to
# summary.json but are not metrics. The generation.* pair is reported only
# where the stub counts it, on remote-stub.
PER_LAYER_EXTRA = {
    "detector.truncated_share": "share",
    "attribution.empty_dropped": "count",
    "generation.retries": "count",
    "generation.requests_per_connection": "count",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCAMLENS_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args: list[str], env: dict[str, str], deadline: float) -> None:
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *args], env=env, cwd=ROOT)
    # A blocking wait returns as soon as the child exits; wait(timeout=...)
    # polls, which would add its polling interval to the set-up time.
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1), proc.kill)
    watchdog.start()
    code = proc.wait()
    watchdog.cancel()
    if code != 0:
        raise BenchError(f"workload.py {args[0]} exited with {code}")


def _start_stub(env: dict[str, str]) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py")], env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 20)
    line = proc.stdout.readline() if ready else ""
    if not line.startswith("READY "):
        _stop(proc)
        raise BenchError(f"stub did not start (said {line!r})")
    return proc, f"http://127.0.0.1:{int(line.split()[1])}"


def _stop(proc: subprocess.Popen) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.stdout:
        proc.stdout.close()


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Set up, measure and stop; return the workload process's result plus set-up times."""
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = _child_env()
    inputs_dir = work / "inputs"
    stub = None
    try:
        setup_s: list[float] = []
        last = False
        while not last:
            # Decide before each repetition whether it is the last, because
            # the last one writes the inputs the measurement uses.
            done = len(setup_s) + 1
            last = done >= SETUP_MAX_REPS or (done >= SETUP_MIN_REPS and sum(setup_s) >= SETUP_BUDGET_S)
            target = inputs_dir if last else work / f"setup{done}"
            start = time.perf_counter()
            _run_child(
                ["setup", "--workload", workload, "--seed", str(seed), "--size", size,
                 "--dir", str(target)] + (["--trace"] if trace and last else []),
                env, deadline,
            )
            if workload == "remote-stub":
                stub, url = _start_stub(env)
            setup_s.append(time.perf_counter() - start)
            if not last:
                shutil.rmtree(target)
                if stub is not None:
                    _stop(stub)
                    stub = None
        measure = ["measure", "--workload", workload, "--dir", str(inputs_dir), "--seconds", str(seconds)]
        if stub is not None:
            measure += ["--stub-url", url]
        _run_child(measure + (["--trace"] if trace else []), env, deadline)
    finally:
        if stub is not None:
            _stop(stub)
    result = json.loads((inputs_dir / "result.json").read_text())
    result["setup_s"] = setup_s
    return result


def _median(values: list[float]) -> float:
    if not values:
        raise BenchError("no successful run to take a median over")
    return statistics.median(values)


def end_to_end(result: dict) -> dict[str, float]:
    timed = [r for r in result["runs"] if not r["traced"] and not r["problems"]]
    return {
        "setup_s": _median(result["setup_s"]),
        "run_s": _median([r["run_s"] for r in timed]),
        "explanations_per_s": _median([r["explanations"] / r["run_s"] for r in timed]),
        "requests_per_s": _median([r["requests"] / r["run_s"] for r in timed]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict) -> tuple[dict[str, float], dict[str, float]]:
    """The per-layer metrics, and the PER_LAYER_EXTRA values this workload has."""
    traced = [r for r in result["runs"] if r["traced"] and not r["problems"]]
    untraced = [r for r in result["runs"] if not r["traced"] and not r["problems"]]
    if not traced:
        raise BenchError("no successful traced run")
    metrics = {
        name: _median([r["layers"][name] for r in traced])
        for name in {**PER_LAYER, **PER_LAYER_EXTRA}
        if name in traced[0]["layers"]
    }
    # Workloads that do not train in their runs report the set-up training.
    if not metrics["detector.train_epochs"]:
        metrics.update(result["setup_trace"])
    metrics["detector.train_peak_mb"] = result["train_peak_mb"]
    metrics["trace.run_s"] = _median([r["run_s"] for r in traced])
    metrics["trace.overhead_ratio"] = metrics["trace.run_s"] / _median([r["run_s"] for r in untraced])
    extra = {name: metrics[name] for name in PER_LAYER_EXTRA if name in metrics}
    return {name: metrics[name] for name in PER_LAYER}, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's input size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scamlens" / "__init__.py").is_file():
        print(f"error: no scamlens sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
        metrics, extra = per_layer(result) if args.trace else (end_to_end(result), {})
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs = result["runs"]
    attempted = sum(r["ops_attempted"] for r in runs)
    failed = sum(r["ops_failed"] for r in runs)
    environment = {
        "commit": _commit(),
        "python": result["python"],
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }
    units = PER_LAYER if args.trace else END_TO_END
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment,
        "metrics": metrics,
        "extra": extra,
        "failed_share": failed / attempted,
        "result": result,
    }
    (ROOT / ".bench_work" / args.workload / "summary.json").write_text(json.dumps(summary, indent=1))

    for problem in (p for r in runs for p in r["problems"]):
        print(f"check failed: {problem}")
    print(f"environment: {json.dumps(environment)}")
    print(f"inputs: {json.dumps(result['inputs'])}")
    n_runs = sum(1 for r in runs if r["traced"] == bool(args.trace))
    # Sample counts of the metrics that are not a median over the runs.
    samples = {"setup_s": len(result["setup_s"]), "peak_rss_mb": 1, "detector.train_peak_mb": 1}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]} (n={samples.get(name, n_runs)})")
    for name, value in extra.items():
        print(f"{args.workload} {name} = {value:.6g} {PER_LAYER_EXTRA[name]} (n={n_runs}, not a metric)")
    print(f"{args.workload} failed_share = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
