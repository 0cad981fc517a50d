"""Self-test of the benchmark harness: `python3 perfbench/selftest.py`.

Runs every workload at the tiny input size, untraced and traced, and checks
that each end-to-end and per-layer metric is emitted with its unit and a
value above 0, that each value of run.PER_LAYER_EXTRA is reported on some
workload, that the outputs passed their checks, and that every wrapped
function fired at least once on some workload (a wrapper patched in the
wrong namespace records nothing). Last, it runs the benchmark from a directory that holds only the
benchmark's own files and checks that it fails without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import run
import spans

EXPECTED_KEYS = {"correct", "attempted", "failed", "metrics"}


def _bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )


def check_workloads() -> list[str]:
    errors = []
    fired: Counter[str] = Counter()
    extra: set[str] = set()
    for workload in run.WORKLOADS:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            label = f"{workload} --trace {trace}"
            proc = _bench(run.ROOT, workload, trace)
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(line) != EXPECTED_KEYS:
                errors.append(f"{label}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                errors.append(f"{label}: correct={line['correct']} failed={line['failed']}")
            emitted = {name: m["unit"] for name, m in line["metrics"].items()}
            if emitted != units:
                errors.append(f"{label}: metrics/units {emitted} != {units}")
            not_positive = {n: m["value"] for n, m in line["metrics"].items() if not m["value"] > 0}
            if not_positive:
                errors.append(f"{label}: metrics not above 0: {not_positive}")
            if trace:
                summary = json.loads((run.ROOT / ".bench_work" / workload / "summary.json").read_text())
                extra.update(summary["extra"])
                for record in summary["result"]["runs"]:
                    fired.update(record.get("fired", {}))
                missing = summary["result"]["missing_targets"]
                if missing:
                    errors.append(f"{label}: targets not found: {missing}")
    unreported = sorted(set(run.PER_LAYER_EXTRA) - extra)
    if unreported:
        errors.append(f"extra layer values never reported: {unreported}")
    silent = [t.name for t in spans.TARGETS if not fired[t.name]]
    if silent:
        errors.append(f"wrappers that never fired: {silent}")
    return errors


def check_without_sources() -> list[str]:
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench(bare, "cold-train", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"run without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    errors = check_workloads() + check_without_sources()
    for error in errors:
        print(f"FAIL {error}")
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
