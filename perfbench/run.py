"""uqec benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is a workload of BENCHMARK.json, or
"all" to run each of them in turn. With --trace 0 the end-to-end metrics are
measured: the median of several cold builds in fresh processes, then the
workload's ops in a fresh worker process. With --trace 1 a separate worker
wraps the program's public functions and reports per-layer self time and call
counts. Every op is checked against computations made apart from the program
(reference.py). Metrics are printed one per line; the last line is one JSON
object with the keys correct, attempted, failed and metrics.

This script uses only the standard library, so that the BLAS thread count is
pinned in the environment of every child process before numpy loads there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUNS = ROOT / ".perfbench_runs"

# One BLAS thread: two threads on a two-core machine spread the shor9 op
# times by 11-20% between runs, against 5-6% for one.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
# Cold builds per run, half before the workload and half after it; setup_s
# is their median. A first, untimed build compiles the bytecode cache. The
# machine's speed drifts over seconds to minutes, so the two halves sample it
# at two times.
SETUP_BUILDS = 8
# Every run ends within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    # Builds load uqec from the bytecode cache, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(args: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(workload: str, builds: int, deadline: float) -> list[float]:
    return [
        float(run_child(["--workload", workload, "--build"], deadline).split()[0])
        for _ in range(builds)
    ]


def tail(op_s: list[float]) -> tuple[float, float]:
    """The highest percentile with ten samples beyond it: (value, percentile)."""
    ordered = sorted(op_s)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_value(name: str, trace: dict, ops: int, traced_op_s: list[float]):
    """A per-layer metric from the traced run, or None when its span is absent.

    "<module>.<function>.self_s|calls" is per measured op;
    "setup.<module>.<function>.self_s|calls" is per cold build;
    "trace.op_s" is the mean traced op time."""
    if name == "trace.op_s":
        return sum(traced_op_s) / len(traced_op_s)
    key, _, stat = name.rpartition(".")
    per = ops
    phase = "op"
    if key.startswith("setup."):
        key, phase, per = key[len("setup."):], "setup", 1
    if key not in trace["wrapped"]:
        return None
    calls, self_s = trace["phases"].get(phase, {}).get(key, (0, 0.0))
    return (calls if stat == "calls" else self_s) / per


def run_workload(spec: dict, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(traced)}"
    out = RUNS / f"{tag}.json"
    builds = []
    if not traced:
        setup_seconds(workload, 1, deadline)
        builds += setup_seconds(workload, SETUP_BUILDS // 2, deadline)
    run_child(
        ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced)), "--out", str(out)],
        deadline,
    )
    if not traced:
        builds += setup_seconds(workload, SETUP_BUILDS - len(builds), deadline)
    raw = json.loads(out.read_text())
    op_s = raw["op_s"]
    n = len(op_s)
    lines = [
        f"# {workload} seed {seed}: {raw['attempted']} ops in {raw['rounds']} rounds of "
        f"{raw['round_ops']}, {raw['failed']} failed {raw['failed_ops']}, "
        f"{raw['n_problems']} check problems, numpy {raw['numpy']}, 1 BLAS thread, "
        f"nproc {os.cpu_count()}",
    ]
    lines += [f"# check: {p}" for p in raw["problems"]]
    metrics = {}
    if traced:
        for m in spec["per_layer"]:
            value = layer_value(m["name"], raw["trace"], n, op_s)
            if value is None:
                print(f"trace: {m['name']} is absent from src/; reported as 0", file=sys.stderr)
                value = 0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        (RUNS / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(raw["trace"], indent=1))
        lines.append(f"# traced op median {statistics.median(op_s):.6g} s over {n} ops")
    else:
        tail_s, pct = tail(op_s)
        values = {
            "op_s_p50": statistics.median(op_s),
            "op_s_tail": tail_s,
            "items_per_s": raw["items"] / sum(op_s),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median(builds),
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        lines.append(f"# op_s_tail is p{pct:.1f} of {n} ops; setup_s is the median of {len(builds)} cold builds")
    for name, m in metrics.items():
        lines.append(f"{name} {m['value']:.6g} {m['unit']}")
    print("\n".join(lines))
    return {
        "correct": raw["n_problems"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "uqec" / "__init__.py").is_file():
            raise BenchError(f"no uqec package under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        chosen = names if args.workload == "all" else [args.workload]
        results = {w: run_workload(spec, w, args.seed, seconds, bool(args.trace)) for w in chosen}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
