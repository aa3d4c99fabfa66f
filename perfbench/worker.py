"""Runs one benchmark workload in this process.

    python3 perfbench/worker.py --workload W --build
        times one cold build of what W needs and prints the seconds;
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T --out F
        runs W's ops in whole rounds for about S seconds and writes the raw
        measurements to F as JSON.

run.py starts this script with the BLAS thread count pinned in the
environment, before numpy loads here. uqec is imported from the checkout's
src/ only inside the build, so the build timing includes the package import
and excludes interpreter start and the numpy import.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layertrace  # noqa: E402
import reference  # noqa: E402

# The tail percentile needs at least ten samples beyond it and the median
# needs company: a run keeps adding whole rounds until it has this many ops.
MIN_OPS = 40
# Four million samples, about 0.18 s an op. The trajectory ops all cost the
# same, so their tail is whatever op a slow spell of the machine caught. At
# one million samples (about 55 ms) that tail spread by 26% between runs; ops
# four times as long average those spells out.
TRAJECTORY_SAMPLES = 4_000_000
TRAJECTORY_OPS = 60
# The trajectory channels and sampling seeds do not depend on --seed: the
# program's per-term 3-sigma verdict fails on a fixed subset of them, and a
# fixed subset keeps the failed share of every run the same. --seed draws the
# input states, which do not change any count, and the order of the ops.
TRAJECTORY_CHANNEL_SEED = 20110103


@dataclass
class Op:
    label: str
    items: int
    call: Callable[[], object]
    # result -> (the program's verdict agrees with the benchmark's, problems)
    check: Callable[[object], tuple[bool, list[str]]]


def build(codes: tuple[str, ...]) -> None:
    """The cold build a workload needs: the uqec import, then each code, its
    error set and its recovery matrix."""
    from uqec import codes as codes_mod
    from uqec import recovery

    for name in codes:
        code = codes_mod.get_code(name)
        codes_mod.standard_error_set(code)
        recovery.recovery_for(name)


def _random_state(rng: np.random.Generator) -> tuple[float, float]:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return math.cos(theta), math.sin(theta)


def cases_shor9(rng: np.random.Generator, out_dir: Path) -> Callable[[], list[Op]]:
    """A round is the make-up of the `verify --code shor9` grid: the 28
    single-term channels (one conjugation each) and 11 full-support Dirichlet
    channels (28 conjugations each), each with a random real input state."""
    from uqec import analysis, codes, recovery

    code = codes.get_code("shor9")
    ops = codes.standard_error_set(code)
    labels = [lb for _, _, lb in reference.error_set("shor9")]
    classes = reference.error_classes("shor9")
    k = len(labels)

    def op(probs: np.ndarray, label: str) -> Op:
        alpha, beta = _random_state(rng)
        channel = recovery.ErrorChannel.from_probs(ops, probs)
        psi = codes.PureQubitState(alpha, beta)

        def check(report) -> tuple[bool, list[str]]:
            problems = reference.check_case_report(report, classes, labels, probs, alpha, beta)
            return report.passed is True, problems

        return Op(label, 1, lambda: analysis.run_experiment(code, channel, psi), check)

    def make_round() -> list[Op]:
        vectors = [(np.eye(k)[i], "vertex") for i in range(k)]
        vectors += [(rng.dirichlet(np.ones(k)), "dense") for _ in range(11)]
        return [op(*vectors[i]) for i in rng.permutation(len(vectors))]

    return make_round


def verify_small(rng: np.random.Generator, out_dir: Path) -> Callable[[], list[Op]]:
    """A round is an in-process `verify` per output format, twice on bitflip3
    and once on divincenzo5, each with its own grid seed, in random order.

    The two codes' op times form two clusters; with equal counts the median
    would fall in the gap between them and jump from run to run."""
    from uqec import cli

    out = out_dir / f"verify-{os.getpid()}.out"

    def op(code: str, fmt: str, seed: int) -> Op:
        argv = ["verify", "--code", code, "--format", fmt, "--seed", str(seed), "--output", str(out)]

        def check(rc) -> tuple[bool, list[str]]:
            if rc != 0:
                return False, []
            return True, reference.check_verify_output(code, fmt, seed, out.read_text())

        items = len(reference.verification_cases(code, seed))
        return Op(f"{code}/{fmt}", items, lambda: cli.main(argv), check)

    def make_round() -> list[Op]:
        combos = [(c, f) for c in ("bitflip3", "bitflip3", "divincenzo5") for f in ("json", "csv", "table")]
        seeds = rng.integers(0, 2**31 - 1, size=len(combos))
        return [op(*combos[i], int(seeds[i])) for i in rng.permutation(len(combos))]

    return make_round


def trajectory_shor9(rng: np.random.Generator, out_dir: Path) -> Callable[[], list[Op]]:
    """A round is TRAJECTORY_OPS Monte Carlo cross-checks on shor9, op i with
    fixed Dirichlet channel i and sampling seed i, and a random input state."""
    from uqec import analysis, codes, recovery

    code = codes.get_code("shor9")
    ops = codes.standard_error_set(code)
    labels = [lb for _, _, lb in reference.error_set("shor9")]
    fixed = np.random.default_rng(TRAJECTORY_CHANNEL_SEED)
    channels = [fixed.dirichlet(np.ones(len(labels))) for _ in range(TRAJECTORY_OPS)]

    def op(i: int) -> Op:
        probs = channels[i]
        channel = recovery.ErrorChannel.from_probs(ops, probs)
        psi = codes.PureQubitState(*_random_state(rng))

        def call():
            return analysis.trajectory_statistics(
                code, channel, psi, samples=TRAJECTORY_SAMPLES, seed=i
            )

        def check(report) -> tuple[bool, list[str]]:
            verdict, problems = reference.check_trajectory_report(
                report, labels, probs, TRAJECTORY_SAMPLES
            )
            return report.passed == verdict, problems

        return Op(f"channel {i}", TRAJECTORY_SAMPLES, call, check)

    def make_round() -> list[Op]:
        return [op(int(i)) for i in rng.permutation(TRAJECTORY_OPS)]

    return make_round


# name -> (codes the build needs, round factory, warm-up ops)
WORKLOADS = {
    "cases-shor9": (("shor9",), cases_shor9, 3),
    "verify-small": (("bitflip3", "divincenzo5"), verify_small, 9),
    "trajectory-shor9": (("shor9",), trajectory_shor9, 3),
}


def measure(make_round, warmup: int, seconds: float, tracer) -> dict:
    """Warm up, then run whole rounds for about `seconds` and at least
    MIN_OPS timed ops. Checks run outside the op timer."""

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase(name)

    op_s: list[float] = []
    op_labels: list[str] = []
    items = attempted = failed = 0
    problems: list[str] = []
    n_problems = 0
    failed_labels: dict[str, int] = {}
    rounds = 0

    def run(op: Op, counted: bool) -> None:
        nonlocal items, attempted, failed, n_problems
        phase("op" if counted else "warmup")
        error = None
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an op that raises is a failed op, not the end of the run
            error = f"{op.label}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        phase("checks")
        if error is None:
            agrees, found = op.check(result)
        else:
            agrees, found = False, []
            print(f"worker: {error}", file=sys.stderr)
        if agrees:  # `correct` speaks of the ops that did not fail
            n_problems += len(found)
            problems.extend(f"{op.label}: {p}" for p in found[: max(0, 20 - len(problems))])
        if counted:
            op_s.append(elapsed)
            op_labels.append(op.label)
            items += op.items
            attempted += 1
            if not agrees:
                failed += 1
                failed_labels[op.label] = failed_labels.get(op.label, 0) + 1

    phase("inputs")
    for op in make_round()[:warmup]:
        run(op, counted=False)
    start = time.perf_counter()
    while True:
        phase("inputs")
        batch = make_round()
        for op in batch:
            run(op, counted=True)
        rounds += 1
        elapsed = time.perf_counter() - start
        # Stop at the round boundary nearest to `seconds`.
        if attempted >= MIN_OPS and elapsed + elapsed / rounds / 2 >= seconds:
            break
    return {
        "op_s": op_s,
        "op_labels": op_labels,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "failed_ops": failed_labels,
        "n_problems": n_problems,
        "problems": problems,
        "rounds": rounds,
        "round_ops": len(batch),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--build", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    codes, factory, warmup = WORKLOADS[args.workload]

    if args.build:
        start = time.perf_counter()
        build(codes)
        print(repr(time.perf_counter() - start))
        return 0

    tracer = None
    if args.trace:
        import uqec  # noqa: F401  (module code runs before the wrappers exist)

        tracer = layertrace.Tracer()
        wrapped = layertrace.install(tracer)
        tracer.phase("setup")
    build(codes)
    if tracer is not None:
        tracer.phase("inputs")
    make_round = factory(np.random.default_rng(args.seed), args.out.parent)
    result = measure(make_round, warmup, args.seconds, tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        result["trace"] = {
            "wrapped": sorted(wrapped),
            "phases": {p: dict(sorted(s.items())) for p, s in tracer.phases.items()},
        }
    result["numpy"] = np.__version__
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
