"""Command-line front end: verification grids, single experiments, KL checks,
matrix dumps, and Monte Carlo trajectory cross-checks. It owns every input
and output format: `--probs` and channel files become an ErrorChannel on one
path (_resolve_channel), and every record is written here from a template.

Exit codes: 0 all checks passed, 1 a verification failed, 2 usage or
configuration error, reported as one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import analysis
from .codes import CODE_NAMES, PureQubitState, encoding_unitary, get_code, standard_error_set
from .linalg import write_matrix
from .recovery import ErrorChannel, recovery_for, validate_kl

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# Above 2**53 float64 cannot hold the sample count, and the trajectory
# frequencies and bounds are float64.
MAX_SAMPLES = 2**53


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argparse error is one `error:` line and exit 2, like a CliError.
    Subparsers are made with the parser's own class, so they inherit it."""

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"error: {message}\n")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parse_args keeps
    nothing in it from one call to the next."""
    parser = _Parser(
        prog="uqec",
        description="Measurement-free quantum error correction on density matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes only the options it reads.
    def add_common(
        p: argparse.ArgumentParser,
        code_default: str | None = None,
        formats: tuple[str, ...] = ("json", "csv", "table"),
        tol: bool = True,
        seed: bool = True,
    ) -> None:
        p.add_argument("--code", default=code_default, required=code_default is None,
                       help="code name: bitflip3, divincenzo5, shor9")
        if tol:
            p.add_argument("--tol", type=float, default=1e-10, help="pass/fail tolerance")
        if seed:
            p.add_argument("--seed", type=int, default=42, help="RNG seed (>= 0)")
        p.add_argument("--output", default=None, help="write output here instead of stdout")
        if formats:
            p.add_argument("--format", choices=formats, default="table")

    p = sub.add_parser("verify", help="run the full verification grid")
    add_common(p, code_default="all")

    p = sub.add_parser("demo", help="run one experiment and print the report")
    add_common(p, seed=False)
    p.add_argument("--channel-file", default=None, help="channel spec file (label probability per line)")
    p.add_argument("--probs", default=None,
                   help="comma-separated probabilities in standard error-set order")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)

    p = sub.add_parser("kl-check", help="orthonormality and degeneracy of the error set")
    add_common(p, formats=("json", "table"), tol=False, seed=False)

    p = sub.add_parser("dump", help="write recovery matrix, encoder, and logical vectors")
    add_common(p, formats=(), tol=False, seed=False)

    p = sub.add_parser("trajectory", help="Monte Carlo cross-check at state-vector level")
    add_common(p, formats=("json", "table"))
    p.add_argument("--channel-file", default=None)
    p.add_argument("--probs", default=None)
    p.add_argument("--alpha", type=float, default=0.6)
    p.add_argument("--beta", type=float, default=0.8)
    p.add_argument("--samples", type=int, default=100_000)
    return parser


def _resolve_codes(name: str) -> list[str]:
    if name == "all":
        return list(CODE_NAMES)
    if name not in CODE_NAMES:
        raise CliError(f"unknown code {name!r}; valid names: {', '.join(CODE_NAMES)} or 'all'")
    return [name]


def _resolve_state(alpha: float | None, beta: float | None) -> PureQubitState:
    if alpha is None or beta is None:
        raise CliError("--alpha and --beta are required")
    norm2 = alpha * alpha + beta * beta
    if not abs(norm2 - 1.0) <= 1e-9:
        raise CliError(f"alpha^2 + beta^2 = {norm2!r}, must be 1 within 1e-9")
    scale = 1.0 / np.sqrt(norm2)
    return PureQubitState(alpha * scale, beta * scale)


def _channel_file_terms(path: str, ops, code_name: str) -> tuple[list, list[float]]:
    """The operators and probabilities of a channel file: one "label
    probability" pair per line, labels from `ops`, the code's standard error
    set. Lines starting with '#' and blank lines are ignored."""
    by_label = {op.label: op for op in ops}
    terms: dict[str, float] = {}
    try:
        data = Path(path).read_bytes()
        text = data.decode("utf-8-sig")  # past a byte-order mark, if any
    except UnicodeDecodeError as exc:
        at = exc.start + len(data) - len(exc.object)  # exc.object follows the mark
        raise CliError(
            f"{path}: not valid UTF-8 (byte {data[at]:#04x} at offset {at}: {exc.reason})"
        ) from exc
    except (OSError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CliError(f"{path}:{lineno}: expected 'label probability', got {raw!r}")
        label, prob_text = parts
        if label not in by_label:
            raise CliError(f"{path}:{lineno}: unknown operator {label!r} for code {code_name}")
        if label in terms:
            raise CliError(f"{path}:{lineno}: duplicate operator {label!r}")
        try:
            terms[label] = float(prob_text)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad probability {prob_text!r}") from None
    if not terms:
        raise CliError(f"{path}: no channel terms found")
    return [by_label[label] for label in terms], list(terms.values())


def _resolve_channel(args: argparse.Namespace, code_name: str) -> ErrorChannel:
    """The channel of --probs (in standard error-set order) or of
    --channel-file, whichever was given, through the same rounding rule and
    the same ErrorChannel check."""
    if (args.channel_file is None) == (args.probs is None):
        raise CliError("provide exactly one of --channel-file / --probs")
    ops = standard_error_set(get_code(code_name))
    if args.channel_file is not None:
        source = args.channel_file
        ops, probs = _channel_file_terms(source, ops, code_name)
    else:
        source = "--probs"
        try:
            probs = [float(t) for t in args.probs.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --probs value: {exc}") from exc
        if len(probs) != len(ops):
            raise CliError(f"--probs needs {len(ops)} entries for {code_name}, got {len(probs)}")
    # A user may round the probabilities: their sum must be 1 within 1e-9. A
    # sum that misses ErrorChannel's own 1e-12 rule is divided out; any other
    # input is kept as typed, so that 0.7 stays 0.7 rather than becoming its
    # rescaled neighbour. A sum of huge entries overflows to inf, and the
    # check is written so that a NaN or inf sum fails it.
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(np.sum(probs))
    if not abs(total - 1.0) <= 1e-9:
        raise CliError(f"{source}: probabilities sum to {total!r}, expected 1 within 1e-9")
    if not abs(total - 1.0) <= 1e-12:
        probs = [p / total for p in probs]
    try:
        return ErrorChannel.from_probs(ops, probs)
    except ValueError as exc:
        raise CliError(f"{source}: {exc}") from exc


def _one_experiment(args: argparse.Namespace) -> tuple[str, ErrorChannel, PureQubitState]:
    """The one code, channel and input state of a demo or trajectory run."""
    codes = _resolve_codes(args.code)
    if len(codes) != 1:
        raise CliError(f"{args.command} needs a single code, not 'all'")
    return codes[0], _resolve_channel(args, codes[0]), _resolve_state(args.alpha, args.beta)


def _pairs(items) -> str:
    return " ".join(f"{label}={p:.6g}" for label, p in items)


# Every JSON record below is one fixed template: strings as json.dumps writes
# them, floats at 17 significant digits, so equal reports give equal bytes.
def _json_bool(value) -> str:
    return "true" if value else "false"


def _json_pairs(items) -> str:
    return ", ".join(f'{{"label": {_json_string(lb)}, "p": {p:.17g}}}' for lb, p in items)


def _csv_pairs(items) -> str:
    return ";".join(f"{lb}:{p:.17g}" for lb, p in items)


# The reports of one channel share its terms tuple, so a caller may format
# those once and pass the text as `channel` (cmd_verify).
def _report_json(r: analysis.RecoveryReport, channel: str | None = None) -> str:
    if channel is None:
        channel = _json_pairs(r.channel)
    return (
        f'{{"code": {_json_string(r.code)}, "channel": [{channel}], '
        f'"alpha": {r.alpha:.17g}, "beta": {r.beta:.17g}, "fidelity": {r.fidelity:.17g}, '
        f'"residual": {r.residual:.17g}, "syndrome": [{_json_pairs(r.syndrome)}], '
        f'"passed": {_json_bool(r.passed)}, "tolerance": {r.tolerance:.17g}}}'
    )


def _report_table_line(r: analysis.RecoveryReport) -> str:
    status = "PASS" if r.passed else "FAIL"
    return (
        f"[{status}] {r.code} alpha={r.alpha:+.6f} beta={r.beta:+.6f} "
        f"fidelity={r.fidelity:.12f} residual={r.residual:.3e} "
        f"syndrome: {_pairs(r.syndrome)}"
    )


def _report_csv_row(r: analysis.RecoveryReport, channel: str | None = None) -> list:
    if channel is None:
        channel = _csv_pairs(r.channel)
    return [
        r.code, f"{r.alpha:.17g}", f"{r.beta:.17g}", f"{r.fidelity:.17g}",
        f"{r.residual:.17g}", r.passed, f"{r.tolerance:.17g}",
        channel, _csv_pairs(r.syndrome),
    ]


def _csv_document(rows: list[list]) -> str:
    """The header and the rows, quoted by one csv.writer: class labels such
    as {Z_1,Z_2,Z_3} contain commas."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["code", "alpha", "beta", "fidelity", "residual", "passed",
                     "tolerance", "channel", "syndrome"])
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            Path(output).write_text(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise CliError(f"cannot write {output}: {exc}") from exc


def cmd_verify(args: argparse.Namespace) -> int:
    codes = _resolve_codes(args.code)
    line, pairs = {
        "json": (_report_json, _json_pairs),
        "csv": (_report_csv_row, _csv_pairs),
        "table": (_report_table_line, None),
    }[args.format]
    lines: list = []
    failures = 0
    for name in codes:
        reports = analysis.verify_code(name, tol=args.tol, seed=args.seed)
        failed = sum(not r.passed for r in reports)
        failures += failed
        if pairs is None:
            lines.extend(map(line, reports))
            lines.append(f"{name}: {len(reports) - failed}/{len(reports)} cases passed")
            continue
        # Each channel's text is made once, for the reports that share its
        # terms tuple.
        terms = channel = None
        for r in reports:
            if r.channel is not terms:
                terms, channel = r.channel, pairs(r.channel)
            lines.append(line(r, channel))
    if args.format == "csv":
        _emit(_csv_document(lines), args.output)
    else:
        _emit("\n".join(lines), args.output)
    return EXIT_OK if failures == 0 else EXIT_FAIL


def cmd_demo(args: argparse.Namespace) -> int:
    report = analysis.run_experiment(*_one_experiment(args), tol=args.tol)
    if args.format == "json":
        _emit(_report_json(report), args.output)
    elif args.format == "csv":
        _emit(_csv_document([_report_csv_row(report)]), args.output)
    else:
        text = "\n".join([
            f"code:      {report.code}",
            f"input:     alpha={report.alpha:.6g} beta={report.beta:.6g}",
            f"channel:   {_pairs(report.channel)}",
            f"fidelity:  {report.fidelity:.12f}",
            f"residual:  {report.residual:.3e} (product form: {report.residual <= report.tolerance})",
            f"syndrome:  {_pairs(report.syndrome)}",
            f"verdict:   {'PASS' if report.passed else 'FAIL'} at tolerance {report.tolerance:g}",
        ])
        _emit(text, args.output)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_kl_check(args: argparse.Namespace) -> int:
    codes = _resolve_codes(args.code)
    lines = []
    for name in codes:
        code = get_code(name)
        report = validate_kl(code, standard_error_set(code))
        if args.format == "json":
            classes = ", ".join(f'[{", ".join(map(_json_string, c))}]' for c in report.classes)
            lines.append(f'{{"code": {_json_string(name)}, "gram_deviation": '
                         f'{report.gram_deviation:.17g}, "classes": [{classes}], '
                         f'"nondegenerate": {_json_bool(report.is_nondegenerate)}}}')
        else:
            lines.append(f"{name}: gram deviation {report.gram_deviation:.3e}, "
                         f"{len(report.classes)} error classes")
            if report.degenerate_classes:
                for grp in report.degenerate_classes:
                    lines.append(f"  degenerate: {{{','.join(grp)}}}")
            else:
                lines.append("  nondegenerate (all classes are singletons)")
    _emit("\n".join(lines), args.output)
    return EXIT_OK


def cmd_dump(args: argparse.Namespace) -> int:
    codes = _resolve_codes(args.code)
    out_dir = Path(args.output) if args.output else Path(".")
    written = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in codes:
            code = get_code(name)
            rec = recovery_for(name)
            write_matrix(out_dir / f"{name}_R.txt", rec.matrix)
            sidecar = "".join(f"{i} {rec.row_label(i)}\n" for i in range(rec.dim))
            (out_dir / f"{name}_R_labels.txt").write_text(sidecar)
            write_matrix(out_dir / f"{name}_encoder.txt", encoding_unitary(code))
            write_matrix(out_dir / f"{name}_logical0.txt", code.logical0.reshape(-1, 1))
            write_matrix(out_dir / f"{name}_logical1.txt", code.logical1.reshape(-1, 1))
            written.extend(
                f"{name}_{suffix}" for suffix in
                ("R.txt", "R_labels.txt", "encoder.txt", "logical0.txt", "logical1.txt")
            )
    except OSError as exc:
        raise CliError(f"cannot write to {out_dir}: {exc}") from exc
    sys.stdout.write("\n".join(f"wrote {out_dir / f}" for f in written) + "\n")
    return EXIT_OK


def _trajectory_json(report: analysis.TrajectoryReport) -> str:
    entries = ", ".join(
        f'{{"label": {_json_string(e.label)}, "class": {_json_string(e.class_label)}, '
        f'"p": {e.probability:.17g}, "count": {e.count}, "frequency": {e.frequency:.17g}, '
        f'"bound_3sigma": {e.bound_3sigma:.17g}, "within": {_json_bool(e.within_bound)}}}'
        for e in report.entries
    )
    return (
        f'{{"code": {_json_string(report.code)}, "samples": {report.samples}, '
        f'"seed": {report.seed}, "entries": [{entries}], '
        f'"max_recovery_error": {report.max_recovery_error:.17g}, '
        f'"passed": {_json_bool(report.passed)}}}'
    )


def cmd_trajectory(args: argparse.Namespace) -> int:
    report = analysis.trajectory_statistics(
        *_one_experiment(args), samples=args.samples, seed=args.seed, tol=args.tol
    )
    if args.format == "json":
        _emit(_trajectory_json(report), args.output)
    else:
        lines = [
            f"{report.code}: {report.samples} samples, seed {report.seed}",
            f"{'label':>10} {'class':>14} {'p':>10} {'freq':>10} {'|diff|':>10} {'3sigma':>10}  ok",
        ]
        for e in report.entries:
            lines.append(
                f"{e.label:>10} {e.class_label:>14} {e.probability:>10.6f} "
                f"{e.frequency:>10.6f} {abs(e.frequency - e.probability):>10.6f} "
                f"{e.bound_3sigma:>10.6f}  {'yes' if e.within_bound else 'NO'}"
            )
        lines.append(f"max per-sample recovery error: {report.max_recovery_error:.3e}")
        lines.append(
            f"verdict: {'PASS' if report.passed else 'FAIL'} "
            f"(all terms tested as one family at alpha={analysis.TRAJECTORY_ALPHA:g})"
        )
        _emit("\n".join(lines), args.output)
    return EXIT_OK if report.passed else EXIT_FAIL


_COMMANDS = {
    "verify": cmd_verify,
    "demo": cmd_demo,
    "kl-check": cmd_kl_check,
    "dump": cmd_dump,
    "trajectory": cmd_trajectory,
}


def _check_numbers(args: argparse.Namespace) -> None:
    # A command without the option passes its check.
    tol = getattr(args, "tol", 0.0)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise CliError(f"--tol must be finite and >= 0, got {args.tol!r}")
    samples = getattr(args, "samples", 1)
    if not samples >= 1:
        raise CliError(f"--samples must be >= 1, got {samples!r}")
    if samples > MAX_SAMPLES:
        raise CliError(f"--samples must be <= {MAX_SAMPLES}, got {samples!r}")
    if getattr(args, "seed", 0) < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_numbers(args)
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
