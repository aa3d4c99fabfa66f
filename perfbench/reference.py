"""Computations made apart from the program, used to check every benchmark op.

Nothing here imports uqec. The codes' logical vectors, the Pauli embeddings
(applied by tensor reshaping, never as dense 2^n x 2^n matrices), the grouping
of operators into degenerate error classes, the `verify` grid and the
family-wise frequency test are all rebuilt from the paper's definitions with
the standard library and numpy alone, so they cannot share a bug with the code
they check.

Each check returns a list of problems; an empty list means the output agrees.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from statistics import NormalDist

import numpy as np

TOL = 1e-10
# The table format prints syndrome probabilities with 6 significant digits
# (relative rounding error up to 5e-6), alpha/beta with 6 decimals and the
# fidelity with 12.
TABLE_REL = 5e-6
TABLE_FIDELITY = 5e-13
# Family-wise false-rejection rate of the trajectory frequency test.
FAMILY_ALPHA = 1e-3

_PAULI = {
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}

CODE_QUBITS = {"bitflip3": 3, "divincenzo5": 5, "shor9": 9}

# The five input states of the verification grid.
GRID_STATES = (
    (1.0, 0.0),
    (0.0, 1.0),
    (0.6, 0.8),
    (math.sqrt(0.5), math.sqrt(0.5)),
    (math.sqrt(0.5), -math.sqrt(0.5)),
)


def apply_pauli(kind: str, qubit: int, n: int, vec: np.ndarray) -> np.ndarray:
    """The single-qubit Pauli `kind` on `qubit` (1..n, qubit 1 most
    significant), identity elsewhere, applied to an n-qubit vector."""
    if kind == "I":
        return np.array(vec, dtype=float)
    t = np.asarray(vec, dtype=float).reshape((2,) * n)
    t = np.tensordot(_PAULI[kind], t, axes=([1], [qubit - 1]))
    return np.moveaxis(t, 0, qubit - 1).reshape(-1)


def _basis_state(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits))
    v[int(bits, 2)] = 1.0
    return v


def _cyclic_shifts(bits: str) -> set[str]:
    return {bits[i:] + bits[:i] for i in range(len(bits))}


def logical_vectors(code: str) -> tuple[np.ndarray, np.ndarray]:
    """|0>_L and |1>_L of a built-in code."""
    if code == "bitflip3":
        return _basis_state("000"), _basis_state("111")
    if code == "divincenzo5":
        # |0>_L = (|00000> + cyc|11000> - cyc|10100> - cyc|11110>) / 4 and
        # |1>_L is its bitwise complement with the same signs.
        zero = np.zeros(32)
        one = np.zeros(32)
        flip = str.maketrans("01", "10")
        for seed_bits, sign in (("00000", 1), ("11000", 1), ("10100", -1), ("11110", -1)):
            for bits in _cyclic_shifts(seed_bits):
                zero[int(bits, 2)] += sign / 4
                one[int(bits.translate(flip), 2)] += sign / 4
        return zero, one
    if code == "shor9":
        plus = (_basis_state("000") + _basis_state("111")) / math.sqrt(2)
        minus = (_basis_state("000") - _basis_state("111")) / math.sqrt(2)
        return (
            np.kron(np.kron(plus, plus), plus),
            np.kron(np.kron(minus, minus), minus),
        )
    raise ValueError(f"unknown code {code!r}")


def error_set(code: str) -> list[tuple[str, int, str]]:
    """(kind, qubit, label) of each channel term, in channel order."""
    n = CODE_QUBITS[code]
    kinds = ("X",) if code == "bitflip3" else ("X", "Y", "Z")
    return [("I", 0, "I")] + [
        (k, q, f"{k}_{q}") for k in kinds for q in range(1, n + 1)
    ]


def error_classes(code: str) -> list[frozenset[str]]:
    """Operator labels grouped by identical action on both logical vectors."""
    n = CODE_QUBITS[code]
    zero, one = logical_vectors(code)
    shifted = []
    for kind, qubit, label in error_set(code):
        shifted.append((label, apply_pauli(kind, qubit, n, zero), apply_pauli(kind, qubit, n, one)))
    groups: list[list[tuple[str, np.ndarray, np.ndarray]]] = []
    for item in shifted:
        for grp in groups:
            rep = grp[0]
            if np.allclose(item[1], rep[1], rtol=0, atol=TOL) and np.allclose(
                item[2], rep[2], rtol=0, atol=TOL
            ):
                grp.append(item)
                break
        else:
            groups.append([item])
    return [frozenset(label for label, _, _ in grp) for grp in groups]


def class_sums(classes: list[frozenset[str]], labels: list[str], probs) -> dict[frozenset[str], float]:
    """Channel probabilities summed over each error class."""
    p_of = dict(zip(labels, (float(p) for p in probs)))
    return {cls: math.fsum(p_of[lb] for lb in cls) for cls in classes}


def parse_class_label(label: str) -> frozenset[str]:
    if label.startswith("{") and label.endswith("}"):
        return frozenset(label[1:-1].split(","))
    return frozenset([label])


def check_syndrome(
    pairs, expected: dict[frozenset[str], float], tol: float = TOL, rel: float = 0.0
) -> list[str]:
    """The syndrome must list every error class once, each with its summed
    channel probability, and at most tol under "(outside)"."""
    problems = []
    seen = set()
    for label, p in pairs:
        if label == "(outside)":
            if abs(p) > tol:
                problems.append(f"(outside) mass {p!r} exceeds {tol}")
            continue
        cls = parse_class_label(label)
        if cls not in expected:
            problems.append(f"syndrome label {label!r} is not an error class")
            continue
        if cls in seen:
            problems.append(f"syndrome label {label!r} repeated")
        seen.add(cls)
        want = expected[cls]
        if abs(p - want) > tol + rel * abs(want):
            problems.append(f"syndrome {label}={p!r}, expected {want!r}")
    missing = set(expected) - seen
    if missing:
        problems.append(f"{len(missing)} error classes missing from the syndrome")
    return problems


def check_case_report(report, classes, labels, probs, alpha: float, beta: float, tol: float = TOL) -> list[str]:
    """Check one in-process experiment report: the reduced qubit is psi psi^T,
    the product-form residual is within tol, the ancilla is diagonal with the
    class probabilities on its diagonal, and the syndrome agrees."""
    problems = []
    psi = np.array([alpha, beta])
    fact = report.factorization
    qubit = np.asarray(fact.reduced_qubit.matrix)
    dev = float(np.max(np.abs(qubit - np.outer(psi, psi))))
    if not dev <= tol:
        problems.append(f"reduced qubit differs from psi psi^T by {dev:.3e}")
    if not report.residual <= tol:
        problems.append(f"product-form residual {report.residual:.3e} exceeds {tol}")
    anc = np.asarray(fact.reduced_ancilla.matrix)
    diag = np.diag(anc)
    off = float(np.max(np.abs(anc - np.diag(diag))))
    if not off <= tol:
        problems.append(f"ancilla off-diagonal {off:.3e} exceeds {tol}")
    expected = class_sums(classes, labels, probs)
    k = len(classes)
    syndrome = list(report.syndrome)
    named = [(lb, p) for lb, p in syndrome if lb != "(outside)"]
    if len(named) != k:
        problems.append(f"syndrome has {len(named)} classes, expected {k}")
    else:
        for c, (lb, p) in enumerate(named):
            if diag[c] != p:
                problems.append(f"syndrome {lb} is not ancilla diagonal entry {c}")
        outside = float(np.sum(np.abs(diag[k:])))
        if outside > tol:
            problems.append(f"ancilla mass {outside:.3e} outside the error classes")
    problems.extend(check_syndrome(syndrome, expected, tol))
    return problems


# --- the `verify` grid ------------------------------------------------------

def verification_cases(code: str, seed: int) -> list[tuple[np.ndarray, float, float]]:
    """(probs, alpha, beta) for every case `verify --code code --seed seed`
    runs, in output order: each probability vector with each grid state.

    The vectors are the 0.25-step simplex grid when there are at most four
    channel terms, otherwise every vertex and the uniform vector; then ten
    Dirichlet(1) vectors drawn from a numpy generator seeded with `seed`.
    """
    k = len(error_set(code))
    if k <= 4:
        vectors = [
            np.array(units, dtype=float) * 0.25
            for units in itertools.product(range(5), repeat=k)
            if sum(units) == 4
        ]
    else:
        vectors = [np.eye(k)[i] for i in range(k)] + [np.full(k, 1.0 / k)]
    rng = np.random.default_rng(seed)
    vectors += [rng.dirichlet(np.ones(k)) for _ in range(10)]
    return [(p, a, b) for p in vectors for a, b in GRID_STATES]


def _pairs_field(text: str) -> list[tuple[str, float]]:
    """"a:0.1;b:0.9" (CSV) -> [("a", 0.1), ("b", 0.9)]."""
    out = []
    for item in text.split(";"):
        label, _, value = item.rpartition(":")
        out.append((label, float(value)))
    return out


def parse_verify_output(fmt: str, text: str) -> tuple[list[dict], list[str]]:
    """Records of one code's `verify` output, plus its summary lines."""
    records, summary = [], []
    if fmt == "json":
        for line in text.splitlines():
            doc = json.loads(line)
            doc["channel"] = [(e["label"], e["p"]) for e in doc["channel"]]
            doc["syndrome"] = [(e["label"], e["p"]) for e in doc["syndrome"]]
            records.append(doc)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        header = rows[0]
        for row in rows[1:]:
            doc = dict(zip(header, row))
            records.append({
                "code": doc["code"],
                "alpha": float(doc["alpha"]),
                "beta": float(doc["beta"]),
                "fidelity": float(doc["fidelity"]),
                "residual": float(doc["residual"]),
                "passed": {"True": True, "False": False}.get(doc["passed"]),
                "channel": _pairs_field(doc["channel"]),
                "syndrome": _pairs_field(doc["syndrome"]),
            })
    elif fmt == "table":
        for line in text.splitlines():
            if not line.startswith("["):
                summary.append(line)
                continue
            head, _, synd = line.partition(" syndrome: ")
            fields = head.split()
            doc = {"passed": {"[PASS]": True, "[FAIL]": False}.get(fields[0]), "code": fields[1]}
            for f in fields[2:]:
                key, _, value = f.partition("=")
                doc[key] = float(value)
            doc["syndrome"] = [
                (lb, float(v)) for lb, _, v in (s.rpartition("=") for s in synd.split())
            ]
            records.append(doc)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return records, summary


def check_verify_output(code: str, fmt: str, seed: int, text: str, tol: float = TOL) -> list[str]:
    """Check one code's `verify` output against the independently rebuilt grid:
    the case count and order, each case's channel and input state, fidelity 1
    and residual within tol, passed, and the per-class syndrome."""
    try:
        records, summary = parse_verify_output(fmt, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparseable {fmt} output: {exc}"]
    cases = verification_cases(code, seed)
    problems = []
    if len(records) != len(cases):
        problems.append(f"{len(records)} cases in the output, expected {len(cases)}")
    if fmt == "table" and summary != [f"{code}: {len(cases)}/{len(cases)} cases passed"]:
        problems.append(f"table summary {summary!r}")
    table = fmt == "table"
    rel = TABLE_REL if table else 0.0
    classes = error_classes(code)
    labels = [lb for _, _, lb in error_set(code)]
    for i, (rec, (probs, alpha, beta)) in enumerate(zip(records, cases)):
        where = f"case {i}"
        if rec.get("code") != code:
            problems.append(f"{where}: code {rec.get('code')!r}")
        if rec.get("passed") is not True:
            problems.append(f"{where}: not reported as passed")
        if abs(rec["alpha"] - alpha) > tol + rel or abs(rec["beta"] - beta) > tol + rel:
            problems.append(f"{where}: input state ({rec['alpha']}, {rec['beta']}), expected ({alpha}, {beta})")
        if not abs(rec["fidelity"] - 1.0) <= tol + (TABLE_FIDELITY if table else 0.0):
            problems.append(f"{where}: fidelity {rec['fidelity']!r}")
        if not rec["residual"] <= tol:
            problems.append(f"{where}: residual {rec['residual']!r} exceeds {tol}")
        if "channel" in rec:
            got = [lb for lb, _ in rec["channel"]]
            if got != labels or any(p != float(q) for (_, p), q in zip(rec["channel"], probs)):
                problems.append(f"{where}: channel differs from the grid")
        problems.extend(
            f"{where}: {msg}"
            for msg in check_syndrome(rec["syndrome"], class_sums(classes, labels, probs), tol, rel)
        )
        if len(problems) > 20:
            break
    return problems


# --- trajectory statistics --------------------------------------------------

def sidak_z(terms: int, alpha: float = FAMILY_ALPHA) -> float:
    """Per-term two-sided z bound that keeps the family-wise false-rejection
    rate of `terms` independent z tests at alpha (Sidak correction)."""
    per_term = 1.0 - (1.0 - alpha) ** (1.0 / terms)
    return NormalDist().inv_cdf(1.0 - per_term / 2.0)


def familywise_pass(probs, counts, samples: int, alpha: float = FAMILY_ALPHA) -> bool:
    """True when every term's observed frequency lies within the Sidak z bound
    of its probability."""
    zcrit = sidak_z(len(probs), alpha)
    for p, c in zip(probs, counts):
        freq = c / samples
        if p <= 0.0 or p >= 1.0:
            if freq != p:
                return False
        elif abs(freq - p) / math.sqrt(p * (1.0 - p) / samples) > zcrit:
            return False
    return True


def check_trajectory_report(report, labels, probs, samples: int, tol: float = TOL) -> tuple[bool, list[str]]:
    """The benchmark's own verdict on a trajectory report, and its problems:
    counts sum to the sample count, every entry matches its channel term,
    and the recovery is exact within tol. The verdict is the family-wise
    frequency test joined with the recovery check."""
    problems = []
    entries = list(report.entries)
    counts = [e.count for e in entries]
    if report.samples != samples:
        problems.append(f"report has {report.samples} samples, expected {samples}")
    if sum(counts) != samples:
        problems.append(f"counts sum to {sum(counts)}, expected {samples}")
    if [e.label for e in entries] != list(labels):
        problems.append("entry labels differ from the channel")
    for e, p in zip(entries, probs):
        if e.probability != float(p):
            problems.append(f"{e.label}: probability {e.probability!r}, expected {float(p)!r}")
        if e.frequency != e.count / samples:
            problems.append(f"{e.label}: frequency {e.frequency!r} is not count/samples")
    if not report.max_recovery_error <= tol:
        problems.append(f"max recovery error {report.max_recovery_error:.3e} exceeds {tol}")
    verdict = familywise_pass(probs, counts, samples) and report.max_recovery_error <= tol
    return verdict, problems
