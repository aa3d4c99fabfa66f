"""The benchmark's checks accept the program's outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from uqec import analysis, cli, codes, recovery  # noqa: E402

SHOR9_LABELS = [lb for _, _, lb in reference.error_set("shor9")]


def test_reference_classes_and_grid_sizes():
    classes = reference.error_classes("shor9")
    assert len(classes) == 22
    triples = sorted(sorted(c) for c in classes if len(c) > 1)
    assert triples == [["Z_1", "Z_2", "Z_3"], ["Z_4", "Z_5", "Z_6"], ["Z_7", "Z_8", "Z_9"]]
    assert len(reference.error_classes("bitflip3")) == 4
    assert len(reference.error_classes("divincenzo5")) == 16
    assert len(reference.verification_cases("bitflip3", 7)) == (35 + 10) * 5
    assert len(reference.verification_cases("divincenzo5", 7)) == (16 + 1 + 10) * 5


def test_reference_embedding_matches_dense_kronecker():
    rng = np.random.default_rng(0)
    v = rng.normal(size=8)
    dense_y2 = np.kron(np.kron(np.eye(2), reference._PAULI["Y"]), np.eye(2))
    assert np.array_equal(reference.apply_pauli("Y", 2, 3, v), dense_y2 @ v)


def _shor9_case():
    code = codes.get_code("shor9")
    probs = np.random.default_rng(3).dirichlet(np.ones(28))
    channel = recovery.ErrorChannel.from_probs(codes.standard_error_set(code), probs)
    report = analysis.run_experiment(code, channel, codes.PureQubitState(0.6, 0.8))
    return report, probs


def _with(report, **changes):
    """A stand-in report: the genuine one's attributes with some replaced."""
    fact = report.factorization
    fields = {
        "factorization": SimpleNamespace(
            reduced_qubit=SimpleNamespace(matrix=changes.pop("qubit", fact.reduced_qubit.matrix)),
            reduced_ancilla=SimpleNamespace(matrix=changes.pop("ancilla", fact.reduced_ancilla.matrix)),
        ),
        "residual": report.residual,
        "syndrome": report.syndrome,
        "passed": report.passed,
    }
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_case_check_accepts_and_rejects():
    report, probs = _shor9_case()
    classes = reference.error_classes("shor9")

    def problems(rep):
        return reference.check_case_report(rep, classes, SHOR9_LABELS, probs, 0.6, 0.8)

    assert problems(report) == []
    assert problems(_with(report)) == []
    qubit = np.array(report.factorization.reduced_qubit.matrix)
    qubit[0, 1] += 1e-6
    assert problems(_with(report, qubit=qubit))
    assert problems(_with(report, residual=1e-6))
    ancilla = np.array(report.factorization.reduced_ancilla.matrix)
    ancilla[0, 1] = ancilla[1, 0] = 1e-6
    assert problems(_with(report, ancilla=ancilla))
    swapped = list(report.syndrome)
    swapped[0], swapped[1] = (swapped[0][0], swapped[1][1]), (swapped[1][0], swapped[0][1])
    assert problems(_with(report, syndrome=tuple(swapped)))
    unmerged = [(lb, p) for lb, p in report.syndrome if lb != "{Z_1,Z_2,Z_3}"]
    assert problems(_with(report, syndrome=tuple(unmerged)))


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_verify_check_accepts_and_rejects(tmp_path, fmt):
    out = tmp_path / "out.txt"
    assert cli.main(["verify", "--code", "bitflip3", "--format", fmt, "--seed", "5", "--output", str(out)]) == 0
    text = out.read_text()
    assert reference.check_verify_output("bitflip3", fmt, 5, text) == []
    assert reference.check_verify_output("bitflip3", fmt, 6, text)  # another grid
    lines = text.splitlines()
    assert reference.check_verify_output("bitflip3", fmt, 5, "\n".join(lines[:-2] + lines[-1:]))
    row = 1 if fmt == "csv" else 180
    lines[row] = lines[row].replace("X_2", "X_9")
    assert reference.check_verify_output("bitflip3", fmt, 5, "\n".join(lines))


def test_verify_check_rejects_a_changed_probability(tmp_path):
    out = tmp_path / "out.json"
    assert cli.main(["verify", "--code", "bitflip3", "--format", "json", "--seed", "5", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    doc = json.loads(lines[0])
    doc["syndrome"][1]["p"] += 1e-9
    lines[0] = json.dumps(doc)
    assert reference.check_verify_output("bitflip3", "json", 5, "\n".join(lines))


def test_trajectory_check_accepts_and_rejects():
    code = codes.get_code("shor9")
    probs = np.random.default_rng(4).dirichlet(np.ones(28))
    channel = recovery.ErrorChannel.from_probs(codes.standard_error_set(code), probs)
    samples = 100_000
    report = analysis.trajectory_statistics(
        code, channel, codes.PureQubitState(0.6, 0.8), samples=samples, seed=1
    )
    verdict, problems = reference.check_trajectory_report(report, SHOR9_LABELS, probs, samples)
    assert problems == []
    entries = list(report.entries)

    def rebuilt(entries, max_err=report.max_recovery_error):
        return SimpleNamespace(samples=samples, entries=entries, max_recovery_error=max_err)

    assert reference.check_trajectory_report(rebuilt(entries), SHOR9_LABELS, probs, samples) == (verdict, [])
    lost = [SimpleNamespace(**{**vars(entries[0]), "count": entries[0].count - 1})] + entries[1:]
    assert reference.check_trajectory_report(rebuilt(lost), SHOR9_LABELS, probs, samples)[1]
    ok, problems = reference.check_trajectory_report(rebuilt(entries, 1e-3), SHOR9_LABELS, probs, samples)
    assert not ok and problems
    # Move 2% of the samples from one term to another: far outside any bound.
    shift = samples // 50
    moved = list(entries)
    for i, delta in ((0, -shift), (1, shift)):
        e = vars(entries[i])
        moved[i] = SimpleNamespace(**{**e, "count": e["count"] + delta,
                                      "frequency": (e["count"] + delta) / samples})
    ok, problems = reference.check_trajectory_report(rebuilt(moved), SHOR9_LABELS, probs, samples)
    assert not ok and problems == []


def test_sidak_bound():
    assert reference.sidak_z(1, 0.05) == pytest.approx(1.959964, abs=1e-6)
    assert 4.0 < reference.sidak_z(28) < 4.3
