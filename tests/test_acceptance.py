"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with `pytest -s` to see them, or `pytest -v` for the
per-test verdicts)."""

import numpy as np

from uqec.analysis import (
    INPUT_STATES,
    run_experiment,
    simplex_grid,
    trajectory_statistics,
    verification_probability_vectors,
)
from uqec.codes import (
    PureQubitState,
    encode_state,
    encoding_unitary,
    get_code,
    standard_error_set,
)
from uqec.recovery import ErrorChannel, recovery_for, validate_kl

from dense import (
    DensityMatrix,
    QubitSplit,
    apply_channel,
    block_reversal,
    controlled_not,
    conventional_recovery_bitflip3,
    partial_trace,
    permutation_matrix,
    transposition,
    verify_permutation_factorization_3qubit,
)
from oracles import bitflip_channel_brute, bitflip_density_pattern


def _criterion(number, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {verdict}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _channel(code_name, probs):
    code = get_code(code_name)
    return ErrorChannel.from_probs(standard_error_set(code), probs)


def _bitflip_grid():
    return verification_probability_vectors(4, seed=42)


def test_criterion_1_bitflip3_exact_recovery():
    """Full probability grid: fidelity 1, exact factorization, and the
    ancilla diagonal reordered as (p0, p3, p2, p1)."""
    assert len(simplex_grid(4)) == 35
    worst_fid = 1.0
    worst_res = 0.0
    worst_sigma = 0.0
    for probs in _bitflip_grid():
        for psi in INPUT_STATES:
            report = run_experiment("bitflip3", _channel("bitflip3", probs), psi, tol=1e-10)
            worst_fid = min(worst_fid, report.fidelity)
            worst_res = max(worst_res, report.residual)
            expected_sigma = np.diag([probs[0], probs[3], probs[2], probs[1]])
            sigma = report.factorization.reduced_ancilla.matrix
            worst_sigma = max(worst_sigma, float(np.max(np.abs(sigma - expected_sigma))))
    ok = worst_fid >= 1.0 - 1e-10 and worst_res <= 1e-10 and worst_sigma <= 1e-12
    _criterion(
        1, "3-qubit exact recovery over probability grid", ok,
        f"min fidelity {worst_fid:.3e}, max residual {worst_res:.3e}, "
        f"max ancilla deviation {worst_sigma:.3e}",
    )


def test_criterion_2_bitflip3_recovery_matrix_identity():
    """The row-built recovery equals both permutation products exactly, and
    the factors are the two controlled-flip gate matrices."""
    rec = recovery_for("bitflip3")
    p34 = permutation_matrix(transposition(8, 3, 4))
    p4567 = permutation_matrix(block_reversal(8, [4, 5, 6, 7]))
    p37 = permutation_matrix(transposition(8, 3, 7))
    checks = [
        np.array_equal(rec.matrix, p4567 @ p34),
        np.array_equal(rec.matrix, p37 @ p4567),
        np.array_equal(p4567, controlled_not(3, controls=[1], targets=[2, 3])),
        np.array_equal(p37, controlled_not(3, controls=[2, 3], targets=[1])),
        verify_permutation_factorization_3qubit().ok,
    ]
    _criterion(2, "3-qubit recovery equals permutation-gate products", all(checks))


def test_criterion_3_conventional_oracle_equivalence():
    """The projective recovery channel reproduces the codeword, and its
    decoded qubit matches the orthogonal-matrix scheme."""
    u_enc = encoding_unitary(get_code("bitflip3"))
    split = QubitSplit(2, 4)
    worst_state = 0.0
    worst_qubit = 0.0
    for probs in _bitflip_grid():
        for psi in INPUT_STATES:
            rho = DensityMatrix.from_state(encode_state(get_code("bitflip3"), psi))
            rho_err = apply_channel(_channel("bitflip3", probs), rho)
            recovered = conventional_recovery_bitflip3(rho_err)
            worst_state = max(
                worst_state, float(np.max(np.abs(recovered.matrix - rho.matrix)))
            )
            decoded = u_enc.T @ recovered.matrix @ u_enc
            qubit_conventional = partial_trace(decoded, split, keep="first")
            report = run_experiment("bitflip3", _channel("bitflip3", probs), psi, tol=1e-10)
            qubit_unitary = report.factorization.reduced_qubit.matrix
            worst_qubit = max(
                worst_qubit, float(np.max(np.abs(qubit_conventional - qubit_unitary)))
            )
    ok = worst_state <= 1e-10 and worst_qubit <= 1e-10
    _criterion(
        3, "projective-recovery oracle equivalence", ok,
        f"max codeword deviation {worst_state:.3e}, max qubit deviation {worst_qubit:.3e}",
    )


def test_criterion_4_divincenzo5():
    """5-qubit code: orthonormal shifted codewords, orthogonal 32x32 recovery,
    and the ancilla diagonal equal to the channel probabilities in order."""
    code = get_code("divincenzo5")
    report = validate_kl(code, standard_error_set(code))
    rec = recovery_for("divincenzo5")
    ortho_dev = float(np.max(np.abs(rec.matrix @ rec.matrix.T - np.eye(32))))
    worst_fid = 1.0
    worst_sigma = 0.0
    worst_res = 0.0
    for probs in verification_probability_vectors(16, seed=42):
        for psi in INPUT_STATES:
            run = run_experiment("divincenzo5", _channel("divincenzo5", probs), psi, tol=1e-10)
            worst_fid = min(worst_fid, run.fidelity)
            worst_res = max(worst_res, run.residual)
            sigma = run.factorization.reduced_ancilla.matrix
            worst_sigma = max(worst_sigma, float(np.max(np.abs(sigma - np.diag(probs)))))
    ok = (
        report.gram_deviation <= 1e-12
        and rec.matrix.shape == (32, 32)
        and ortho_dev <= 1e-10
        and worst_sigma <= 1e-10
        and worst_fid >= 1.0 - 1e-10
        and worst_res <= 1e-10
    )
    _criterion(
        4, "5-qubit code recovery", ok,
        f"gram deviation {report.gram_deviation:.3e}, orthogonality {ortho_dev:.3e}, "
        f"min fidelity {worst_fid:.3e}, max ancilla deviation {worst_sigma:.3e}",
    )


def test_criterion_5_shor9():
    """9-qubit code: exactly the three per-block Z degeneracy classes, exact
    recovery for every single-operator channel, and degenerate members
    sharing one syndrome label."""
    code = get_code("shor9")
    ops = standard_error_set(code)
    report = validate_kl(code, ops)
    structure_ok = len(report.classes) == 22 and report.degenerate_classes == (
        ("Z_1", "Z_2", "Z_3"),
        ("Z_4", "Z_5", "Z_6"),
        ("Z_7", "Z_8", "Z_9"),
    )
    worst_fid = 1.0
    labels_consistent = True
    member_syndrome: dict[str, set] = {}
    for i, op in enumerate(ops):
        probs = np.zeros(len(ops))
        probs[i] = 1.0
        for psi in INPUT_STATES:
            run = run_experiment("shor9", _channel("shor9", probs), psi, tol=1e-10)
            worst_fid = min(worst_fid, run.fidelity)
            top_label = max(run.syndrome, key=lambda item: item[1])[0]
            member_syndrome.setdefault(op.label, set()).add(top_label)
    rec = recovery_for("shor9")
    for members in rec.classes:
        seen = set().union(*(member_syndrome[m] for m in members))
        if len(seen) != 1:
            labels_consistent = False
    ok = structure_ok and worst_fid >= 1.0 - 1e-10 and labels_consistent
    _criterion(
        5, "9-qubit code recovery with degenerate classes", ok,
        f"classes {len(report.classes)}, min fidelity {worst_fid:.3e}, "
        f"one syndrome label per class: {labels_consistent}",
    )


def test_criterion_6_vector_level_recovery():
    """Applying the recovery matrix to any shifted codeword yields the input
    qubit tensored with the class basis vector."""
    worst = 0.0
    for name in ("bitflip3", "divincenzo5", "shor9"):
        code = get_code(name)
        rec = recovery_for(name)
        by_label = {op.label: op for op in standard_error_set(code)}
        for psi in INPUT_STATES:
            encoded = encode_state(code, psi)
            for c, members in enumerate(rec.classes):
                rep = by_label[members[0]]
                recovered = rec.matrix @ rep.apply(encoded)
                target = np.zeros(code.dim)
                target[c] = psi.alpha
                target[rec.ancilla_dim + c] = psi.beta
                worst = max(worst, float(np.linalg.norm(recovered - target)))
    _criterion(
        6, "vector-level recovery to qubit x class marker", worst <= 1e-10,
        f"max deviation {worst:.3e}",
    )


def test_criterion_7_trajectory_cross_check():
    """100k seeded samples reproduce the channel probabilities within 3-sigma
    binomial bounds, each trajectory recovering the qubit exactly."""
    report = trajectory_statistics(
        "bitflip3",
        _channel("bitflip3", [0.5, 0.3, 0.15, 0.05]),
        PureQubitState(0.6, 0.8),
        samples=100_000,
        seed=42,
        tol=1e-10,
    )
    ok = (
        report.passed
        and all(e.within_bound for e in report.entries)
        and report.max_recovery_error <= 1e-10
    )
    detail = ", ".join(
        f"{e.label}: freq {e.frequency:.5f} vs p {e.probability:.5f}"
        for e in report.entries
    )
    _criterion(
        7, "Monte Carlo trajectory cross-check", ok,
        f"{detail}, max recovery error {report.max_recovery_error:.3e}",
    )


def test_criterion_8_golden_corrupted_matrix():
    """The channel output on the encoded (0.6, 0.8) state matches the
    entry-by-entry pattern and the brute-force Kronecker oracle."""
    alpha, beta = 0.6, 0.8
    probs = [0.5, 0.3, 0.15, 0.05]
    code = get_code("bitflip3")
    rho = DensityMatrix.from_state(encode_state(code, PureQubitState(alpha, beta)))
    out = apply_channel(_channel("bitflip3", probs), rho)
    pattern = bitflip_density_pattern(alpha, beta, probs)
    brute = bitflip_channel_brute(rho.matrix, probs)
    dev_pattern = float(np.max(np.abs(out.matrix - pattern)))
    dev_brute = float(np.max(np.abs(out.matrix - brute)))
    ok = dev_pattern <= 1e-12 and dev_brute <= 1e-12
    _criterion(
        8, "golden corrupted-density-matrix pattern", ok,
        f"pattern deviation {dev_pattern:.3e}, oracle deviation {dev_brute:.3e}",
    )
