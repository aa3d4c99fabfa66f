import collections
import functools
import itertools
import operator
import os
import re
import threading
import time
import tracemalloc

import numpy as np
import pytest

from uqec import analysis
from uqec.analysis import (
    CONDITIONS,
    DEFAULT_TOL,
    _term_counts,
    INPUT_STATES,
    TRAJECTORY_ALPHA,
    check_product_form,
    run_experiment,
    run_experiments,
    simplex_grid,
    trajectory_statistics,
    verification_probability_vectors,
    verify_code,
)
from uqec.codes import (
    CODE_NAMES,
    PureQubitState,
    encode_state,
    encoding_unitary,
    error_operator,
    get_code,
    standard_error_set,
)
from uqec.linalg import basis_vector
from uqec.recovery import ErrorChannel, RecoveryMatrix, recover_pure_state, recovery_for

from dense import (
    DensityMatrix,
    QubitSplit,
    assert_ancilla_is_the_whole_gram,
    check_product_form_dense,
    full_sigma,
    partial_trace,
    recover_block,
    recovered_logical,
    report_bytes,
    verify_permutation_factorization_3qubit,
)
import oracles
from mutants import MUTANTS, mutant
from oracles import choice_counts, conventional_recovery, group_pairs_brute, pauli_brute


def channel_for(name, probs):
    code = get_code(name)
    return ErrorChannel.from_probs(standard_error_set(code), probs)


class TestCheckProductForm:
    def test_exact_product(self):
        rho0 = np.array([[0.36, 0.48], [0.48, 0.64]])
        sigma = np.diag([0.5, 0.05, 0.15, 0.3])
        out = DensityMatrix(np.kron(rho0, sigma))
        result = check_product_form_dense(out, QubitSplit(2, 4))
        assert result.residual <= 1e-14
        assert result.residual <= DEFAULT_TOL
        assert np.max(np.abs(result.reduced_ancilla.matrix - sigma)) <= 1e-14
        assert np.max(np.abs(result.reduced_qubit.matrix - rho0)) <= 1e-14

    def test_entangled_state_is_not_product(self):
        bell = (basis_vector(4, 0) + basis_vector(4, 3)) / np.sqrt(2)
        result = check_product_form_dense(DensityMatrix.from_state(bell), QubitSplit(2, 2))
        # both reductions are I/2, so the residual is ||rho - I/4|| = sqrt(3)/2
        assert result.residual == pytest.approx(np.sqrt(0.75), abs=1e-12)
        assert result.residual > 0.4
        assert result.residual > DEFAULT_TOL

    def test_random_product_states(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            a = rng.dirichlet(np.ones(2))
            b = rng.dirichlet(np.ones(4))
            out = DensityMatrix(np.kron(np.diag(a), np.diag(b)))
            assert check_product_form_dense(out, QubitSplit(2, 4)).residual <= 1e-12

    def test_dimension_mismatch(self):
        # The first qubit is split off the rest: an odd dimension has none,
        # and numpy's reshape rejects it.
        with pytest.raises(ValueError):
            check_product_form(basis_vector(3, 0).reshape(1, 3, 1))

    # (dim_rest, k): the ancilla factor G is dim_rest x 2k, thin (QR taken)
    # when 2k < dim_rest and wide or square (used as is) otherwise.
    @pytest.mark.parametrize("rest,k", [
        (4, 1), (4, 3), (16, 3), (16, 8), (16, 20), (256, 1), (256, 28), (256, 200),
    ])
    # None: a random entangled factor; otherwise a product factor u (x) B
    # perturbed by eps, on both sides of the 1e-10 tolerance.
    @pytest.mark.parametrize("eps", [None, 1e-6, 1e-9, 1e-12, 1e-15])
    def test_factor_path_matches_dense(self, rest, k, eps):
        rng = np.random.default_rng([rest, k, 0 if eps is None else int(-np.log10(eps))])
        if eps is None:
            a = rng.standard_normal((2 * rest, k))
        else:
            product = np.kron(rng.standard_normal((2, 1)), rng.standard_normal((rest, k)))
            a = product + eps * rng.standard_normal((2 * rest, k))
        a /= np.linalg.norm(a)
        qubit, block, rows, (residual,) = check_product_form(a[None])
        ancilla = full_sigma(block, rows, rest)
        dense = check_product_form_dense(DensityMatrix(a @ a.T), QubitSplit(2, rest))
        assert abs(residual - dense.residual) <= 1e-15
        assert (residual <= DEFAULT_TOL) == (dense.residual <= DEFAULT_TOL)
        if eps is None:
            assert residual > DEFAULT_TOL
        assert np.max(np.abs(qubit[0] - dense.reduced_qubit.matrix)) <= 1e-15
        assert np.max(np.abs(ancilla[0] - dense.reduced_ancilla.matrix)) <= 1e-15


def random_case(name, k, s, rng):
    """A channel on k random operators of the code's error set, with
    Dirichlet weights, and s random real input states."""
    ops = standard_error_set(get_code(name))
    probs = np.zeros(len(ops))
    probs[rng.choice(len(ops), size=k, replace=False)] = rng.dirichlet(np.ones(k))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=s)
    states = [PureQubitState(float(np.cos(t)), float(np.sin(t))) for t in angles]
    return ErrorChannel.from_probs(ops, probs / probs.sum()), states


class TestAncillaOnNonzeroRows:
    """When G = [A_0 A_1] is thin, check_product_form forms sigma on G's
    nonzero rows alone, or gathers that block from the whole Gram where the
    block's gemm would take the other OpenBLAS kernel, and a report forms
    sigma in full only when its factorization is read. Every number a report
    carries, and sigma's bytes and signs, must be those of the whole Gram."""

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_every_term_count_reads_as_the_whole_gram(self, name):
        rng = np.random.default_rng(22)
        smaller = 0
        for k in range(1, len(standard_error_set(get_code(name))) + 1):
            for s in (1, 5):
                channel, states = random_case(name, k, s, rng)
                smaller += assert_ancilla_is_the_whole_gram(name, channel, states, DEFAULT_TOL)
        # Not every state kept all of sigma: the block route was taken.
        assert smaller > 0

    def test_matrix_is_formed_once_and_read_only(self):
        channel = channel_for("shor9", np.eye(28)[5])
        (report,) = run_experiments("shor9", [channel], INPUT_STATES[2:3])
        assert report.ancilla_rows.size < 256
        assert report.factorization is report.factorization
        sigma = report.factorization.reduced_ancilla.matrix
        assert sigma.shape == (256, 256)
        assert not sigma.flags.writeable
        with pytest.raises(ValueError):
            sigma[0, 0] = 2.0

    def test_a_fresh_report_holds_no_factorization(self):
        # The records are built on first read, not by run_experiments.
        channel = channel_for("bitflip3", [0.5, 0.5, 0, 0])
        reports = run_experiments("bitflip3", [channel], INPUT_STATES)
        assert all("factorization" not in vars(r) for r in reports)
        # G is not thin, so the block is the whole sigma, and is read as it is.
        assert reports[0].factorization.reduced_ancilla.matrix is reports[0].ancilla
        assert "factorization" in vars(reports[0])
        assert "factorization" not in vars(reports[1])

    def test_one_term_shor9_pass_forms_no_whole_sigma(self):
        # The stack of five whole 256 x 256 ancilla Grams alone is 2.6 MB.
        channel = channel_for("shor9", np.eye(28)[3])
        run_experiments("shor9", [channel], INPUT_STATES)
        tracemalloc.start()
        try:
            reports = run_experiments("shor9", [channel], INPUT_STATES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.passed for r in reports)
        assert peak < 512 * 2**10


class TestPermutationFactorization:
    def test_all_residuals_exactly_zero(self):
        check = verify_permutation_factorization_3qubit()
        assert check.ok
        assert set(check.residuals.values()) == {0.0}
        assert len(check.residuals) == 5


class TestRunExperiment:
    def test_bitflip3_example(self):
        report = run_experiment(
            "bitflip3", channel_for("bitflip3", [0.7, 0.1, 0.1, 0.1]),
            PureQubitState(0.6, 0.8),
        )
        assert report.passed
        assert report.fidelity >= 1.0 - 1e-10
        assert report.residual <= 1e-10
        assert report.syndrome[0] == ("I", pytest.approx(0.7, abs=1e-12))

    def test_divincenzo5_identity_channel(self):
        probs = [1.0] + [0.0] * 15
        report = run_experiment(
            "divincenzo5", channel_for("divincenzo5", probs), PureQubitState(0.6, -0.8)
        )
        assert report.passed
        assert report.syndrome[0] == ("I", pytest.approx(1.0, abs=1e-12))
        assert all(p <= 1e-12 for _, p in report.syndrome[1:])

    def test_bitflip3_syndrome_slots_in_row_order(self):
        # R's rows run I, X_3, X_2, X_1, and so do the syndrome's slots.
        report = run_experiment(
            "bitflip3", channel_for("bitflip3", [0.5, 0.3, 0.15, 0.05]),
            PureQubitState(0.6, 0.8),
        )
        assert [label for label, _ in report.syndrome] == ["I", "X_3", "X_2", "X_1"]
        want = [0.5, 0.05, 0.15, 0.3]
        assert all(abs(p - w) <= 1e-15 for (_, p), w in zip(report.syndrome, want))

    def test_divincenzo5_uniform_channel(self):
        # 16 classes fill the 16 ancilla slots: no completion, no "(outside)".
        report = run_experiment(
            "divincenzo5", channel_for("divincenzo5", np.full(16, 1 / 16)),
            PureQubitState(0.6, -0.8),
        )
        assert report.passed
        assert len(report.syndrome) == 16
        assert "(outside)" not in dict(report.syndrome)
        assert all(abs(p - 0.0625) <= 1e-15 for _, p in report.syndrome)

    def test_shor9_uniform_channel_aggregates_z_classes(self):
        probs = np.ones(28) / 28
        report = run_experiment(
            "shor9", channel_for("shor9", probs), PureQubitState(1.0, 0.0)
        )
        assert report.passed
        by_label = dict(report.syndrome)
        for grp in ("{Z_1,Z_2,Z_3}", "{Z_4,Z_5,Z_6}", "{Z_7,Z_8,Z_9}"):
            assert by_label[grp] == pytest.approx(3 / 28, abs=1e-12)
        assert by_label["(outside)"] <= 1e-12

    def test_rejects_channel_outside_error_set(self):
        # Z_1 is not correctable by the repetition code
        ops = (error_operator("I", 0, 3), error_operator("Z", 1, 3))
        ch = ErrorChannel.from_probs(ops, [0.5, 0.5])
        with pytest.raises(ValueError, match="outside"):
            run_experiment("bitflip3", ch, PureQubitState(1.0, 0.0))

    def test_rejects_channel_of_wrong_dimension(self):
        ch = channel_for("bitflip3", [0.5, 0.3, 0.1, 0.1])
        with pytest.raises(ValueError, match="dimension"):
            run_experiment("divincenzo5", ch, PureQubitState(1.0, 0.0))

    def test_rejects_an_empty_channel_list(self):
        with pytest.raises(ValueError, match="channel list is empty"):
            run_experiments("bitflip3", [], INPUT_STATES)

    def test_rejects_channels_of_different_term_counts(self):
        channels = [channel_for("bitflip3", [1, 0, 0, 0]), channel_for("bitflip3", [0.5, 0.5, 0, 0])]
        with pytest.raises(ValueError, match="same number of nonzero terms"):
            run_experiments("bitflip3", channels, INPUT_STATES)

    def test_rejects_a_stack_with_one_channel_outside_error_set(self):
        ops = (error_operator("I", 0, 3), error_operator("Z", 1, 3))
        channels = [channel_for("bitflip3", [0.5, 0.5, 0, 0]), ErrorChannel.from_probs(ops, [0.5, 0.5])]
        with pytest.raises(ValueError, match="outside"):
            run_experiments("bitflip3", channels, INPUT_STATES)


class TestScopeOfTheClaim:
    """The claim is checked for the ancilla state sigma = |0...0> and any
    rho_0. The input rho_0 (x) sigma is encoded by encoding_unitary U, the
    channel applied and R, and the result tested for product form, all in
    factor form: rho_0 (x) sigma = (F (x) S)(F (x) S)^T. With sigma = |0...0>
    it is exact; with another sigma it is not, because R W_i U is not
    I (x) B_i on U's completion columns."""

    @staticmethod
    def recover(name, f, s, probs):
        x = encoding_unitary(get_code(name)) @ np.kron(f, s)
        rho = recover_block(recovery_for(name), channel_for(name, probs), x)
        qubit, _, _, (residual,) = check_product_form(rho)
        return qubit[0], residual

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_exact_for_the_all_zero_ancilla_only(self, name):
        rest = get_code(name).dim // 2
        rng = np.random.default_rng(20110103)
        f = rng.standard_normal((2, 2))
        f /= np.linalg.norm(f)
        probs = rng.dirichlet(np.ones(len(standard_error_set(get_code(name)))))
        zero = basis_vector(rest, 0)[:, None]
        qubit, residual = self.recover(name, f, zero, probs)
        assert residual <= 1e-14
        assert np.max(np.abs(qubit - f @ f.T)) <= 1e-14
        # A random rank-3 ancilla state: no longer a product.
        mixed = rng.standard_normal((rest, 3))
        mixed /= np.linalg.norm(mixed)
        _, residual = self.recover(name, f, mixed, probs)
        assert residual > 0.01

    @staticmethod
    def pauli_masks(op, n):
        """The X and Z bit masks (x, z) of a signed-permutation Pauli string:
        column r goes to row r ^ x with sign (-1)^popcount(r & z)."""
        r = np.arange(op.perm.size)
        x = int(op.perm[0])
        z = sum(1 << b for b in range(n) if op.signs[1 << b] < 0)
        parity = np.zeros_like(r)
        for b in range(n):
            parity ^= (r & z) >> b & 1
        assert np.array_equal(op.perm, r ^ x)
        assert np.array_equal(op.signs, 1 - 2 * parity)
        return x, z

    @staticmethod
    def gf2_nullspace(rows, width):
        """A basis of the v in GF(2)^width, as ints, with popcount(v & row)
        even for every row: Gauss-Jordan elimination on the rows' bits."""
        pivots = {}
        for row in rows:
            for bit, pivot in pivots.items():
                if row >> bit & 1:
                    row ^= pivot
            if row:
                bit = row.bit_length() - 1
                for b, pivot in pivots.items():
                    if pivot >> bit & 1:
                        pivots[b] = pivot ^ row
                pivots[bit] = row
        return [
            (1 << f) | sum(1 << b for b, pivot in pivots.items() if pivot >> f & 1)
            for f in range(width) if f not in pivots
        ]

    @pytest.mark.parametrize("name,strings", [("bitflip3", 8), ("divincenzo5", 1), ("shor9", 1)])
    def test_no_completion_carries_a_general_ancilla(self, name, strings):
        # If R W_i U = I (x) B_i for every error, the logical X and Z, U (X (x)
        # I) U^T and U (Z (x) I) U^T, anticommute and commute with every
        # W_i^T W_j. The strings commuting with a set of Pauli strings span
        # its commutant, so over GF(2) (string x | z << n) it suffices that
        # no two of them anticommute (operator QEC: Kribs, Laflamme and
        # Poulin, PRL 94, 180501, 2005).
        code = get_code(name)
        masks = [self.pauli_masks(op, code.n) for op in standard_error_set(code)]
        # W_i^T W_j is the string (x_i ^ x_j, z_i ^ z_j) up to sign; string v
        # commutes with (x, z) when popcount(v & (z | x << n)) is even.
        products = {(zi ^ zj) | (xi ^ xj) << code.n for xi, zi in masks for xj, zj in masks}
        basis = self.gf2_nullspace(products, 2 * code.n)
        assert 2 ** len(basis) == strings
        # v = x | z << n as a constraint row: z | x << n.
        rows = [v >> code.n | (v & (1 << code.n) - 1) << code.n for v in basis]
        assert all(bin(u & row).count("1") % 2 == 0 for u in basis for row in rows)


class TestGrids:
    def test_simplex_grid_size(self):
        grid = simplex_grid(4)
        assert len(grid) == 35  # compositions of 4 quarters into 4 slots
        # In lexicographic order, which the verify grid's output follows.
        quarters = [c for c in itertools.product(range(5), repeat=4) if sum(c) == 4]
        assert [tuple(v * 4) for v in grid] == quarters
        for v in grid:
            assert abs(v.sum() - 1.0) <= 1e-12

    def test_verification_vectors_small(self):
        vectors = verification_probability_vectors(4, seed=42)
        assert len(vectors) == 45
        assert all(abs(v.sum() - 1.0) <= 1e-9 for v in vectors)

    def test_verification_vectors_large(self):
        vectors = verification_probability_vectors(16, seed=42)
        assert len(vectors) == 16 + 1 + 10
        assert np.array_equal(vectors[0], np.eye(16)[0])

    def test_deterministic_for_fixed_seed(self):
        a = verification_probability_vectors(4, seed=42)
        b = verification_probability_vectors(4, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_verify_code_bitflip3(self):
        reports = verify_code("bitflip3")
        assert len(reports) == 45 * len(INPUT_STATES)
        assert all(r.passed for r in reports)


class TestTrajectoryStatistics:
    def test_deterministic_channel(self):
        report = trajectory_statistics(
            "bitflip3", channel_for("bitflip3", [1.0, 0, 0, 0]),
            PureQubitState(0.6, 0.8), samples=1000, seed=5,
        )
        assert report.passed
        assert report.entries[0].count == 1000
        assert report.max_recovery_error <= 1e-12

    def test_statistics_within_3sigma(self):
        report = trajectory_statistics(
            "bitflip3", channel_for("bitflip3", [0.5, 0.3, 0.15, 0.05]),
            PureQubitState(0.6, 0.8), samples=100_000, seed=42,
        )
        assert report.passed
        assert all(e.within_bound for e in report.entries)
        assert report.max_recovery_error <= 1e-10

    def test_familywise_verdict_tolerates_a_single_3sigma_excursion(self):
        # Exact recovery; at this seed X_1 lands 3.27 sigma off, inside the
        # Sidak bound for 4 terms at TRAJECTORY_ALPHA (3.66).
        report = trajectory_statistics(
            "bitflip3", channel_for("bitflip3", [0.4, 0.3, 0.2, 0.1]),
            PureQubitState(0.6, 0.8), samples=1000, seed=8,
        )
        z = [
            abs(e.frequency - e.probability)
            / np.sqrt(e.probability * (1 - e.probability) / report.samples)
            for e in report.entries
        ]
        assert TRAJECTORY_ALPHA == 1e-3
        assert 3.0 < max(z) < 3.66
        assert not all(e.within_bound for e in report.entries)
        assert report.passed

    def test_shor9_degenerate_member_classifies_to_class(self):
        probs = np.zeros(28)
        probs[20] = 1.0  # Z_2, a non-representative member of {Z_1,Z_2,Z_3}
        report = trajectory_statistics(
            "shor9", channel_for("shor9", probs), PureQubitState(0.6, 0.8),
            samples=200, seed=1,
        )
        entry = report.entries[20]
        assert entry.label == "Z_2"
        assert entry.class_label == "{Z_1,Z_2,Z_3}"
        assert entry.count == 200
        assert report.passed

    def test_rejects_channel_outside_error_set(self):
        ops = (error_operator("I", 0, 3), error_operator("Z", 1, 3))
        channel = ErrorChannel.from_probs(ops, [0.5, 0.5])
        with pytest.raises(ValueError, match="outside"):
            trajectory_statistics("bitflip3", channel, PureQubitState(0.6, 0.8))

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_array_statistics_match_the_term_by_term_loop(self, name):
        # Dirichlet, sparse, one-hot and peaked channels, at sample counts
        # that leave terms undrawn and at tol 0, where some runs fail.
        k = len(standard_error_set(get_code(name)))
        rng = np.random.default_rng(26)
        for i in range(12):
            probs = [
                rng.dirichlet(np.ones(k)),
                rng.dirichlet(np.ones(3)).tolist() + [0.0] * (k - 3),
                _one_hot(k, int(rng.integers(k))),
                rng.dirichlet(np.full(k, 0.05)),
            ][i % 4]
            samples = [1, 7, 1000, 100_003][i // 4 % 4]
            tol = [DEFAULT_TOL, 0.0][i % 2]
            report = trajectory_statistics(
                name, channel_for(name, probs), INPUT_STATES[i % 5], samples=samples,
                seed=i, tol=tol,
            )
            counts = [e.count for e in report.entries]
            rows, ok = oracles.trajectory_frequencies_loop(
                [e.probability for e in report.entries], counts, samples,
                analysis._sidak_z_bound(k),
            )
            assert [(e.frequency, e.bound_3sigma, e.within_bound) for e in report.entries] == rows
            assert report.passed == (ok and report.max_recovery_error <= tol)

    def test_verdict_in_counts_matches_the_quotient_on_a_sweep(self, monkeypatch):
        # The family test is taken in counts, |count - n p| <= z sqrt(n p (1
        # - p)). Where p (1 - p) / n does not underflow it must give the
        # verdict of the |z| quotient, term by term. The counts are forged:
        # a multinomial draw from p, or from p moved towards another channel
        # so that some runs fail.
        rng = np.random.default_rng(27)
        forged = {}
        monkeypatch.setattr(analysis, "_term_counts", lambda probs, n, seed: forged["counts"])
        verdicts = []
        for i in range(1200):
            name = CODE_NAMES[i % 3]
            k = len(standard_error_set(get_code(name)))
            probs = [
                rng.dirichlet(np.ones(k)),
                rng.dirichlet(np.ones(3)).tolist() + [0.0] * (k - 3),
                _one_hot(k, int(rng.integers(k))),
                rng.dirichlet(np.full(k, 0.05)),
            ][i // 3 % 4]
            samples = int(rng.integers(1, 100_004))
            channel = channel_for(name, probs)
            p = channel.probabilities / channel.probabilities.sum()
            shift = [0.0, 1e-3, 1e-2][i // 12 % 3]
            moved = (1.0 - shift) * p + shift * rng.dirichlet(np.ones(k))
            forged["counts"] = rng.multinomial(samples, moved)
            report = trajectory_statistics(name, channel, INPUT_STATES[i % 5], samples=samples)
            _, ok = oracles.trajectory_frequencies_loop(
                [e.probability for e in report.entries], forged["counts"].tolist(), samples,
                analysis._sidak_z_bound(k),
            )
            assert report.max_recovery_error <= DEFAULT_TOL
            assert report.passed == ok, (name, probs, samples)
            verdicts.append(ok)
        assert 100 < sum(verdicts) < 1100

    def test_3sigma_column_in_counts_matches_the_frequency_form(self, monkeypatch):
        # within_bound is taken as |count - n p| <= 3 sqrt(n p (1 - p)). Where
        # p (1 - p) / n does not underflow it must read as |freq - p| <= 3
        # sqrt(p (1 - p) / n), term by term. The counts are forged: within two
        # counts of either 3-sigma edge, and for every fourth channel a
        # multinomial draw.
        rng = np.random.default_rng(31)
        channels = 1000
        probs = np.concatenate([
            rng.dirichlet(np.ones(4), channels // 2), rng.dirichlet(np.full(4, 0.05), channels // 2),
        ])
        samples = rng.integers(1, 1_000_001, channels)[:, None]
        edge = samples * probs + rng.choice([-3.0, 3.0], probs.shape) * np.sqrt(
            samples * probs * (1.0 - probs)
        )
        counts = np.clip(np.floor(edge).astype(np.int64) + rng.integers(-1, 3, probs.shape), 0, samples)
        counts[::4] = rng.multinomial(samples[::4, 0], probs[::4])
        forged = {}
        monkeypatch.setattr(analysis, "_term_counts", lambda probs, n, seed: forged["counts"])
        seen = set()
        for i in range(channels):
            forged["counts"] = counts[i]
            report = trajectory_statistics(
                "bitflip3", channel_for("bitflip3", probs[i]), INPUT_STATES[i % 5],
                samples=int(samples[i, 0]),
            )
            rows, _ = oracles.trajectory_frequencies_loop(
                [e.probability for e in report.entries], counts[i].tolist(), int(samples[i, 0]), 3.0,
            )
            assert [e.within_bound for e in report.entries] == [w for _, _, w in rows]
            seen.update(w for _, _, w in rows)
        assert seen == {True, False}
        assert (np.abs(counts - edge) <= 2.0).sum() > 2000

    def test_a_certain_term_off_its_probability_fails(self, monkeypatch):
        # No draw of numpy's lands on a term of probability 0, so the counts
        # are forged: one of 1000 draws on X_1.
        forged = np.array([999, 1, 0, 0])
        monkeypatch.setattr(analysis, "_term_counts", lambda probs, n, seed: forged)
        report = trajectory_statistics(
            "bitflip3", channel_for("bitflip3", [1.0, 0, 0, 0]), PureQubitState(0.6, 0.8),
            samples=1000,
        )
        assert report.max_recovery_error == 0.0
        assert [e.within_bound for e in report.entries] == [False, False, True, True]
        assert not report.passed

    def test_recovers_only_the_drawn_terms(self, monkeypatch):
        # max_recovery_error reads the drawn terms alone; Z_3 (index 27) is
        # the one drawn here.
        applied = []
        apply = RecoveryMatrix.apply

        def spy(rec, v):
            applied.append(v)
            return apply(rec, v)

        monkeypatch.setattr(RecoveryMatrix, "apply", spy)
        report = trajectory_statistics(
            "shor9", channel_for("shor9", _one_hot(28, 27)), PureQubitState(0.6, 0.8),
            samples=100, seed=1,
        )
        assert len(applied) == 1
        assert [e.count for e in report.entries] == [0] * 27 + [100]
        assert report.passed

    @pytest.mark.parametrize("samples", [0, -1])
    def test_no_samples_is_an_error(self, samples):
        # With no draws every frequency would be 0/0.
        with pytest.raises(ValueError, match="samples must be >= 1"):
            trajectory_statistics(
                "bitflip3", channel_for("bitflip3", [1.0, 0, 0, 0]),
                PureQubitState(0.6, 0.8), samples=samples,
            )


def _one_hot(k, i):
    p = np.zeros(k)
    p[i] = 1.0
    return p


class TestTermCounts:
    """_term_counts gives the counts of numpy's rng.choice draw, bit for bit,
    on either side of each chunk and span boundary."""

    SAMPLES = (1, 32767, 32768, 32769, 65536, 65537, 100_003)

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_shor9_dirichlet_channels(self, samples, seed):
        rng = np.random.default_rng(1000 + seed)
        for i in range(3):
            probs = rng.dirichlet(np.ones(28))
            counts = _term_counts(probs, samples, seed + i)
            assert np.array_equal(counts, choice_counts(probs, samples, seed + i))

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("probs", [
        [0.0, 0.0, 0.5, 0.3, 0.2],
        [0.4, 0.0, 0.0, 0.6, 0.0, 0.0],
        [0.25, 0.25, 0.5, 0.0, 0.0],
        [0.0, 0.7, 0.0, 0.3, 0.0],
        *(_one_hot(4, i) for i in range(4)),
        [1.0],
    ])
    def test_zero_and_certain_terms(self, probs, samples):
        probs = np.array(probs)
        counts = _term_counts(probs, samples, 3)
        assert np.array_equal(counts, choice_counts(probs, samples, 3))
        assert counts.sum() == samples

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("spans", [1, 2, 3, 7])
    def test_every_span_count(self, spans, samples, monkeypatch):
        # 7 spans leave some spans without a chunk below 7 chunks.
        monkeypatch.setattr(analysis, "_span_count", lambda chunks: spans)
        probs = np.random.default_rng(spans).dirichlet(np.ones(28))
        counts = _term_counts(probs, samples, samples)
        assert np.array_equal(counts, choice_counts(probs, samples, samples))

    @pytest.mark.parametrize("on_calling_thread", [True, False])
    def test_failed_span_is_raised_after_every_span_ends(self, on_calling_thread, monkeypatch):
        # 100003 draws are 4 chunks: span 0 (the calling thread's) and span 1
        # take 32768 draws each, span 2 the last 34467.
        monkeypatch.setattr(analysis, "_span_count", lambda chunks: 3)
        ended = []
        lock = threading.Lock()

        def count_span(cdf, bitgen, n):
            if on_calling_thread:
                fails = threading.current_thread() is threading.main_thread()
            else:
                fails = n == 34467
            if fails:
                raise ValueError("span failed")
            time.sleep(0.05)
            with lock:
                ended.append(n)
            return np.zeros(len(cdf), dtype=np.int64)

        monkeypatch.setattr(analysis, "_count_span", count_span)
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match="span failed"):
            _term_counts(np.array([0.5, 0.5]), 100_003, 1)
        assert len(ended) == 2
        assert threading.active_count() == threads_before

    def test_span_whose_thread_cannot_start_is_counted_here(self, monkeypatch):
        # 100003 draws in 3 spans: the thread of span 1 cannot start, so the
        # calling thread counts spans 0 and 1, and one thread span 2.
        monkeypatch.setattr(analysis, "_span_count", lambda chunks: 3)
        start = threading.Thread.start
        started = []

        def start_all_but_the_first(thread):
            started.append(thread)
            if len(started) == 1:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_all_but_the_first)
        threads_before = threading.active_count()
        probs = np.random.default_rng(4).dirichlet(np.ones(28))
        counts = _term_counts(probs, 100_003, 9)
        assert np.array_equal(counts, choice_counts(probs, 100_003, 9))
        assert len(started) == 2
        assert threading.active_count() == threads_before

    def test_span_count_follows_the_usable_cpus(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert analysis._span_count(1) == 1
        assert analysis._span_count(1000) == min(cpus, 8)

    @pytest.mark.parametrize("cpu_count, spans", [(3, 3), (None, 1)])
    def test_span_count_without_sched_getaffinity(self, cpu_count, spans, monkeypatch):
        # Platforms without sched_getaffinity (macOS, Windows) count every
        # CPU; os.cpu_count() may return None, which counts as one.
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert analysis._span_count(1000) == spans

    def test_shor9_4m_samples_in_flat_memory(self):
        # 4M uniforms and 4M indices held at once take 61 MB; the count
        # holds one chunk of 2**15 uniforms per span, at most 8 spans.
        probs = np.random.default_rng(5).dirichlet(np.ones(28))
        channel = channel_for("shor9", probs)
        recovery_for("shor9")  # the cached R is built outside the trace
        tracemalloc.start()
        try:
            report = trajectory_statistics(
                "shor9", channel, PureQubitState(0.6, 0.8), samples=4_000_000, seed=11,
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(e.count for e in report.entries) == 4_000_000
        assert peak < 4 * 2**20


class TestFactorPathMatchesDenseOracle:
    """run_experiments computes the input states of a channel in factor form,
    as one stack; the dense channel and R rho R^T path must agree with it to
    1e-14 (float64 rounding over sums of at most 28 terms) over the whole
    verify grid, with identical verdicts.

    The dense state of a case combines the dense recovered channel
    sum_i p_i R W_i M W_i^T R^T of the three symmetric logical matrices M,
    each term formed over its support block (dense.recovered_logical): the
    channel and R rho R^T are linear in rho.

    The conventional projective recovery (oracles.conventional_recovery,
    with operators and classes built apart from the package) must give the
    same data qubit and syndrome to 1e-14, with identical verdicts."""

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_verify_grid(self, name):
        code = get_code(name)
        ops = standard_error_set(code)
        rec = recovery_for(name)
        split = QubitSplit(2, code.dim // 2)
        grid = verification_probability_vectors(len(ops), seed=42)
        # W_i [|0>_L |1>_L] of each operator, and its error classes.
        shifted = np.stack([
            pauli_brute(op.label, code.n) @ np.column_stack([code.logical0, code.logical1])
            for op in ops
        ])
        groups = group_pairs_brute(shifted[:, :, 0], shifted[:, :, 1], 1e-10)
        isometries = shifted[[grp[0] for grp in groups]]
        class_of = {frozenset(ops[i].label for i in grp): c for c, grp in enumerate(groups)}
        amplitudes = np.array([(psi.alpha, psi.beta) for psi in INPUT_STATES])
        worst = worst_conventional = 0.0
        for probs in grid:
            channel = ErrorChannel.from_probs(ops, probs)
            logical = recovered_logical(rec, channel, code)
            reports = run_experiments(code, [channel], INPUT_STATES)
            encoded = [encode_state(code, psi) for psi in INPUT_STATES]
            factor = recover_pure_state(rec, [channel], encoded)
            recovered = factor @ np.swapaxes(factor, -1, -2)
            # The factor of each corrupted state: column i is sqrt(p_i) W_i psi.
            v = np.einsum("idm,sm->sdi", shifted, amplitudes) * np.sqrt(probs)
            conv_qubit, conv_syndrome = conventional_recovery(isometries, v)
            for s, (psi, report) in enumerate(zip(INPUT_STATES, reports)):
                a, b = psi.alpha, psi.beta
                vec = amplitudes[s]
                assert (report.alpha, report.beta) == (a, b)
                dense = np.tensordot([a * a, b * b, a * b], logical, axes=1)
                fact = report.factorization
                qubit = partial_trace(dense, split, keep="first")
                ancilla = partial_trace(dense, split, keep="rest")
                worst = max(
                    worst,
                    float(np.max(np.abs(recovered[s] - dense))),
                    float(np.max(np.abs(fact.reduced_qubit.matrix - qubit))),
                    float(np.max(np.abs(fact.reduced_ancilla.matrix - ancilla))),
                )
                sigma = fact.reduced_ancilla.matrix
                max_off = float(np.max(np.abs(sigma - np.diag(np.diag(sigma)))))
                # Maxima of absolute values carry no sign, so == compares every bit.
                assert report.max_offdiagonal == max_off
                tol = report.tolerance
                dense_passed = (
                    vec @ qubit @ vec >= 1.0 - tol
                    and np.linalg.norm(dense - np.kron(qubit, ancilla)) <= tol
                    and abs(np.trace(ancilla) - 1.0) <= tol
                )
                assert report.passed == dense_passed
                assert report.passed

                syndrome = {
                    frozenset(label.strip("{}").split(",")): p
                    for label, p in report.syndrome if label != "(outside)"
                }
                assert syndrome.keys() == class_of.keys()
                worst_conventional = max(
                    worst_conventional,
                    float(np.max(np.abs(conv_qubit[s] - fact.reduced_qubit.matrix))),
                    *(abs(conv_syndrome[s, class_of[c]] - p) for c, p in syndrome.items()),
                )
                conventional_passed = (
                    vec @ conv_qubit[s] @ vec >= 1.0 - tol
                    and abs(conv_syndrome[s].sum() - 1.0) <= tol
                )
                assert conventional_passed == report.passed
        assert worst <= 1e-14
        assert worst_conventional <= 1e-14


class TestFailedConditions:
    """RecoveryReport.failed names each condition whose comparison against
    the tolerance is false, and passed is exactly `not failed`."""

    @staticmethod
    def missed(report, tol):
        total = np.cumsum([p for _, p in report.syndrome])[-1]
        met = {
            "fidelity": report.fidelity >= 1.0 - tol,
            "product_form": report.residual <= tol,
            "ancilla_diagonal": report.max_offdiagonal <= tol,
            "syndrome_trace": abs(total - 1.0) <= tol,
        }
        return tuple(c for c in CONDITIONS if not met[c])

    @pytest.mark.parametrize("name", ["divincenzo5", "shor9"])
    def test_tol_zero_names_each_missed_condition(self, name):
        seen = set()
        reports = verify_code(name, tol=0.0)
        for report in reports:
            assert report.failed == self.missed(report, 0.0)
            assert report.passed == (not report.failed)
            seen.update(report.failed)
        # At tol 0 rounding alone fails cases, and not for one reason.
        assert not all(r.passed for r in reports)
        assert len(seen) >= 2

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_syndrome_trace_sums_left_to_right(self, name):
        # From Python 3.12 the builtin sum compensates; before, it adds left
        # to right, and the verdict must not depend on the interpreter.
        for seed in (42, 7):
            for report in verify_code(name, tol=0.0, seed=seed):
                total = functools.reduce(operator.add, (p for _, p in report.syndrome))
                assert ("syndrome_trace" in report.failed) == (not abs(total - 1.0) <= 0.0)

    def test_default_tolerance_fails_nothing(self):
        for report in verify_code("divincenzo5"):
            assert report.failed == ()
            assert report.passed is True

    def test_nan_fails_every_condition(self):
        channel = channel_for("bitflip3", [0.7, 0.1, 0.1, 0.1])
        report = run_experiment("bitflip3", channel, PureQubitState(0.6, 0.8), tol=float("nan"))
        assert report.failed == CONDITIONS
        assert report.passed is False


class TestStackedGrid:
    """verify_code runs the channels of its grid with the same number of
    nonzero terms as stacks, yet returns what one run_experiments pass per
    channel returns, in the same order, byte for byte."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 0.0])
    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_grid_order_and_bytes_of_one_pass_per_channel(self, name, tol):
        ops = standard_error_set(get_code(name))
        for seed in (42, 7):
            want = [
                report_bytes(report)
                for probs in verification_probability_vectors(len(ops), seed=seed)
                for report in run_experiments(
                    name, [ErrorChannel.from_probs(ops, probs)], INPUT_STATES, tol
                )
            ]
            got = [report_bytes(report) for report in verify_code(name, tol=tol, seed=seed)]
            assert got == want

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_no_stack_passes_the_entry_cap(self, name, monkeypatch):
        stacks = []

        def spy(a):
            stacks.append(a.shape)
            return check_product_form(a)

        monkeypatch.setattr(analysis, "check_product_form", spy)
        cases = len(verify_code(name))
        states = len(INPUT_STATES)
        assert sum(s for s, _, _ in stacks) == cases
        for s, d, k in stacks:
            # Only a channel whose states alone pass the cap runs beyond it,
            # and then alone.
            assert s * d * k <= analysis._STACK_ENTRIES or s == states
        # Fewer passes than channels: channels did share stacks.
        assert len(stacks) < cases // states
        if name == "shor9":
            assert [s for s, _, k in stacks if k == 28] == [states] * 11


class TestMutants:
    """Each check held to a broken R: every mutant of tests/mutants.py takes
    the place of analysis.recovery_for's R, and each check must give it the
    verdict the table records."""

    @staticmethod
    def build(m):
        rec = recovery_for(m.code)
        rows, classes = np.array(rec.matrix), list(rec.classes)
        m.edit(rows, classes)
        return RecoveryMatrix(matrix=rows, classes=tuple(classes))

    @pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.name)
    def test_the_checks_that_catch_it(self, m, monkeypatch):
        if m.rejected:
            with pytest.raises(ValueError, match=re.escape(m.rejected)):
                self.build(m)
            return
        mutated = self.build(m)
        monkeypatch.setattr(analysis, "recovery_for", lambda name: mutated)
        reports = verify_code(m.code)
        assert sum(r.passed for r in reports) == m.cases_passed
        assert collections.Counter(c for r in reports for c in r.failed) == m.failed
        ops = standard_error_set(get_code(m.code))
        vertices = [
            op.label for i, op in enumerate(ops)
            if not trajectory_statistics(
                m.code, channel_for(m.code, _one_hot(len(ops), i)), PureQubitState(0.6, 0.8),
                samples=100,
            ).passed
        ]
        assert tuple(vertices) == m.vertices_failed

    def test_mass_turned_into_the_completion_reads_as_outside(self, monkeypatch):
        # On the X_1 vertex the ancilla is cos 0.3 e_1 - sin 0.3 e_22: its
        # diagonal splits between X_1 and "(outside)" and still sums to 1,
        # and its off-diagonal mass fails the case without entering the
        # syndrome.
        mutated = self.build(mutant("shor9 class row rotated into the completion"))
        monkeypatch.setattr(analysis, "recovery_for", lambda name: mutated)
        report = run_experiment("shor9", channel_for("shor9", _one_hot(28, 1)), PureQubitState(0.6, 0.8))
        syndrome = dict(report.syndrome)
        assert abs(syndrome.pop("X_1") - np.cos(0.3) ** 2) <= 1e-15
        assert abs(syndrome.pop("(outside)") - np.sin(0.3) ** 2) <= 1e-15
        assert all(abs(p) <= 1e-15 for p in syndrome.values())
        assert abs(report.max_offdiagonal - np.cos(0.3) * np.sin(0.3)) <= 1e-15
        assert report.failed == ("ancilla_diagonal",)
