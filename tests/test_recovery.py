import warnings

import numpy as np
import pytest

from uqec import recovery
from uqec.analysis import check_product_form
from uqec.codes import (
    CODE_NAMES,
    ErrorOperator,
    PureQubitState,
    bitflip3,
    divincenzo5,
    encode_state,
    error_operator,
    get_code,
    shor9,
    standard_error_set,
)
from uqec.recovery import (
    CLASS_MERGE_TOL,
    ErrorChannel,
    KLViolationError,
    RecoveryMatrix,
    build_recovery,
    recover_pure_state,
    recovery_for,
    recovery_row_order,
    validate_kl,
)
from uqec.linalg import basis_vector

from dense import (
    DensityMatrix,
    QubitSplit,
    apply_channel,
    apply_recovery,
    block_reversal,
    conjugate,
    conventional_recovery_bitflip3,
    full_sigma,
    partial_trace,
    permutation_matrix,
    transposition,
)
from oracles import bitflip_channel_brute, bitflip_density_pattern, group_pairs_brute


def encoded_density(code, alpha, beta):
    return DensityMatrix.from_state(encode_state(code, PureQubitState(alpha, beta)))


def bitflip_channel(probs):
    return ErrorChannel.from_probs(standard_error_set(bitflip3()), probs)


class TestDensityMatrix:
    def test_accepts_pure_state(self):
        rho = DensityMatrix.from_state(np.array([0.6, 0.8]))
        assert rho.dim == 2

    def test_rejects_asymmetric(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not symmetric"):
            DensityMatrix(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(m)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix.from_state(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.array([[1.0, 0.0], [0.0, bad]]))


def bitflip3_factor(states):
    """recover_pure_state on bitflip3 under a fixed channel, for input
    vectors that need not be normalized."""
    channel = bitflip_channel([0.5, 0.3, 0.15, 0.05])
    return recover_pure_state(recovery_for("bitflip3"), [channel], np.asarray(states, dtype=float))


class TestFromFactor:
    """recover_pure_state checks the factor stack it returns, once: each
    state's trace and, through it, NaN and inf entries. The Gram products
    that check_product_form forms from it are exactly symmetric, so no
    eigenvalue test is needed."""

    @pytest.mark.parametrize("shape", [(2, 1), (8, 4), (512, 28), (256, 56), (2, 7168)])
    def test_gram_product_is_exactly_symmetric(self, shape):
        b = np.random.default_rng(shape[1]).standard_normal(shape)
        b /= np.linalg.norm(b)
        q, block, rows, _ = check_product_form(b[None])
        sigma = full_sigma(block, rows, shape[0] // 2)
        assert np.array_equal(q, np.swapaxes(q, 1, 2))
        assert np.array_equal(sigma, np.swapaxes(sigma, 1, 2))
        split = QubitSplit(2, shape[0] // 2)
        assert np.max(np.abs(q[0] - partial_trace(b @ b.T, split))) <= 1e-15
        assert np.max(np.abs(sigma[0] - partial_trace(b @ b.T, split, keep="rest"))) <= 1e-15

    def test_matches_validated_constructor(self):
        # A A^T passes the dense constructor's full validation and is the
        # dense pipeline's recovered state.
        state = encode_state(bitflip3(), PureQubitState(0.6, 0.8))
        (a,) = bitflip3_factor([state])
        channel = bitflip_channel([0.5, 0.3, 0.15, 0.05])
        dense = apply_recovery(
            recovery_for("bitflip3"), apply_channel(channel, DensityMatrix.from_state(state))
        )
        assert np.max(np.abs(DensityMatrix(a @ a.T).matrix - dense.matrix)) <= 1e-15

    def test_read_only(self):
        a = bitflip3_factor([encode_state(bitflip3(), PureQubitState(0.6, 0.8))])
        with pytest.raises(ValueError):
            a[0, 0, 0] = 2.0
        q, sigma, rows, _ = check_product_form(a)
        for out in (q, sigma, rows):
            with pytest.raises(ValueError):
                out[(0,) * out.ndim] = 2

    def test_rejects_nan_factor(self):
        state = np.zeros(8)
        state[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            bitflip3_factor([state])

    def test_rejects_trace_off_one(self):
        with pytest.raises(ValueError, match="trace is 2.0"):
            bitflip3_factor([np.sqrt(2.0) * basis_vector(8, 0)])

    def test_stack_checks_the_trace_of_each_state(self):
        good = encode_state(bitflip3(), PureQubitState(0.6, 0.8))
        with pytest.raises(ValueError, match="trace is 2.0"):
            bitflip3_factor([good, good, 2 ** 0.5 * good])


class TestErrorChannel:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum to"):
            bitflip_channel([0.5, 0.5, 0.5, 0.5])

    @pytest.mark.parametrize("probs", [
        [np.nan, 1.0, 0.0, 0.0],
        [np.inf, 0.0, 0.0, 0.0],
        [np.inf, -np.inf, 0.5, 0.5],
    ])
    def test_rejects_non_finite(self, probs):
        with pytest.raises(ValueError):
            bitflip_channel(probs)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bitflip_channel([1.5, -0.5, 0.0, 0.0])

    def test_rejects_arity_mismatch(self):
        with pytest.raises(ValueError, match="probabilities for"):
            bitflip_channel([1.0, 0.0])

    def test_overflowing_sum_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sum to inf"):
                bitflip_channel([1e308, 1e308, 0.0, 0.0])


class TestApplyChannel:
    def test_identity_channel(self):
        rho = encoded_density(bitflip3(), 0.6, 0.8)
        out = apply_channel(bitflip_channel([1.0, 0.0, 0.0, 0.0]), rho)
        assert np.array_equal(out.matrix, rho.matrix)

    def test_matches_entrywise_pattern_and_brute_force(self):
        # the corrupted matrix has each flip's probability on its own
        # support pair, with the coherence terms riding along
        alpha, beta = 0.6, 0.8
        probs = [0.5, 0.3, 0.15, 0.05]
        rho = encoded_density(bitflip3(), alpha, beta)
        out = apply_channel(bitflip_channel(probs), rho)
        pattern = bitflip_density_pattern(alpha, beta, probs)
        brute = bitflip_channel_brute(rho.matrix, probs)
        assert np.max(np.abs(out.matrix - pattern)) <= 1e-12
        assert np.max(np.abs(out.matrix - brute)) <= 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(43)
        probs = rng.dirichlet(np.ones(4))
        out = apply_channel(bitflip_channel(probs), encoded_density(bitflip3(), 0.28, -0.96))
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(47)
        ch = bitflip_channel(rng.dirichlet(np.ones(4)))
        rho1 = encoded_density(bitflip3(), 1.0, 0.0)
        rho2 = encoded_density(bitflip3(), 0.6, 0.8)
        a = 0.3
        mixed = DensityMatrix(a * rho1.matrix + (1 - a) * rho2.matrix)
        lhs = apply_channel(ch, mixed).matrix
        rhs = a * apply_channel(ch, rho1).matrix + (1 - a) * apply_channel(ch, rho2).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self):
        rho = DensityMatrix.from_state(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="dimension"):
            apply_channel(bitflip_channel([1.0, 0, 0, 0]), rho)


class TestValidateKL:
    def test_bitflip3_exact(self):
        report = validate_kl(bitflip3(), standard_error_set(bitflip3()))
        assert report.gram_deviation == 0.0
        assert report.is_nondegenerate
        assert report.classes == (("I",), ("X_1",), ("X_2",), ("X_3",))

    def test_divincenzo5_nondegenerate(self):
        report = validate_kl(divincenzo5(), standard_error_set(divincenzo5()))
        assert report.is_nondegenerate
        assert report.gram_deviation <= 1e-12
        assert len(report.classes) == 16

    def test_shor9_z_degeneracy(self):
        report = validate_kl(shor9(), standard_error_set(shor9()))
        assert len(report.classes) == 22
        assert report.degenerate_classes == (
            ("Z_1", "Z_2", "Z_3"),
            ("Z_4", "Z_5", "Z_6"),
            ("Z_7", "Z_8", "Z_9"),
        )
        assert report.gram_deviation <= 1e-12
        assert not report.is_nondegenerate

    def test_uncorrectable_set_detected(self):
        # a phase flip is invisible to the repetition code on |0>_L
        ops = standard_error_set(bitflip3()) + (error_operator("Z", 1, 3),)
        report = validate_kl(bitflip3(), ops)
        assert report.gram_deviation > 0.9


class TestBuildRecovery:
    def test_bitflip3_equals_permutation_products(self):
        rec = recovery_for("bitflip3")
        p34 = permutation_matrix(transposition(8, 3, 4))
        p4567 = permutation_matrix(block_reversal(8, [4, 5, 6, 7]))
        p37 = permutation_matrix(transposition(8, 3, 7))
        assert np.array_equal(rec.matrix, p4567 @ p34)
        assert np.array_equal(rec.matrix, p37 @ p4567)

    def test_bitflip3_row_order_preset(self):
        labels = [op.label for op in recovery_row_order(bitflip3())]
        assert labels == ["I", "X_3", "X_2", "X_1"]

    def test_divincenzo5_shape(self):
        rec = recovery_for("divincenzo5")
        assert rec.matrix.shape == (32, 32)
        assert np.max(np.abs(rec.matrix @ rec.matrix.T - np.eye(32))) <= 1e-10
        # No completion rows.
        assert [rec.row_label(i).split()[0] for i in range(32)] == ["0"] * 16 + ["1"] * 16

    def test_shor9_labeled_and_completion_rows(self):
        rec = recovery_for("shor9")
        labels = [rec.row_label(i) for i in range(512)]
        completion = [i for i, lb in enumerate(labels) if lb == "completion (completion)"]
        assert len(completion) == 468
        assert completion == list(range(22, 256)) + list(range(278, 512))
        assert np.max(np.abs(rec.matrix @ rec.matrix.T - np.eye(512))) <= 1e-10

    def test_class_labels_are_stored_once(self):
        rec = recovery_for("shor9")
        assert rec.class_labels is rec.class_labels
        assert len(rec.class_labels) == len(rec.classes) == 22
        assert rec.class_labels[-3:] == ("{Z_1,Z_2,Z_3}", "{Z_4,Z_5,Z_6}", "{Z_7,Z_8,Z_9}")
        assert [rec.row_label(c) for c in range(22)] == [f"0 {lb}" for lb in rec.class_labels]
        assert [rec.row_label(256 + c) for c in range(22)] == [
            f"1 {lb}" for lb in rec.class_labels
        ]

    def test_labeled_rows_are_shifted_codewords(self):
        code = shor9()
        rec = recovery_for("shor9")
        ops = {op.label: op for op in standard_error_set(code)}
        half = code.dim // 2
        for c, members in enumerate(rec.classes):
            rep = ops[members[0]]
            assert np.array_equal(rec.matrix[c], rep.apply(code.logical0))
            assert np.array_equal(rec.matrix[half + c], rep.apply(code.logical1))

    def test_rejects_uncorrectable_ops(self):
        ops = standard_error_set(bitflip3()) + (error_operator("Z", 1, 3),)
        with pytest.raises(KLViolationError, match="not orthonormal"):
            build_recovery(bitflip3(), ops)

    def test_partial_error_set_gets_completion(self):
        code = bitflip3()
        ops = standard_error_set(code)[:2]  # I, X_1
        rec = build_recovery(code, ops)
        labels = [rec.row_label(i) for i in range(8)]
        assert labels == ["0 I", "0 X_1"] + ["completion (completion)"] * 2 + [
            "1 I", "1 X_1"] + ["completion (completion)"] * 2
        assert np.max(np.abs(rec.matrix @ rec.matrix.T - np.eye(8))) <= 1e-10

    @pytest.mark.parametrize("bad", ["repeated unit row", "nan"])
    def test_rejects_non_orthogonal_matrix(self, bad):
        m = np.eye(4)
        if bad == "nan":
            m[2, 3] = np.nan
        else:
            m[3] = m[1]
        with pytest.raises(ValueError, match="not orthogonal"):
            RecoveryMatrix(matrix=m, classes=(), class_map={})


def kl_fields_pairwise(code, ops):
    """(classes, gram_deviation, worst_pair) of a KLReport, with classes
    grouped one pair at a time and the representatives' Gram matrix taken
    as stacked logical-0 shifts, then logical-1 shifts."""
    shift0 = [op.apply(code.logical0) for op in ops]
    shift1 = [op.apply(code.logical1) for op in ops]
    groups = group_pairs_brute(shift0, shift1, CLASS_MERGE_TOL)
    reps = [grp[0] for grp in groups]
    stacked = np.array([shift0[i] for i in reps] + [shift1[i] for i in reps])
    dev = np.abs(stacked @ stacked.T - np.eye(2 * len(reps)))
    wi, wj = np.unravel_index(int(dev.argmax()), dev.shape)
    k = len(reps)
    worst = tuple(f"{ops[reps[r % k]].label}|{r // k}>_L" for r in (int(wi), int(wj)))
    classes = tuple(tuple(ops[i].label for i in grp) for grp in groups)
    return classes, float(dev.max()), worst


class TestGroupOnce:
    @pytest.fixture
    def grouping_calls(self, monkeypatch):
        calls = []
        original = recovery._group_error_classes

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(recovery, "_group_error_classes", counting)
        return calls

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_build_recovery_groups_once(self, name, grouping_calls):
        code = get_code(name)
        build_recovery(code, recovery_row_order(code))
        assert len(grouping_calls) == 1

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_classes_and_report_match_pairwise_grouping(self, name):
        code = get_code(name)
        ops = recovery_row_order(code)
        classes, deviation, worst = kl_fields_pairwise(code, ops)
        rec = build_recovery(code, ops)
        assert rec.classes == classes
        assert rec.class_map == {lb: c for c, grp in enumerate(classes) for lb in grp}
        report = validate_kl(code, ops)
        assert report.classes == classes
        assert report.degenerate_classes == tuple(c for c in classes if len(c) > 1)
        assert report.gram_deviation == deviation
        assert report.worst_pair == worst

    def test_violation_names_the_same_pair(self):
        code = bitflip3()
        ops = standard_error_set(code) + (error_operator("Z", 1, 3),)
        _, deviation, worst = kl_fields_pairwise(code, ops)
        assert worst == ("I|0>_L", "Z_1|0>_L")
        with pytest.raises(KLViolationError) as exc:
            build_recovery(code, ops)
        message = str(exc.value)
        assert f"{worst[0]} and {worst[1]} are not orthonormal" in message
        assert f"(deviation {deviation:.3e})" in message

    def test_nan_signed_operator_is_a_violation(self):
        # A NaN Gram deviation fails the check, rather than passing it and
        # failing later in the completion.
        code = bitflip3()
        x1 = error_operator("X", 1, 3)
        signs = x1.signs.copy()
        signs[0] = np.nan
        bad = ErrorOperator(n=3, label="X_1", perm=x1.perm, signs=signs)
        with pytest.raises(KLViolationError, match="not orthonormal"):
            build_recovery(code, (error_operator("I", 0, 3), bad))


class TestApplyRecovery:
    def test_identity_recovery(self):
        code = bitflip3()
        rec = build_recovery(code, standard_error_set(code)[:1])
        rho = encoded_density(code, 1.0, 0.0)
        out = apply_recovery(rec, rho)
        assert out.dim == 8

    def test_bitflip3_ancilla_diagonal_order(self):
        # with row order (I, X_3, X_2, X_1) the ancilla diagonal comes out
        # reordered as (p0, p3, p2, p1)
        probs = [0.5, 0.05, 0.15, 0.3]
        alpha, beta = 0.6, 0.8
        rho_err = apply_channel(bitflip_channel(probs), encoded_density(bitflip3(), alpha, beta))
        out = apply_recovery(recovery_for("bitflip3"), rho_err)
        rho0 = np.array([[alpha**2, alpha * beta], [alpha * beta, beta**2]])
        sigma = np.diag([probs[0], probs[3], probs[2], probs[1]])
        assert np.max(np.abs(out.matrix - np.kron(rho0, sigma))) <= 1e-12

    def test_divincenzo5_ancilla_keeps_channel_order(self):
        code = divincenzo5()
        rng = np.random.default_rng(53)
        probs = rng.dirichlet(np.ones(16))
        ch = ErrorChannel.from_probs(standard_error_set(code), probs)
        out = apply_recovery(recovery_for(code.name), apply_channel(ch, encoded_density(code, 0.6, 0.8)))
        rho0 = np.array([[0.36, 0.48], [0.48, 0.64]])
        assert np.max(np.abs(out.matrix - np.kron(rho0, np.diag(probs)))) <= 1e-12

    @pytest.mark.parametrize("name", ("bitflip3", "divincenzo5", "shor9"))
    def test_vector_level_recovery_per_class(self, name):
        code = get_code(name)
        rec = recovery_for(name)
        ops = {op.label: op for op in standard_error_set(code)}
        psi = PureQubitState(0.6, 0.8)
        encoded = encode_state(code, psi)
        for c, members in enumerate(rec.classes):
            for label in members:  # degenerate members must land on the same slot
                recovered = rec.matrix @ ops[label].apply(encoded)
                target = np.zeros(code.dim)
                target[c] = psi.alpha
                target[rec.ancilla_dim + c] = psi.beta
                assert np.linalg.norm(recovered - target) <= 1e-10

    def test_dimension_mismatch(self):
        rho = DensityMatrix.from_state(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="dimension"):
            apply_recovery(recovery_for("bitflip3"), rho)


class TestConventionalRecovery:
    def test_no_error_is_fixed_point(self):
        rho = encoded_density(bitflip3(), 0.6, 0.8)
        out = conventional_recovery_bitflip3(rho)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_recovers_any_bitflip_mixture(self):
        rng = np.random.default_rng(59)
        rho = encoded_density(bitflip3(), 0.28, 0.96)
        for _ in range(5):
            rho_err = apply_channel(bitflip_channel(rng.dirichlet(np.ones(4))), rho)
            out = conventional_recovery_bitflip3(rho_err)
            assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-10

    def test_recovers_deterministic_single_flip(self):
        rho = encoded_density(bitflip3(), 0.6, 0.8)
        x2 = error_operator("X", 2, 3)
        rho_err = DensityMatrix(conjugate(x2, rho.matrix))
        out = conventional_recovery_bitflip3(rho_err)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_out_of_family_input_keeps_unit_trace(self):
        # the four flipped copies of {|000>, |111>} tile the whole basis, so
        # the projection loses no trace even outside the correctable family
        # and the renormalization guard stays dormant
        v = np.zeros(8)
        v[0] = v[1] = v[2] = np.sqrt(1 / 3)
        out = conventional_recovery_bitflip3(DensityMatrix.from_state(v))
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-12

    def test_wrong_dimension(self):
        with pytest.raises(ValueError, match="8-dimensional"):
            conventional_recovery_bitflip3(DensityMatrix.from_state(np.array([1.0, 0.0])))


class TestRecoverPureState:
    def test_matches_dense_path(self):
        code = shor9()
        ops = standard_error_set(code)
        probs = np.random.default_rng(5).dirichlet(np.ones(len(ops)))
        probs[3] = 0.0
        channel = ErrorChannel.from_probs(ops, probs / probs.sum())
        states = (PureQubitState(0.6, -0.8), PureQubitState(1.0, 0.0))
        encoded = [encode_state(code, psi) for psi in states]
        rec = recovery_for("shor9")
        fast = recover_pure_state(rec, [channel], encoded)
        assert fast.shape == (2, 512, len(ops) - 1)
        for i, vec in enumerate(encoded):
            dense = apply_recovery(rec, apply_channel(channel, DensityMatrix.from_state(vec)))
            assert np.max(np.abs(fast[i] @ fast[i].T - dense.matrix)) <= 1e-14

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="differ"):
            recover_pure_state(
                recovery_for("divincenzo5"), [bitflip_channel([1, 0, 0, 0])], np.ones((1, 8)) / np.sqrt(8)
            )

    def test_rejects_channels_of_different_term_counts(self):
        with pytest.raises(ValueError, match="same number of nonzero terms"):
            recover_pure_state(
                recovery_for("bitflip3"),
                [bitflip_channel([1, 0, 0, 0]), bitflip_channel([0.5, 0.5, 0, 0])],
                np.ones((1, 8)) / np.sqrt(8),
            )

    def test_rejects_an_empty_channel_list(self):
        with pytest.raises(ValueError, match="channel list is empty"):
            recover_pure_state(recovery_for("bitflip3"), [], np.ones((1, 8)) / np.sqrt(8))

    def test_rejects_a_state_that_is_not_a_stack(self):
        with pytest.raises(ValueError, match="one vector per row"):
            recover_pure_state(
                recovery_for("bitflip3"), [bitflip_channel([1, 0, 0, 0])], np.ones(8) / np.sqrt(8)
            )
