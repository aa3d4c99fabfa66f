import numpy as np
import pytest

from uqec.linalg import (
    basis_vector,
    format_matrix,
    gram_schmidt_extend,
    orthogonality_deviation,
)

from uqec.codes import CODE_NAMES, get_code
from uqec.recovery import recovery_for

from dense import (
    QubitSplit,
    block_reversal,
    controlled_not,
    frobenius_distance,
    kron,
    orthonormal_completion,
    parse_matrix,
    partial_trace,
    permutation_matrix,
    read_matrix,
    transposition,
)
from oracles import gram_schmidt_extend_loop, kron_brute, partial_trace_brute

X = np.array([[0.0, 1.0], [1.0, 0.0]])
Z = np.array([[1.0, 0.0], [0.0, -1.0]])
I2 = np.eye(2)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), np.eye(4))

    def test_x_on_first_qubit_swaps_blocks(self):
        m = kron(X, I2)
        expected = np.zeros((4, 4))
        expected[2, 0] = expected[3, 1] = expected[0, 2] = expected[1, 3] = 1.0
        assert np.array_equal(m, expected)

    def test_x1_maps_000_to_100(self):
        x1 = kron(X, kron(I2, I2))
        assert np.array_equal(x1 @ basis_vector(8, 0), basis_vector(8, 4))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 2))
        b = rng.normal(size=(2, 4))
        assert np.max(np.abs(kron(a, b) - kron_brute(a, b))) == 0.0

    def test_associativity(self):
        rng = np.random.default_rng(5)
        a, b, c = (rng.normal(size=(2, 2)) for _ in range(3))
        assert np.max(np.abs(kron(kron(a, b), c) - kron(a, kron(b, c)))) <= 1e-12


class TestPartialTrace:
    def test_product_reduces_to_scaled_factor(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(4, 4))
        split = QubitSplit(2, 4)
        got = partial_trace(kron(a, b), split, keep="first")
        assert np.max(np.abs(got - a * np.trace(b))) <= 1e-12
        got = partial_trace(kron(a, b), split, keep="rest")
        assert np.max(np.abs(got - b * np.trace(a))) <= 1e-12

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = (basis_vector(4, 0) + basis_vector(4, 3)) / np.sqrt(2)
        rho = np.outer(bell, bell)
        got = partial_trace(rho, QubitSplit(2, 2), keep="first")
        assert np.max(np.abs(got - 0.5 * np.eye(2))) <= 1e-15

    def test_trace_preserved(self):
        rng = np.random.default_rng(13)
        rho = rng.normal(size=(8, 8))
        for keep in ("first", "rest"):
            got = partial_trace(rho, QubitSplit(2, 4), keep=keep)
            assert abs(np.trace(got) - np.trace(rho)) <= 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        rho = rng.normal(size=(8, 8))
        split = QubitSplit(2, 4)
        assert np.allclose(
            partial_trace(rho, split, "first"), partial_trace_brute(rho, 2, 4, True),
            atol=1e-13,
        )
        assert np.allclose(
            partial_trace(rho, split, "rest"), partial_trace_brute(rho, 2, 4, False),
            atol=1e-13,
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="split expects"):
            partial_trace(np.eye(8), QubitSplit(2, 2))

    def test_bad_keep_flag(self):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(4), QubitSplit(2, 2), keep="second")


class TestPermutationMatrix:
    def test_identity(self):
        assert np.array_equal(permutation_matrix(range(8)), np.eye(8))

    def test_transposition_swaps_3_and_4(self):
        m = permutation_matrix(transposition(8, 3, 4))
        assert np.array_equal(m @ basis_vector(8, 3), basis_vector(8, 4))
        assert np.array_equal(m @ basis_vector(8, 4), basis_vector(8, 3))
        for i in (0, 1, 2, 5, 6, 7):
            assert np.array_equal(m @ basis_vector(8, i), basis_vector(8, i))

    def test_block_reversal_is_controlled_notnot(self):
        m = permutation_matrix(block_reversal(8, [4, 5, 6, 7]))
        assert np.array_equal(m, controlled_not(3, controls=[1], targets=[2, 3]))

    def test_composition(self):
        rng = np.random.default_rng(19)
        p = rng.permutation(8)
        q = rng.permutation(8)
        composed = permutation_matrix(p[q])  # j -> p[q[j]]
        assert np.array_equal(permutation_matrix(p) @ permutation_matrix(q), composed)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            permutation_matrix([0, 0, 1])


class TestControlledNot:
    def test_double_control_swaps_3_and_7(self):
        m = controlled_not(3, controls=[2, 3], targets=[1])
        expected = permutation_matrix(transposition(8, 3, 7))
        assert np.array_equal(m, expected)

    def test_is_orthogonal_permutation(self):
        m = controlled_not(3, controls=[1], targets=[2, 3])
        assert np.array_equal(m @ m.T, np.eye(8))


class TestOrthonormalCompletion:
    def test_two_standard_rows_complete_to_identity(self):
        rows = [basis_vector(4, 0), basis_vector(4, 1)]
        assert np.array_equal(orthonormal_completion(rows, 4), np.eye(4))

    def test_full_basis_returned_unchanged(self):
        # the 3-qubit recovery permutation rows already span everything
        rows = np.eye(8)[[0, 1, 2, 4, 7, 6, 5, 3]]
        assert np.array_equal(orthonormal_completion(rows, 8), rows)

    def test_single_row_in_2d(self):
        row = (basis_vector(2, 0) + basis_vector(2, 1)) / np.sqrt(2)
        m = orthonormal_completion([row], 2)
        expected_second = (basis_vector(2, 0) - basis_vector(2, 1)) / np.sqrt(2)
        assert np.max(np.abs(m[1] - expected_second)) <= 1e-15

    def test_output_is_orthogonal(self):
        rng = np.random.default_rng(23)
        q, _ = np.linalg.qr(rng.normal(size=(16, 16)))
        m = orthonormal_completion(q[:5], 16)
        assert np.linalg.norm(m @ m.T - np.eye(16)) <= 1e-10  # Frobenius
        assert np.max(np.abs(m[:5] - q[:5])) == 0.0

    def test_rejects_non_orthonormal_rows(self):
        rows = [basis_vector(4, 0), basis_vector(4, 0)]
        with pytest.raises(ValueError, match="rows 0 and 1"):
            orthonormal_completion(rows, 4)

    def test_completion_rows_have_positive_leading_entry(self):
        row = np.array([0.6, 0.8, 0.0, 0.0])
        m = orthonormal_completion([row], 4)
        for r in m[1:]:
            lead = r[np.flatnonzero(np.abs(r) > 1e-12)[0]]
            assert lead > 0

    def test_extend_raises_when_candidates_run_out(self):
        with pytest.raises(ValueError, match="exhausted"):
            gram_schmidt_extend(np.eye(2), [0], 1)


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def basis(d, order):
    return [basis_vector(d, i) for i in order]


def supported_rows(rng, d, support, n_rows):
    """n_rows random orthonormal d-vectors that are zero outside `support`."""
    q, _ = np.linalg.qr(rng.normal(size=(len(support), len(support))))
    rows = np.zeros((n_rows, d))
    rows[:, support] = q[:n_rows]
    return rows


class TestGramSchmidtSkipsOnlyExactWork:
    """gram_schmidt_extend keeps an outside-support e_i and drops a spanned
    in-support e_i without projecting either; its rows must equal, bit for
    bit, those of the loop that projects every candidate
    (oracles.gram_schmidt_extend_loop)."""

    def test_shor9_recovery_completion(self):
        rec = recovery_for("shor9")
        k, half = len(rec.classes), rec.dim // 2
        pinned = np.vstack([rec.matrix[:k], rec.matrix[half : half + k]])
        count = rec.dim - 2 * k
        assert_same_bits(
            gram_schmidt_extend(pinned, range(rec.dim), count),
            gram_schmidt_extend_loop(pinned, basis(rec.dim, range(rec.dim)), count),
        )

    def test_shor9_recovery_completion_projection_count(self, monkeypatch):
        # One norm per projected candidate. The 44 pinned rows touch 80
        # indices; 36 projected candidates are kept and 14 dropped before the
        # rows fill that support, and the 21 support indices reached after
        # that are skipped. The plain loop projects all 71.
        rec = recovery_for("shor9")
        k, half = len(rec.classes), rec.dim // 2
        pinned = np.vstack([rec.matrix[:k], rec.matrix[half : half + k]])
        calls = []
        norm = np.linalg.norm

        def counting_norm(*args, **kwargs):
            calls.append(1)
            return norm(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        gram_schmidt_extend(pinned, range(rec.dim), rec.dim - 2 * k)
        assert len(calls) == 50

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_both_encoder_completions(self, name):
        code = get_code(name)
        d, half = code.dim, code.dim // 2
        pinned = np.vstack([code.logical0, code.logical1])
        up, down = range(d), range(d - 1, -1, -1)
        lower = gram_schmidt_extend_loop(pinned, basis(d, up), half - 1)
        assert_same_bits(gram_schmidt_extend(pinned, up, half - 1), lower)
        both = np.vstack([pinned, lower])
        upper = gram_schmidt_extend_loop(both, basis(d, down), half - 1)
        assert_same_bits(gram_schmidt_extend(both, down, half - 1), upper)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_support_shuffled_candidates(self, seed):
        rng = np.random.default_rng(seed)
        d = 64
        support = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
        rows = supported_rows(rng, d, support, int(rng.integers(0, len(support) + 1)))
        order = rng.permutation(d)
        count = d - rows.shape[0]
        assert_same_bits(
            gram_schmidt_extend(rows, order, count),
            gram_schmidt_extend_loop(rows, basis(d, order), count),
        )

    def test_rejects_non_finite_accepted_rows(self):
        rows = np.array([[np.nan, 0.0, 0.0]])
        with pytest.raises(ValueError, match="non-finite"):
            gram_schmidt_extend(rows, range(3), 2)


def dense_deviation(m):
    return float(np.max(np.abs(m @ m.T - np.eye(m.shape[0]))))


class TestOrthogonalityDeviation:
    """orthogonality_deviation reads the unit rows' part of max |m m^T - I|
    off m; it must match the dense product."""

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_recovery_matrices(self, name):
        rec = recovery_for(name)
        assert rec.orthogonality_deviation == orthogonality_deviation(rec.matrix)
        assert abs(rec.orthogonality_deviation - dense_deviation(rec.matrix)) <= 1e-15

    def test_permutation_matrix_is_exact(self):
        m = permutation_matrix(np.random.default_rng(3).permutation(16))
        assert orthogonality_deviation(m) == dense_deviation(m) == 0.0

    def test_random_orthogonal_has_no_unit_rows(self):
        q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(24, 24)))
        assert abs(orthogonality_deviation(q) - dense_deviation(q)) <= 1e-15

    def test_negative_unit_row(self):
        m = np.eye(6)
        m[2, 2] = -1.0
        assert orthogonality_deviation(m) == dense_deviation(m) == 0.0

    def test_unit_row_whose_column_another_row_touches(self):
        m = np.eye(4)
        m[1, :2] = [0.6, 0.8]
        assert abs(orthogonality_deviation(m) - dense_deviation(m)) <= 1e-15
        assert orthogonality_deviation(m) == 0.6

    def test_two_equal_unit_rows_read_one(self):
        m = np.eye(4)
        m[3] = m[1]
        assert orthogonality_deviation(m) == dense_deviation(m) == 1.0

    def test_nan_entry_reads_nan(self):
        m = np.eye(4)
        m[2, 3] = np.nan
        assert np.isnan(orthogonality_deviation(m))


class TestFrobeniusDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=(5, 5))
        assert frobenius_distance(a, a) == 0.0

    def test_identity_vs_zero(self):
        assert frobenius_distance(np.eye(2), np.zeros((2, 2))) == pytest.approx(np.sqrt(2.0), abs=0)

    def test_x_vs_z(self):
        assert frobenius_distance(X, Z) == 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            frobenius_distance(np.eye(2), np.eye(3))


class TestMatrixTextFormat:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(6, 3)) * np.pi
        path = tmp_path / "m.txt"
        path.write_text(format_matrix(m))
        assert np.array_equal(read_matrix(path), m)

    def test_header_and_layout(self):
        text = format_matrix(np.eye(2))
        assert text.splitlines()[0] == "2 2"
        assert text.splitlines()[1] == "1 0"

    def test_column_vector(self):
        v = np.array([0.5, -0.5]).reshape(-1, 1)
        assert np.array_equal(parse_matrix(format_matrix(v)), v)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="expected 2 data lines"):
            parse_matrix("2 2\n1 0\n")
