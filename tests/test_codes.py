import numpy as np
import pytest

from uqec.codes import (
    CODE_NAMES,
    Code,
    PureQubitState,
    bitflip3,
    divincenzo5,
    encode_state,
    encoding_unitary,
    error_operator,
    get_code,
    shor9,
    standard_error_set,
)
from uqec.linalg import basis_vector

from dense import conjugate, controlled_not, operator_matrix
from oracles import X1Q, Y1Q, Z1Q, embed_brute, pauli_brute

# Signed supports of the 5-qubit logical vectors, re-derived from the
# bitstring lists independently of the implementation's tables.
FIVE_L0 = {
    "00000": +1, "11000": +1, "01100": +1, "00110": +1, "00011": +1, "10001": +1,
    "10100": -1, "01010": -1, "00101": -1, "10010": -1, "01001": -1,
    "11110": -1, "01111": -1, "10111": -1, "11011": -1, "11101": -1,
}
FIVE_L1 = {
    "11111": +1, "00111": +1, "10011": +1, "11001": +1, "11100": +1, "01110": +1,
    "01011": -1, "10101": -1, "11010": -1, "01101": -1, "10110": -1,
    "00001": -1, "10000": -1, "01000": -1, "00100": -1, "00010": -1,
}


class TestBitflip3:
    def test_logical_vectors(self):
        code = bitflip3()
        assert np.array_equal(code.logical0, basis_vector(8, 0))
        assert np.array_equal(code.logical1, basis_vector(8, 7))

    def test_orthogonality(self):
        code = bitflip3()
        assert code.logical0 @ code.logical1 == 0.0


class TestDivincenzo5:
    def test_signed_support_of_logical0(self):
        code = divincenzo5()
        expected = np.zeros(32)
        for bits, sign in FIVE_L0.items():
            expected[int(bits, 2)] = sign * 0.25
        assert np.array_equal(code.logical0, expected)

    def test_signed_support_of_logical1(self):
        code = divincenzo5()
        expected = np.zeros(32)
        for bits, sign in FIVE_L1.items():
            expected[int(bits, 2)] = sign * 0.25
        assert np.array_equal(code.logical1, expected)

    def test_spot_values(self):
        code = divincenzo5()
        assert code.logical0[0] == 0.25        # |00000>
        assert code.logical0[int("10100", 2)] == -0.25
        assert code.logical1[31] == 0.25       # |11111>

    def test_unit_norm_from_16_terms(self):
        code = divincenzo5()
        assert np.count_nonzero(code.logical0) == 16
        assert abs(code.logical0 @ code.logical0 - 1.0) <= 1e-15


class TestShor9:
    def test_entries(self):
        code = shor9()
        amp = 1.0 / (2.0 * np.sqrt(2.0))
        assert code.logical0[0] == pytest.approx(amp, abs=1e-15)
        assert code.logical1[511] == pytest.approx(-amp, abs=1e-15)
        assert np.count_nonzero(code.logical0) == 8
        assert np.count_nonzero(code.logical1) == 8

    def test_orthogonality(self):
        code = shor9()
        assert abs(code.logical0 @ code.logical1) <= 1e-15


@pytest.mark.parametrize("name", CODE_NAMES)
def test_logical_basis_invariants(name):
    code = get_code(name)
    assert abs(code.logical0 @ code.logical0 - 1.0) <= 1e-12
    assert abs(code.logical1 @ code.logical1 - 1.0) <= 1e-12
    assert abs(code.logical0 @ code.logical1) <= 1e-12


class TestErrorOperator:
    def test_dense_matrix_built_on_first_read(self):
        op = error_operator("Y", 2, 9)
        assert "matrix" not in vars(op)
        assert operator_matrix(op) is operator_matrix(op)
        assert not operator_matrix(op).flags.writeable

    def test_identity(self):
        op = error_operator("I", 0, 3)
        assert np.array_equal(operator_matrix(op), np.eye(8))
        assert op.label == "I"

    def test_x1_flips_first_qubit(self):
        op = error_operator("X", 1, 3)
        assert np.array_equal(op.apply(basis_vector(8, 0)), basis_vector(8, 4))
        assert np.array_equal(operator_matrix(op), embed_brute(X1Q, 1, 3))

    def test_z2_negates_01(self):
        op = error_operator("Z", 2, 2)
        assert np.array_equal(op.apply(basis_vector(4, 1)), -basis_vector(4, 1))

    def test_y_embedding_matches_brute_force(self):
        op = error_operator("Y", 3, 4)
        assert np.array_equal(operator_matrix(op), embed_brute(Y1Q, 3, 4))

    def test_z_embedding_matches_brute_force(self):
        op = error_operator("Z", 5, 5)
        assert np.array_equal(operator_matrix(op), embed_brute(Z1Q, 5, 5))

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            error_operator("X", 4, 3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            error_operator("H", 1, 3)

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_all_standard_operators_are_signed_permutations(self, name):
        for op in standard_error_set(get_code(name)):
            m = operator_matrix(op)
            assert np.max(np.abs(m @ m.T - np.eye(op.dim))) <= 1e-12
            assert np.all(np.sum(np.abs(m) > 0, axis=0) == 1)
            assert np.all(np.sum(np.abs(m) > 0, axis=1) == 1)
            nonzero = m[np.abs(m) > 0]
            assert set(np.unique(nonzero)) <= {-1.0, 1.0}

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_every_standard_operator_matches_brute_force(self, name):
        code = get_code(name)
        for op in standard_error_set(code):
            assert np.array_equal(operator_matrix(op), pauli_brute(op.label, code.n)), op.label

    def test_conjugate_matches_dense_product(self):
        rng = np.random.default_rng(37)
        rho = rng.normal(size=(32, 32))
        op = error_operator("Y", 2, 5)
        assert np.max(np.abs(
            conjugate(op, rho) - operator_matrix(op) @ rho @ operator_matrix(op).T
        )) <= 1e-14


class TestStandardErrorSet:
    def test_bitflip3_labels(self):
        labels = [op.label for op in standard_error_set(bitflip3())]
        assert labels == ["I", "X_1", "X_2", "X_3"]

    def test_divincenzo5_order(self):
        ops = standard_error_set(divincenzo5())
        assert len(ops) == 16
        assert ops[0].label == "I"
        assert ops[1].label == "X_1"
        assert ops[15].label == "Z_5"

    def test_shor9_count(self):
        assert len(standard_error_set(shor9())) == 28


class TestEncodeState:
    def test_basis_case(self):
        assert np.array_equal(
            encode_state(bitflip3(), PureQubitState(1.0, 0.0)), basis_vector(8, 0)
        )

    def test_superposition(self):
        v = encode_state(bitflip3(), PureQubitState(0.6, 0.8))
        assert v[0] == 0.6 and v[7] == 0.8
        assert np.count_nonzero(v) == 2

    def test_divincenzo5_uniform_superposition(self):
        s = np.sqrt(0.5)
        v = encode_state(divincenzo5(), PureQubitState(s, s))
        assert np.count_nonzero(v) == 32
        assert np.max(np.abs(np.abs(v) - 1.0 / (4.0 * np.sqrt(2.0)))) <= 1e-15

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_unit_norm(self, name):
        rng = np.random.default_rng(41)
        for _ in range(5):
            theta = rng.uniform(0, 2 * np.pi)
            v = encode_state(get_code(name), PureQubitState(np.cos(theta), np.sin(theta)))
            assert abs(v @ v - 1.0) <= 1e-12

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureQubitState(1.0, 1.0)

    @pytest.mark.parametrize("alpha,beta", [
        (float("nan"), 0.0), (1.0, float("nan")), (float("inf"), 0.0), (0.6, float("-inf")),
        (1e200, 0.0),  # alpha ** 2 would raise OverflowError
    ])
    def test_rejects_non_finite_amplitudes(self, alpha, beta):
        with pytest.raises(ValueError, match="not normalized"):
            PureQubitState(alpha, beta)

    # A numpy scalar's product warns on overflow where a Python float's does
    # not, and pytest turns that RuntimeWarning into an error.
    @pytest.mark.parametrize("alpha,beta", [
        (np.float64(1e200), 0.0), (0.0, np.float64(-1e200)), (np.float64(np.inf), 0.0),
    ], ids=["np-1e200-0", "0-np--1e200", "np-inf-0"])
    def test_rejects_numpy_scalar_amplitudes_without_warning(self, alpha, beta):
        with pytest.raises(ValueError, match="not normalized"):
            PureQubitState(alpha, beta)


class TestEncodingUnitary:
    def test_bitflip3_is_controlled_notnot(self):
        u = encoding_unitary(bitflip3())
        assert np.array_equal(u, controlled_not(3, controls=[1], targets=[2, 3]))

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_orthogonal(self, name):
        code = get_code(name)
        u = encoding_unitary(code)
        assert np.max(np.abs(u @ u.T - np.eye(code.dim))) <= 1e-10

    @pytest.mark.parametrize("name", CODE_NAMES)
    def test_agrees_with_encode_state_on_pinned_inputs(self, name):
        code = get_code(name)
        u = encoding_unitary(code)
        psi = PureQubitState(0.6, -0.8)
        data_register = psi.alpha * basis_vector(code.dim, 0) + psi.beta * basis_vector(
            code.dim, code.dim // 2
        )
        assert np.max(np.abs(u @ data_register - encode_state(code, psi))) <= 1e-12


@pytest.mark.parametrize("which", [0, 1])
def test_code_rejects_nan_in_a_logical_vector(which):
    logical = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    logical[which][1 - which] = np.nan
    with pytest.raises(ValueError, match="unit norm"):
        Code("x", 1, *logical)


def test_code_rejects_a_logical_vector_of_the_wrong_shape():
    with pytest.raises(ValueError, match="must have dimension 2"):
        Code("x", 1, np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0]))


def test_code_rejects_non_orthogonal_logical_vectors():
    with pytest.raises(ValueError, match="must be orthogonal"):
        Code("x", 1, np.array([1.0, 0.0]), np.array([0.6, 0.8]))


def test_get_code_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown code"):
        get_code("steane7")
