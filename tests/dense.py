"""The dense reference pipeline that the factor-form path is checked against:
full d x d states, the channel by scatter conjugation, R rho R^T by two full
matrix products, partial traces by index contraction. Unlike oracles.py it
builds on the package's codes, recovery matrices and report types."""

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Sequence

import numpy as np

from uqec.analysis import FactorizationResult, run_experiments
from uqec.codes import Code, ErrorOperator, encode_state, get_code, standard_error_set
from uqec.linalg import ORTHONORMAL_TOL, gram, gram_schmidt_extend
from uqec.recovery import ErrorChannel, RecoveryMatrix, recover_pure_state, recovery_for


def kron(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more matrices, left to right."""
    out = np.asarray(ops[0], dtype=float)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=float))
    return out


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of a - b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class QubitSplit:
    """Bipartition of a 2^n-dimensional system into a kept-first factor and
    the remainder, e.g. QubitSplit(2, 4) splits 3 qubits as qubit 1 vs 2,3."""

    dim_first: int
    dim_rest: int

    def __post_init__(self) -> None:
        if self.dim_first < 1 or self.dim_rest < 1:
            raise ValueError("split dimensions must be >= 1")

    @property
    def total(self) -> int:
        return self.dim_first * self.dim_rest


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A read-only density matrix, or a stack of them along a leading axis,
    given densely and validated in full: square, finite, symmetric, trace 1
    and positive semidefinite (eigvalsh)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        if float(np.max(np.abs(m - np.swapaxes(m, -1, -2)))) > 1e-12:
            raise ValueError("density matrix is not symmetric")
        for trace in np.atleast_1d(np.trace(m, axis1=-2, axis2=-1)).tolist():
            if not abs(trace - 1.0) <= 1e-12:
                raise ValueError(f"trace is {trace!r}, expected 1")
        if float(np.min(np.linalg.eigvalsh(m))) < -1e-10:
            raise ValueError("density matrix is not positive semidefinite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def from_state(cls, vec: np.ndarray) -> "DensityMatrix":
        vec = np.asarray(vec, dtype=float)
        return cls(np.outer(vec, vec))


@cache
def operator_matrix(op: ErrorOperator) -> np.ndarray:
    """The dense, read-only 2^n x 2^n matrix of a signed permutation."""
    m = np.zeros((op.dim, op.dim))
    m[op.perm, np.arange(op.dim)] = op.signs
    m.setflags(write=False)
    return m


def conjugate(op: ErrorOperator, rho: np.ndarray) -> np.ndarray:
    """W @ rho @ W.T via index arithmetic: entry (i,j) of rho lands at
    (perm[i], perm[j]) with sign signs[i]*signs[j]."""
    out = np.empty_like(np.asarray(rho, dtype=float))
    out[np.ix_(op.perm, op.perm)] = rho * op.signs[:, None] * op.signs[None, :]
    return out


def apply_channel(channel: ErrorChannel, rho: DensityMatrix) -> DensityMatrix:
    """sum_i p_i W_i rho W_i^T."""
    if channel.dim != rho.dim:
        raise ValueError(f"channel dimension {channel.dim} != state dimension {rho.dim}")
    out = np.zeros_like(rho.matrix)
    for p, op in channel.terms:
        if p:
            out += p * conjugate(op, rho.matrix)
    return DensityMatrix(out)


def apply_recovery(rec: RecoveryMatrix, rho_err: DensityMatrix) -> DensityMatrix:
    """R rho R^T."""
    if rec.dim != rho_err.dim:
        raise ValueError(f"recovery dimension {rec.dim} != state dimension {rho_err.dim}")
    r = rec.matrix
    return DensityMatrix(r @ rho_err.matrix @ r.T)


def recover_block(rec: RecoveryMatrix, channel: ErrorChannel, x: np.ndarray) -> np.ndarray:
    """R (sum_i p_i W_i X X^T W_i^T) R^T for a d x c block X, as a read-only
    stack of one factor, like recover_pure_state's: R [sqrt(p_i) W_i X], c
    columns per term with p_i > 0, each W_i by its perm and signs. X X^T is
    a mixed input or an encoded input with an ancilla state."""
    cols = []
    for p, op in channel.terms:
        if p > 0:
            shifted = np.empty_like(x)
            shifted[op.perm] = op.signs[:, None] * x
            cols.append(np.sqrt(p) * shifted)
    a = (rec.matrix @ np.hstack(cols))[None]
    a.setflags(write=False)
    return a


def recovered_logical(
    rec: RecoveryMatrix, channel: ErrorChannel, code: Code
) -> np.ndarray:
    """R (sum_i p_i W_i M_j W_i^T) R^T for each symmetric logical matrix
    M_0 = |0><0|, M_1 = |1><1|, M_2 = |0><1| + |1><0| (|m> = |m>_L), stacked
    with shape (3, d, d), summed over the terms with p_i > 0.

    Each term is conjugated and multiplied over its support block only. M_j
    is nonzero on the rows and columns S (8 or 16 of 512 for shor9), so
    W_i M_j W_i^T is the block M_j[S, S], its rows and columns signed by W_i,
    at rows and columns perm_i[S] (the scatter of conjugate), and the term
    is C_i X_i C_i^T with C_i = R[:, perm_i[S]] and X_i = p_i times that
    signed block. The sum over i is one product of the stacked C_i.

    The channel and R rho R^T are linear in rho, and
    psi psi^T = alpha^2 M_0 + beta^2 M_1 + alpha beta M_2 for
    psi = alpha|0>_L + beta|1>_L. So the dense recovered state is
    np.tensordot([alpha**2, beta**2, alpha * beta], recovered_logical(...), axes=1).
    """
    zero, one = code.logical0, code.logical1
    terms = [(p, op) for p, op in channel.terms if p > 0]
    probs = np.array([p for p, _ in terms])
    perms = np.array([op.perm for _, op in terms])
    signs = np.array([op.signs for _, op in terms])
    d = code.dim
    out = np.empty((3, d, d))
    for j, (u, v) in enumerate([(zero, zero), (one, one), (zero, one)]):
        support = np.flatnonzero((u != 0) | (v != 0))
        m = np.outer(u[support], v[support])
        if j == 2:
            m = m + m.T
        sign = signs[:, support]
        blocks = probs[:, None, None] * sign[:, :, None] * m * sign[:, None, :]
        cols = rec.matrix[:, perms[:, support]]
        left = np.einsum("dia,iab->dib", cols, blocks)
        np.matmul(left.reshape(d, -1), cols.reshape(d, -1).T, out=out[j])
    return out


def partial_trace(rho: np.ndarray, split: QubitSplit, keep: str = "first") -> np.ndarray:
    """Reduce a joint matrix to one factor of the given bipartition.

    keep="first" returns the dim_first x dim_first reduction (trace over the
    rest); keep="rest" the dim_rest x dim_rest one. The trace is preserved.
    """
    rho = np.asarray(rho, dtype=float)
    d = split.total
    if rho.shape != (d, d):
        raise ValueError(f"matrix is {rho.shape}, split expects {(d, d)}")
    t = rho.reshape(split.dim_first, split.dim_rest, split.dim_first, split.dim_rest)
    if keep == "first":
        return np.einsum("ijkj->ik", t)
    if keep == "rest":
        return np.einsum("ijik->jk", t)
    raise ValueError(f"keep must be 'first' or 'rest', got {keep!r}")


def report_bytes(report) -> tuple:
    """Every number a report carries, as bytes, and its other fields."""
    fact = report.factorization
    numbers = [report.alpha, report.beta, report.fidelity, report.residual,
               report.max_offdiagonal, *(p for _, p in report.syndrome)]
    return (
        report.code, report.channel, report.failed, report.tolerance,
        [label for label, _ in report.syndrome], np.array(numbers).tobytes(),
        fact.reduced_qubit.matrix.tobytes(), fact.reduced_ancilla.matrix.tobytes(),
    )


def full_sigma(block: np.ndarray, rows: np.ndarray, dim: int) -> np.ndarray:
    """The dim x dim ancilla Gram (or a stack of them) from its block on
    `rows`, as analysis.check_product_form returns them: +0.0 off the
    block."""
    sigma = np.zeros(block.shape[:-2] + (dim, dim))
    sigma[..., rows[:, None], rows] = block
    return sigma


def whole_gram_reads(a: np.ndarray, class_labels: Sequence[str]) -> tuple:
    """The ancilla Gram sigma = G G^T of each state of the factor stack `a`,
    formed from all of G = [A_0 A_1] by linalg.gram, with what a report reads
    from it: each state's syndrome (sigma's diagonal, its slots past the
    labels summed as "(outside)") and largest off-diagonal magnitude."""
    s, d, k = a.shape
    rest = d // 2
    sigma = gram(a.reshape(s, 2, rest, k).transpose(0, 2, 1, 3).reshape(s, rest, 2 * k))
    n = len(class_labels)
    syndromes = [
        list(zip(class_labels, diag[:n].tolist()))
        + ([("(outside)", float(diag[n:].sum()))] if rest > n else [])
        for diag in np.diagonal(sigma, axis1=1, axis2=2)
    ]
    off = sigma.reshape(s, -1)[:, 1:].reshape(s, rest - 1, rest + 1)[:, :, :rest]
    return sigma, syndromes, np.abs(off).max(axis=(1, 2), initial=0.0).tolist()


def assert_ancilla_is_the_whole_gram(
    name: str, channel: ErrorChannel, states: Sequence, tol: float
) -> int:
    """Each report of one run_experiments pass has, bit for bit and sign for
    sign, the sigma, syndrome and max_offdiagonal of the whole Gram
    (whole_gram_reads). Returns how many held a block smaller than sigma."""
    code = get_code(name)
    rec = recovery_for(name)
    reports = run_experiments(code, [channel], states, tol)
    a = recover_pure_state(rec, [channel], [encode_state(code, psi) for psi in states])
    sigma, syndromes, max_offs = whole_gram_reads(a, rec.class_labels)
    smaller = 0
    for report, want, syndrome, max_off in zip(reports, sigma, syndromes, max_offs):
        ancilla = report.factorization.reduced_ancilla
        assert ancilla.matrix.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(ancilla.matrix), np.signbit(want))
        assert [lb for lb, _ in report.syndrome] == [lb for lb, _ in syndrome]
        got = np.array([p for _, p in report.syndrome] + [report.max_offdiagonal])
        assert got.tobytes() == np.array([p for _, p in syndrome] + [max_off]).tobytes()
        smaller += ancilla.rows.size < rec.ancilla_dim
    return smaller


def check_product_form_dense(rho_out: DensityMatrix, split: QubitSplit) -> FactorizationResult:
    """analysis.check_product_form on the full matrix: both partial traces are
    taken and validated, and the residual is ||rho_out - q (x) a||_F."""
    if rho_out.dim != split.total:
        raise ValueError(f"state dimension {rho_out.dim} != split total {split.total}")
    qubit = DensityMatrix(partial_trace(rho_out.matrix, split, keep="first"))
    ancilla = DensityMatrix(partial_trace(rho_out.matrix, split, keep="rest"))
    residual = frobenius_distance(rho_out.matrix, np.kron(qubit.matrix, ancilla.matrix))
    return FactorizationResult(reduced_qubit=qubit, reduced_ancilla=ancilla, residual=residual)


def conventional_recovery_bitflip3(rho_err: DensityMatrix) -> DensityMatrix:
    """Projective recovery channel for the 3-qubit code, used as a comparison
    oracle: apply every single bit flip, then project onto the code space
    spanned by |000> and |111>.

    On states reachable from the code space through the bit-flip channel this
    reproduces the encoded state exactly. The flipped copies of the two code
    basis vectors tile the whole space, so the projection preserves trace for
    any unit-trace input.
    """
    if rho_err.dim != 8:
        raise ValueError(f"expected an 8-dimensional state, got {rho_err.dim}")
    ops = standard_error_set(get_code("bitflip3"))
    flipped = sum(conjugate(op, rho_err.matrix) for op in ops)
    p07 = np.zeros((8, 8))
    p07[0, 0] = p07[7, 7] = 1.0
    return DensityMatrix(p07 @ flipped @ p07)


def permutation_matrix(perm: Sequence[int]) -> np.ndarray:
    """Orthogonal 0/1 matrix M with M |j> = |perm[j]>."""
    perm = np.asarray(perm, dtype=int)
    d = perm.shape[0]
    if sorted(perm.tolist()) != list(range(d)):
        raise ValueError("index map is not a bijection of 0..d-1")
    m = np.zeros((d, d))
    m[perm, np.arange(d)] = 1.0
    return m


def transposition(d: int, i: int, j: int) -> np.ndarray:
    """Index map swapping basis vectors i and j, identity elsewhere."""
    perm = np.arange(d)
    perm[i], perm[j] = j, i
    return perm


def block_reversal(d: int, indices: Sequence[int]) -> np.ndarray:
    """Index map reversing the order of the given basis vectors."""
    perm = np.arange(d)
    idx = list(indices)
    for k, i in enumerate(idx):
        perm[i] = idx[len(idx) - 1 - k]
    return perm


def controlled_not(n: int, controls: Sequence[int], targets: Sequence[int]) -> np.ndarray:
    """Permutation matrix of a multi-control, multi-target NOT on n qubits.

    Qubits are numbered 1..n with qubit 1 as the most significant bit of the
    basis index. When every control bit is 1, all target bits flip.
    """
    d = 2 ** n
    perm = np.arange(d)
    control_mask = sum(1 << (n - q) for q in controls)
    target_mask = sum(1 << (n - q) for q in targets)
    for j in range(d):
        if j & control_mask == control_mask:
            perm[j] = j ^ target_mask
    return permutation_matrix(perm)


@dataclass(frozen=True, eq=False)
class PermutationFactorizationCheck:
    ok: bool
    residuals: dict[str, float] = field(repr=False)


def verify_permutation_factorization_3qubit() -> PermutationFactorizationCheck:
    """Check that the 3-qubit recovery matrix built from shifted codewords
    equals both of its two-permutation factorizations, and that the factors
    are the controlled NOT-NOT and doubly-controlled NOT gate matrices."""
    rec = recovery_for("bitflip3")
    p34 = permutation_matrix(transposition(8, 3, 4))
    p4567 = permutation_matrix(block_reversal(8, [4, 5, 6, 7]))
    p37 = permutation_matrix(transposition(8, 3, 7))
    c1x2x3 = controlled_not(3, controls=[1], targets=[2, 3])
    x1c2c3 = controlled_not(3, controls=[2, 3], targets=[1])
    residuals = {
        "rows_vs_p4567_p34": frobenius_distance(rec.matrix, p4567 @ p34),
        "rows_vs_p37_p4567": frobenius_distance(rec.matrix, p37 @ p4567),
        "products_equal": frobenius_distance(p4567 @ p34, p37 @ p4567),
        "p4567_vs_c1x2x3": frobenius_distance(p4567, c1x2x3),
        "p37_vs_x1c2c3": frobenius_distance(p37, x1c2c3),
    }
    return PermutationFactorizationCheck(
        ok=all(r == 0.0 for r in residuals.values()), residuals=residuals
    )


def orthonormal_completion(rows: Sequence[np.ndarray], d: int) -> np.ndarray:
    """Complete the given mutually orthonormal d-vectors to a full orthogonal
    d x d matrix whose first rows are the inputs.

    Missing rows are filled by Gram-Schmidt over the standard basis in index
    order. Raises if the inputs are not already orthonormal, naming the worst
    offending pair and its inner product.
    """
    rows = np.asarray(rows, dtype=float).reshape(-1, d)
    k = rows.shape[0]
    if k > d:
        raise ValueError(f"{k} rows cannot be orthonormal in dimension {d}")
    gram = rows @ rows.T
    dev = np.abs(gram - np.eye(k))
    if k and float(dev.max()) > ORTHONORMAL_TOL:
        i, j = np.unravel_index(int(dev.argmax()), dev.shape)
        raise ValueError(
            f"input rows {i} and {j} are not orthonormal: <r{i}|r{j}> = {gram[i, j]!r}"
        )
    if k == d:
        return rows.copy()
    completion = gram_schmidt_extend(rows, range(d), d - k)
    return np.vstack([rows, completion])


def parse_matrix(text: str) -> np.ndarray:
    """Inverse of linalg.format_matrix."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix text")
    rows, cols = (int(t) for t in lines[0].split())
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} data lines, found {len(lines) - 1}")
    m = np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
    if m.shape != (rows, cols):
        raise ValueError(f"matrix body is {m.shape}, header says {(rows, cols)}")
    return m


def read_matrix(path: str | Path) -> np.ndarray:
    return parse_matrix(Path(path).read_text())
