"""Probabilistic Pauli channels on density matrices and the measurement-free
recovery: a single orthogonal matrix whose labeled rows are the transposed
error-shifted codewords.

Applying that matrix to a corrupted codeword density matrix produces an exact
tensor product of the original single-qubit state with a diagnostic ancilla
state, so the data qubit is recovered without any projection or syndrome
measurement. Operators acting identically on the code space (degenerate
errors, e.g. the per-block Z flips of the 9-qubit code) are collapsed into
one error class with a single row pair. Only the math lives here: channels
arrive as ErrorChannel values, which cli builds from user text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .codes import Code, ErrorOperator, get_code, standard_error_set
from .linalg import ORTHONORMAL_TOL, gram_schmidt_extend, orthogonality_deviation, unit_rows

# Operators whose shifted codewords differ by less than this act identically
# on the code space and share an error class.
CLASS_MERGE_TOL = 1e-10


class KLViolationError(ValueError):
    """Shifted codewords of two error classes fail orthonormality, so no
    orthogonal recovery matrix exists for this operator set."""


@dataclass(frozen=True, eq=False)
class ErrorChannel:
    """rho -> sum_i p_i W_i rho W_i^T over signed-permutation operators."""

    terms: tuple[tuple[float, ErrorOperator], ...]

    def __post_init__(self) -> None:
        probs = np.array([p for p, _ in self.terms])
        # Both checks are written so that NaN and inf fail them; a sum that
        # overflows is inf, and fails the second without a warning.
        if not np.all(probs >= 0):
            raise ValueError("channel probabilities must be nonnegative")
        with np.errstate(over="ignore"):
            total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"channel probabilities sum to {total!r}, expected 1")
        dims = {op.dim for _, op in self.terms}
        if len(dims) > 1:
            raise ValueError("channel operators have mixed dimensions")

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for p, _ in self.terms])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(op.label for _, op in self.terms)

    @property
    def dim(self) -> int:
        return self.terms[0][1].dim

    @classmethod
    def from_probs(
        cls, ops: Sequence[ErrorOperator], probs: Sequence[float]
    ) -> "ErrorChannel":
        if len(ops) != len(probs):
            raise ValueError(f"{len(probs)} probabilities for {len(ops)} operators")
        return cls(tuple((float(p), op) for p, op in zip(probs, ops)))


def _shifted_codewords(code: Code, ops: Sequence[ErrorOperator]) -> np.ndarray:
    """Row i is [W_i |0>_L, W_i |1>_L]: both shifted codewords of operator i."""
    return np.array(
        [np.concatenate([op.apply(code.logical0), op.apply(code.logical1)]) for op in ops]
    )


def _group_error_classes(shifts: np.ndarray) -> list[list[int]]:
    """Group operator indices by identical action on both logical vectors:
    each operator joins the first class whose representative's row of
    `shifts` lies within CLASS_MERGE_TOL of its own in every entry."""
    groups: list[list[int]] = []
    for i, row in enumerate(shifts):
        reps = shifts[[grp[0] for grp in groups]]
        hits = np.flatnonzero(np.max(np.abs(reps - row), axis=1) <= CLASS_MERGE_TOL)
        if hits.size:
            groups[hits[0]].append(i)
        else:
            groups.append([i])
    return groups


def _class_label(members: Sequence[str]) -> str:
    if len(members) == 1:
        return members[0]
    return "{" + ",".join(members) + "}"


@dataclass(frozen=True, eq=False)
class KLReport:
    """Orthonormality check of the error-shifted codewords.

    gram_deviation is max |<m|W_i^T W_j|n> - delta_ij delta_mn| over class
    representatives; classes lists every operator-label group with identical
    action on the code space, degenerate_classes only the non-singletons.
    """

    gram_deviation: float
    classes: tuple[tuple[str, ...], ...]
    degenerate_classes: tuple[tuple[str, ...], ...]
    worst_pair: tuple[str, str]

    @property
    def is_nondegenerate(self) -> bool:
        return not self.degenerate_classes and self.gram_deviation <= ORTHONORMAL_TOL


def validate_kl(code: Code, ops: Sequence[ErrorOperator]) -> KLReport:
    """Check the orthonormality condition that makes a recovery matrix exist,
    grouping operators with identical action on the code space first."""
    shifts = _shifted_codewords(code, ops)
    return _kl_report(ops, shifts, _group_error_classes(shifts))


def _kl_report(
    ops: Sequence[ErrorOperator], shifts: np.ndarray, groups: Sequence[Sequence[int]]
) -> KLReport:
    # Gram matrix of the class representatives' shifted codewords, stacked as
    # all logical-0 shifts then all logical-1 shifts.
    reps = shifts[[grp[0] for grp in groups]]
    d = shifts.shape[1] // 2
    stacked = np.vstack([reps[:, :d], reps[:, d:]])
    dev = np.abs(stacked @ stacked.T - np.eye(stacked.shape[0]))
    wi, wj = np.unravel_index(int(dev.argmax()), dev.shape)
    k = len(groups)

    def row_name(r: int) -> str:
        m, c = (1, r - k) if r >= k else (0, r)
        return f"{ops[groups[c][0]].label}|{m}>_L"

    classes = tuple(tuple(ops[i].label for i in grp) for grp in groups)
    return KLReport(
        gram_deviation=float(dev.max()),
        classes=classes,
        degenerate_classes=tuple(c for c in classes if len(c) > 1),
        worst_pair=(row_name(int(wi)), row_name(int(wj))),
    )


@dataclass(frozen=True, eq=False)
class RecoveryMatrix:
    """Orthogonal recovery matrix and the error classes of its rows.

    Row m*2^(n-1) + c is (W_c |m>_L)^T for error class c, so applying the
    matrix maps W_c |psi> to psi (x) e_c with the data qubit in the first
    tensor factor. Rows not pinned by an error class are deterministic
    orthonormal completion rows.
    """

    matrix: np.ndarray = field(repr=False)
    classes: tuple[tuple[str, ...], ...]
    class_map: dict[str, int]
    # max |R R^T - I|, set on construction.
    orthogonality_deviation: float = field(init=False)
    # The row of v each unit row copies (argmax), R's dense rows and a copy.
    _split: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        unit, top = unit_rows(m)
        dev = orthogonality_deviation(m, (unit, top))
        # Written so that a NaN deviation fails it.
        if not dev <= ORTHONORMAL_TOL:
            raise ValueError(f"recovery matrix is not orthogonal (deviation {dev:.3e})")
        m.setflags(write=False)
        dense = np.flatnonzero(~unit)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "orthogonality_deviation", dev)
        object.__setattr__(self, "_split", (top, dense, m[dense]))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """R @ v, bit for bit, for v of shape (d,), (d, k) or (s, d, k), from
        R's dense rows alone (README, "Dense rows of R"). A unit row e_i
        gives v[i] + 0.0: gemm's sum starts at +0.0, so -0.0 comes out +0.0."""
        top, dense, block = self._split
        w = v[:, None] if v.ndim == 1 else v
        d, k = self.dim, w.shape[-1]
        # The full product where nothing is skipped, where it costs less than
        # a gather, and across OpenBLAS's small-kernel line (README).
        if not 0 < dense.size < d or (dense.size * d * k <= 10**6) != (d * d * k <= 10**6):
            return self.matrix @ v
        out = np.take(w, top, axis=-2)
        out += 0.0
        out[..., dense, :] = block @ w
        return out.reshape(v.shape)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def ancilla_dim(self) -> int:
        return self.dim // 2

    @cached_property
    def class_labels(self) -> tuple[str, ...]:
        return tuple(_class_label(c) for c in self.classes)

    def row_label(self, i: int) -> str:
        """Provenance of row i: "m label" for the row of logical value m and
        error class label, "completion (completion)" for a completion row."""
        m, c = divmod(i, self.ancilla_dim)
        if c < len(self.classes):
            return f"{m} {self.class_labels[c]}"
        return "completion (completion)"


def build_recovery(code: Code, ops: Sequence[ErrorOperator]) -> RecoveryMatrix:
    """Stack transposed error-shifted codewords into an orthogonal matrix.

    The logical-0 rows of the error classes go in input order at the top,
    the logical-1 rows at offset 2^(n-1); when the classes do not fill both
    halves the remaining rows come from Gram-Schmidt completion over the
    standard basis. Rejects operator sets whose shifted codewords are not
    orthonormal across classes.
    """
    ops = tuple(ops)
    shifts = _shifted_codewords(code, ops)
    groups = _group_error_classes(shifts)
    report = _kl_report(ops, shifts, groups)
    # Written so that a NaN deviation fails it. It also fails when 2k > d:
    # the 2k x 2k Gram G then has rank at most d, so ||G - I||_2 >= 1 and
    # max |G - I| >= 1/(2k). So the 2k labeled rows below always fit.
    if not report.gram_deviation <= ORTHONORMAL_TOL:
        a, b = report.worst_pair
        raise KLViolationError(
            f"shifted codewords {a} and {b} are not orthonormal "
            f"(deviation {report.gram_deviation:.3e}); "
            "this operator set is not correctable by a single orthogonal matrix"
        )
    d = code.dim
    half = d // 2
    k = len(groups)

    rows = np.zeros((d, d))
    for c, grp in enumerate(groups):
        rows[c] = shifts[grp[0], :d]
        rows[half + c] = shifts[grp[0], d:]
    if k < half:
        pinned = np.vstack([rows[:k], rows[half : half + k]])
        completion = gram_schmidt_extend(pinned, range(d), d - 2 * k)
        free = list(range(k, half)) + list(range(half + k, d))
        rows[free] = completion

    class_map = {ops[i].label: c for c, grp in enumerate(groups) for i in grp}
    return RecoveryMatrix(
        matrix=rows,
        classes=report.classes,
        class_map=class_map,
    )


def recovery_row_order(code: Code) -> tuple[ErrorOperator, ...]:
    """Preset operator order for stacking recovery rows.

    For bitflip3 the X operators are listed in reverse qubit order
    (I, X_3, X_2, X_1), which makes the recovery a product of two permutation
    gates and the output ancilla diagonal read (p0, p3, p2, p1). The larger
    codes use their standard channel order unchanged.
    """
    ops = standard_error_set(code)
    if code.name == "bitflip3":
        return (ops[0], ops[3], ops[2], ops[1])
    return ops


@lru_cache(maxsize=None)
def recovery_for(code_name: str) -> RecoveryMatrix:
    """Cached recovery matrix for a built-in code in its preset row order."""
    code = get_code(code_name)
    return build_recovery(code, recovery_row_order(code))


def recover_pure_state(
    recovery: RecoveryMatrix, channels: Sequence[ErrorChannel], states: np.ndarray
) -> np.ndarray:
    """R (sum_i p_i W_i psi psi^T W_i^T) R^T for each channel of `channels`
    and each pure input psi, one per row of `states`, as the read-only
    (channels x states) x d x k stack of its factors, ordered by channel and
    then by state: entry s is A[s] @ A[s].T with A = R V and
    V = [sqrt(p_i) W_i psi], one column per term with p_i > 0. Every channel
    must have the same number k of such terms. Neither the corrupted state
    nor R rho R^T is formed densely.

    V is one scatter of each channel's own perm, signs and sqrt(p), moved to
    that channel's slice of the stack by one transpose, and A one stacked
    product (RecoveryMatrix.apply), which numpy computes with the same BLAS
    call per entry as for an entry alone.

    The stack is checked once, here. A A^T is positive semidefinite for
    every real A, and numpy computes it exactly symmetric, so only each
    entry's trace (the squared norm of its factor, from one batched
    product) is checked: an eigenvalue test could not fail. A NaN or
    infinite entry makes its trace NaN or infinite, so the same test
    rejects it.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"states must be one vector per row, got shape {states.shape}")
    for channel in channels:
        if not recovery.dim == channel.dim == states.shape[1]:
            raise ValueError(
                f"recovery dimension {recovery.dim}, channel dimension {channel.dim} "
                f"and state dimension {states.shape[1]} differ"
            )
    if not channels:
        raise ValueError("the channel list is empty")
    terms = [[(p, op) for p, op in channel.terms if p > 0] for channel in channels]
    c, k = len(terms), len(terms[0])
    if any(len(t) != k for t in terms):
        raise ValueError("channels of one stack must have the same number of nonzero terms")
    # Every channel's terms side by side, as the terms of one channel.
    terms = [term for t in terms for term in t]
    perms = np.array([op.perm for _, op in terms])
    signs = np.array([op.signs for _, op in terms])
    roots = np.sqrt([p for p, _ in terms])
    # Column j of V[s] is sqrt(p_j) W_j psi_s: W_j carries entry r of psi_s
    # to row perm_j[r] with sign signs_j[r] (ErrorOperator.apply). V is
    # scattered as for one channel of all c k terms; the transpose then moves
    # channel i's k columns to entries i s to i s + s - 1 of the stack.
    s, d = states.shape
    v = np.empty((s, d, c * k))
    v[:, perms, np.arange(c * k)[:, None]] = signs * states[:, None, :] * roots[:, None]
    v = v.reshape(s, d, c, k).transpose(2, 0, 1, 3).reshape(c * s, d, k)
    a = recovery.apply(v)
    flat = a.reshape(c * s, 1, -1)
    for trace in (flat @ flat.transpose(0, 2, 1)).ravel().tolist():
        # Written so that a NaN or inf trace fails it.
        if not abs(trace - 1.0) <= 1e-12:
            if not np.isfinite(a).all():
                raise ValueError("factor has non-finite entries")
            raise ValueError(f"trace is {trace!r}, expected 1")
    a.setflags(write=False)
    return a
