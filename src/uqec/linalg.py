"""Dense real-matrix kernel: Kronecker products, partial traces, permutation
matrices, orthonormal basis completion, and the plain-text matrix format.

Everything downstream works with real float64 ndarrays. All operators in this
package are real (the Y convention is the real matrix [[0,-1],[1,0]]), so the
transpose plays the role of the conjugate transpose throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# Tolerance for declaring a row set / matrix orthonormal.
ORTHONORMAL_TOL = 1e-10
# A Gram-Schmidt candidate whose residual norm falls below this is linearly
# dependent on the accepted rows and gets skipped.
GS_SKIP_TOL = 1e-8


def basis_vector(d: int, i: int) -> np.ndarray:
    """Standard basis column e_i in dimension d."""
    v = np.zeros(d)
    v[i] = 1.0
    return v


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


def is_orthogonal(m: np.ndarray, tol: float = ORTHONORMAL_TOL) -> bool:
    """True when m @ m.T is the identity within tol (max-abs deviation)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.max(np.abs(m @ m.T - np.eye(m.shape[0])))) <= tol


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


def _standard_basis(d: int, reverse: bool = False) -> Iterable[np.ndarray]:
    order = range(d - 1, -1, -1) if reverse else range(d)
    for i in order:
        yield basis_vector(d, i)


def gram_schmidt_extend(
    accepted: np.ndarray,
    candidates: Iterable[np.ndarray],
    count: int,
    skip_tol: float = GS_SKIP_TOL,
) -> np.ndarray:
    """Produce `count` new orthonormal rows from `candidates`, each
    orthogonalized against `accepted` and the rows produced so far.

    Candidates whose residual norm after projection drops below skip_tol are
    dependent and skipped. Kept rows are normalized with a positive leading
    nonzero entry, which makes the completion deterministic.

    A candidate that is exactly a standard basis vector e_i (one entry 1.0,
    every other entry +0.0) whose index lies outside the support of
    `accepted` and of every row kept so far is kept as it is. The
    projections would have done nothing to it: each inner product with e_i
    is a sum of signed zeros (the rows are finite: `accepted` is checked,
    and the loop never keeps a non-finite row), and subtracting a signed
    zero leaves +0.0 and 1.0 unchanged, so the norm is exactly 1 and the
    lead is positive. The rows are therefore the same, bit for bit, as those
    of the plain loop, which every other candidate still runs against the
    same rows in the same order.
    """
    accepted = np.asarray(accepted, dtype=float)
    if not np.isfinite(accepted).all():
        raise ValueError("accepted rows have non-finite entries")
    k, d = accepted.shape
    buf = np.empty((k + count, d))
    buf[:k] = accepted
    support = np.any(accepted != 0, axis=0)
    have = k
    for cand in candidates:
        if have == k + count:
            break
        v = np.asarray(cand, dtype=float)
        nz = np.flatnonzero(v)
        if (
            v.shape == (d,)
            and nz.size == 1
            and v[nz[0]] == 1.0
            and not support[nz[0]]
            and not np.signbit(v).any()
        ):
            buf[have] = v
            support[nz[0]] = True
            have += 1
            continue
        rows = buf[:have]
        v = v - rows.T @ (rows @ v)
        v = v - rows.T @ (rows @ v)  # second pass keeps orthogonality tight
        nrm = np.linalg.norm(v)
        if nrm < skip_tol:
            continue
        v = v / nrm
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        if lead < 0:
            v = -v
        buf[have] = v
        support |= v != 0
        have += 1
    if have < k + count:
        raise ValueError(
            f"candidates exhausted: needed {count} completion rows, found {have - k}"
        )
    return buf[k:]


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
    completion = gram_schmidt_extend(rows, _standard_basis(d), d - k)
    return np.vstack([rows, completion])


def format_matrix(m: np.ndarray) -> str:
    """Plain-text matrix format: header "rows cols", then one line per row of
    space-separated entries at 17 significant digits (round-trips exactly)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
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


def write_matrix(path: str | Path, m: np.ndarray) -> None:
    Path(path).write_text(format_matrix(m))


def read_matrix(path: str | Path) -> np.ndarray:
    return parse_matrix(Path(path).read_text())
