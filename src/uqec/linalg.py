"""Dense real-matrix kernel: orthonormal basis completion by Gram-Schmidt and
the plain-text matrix format.

Everything downstream works with real float64 ndarrays. All operators in this
package are real (the Y convention is the real matrix [[0,-1],[1,0]]), so the
transpose plays the role of the conjugate transpose throughout.
"""

from __future__ import annotations

from typing import Iterable

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


def gram_schmidt_extend(
    accepted: np.ndarray,
    order: Iterable[int],
    count: int,
) -> np.ndarray:
    """Produce `count` new orthonormal rows from the standard basis vectors
    e_i, i taken from `order`, each orthogonalized against `accepted` and the
    rows produced so far. The rows of `accepted` must be orthonormal.

    Candidates whose residual norm after projection drops below GS_SKIP_TOL are
    dependent and skipped. Kept rows are normalized with a positive leading
    nonzero entry, which makes the completion deterministic.

    The support is the set of indices where `accepted` or a row kept so far
    is nonzero. A candidate e_i outside it is kept as it is, and one inside
    it is dropped once there are as many rows as support indices; either way
    the rows are those of the plain projecting loop, bit for bit (README,
    "Cold build", gives the argument).
    """
    accepted = np.asarray(accepted, dtype=float)
    if not np.isfinite(accepted).all():
        raise ValueError("accepted rows have non-finite entries")
    k, d = accepted.shape
    buf = np.empty((k + count, d))
    buf[:k] = accepted
    support = np.any(accepted != 0, axis=0)
    n_support = int(np.count_nonzero(support))
    have = k
    for i in order:
        if have == k + count:
            break
        if not support[i]:
            buf[have] = 0.0
            buf[have, i] = 1.0
            support[i] = True
            n_support += 1
            have += 1
            continue
        if have == n_support:
            continue
        rows = buf[:have]
        v = basis_vector(d, i)
        v = v - rows.T @ (rows @ v)
        v = v - rows.T @ (rows @ v)  # second pass keeps orthogonality tight
        nrm = np.linalg.norm(v)
        if nrm < GS_SKIP_TOL:
            continue
        v = v / nrm
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        if lead < 0:
            v = -v
        buf[have] = v
        have += 1
    if have < k + count:
        raise ValueError(
            f"candidates exhausted: needed {count} completion rows, found {have - k}"
        )
    return buf[k:]


def unit_rows(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mask of m's unit rows e_i (one nonzero entry, equal to 1.0; a NaN
    row is none) and the column of each row's largest entry, i for e_i."""
    return (np.count_nonzero(m, axis=1) == 1) & (m.max(axis=1) == 1.0), m.argmax(axis=1)


def orthogonality_deviation(m: np.ndarray, split: tuple | None = None) -> float:
    """max |m m^T - I|, with a Gram product of the rows that are not unit
    rows alone: the unit rows' part is read off m (README, "Cold build"). A
    NaN entry makes the result NaN. `split` is unit_rows(m), if known.
    """
    m = np.asarray(m, dtype=float)
    unit, top = unit_rows(m) if split is None else split
    cols = top[unit]
    rest = m[~unit]
    dev = np.abs(rest @ rest.T - np.eye(rest.shape[0]))
    # Two unit rows share a column iff the unit rows hit fewer columns than
    # there are unit rows. A scatter, not np.unique or np.sort, whose first
    # calls in a process cost more time or memory than this whole check.
    hit = np.zeros(m.shape[1], dtype=bool)
    hit[cols] = True
    shared = 1.0 if np.count_nonzero(hit) < cols.size else 0.0
    # np.max, unlike the builtin, lets a NaN through whatever its position.
    return float(np.max([dev.max(initial=0.0), np.abs(rest[:, cols]).max(initial=0.0), shared]))


def small_kernel(m: int, n: int, k: int) -> bool:
    """Whether OpenBLAS's dgemm of m x k by k x n takes its small-matrix
    kernel, whose bits differ from the blocked one's (README, "Dense rows of R")."""
    return m * n * k <= 10**6


def gram(b: np.ndarray) -> np.ndarray:
    """b @ b^T for a matrix b, or for each matrix of a stack, by gemm, not
    syrk and its mirror loop (README, "Gram products")."""
    return b @ np.swapaxes(b, -1, -2).copy()


def format_matrix(m: np.ndarray) -> str:
    """Plain-text matrix format: header "rows cols", then one line per row of
    space-separated entries at 17 significant digits (round-trips exactly)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"
