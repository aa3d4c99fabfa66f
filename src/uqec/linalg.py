"""Dense real-matrix kernel: orthonormal basis completion by Gram-Schmidt and
the plain-text matrix format.

Everything downstream works with real float64 ndarrays. All operators in this
package are real (the Y convention is the real matrix [[0,-1],[1,0]]), so the
transpose plays the role of the conjugate transpose throughout.
"""

from __future__ import annotations

from pathlib import Path
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
    is nonzero. Two kinds of candidate skip the projections, and the rows
    are the same, bit for bit, as those of the plain loop, which every other
    candidate still runs against the same rows in the same order:

    - e_i with i outside the support is kept as it is. Each inner product
      with e_i is a sum of signed zeros (the rows are finite: `accepted` is
      checked, and the loop never keeps a non-finite row), and subtracting a
      signed zero leaves +0.0 and 1.0 unchanged, so the norm is exactly 1
      and the lead is positive.
    - e_i with i inside the support is dropped once there are as many rows
      as support indices. Orthonormal rows that many span every e_j on the
      support, so the residual after the two passes is of order eps**2,
      far below GS_SKIP_TOL, and the loop would drop it too.

    A projected e_i never widens the support: i is in it, and outside it
    the rows subtracted are zero, which leaves +0.0 there.
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


def orthogonality_deviation(m: np.ndarray) -> float:
    """max |m m^T - I|, computed on the structure of m.

    A unit row e_i (one nonzero entry, equal to 1.0) has norm exactly 1 and
    inner product exactly m[r, i] with every other row r, and two unit rows
    have inner product 1 when they share i and 0 otherwise. So only the
    rows that are not unit rows need a Gram product; the rest of the
    deviation is read off m. A NaN entry makes the result NaN.
    """
    m = np.asarray(m, dtype=float)
    unit = (np.count_nonzero(m, axis=1) == 1) & (m.max(axis=1) == 1.0)
    cols = m.argmax(axis=1)[unit]
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


def gram(b: np.ndarray) -> np.ndarray:
    """b @ b^T for a matrix b, or for each matrix of a stack, by one gemm.

    For `b @ b.T` on one buffer numpy calls syrk, which fills one triangle,
    and then mirrors it with a scalar loop: for a 256 x 2 b that route took
    about 160 us, gemm about 27 us (one OpenBLAS thread). A copy of the
    transpose is a second buffer, so numpy calls gemm. np.ascontiguousarray
    would not do: the transpose of a Fortran-ordered b is already
    C-contiguous, so it returns the same buffer and numpy still calls syrk.

    The two routes give the same bits only at some shapes. On OpenBLAS
    0.3.31 they agreed on every ancilla Gram shape of the three codes (4,
    16 or 256 rows, up to 8, 32 or 56 columns), and differed on random data
    at 2 x 64, at square shapes such as 12 x 12 and 14 x 14, and at 12 x 3
    and 28 x 7. So analysis.check_product_form forms only the ancilla Gram
    here, and tests/test_analysis_properties.py checks each product this
    function forms there against `b @ b.T` byte for byte.
    """
    return b @ np.swapaxes(b, -1, -2).copy()


def format_matrix(m: np.ndarray) -> str:
    """Plain-text matrix format: header "rows cols", then one line per row of
    space-separated entries at 17 significant digits (round-trips exactly)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(format(x, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def write_matrix(path: str | Path, m: np.ndarray) -> None:
    Path(path).write_text(format_matrix(m))
