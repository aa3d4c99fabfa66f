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
    candidates: Iterable[np.ndarray],
    count: int,
) -> np.ndarray:
    """Produce `count` new orthonormal rows from `candidates`, each
    orthogonalized against `accepted` and the rows produced so far.

    Candidates whose residual norm after projection drops below GS_SKIP_TOL are
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
        if nrm < GS_SKIP_TOL:
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
