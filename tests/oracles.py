"""Independent brute-force reference implementations used as test oracles.

Nothing here imports from the package: Kronecker products are computed by
explicit index loops, operator embeddings column by column from the bits of
the basis index, and the corrupted 3-qubit density matrix is written out
entry by entry. These stay deliberately
naive so they cannot share a bug with the fast paths they check.

The output writers the command line used before its fixed templates (a
recursive JSON writer and a CSV writer of one line at a time) are kept here
as references for the bytes the templates must write.
"""

import csv
import io
import math
from json.encoder import encode_basestring_ascii as json_string

import numpy as np

X1Q = np.array([[0.0, 1.0], [1.0, 0.0]])
Y1Q = np.array([[0.0, -1.0], [1.0, 0.0]])
Z1Q = np.array([[1.0, 0.0], [0.0, -1.0]])
I1Q = np.eye(2)


def kron_brute(a, b):
    """Kronecker product by quadruple loop."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb))
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def embed_brute(op, qubit, n):
    """op acting on the given qubit (1..n), identity elsewhere: column j
    holds op[b, c], where c is the qubit's bit in j, in the row that is j
    with that bit set to b. Qubit 1 is the most significant bit."""
    d = 2 ** n
    bit = 1 << (n - qubit)
    out = np.zeros((d, d))
    for j in range(d):
        c = 1 if j & bit else 0
        for b in (0, 1):
            out[(j & ~bit) | (bit if b else 0), j] = op[b, c]
    return out


def pauli_brute(label, n):
    """The dense operator of a label "I" or "<X|Y|Z>_<qubit>" on n qubits."""
    if label == "I":
        return np.eye(2 ** n)
    kind, qubit = label.split("_")
    return embed_brute({"X": X1Q, "Y": Y1Q, "Z": Z1Q}[kind], int(qubit), n)


def bitflip_channel_brute(rho, probs):
    """sum_i p_i X_i rho X_i on 3 qubits with dense matrix products."""
    ops = [np.eye(8)] + [embed_brute(X1Q, q, 3) for q in (1, 2, 3)]
    out = np.zeros((8, 8))
    for p, w in zip(probs, ops):
        out = out + p * (w @ rho @ w.T)
    return out


def bitflip_density_pattern(alpha, beta, probs):
    """The corrupted density matrix of an encoded 3-qubit state, written out
    entry by entry: each bit flip moves the (|000>, |111>) support to a
    distinct index pair, carrying its probability."""
    p0, p1, p2, p3 = probs
    a2, b2, ab = alpha * alpha, beta * beta, alpha * beta
    m = np.zeros((8, 8))
    # intact: support on (0, 7)
    m[0, 0] = p0 * a2
    m[0, 7] = m[7, 0] = p0 * ab
    m[7, 7] = p0 * b2
    # flip on qubit 3: support on (1, 6)
    m[1, 1] = p3 * a2
    m[1, 6] = m[6, 1] = p3 * ab
    m[6, 6] = p3 * b2
    # flip on qubit 2: support on (2, 5)
    m[2, 2] = p2 * a2
    m[2, 5] = m[5, 2] = p2 * ab
    m[5, 5] = p2 * b2
    # flip on qubit 1: support on (4, 3)
    m[4, 4] = p1 * a2
    m[3, 4] = m[4, 3] = p1 * ab
    m[3, 3] = p1 * b2
    return m


def partial_trace_brute(rho, d1, d2, keep_first):
    """Partial trace by explicit double sum over the traced index."""
    if keep_first:
        out = np.zeros((d1, d1))
        for i in range(d1):
            for k in range(d1):
                for j in range(d2):
                    out[i, k] += rho[i * d2 + j, k * d2 + j]
    else:
        out = np.zeros((d2, d2))
        for j in range(d2):
            for k in range(d2):
                for i in range(d1):
                    out[j, k] += rho[i * d2 + j, i * d2 + k]
    return out


def gram_schmidt_extend_loop(accepted, candidates, count, skip_tol=1e-8):
    """Gram-Schmidt completion with no shortcut: every candidate is projected
    twice against all rows kept so far, skipped when its residual norm is
    below skip_tol, normalized, and given a positive leading entry."""
    accepted = np.asarray(accepted, dtype=float)
    k, d = accepted.shape
    buf = np.empty((k + count, d))
    buf[:k] = accepted
    have = k
    for cand in candidates:
        if have == k + count:
            break
        rows = buf[:have]
        v = np.asarray(cand, dtype=float)
        v = v - rows.T @ (rows @ v)
        v = v - rows.T @ (rows @ v)
        nrm = np.linalg.norm(v)
        if nrm < skip_tol:
            continue
        v = v / nrm
        lead = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        if lead < 0:
            v = -v
        buf[have] = v
        have += 1
    if have < k + count:
        raise ValueError("candidates exhausted")
    return buf[k:]


def group_pairs_brute(shift0, shift1, tol):
    """Group indices whose two vectors both match a group's first member
    within tol in every entry, comparing one pair at a time."""
    groups = []
    for i in range(len(shift0)):
        for grp in groups:
            j = grp[0]
            if (
                np.max(np.abs(shift0[i] - shift0[j])) <= tol
                and np.max(np.abs(shift1[i] - shift1[j])) <= tol
            ):
                grp.append(i)
                break
        else:
            groups.append([i])
    return groups


def choice_counts(probs, samples, seed):
    """Draws per term of numpy's own weighted draw, one index per sample."""
    rng = np.random.default_rng(seed)
    drawn = rng.choice(len(probs), size=samples, p=probs)
    return np.bincount(drawn, minlength=len(probs))


def trajectory_frequencies_loop(probs, counts, samples, z_bound):
    """The trajectory frequency statistics one term at a time, in Python
    floats: (frequency, 3-sigma bound, within it) per term, and the family
    verdict (|z| within z_bound, and a certain term at exactly its p)."""
    rows, ok = [], True
    for p, count in zip(probs, counts):
        freq = count / samples
        sd = math.sqrt(p * (1.0 - p) / samples)
        rows.append((freq, 3.0 * sd, abs(freq - p) <= 3.0 * sd))
        if p <= 0.0 or p >= 1.0:
            ok = ok and freq == p
        else:
            ok = ok and abs(freq - p) / sd <= z_bound
    return rows, ok


def conventional_recovery(isometries, V):
    """Projective recovery of rho = V V^T, the comparison for the single
    orthogonal recovery: for each error class c with representative operator
    W_c, B_c = W_c [l0 l1] is an isometry onto that class's syndrome space.
    Projecting onto it and undoing W_c leaves B_c^T rho B_c, so the data
    qubit is the sum of these over the classes and the syndrome probability
    of class c is its trace. `isometries` holds the d x 2 matrices B_c; V is
    d x k, or a stack of them (..., d, k).

    Returns the data qubit (..., 2, 2) and the syndrome (..., classes), in
    the order of `isometries`."""
    qubit = 0.0
    syndrome = []
    for b in isometries:
        x = b.T @ V
        term = x @ np.swapaxes(x, -1, -2)
        qubit = qubit + term
        syndrome.append(np.trace(term, axis1=-2, axis2=-1))
    return qubit, np.stack(syndrome, axis=-1)


def to_json(value):
    """One-line JSON for nested dicts (keys in insertion order), lists,
    tuples, strings, bools, ints and floats. Floats are written at 17
    significant digits and strings as json.dumps writes them."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, str):
        return json_string(value)
    if isinstance(value, dict):
        items = [f"{json_string(k)}: {to_json(v)}" for k, v in value.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join([to_json(v) for v in value]) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    return format(float(value), ".17g")


def report_to_json(report):
    """The JSON line of a verify or demo report."""
    return to_json({
        "code": report.code,
        "channel": [{"label": lb, "p": p} for lb, p in report.channel],
        "alpha": report.alpha,
        "beta": report.beta,
        "fidelity": report.fidelity,
        "residual": report.residual,
        "syndrome": [{"label": lb, "p": p} for lb, p in report.syndrome],
        "passed": report.passed,
        "tolerance": report.tolerance,
    })


def kl_to_json(name, report):
    """The JSON line of one code's kl-check."""
    return to_json({
        "code": name,
        "gram_deviation": report.gram_deviation,
        "classes": report.classes,
        "nondegenerate": report.is_nondegenerate,
    })


def trajectory_to_json(report):
    """The JSON document of a trajectory run."""
    entries = [
        {
            "label": e.label,
            "class": e.class_label,
            "p": e.probability,
            "count": e.count,
            "frequency": e.frequency,
            "bound_3sigma": e.bound_3sigma,
            "within": e.within_bound,
        }
        for e in report.entries
    ]
    return to_json({
        "code": report.code,
        "samples": report.samples,
        "seed": report.seed,
        "entries": entries,
        "max_recovery_error": report.max_recovery_error,
        "passed": report.passed,
    })


def csv_line(fields):
    """One CSV line, written by a csv.writer of its own."""
    buf = io.StringIO()
    csv.writer(buf).writerow(fields)
    return buf.getvalue()


CSV_HEADER = csv_line(
    ["code", "alpha", "beta", "fidelity", "residual", "passed", "tolerance",
     "channel", "syndrome"]
)


def report_csv_line(report):
    """The CSV line of a verify or demo report."""
    return csv_line([
        report.code,
        format(report.alpha, ".17g"),
        format(report.beta, ".17g"),
        format(report.fidelity, ".17g"),
        format(report.residual, ".17g"),
        report.passed,
        format(report.tolerance, ".17g"),
        ";".join(f"{lb}:{format(p, '.17g')}" for lb, p in report.channel),
        ";".join(f"{lb}:{format(p, '.17g')}" for lb, p in report.syndrome),
    ])
