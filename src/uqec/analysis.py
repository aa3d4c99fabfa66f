"""End-to-end verification: does the recovered density matrix factorize as
(original qubit) x (diagnostic ancilla), with the qubit recovered exactly?

The product-form test reconstructs the state from its two partial traces and
measures the Frobenius distance; for states that truly factorize this is
exact, so a small residual certifies the tensor-product claim. Whether a case
passes is decided in one place, run_experiments, against its tolerance.

Each case is computed in factor form (see recovery.recover_pure_state): the
recovered state and both partial traces are Gram products B @ B.T, which are
positive semidefinite by construction. The recovered state itself is never
formed: its residual is taken in the span of the ancilla factor
(check_product_form).

Every stage takes a stack of states along a leading axis, so the channels
of a grid with the same number of nonzero terms, each on every input state,
take one pass, with each state's numbers bit for bit those of a stack of one
(README, "One pass per term count").

The functions here return records (RecoveryReport, TrajectoryReport); every
output format of them is written by the command-line front end (cli).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
from statistics import NormalDist
from typing import Sequence

import numpy as np

from .codes import Code, PureQubitState, encode_state, get_code, standard_error_set
from .linalg import gram, small_kernel
from .recovery import ErrorChannel, recover_pure_state, recovery_for

DEFAULT_TOL = 1e-10

# Family-wise false-failure rate of the trajectory frequency test: with exact
# recovery, a trajectory run fails on sampling noise alone with probability
# at most this, whatever the number of channel terms (Sidak correction).
TRAJECTORY_ALPHA = 1e-3

# Uniforms sorted at a time when counting trajectory draws (_term_counts),
# in one buffer per span whatever --samples (README, "trajectory").
_COUNT_CHUNK = 2**15

# Most threads a trajectory count uses: its memory is one chunk per span.
_MAX_SPANS = 8

# Most factor entries (states x d x k) that one stacked pass of verify_code
# takes. Without a cap the 28-term shor9 channels would run as one stack of
# 55 states, each forming a 256 x 256 Gram (README, "One pass per term
# count").
_STACK_ENTRIES = 2**13

# Input states exercised by the verification grids.
INPUT_STATES = (
    PureQubitState(1.0, 0.0),
    PureQubitState(0.0, 1.0),
    PureQubitState(0.6, 0.8),
    PureQubitState(np.sqrt(0.5), np.sqrt(0.5)),
    PureQubitState(np.sqrt(0.5), -np.sqrt(0.5)),
)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """One state's read-only density matrix."""

    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class FactorizationResult:
    """Both partial traces of one recovered state and its product-form
    residual, as RecoveryReport.factorization forms them on first read."""

    reduced_qubit: DensityMatrix
    reduced_ancilla: DensityMatrix
    residual: float


def check_product_form(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Compare each state A[s] A[s]^T of the factor stack `a` (as
    recover_pure_state returns it) against the product q (x) sigma of its own
    partial traces, q that of the first qubit and sigma that of the rest (the
    ancilla). Returns the read-only stack of q, that of sigma's blocks on
    `rows`, `rows` itself, and each state's residual.

    Each partial trace is a Gram product: q of A.reshape(2, rest * k), sigma
    of G = [A_0 A_1], A_0 and A_1 the first qubit's row blocks. When G is
    thin, with the QR G = Q R the residual is ||S S^T - q (x) R R^T||_F for
    S = [R_0; R_1]: Q has orthonormal columns, so it is the full residual,
    still formed entry by entry. `rows` are then G's rows nonzero in some
    state, off which sigma is +0.0. Otherwise R = G, S = A and `rows` is
    every row (README, "Gram products").
    """
    s, d, k = a.shape
    rest = d // 2
    blocks = a.reshape(s, 2, rest, k)
    g = blocks.transpose(0, 2, 1, 3).reshape(s, rest, 2 * k)
    b = blocks.reshape(s, 2, rest * k)
    q = b @ np.swapaxes(b, -1, -2)
    if 2 * k < rest:
        rows = np.flatnonzero(g.any(axis=(0, 2)))
        # Only on the same side of OpenBLAS's small-kernel line does the block
        # keep the whole product's bits.
        if small_kernel(rows.size, rows.size, 2 * k) == small_kernel(rest, rest, 2 * k):
            sigma = gram(g[:, rows])
        else:
            sigma = gram(g)[:, rows[:, None], rows]
        r = np.linalg.qr(g, mode="r")
        r_gram = r @ r.transpose(0, 2, 1)
    else:
        rows = np.arange(rest)
        r = g
        sigma = r_gram = gram(g)
    m = r.shape[1]
    stacked = r.reshape(s, m, 2, -1).transpose(0, 2, 1, 3).reshape(s, 2 * m, -1)
    diff = stacked @ stacked.transpose(0, 2, 1)
    # Subtract q (x) R R^T in place: entry (a m + b, c m + e) loses
    # q[a, c] (R R^T)[b, e].
    diff.reshape(s, 2, m, 2, m)[...] -= q[:, :, None, :, None] * r_gram[:, None, :, None, :]
    # np.linalg.norm of each state's difference, whose dot stays per state.
    residuals = [math.sqrt(x.dot(x)) for x in diff.reshape(s, -1)]
    for out in (q, sigma, rows):
        out.setflags(write=False)
    return q, sigma, rows, residuals


# The conditions a case must meet, in the order RecoveryReport.failed lists them.
CONDITIONS = ("fidelity", "product_form", "ancilla_diagonal", "syndrome_trace")


@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """One full encode -> channel -> recover -> factorize run, with read-only
    views into its pass's stacks: the reduced qubit q, and the reduced
    ancilla sigma's block on ancilla_rows (sigma is +0.0 off it)."""

    code: str
    channel: tuple[tuple[str, float], ...]
    alpha: float
    beta: float
    fidelity: float
    residual: float
    # Largest |sigma[i, j]|, i != j, of the reduced ancilla sigma.
    max_offdiagonal: float
    syndrome: tuple[tuple[str, float], ...]
    # The CONDITIONS this case missed at its tolerance.
    failed: tuple[str, ...]
    tolerance: float
    qubit: np.ndarray = field(repr=False)
    ancilla: np.ndarray = field(repr=False)
    ancilla_rows: np.ndarray = field(repr=False)

    @property
    def passed(self) -> bool:
        return not self.failed

    @cached_property
    def factorization(self) -> FactorizationResult:
        """q, the whole read-only sigma and the residual, formed on first read
        and kept; sigma is the block itself when ancilla_rows is every row."""
        rows, dim = self.ancilla_rows, recovery_for(self.code).ancilla_dim
        sigma = self.ancilla
        if rows.size < dim:
            sigma = np.zeros((dim, dim))
            sigma[np.ix_(rows, rows)] = self.ancilla
            sigma.setflags(write=False)
        return FactorizationResult(DensityMatrix(self.qubit), DensityMatrix(sigma), self.residual)


def run_experiments(
    code: Code | str,
    channels: Sequence[ErrorChannel],
    states: Sequence[PureQubitState],
    tol: float = DEFAULT_TOL,
) -> list[RecoveryReport]:
    """Encode each psi of `states`, apply each channel of `channels` (all
    with the same number of nonzero terms), apply the recovery matrix, and
    check that each output is (original qubit) x (diagonal ancilla): one
    report per channel and state, ordered by channel and then by state, from
    one pass over the stack of them all.

    This is the one place a case meets tol. It passes when the qubit is
    recovered (fidelity), the state is a product (residual), the ancilla is
    diagonal (largest off-diagonal magnitude) and the syndrome sums to 1;
    `failed` names each of these conditions whose comparison is false, so a
    NaN value fails its condition. A failed case still reports its ancilla
    diagonal as the syndrome."""
    code = get_code(code) if isinstance(code, str) else code
    rec = recovery_for(code.name)
    encoded = np.array([encode_state(code, psi) for psi in states])
    a = recover_pure_state(rec, channels, encoded)
    q, sigma, rows, residuals = check_product_form(a)
    # <psi| q |psi> of each case against its pure input.
    v = np.array([(psi.alpha, psi.beta) for psi in states] * len(channels))
    fids = (v[:, None, :] @ q @ v[:, :, None]).reshape(-1).tolist()
    s, n = sigma.shape[:2]
    # sigma's whole diagonal, so that "(outside)" sums every slot.
    diagonals = np.zeros((s, rec.ancilla_dim))
    diagonals[:, rows] = np.diagonal(sigma, axis1=1, axis2=2)
    # One syndrome row per case: each class slot, then "(outside)", the mass
    # of the completion slots. Off-diagonal mass is weighed below, not read.
    labels, k = rec.class_labels, len(rec.class_labels)
    syndromes = diagonals[:, :k]
    if rec.ancilla_dim > k:
        labels += ("(outside)",)
        syndromes = np.column_stack([syndromes, diagonals[:, k:].sum(axis=1)])
    # Past the first entry of each flattened block, every run of n + 1
    # entries ends on a diagonal one, so this view holds exactly the
    # off-diagonal; sigma is +0.0 off the block.
    off = sigma.reshape(s, -1)[:, 1:].reshape(s, n - 1, n + 1)[:, :, :n]
    max_offs = np.abs(off).max(axis=(1, 2), initial=0.0).tolist()
    # Each syndrome summed left to right, as the builtin sum does only before
    # Python 3.12 (it compensates from 3.12 on).
    totals = np.cumsum(syndromes, axis=1)[:, -1].tolist()
    values = syndromes.tolist()
    reports = []
    for c, channel in enumerate(channels):
        # One tuple per channel, shared by its reports.
        terms = tuple((op.label, float(p)) for p, op in channel.terms)
        for j, psi in enumerate(states):
            i = c * len(states) + j
            met = (
                fids[i] >= 1.0 - tol,
                residuals[i] <= tol,
                max_offs[i] <= tol,
                abs(totals[i] - 1.0) <= tol,
            )
            reports.append(RecoveryReport(
                code=code.name,
                channel=terms,
                alpha=psi.alpha,
                beta=psi.beta,
                fidelity=fids[i],
                residual=residuals[i],
                max_offdiagonal=max_offs[i],
                syndrome=tuple(zip(labels, values[i])),
                failed=tuple(cond for cond, ok in zip(CONDITIONS, met) if not ok),
                tolerance=tol,
                qubit=q[i],
                ancilla=sigma[i],
                ancilla_rows=rows,
            ))
    return reports


def run_experiment(
    code: Code | str,
    channel: ErrorChannel,
    psi: PureQubitState,
    tol: float = DEFAULT_TOL,
) -> RecoveryReport:
    """run_experiments for the single channel and input psi."""
    return run_experiments(code, [channel], (psi,), tol)[0]


# --- verification grids -----------------------------------------------------

def simplex_grid(k: int) -> list[np.ndarray]:
    """All length-k probability vectors whose entries are multiples of 0.25,
    the first k - 1 entries in lexicographic order."""
    return [
        np.array([*head, 4 - sum(head)], dtype=float) * 0.25
        for head in itertools.product(range(5), repeat=k - 1)
        if sum(head) <= 4
    ]


def verification_probability_vectors(k: int, seed: int = 42) -> list[np.ndarray]:
    """Probability vectors driving the verification grid: the full 0.25-step
    simplex grid when k <= 4, otherwise all single-operator vectors plus the
    uniform one (channel and recovery are linear in the probabilities, so
    vertices plus interior points pin the general case); always followed by
    10 seeded random vectors."""
    if k <= 4:
        vectors = simplex_grid(k)
    else:
        vectors = [np.eye(k)[i] for i in range(k)]
        vectors.append(np.full(k, 1.0 / k))
    rng = np.random.default_rng(seed)
    vectors.extend(rng.dirichlet(np.ones(k)) for _ in range(10))
    return vectors


def verify_code(
    code: Code | str, tol: float = DEFAULT_TOL, seed: int = 42
) -> list[RecoveryReport]:
    """Run the full grid of channels and input states for one code and
    return its reports in grid order: by channel, then by input state.

    The channels with the same number of nonzero terms run as stacks of up
    to _STACK_ENTRIES factor entries, one run_experiments pass each."""
    code = get_code(code) if isinstance(code, str) else code
    ops = standard_error_set(code)
    channels = [
        ErrorChannel.from_probs(ops, probs)
        for probs in verification_probability_vectors(len(ops), seed=seed)
    ]
    by_terms: dict[int, list[int]] = {}
    for i, channel in enumerate(channels):
        by_terms.setdefault(sum(p > 0 for p, _ in channel.terms), []).append(i)
    n = len(INPUT_STATES)
    reports: list = [None] * (len(channels) * n)
    for k, members in by_terms.items():
        # A channel is never split: one whose factors alone pass the cap
        # runs alone.
        size = max(1, _STACK_ENTRIES // (n * code.dim * k))
        for lo in range(0, len(members), size):
            stack = members[lo : lo + size]
            stacked = run_experiments(code, [channels[i] for i in stack], INPUT_STATES, tol)
            for j, i in enumerate(stack):
                reports[i * n : (i + 1) * n] = stacked[j * n : (j + 1) * n]
    return reports


# --- trajectory cross-check -------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrajectoryEntry:
    label: str
    class_label: str
    probability: float
    count: int
    frequency: float
    bound_3sigma: float
    within_bound: bool


@dataclass(frozen=True, eq=False)
class TrajectoryReport:
    code: str
    samples: int
    seed: int
    entries: tuple[TrajectoryEntry, ...]
    max_recovery_error: float
    passed: bool


def trajectory_statistics(
    code: Code | str,
    channel: ErrorChannel,
    psi: PureQubitState,
    samples: int = 100_000,
    seed: int = 42,
    tol: float = DEFAULT_TOL,
) -> TrajectoryReport:
    """Monte Carlo cross-check of the density-matrix pipeline at state-vector
    level: draw channel terms, recover each corrupted vector with the
    recovery matrix, classify the ancilla register, and compare empirical
    frequencies against the channel probabilities.

    Each entry reports its own 3-sigma binomial bound, and whether its count
    is within it, |count - n p| <= 3 sqrt(n p (1 - p)). The verdict tests all
    terms as one family at TRAJECTORY_ALPHA: each term's |z| = |count - n p|
    / sqrt(n p (1 - p)), tested in counts too, must lie within the Sidak
    per-term bound, so a term of probability 0 or 1 needs exactly n p draws.
    Both take p clipped to [0, 1], which ErrorChannel's sum rule lets a
    certain term pass by a rounding step.

    The channel term drawn determines the corrupted vector completely, so the
    recovery is computed once per drawn term and shared by its samples.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    code = get_code(code) if isinstance(code, str) else code
    rec = recovery_for(code.name)
    rec.check_channel(channel)
    encoded = encode_state(code, psi)
    probs = channel.probabilities
    counts = _term_counts(probs, samples, seed)
    p = np.clip(probs, 0.0, 1.0)
    freqs = counts / samples
    bounds = 3.0 * np.sqrt(p * (1.0 - p) / samples)
    mean = samples * p
    off = np.abs(counts - mean)
    sd = np.sqrt(mean * (1.0 - p))
    frequencies_ok = (off <= _sidak_z_bound(len(p)) * sd).all()
    entries = []
    worst = 0.0
    for (prob, op), count, freq, bound, inside in zip(
        channel.terms, counts.tolist(), freqs.tolist(), bounds.tolist(),
        (off <= 3.0 * sd).tolist(),
    ):
        c = rec.class_map[op.label]
        if count > 0:
            target = np.zeros(rec.dim)
            target[c] = psi.alpha
            target[rec.ancilla_dim + c] = psi.beta
            worst = max(worst, float(np.linalg.norm(rec.apply(op.apply(encoded)) - target)))
        entries.append(
            TrajectoryEntry(
                label=op.label,
                class_label=rec.class_labels[c],
                probability=prob,
                count=count,
                frequency=freq,
                bound_3sigma=bound,
                within_bound=inside,
            )
        )
    return TrajectoryReport(
        code=code.name,
        samples=samples,
        seed=seed,
        entries=tuple(entries),
        max_recovery_error=worst,
        passed=bool(frequencies_ok) and worst <= tol,
    )


def _term_counts(probs: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """How many of `samples` draws land on each term: the counts of numpy's
    default_rng(seed).choice(len(probs), size=samples, p=probs), bit for
    bit, in memory that does not grow with `samples`.

    The draw is cut into contiguous spans of whole chunks, each counted on
    its own thread from default_rng(seed)'s PCG64 advanced to the span's
    first draw, which gives exactly that span's uniforms (README,
    "trajectory"). A span whose thread cannot start is counted on the
    calling thread. A span that raises is raised here once every span has
    ended.
    """
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    chunks = -(-samples // _COUNT_CHUNK)
    spans = _span_count(chunks)
    results: list = [None] * spans

    def count(w: int) -> None:
        lo = chunks * w // spans * _COUNT_CHUNK
        hi = min(chunks * (w + 1) // spans * _COUNT_CHUNK, samples)
        try:
            results[w] = _count_span(cdf, np.random.PCG64(seed).advance(lo), hi - lo)
        except BaseException as exc:  # re-raised below, after every join
            results[w] = exc

    threads, here = [], [0]
    try:
        for w in range(1, spans):
            thread = threading.Thread(target=count, args=(w,))
            try:
                thread.start()
                threads.append(thread)
            except RuntimeError:  # no thread to be had: count the span here
                here.append(w)
        for w in here:
            count(w)
    finally:
        for thread in threads:
            thread.join()
    for result in results:
        if isinstance(result, BaseException):
            raise result
    return np.diff(sum(results), prepend=0)


def _span_count(chunks: int) -> int:
    """Spans to count a draw of `chunks` chunks in: one per CPU this process
    may run on, at most one per chunk and at most _MAX_SPANS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(cpus, chunks, _MAX_SPANS)


def _count_span(cdf: np.ndarray, bitgen: np.random.BitGenerator, n: int) -> np.ndarray:
    """#{u < cdf_j} for each j over the next n uniforms that Generator.random
    draws from `bitgen`, a chunk at a time in one reused buffer."""
    draw = np.random.Generator(bitgen).random
    at_or_below = np.zeros(len(cdf), dtype=np.int64)
    buffer = np.empty(min(_COUNT_CHUNK, n))
    for lo in range(0, n, _COUNT_CHUNK):
        chunk = buffer[: min(_COUNT_CHUNK, n - lo)]
        draw(out=chunk)
        chunk.sort()
        at_or_below += np.searchsorted(chunk, cdf, side="left")
    return at_or_below


def _sidak_z_bound(terms: int) -> float:
    """Two-sided per-term z bound that keeps the family-wise false-failure
    rate of `terms` independent z tests at TRAJECTORY_ALPHA."""
    per_term = 1.0 - (1.0 - TRAJECTORY_ALPHA) ** (1.0 / terms)
    return NormalDist().inv_cdf(1.0 - per_term / 2.0)
