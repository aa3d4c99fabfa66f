"""Property tests (hypothesis), skipped where hypothesis is not installed:

- the trajectory counts of _term_counts equal those of numpy's rng.choice
  draw, bit for bit, for any channel, any number of samples and any seed;
- a stacked pass of run_experiments gives each state the report, bit for
  bit, that a pass of that state alone gives, on every code, for channels
  with any number of nonzero terms. BLAS results can depend on the shapes
  multiplied, and the verify grid itself has shor9 channels of 1 and 28
  terms only.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from uqec.analysis import DEFAULT_TOL, _term_counts, run_experiments
from uqec.codes import CODE_NAMES, PureQubitState, get_code, standard_error_set
from uqec.recovery import ErrorChannel

from oracles import choice_counts


@st.composite
def channels(draw):
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(k))
    probs[draw(st.lists(st.integers(0, k - 1), max_size=k - 1, unique=True))] = 0.0
    return probs / probs.sum()


@settings(max_examples=100, deadline=None)
@given(channels(), st.integers(1, 200_000), st.integers(0, 2**64 - 1))
def test_same_counts_as_rng_choice(probs, samples, seed):
    counts = _term_counts(probs, samples, np.random.default_rng(seed))
    assert np.array_equal(counts, choice_counts(probs, samples, seed))


@st.composite
def partial_channels(draw):
    """A code, a channel on between 1 and all of its operators, 1 to 6 random
    real input states and a tolerance."""
    name = draw(st.sampled_from(CODE_NAMES))
    ops = standard_error_set(get_code(name))
    k = len(ops)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.choice(k, size=draw(st.integers(1, k)), replace=False)
    probs = np.zeros(k)
    probs[support] = rng.dirichlet(np.ones(len(support)))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=draw(st.integers(1, 6)))
    states = [PureQubitState(float(np.cos(t)), float(np.sin(t))) for t in angles]
    tol = draw(st.sampled_from([DEFAULT_TOL, 0.0]))
    return name, ErrorChannel.from_probs(ops, probs / probs.sum()), states, tol


def report_bytes(report):
    """Every number a report carries, as bytes, and its other fields."""
    fact = report.factorization
    numbers = [report.alpha, report.beta, report.fidelity, report.residual,
               report.max_offdiagonal, *(p for _, p in report.syndrome)]
    return (
        report.code, report.channel, report.failed, report.tolerance,
        [label for label, _ in report.syndrome], np.array(numbers).tobytes(),
        fact.reduced_qubit.matrix.tobytes(), fact.reduced_ancilla.matrix.tobytes(),
    )


@settings(max_examples=30, deadline=None)
@given(partial_channels())
def test_stacked_pass_matches_one_state_passes(case):
    name, channel, states, tol = case
    stacked = run_experiments(name, channel, states, tol)
    assert len(stacked) == len(states)
    for psi, report in zip(states, stacked):
        (alone,) = run_experiments(name, channel, [psi], tol)
        assert report_bytes(report) == report_bytes(alone)
