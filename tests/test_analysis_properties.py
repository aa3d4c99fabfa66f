"""Property test (hypothesis): the trajectory counts of _term_counts equal
those of numpy's rng.choice draw, bit for bit, for any channel, any number of
samples and any seed. Skipped where hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from uqec.analysis import _term_counts

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
