"""Property tests (hypothesis): gram_schmidt_extend gives the same rows, bit
for bit, as the loop that projects every candidate, for orthonormal rows on
any support and standard basis candidates in any order. Skipped where
hypothesis is not installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from uqec.linalg import gram_schmidt_extend

from oracles import gram_schmidt_extend_loop
from test_linalg import assert_same_bits, basis, supported_rows


@st.composite
def completion_problems(draw):
    d = draw(st.integers(1, 64))
    support = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    n_rows = draw(st.integers(0, len(support)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = supported_rows(rng, d, support, n_rows)
    return rows, draw(st.permutations(range(d))), draw(st.integers(0, d - n_rows))


@settings(max_examples=200, deadline=None)
@given(completion_problems())
def test_same_rows_as_the_projecting_loop(problem):
    rows, order, count = problem
    assert_same_bits(
        gram_schmidt_extend(rows, order, count),
        gram_schmidt_extend_loop(rows, basis(len(order), order), count),
    )
