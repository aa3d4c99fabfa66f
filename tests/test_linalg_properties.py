"""Property tests (hypothesis): gram_schmidt_extend gives the same rows, bit
for bit, as the loop that projects every candidate, for orthonormal rows on
any support and candidates in any order. Skipped where hypothesis is not
installed."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from uqec.linalg import basis_vector, gram_schmidt_extend

from oracles import gram_schmidt_extend_loop
from test_linalg import assert_same_bits, basis, supported_rows


@st.composite
def completion_problems(draw):
    d = draw(st.integers(1, 64))
    support = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True))
    n_rows = draw(st.integers(0, len(support)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = supported_rows(rng, d, support, n_rows)
    cands = basis(d, draw(st.permutations(range(d))))
    extra = st.one_of(
        st.builds(lambda i, s: s * basis_vector(d, i), st.integers(0, d - 1),
                  st.sampled_from([2.0, -1.0, 0.5])),
        st.builds(lambda s: rng.normal(size=d) * s, st.floats(0.1, 10.0)),
    )
    for v in draw(st.lists(extra, max_size=4)):
        cands.insert(draw(st.integers(0, len(cands))), v)
    return rows, cands, d - n_rows


@settings(max_examples=200, deadline=None)
@given(completion_problems())
def test_same_rows_as_the_projecting_loop(problem):
    rows, cands, count = problem
    assert_same_bits(
        gram_schmidt_extend(rows, cands, count),
        gram_schmidt_extend_loop(rows, cands, count),
    )
