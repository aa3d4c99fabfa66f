"""Property tests (hypothesis), skipped where hypothesis is not installed:

- the trajectory counts of _term_counts equal those of numpy's rng.choice
  draw, bit for bit, for any channel, any number of samples, any seed and
  any number of spans;
- a stacked pass of run_experiments gives each state the report, bit for
  bit, that a pass of that state alone gives, on every code, for channels
  with any number of nonzero terms. BLAS results can depend on the shapes
  multiplied, and the verify grid itself has shor9 channels of 1 and 28
  terms only;
- so does a stack of several channels with the same number of nonzero
  terms on other supports, as verify_code runs them: each report is that of
  its channel and state alone, though the stack's nonzero rows of G are the
  union over its channels;
- R @ V, which recover_pure_state and trajectory_statistics take from R's
  dense rows alone (RecoveryMatrix.apply), is byte for byte the full
  product `rec.matrix @ V` at every term count of every code, for stacks of
  1 and 5 states and for single vectors, and a -0.0 of V comes out +0.0
  through a unit row, as gemm makes it. BLAS bits depend on the shapes
  multiplied, so on a BLAS where the dense block's product parts from the
  full one at some term count, this fails;
- the ancilla Gram that check_product_form forms with linalg.gram (one
  gemm) is, in each report, byte for byte numpy's `b @ b.T` (syrk) of the
  whole G, the route it replaced, and exactly symmetric, and each residual
  is the one that syrk Grams give. gemm and syrk agree only at some
  shapes, so on a BLAS where they part at these, this fails;
- sigma, which check_product_form forms on G's nonzero rows alone when G
  is thin, reads as the whole Gram: each report's sigma (formed on read),
  syndrome and max_offdiagonal are, bit for bit and sign for sign, those
  that the whole G G^T gives. gemm's bits depend on the shapes multiplied,
  so on a BLAS where the block's product parts from the whole one, this
  fails;
- a mixed input rho_0 = F F^T, pushed through the factor path with two
  columns per channel term, recovers as the dense pipeline does;
- malformed command lines end with exit 0, 1 or 2, never a traceback, and
  exit 2 prints exactly one `error:` line;
- the command line's JSON template and CSV document write the bytes of the
  recursive JSON writer and the one-line CSV writer in tests/oracles.py.
"""

import contextlib
import io
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from uqec import analysis, cli
from uqec.analysis import DEFAULT_TOL, _term_counts, check_product_form, run_experiments
from uqec.cli import main
from uqec.codes import CODE_NAMES, PureQubitState, encode_state, get_code, standard_error_set
from uqec.linalg import gram
from uqec.recovery import ErrorChannel, recover_pure_state, recovery_for

import dense
import oracles
from dense import report_bytes
from oracles import choice_counts


@st.composite
def channels(draw):
    k = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = rng.dirichlet(np.ones(k))
    probs[draw(st.lists(st.integers(0, k - 1), max_size=k - 1, unique=True))] = 0.0
    return probs / probs.sum()


@settings(max_examples=100, deadline=None)
@given(channels(), st.integers(1, 200_000), st.integers(0, 2**64 - 1), st.integers(1, 8))
def test_same_counts_as_rng_choice(probs, samples, seed, spans):
    with mock.patch.object(analysis, "_span_count", lambda chunks: spans):
        counts = _term_counts(probs, samples, seed)
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


@settings(max_examples=30, deadline=None)
@given(partial_channels())
def test_stacked_pass_matches_one_state_passes(case):
    name, channel, states, tol = case
    stacked = run_experiments(name, [channel], states, tol)
    assert len(stacked) == len(states)
    for psi, report in zip(states, stacked):
        (alone,) = run_experiments(name, [channel], [psi], tol)
        assert report_bytes(report) == report_bytes(alone)


@st.composite
def mixed_stacks(draw):
    """A code, 2 to 4 channels on the same number of its operators (each on
    its own random support, with its own weights), 1 to 5 random real input
    states and a tolerance: a stack as verify_code groups it."""
    name = draw(st.sampled_from(CODE_NAMES))
    ops = standard_error_set(get_code(name))
    k = draw(st.integers(1, len(ops)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = []
    for _ in range(draw(st.integers(2, 4))):
        probs = np.zeros(len(ops))
        probs[rng.choice(len(ops), size=k, replace=False)] = rng.dirichlet(np.ones(k))
        channels.append(ErrorChannel.from_probs(ops, probs / probs.sum()))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=draw(st.integers(1, 5)))
    states = [PureQubitState(float(np.cos(t)), float(np.sin(t))) for t in angles]
    return name, channels, states, draw(st.sampled_from([DEFAULT_TOL, 0.0]))


@settings(max_examples=30, deadline=None)
@given(mixed_stacks())
def test_mixed_stack_matches_one_channel_one_state_passes(case):
    name, channels, states, tol = case
    stacked = run_experiments(name, channels, states, tol)
    assert len(stacked) == len(channels) * len(states)
    pairs = [(channel, psi) for channel in channels for psi in states]
    for (channel, psi), report in zip(pairs, stacked):
        (alone,) = run_experiments(name, [channel], [psi], tol)
        assert report_bytes(report) == report_bytes(alone)


@settings(max_examples=30, deadline=None)
@given(partial_channels())
def test_report_writers_write_the_old_writers_bytes(case):
    name, channel, states, tol = case
    reports = run_experiments(name, [channel], states, tol)
    assert [cli._report_json(r) for r in reports] == list(map(oracles.report_to_json, reports))
    assert cli._csv_document([cli._report_csv_row(r) for r in reports]) == (
        oracles.CSV_HEADER + "".join(map(oracles.report_csv_line, reports))
    )


def assert_full_r_product(name, channel, states):
    """The factor A = R V of a stacked pass is, state by state, the product
    of the whole R that tests/dense.py forms, and RecoveryMatrix.apply of
    each vector W_i psi of the first state, as trajectory_statistics takes
    it, is `rec.matrix @ W_i psi`, byte for byte."""
    code = get_code(name)
    rec = recovery_for(name)
    encoded = np.array([encode_state(code, psi) for psi in states])
    factor = recover_pure_state(rec, [channel], encoded)
    for a, x in zip(factor, encoded):
        assert a.tobytes() == dense.recover_block(rec, channel, x[:, None])[0].tobytes()
    for p, op in channel.terms:
        if p > 0:
            w = op.apply(encoded[0])
            assert rec.apply(w).tobytes() == (rec.matrix @ w).tobytes()


@pytest.mark.parametrize("name", CODE_NAMES)
def test_dense_row_product_is_the_full_product_at_every_term_count(name):
    ops = standard_error_set(get_code(name))
    rng = np.random.default_rng(16)
    for k in range(1, len(ops) + 1):
        for s in (1, 5):
            probs = np.zeros(len(ops))
            probs[rng.choice(len(ops), size=k, replace=False)] = rng.dirichlet(np.ones(k))
            angles = rng.uniform(0.0, 2.0 * np.pi, size=s)
            states = [PureQubitState(float(np.cos(t)), float(np.sin(t))) for t in angles]
            assert_full_r_product(name, ErrorChannel.from_probs(ops, probs / probs.sum()), states)


@settings(max_examples=30, deadline=None)
@given(partial_channels())
def test_dense_row_product_is_the_full_product(case):
    name, channel, states, _ = case
    assert_full_r_product(name, channel, states)


@pytest.mark.parametrize("name", CODE_NAMES)
@pytest.mark.parametrize("shape", [("d",), ("d", 3), (2, "d", 3), (5, "d", 28)])
def test_negative_zero_through_a_unit_row_comes_out_positive(name, shape):
    rec = recovery_for(name)
    v = np.full([rec.dim if n == "d" else n for n in shape], -0.0)
    out = rec.apply(v)
    assert out.tobytes() == (rec.matrix @ v).tobytes()
    assert not np.signbit(out).any()


def _gram_syrk(b):
    """numpy's own route for b @ b^T: one buffer on both sides, so syrk."""
    return b @ np.swapaxes(b, -1, -2)


@settings(max_examples=30, deadline=None)
@given(partial_channels())
def test_gram_products_are_those_of_numpys_syrk_route(case):
    name, channel, states, tol = case
    formed = []

    def recording_gram(b):
        out = gram(b)
        formed.append((b, out.copy()))
        return out

    with mock.patch.object(analysis, "gram", recording_gram):
        reports = run_experiments(name, [channel], states, tol)
    code = get_code(name)
    rest = code.dim // 2
    factors = recover_pure_state(
        recovery_for(name), [channel], [encode_state(code, psi) for psi in states]
    )
    # One gemm per pass, the ancilla Gram. Of all of G it is syrk's bit for
    # bit. Of G's nonzero rows alone it need not be, at every block shape;
    # the report's sigma below still is.
    assert len(formed) == 1
    for b, out in formed:
        if b.shape[1] == rest:
            assert out.tobytes() == _gram_syrk(b).tobytes()
        else:
            g = factors.reshape(len(states), 2, rest, -1).transpose(0, 2, 1, 3)
            assert b.tobytes() == g[:, g.any(axis=(0, 2, 3))].tobytes()
    for report, a in zip(reports, factors):
        q = report.factorization.reduced_qubit.matrix
        sigma = report.factorization.reduced_ancilla.matrix
        # The first qubit's factor and the ancilla's, G = [A_0 A_1].
        g = a.reshape(2, rest, -1).transpose(1, 0, 2).reshape(rest, -1)
        assert q.tobytes() == _gram_syrk(a.reshape(2, -1)).tobytes()
        assert sigma.tobytes() == _gram_syrk(g).tobytes()
        # recover_pure_state skips the eigenvalue test because B B^T is
        # exactly symmetric; with gemm that must still hold bit for bit.
        assert sigma.tobytes() == np.ascontiguousarray(sigma.T).tobytes()
        # The residual from R_G R_G^T and S S^T by syrk, as before the gemm.
        r = np.linalg.qr(g, mode="r") if g.shape[1] < rest else g
        m = r.shape[0]
        s = r.reshape(m, 2, -1).transpose(1, 0, 2).reshape(2 * m, -1)
        diff = _gram_syrk(s) - np.kron(q, _gram_syrk(r))
        assert report.residual == math.sqrt(diff.ravel().dot(diff.ravel()))


@settings(max_examples=30, deadline=None)
@given(partial_channels())
def test_ancilla_reads_as_the_whole_gram(case):
    dense.assert_ancilla_is_the_whole_gram(*case)


@st.composite
def mixed_inputs(draw, name):
    """A channel on 1 to all of the code's operators and a real mixed
    single-qubit state rho_0 = F F^T of trace 1, as its 2 x 2 factor F."""
    ops = standard_error_set(get_code(name))
    k = len(ops)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.choice(k, size=draw(st.integers(1, k)), replace=False)
    probs = np.zeros(k)
    probs[support] = rng.dirichlet(np.ones(len(support)))
    f = rng.standard_normal((2, 2))
    return ErrorChannel.from_probs(ops, probs / probs.sum()), f / np.linalg.norm(f)


@pytest.mark.parametrize("name", CODE_NAMES)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_mixed_input_matches_dense_oracle(name, data):
    channel, f = data.draw(mixed_inputs(name))
    code = get_code(name)
    rec = recovery_for(name)
    logical_f = np.column_stack([code.logical0, code.logical1]) @ f
    qubit, block, rows, (residual,) = check_product_form(dense.recover_block(rec, channel, logical_f))
    ancilla = dense.full_sigma(block, rows, code.dim // 2)

    rho_in = logical_f @ logical_f.T
    rho_err = sum(p * dense.conjugate(op, rho_in) for p, op in channel.terms if p > 0)
    rho_out = rec.matrix @ rho_err @ rec.matrix.T
    split = dense.QubitSplit(2, code.dim // 2)
    want_q = dense.partial_trace(rho_out, split, keep="first")
    want_a = dense.partial_trace(rho_out, split, keep="rest")
    want_residual = dense.frobenius_distance(rho_out, np.kron(want_q, want_a))
    assert np.max(np.abs(qubit[0] - want_q)) <= 1e-14
    assert np.max(np.abs(ancilla[0] - want_a)) <= 1e-14
    assert abs(residual - want_residual) <= 1e-14
    # The claim itself: the data qubit is rho_0 and the state a product.
    assert np.max(np.abs(qubit[0] - f @ f.T)) <= 1e-14
    assert residual <= 1e-14


# Values that break a command line: bad numbers, bad paths, bad channels.
_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "1", "0.6", "1e400", "-1e-400", "abc", "",
            "1_0", "0x10", "99999999999999999999999", "٣"]
_PROBS = [",", "", "1,0,0,0", "0.7,0.1,0.1,0.1", "nan,1,0,0", "1e308,1e308,0,0",
          "0.5,0.5", "1;0;0;0", "-1,2,0,0", "1,0,0,0,0", "1," + "0," * 26 + "0"]
_CODES = ["bitflip3", "divincenzo5", "shor9", "all", "nosuch", ""]
_CHANNEL_FILES = {
    "unknown_label": "Q 1\n",
    "nan": "I nan\n",
    "duplicate": "X_1 0.5\nX_1 0.5\n",
    "no_probability": "I\n",
    "three_fields": "I 1 2\n",
    "empty": "",
    "bad_sum": "I 0.5\nX_1 0.4\n",
    "valid": "I 0.7\nX_1 0.3\n",
}
# The options each command takes, and what a value of each is drawn from.
_OPTIONS = {
    "verify": ("--code", "--tol", "--seed", "--output", "--format"),
    "demo": ("--code", "--tol", "--output", "--format", "--channel-file", "--probs",
             "--alpha", "--beta"),
    "kl-check": ("--code", "--output", "--format"),
    "dump": ("--code", "--output"),
    "trajectory": ("--code", "--tol", "--seed", "--output", "--format", "--channel-file",
                   "--probs", "--alpha", "--beta", "--samples"),
}


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Files and directories for --output and --channel-file."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = {}
    for key, text in _CHANNEL_FILES.items():
        paths[key] = root / f"{key}.txt"
        paths[key].write_text(text)
    paths["not_utf8"] = root / "not_utf8.txt"
    paths["not_utf8"].write_bytes(b"I \xff\xfe 1\n")
    paths["directory"] = root / "a_directory"
    paths["directory"].mkdir()
    paths["missing"] = root / "missing" / "file.txt"
    paths["out"] = root / "out.txt"
    paths["dump"] = root / "dump"
    return {key: str(path) for key, path in paths.items()}


def _value(draw, paths, command, option):
    """A value for one option, well formed or not."""
    if option == "--code":
        # The shor9 grid and the shor9 dump take seconds; the others do not.
        big = command in ("verify", "dump")
        return draw(st.sampled_from([c for c in _CODES if not (big and c in ("shor9", "all"))]))
    if option in ("--tol", "--alpha", "--beta"):
        return draw(st.sampled_from(_NUMBERS))
    if option in ("--seed", "--samples"):
        return draw(st.sampled_from(["-1", "0", "1", "50", "abc", "1.5", "",
                                     str(2**53 + 1), "9" * 23]))
    if option == "--probs":
        return draw(st.sampled_from(_PROBS))
    if option == "--channel-file":
        return paths[draw(st.sampled_from(sorted(set(paths) - {"out", "dump"})))]
    if option == "--output":
        return paths[draw(st.sampled_from(["out", "directory", "missing", "valid"]))]
    return draw(st.sampled_from(["json", "csv", "table", "xml", ""]))


# A well-formed start for each command, which drawn options then override
# (argparse keeps the last value). verify's default code is "all" and
# dump's default output the working directory, so both are set here; the
# divincenzo5 grid is the fastest.
_STARTS = {
    "verify": ["--code", "divincenzo5"],
    "demo": ["--code", "bitflip3", "--alpha", "0.6", "--beta", "0.8"],
    "kl-check": ["--code", "bitflip3"],
    "dump": ["--code", "bitflip3", "--output", "{dump}"],
    "trajectory": ["--code", "bitflip3", "--samples", "1000"],
}


@st.composite
def command_lines(draw, paths):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command] + [a.format(**paths) for a in _STARTS[command]]
    if command in ("demo", "trajectory"):
        source = draw(st.sampled_from(["--probs", "--channel-file"]))
        argv += [source, _value(draw, paths, command, source)]
    for option in draw(st.lists(st.sampled_from(_OPTIONS[command]), max_size=3)):
        argv += [option, _value(draw, paths, command, option)]
    return argv + draw(st.sampled_from([[], [], [], [], ["--nosuch"], ["stray"]]))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_malformed_command_lines_end_in_one_error_line(fuzz_paths, data):
    argv = data.draw(command_lines(fuzz_paths))
    code, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err
