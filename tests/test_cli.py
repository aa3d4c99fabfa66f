import json
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from uqec import analysis, cli
from uqec.analysis import TrajectoryEntry, TrajectoryReport, run_experiment
from uqec.cli import main
from uqec.codes import CODE_NAMES, PureQubitState, get_code, standard_error_set
from uqec.recovery import ErrorChannel, recovery_for, validate_kl

import oracles
from dense import read_matrix

DATA = Path(__file__).parent / "data"


class TestVerify:
    def test_bitflip3_passes(self, capsys):
        assert main(["verify", "--code", "bitflip3"]) == 0
        out = capsys.readouterr().out
        assert "bitflip3: 225/225 cases passed" in out

    def test_unknown_code_is_usage_error(self, capsys):
        assert main(["verify", "--code", "nosuch"]) == 2
        assert "valid names" in capsys.readouterr().err

    def test_json_stream(self, capsys):
        assert main(["verify", "--code", "bitflip3", "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 225
        doc = json.loads(lines[0])
        assert doc["passed"] is True

    def test_shor9_grid_keeps_no_report(self, capsys):
        # No report keeps a whole 256 x 256 sigma (0.5 MB): each holds its
        # ancilla as the block on G's nonzero rows, so the grid's 195
        # reports and their lines stay small.
        recovery_for("shor9")  # the cached R is built outside the trace
        tracemalloc.start()
        try:
            assert main(["verify", "--code", "shor9"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "shor9: 195/195 cases passed" in capsys.readouterr().out
        assert peak < 16 * 2**20


class TestDemo:
    def test_json_report(self, capsys):
        rc = main([
            "demo", "--code", "bitflip3", "--probs", "0.7,0.1,0.1,0.1",
            "--alpha", "0.6", "--beta", "0.8", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert [s["label"] for s in doc["syndrome"]] == ["I", "X_3", "X_2", "X_1"]
        assert doc["syndrome"][0]["p"] == pytest.approx(0.7, abs=1e-12)

    def test_divincenzo5_identity_channel(self, capsys):
        probs = ",".join(["1"] + ["0"] * 15)
        rc = main([
            "demo", "--code", "divincenzo5", "--probs", probs,
            "--alpha", "1", "--beta", "0", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["syndrome"][0] == {"label": "I", "p": pytest.approx(1.0, abs=1e-12)}

    def test_wrong_prob_arity(self, capsys):
        rc = main([
            "demo", "--code", "bitflip3", "--probs", "0.5,0.5",
            "--alpha", "1", "--beta", "0",
        ])
        assert rc == 2
        assert "needs 4 entries" in capsys.readouterr().err

    def test_missing_channel(self, capsys):
        rc = main(["demo", "--code", "bitflip3", "--alpha", "1", "--beta", "0"])
        assert rc == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_unnormalized_input_state(self, capsys):
        rc = main([
            "demo", "--code", "bitflip3", "--probs", "1,0,0,0",
            "--alpha", "1", "--beta", "1",
        ])
        assert rc == 2
        assert "must be 1 within" in capsys.readouterr().err

    def test_channel_file(self, tmp_path, capsys):
        chfile = tmp_path / "ch.txt"
        chfile.write_text("I 0.9\nX_1 0.1\n")
        rc = main([
            "demo", "--code", "bitflip3", "--channel-file", str(chfile),
            "--alpha", "0.6", "--beta", "0.8", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_table_format(self, capsys):
        rc = main([
            "demo", "--code", "bitflip3", "--probs", "0.7,0.1,0.1,0.1",
            "--alpha", "0.6", "--beta", "0.8",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict:   PASS" in out

    def test_csv_format(self, capsys):
        rc = main([
            "demo", "--code", "bitflip3", "--probs", "0.7,0.1,0.1,0.1",
            "--alpha", "0.6", "--beta", "0.8", "--format", "csv",
        ])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("code,alpha,beta,fidelity")
        assert lines[1].startswith("bitflip3,")


class TestKlCheck:
    def test_bitflip3_zero_deviation(self, capsys):
        assert main(["kl-check", "--code", "bitflip3"]) == 0
        out = capsys.readouterr().out
        assert "gram deviation 0.000e+00" in out
        assert "nondegenerate" in out

    def test_divincenzo5(self, capsys):
        assert main(["kl-check", "--code", "divincenzo5", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["nondegenerate"] is True
        assert doc["gram_deviation"] <= 1e-12

    def test_json_key_order(self, capsys):
        assert main(["kl-check", "--code", "all", "--format", "json"]) == 0
        docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        keys = ["code", "gram_deviation", "classes", "nondegenerate"]
        assert [list(doc) for doc in docs] == [keys] * 3
        assert docs[2]["classes"][-1] == ["Z_7", "Z_8", "Z_9"]

    def test_shor9_reports_z_classes(self, capsys):
        assert main(["kl-check", "--code", "shor9"]) == 0
        out = capsys.readouterr().out
        for grp in ("{Z_1,Z_2,Z_3}", "{Z_4,Z_5,Z_6}", "{Z_7,Z_8,Z_9}"):
            assert grp in out


class TestDump:
    def test_bitflip3_matches_golden_matrix(self, tmp_path, capsys):
        assert main(["dump", "--code", "bitflip3", "--output", str(tmp_path)]) == 0
        dumped = read_matrix(tmp_path / "bitflip3_R.txt")
        golden = read_matrix(DATA / "bitflip3_R.txt")
        assert np.array_equal(dumped, golden)
        labels = (tmp_path / "bitflip3_R_labels.txt").read_text().splitlines()
        assert labels[0] == "0 0 I"
        assert labels[4] == "4 1 I"

    def test_round_trip_divincenzo5(self, tmp_path, capsys):
        assert main(["dump", "--code", "divincenzo5", "--output", str(tmp_path)]) == 0
        dumped = read_matrix(tmp_path / "divincenzo5_R.txt")
        assert np.array_equal(dumped, recovery_for("divincenzo5").matrix)
        nonzero = dumped[np.abs(dumped) > 0]
        assert set(np.unique(np.abs(nonzero))) == {0.25}

    def test_logical_vectors_dumped_as_columns(self, tmp_path, capsys):
        assert main(["dump", "--code", "shor9", "--output", str(tmp_path)]) == 0
        v = read_matrix(tmp_path / "shor9_logical0.txt")
        assert v.shape == (512, 1)
        assert v[0, 0] == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-15)


class TestTrajectory:
    def test_deterministic_channel(self, capsys):
        rc = main([
            "trajectory", "--code", "bitflip3", "--probs", "1,0,0,0",
            "--samples", "1000", "--seed", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "max per-sample recovery error: 0.000e+00" in out

    def test_statistics_json(self, capsys):
        rc = main([
            "trajectory", "--code", "bitflip3", "--probs", "0.5,0.3,0.15,0.05",
            "--samples", "100000", "--seed", "42", "--format", "json",
        ])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["max_recovery_error"] <= 1e-10
        assert all(e["within"] for e in doc["entries"])

    def test_json_key_order(self, capsys):
        probs = ",".join(["0.5"] + ["0"] * 19 + ["0.5"] + ["0"] * 7)  # I and Z_2
        argv = ["--samples", "1000", "--seed", "2", "--format", "json"]
        assert main(["trajectory", "--code", "shor9", "--probs", probs, *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["code", "samples", "seed", "entries", "max_recovery_error", "passed"]
        assert {tuple(e) for e in doc["entries"]} == {
            ("label", "class", "p", "count", "frequency", "bound_3sigma", "within")
        }
        assert doc["entries"][20]["class"] == "{Z_1,Z_2,Z_3}"

    def test_shor9_degenerate_classification(self, capsys):
        probs = ["0"] * 28
        probs[20] = "1"  # Z_2
        rc = main([
            "trajectory", "--code", "shor9", "--probs", ",".join(probs),
            "--samples", "100", "--seed", "1",
        ])
        assert rc == 0
        assert "{Z_1,Z_2,Z_3}" in capsys.readouterr().out


class TestOutputFile:
    def test_report_written_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        rc = main([
            "demo", "--code", "bitflip3", "--probs", "0.7,0.1,0.1,0.1",
            "--alpha", "0.6", "--beta", "0.8", "--format", "json",
            "--output", str(target),
        ])
        assert rc == 0
        assert json.loads(target.read_text())["passed"] is True


class TestMalformedInput:
    @pytest.mark.parametrize("argv", [
        ["verify", "--code", "bitflip3", "--tol", "-1"],
        ["verify", "--code", "bitflip3", "--output", "{missing}/x.txt"],
        ["demo", "--code", "bitflip3", "--probs", "nan,1,0,0", "--alpha", "0.6", "--beta", "0.8"],
        ["trajectory", "--code", "bitflip3", "--probs", "1,0,0,0", "--samples", "0"],
        ["verify", "--code", "bitflip3", "--tol", "nan"],
        ["verify", "--code", "bitflip3", "--tol", "inf"],
        ["demo", "--code", "bitflip3", "--probs", "1,0,0,0", "--alpha", "nan", "--beta", "0"],
        ["trajectory", "--code", "bitflip3", "--probs", "1,0,0,0", "--samples", "-1"],
        ["verify", "--code", "bitflip3", "--seed", "-1"],
        ["trajectory", "--code", "bitflip3", "--probs", "1,0,0,0", "--seed", "-3"],
        ["trajectory", "--code", "bitflip3", "--probs", "1,0,0,0", "--samples", "99999999999999999999"],
        ["trajectory", "--code", "bitflip3", "--probs", "1,0,0,0", "--samples", "9223372036854775807"],
        ["trajectory", "--code", "bitflip3", "--probs", "1,0,0,0", "--samples", str(2**53 + 1)],
    ])
    def test_exits_2_with_one_line_error(self, argv, tmp_path, capsys):
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_unparsable_probability_names_its_line(self, tmp_path, capsys):
        spec = tmp_path / "channel.txt"
        spec.write_text("I 0.5\nX_1 half\n")
        argv = ["demo", "--code", "bitflip3", "--channel-file", str(spec),
                "--alpha", "0.6", "--beta", "0.8"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {spec}:2: bad probability 'half'\n"

    # Each malformed channel file ends with the whole error line below, where
    # {path} is the file; a file the OS cannot open gives the OS's own
    # message, which names the file.
    @pytest.mark.parametrize("content,line", [
        (b"I 0.7\nX_1\n", "{path}:2: expected 'label probability', got 'X_1'"),
        (b"# nothing\n\n", "{path}: no channel terms found"),
        (b"I 0.6\nX_1 0.5\n", "{path}: probabilities sum to 1.1, expected 1 within 1e-9"),
        (b"I 1.1\nX_1 -0.1\n", "{path}: channel probabilities must be nonnegative"),
        (b"I nan\nX_1 0.5\n", "{path}: probabilities sum to nan, expected 1 within 1e-9"),
        (b"I 0.5\nX_1 0.5\xff\n",
         "{path}: not valid UTF-8 (byte 0xff at offset 13: invalid start byte)"),
        # The offset is the file's own, byte-order mark included.
        (b"\xef\xbb\xbfI 0.5\nX_1 0.5\xff\n",
         "{path}: not valid UTF-8 (byte 0xff at offset 16: invalid start byte)"),
        ("directory", None),
        ("missing", None),
    ], ids=["short-line", "empty", "sum-1.1", "negative", "nan", "not-utf8",
            "not-utf8-after-bom", "directory", "missing"])
    @pytest.mark.parametrize("command", ["demo", "trajectory"])
    def test_malformed_channel_file(self, command, content, line, tmp_path, capsys):
        spec = tmp_path / "channel.txt"
        if content == "directory":
            spec.mkdir()
        elif content != "missing":
            spec.write_bytes(content)
        if line is None:
            with pytest.raises((OSError, ValueError)) as exc:
                spec.read_text()
            line = str(exc.value)
        argv = [command, "--code", "bitflip3", "--channel-file", str(spec),
                "--alpha", "0.6", "--beta", "0.8"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {line.format(path=spec)}\n")

    @pytest.mark.parametrize("source", ["--probs", "--channel-file"])
    def test_overflowing_probabilities_warn_nothing(self, source, tmp_path, capsys):
        # A numpy RuntimeWarning would print two lines before the error. The
        # sum of 8 or more entries is pairwise, and on shor9 it adds inf to
        # -inf.
        for code, probs in [
            ("bitflip3", [1e308, 1e308]),
            ("shor9", [1e308, 1e308, -1e308, -1e308, 1.0] + [0.0] * 23),
        ]:
            ops = standard_error_set(get_code(code))
            spec = tmp_path / f"{code}.txt"
            spec.write_text("".join(f"{op.label} {p!r}\n" for op, p in zip(ops, probs)))
            padded = probs + [0.0] * (len(ops) - len(probs))
            arg = ",".join(map(repr, padded)) if source == "--probs" else str(spec)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["trajectory", "--code", code, source, arg]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    # Options a command never read are not accepted: argparse exits 2.
    @pytest.mark.parametrize("command,option", [
        ("demo --probs 1,0,0,0 --alpha 1 --beta 0", "--seed 3"),
        ("kl-check", "--tol 0"), ("kl-check", "--seed 3"),
        ("dump", "--tol 1e-10"), ("dump", "--seed 3"), ("dump", "--format json"),
    ])
    def test_removed_option_exits_2(self, command, option, tmp_path, capsys):
        argv = [*command.split(), "--code", "bitflip3", "--output", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv + option.split())
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestArgparseErrors:
    @pytest.mark.parametrize("argv", [
        ["nosuch"],
        ["kl-check", "--code", "bitflip3", "--tol", "0"],
        ["kl-check", "--code", "bitflip3", "--format", "csv"],
        ["verify", "--code", "bitflip3", "--tol", "abc"],
        ["demo", "--probs", "1,0,0,0", "--alpha", "1", "--beta", "0"],
    ])
    def test_one_line_error_and_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "usage:" not in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: uqec verify")


class TestCachedParser:
    """main parses every command line with one parser, built once per
    process: one call must leave nothing in it for the next."""

    ARGVS = [
        ["verify", "--code", "bitflip3", "--format", "json", "--seed", "7", "--tol", "0"],
        ["demo", "--code", "divincenzo5", "--probs", ",".join(["0.0625"] * 16),
         "--alpha", "0.6", "--beta", "-0.8", "--format", "csv"],
        ["verify", "--code", "bitflip3", "--format", "xml"],
        ["verify", "--code", "bitflip3"],
        ["demo", "--code", "bitflip3", "--channel-file", str(DATA / "missing.txt"),
         "--alpha", "1", "--beta", "0"],
        ["demo", "--code", "bitflip3", "--probs", "0.7,0.1,0.1,0.1", "--alpha", "0.6",
         "--beta", "0.8"],
        ["verify", "--code", "divincenzo5", "--format", "csv", "--seed", "3"],
        ["kl-check", "--code", "all"],
    ]

    @staticmethod
    def run(argv, capsys):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_one_process_gives_what_fresh_parsers_give(self, capsys):
        in_turn = [self.run(argv, capsys) for argv in self.ARGVS]
        assert cli.build_parser() is cli.build_parser()
        fresh = []
        for argv in self.ARGVS:
            cli.build_parser.cache_clear()
            fresh.append(self.run(argv, capsys))
        assert in_turn == fresh
        # The demo runs read their own options, not the verify runs' defaults.
        assert [rc for rc, _, _ in in_turn] == [1, 0, 2, 0, 2, 0, 0, 0]


class TestFormatChoices:
    @pytest.mark.parametrize("argv", [
        ["kl-check", "--code", "bitflip3", "--format", "csv"],
        ["trajectory", "--code", "bitflip3", "--probs", "1,0,0,0", "--format", "csv"],
    ])
    def test_csv_rejected_where_no_csv_is_written(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "invalid choice: 'csv'" in out.err

    def test_verify_still_writes_csv(self, capsys):
        assert main(["verify", "--code", "bitflip3", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("code,alpha,beta,")


class TestNonDiagonalAncilla:
    """At --tol 0 the rounding-level off-diagonal mass of some recovered
    ancillas exceeds the tolerance: those cases fail, and the grid goes on."""

    def test_verify_reports_failed_cases_and_finishes_the_grid(self, capsys):
        assert main(["verify", "--code", "divincenzo5", "--format", "json"]) == 0
        loose = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert main(["verify", "--code", "divincenzo5", "--format", "json", "--tol", "0"]) == 1
        captured = capsys.readouterr()
        strict = [json.loads(line) for line in captured.out.splitlines()]
        assert "Traceback" not in captured.err
        assert len(strict) == len(loose) == 135
        assert not all(doc["passed"] for doc in strict)
        # The syndrome is the ancilla diagonal whatever the tolerance.
        assert [doc["syndrome"] for doc in strict] == [doc["syndrome"] for doc in loose]

    def test_demo_exits_1(self, capsys):
        probs = ",".join(["0.0625"] * 16)
        rc = main([
            "demo", "--code", "divincenzo5", "--probs", probs,
            "--alpha", "0.6", "--beta", "0.8", "--tol", "0",
        ])
        assert rc == 1
        assert "verdict:   FAIL" in capsys.readouterr().out


class TestChannelNormalization:
    """--probs and --channel-file accept the same sums (1 within 1e-9)."""

    THIRDS = ["0.3333333333", "0.3333333333", "0.3333333333", "0"]

    def _demo(self, channel_args, capsys):
        rc = main([
            "demo", "--code", "bitflip3", *channel_args,
            "--alpha", "0.6", "--beta", "0.8", "--format", "json",
        ])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_rounded_thirds_accepted_by_both_inputs(self, tmp_path, capsys):
        chfile = tmp_path / "ch.txt"
        chfile.write_text("".join(
            f"{label} {p}\n" for label, p in zip(["I", "X_1", "X_2", "X_3"], self.THIRDS)
        ))
        from_probs = self._demo(["--probs", ",".join(self.THIRDS)], capsys)
        from_file = self._demo(["--channel-file", str(chfile)], capsys)
        assert from_probs[0] == from_file[0] == 0
        assert from_probs[1] == from_file[1]
        doc = json.loads(from_probs[1])
        assert sum(entry["p"] for entry in doc["channel"]) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("probs", [
        THIRDS,
        ["0.7", "0.1", "0.1", "0.1"],
        ["0.5", "0.3", "0.15", "0.05"],
        ["0.2500000001", "0.25", "0.25", "0.25"],
        ["1", "0", "-0", "0"],
    ])
    def test_file_and_probs_give_the_same_channel(self, probs, tmp_path, monkeypatch, capsys):
        seen = record(monkeypatch, "run_experiment")
        chfile = tmp_path / "ch.txt"
        chfile.write_text("".join(
            f"{label} {p}\n" for label, p in zip(["I", "X_1", "X_2", "X_3"], probs)
        ))
        assert self._demo(["--probs", ",".join(probs)], capsys)[0] == 0
        assert self._demo(["--channel-file", str(chfile)], capsys)[0] == 0
        from_probs, from_file = ([(lb, p.hex()) for lb, p in r.channel] for r in seen)
        assert from_probs == from_file

    def test_bad_sum_message_is_a_plain_float(self, tmp_path, capsys):
        chfile = tmp_path / "ch.txt"
        chfile.write_text("I 0.5\nX_1 0.5\nX_2 0.5\nX_3 0.5\n")
        for args in (["--probs", "0.5,0.5,0.5,0.5"], ["--channel-file", str(chfile)]):
            rc, _, err = self._demo(args, capsys)
            assert rc == 2
            assert "sum to 2.0, expected 1" in err
            assert "np.float64" not in err


class TestChannelFile:
    """Channel files as the CLI reads them: "label probability" lines."""

    def _demo(self, path, monkeypatch, capsys):
        seen = record(monkeypatch, "run_experiment")
        rc = main(["demo", "--code", "bitflip3", "--channel-file", str(path),
                   "--alpha", "0.6", "--beta", "0.8"])
        return rc, capsys.readouterr(), seen

    def test_parse_and_apply(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "channel.txt"
        path.write_text("# bit-flip mixture\nI 0.7\nX_2 0.2\nX_3 0.1\n")
        rc, captured, (report,) = self._demo(path, monkeypatch, capsys)
        assert (rc, captured.err) == (0, "")
        assert report.channel == (("I", 0.7), ("X_2", 0.2), ("X_3", 0.1))
        assert abs(sum(p for _, p in report.channel) - 1.0) <= 1e-15

    def test_unknown_label(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "channel.txt"
        path.write_text("I 0.5\nZ_1 0.5\n")
        rc, captured, seen = self._demo(path, monkeypatch, capsys)
        assert (rc, seen) == (2, [])
        assert captured.err == f"error: {path}:2: unknown operator 'Z_1' for code bitflip3\n"

    def test_bad_sum(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "channel.txt"
        path.write_text("I 0.5\nX_1 0.4\n")
        rc, captured, seen = self._demo(path, monkeypatch, capsys)
        assert (rc, seen) == (2, [])
        assert captured.err == f"error: {path}: probabilities sum to 0.9, expected 1 within 1e-9\n"

    def test_duplicate_label(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "channel.txt"
        path.write_text("I 0.5\nI 0.5\n")
        rc, captured, seen = self._demo(path, monkeypatch, capsys)
        assert (rc, seen) == (2, [])
        assert captured.err == f"error: {path}:2: duplicate operator 'I'\n"

    @pytest.mark.parametrize("command", ["demo", "trajectory"])
    def test_byte_order_mark_is_read_past(self, command, tmp_path, capsys):
        # Some editors save UTF-8 with a leading byte-order mark.
        outputs = []
        for name, prefix in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
            spec = tmp_path / name
            spec.write_bytes(prefix + b"# bit flips\r\nI 0.7\r\nX_2 0.2\r\nX_3 0.1\r\n")
            argv = [command, "--code", "bitflip3", "--channel-file", str(spec),
                    "--alpha", "0.6", "--beta", "0.8"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].err == "" and "X_2" in outputs[0].out


def bitflip3_report():
    channel = ErrorChannel.from_probs(
        standard_error_set(get_code("bitflip3")), [0.7, 0.1, 0.1, 0.1]
    )
    return run_experiment("bitflip3", channel, PureQubitState(0.6, 0.8))


def assert_same_text(got, expected):
    """got == expected, naming the first line that differs: pytest's own
    diff of two long texts that differ on many lines takes minutes."""
    for i, (a, b) in enumerate(zip(got.splitlines(True), expected.splitlines(True))):
        assert a == b, f"line {i}"
    assert got == expected


def record(monkeypatch, name):
    """Replace analysis.<name> by a wrapper that keeps every result it returns."""
    real, seen = getattr(analysis, name), []

    def wrapper(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(analysis, name, wrapper)
    return seen


class TestReportJson:
    def test_schema_and_key_order(self):
        doc = json.loads(cli._report_json(bitflip3_report()))
        assert list(doc.keys()) == [
            "code", "channel", "alpha", "beta", "fidelity", "residual",
            "syndrome", "passed", "tolerance",
        ]
        assert doc["code"] == "bitflip3"
        assert doc["passed"] is True
        assert doc["channel"][0] == {"label": "I", "p": 0.7}
        assert doc["syndrome"][1]["label"] == "X_3"

    def test_deterministic(self):
        assert cli._report_json(bitflip3_report()) == cli._report_json(bitflip3_report())


class TestJsonTemplates:
    ODD = 'a "b"\n\u00e9'

    def test_numbers_bools_and_escaped_strings(self):
        report = SimpleNamespace(
            code=self.ODD, channel=((self.ODD, 0.7), ("I", 0.3)), alpha=0.6, beta=-0.8,
            fidelity=1.0, residual=0.0, syndrome=((self.ODD, 1.0),), passed=False,
            tolerance=1e-10,
        )
        text = cli._report_json(report)
        odd = '"a \\"b\\"\\n\\u00e9"'
        assert text == (
            f'{{"code": {odd}, "channel": [{{"label": {odd}, "p": 0.69999999999999996}}, '
            '{"label": "I", "p": 0.29999999999999999}], "alpha": 0.59999999999999998, '
            '"beta": -0.80000000000000004, "fidelity": 1, "residual": 0, '
            f'"syndrome": [{{"label": {odd}, "p": 1}}], "passed": false, '
            '"tolerance": 1e-10}'
        )
        doc = json.loads(text)
        assert doc["code"] == doc["channel"][0]["label"] == self.ODD
        assert text == oracles.report_to_json(report)

    def test_numpy_bools_and_ints(self):
        entry = TrajectoryEntry(
            label=self.ODD, class_label="{Z_1,Z_2,Z_3}", probability=0.7,
            count=np.int64(3), frequency=0.75, bound_3sigma=0.1, within_bound=np.bool_(False),
        )
        report = TrajectoryReport(
            code=self.ODD, samples=4, seed=0, entries=(entry,), max_recovery_error=0.0,
            passed=np.bool_(True),
        )
        text = cli._trajectory_json(report)
        doc = json.loads(text)
        assert doc["entries"] == [{
            "label": self.ODD, "class": "{Z_1,Z_2,Z_3}", "p": 0.7, "count": 3,
            "frequency": 0.75, "bound_3sigma": 0.1, "within": False,
        }]
        assert doc["passed"] is True
        assert '"count": 3, ' in text
        assert text == oracles.trajectory_to_json(report)


class TestWritersMatchTheOldOnes:
    """The fixed templates and the one csv.writer write byte for byte what
    the recursive JSON writer and the one-line CSV writer of tests/oracles.py
    write for the same records."""

    @pytest.mark.parametrize("seed,tol", [(42, 1e-10), (42, 0.0), (7, 1e-10), (7, 0.0)])
    def test_verify_grids(self, seed, tol, monkeypatch, capsys):
        grids = {name: analysis.verify_code(name, tol=tol, seed=seed) for name in CODE_NAMES}

        def replay(name, **kwargs):
            assert kwargs == {"tol": tol, "seed": seed}
            return grids[name]

        monkeypatch.setattr(analysis, "verify_code", replay)
        reports = [r for name in CODE_NAMES for r in grids[name]]
        rc = 0 if all(r.passed for r in reports) else 1
        argv = ["verify", "--code", "all", "--seed", str(seed), "--tol", repr(tol)]
        assert main([*argv, "--format", "json"]) == rc
        assert_same_text(
            capsys.readouterr().out, "".join(oracles.report_to_json(r) + "\n" for r in reports)
        )
        assert main([*argv, "--format", "csv"]) == rc
        assert_same_text(
            capsys.readouterr().out,
            oracles.CSV_HEADER + "".join(map(oracles.report_csv_line, reports)),
        )

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_demo(self, fmt, monkeypatch, capsys):
        seen = record(monkeypatch, "run_experiment")
        probs = ",".join(["0.1"] * 10 + ["0"] * 18)
        argv = ["--alpha", "0.6", "--beta", "-0.8", "--format", fmt]
        assert main(["demo", "--code", "shor9", "--probs", probs, *argv]) == 0
        assert main(["demo", "--code", "bitflip3", "--probs", "1,0,0,0", "--tol", "0", *argv]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            assert_same_text(out, "".join(oracles.report_to_json(r) + "\n" for r in seen))
        else:
            assert_same_text(
                out, "".join(oracles.CSV_HEADER + oracles.report_csv_line(r) for r in seen)
            )

    def test_kl_check(self, capsys):
        assert main(["kl-check", "--code", "all", "--format", "json"]) == 0
        expected = "".join(
            oracles.kl_to_json(name, validate_kl(get_code(name), standard_error_set(get_code(name))))
            + "\n"
            for name in CODE_NAMES
        )
        assert_same_text(capsys.readouterr().out, expected)

    @pytest.mark.parametrize("name,probs", [
        ("bitflip3", "0.5,0.3,0.2,0"),
        ("divincenzo5", ",".join(["0.25", "0"] * 4 + ["0"] * 8)),
        ("shor9", ",".join(["0.1"] * 10 + ["0"] * 18)),
    ])
    def test_trajectory(self, name, probs, monkeypatch, capsys):
        seen = record(monkeypatch, "trajectory_statistics")
        rc = main([
            "trajectory", "--code", name, "--probs", probs, "--samples", "2000",
            "--seed", "5", "--format", "json",
        ])
        (report,) = seen
        assert rc == (0 if report.passed else 1)
        assert any(e.probability == 0.0 for e in report.entries)
        assert_same_text(capsys.readouterr().out, oracles.trajectory_to_json(report) + "\n")
