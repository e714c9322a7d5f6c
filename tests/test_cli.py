"""Command line behavior: subcommands, exit codes, stdin, flags a kind does not read."""

import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustmean import EstimatorSpec, Sample, estimate
from robustmean import cli
from robustmean.cli import main
from test_estimators import bits

# the interpreter of the child processes, under the same warning gate as this one
PYTHON = (sys.executable, "-W", "error::RuntimeWarning")

GOOD_CONFIG = {
    "schema_version": 1,
    "N": 500,
    "distribution": {"kind": "normal", "mean": 0.0, "sd": 1.0},
    "contamination": {"count": 5, "value": 100.0},
    "k_grid": [2, 5],
    "estimators": [{"kind": "mom"}, {"kind": "weighted", "p": 2.0}],
    "replications": 6,
    "base_seed": 3,
}


def write_numbers(path, numbers):
    path.write_text("".join(f"{v}\n" for v in numbers))
    return str(path)


def test_estimate_mom_k3_prints_3_5(tmp_path, capsys):
    src = write_numbers(tmp_path / "ints.txt", range(1, 7))
    assert main(["estimate", src, "--estimator", "mom", "--k", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3.5"


def test_estimate_reads_stdin_with_comments(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("# header\n1\n2\n\n3 # trailing note\n4\n"))
    assert main(["estimate", "--estimator", "weighted", "--k", "2", "--p", "1"]) == 0
    assert capsys.readouterr().out.strip() == "2.5"


def test_estimate_trimmed_and_adaptive(tmp_path, capsys):
    src = write_numbers(tmp_path / "long.txt", (float(i % 7) for i in range(450)))
    assert main(["estimate", src, "--estimator", "trimmed", "--epsilon", "0.1"]) == 0
    assert main(["estimate", src, "--estimator", "adaptive", "--p", "2", "--C", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(float(line) > 0 for line in lines)


def test_estimate_requires_k_for_blockwise(tmp_path, capsys):
    src = write_numbers(tmp_path / "x.txt", [1.0, 2.0])
    assert main(["estimate", src, "--estimator", "mom"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, flag, value, readers",
    [
        ("mom", "--p", "1", "weighted, adaptive"),
        ("trimmed", "--k", "3", "weighted, mom"),
        ("adaptive", "--k", "3", "weighted, mom"),
        ("weighted", "--epsilon", "0.1", "trimmed"),
        ("mom", "--C", "0.5", "adaptive"),
    ],
)
def test_estimate_rejects_a_flag_its_kind_does_not_read(tmp_path, capsys, kind, flag, value, readers):
    src = write_numbers(tmp_path / "x.txt", range(500))
    k = ["--k", "5"] if kind in ("weighted", "mom") else []
    assert main(["estimate", src, "--estimator", kind, *k, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {flag}: unknown flag for estimator {kind!r}; read by {readers}\n"


def test_estimate_rejects_bad_exponent(tmp_path, capsys):
    src = write_numbers(tmp_path / "x.txt", [1.0, 2.0])
    assert main(["estimate", src, "--estimator", "weighted", "--k", "2", "--p", "0.5"]) == 2
    assert "p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, problems",
    [
        (["--k", "2", "--p", "0.5", "--C", "0.3"],
         ["--C: unknown flag for estimator 'weighted'; read by adaptive", "p must be >= 1"]),
        (["--p", "0.5", "--epsilon", "0.1"],
         ["--epsilon: unknown flag for estimator 'weighted'; read by trimmed",
          "k: required for the blockwise estimators", "p must be >= 1"]),
    ],
)
def test_estimate_reports_every_flag_problem_at_once(tmp_path, capsys, flags, problems):
    src = write_numbers(tmp_path / "x.txt", [1.0, 2.0, 3.0, 4.0])
    assert main(["estimate", src, "--estimator", "weighted", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"config error: {problem}\n" for problem in problems)


def test_estimate_bad_token_reports_line(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("1\n2\nthree\n")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 1
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("token, shown", [("nan", "nan"), ("inf", "inf"), ("-Infinity", "-inf"), ("1e999", "inf")])
@pytest.mark.parametrize("estimator", [["weighted", "--k", "2"], ["trimmed"]])
def test_estimate_non_finite_value_reports_line(tmp_path, capsys, token, shown, estimator):
    src = tmp_path / "bad.txt"
    src.write_text(f"# header\n1\n\n2\n# note\n{token}  # suspicious\n" + "3\n" * 20 + "inf\n")
    assert main(["estimate", str(src), "--estimator", *estimator]) == 1
    assert f"error: input line 6 is not a finite number: {shown}\n" == capsys.readouterr().err


def test_estimate_late_bad_token_takes_precedence_over_an_earlier_nan(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("1\nnan\n" + "2\n" * 40_000 + "oops\n")  # the bad token sits past the first 64 KiB
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: input line 40003 is not a number: 'oops'\n"


def test_estimate_reads_a_last_line_without_newline(tmp_path, capsys):
    src = tmp_path / "open.txt"
    src.write_text("1\n2\n3 # note\n10")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 0
    assert capsys.readouterr().out == "4\n"
    src.write_text("1\n2\nnan")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: input line 3 is not a finite number: nan\n"
    src.write_text("1\n2\n\n 4x")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: input line 4 is not a number: '4x'\n"


def test_estimate_reads_a_line_longer_than_a_chunk(tmp_path, capsys):
    long_line = " " * (1 << 20) + "2 # " + "c" * (1 << 20)
    src = tmp_path / "long.txt"
    src.write_text(f"1\n{long_line}\n3\n")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 0
    assert capsys.readouterr().out == "2\n"
    src.write_text(f"1\n{long_line}\n3\nthree\n")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: input line 4 is not a number: 'three'\n"


def test_estimate_reads_crlf_files(tmp_path, capsys):
    src = tmp_path / "crlf.txt"
    src.write_bytes(b"# header\r\n1\r\n\r\n2.5\r\n  \r\n4 # note\r\n")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 0
    assert capsys.readouterr().out == "2.5\n"
    src.write_bytes(b"1\r\n\r\nx y\r\ninf\r\n")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: input line 3 is not a number: 'x y'\n"


def test_estimate_reads_stdin_spanning_many_chunks(monkeypatch, capsys):
    rng = np.random.default_rng(8)
    values = rng.standard_t(4.0, 60_000)
    lines = ["# header"]
    for i, v in enumerate(values.tolist()):
        lines.append(f"{v!r} # row {i}" if i % 7 == 0 else repr(v))
        if i % 1000 == 999:
            lines.append("")
    text = "\n".join(lines) + "\n"  # about 1.3 MB
    want = format(estimate(Sample(values), EstimatorSpec("mom", k=7)), ".17g")

    def run(data):
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data.encode()), encoding="utf-8", newline="\n"))
        return main(["estimate", "--estimator", "mom", "--k", "7"])

    assert run(text) == 0
    assert capsys.readouterr().out == f"{want}\n"
    lines[50_000] = "-inf"
    assert run("\n".join(lines)) == 1
    assert capsys.readouterr().err == "error: input line 50001 is not a finite number: -inf\n"


class TerminalInput(io.StringIO):
    """Stdin on a terminal: once it has signalled the end of input, another read waits for more."""

    ended = False

    def read(self, size=-1):
        assert not self.ended, "read again after the end of input"
        text = super().read(size)
        self.ended = size is None or size < 0 or len(text) < size
        return text

    def readline(self, size=-1):
        assert not self.ended, "read again after the end of input"
        text = super().readline(size)
        self.ended = not text
        return text


def test_estimate_stops_at_the_first_end_of_input(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", TerminalInput("1\n2\n"))
    assert main(["estimate", "--estimator", "mom", "--k", "1"]) == 0
    assert capsys.readouterr().out == "1.5\n"


# ----------------------------------------------------- input parsing, oracle


def oracle_read_numbers(handle) -> np.ndarray:
    """The per-line loop the chunked reader replaces."""
    values = []
    skipped = []  # blank and comment lines, so a value's line can be found again
    for lineno, line in enumerate(handle, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            skipped.append(lineno)
            continue
        try:
            values.append(float(text))
        except ValueError:
            raise RuntimeError(f"input line {lineno} is not a number: {text!r}") from None
    if not values:
        raise RuntimeError("no numbers in input")
    numbers = np.array(values)
    bad = np.flatnonzero(~np.isfinite(numbers))
    if bad.size:
        # the value's rank among value lines, moved past each skipped line up to it
        lineno = int(bad[0]) + 1
        for blank in skipped:
            if blank <= lineno:
                lineno += 1
        raise RuntimeError(f"input line {lineno} is not a finite number: {values[bad[0]]!r}")
    return numbers


INPUT_LINES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**30), 10**30).map(str),
    st.sampled_from([
        "", "\t", "  \t ", "# note", "  # indented note", "7 # trailing", "-2.5e-3#tight",
        "nan", "inf", "-Infinity", "1e999", "-1e999",
        "three", "1 2", "0x1f", "1,5", "--1", "#", "1_000", "1__0", "\u0661\u0662", " \u00a03 ",
    ]),
)


def parse_outcome(read, data: str, newline):
    """The bits ``read`` returns, or its error message.

    ``newline=None`` reads as ``open()`` does; a newline of one line feed reads as stdin does on Linux.
    """
    handle = io.TextIOWrapper(io.BytesIO(data.encode("utf-8")), encoding="utf-8", newline=newline)
    try:
        return bits(read(handle))
    except RuntimeError as exc:
        return str(exc)


@given(
    st.lists(st.tuples(INPUT_LINES, st.sampled_from(["\n", "\r\n"])), max_size=60),
    st.booleans(),
    st.integers(1, 40),
)
@settings(max_examples=300, deadline=None)
def test_chunked_reader_matches_the_line_loop(lines, final_newline, chunk_chars):
    data = "".join(text + end for text, end in lines)
    if lines and not final_newline:
        data = data.removesuffix(lines[-1][1])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK_CHARS", chunk_chars)
        for newline in (None, "\n"):
            assert parse_outcome(cli._read_numbers, data, newline) == parse_outcome(oracle_read_numbers, data, newline)


@pytest.mark.parametrize("blank", ["  # indented note", "\t", "\r"], ids=["indented-comment", "tab", "carriage-return"])
def test_whitespace_only_lines_stay_off_the_line_loop(monkeypatch, blank):
    line_loop_calls = []
    line_loop = cli._raise_at_first
    monkeypatch.setattr(cli, "_raise_at_first", lambda *args, **kwargs: line_loop_calls.append(args) or line_loop(*args, **kwargs))
    data = "".join(f"{i}.5\n" + (blank + "\n" if i % 100 == 0 else "") for i in range(2000))
    # a newline of one line feed reads as stdin does on Linux, keeping the "\r"
    handle = io.TextIOWrapper(io.BytesIO(data.encode("utf-8")), encoding="utf-8", newline="\n")
    assert bits(cli._read_numbers(handle)) == bits(np.arange(2000) + 0.5)
    assert line_loop_calls == []


@pytest.mark.parametrize(
    "data, chunk_chars",
    [
        ("1.5\n2.5\n", 8),  # ends on a chunk boundary
        ("1.5\n2.5\n3.25", 4),  # ends on a later chunk boundary, without a newline
        ("1.5\n2.5\n3.25\n", 4),  # the last full chunk stops just before the final newline
        ("1.5\n2.25", 4),  # ends mid-line right after a full chunk
        ("1.5\n2.25", 6),
        ("1\n" + " " * 20 + "3.5 # " + "c" * 20, 4),  # a last line several chunks long, no newline
        ("1\n" + "2" * 30, 4),
    ],
    ids=["boundary", "boundary-open", "boundary-then-newline", "mid-line", "mid-line-6", "long-open", "long-number"],
)
def test_terminal_input_ending_near_a_chunk_boundary(monkeypatch, data, chunk_chars):
    monkeypatch.setattr(cli, "_CHUNK_CHARS", chunk_chars)
    assert bits(cli._read_numbers(TerminalInput(data))) == bits(oracle_read_numbers(io.StringIO(data)))


def test_estimate_with_stdin_closed_says_so(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", None)  # what Python sets when the process starts with stdin closed
    assert main(["estimate", "--estimator", "mom", "--k", "1"]) == 1
    assert capsys.readouterr().err == "error: no input: stdin is closed\n"


def test_estimate_empty_input_is_runtime_error(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("# nothing\n")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 1
    assert "no numbers" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["mom", "weighted"])
def test_estimate_overflow_names_its_cause(tmp_path, capsys, kind):
    src = tmp_path / "huge.txt"
    src.write_text("1e160\n-2e160\n3e160\n5e159\n")
    assert main(["estimate", str(src), "--estimator", kind, "--k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the numbers are too large to summarise: squaring or summing them overflows\n"


@pytest.mark.parametrize(
    "lines, flags",
    [
        (["1.7e308"] * 30 + ["1.6e308"] * 30, ["--estimator", "mom", "--k", "2"]),  # the central pair's average
        (["1.7e308"] * 30 + ["1.6e308"] * 30, ["--estimator", "trimmed", "--epsilon", "0"]),  # inf
        (["1.7e308", "-1.7e308"] * 300, ["--estimator", "trimmed", "--epsilon", "0.1"]),  # nan
        (["1.7e308", "-1.7e308"] * 300, ["--estimator", "adaptive"]),  # robust_sigma's gaps overflow first
    ],
    ids=["mom", "trimmed-inf", "trimmed-nan", "adaptive"],
)
def test_estimate_non_finite_result_exits_1_with_the_overflow_line(tmp_path, capsys, lines, flags):
    src = write_numbers(tmp_path / "huge.txt", lines)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["estimate", src, *flags]) == 1
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the numbers are too large to summarise: squaring or summing them overflows\n"


def test_simulate_non_finite_cell_exits_1_with_the_overflow_line(tmp_path, capsys):
    # at k=N every block is one value, and averaging the central pair of
    # means near 1.7e308 overflows, as it does for `estimate`
    payload = dict(GOOD_CONFIG, N=60, distribution={"kind": "normal", "mean": 1.7e308, "sd": 1.0},
                   contamination={"count": 0, "value": 0.0}, k_grid=[60], estimators=[{"kind": "mom"}])
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "huge.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert [str(w.message) for w in caught] == []
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the numbers are too large to summarise: squaring or summing them overflows\n"


def test_an_overflow_outside_estimation_prints_its_own_message(monkeypatch, capsys):
    def overflows(**kwargs):
        raise OverflowError("boom")

    monkeypatch.setattr(cli, "figure_grid_table", overflows)
    assert main(["paper-figures", "--reps", "2"]) == 1
    assert capsys.readouterr() == ("", "error: boom\n")


def test_paper_figures_with_more_reps_than_memory_fails_without_the_too_large_line(capsys):
    # the spec's check refuses an errors array past sys.maxsize bytes before anything is sized
    assert main(["paper-figures", "--reps", str(10**23)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"config error: replications: {10**23} need {8 * 4 * 8 * 10**23} bytes of errors, "
                            f"more than the {sys.maxsize} this platform can address\n")
    assert "too large to summarise" not in captured.err


def test_unknown_subcommand_and_flag_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["estimate", "--no-such-flag"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_estimator_error_line(capsys):
    assert main(["estimate", "--estimator", "nope"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "robustmean estimate: error: argument --estimator: invalid choice: 'nope'"
        " (choose from 'weighted', 'mom', 'trimmed', 'adaptive')"
    )


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


# each call's exit status, stdout and stderr, all in one process
_CALLS_IN_ONE_PROCESS = """
import contextlib, io, json, sys
from robustmean.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        results.append([main(argv), out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


# an adaptive estimate in a fresh process, then whether it imported numpy.ma
_ADAPTIVE_IMPORTS = """
import sys
from robustmean.cli import main
status = main(sys.argv[1:])
print(status, "numpy.ma" in sys.modules)
"""


def test_an_adaptive_estimate_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on its first call; robust_sigma's median does not
    src = write_numbers(tmp_path / "halft.txt", np.abs(np.random.default_rng(4).standard_t(4, 1000)))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([*PYTHON, "-c", _ADAPTIVE_IMPORTS, "estimate", src, "--estimator", "adaptive"],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 False"


# modules `import robustmean` leaves unloaded: each would add to the start-up of every command
_LOADED_LATER = ("mmap", "numpy.ma", "robustmean.cli", "argparse", "concurrent.futures", "multiprocessing",
                 "subprocess", "signal")


def test_importing_the_package_loads_no_module_that_only_some_commands_need():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    loaded = "import sys, robustmean; print([name for name in sys.argv[1:] if name in sys.modules])"
    proc = subprocess.run([*PYTHON, "-c", loaded, *_LOADED_LATER], capture_output=True, text=True, env=env,
                          timeout=120, check=True)
    assert proc.stderr == ""
    assert proc.stdout == "[]\n"


def test_usage_errors_leave_the_shared_parser_as_fresh(tmp_path):
    src = write_numbers(tmp_path / "ints.txt", range(1, 7))
    calls = [
        ["estimate", src, "--estimator", "nope", "--k", "3"],
        ["simulate", "--format", "xml"],
        ["estimate", src, "--estimator", "mom", "--k", "3"],
        ["paper-figures", "--reps", "many"],
        ["estimate", src, "--estimator", "weighted", "--k", "2"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    fresh = []
    for argv in calls:
        proc = subprocess.run([*PYTHON, "-m", "robustmean.cli", *argv], capture_output=True, text=True, env=env, timeout=120)
        fresh.append([proc.returncode, proc.stdout, proc.stderr])
    proc = subprocess.run([*PYTHON, "-c", _CALLS_IN_ONE_PROCESS, json.dumps(calls)], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert json.loads(proc.stdout) == fresh
    assert [status for status, _, _ in fresh] == [2, 2, 0, 2, 0]


def run_cli_process(argv, **popen):
    """``robustmean`` in a child process reading "1\\n2\\n" from stdin; its exit status and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([*PYTHON, "-m", "robustmean.cli", *argv], input=b"1\n2\n", stderr=subprocess.PIPE,
                          env=env, timeout=120, **popen)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "argv", [["estimate", "--estimator", "mom", "--k", "1"], ["paper-figures", "--reps", "2"]], ids=["estimate", "paper-figures"]
)
def test_closed_stdout_pipe_exits_141_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader before the child writes, so its first write fails
    try:
        assert run_cli_process(argv, stdout=write_end) == (141, b"")
    finally:
        os.close(write_end)


@pytest.mark.parametrize(
    "argv", [["estimate", "--estimator", "mom", "--k", "1"], ["paper-figures", "--reps", "2", "--out", "grid.csv"]],
    ids=["estimate", "paper-figures-out"],
)
def test_runs_with_stdout_closed(tmp_path, argv):
    # Python sets sys.stdout to None when the process starts without file descriptor 1
    assert run_cli_process(argv, cwd=tmp_path, preexec_fn=lambda: os.close(1)) == (0, b"")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "estimate" in capsys.readouterr().out


def test_simulate_writes_csv_and_is_jobs_invariant(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(GOOD_CONFIG))
    one, two, eight = tmp_path / "one.csv", tmp_path / "two.csv", tmp_path / "eight.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(one)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(two), "--jobs", "2"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(eight), "--jobs", "8"]) == 0
    assert one.read_bytes() == two.read_bytes() == eight.read_bytes()
    lines = one.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + estimators x k grid


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_refuses_aggregates_too_large_to_summarise(tmp_path, capsys, recwarn, jobs):
    # every error is about 1e308 and finite; their sum, for the mean error, overflows
    payload = dict(GOOD_CONFIG, N=501, contamination={"count": 400, "value": 1e308}, k_grid=[501],
                   estimators=[{"kind": "mom"}], replications=2)
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(cfg), "--jobs", jobs]) == 1
    assert capsys.readouterr() == ("", "error: the numbers are too large to summarise: squaring or summing them overflows\n")
    assert not recwarn.list


def test_simulate_jsonl_to_stdout(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(GOOD_CONFIG))
    assert main(["simulate", "--config", str(cfg), "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    assert json.loads(lines[0])["N"] == 500


def test_simulate_k_beyond_n_exits_2_with_diagnostics(tmp_path, capsys):
    payload = dict(GOOD_CONFIG, k_grid=[2, 10_000])
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "k_grid" in capsys.readouterr().err


def test_simulate_non_finite_number_exits_2_naming_the_field(tmp_path, capsys):
    cfg = tmp_path / "nan.json"
    cfg.write_text(json.dumps(GOOD_CONFIG).replace('"sd": 1.0', '"sd": NaN'))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "distribution: sd must be a finite number" in capsys.readouterr().err


def test_simulate_invalid_json_exits_2(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{ nope")
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "n, estimator, message",
    [
        (300, {"kind": "adaptive", "p": 2.0}, "estimators[1]: adaptive needs N >= 400 for robust_sigma"),
        (10, {"kind": "trimmed", "epsilon": 0.0}, "estimators[1]: trimming 5 values from each side of 10 leaves nothing"),
    ],
)
def test_simulate_rejects_a_size_that_would_fail_partway(tmp_path, capsys, monkeypatch, n, estimator, message):
    import robustmean.harness

    def no_draw(*args):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(robustmean.harness, "sample", no_draw)
    payload = dict(GOOD_CONFIG, N=n, contamination={"count": 0}, k_grid=[2], estimators=[{"kind": "mom"}, estimator])
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_simulate_missing_config_is_runtime_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "ghost.json")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "many"])
def test_jobs_env_variable_is_ignored(tmp_path, monkeypatch, capsys, value):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(GOOD_CONFIG))
    assert main(["simulate", "--config", str(cfg)]) == 0
    plain = capsys.readouterr()
    monkeypatch.setenv("ROBUSTMEAN_JOBS", value)
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert capsys.readouterr() == plain


def test_jobs_below_one_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(GOOD_CONFIG))
    assert main(["simulate", "--config", str(cfg), "--jobs", "0"]) == 2
    assert main(["paper-figures", "--reps", "1", "--jobs", "0"]) == 2
    assert capsys.readouterr().err.count("config error: jobs: must be at least 1") == 2


def test_jobs_problem_is_reported_with_the_other_config_problems(tmp_path, capsys):
    assert main(["paper-figures", "--jobs", "0", "--reps", "0"]) == 2
    assert capsys.readouterr().err == "config error: jobs: must be at least 1\nconfig error: reps: must be at least 1\n"
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(dict(GOOD_CONFIG, k_grid=[2, 10_000], replications=0)))
    assert main(["simulate", "--config", str(cfg), "--jobs", "0"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "config error: jobs: must be at least 1"
    assert any("k_grid" in line for line in err) and any("replications" in line for line in err)


def table_commands(tmp_path):
    """``simulate`` on a good config and ``paper-figures``, each without its table options."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(GOOD_CONFIG))
    return ["simulate", "--config", str(cfg)], ["paper-figures", "--reps", "2"]


def test_an_out_with_no_file_to_write_exits_2_before_anything_runs(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "figure_grid_table", lambda **kwargs: ran.append(kwargs))
    missing = tmp_path / "missing" / "grid.csv"
    for argv in table_commands(tmp_path):
        assert main([*argv, "--out", str(missing)]) == 2
        assert capsys.readouterr().err == f"config error: out: no such directory: {missing.parent}\n"
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"config error: out: {tmp_path} is a directory\n"
        assert main([*argv, "--out", str(missing), "--jobs", "0"]) == 2
        assert capsys.readouterr().err == ("config error: jobs: must be at least 1\n"
                                           f"config error: out: no such directory: {missing.parent}\n")
    assert ran == [] and not missing.parent.exists()


def test_an_out_without_a_directory_writes_to_the_working_one(tmp_path, monkeypatch):
    commands = table_commands(tmp_path)
    monkeypatch.chdir(tmp_path)
    for argv, name in zip(commands, ("run.csv", "grid.csv")):
        assert main([*argv, "--out", name]) == 0
        assert (tmp_path / name).read_text().startswith("estimator,")


def test_paper_figures_is_jobs_invariant(tmp_path):
    plain, jobs = tmp_path / "plain.csv", tmp_path / "jobs.csv"
    assert main(["paper-figures", "--reps", "2", "--out", str(plain)]) == 0
    assert main(["paper-figures", "--reps", "2", "--jobs", "2", "--out", str(jobs)]) == 0
    assert plain.read_bytes() == jobs.read_bytes()


def test_paper_figures_small_grid(tmp_path):
    out = tmp_path / "grid.jsonl"
    assert main(["paper-figures", "--reps", "2", "--seed", "5", "--format", "jsonl", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 128
    rows = [json.loads(line) for line in lines]
    assert {r["estimator"] for r in rows} == {"mom", "weighted", "trimmed"}
    assert all(r["replications"] == 2 for r in rows)


def test_paper_figures_rejects_nonpositive_reps(capsys):
    assert main(["paper-figures", "--reps", "0"]) == 2
    assert "reps" in capsys.readouterr().err
