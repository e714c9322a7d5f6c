"""Command line behavior: subcommands, exit codes, stdin, env defaults."""

import io
import json

import pytest

from robustmean.cli import main

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


def test_estimate_rejects_bad_exponent(tmp_path, capsys):
    src = write_numbers(tmp_path / "x.txt", [1.0, 2.0])
    assert main(["estimate", src, "--estimator", "weighted", "--k", "2", "--p", "0.5"]) == 2
    assert "p" in capsys.readouterr().err


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


def test_estimate_empty_input_is_runtime_error(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("# nothing\n")
    assert main(["estimate", str(src), "--estimator", "mom", "--k", "1"]) == 1
    assert "no numbers" in capsys.readouterr().err


def test_unknown_subcommand_and_flag_exit_2(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["estimate", "--no-such-flag"]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "estimate" in capsys.readouterr().out


def test_simulate_writes_csv_and_is_jobs_invariant(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(GOOD_CONFIG))
    one, eight = tmp_path / "one.csv", tmp_path / "eight.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(one)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(eight), "--jobs", "8"]) == 0
    assert one.read_bytes() == eight.read_bytes()
    lines = one.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2  # header + estimators x k grid


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


def test_simulate_missing_config_is_runtime_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "ghost.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_jobs_env_variable_is_default(tmp_path, monkeypatch):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(GOOD_CONFIG))
    out_env, out_flag = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("ROBUSTMEAN_JOBS", "3")
    assert main(["simulate", "--config", str(cfg), "--out", str(out_env)]) == 0
    monkeypatch.delenv("ROBUSTMEAN_JOBS")
    assert main(["simulate", "--config", str(cfg), "--out", str(out_flag), "--jobs", "3"]) == 0
    assert out_env.read_bytes() == out_flag.read_bytes()


def test_jobs_env_variable_must_be_a_positive_integer(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(GOOD_CONFIG))
    monkeypatch.setenv("ROBUSTMEAN_JOBS", "many")
    assert main(["simulate", "--config", str(cfg)]) == 2
    monkeypatch.setenv("ROBUSTMEAN_JOBS", "0")
    assert main(["simulate", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "ROBUSTMEAN_JOBS" in err and "jobs" in err


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
