"""Command-line contracts: subcommands, exit codes, files, determinism."""

import json
import math
import re

import numpy as np
import pytest

from imcmc import cli
from imcmc.cli import main, parse_config_file, read_trace_csv
from imcmc.core import LogDensity


def run_cli(args):
    return main(list(args))


def test_sample_writes_traces_and_summary(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(["sample", "--kind", "hmc", "--target", "mog2",
                    "--steps", "1000", "--chains", "2", "--seed", "7",
                    "--burn-in", "100", "--eps", "0.3", "--k", "16",
                    "--out", str(out)])
    assert code == 0
    assert (out / "chain_000.csv").exists()
    assert (out / "chain_001.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["chains"] == 2
    assert set(summary) >= {"ess", "iact", "ess_per_sec", "accept_rate", "n", "dims"}
    header = (out / "chain_000.csv").read_text().splitlines()[0]
    assert header == "step,accepted,x_0,x_1"
    assert not list(out.glob("*.tmp"))  # atomic writes leave no droppings


def test_sample_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(["sample", "--kind", "mala", "--target", "mog2",
                        "--steps", "500", "--chains", "1", "--seed", "3",
                        "--burn-in", "50", "--eps", "0.05",
                        "--out", str(out)]) == 0
    assert (a / "chain_000.csv").read_bytes() == (b / "chain_000.csv").read_bytes()


def test_sample_parallel_jobs_match_serial(tmp_path):
    serial, parallel = tmp_path / "s", tmp_path / "p"
    base = ["sample", "--kind", "rwm", "--target", "normal1d", "--scale", "0.5",
            "--steps", "300", "--burn-in", "30", "--chains", "2", "--seed", "4"]
    assert run_cli(base + ["--out", str(serial)]) == 0
    assert run_cli(base + ["--jobs", "2", "--out", str(parallel)]) == 0
    for i in range(2):
        name = f"chain_{i:03d}.csv"
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_sample_unknown_kind_is_config_error(tmp_path):
    assert run_cli(["sample", "--kind", "quantum", "--target", "mog2",
                    "--out", str(tmp_path)]) == 2
    assert run_cli(["sample", "--target", "mog2"]) == 2
    assert run_cli(["sample", "--kind", "hmc", "--target", "mog2",
                    "--steps", "10", "--burn-in", "20",
                    "--eps", "0.1", "--k", "5"]) == 2


def test_irr_nice_mc_alpha_defaults_to_08(tmp_path):
    from imcmc.cli import _make_config

    import argparse

    ns = argparse.Namespace(config=None, kind="irr_nice_mc", target="mog2",
                            dataset=None, steps=100, burn_in=10, chains=1,
                            seed=1, out=None, fmt=None, jobs=None, eps=None,
                            k=None, K=None, alpha=None, scale=None, shift=None,
                            flow_shift=None, flow_scale=None)
    cfg = _make_config(ns)
    assert cfg.params["alpha"] == 0.8


def test_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# experiment record\nkind = mala\ntarget = mog2\n"
                   "steps = 400\nburn_in = 40\neps = 0.05\nseed = 9\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"kind": "mala", "target": "mog2", "steps": 400,
                      "burn_in": 40, "eps": 0.05, "seed": 9}
    out = tmp_path / "out"
    code = run_cli(["sample", "--config", str(cfg), "--steps", "300",
                    "--out", str(out)])
    assert code == 0
    xs = read_trace_csv(out / "chain_000.csv")
    assert xs.shape == (300, 2)  # flag override beats the config file


def test_config_file_syntax_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("kind mala\n")
    assert run_cli(["sample", "--config", str(bad), "--target", "mog2"]) == 2


def test_env_seed_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    monkeypatch.setenv("IMCMC_SEED", "77")
    for out in (out1, out2):
        assert run_cli(["sample", "--kind", "rwm", "--target", "normal1d",
                        "--scale", "0.5", "--steps", "200", "--burn-in", "20",
                        "--out", str(out)]) == 0
    assert (out1 / "chain_000.csv").read_bytes() == (out2 / "chain_000.csv").read_bytes()


@pytest.mark.parametrize("seed", ["abc", "1.5", "-3"])
def test_bad_env_seed_is_config_error(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.setenv("IMCMC_SEED", seed)
    assert run_cli(["sample", "--kind", "rwm", "--target", "normal1d",
                    "--scale", "0.5", "--steps", "200", "--burn-in", "20",
                    "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: IMCMC_SEED") and err.count("\n") == 1


def test_bad_config_seed_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = rwm\ntarget = normal1d\nscale = 0.5\nseed = seven\n")
    assert run_cli(["sample", "--config", str(cfg), "--steps", "200",
                    "--burn-in", "20", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: seed")


def test_ess_subcommand(tmp_path, capsys):
    from imcmc.targets import ar1_generate

    trace = tmp_path / "trace.csv"
    s = ar1_generate(0.5, 100000, seed=1234)
    lines = ["step,accepted,x_0"] + [f"{i},1,{float(v)!r}" for i, v in enumerate(s)]
    trace.write_text("\n".join(lines) + "\n")
    assert run_cli(["ess", "--trace", str(trace)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["ess"] / 100000 - 1 / 3) / (1 / 3) < 0.2

    short = tmp_path / "short.csv"
    short.write_text("step,accepted,x_0\n0,1,0.5\n1,1,0.25\n")
    assert run_cli(["ess", "--trace", str(short)]) == 2


def test_ess_from_run_config(capsys):
    assert run_cli(["ess", "--kind", "mala", "--target", "mog2", "--eps", "0.05",
                    "--steps", "2000", "--burn-in", "200", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 1800 and report["accept_rate"] is not None
    # multi-chain ESS belongs to `sample`
    assert run_cli(["ess", "--kind", "mala", "--target", "mog2", "--eps", "0.05",
                    "--steps", "2000", "--burn-in", "200", "--chains", "3"]) == 2


def test_ess_iid_fixture(tmp_path, capsys):
    from imcmc.core import make_rng

    trace = tmp_path / "iid.csv"
    s = make_rng(1).standard_normal(50000)
    trace.write_text("\n".join(["step,accepted,x_0"]
                               + [f"{i},1,{float(v)!r}" for i, v in enumerate(s)]) + "\n")
    assert run_cli(["ess", "--trace", str(trace)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 0.75 <= report["ess"] / 50000 <= 1.25


def test_verify_suites_pass(capsys):
    assert run_cli(["verify", "reductions"]) == 0
    out = capsys.readouterr().out
    assert "0 failures" in out


def test_verify_summary_reports_wall_time(capsys, monkeypatch):
    from imcmc import suite

    with monkeypatch.context() as patched:
        patched.setattr(suite, "run_involutions", lambda: [
            suite.CheckResult("a", "involution", 0.0, 1e-10, True),
            suite.CheckResult("b", "involution", 1.0, 1e-10, False)])
        clock = iter([10.0, 10.254])
        patched.setattr(cli.time, "perf_counter", lambda: next(clock))
        assert run_cli(["verify", "involutions"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "2 checks, 1 failures in 0.25 s"
    assert run_cli(["verify", "reductions"]) == 0
    summary = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"\d+ checks, 0 failures in \d+\.\d\d s", summary)


def test_verify_mutant_fails(capsys, monkeypatch):
    from imcmc import suite

    built = []
    inner = suite.mutant_case

    def counting():
        built.append(1)
        return inner()

    monkeypatch.setattr(suite, "mutant_case", counting)
    for which in ("stationarity", "all"):
        built.clear()
        assert run_cli(["verify", which, "--mutant"]) == 1
        # the injected row reuses the suite's mutant row
        assert len(built) == 1, which
        out = capsys.readouterr().out
        assert "injected_mutant" in out
        rows = {line.split()[1]: line.split() for line in out.splitlines()
                if line.startswith("[")}
        injected, suite_row = rows["injected_mutant"], rows["mutant_mh"]
        assert injected[0] == "[FAIL]" and suite_row[0] == "[pass]"
        assert suite_row[2] == "stationarity-must-fail"
        # the same residual, printed once as a failure and once as the control
        assert injected[3] == suite_row[3]


def test_bench_table_format(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = run_cli(["bench", "--target", "mog2", "--chains", "3",
                    "--steps", "2000", "--burn-in", "200", "--seed", "5",
                    "--eps", "0.05", "--alpha", "0.8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == [
        "sampler", "target", "chains", "n", "ess_mean", "ess_std",
        "ess_per_sec_mean", "ess_per_sec_std", "accept_rate", "seconds"]
    assert [ln.split(",")[0] for ln in lines[1:]] == [
        "mala", "irr_mala", "nice_mc", "irr_nice_mc"]
    for ln in lines[1:]:
        fields = ln.split(",")
        assert float(fields[4]) > 0.0  # ess_mean
        assert float(fields[6]) > 0.0  # ess_per_sec_mean


def test_bench_rejects_unknown_target(tmp_path):
    assert run_cli(["bench", "--target", "normal1d", "--chains", "2",
                    "--steps", "100", "--burn-in", "10", "--eps", "0.1"]) == 2


def test_bench_missing_dataset_file(tmp_path):
    assert run_cli(["bench", "--target", "logreg", "--dataset",
                    str(tmp_path / "nope.csv"), "--chains", "2",
                    "--steps", "100", "--burn-in", "10", "--eps", "0.1"]) == 2


# argv with {tmp} for a scratch directory holding fmt.cfg, and the one line
# the CLI writes to stderr
BAD_INPUTS = {
    "sample_format_flag": (
        ["sample", "--kind", "mala", "--target", "mog2", "--format", "json",
         "--out", "{tmp}"],
        "error: unrecognized arguments: --format json"),
    "ess_format_flag": (
        ["ess", "--kind", "mala", "--target", "mog2", "--format", "json"],
        "error: unrecognized arguments: --format json"),
    "bad_int_flag": (
        ["sample", "--kind", "mala", "--target", "mog2", "--steps", "many"],
        "error: argument --steps: invalid int value: 'many'"),
    "no_command": ([], "error: the following arguments are required: command"),
    "sample_fmt_key": (
        ["sample", "--config", "{tmp}/fmt.cfg", "--out", "{tmp}"],
        "error: the fmt key (--format) applies to bench only"),
    "stuck_chain": (
        ["sample", "--kind", "hmc", "--target", "mog2", "--eps", "1e9", "--k", "2",
         "--steps", "200", "--burn-in", "10", "--out", "{tmp}"],
        "error: chain 0 accepted no proposals in its 190 steps after burn-in "
        "(acceptance 0), so its ESS is undefined"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, capsys, case):
    argv, line = BAD_INPUTS[case]
    (tmp_path / "fmt.cfg").write_text("kind = mala\ntarget = mog2\nfmt = json\n")
    code = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [line]
    # a failed run leaves no partial output
    assert not list(tmp_path.glob("chain_*.csv"))
    assert not (tmp_path / "summary.json").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--help"])
    assert exc.value.code == 0
    assert "--kind" in capsys.readouterr().out


def test_density_error_mid_chain_exits_1(tmp_path, capsys, monkeypatch):
    def nan_above_one(name, dataset=None):
        # standard normal, undefined beyond x = 1
        def logpdf(x):
            return math.nan if x[0] > 1.0 else -0.5 * float(x @ x)

        return {"density": LogDensity(dim=1, logpdf=logpdf, grad=lambda x: -x),
                "x0": np.zeros(1)}

    monkeypatch.setattr(cli, "build_target", nan_above_one)
    assert run_cli(["sample", "--kind", "hmc", "--target", "normal1d", "--eps", "0.5",
                    "--k", "4", "--steps", "500", "--burn-in", "50",
                    "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.fullmatch(r"error: hmc step \d+: hmc: joint log-density is NaN", err[0])
    assert not list(tmp_path.glob("chain_*.csv"))
