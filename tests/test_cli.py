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
    assert cli.kind_params("irr_nice_mc", {})["alpha"] == 0.8
    base = ["sample", "--kind", "irr_nice_mc", "--target", "mog2", "--steps", "200",
            "--burn-in", "20", "--seed", "2"]
    assert run_cli(base + ["--out", str(tmp_path / "default")]) == 0
    assert run_cli(base + ["--alpha", "0.8", "--out", str(tmp_path / "set")]) == 0
    assert ((tmp_path / "default" / "chain_000.csv").read_bytes()
            == (tmp_path / "set" / "chain_000.csv").read_bytes())


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


def test_bench_checks_every_kind_before_running_any(monkeypatch, capsys):
    from imcmc import batch

    calls = []
    inner = batch.batch_mala
    monkeypatch.setattr(batch, "batch_mala",
                        lambda *args: calls.append(1) or inner(*args))
    base = ["bench", "--target", "mog2", "--chains", "2", "--steps", "100",
            "--burn-in", "10"]
    for extra, line in (
            (["--samplers", "mala,hmc"],
             "error: bench supports mala, irr_mala, nice_mc, irr_nice_mc; got 'hmc'"),
            (["--samplers", "mala,irr_nice_mc", "--alpha", "2"],
             "error: irr_nice_mc: alpha=2.0 outside [0.0, 1.0]")):
        assert run_cli(base + extra) == 2
        assert capsys.readouterr().err.splitlines() == [line]
    assert calls == []
    assert run_cli(base + ["--samplers", "mala"]) == 0
    assert calls == [1]


def test_readme_lists_every_kind_in_table_order():
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"Sampler kinds for `sample`: (.*?)\.", readme, re.S).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(cli.KINDS)


# files written to the scratch directory before each bad-input case
BAD_INPUT_FILES = {
    "fmt.cfg": "kind = mala\ntarget = mog2\nfmt = json\n",
    "k.cfg": "kind = hmc\ntarget = mog2\neps = 0.1\nk = abc\n",
    "steps.cfg": "kind = mala\ntarget = mog2\neps = 0.1\nsteps = abc\n",
    "scale.cfg": "kind = rwm\ntarget = mog2\nscale = abc\n",
    "header.csv": "a,b,label\n",
    "labels.csv": "1.0,2.0,0\n3.0,1.0,2\n",
    "ragged.csv": "1.0,2.0,0\n1.0,1\n",
    "empty.csv": "",
    "latin1.csv": "caf\u00e9,label\n1.0,0\n",
    "nan.csv": "a,b,label\n1.0,2.0,0\n3.0,nan,1\n",
    "inf.csv": "-inf,2.0,0\n3.0,1.0,1\n",
    "trace_ragged.csv": "step,accepted,x_0,x_1\n0,1,0.5,0.25\n1,1,0.5\n",
    "trace_text.csv": "step,accepted,x_0\n0,1,0.5\n1,1,half\n",
    "trace_latin1.csv": "step,accepted,x_0\n0,1,0.5\n1,1,caf\u00e9\n",
    "trace_nan.csv": "step,accepted,x_0\n0,1,0.5\n1,1,NaN\n",
    "trace_inf.csv": "step,accepted,x_0\n0,1,inf\n1,1,0.5\n",
}

# argv and the one line the CLI writes to stderr, with {tmp} for the
# scratch directory holding BAD_INPUT_FILES
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
    "k_nan": (
        ["sample", "--kind", "hmc", "--target", "mog2", "--eps", "0.1", "--k", "nan",
         "--out", "{tmp}"],
        "error: k must be a finite integer, got nan"),
    "k_inf": (
        ["sample", "--kind", "hmc", "--target", "mog2", "--eps", "0.1", "--k", "inf",
         "--out", "{tmp}"],
        "error: k must be a finite integer, got inf"),
    "k_fraction": (
        ["sample", "--kind", "hmc", "--target", "mog2", "--eps", "0.1", "--k", "2.5",
         "--out", "{tmp}"],
        "error: k must be a finite integer, got 2.5"),
    "jobs_negative": (
        ["sample", "--kind", "mala", "--target", "mog2", "--eps", "0.1", "--jobs", "-3",
         "--out", "{tmp}"],
        "error: need at least one job"),
    "k_key_not_a_number": (
        ["sample", "--config", "{tmp}/k.cfg", "--out", "{tmp}"],
        "error: k must be a finite integer, got 'abc'"),
    "steps_key_not_a_number": (
        ["sample", "--config", "{tmp}/steps.cfg", "--out", "{tmp}"],
        "error: steps must be a finite integer, got 'abc'"),
    "scale_key_not_a_number": (
        ["sample", "--config", "{tmp}/scale.cfg", "--out", "{tmp}"],
        "error: scale must be a finite number, got 'abc'"),
    "dataset_header_only": (
        ["sample", "--kind", "mala", "--target", "logreg", "--eps", "0.1",
         "--dataset", "{tmp}/header.csv", "--out", "{tmp}"],
        "error: {tmp}/header.csv: no data rows"),
    "dataset_label_not_binary": (
        ["sample", "--kind", "mala", "--target", "logreg", "--eps", "0.1",
         "--dataset", "{tmp}/labels.csv", "--out", "{tmp}"],
        "error: {tmp}/labels.csv: non-binary label at row 2"),
    "dataset_ragged_row": (
        ["sample", "--kind", "mala", "--target", "logreg", "--eps", "0.1",
         "--dataset", "{tmp}/ragged.csv", "--out", "{tmp}"],
        "error: {tmp}/ragged.csv: malformed row 2 (expected 3 fields)"),
    "dataset_empty": (
        ["sample", "--kind", "mala", "--target", "logreg", "--eps", "0.1",
         "--dataset", "{tmp}/empty.csv", "--out", "{tmp}"],
        "error: {tmp}/empty.csv: empty dataset"),
    "dataset_not_utf8": (
        ["sample", "--kind", "mala", "--target", "logreg", "--eps", "0.1",
         "--dataset", "{tmp}/latin1.csv", "--out", "{tmp}"],
        "error: {tmp}/latin1.csv: not UTF-8 text (invalid continuation byte)"),
    "dataset_nan_covariate": (
        ["sample", "--kind", "mala", "--target", "logreg", "--eps", "0.1",
         "--dataset", "{tmp}/nan.csv", "--out", "{tmp}"],
        "error: {tmp}/nan.csv: non-finite value nan in row 3"),
    "dataset_inf_covariate": (
        ["sample", "--kind", "mala", "--target", "logreg", "--eps", "0.1",
         "--dataset", "{tmp}/inf.csv", "--out", "{tmp}"],
        "error: {tmp}/inf.csv: non-finite value -inf in row 1"),
    "trace_ragged_row": (
        ["ess", "--trace", "{tmp}/trace_ragged.csv"],
        "error: {tmp}/trace_ragged.csv: malformed row 3 (expected 4 fields)"),
    "trace_not_a_number": (
        ["ess", "--trace", "{tmp}/trace_text.csv"],
        "error: {tmp}/trace_text.csv: malformed row 3"),
    "trace_not_utf8": (
        ["ess", "--trace", "{tmp}/trace_latin1.csv"],
        "error: {tmp}/trace_latin1.csv: not UTF-8 text (invalid continuation byte)"),
    "trace_nan": (
        ["ess", "--trace", "{tmp}/trace_nan.csv"],
        "error: {tmp}/trace_nan.csv: non-finite value nan in row 3"),
    "trace_inf": (
        ["ess", "--trace", "{tmp}/trace_inf.csv"],
        "error: {tmp}/trace_inf.csv: non-finite value inf in row 2"),
    "trace_is_a_directory": (
        ["ess", "--trace", "{tmp}"],
        "error: [Errno 21] Is a directory: '{tmp}'"),
    "dataset_is_a_directory": (
        ["sample", "--kind", "mala", "--target", "logreg", "--eps", "0.1",
         "--dataset", "{tmp}", "--out", "{tmp}"],
        "error: [Errno 21] Is a directory: '{tmp}'"),
    "verify_unknown_suite": (
        ["verify", "nosuch"],
        "error: argument suite: invalid choice: 'nosuch' (choose from 'involutions', "
        "'stationarity', 'balance', 'reductions', 'all')"),
    "bench_no_samplers": (
        ["bench", "--target", "mog2", "--samplers", ",", "--out", "{tmp}/bench.csv"],
        "error: bench needs at least one sampler (--samplers)"),
}


def _kind_parameter_rows():
    """Two rows for each parameter a kind needs: one leaving it out, and one
    setting it below its range.  The kind's other needed parameters sit at
    their lower bounds, which are inside their ranges."""
    rows = {}
    for kind, spec in cli.KINDS.items():
        needed = {name: r for name, r in spec.ranges.items() if name not in spec.defaults}
        for name, (lo, hi) in needed.items():
            argv = ["sample", "--kind", kind, "--target", "mog2", "--out", "{tmp}"]
            for other, (other_lo, _) in needed.items():
                if other != name:
                    argv += [f"--{other}", str(other_lo)]
            below = lo - 1
            rows[f"{kind}_without_{name}"] = (
                argv, f"error: {kind} needs parameter {name!r}")
            rows[f"{kind}_{name}_below_range"] = (
                argv + [f"--{name}", str(below)],
                f"error: {kind}: {name}={below} outside [{lo}, {hi}]")
    return rows


BAD_INPUTS.update(_kind_parameter_rows())


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(tmp_path, capsys, case):
    argv, line = BAD_INPUTS[case]
    for name, text in BAD_INPUT_FILES.items():
        (tmp_path / name).write_text(text, encoding="latin-1")
    code = run_cli([a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [line.replace("{tmp}", str(tmp_path))]
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


@pytest.mark.parametrize("kind, target, flags, dims", [
    ("rwm", "normal", ["--scale", "0.8"], 2),
    ("cdf", "exponential", [], 1),
    ("cdf", "uniform", [], 1),
    # the coupling's unit scales, which every target but mog2 gets
    ("nice_mc", "normal", [], 2),
    # an affine flow instead of the identity
    ("neutra", "mog2", ["--eps", "0.3", "--k", "4", "--flow-shift", "0.5",
                        "--flow-scale", "2.0"], 2),
])
def test_sample_runs_each_target_and_the_affine_flow(tmp_path, kind, target, flags, dims):
    out = tmp_path / "run"
    assert run_cli(["sample", "--kind", kind, "--target", target, *flags,
                    "--steps", "1000", "--burn-in", "100", "--seed", "6",
                    "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["kind"], summary["target"], summary["dims"]) == (kind, target, dims)
    assert read_trace_csv(out / "chain_000.csv").shape == (1000, dims)


def test_sample_chain_i_runs_on_the_ith_split_stream(tmp_path):
    from imcmc.core import chain_rngs, run_chain
    from imcmc.samplers import default_init

    out = tmp_path / "run"
    assert run_cli(["sample", "--kind", "rwm", "--target", "normal", "--scale", "0.8",
                    "--steps", "300", "--burn-in", "30", "--chains", "3", "--seed", "7",
                    "--out", str(out)]) == 0
    tgt = cli.build_target("normal")
    kernel = cli.build_kernel(cli.RunConfig(kind="rwm", target="normal",
                                            params={"scale": 0.8}), tgt)
    for i, rng in enumerate(chain_rngs(7, 3)):
        res = run_chain(kernel, default_init(kernel, tgt["x0"]), 300, rng=rng)
        assert np.array_equal(read_trace_csv(out / f"chain_{i:03d}.csv"), res.xs), i


def test_sample_in_process_builds_the_target_once(tmp_path, monkeypatch):
    from imcmc.core import make_rng

    rng = make_rng(9)
    X = rng.standard_normal((40, 2))
    y = (rng.random(40) < 1.0 / (1.0 + np.exp(-X @ [1.0, -0.5]))).astype(int)
    data = tmp_path / "toy.csv"
    data.write_text("a,b,label\n" + "".join(
        f"{a!r},{b!r},{label}\n" for (a, b), label in zip(X.tolist(), y)))
    reads = []
    load = cli.load_dataset

    def counting_load(path):
        reads.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_dataset", counting_load)
    assert run_cli(["sample", "--kind", "rwm", "--target", "logreg",
                    "--dataset", str(data), "--scale", "0.1", "--steps", "200",
                    "--burn-in", "20", "--chains", "4", "--jobs", "1", "--seed", "3",
                    "--out", str(tmp_path / "run")]) == 0
    assert len(reads) == 1
    assert sorted(p.name for p in (tmp_path / "run").glob("chain_*.csv")) == [
        f"chain_{i:03d}.csv" for i in range(4)]


def test_config_file_quoted_string_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("kind = \"rwm\"\ntarget = 'normal1d'\nscale = 0.5\n"
                   "steps = 300\nburn_in = 30\n")
    assert parse_config_file(cfg) == {"kind": "rwm", "target": "normal1d", "scale": 0.5,
                                      "steps": 300, "burn_in": 30}
    assert run_cli(["sample", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert read_trace_csv(tmp_path / "run" / "chain_000.csv").shape == (300, 1)


def test_ess_writes_the_printed_report_to_out(tmp_path, capsys):
    from imcmc.core import make_rng

    trace, out = tmp_path / "iid.csv", tmp_path / "ess.json"
    s = make_rng(2).standard_normal(1000)
    trace.write_text("\n".join(["step,accepted,x_0"]
                               + [f"{i},1,{float(v)!r}" for i, v in enumerate(s)]) + "\n")
    assert run_cli(["ess", "--trace", str(trace), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert out.read_text() == printed
    assert json.loads(printed)["n"] == 1000


def test_bench_json_format(capsys):
    assert run_cli(["bench", "--target", "mog2", "--chains", "2", "--steps", "300",
                    "--burn-in", "30", "--seed", "5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["sampler"] for r in rows] == ["mala", "irr_mala", "nice_mc", "irr_nice_mc"]
    assert all(r["chains"] == 2 and r["n"] == 270 for r in rows)


def test_bench_on_a_logreg_dataset(tmp_path, capsys):
    from imcmc.core import make_rng

    rng = make_rng(8)
    X = rng.standard_normal((60, 3))
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-X @ [1.0, -0.5, 0.25]))).astype(int)
    data = tmp_path / "toy.csv"
    data.write_text("a,b,c,label\n" + "".join(
        f"{a!r},{b!r},{c!r},{label}\n" for (a, b, c), label in zip(X.tolist(), y)))
    assert run_cli(["bench", "--target", "logreg", "--dataset", str(data),
                    "--chains", "2", "--steps", "400", "--burn-in", "40", "--seed", "5",
                    "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [(r["sampler"], r["target"]) for r in rows] == [
        (kind, "logreg") for kind in cli.BENCH_KINDS]


def test_verify_mutant_on_a_suite_without_the_mutant_row(capsys):
    assert run_cli(["verify", "involutions", "--mutant"]) == 1
    rows = [line.split() for line in capsys.readouterr().out.splitlines()
            if line.startswith("[")]
    assert [row[:3] for row in rows if row[0] == "[FAIL]"] == [
        ["[FAIL]", "injected_mutant", "stationarity"]]
    assert "mutant_mh" not in {row[1] for row in rows}
