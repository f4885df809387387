"""Command-line front end: sample, verify, ess, bench.

Exit codes are a stable contract: 0 on success, 1 when a verification suite
reports a failure, 2 for configuration errors.  Output files are written
atomically (temp file then rename).  ``IMCMC_SEED`` provides a seed when no
flag or config key does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import batch
from .core import chain_rngs, run_chain
from .diagnostics import acceptance_rate, ess_batch_means
from .errors import ConfigError, DegenerateSeriesError, DensityError, ImcmcError
from .maps import (CouplingMap, LeapfrogConfig, affine_x_flow, identity_flow,
                   leapfrog_flow)
from .samplers import (
    default_init,
    gaussian_family,
    make_cdf_deterministic,
    make_directional_map,
    make_embedded_flow,
    make_hamiltonian,
    make_irr_mala,
    make_irr_nice_mc,
    make_lifted_rw1d,
    make_look_ahead,
    make_mh,
    make_multiple_try,
    make_persistent,
    mala_proposal,
    random_walk_proposal,
)
from .targets import (
    LogisticPosterior,
    _csv_lines,
    _finite_csv_rows,
    exponential_cdf1d,
    load_dataset,
    mixture_1d,
    mog2,
    normal_cdf1d,
    standard_normal,
    uniform_cdf1d,
)

# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def parse_config_file(path: str) -> dict:
    """Flat key-value file (a TOML-compatible subset): `key = value` lines."""
    out: dict = {}
    for ln_no, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln_no}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if value.startswith(("'", '"')) and value.endswith(value[0]) and len(value) >= 2:
            out[key] = value[1:-1]
            continue
        for cast in (int, float):
            try:
                out[key] = cast(value)
                break
            except ValueError:
                continue
        else:
            out[key] = value
    return out


@dataclasses.dataclass
class RunConfig:
    """Validated run description shared by `sample` and `bench`."""

    kind: str
    target: str
    steps: int = 20000
    burn_in: int = 1000
    chains: int = 1
    seed: int = 0
    out: Optional[str] = None
    fmt: str = "csv"
    jobs: int = 1
    params: dict = dataclasses.field(kw_only=True)

    def __post_init__(self):
        if self.chains < 1:
            raise ConfigError("need at least one chain")
        if self.jobs < 1:
            raise ConfigError("need at least one job")
        if not self.steps > self.burn_in >= 0:
            raise ConfigError("need steps > burn_in >= 0")


def _parse_seed(value, source: str) -> int:
    """A seed as a non-negative integer; anything else is a ConfigError."""
    try:
        seed = int(str(value))
    except ValueError:
        seed = -1
    if seed < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {value!r}")
    return seed


# the numeric settings that count something
_COUNT_KEYS = ("k", "K", "steps", "burn_in", "chains", "jobs")


def _parse_number(key: str, value):
    """A numeric setting as a finite float, or an int for the counts in
    ``_COUNT_KEYS``; anything else is a ConfigError."""
    count = key in _COUNT_KEYS
    try:
        num = float(value)
    except (TypeError, ValueError, OverflowError):
        num = math.nan
    if not math.isfinite(num) or (count and not num.is_integer()):
        raise ConfigError(f"{key} must be a finite {'integer' if count else 'number'}, "
                          f"got {value!r}")
    return int(num) if count else num


# ---------------------------------------------------------------------------
# target and sampler construction
# ---------------------------------------------------------------------------

def build_target(name: str, dataset: Optional[str] = None):
    """Named target: density, starting point, and optional extras."""
    if name == "mog2":
        return {"density": mog2(), "x0": np.array([2.0, 0.0])}
    if name == "normal":
        return {"density": standard_normal(2), "x0": np.zeros(2)}
    if name == "normal1d":
        return {"density": standard_normal(1), "x0": np.zeros(1),
                "cdf": normal_cdf1d()}
    if name == "bimodal1d":
        return {"density": mixture_1d([-1.5, 1.5], 0.6), "x0": np.array([1.5])}
    if name == "exponential":
        c = exponential_cdf1d()
        return {"density": c.density, "x0": np.ones(1), "cdf": c}
    if name == "uniform":
        c = uniform_cdf1d()
        return {"density": c.density, "x0": np.full(1, 0.5), "cdf": c}
    if name == "logreg":
        if not dataset:
            raise ConfigError("the logreg target needs --dataset")
        try:
            ds = load_dataset(dataset)
        except (DensityError, OSError) as exc:
            raise ConfigError(str(exc)) from None
        post = LogisticPosterior(ds.X, ds.y)
        return {"density": post.density(), "x0": np.zeros(post.dim),
                "posterior": post}
    raise ConfigError(f"unknown target {name!r}")


def default_coupling(target_name: str, dim: int) -> CouplingMap:
    """Hand-parameterized volume-preserving proposal map.

    Swap plus a moment-matched componentwise rescale plus a small smooth
    shift; for the two-mode target the scales match its marginal spread so
    proposals reach both modes.
    """
    if target_name == "mog2":
        scales = np.array([math.sqrt(4.5), math.sqrt(0.5)])
    else:
        scales = np.ones(dim)

    def small_shift(y):
        return 0.1 * np.tanh(y / 3.0)

    return CouplingMap([("swap",), ("linear", scales, 1.0 / scales),
                        ("add_v", small_shift)],
                       name=f"{target_name}_coupling")


class _Kind(NamedTuple):
    """A CLI sampler kind: the inclusive range of each checked parameter, the
    default of each one a run may leave out, its kernel builder and, for the
    kinds `bench` runs, its row runner.  A runner looks its `batch` function
    up when called, so a wrapper installed on the module at run time (the
    benchmark's tracer) is the one it calls."""

    ranges: dict
    defaults: dict
    build: Callable  # (density, params, target_name, target) -> kernel
    bench: Optional[Callable] = None  # (row density, params, cfg, rng, x0) -> BatchResult


_POSITIVE, _STEPS, _UNIT = (1e-12, math.inf), (1, 1e9), (0.0, 1.0)


def _neutra(density, p, name, tgt):
    shift, scale, d = p["flow_shift"], p["flow_scale"], density.dim
    flow = (identity_flow() if shift == 0.0 and scale == 1.0
            else affine_x_flow(np.full(d, shift), np.full(d, scale)))
    return make_embedded_flow(density, flow, LeapfrogConfig(p["eps"], int(p["k"])))


def _cdf(density, p, name, tgt):
    if "cdf" not in tgt:
        raise ConfigError(f"target {name!r} has no tractable CDF")
    return make_cdf_deterministic(tgt["cdf"], p["shift"])


# every kind the CLI runs, in the order README lists them
KINDS: dict[str, _Kind] = {
    "rwm": _Kind(
        {"scale": _POSITIVE}, {},
        lambda density, p, name, tgt: make_mh(
            density, random_walk_proposal(density.dim, p["scale"]))),
    "mala": _Kind(
        {"eps": _POSITIVE}, {},
        lambda density, p, name, tgt: make_mh(density, mala_proposal(density, p["eps"])),
        lambda bt, p, cfg, rng, x0: batch.batch_mala(
            bt, p["eps"], cfg.chains, cfg.steps, rng, x0)),
    "irr_mala": _Kind(
        {"eps": _POSITIVE}, {},
        lambda density, p, name, tgt: make_irr_mala(density, p["eps"]),
        lambda bt, p, cfg, rng, x0: batch.batch_irr_mala(
            bt, p["eps"], cfg.chains, cfg.steps, rng, x0)),
    "hmc": _Kind(
        {"eps": _POSITIVE, "k": _STEPS}, {},
        lambda density, p, name, tgt: make_hamiltonian(
            density, LeapfrogConfig(p["eps"], int(p["k"])))),
    "persistent_hmc": _Kind(
        {"eps": _POSITIVE, "k": _STEPS, "alpha": _UNIT}, {},
        lambda density, p, name, tgt: make_persistent(density, leapfrog_flow(
            LeapfrogConfig(p["eps"], int(p["k"])), density.grad), p["alpha"])),
    "look_ahead": _Kind(
        {"eps": _POSITIVE, "K": (1, 16), "alpha": _UNIT}, {},
        lambda density, p, name, tgt: make_look_ahead(density, leapfrog_flow(
            LeapfrogConfig(p["eps"], 1), density.grad), int(p["K"]), p["alpha"])),
    "neutra": _Kind(
        {"eps": _POSITIVE, "k": _STEPS}, {"flow_shift": 0.0, "flow_scale": 1.0},
        _neutra),
    "nice_mc": _Kind(
        {}, {},
        lambda density, p, name, tgt: make_directional_map(
            density, default_coupling(name, density.dim)),
        lambda bt, p, cfg, rng, x0: batch.batch_nice_mc(
            bt, default_coupling(cfg.target, bt.dim), cfg.chains, cfg.steps, rng, x0)),
    "irr_nice_mc": _Kind(
        {"alpha": _UNIT}, {"alpha": 0.8},
        lambda density, p, name, tgt: make_irr_nice_mc(
            density, default_coupling(name, density.dim), p["alpha"]),
        lambda bt, p, cfg, rng, x0: batch.batch_irr_nice_mc(
            bt, default_coupling(cfg.target, bt.dim), p["alpha"], cfg.chains, cfg.steps,
            rng, x0)),
    "mtm": _Kind(
        {"scale": _POSITIVE, "k": (1, 64)}, {},
        lambda density, p, name, tgt: make_multiple_try(
            density, gaussian_family(density.dim, p["scale"] ** 2), int(p["k"]))),
    "lifted_rw": _Kind(
        {"scale": _POSITIVE}, {},
        lambda density, p, name, tgt: make_lifted_rw1d(density, p["scale"])),
    "cdf": _Kind({}, {"shift": None}, _cdf),
}

BENCH_KINDS = tuple(kind for kind, spec in KINDS.items() if spec.bench)


def kind_params(kind: str, params: dict) -> dict:
    """``params`` with ``kind``'s defaults filled in, each checked parameter
    present and inside its range; anything else is a ConfigError."""
    spec = KINDS.get(kind)
    if spec is None:
        raise ConfigError(f"unknown sampler kind {kind!r}; "
                          f"known: {', '.join(sorted(KINDS))}")
    p = {**spec.defaults, **params}
    for name, (lo, hi) in spec.ranges.items():
        if name not in p:
            raise ConfigError(f"{kind} needs parameter {name!r}")
        if not lo <= p[name] <= hi:
            raise ConfigError(f"{kind}: {name}={p[name]} outside [{lo}, {hi}]")
    return p


def build_kernel(cfg: RunConfig, tgt: dict):
    p = kind_params(cfg.kind, cfg.params)
    return KINDS[cfg.kind].build(tgt["density"], p, cfg.target, tgt)


# ---------------------------------------------------------------------------
# atomic output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def write_trace_csv(path: Path, xs: np.ndarray, accepted: np.ndarray):
    d = xs.shape[1]
    header = "step,accepted," + ",".join(f"x_{i}" for i in range(d))
    lines = [header]
    for i in range(xs.shape[0]):
        coords = ",".join(repr(float(v)) for v in xs[i])
        lines.append(f"{i},{int(accepted[i])},{coords}")
    _atomic_write(path, "\n".join(lines) + "\n")


def read_trace_csv(path: Path) -> np.ndarray:
    """The ``x_*`` columns of a trace file, (steps, dims).  A file that is
    not UTF-8 text, a row with another number of fields than the header, a
    field that is not a number or a NaN or infinite value is a ConfigError
    naming the row (the header is row 1), as is a file that cannot be read."""
    try:
        lines = _csv_lines(path)
        header = lines[0].split(",") if lines else []
        cols = [i for i, name in enumerate(header) if name.startswith("x_")]
        if not cols:
            raise ConfigError(f"{path}: no x_* columns found")
        return _finite_csv_rows(path, lines[1:], 2, len(header))[:, cols]
    except (DensityError, OSError) as exc:
        raise ConfigError(str(exc)) from None


def _aggregate(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    return {"mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _chain_worker(cfg: RunConfig, rng: np.random.Generator
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """One chain on a target and kernel built for it alone, as a process-pool
    worker needs."""
    tgt = build_target(cfg.target, cfg.params.get("dataset"))
    return _timed_chain(cfg, tgt, build_kernel(cfg, tgt), rng)


def _timed_chain(cfg: RunConfig, tgt: dict, kernel, rng: np.random.Generator
                 ) -> tuple[np.ndarray, np.ndarray, float]:
    t0 = time.perf_counter()
    res = run_chain(kernel, default_init(kernel, tgt["x0"]), cfg.steps, rng=rng)
    return res.xs, res.accepted_all(), time.perf_counter() - t0


def _chain_report(cfg: RunConfig, index: int, xs: np.ndarray,
                  accepted: np.ndarray, seconds: float):
    """Batch-means ESS of one chain's steps after burn-in."""
    kept = xs[cfg.burn_in:]
    try:
        return ess_batch_means(kept, seconds=seconds * kept.shape[0] / xs.shape[0],
                               accept_rate=acceptance_rate(accepted))
    except DegenerateSeriesError:
        if np.any(accepted[cfg.burn_in:]):
            raise
        raise DegenerateSeriesError(
            f"chain {index} accepted no proposals in its {kept.shape[0]} steps "
            "after burn-in (acceptance 0), so its ESS is undefined") from None


def cmd_sample(cfg: RunConfig) -> dict:
    out_dir = Path(cfg.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)

    rngs = chain_rngs(cfg.seed, cfg.chains)
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_chain_worker, [cfg] * cfg.chains, rngs))
    else:
        # every chain on one target and kernel: their memos only ever hand
        # back what the functions would compute, so the chains are unchanged
        tgt = build_target(cfg.target, cfg.params.get("dataset"))
        kernel = build_kernel(cfg, tgt)
        results = [_timed_chain(cfg, tgt, kernel, rng) for rng in rngs]

    # every report before any file, so a chain without an ESS leaves no output
    reports = [_chain_report(cfg, i, xs, accepted, seconds)
               for i, (xs, accepted, seconds) in enumerate(results)]
    for i, (xs, accepted, _) in enumerate(results):
        write_trace_csv(out_dir / f"chain_{i:03d}.csv", xs, accepted)

    summary = {
        "kind": cfg.kind,
        "target": cfg.target,
        "chains": cfg.chains,
        "n": cfg.steps - cfg.burn_in,
        "dims": int(results[0][0].shape[1]),
        "ess": _aggregate([r.ess for r in reports]),
        "iact": _aggregate([r.iact for r in reports]),
        "ess_per_sec": _aggregate([r.ess_per_sec for r in reports]),
        "accept_rate": _aggregate([r.accept_rate for r in reports]),
    }
    _atomic_write(out_dir / "summary.json", json.dumps(summary, indent=2) + "\n")
    return summary


# the `verify` suites, each run by the function ``suite.run_<name>``
_VERIFY_SUITES = ("involutions", "stationarity", "balance", "reductions", "all")


def cmd_verify(suite: str, mutant: bool) -> int:
    from . import suite as vs

    t0 = time.perf_counter()
    results = getattr(vs, f"run_{suite}")()
    if mutant:
        # inject the broken-acceptance fixture as a live check: it must make
        # the suite fail, demonstrating the oracle's discriminative power; a
        # suite that already ran the mutant lends its row
        row = next((r for r in results if r.case == "mutant_mh"), None)
        if row is None:
            row = vs._mutant_check()
        results.append(vs.CheckResult("injected_mutant", "stationarity",
                                      row.value, row.threshold, not row.passed))
    seconds = time.perf_counter() - t0
    failures = 0
    for r in results:
        print(r.line())
        failures += 0 if r.passed else 1
    print(f"{len(results)} checks, {failures} failures in {seconds:.2f} s")
    return 1 if failures else 0


def cmd_ess(trace: Optional[str], cfg: Optional[RunConfig]) -> dict:
    """ESS report from a trace file, or from running a configured chain."""
    if trace is not None:
        return ess_batch_means(read_trace_csv(Path(trace))).to_json()
    if cfg is None:
        raise ConfigError("ess needs --trace or a run configuration")
    if cfg.chains != 1:
        raise ConfigError("ess from a config runs a single chain; "
                          "use `sample` for multi-chain summaries")
    return _chain_report(cfg, 0, *_chain_worker(cfg, chain_rngs(cfg.seed, 1)[0])).to_json()


def cmd_bench(cfg: RunConfig, samplers: list[str]) -> list[dict]:
    """Benchmark table: per-sampler ESS and ESS/sec, mean and std over chains.

    ESS is reported per kept sample (the batch-means estimate divided by the
    kept chain length); ESS/sec is absolute effective samples per second of
    sampling time.
    """
    tgt = build_target(cfg.target, cfg.params.get("dataset"))
    if cfg.target == "mog2":
        bt = batch.mog2_batch()
    elif cfg.target == "logreg":
        bt = batch.logreg_batch(tgt["posterior"])
    else:
        raise ConfigError(f"bench supports mog2 and logreg targets, not {cfg.target!r}")
    if not samplers:
        raise ConfigError("bench needs at least one sampler (--samplers)")
    # every kind and its parameters before any runner, so a bad one wastes no run
    for kind in samplers:
        if kind not in BENCH_KINDS:
            raise ConfigError(f"bench supports {', '.join(BENCH_KINDS)}; got {kind!r}")
    params = {kind: kind_params(kind, cfg.params) for kind in samplers}

    rows = []
    for kind in samplers:
        rng = chain_rngs(cfg.seed, 1)[0]
        t0 = time.perf_counter()
        res = KINDS[kind].bench(bt, params[kind], cfg, rng, tgt["x0"])
        seconds = time.perf_counter() - t0
        per_chain_sec = seconds / cfg.chains
        kept = res.xs[cfg.burn_in:]
        n_kept = kept.shape[0]
        ess_vals, speed_vals = [], []
        for c in range(cfg.chains):
            rep = ess_batch_means(kept[:, c, :])
            ess_vals.append(rep.ess / n_kept)
            speed_vals.append(rep.ess / per_chain_sec)
        rows.append({
            "sampler": kind,
            "target": cfg.target,
            "chains": cfg.chains,
            "n": n_kept,
            "accept_rate": float(res.accepted.mean()),
            "seconds": seconds,
            "ess": _aggregate(ess_vals),
            "ess_per_sec": _aggregate(speed_vals),
        })
    return rows


def _bench_table(rows: list[dict]) -> str:
    lines = ["sampler,target,chains,n,ess_mean,ess_std,ess_per_sec_mean,"
             "ess_per_sec_std,accept_rate,seconds"]
    for r in rows:
        lines.append(
            f"{r['sampler']},{r['target']},{r['chains']},{r['n']},"
            f"{r['ess']['mean']:.6g},{r['ess']['std']:.6g},"
            f"{r['ess_per_sec']['mean']:.6g},{r['ess_per_sec']['std']:.6g},"
            f"{r['accept_rate']:.4f},{r['seconds']:.2f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# one flag per parameter any kind takes
_PARAM_FLAGS = tuple(dict.fromkeys(
    name for spec in KINDS.values() for name in (*spec.ranges, *spec.defaults)))


def _add_run_flags(sp):
    sp.add_argument("--config", help="flat key=value config file")
    sp.add_argument("--kind")
    sp.add_argument("--target")
    sp.add_argument("--dataset", help="CSV path for the logreg target")
    sp.add_argument("--steps", type=int)
    sp.add_argument("--burn-in", dest="burn_in", type=int)
    sp.add_argument("--chains", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out")
    sp.add_argument("--jobs", type=int)
    for flag in _PARAM_FLAGS:
        sp.add_argument(f"--{flag.replace('_', '-')}", dest=flag, type=float)


def _make_config(args, need_kind: bool = True) -> RunConfig:
    """Merge the config file, the flags and the defaults.

    ``need_kind`` is False for `bench` only, which runs several kinds and is
    the one subcommand with an output format.
    """
    merged: dict = {}
    if args.config:
        merged.update(parse_config_file(args.config))
    if need_kind and "fmt" in merged:
        raise ConfigError("the fmt key (--format) applies to bench only")
    for key in ("kind", "target", "dataset", "steps", "burn_in", "chains",
                "seed", "out", "fmt", "jobs", *_PARAM_FLAGS):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    kind = merged.get("kind")
    target = merged.get("target")
    if need_kind and not kind:
        raise ConfigError("a sampler kind is required (--kind)")
    if not target:
        raise ConfigError("a target is required (--target)")
    params = {k: _parse_number(k, merged[k]) for k in _PARAM_FLAGS if k in merged}
    counts = {f.name: _parse_number(f.name, merged.get(f.name, f.default))
              for f in dataclasses.fields(RunConfig)
              if f.name in ("steps", "burn_in", "chains", "jobs")}
    if merged.get("dataset"):
        params["dataset"] = merged["dataset"]
    if merged.get("seed") is not None:
        seed = _parse_seed(merged["seed"], "seed")
    else:
        seed = _parse_seed(os.environ.get("IMCMC_SEED") or 0, "IMCMC_SEED")
    return RunConfig(kind=kind or "", target=target, seed=seed,
                     out=merged.get("out"), fmt=merged.get("fmt", "csv"),
                     params=params, **counts)


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as a `ConfigError`, so it gets the
    one-line ``error:`` message and exit code 2 of every configuration
    error instead of argparse's usage block and ``SystemExit``."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: Optional[list[str]] = None) -> int:
    parser = _Parser(
        prog="imcmc",
        description="involutive kernel samplers, verification oracles, benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="run chains and write traces")
    _add_run_flags(sp)

    vp = sub.add_parser("verify", help="run the exact verification suites")
    vp.add_argument("suite", choices=_VERIFY_SUITES)
    vp.add_argument("--mutant", action="store_true",
                    help="inject a broken kernel; the suite must then fail")

    ep = sub.add_parser("ess", help="batch-means ESS of a trace or a fresh run")
    ep.add_argument("--trace")
    _add_run_flags(ep)

    bp = sub.add_parser("bench", help="benchmark table over samplers")
    _add_run_flags(bp)
    bp.add_argument("--format", dest="fmt", choices=("csv", "json"))
    bp.add_argument("--samplers", default=",".join(BENCH_KINDS),
                    help="comma-separated subset of " + ",".join(BENCH_KINDS))

    try:
        args = parser.parse_args(argv)
        if args.command == "sample":
            summary = cmd_sample(_make_config(args))
            print(json.dumps(summary, indent=2))
            return 0
        if args.command == "verify":
            return cmd_verify(args.suite, mutant=args.mutant)
        if args.command == "ess":
            cfg = None if args.trace else _make_config(args)
            report = cmd_ess(args.trace, cfg)
            text = json.dumps(report, indent=2)
            if args.out:
                _atomic_write(Path(args.out), text + "\n")
            print(text)
            return 0
        if args.command == "bench":
            cfg = _make_config(args, need_kind=False)
            if "eps" not in cfg.params:
                cfg.params["eps"] = 0.1
            rows = cmd_bench(cfg, [s.strip() for s in args.samplers.split(",") if s.strip()])
            if cfg.fmt == "json":
                text = json.dumps(rows, indent=2)
            else:
                text = _bench_table(rows)
            if cfg.out:
                out = Path(cfg.out)
                out.parent.mkdir(parents=True, exist_ok=True)
                _atomic_write(out, text if text.endswith("\n") else text + "\n")
            print(text)
            return 0
    except (ConfigError, DegenerateSeriesError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ImcmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
