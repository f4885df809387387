"""The four workloads: what each builds, runs, times and checks.

Every workload runs in three phases that the runner drives:

1. ``setup``: import imcmc and build the workload's targets and kernels
   (timed, repeated, reported as ``setup_s``).
2. ``reference``: one untimed pass over the workload's fixed, seed-determined
   work, with the evaluation counters (and, in a traced run, every wrapper)
   installed.  Its traces give the ESS values and the statistical checks.
3. ``op``: the timed operations, with nothing installed, repeated until the
   measuring time is spent.  Each op is checked; a chain that completes in the
   timed phase must end bitwise where the reference pass ended.

``verify`` runs the exact oracle on the finite analogs of the workload's
kernels and is timed on its own as ``verify_s``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import statistics
import time

import numpy as np

from spans import CountingRng, traced_density

# Finite-state analog in `imcmc.suite` of each sampler kind.
ORACLE_CASE = {
    "rwm": "mh_2state_metropolis",
    "mala": "mala_grid",
    "irr_mala": "irr_mala_grid",
    "hmc": "hmc_grid",
    "persistent_hmc": "persistent_hmc_grid",
    "look_ahead": "look_ahead_grid",
    "neutra": "neutra_affine_grid",
    "nice_mc": "directional_map_grid",
    "irr_nice_mc": "irr_nice_mc_grid",
    "mtm": "mtm_2state_k2",
    "lifted_rw": "lifted_3state",
    "cdf": "cdf_rotation",
}

# Mean check bound, in batch-means standard errors.  Wide, so that an honest
# chain essentially never trips it while a biased kernel still does.
Z_BOUND = 6.0


def _same_point(a, b) -> bool:
    return (np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
            and a.tags == b.tags)


def _geomean(values) -> float:
    return float(math.exp(statistics.fmean(math.log(v) for v in values)))


@dataclasses.dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


class Workload:
    """What the runner needs of a workload, with the common defaults.

    A subclass defines ``name``, ``make_inputs``, ``setup(m, timer)``,
    ``reference(m, tracer, full)``, ``verify(m)``, ``op(m)`` returning
    (seconds, passed, parts), ``checks(m)``, ``summary(m, tracer)``,
    ``end_to_end(m, summary, ops)``, ``traced_rate(summary)`` and ``params()``.
    """

    # the ops themselves time the oracle (so verify_s is read off them)
    VERIFY_IN_OPS = False
    # oracle passes per timed verification
    VERIFY_PASSES = 1
    # loops of run.Gauge that stand in for the workload's kind of work
    GAUGE = ("interpreter",)
    # the metrics scaled by the run's speed factor.  Not the tail: stalls of
    # the machine set it, and when the machine turned ~1.9x faster for
    # minutes the median op followed while the tail barely moved.
    GAUGED = ("setup_s", "chain_steps_per_s", "ess_per_s", "op_ms.p50", "verify_s")

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def round_size(self) -> int:
        """Ops that always run together, so that every round has each kind."""
        return 1


# ---------------------------------------------------------------------------
# seeded chains, run in fixed-length segments
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Group:
    """``chains`` chains of one kernel, each ``n_steps`` long, in segments.

    A segment is one ``run_chain`` call of ``seg_len`` steps that continues
    the chain from the previous segment's final point with the same ``rng``
    object.  ESS is the batch-means ESS of ``window``-step windows of each
    chain: (number of windows) times the median window ESS.  With ``window``
    0 the workload supplies the ESS itself.
    """

    kind: str
    kernel: object
    inits: list
    seeds: list
    seg_len: int
    n_steps: int
    window: int
    # filled by the reference pass
    xs: list = dataclasses.field(default_factory=list)
    accepted: list = dataclasses.field(default_factory=list)
    finals: list = dataclasses.field(default_factory=list)
    ref_seconds: float = 0.0
    # position of the timed phase: (chain, segment, rng, point)
    _cursor: tuple = (0, 0, None, None)

    @property
    def segments(self) -> int:
        return self.n_steps // self.seg_len

    def run_reference(self, core, kernel, tracer, full):
        for seed, init in zip(self.seeds, self.inits):
            rng = core.make_rng(seed)
            if full:
                rng = CountingRng(rng, tracer)
            point, xs, acc = init, [], []
            for _ in range(self.segments):
                t0 = time.perf_counter()
                res = core.run_chain(kernel, point, self.seg_len, rng=rng)
                self.ref_seconds += time.perf_counter() - t0
                xs.append(res.xs)
                acc.append(res.accepted_all())
                point = res.final
            self.xs.append(np.concatenate(xs))
            self.accepted.append(np.concatenate(acc))
            self.finals.append(point)

    def segment(self, core, errors) -> tuple[float, bool]:
        """One timed segment; returns (seconds, passed its checks)."""
        c, j, rng, point = self._cursor
        if j == 0:
            rng, point = core.make_rng(self.seeds[c]), self.inits[c]
        t0 = time.perf_counter()
        try:
            res = core.run_chain(self.kernel, point, self.seg_len, rng=rng)
        except errors:
            self._cursor = ((c + 1) % len(self.seeds), 0, None, None)
            return time.perf_counter() - t0, False
        dt = time.perf_counter() - t0
        ok = bool(np.isfinite(res.xs).all())
        j += 1
        if j == self.segments:
            ok = ok and _same_point(res.final, self.finals[c])
            self._cursor = ((c + 1) % len(self.seeds), 0, None, None)
        else:
            self._cursor = (c, j, rng, res.final)
        return dt, ok

    def ess(self, diagnostics) -> float:
        per = [diagnostics.ess_batch_means(xs[i:i + self.window]).ess
               for xs in self.xs for i in range(0, self.n_steps, self.window)]
        return len(per) * statistics.median(per)

    def pooled_mean(self, diagnostics, dim: int) -> tuple[float, float]:
        """Mean of coordinate ``dim`` over the chains, and its batch-means SE."""
        means, var_of_mean = [], 0.0
        for xs in self.xs:
            col = xs[:, dim]
            means.append(float(col.mean()))
            var_of_mean += float(np.var(col, ddof=1)) / diagnostics.ess_batch_means(col).ess
        return statistics.fmean(means), math.sqrt(var_of_mean) / len(self.xs)

    def mean_check(self, diagnostics, dim: int, expected: float) -> Check:
        """Chain mean of coordinate ``dim`` within Z_BOUND SEs of ``expected``."""
        mean, se = self.pooled_mean(diagnostics, dim)
        return Check(f"{self.kind}.mean_x{dim}", abs(mean - expected) <= Z_BOUND * se,
                     f"mean {mean:.4g} expected {expected:.4g} se {se:.3g}")


class ChainSet:
    """The sampling part of a workload: groups stepped round-robin."""

    def __init__(self, groups: list[Group]):
        self.groups = groups

    def reference(self, m, kernels: dict, tracer, full: bool):
        for g in self.groups:
            tracer.label = g.kind
            g.run_reference(m["core"], kernels[g.kind], tracer, full)
        tracer.label = ""

    def sweep(self, m) -> tuple[float, bool, dict]:
        """One op: one segment of every group; the parts are segment times."""
        parts, ok = {}, True
        errors = m["errors"].ImcmcError
        for g in self.groups:
            parts[g.kind], passed = g.segment(m["core"], errors)
            ok = ok and passed
        return sum(parts.values()), ok, parts

    def steps_per_sweep(self) -> int:
        return sum(g.seg_len for g in self.groups)

    def traced_rate(self, summary: dict) -> float:
        """Chain steps per second of the reference pass, in the sweep's kind mix."""
        return self.steps_per_sweep() / sum(
            g.seg_len * summary[g.kind]["reference_s"] / summary[g.kind]["steps"]
            for g in self.groups)

    def finite_checks(self) -> list[Check]:
        return [Check(f"{g.kind}.finite", all(bool(np.isfinite(xs).all()) for xs in g.xs))
                for g in self.groups]

    def summary(self, m, tracer) -> dict:
        """Per-kind ESS, accept rate and evaluation counts of the reference pass."""
        diagnostics = m["diagnostics"]
        out = {}
        for g in self.groups:
            runs = len(g.seeds) * g.segments
            calls = tracer.n("targets.logpdf", g.kind) + tracer.n("targets.grad", g.kind)
            out[g.kind] = {
                "ess": g.ess(diagnostics) if g.window else None,
                "steps": len(g.seeds) * g.n_steps,
                "accept_rate": float(np.mean(np.concatenate(g.accepted))),
                # every run_chain call checks its initial state once
                "step_evals": calls - runs,
                "run_chain_calls": runs,
                "reference_s": g.ref_seconds,
            }
        return out

    def end_to_end(self, summary: dict, sweeps: list) -> dict:
        """Throughput and ESS rate from the segment times of timed sweeps."""
        # medians per kind, so that a burst of contention on the machine moves
        # the figure less than a mean over all segments would
        seg = {g.kind: statistics.median(sweep[g.kind] for sweep in sweeps)
               for g in self.groups}
        per_step = {g.kind: seg[g.kind] / g.seg_len for g in self.groups}
        return {
            "chain_steps_per_s": self.steps_per_sweep() / sum(seg.values()),
            "ess_per_s": _geomean(s["ess"] / (s["steps"] * per_step[k])
                                  for k, s in summary.items()),
            "ess_per_1k_evals": _geomean(1000.0 * s["ess"] / s["step_evals"]
                                         for s in summary.values() if s["step_evals"] > 0),
        }


def _seed_seq(seed: int, *path: int):
    return np.random.SeedSequence([seed, *path])


def _cli_kernels(m, specs, dataset=None, tracer=None, full=False, timer=None):
    """Targets via ``cli.build_target`` and kernels via ``cli.build_kernel``.

    With a tracer the densities are swapped for counting copies before the
    kernels are built, so every evaluation the kernels make is counted.
    """
    cli = m["cli"]
    timer = timer or _no_timer
    targets, out = {}, {}
    for kind, target, params, _ in specs:
        if target not in targets:
            with timer("cli.build"):
                tgt = cli.build_target(target, dataset)
            if tracer is not None:
                tgt = dict(tgt, density=traced_density(tgt["density"], tracer, full))
                if "cdf" in tgt:
                    tgt["cdf"] = dataclasses.replace(
                        tgt["cdf"], density=traced_density(tgt["cdf"].density, tracer, full))
            targets[target] = tgt
        cfg = cli.RunConfig(kind=kind, target=target, params=dict(params))
        with timer("samplers.build"):
            out[kind] = cli.build_kernel(cfg, targets[target])
    return out, targets


@contextlib.contextmanager
def _no_timer(name):
    yield


def _oracle_verify(m, cases) -> bool:
    results = m["suite"].run_stationarity(cases)
    return all(r.passed for r in results)


# ---------------------------------------------------------------------------
# chains_mog2 and chains_logreg
# ---------------------------------------------------------------------------

class ChainsWorkload(Workload):
    """Seeded scalar chains through ``build_kernel`` + ``run_chain``."""

    # (kind, target, params, segment length); set by subclasses
    SPECS: tuple = ()
    CHAINS = 1
    STEPS = 0
    WINDOW = 0

    dataset = None

    # -- inputs --------------------------------------------------------------

    def make_inputs(self):
        """Initial points and chain seeds, all drawn from the runner seed."""
        rng = np.random.default_rng(_seed_seq(self.seed, 1))
        self.jitter = {kind: [rng.standard_normal(32) for _ in range(self.CHAINS)]
                       for kind, *_ in self.SPECS}
        self.chain_seeds = {kind: [_seed_seq(self.seed, 2, i, c) for c in range(self.CHAINS)]
                            for i, (kind, *_) in enumerate(self.SPECS)}

    def init_x(self, kind, tgt, c):
        x0 = tgt["x0"]
        return x0 + 0.25 * self.jitter[kind][c][:x0.size]

    # -- phases --------------------------------------------------------------

    def setup(self, m, timer):
        kernels, targets = _cli_kernels(m, self.SPECS, self.dataset, timer=timer)
        samplers = m["samplers"]
        groups = []
        for kind, target, params, seg_len in self.SPECS:
            k = kernels[kind]
            inits = [samplers.default_init(k, self.init_x(kind, targets[target], c))
                     for c in range(self.CHAINS)]
            groups.append(Group(kind, k, inits, self.chain_seeds[kind], seg_len,
                                self.STEPS, self.WINDOW))
        self.chains = ChainSet(groups)
        self.targets = targets
        with timer("suite.finite_cases"):
            cases = {c.name: c for c in m["suite"].finite_cases()}
        self.cases = [cases[ORACLE_CASE[kind]] for kind, *_ in self.SPECS]

    def reference(self, m, tracer, full):
        kernels, _ = _cli_kernels(m, self.SPECS, self.dataset, tracer, full)
        self.chains.reference(m, kernels, tracer, full)
        if full:
            tracer.label = "oracle"
            self.verify(m)
            tracer.label = ""

    def verify(self, m) -> bool:
        return _oracle_verify(m, self.cases)

    def op(self, m):
        """One sweep; the parts are the segment times of each kind."""
        return self.chains.sweep(m)

    def checks(self, m) -> list[Check]:
        return self.chains.finite_checks()

    def summary(self, m, tracer) -> dict:
        return self.chains.summary(m, tracer)

    def end_to_end(self, m, summary, ops) -> dict:
        return self.chains.end_to_end(summary, [parts for _, _, parts in ops])

    def traced_rate(self, summary) -> float:
        return self.chains.traced_rate(summary)

    def params(self) -> dict:
        return {"specs": [list(s) for s in self.SPECS], "chains_per_kind": self.CHAINS,
                "steps_per_chain": self.STEPS, "ess_window": self.WINDOW}


class ChainsMog2(ChainsWorkload):
    name = "chains_mog2"
    # Segment lengths make every segment cost about the same (~2.5 ms on a
    # shared 2-core x86_64 machine), so a sweep is a homogeneous op and a run
    # has a few hundred of them.  Each length divides STEPS.
    SPECS = (
        ("rwm", "mog2", {"scale": 0.8}, 50),
        ("mala", "mog2", {"eps": 0.05}, 25),
        ("irr_mala", "mog2", {"eps": 0.05}, 20),
        ("hmc", "mog2", {"eps": 0.3, "k": 16}, 5),
        ("persistent_hmc", "mog2", {"eps": 0.3, "k": 1, "alpha": 0.8}, 16),
        ("look_ahead", "mog2", {"eps": 0.3, "K": 4, "alpha": 0.8}, 2),
        ("neutra", "mog2", {"eps": 0.3, "k": 16}, 5),
        ("nice_mc", "mog2", {}, 32),
        ("irr_nice_mc", "mog2", {"alpha": 0.8}, 25),
        ("mtm", "mog2", {"scale": 1.0, "k": 4}, 8),
        ("lifted_rw", "bimodal1d", {"scale": 1.0}, 25),
        ("cdf", "normal1d", {}, 200),
    )
    CHAINS = 3
    STEPS = 800
    # Short windows: over long windows the rare jumps between the two modes
    # make the ESS of one seed differ from the next by a factor of several.
    WINDOW = 100
    VERIFY_PASSES = 2

    def checks(self, m) -> list[Check]:
        # the second coordinate is N(0, 0.5) in both modes
        out = self.chains.finite_checks()
        diagnostics = m["diagnostics"]
        for g in self.chains.groups:
            if g.xs[0].shape[1] == 2:
                out.append(g.mean_check(diagnostics, 1, 0.0))
        return out


class ChainsLogreg(ChainsWorkload):
    name = "chains_logreg"
    # Step sizes picked for a usable acceptance rate on this posterior
    # (irr_mala accepts ~2% at eps 0.002, ~27% at 0.0005).
    SPECS = (
        ("mala", "logreg", {"eps": 0.002}, 30),
        ("irr_mala", "logreg", {"eps": 0.0005}, 20),
        ("hmc", "logreg", {"eps": 0.03, "k": 4}, 15),
        ("rwm", "logreg", {"scale": 0.015}, 50),
    )
    CHAINS = 2
    STEPS = 1500
    WINDOW = 500
    VERIFY_PASSES = 4
    # half of a step is the target's dense algebra, half the engine
    GAUGE = ("interpreter", "dense")
    ROWS, COVARIATES = 1000, 24

    def make_inputs(self):
        """A german-shaped synthetic data set, written as CSV, and its posterior."""
        super().make_inputs()
        rng = np.random.default_rng(_seed_seq(self.seed, 3))
        n, p = self.ROWS, self.COVARIATES
        X = np.empty((n, p))
        X[:, : p // 2] = rng.standard_normal((n, p // 2))
        X[:, p // 2:] = rng.random((n, p - p // 2)) < 0.3
        # a fixed weight norm keeps the posterior's shape alike from seed to seed
        w = rng.standard_normal(p)
        w *= 2.0 / np.linalg.norm(w)
        z = (X - X.mean(0)) / X.std(0) @ w - 0.5
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
        self.dataset = os.path.join(self.workdir, "logreg_data.csv")
        np.savetxt(self.dataset, np.column_stack([X, y]), delimiter=",", fmt="%.17g")
        std = X.std(0)
        std[std == 0.0] = 1.0
        self.design = (X - X.mean(0)) / std
        self.labels = y
        self.reference_posterior()

    # -- reference posterior, computed here with numpy/scipy ------------------

    PRIOR_VAR = 0.1
    IS_DRAWS = 20000

    def _logpost(self, TH):
        """Log posterior (up to a constant) of rows of TH = [w, b]."""
        z = TH[:, :-1] @ self.design.T - TH[:, -1:]
        ll = self.labels * -np.logaddexp(0.0, -z) + (1 - self.labels) * -np.logaddexp(0.0, z)
        return ll.sum(1) - 0.5 * np.sum(TH * TH, 1) / self.PRIOR_VAR

    def reference_posterior(self):
        """Posterior mean by importance sampling from the Laplace approximation."""
        from scipy.optimize import minimize

        D = np.column_stack([self.design, -np.ones(self.ROWS)])

        def nlp(th):
            return -float(self._logpost(th[None])[0])

        def ngrad(th):
            s = 1.0 / (1.0 + np.exp(-(D @ th)))
            return -(D.T @ (self.labels - s) - th / self.PRIOR_VAR)

        mode = minimize(nlp, np.zeros(D.shape[1]), jac=ngrad, method="BFGS",
                        options={"gtol": 1e-8}).x
        s = 1.0 / (1.0 + np.exp(-(D @ mode)))
        H = D.T @ (D * (s * (1 - s))[:, None]) + np.eye(D.shape[1]) / self.PRIOR_VAR
        L = np.linalg.cholesky(np.linalg.inv(H) * 1.2)
        rng = np.random.default_rng(_seed_seq(self.seed, 4))
        draws, logw = [], []
        for _ in range(self.IS_DRAWS // 2000):
            e = rng.standard_normal((2000, D.shape[1]))
            th = mode + e @ L.T
            draws.append(th)
            logw.append(self._logpost(th) + 0.5 * np.sum(e * e, 1))
        th, lw = np.concatenate(draws), np.concatenate(logw)
        w = np.exp(lw - lw.max())
        w /= w.sum()
        self.post_mean = w @ th
        self.post_sd = np.sqrt(w @ (th - self.post_mean) ** 2)
        self.post_mean_se = self.post_sd * math.sqrt(float(np.sum(w * w)))
        self.mode = mode

    def init_x(self, kind, tgt, c):
        return self.mode + 0.1 * self.post_sd * self.jitter[kind][c][:self.mode.size]

    def checks(self, m) -> list[Check]:
        out = self.chains.finite_checks()
        post = self.targets["logreg"]["posterior"]
        out.append(Check("logreg.standardized_design",
                         bool(np.allclose(post.X, self.design, rtol=0, atol=1e-12))))
        diagnostics = m["diagnostics"]
        for g in self.chains.groups:
            z2 = []
            for d in range(self.mode.size):
                mean, se = g.pooled_mean(diagnostics, d)
                se = math.hypot(se, self.post_mean_se[d])
                z2.append(((mean - self.post_mean[d]) / se) ** 2)
            rms = math.sqrt(statistics.fmean(z2))
            # RMS over coordinates of the standardized error: ~1 for a correct
            # chain, far above 3 for a kernel that samples the wrong law
            out.append(Check(f"{g.kind}.posterior_mean", rms <= 3.0, f"rms z {rms:.3f}"))
        return out

    def params(self) -> dict:
        return dict(super().params(), rows=self.ROWS, covariates=self.COVARIATES,
                    reference="importance sampling, Laplace proposal, "
                              f"{self.IS_DRAWS} draws")


# ---------------------------------------------------------------------------
# bench_batch
# ---------------------------------------------------------------------------

class BenchBatch(Workload):
    """``cli.cmd_bench`` on mog2 with 100 chains, one sampler per op."""

    name = "bench_batch"
    VERIFY_PASSES = 8
    GAUGE = ("vector",)
    KINDS = ("mala", "irr_mala", "nice_mc", "irr_nice_mc")
    # At ~0.27 s per call a 15-second run makes over 11 calls per sampler,
    # so the tail (ten ops beyond it) falls inside the slowest sampler's
    # calls rather than on the edge between two samplers.
    CHAINS, STEPS, BURN_IN = 100, 1500, 150

    def make_inputs(self):
        self.bench_seed = int(_seed_seq(self.seed, 5).generate_state(1)[0])

    def setup(self, m, timer):
        cli = m["cli"]
        with timer("cli.build"):
            cli.build_target("mog2")
        self.cfg = cli.RunConfig(kind="", target="mog2", steps=self.STEPS,
                                 burn_in=self.BURN_IN, chains=self.CHAINS,
                                 seed=self.bench_seed,
                                 params={"eps": 0.05, "alpha": 0.8})
        with timer("suite.finite_cases"):
            cases = {c.name: c for c in m["suite"].finite_cases()}
        self.cases = [cases[ORACLE_CASE[k]] for k in self.KINDS]
        self.rows = {}
        self._next = 0

    def reference(self, m, tracer, full):
        for kind in self.KINDS:
            tracer.label = kind
            if full:
                run = tracer.span("cli.bench", m["cli"].cmd_bench)
            else:
                run = m["cli"].cmd_bench
            self.rows[kind] = run(self.cfg, [kind])[0]
        tracer.label = "oracle"
        if full:
            self.verify(m)
        tracer.label = ""

    def verify(self, m) -> bool:
        return _oracle_verify(m, self.cases)

    def _row_ok(self, row) -> bool:
        return (math.isfinite(row["ess"]["mean"]) and row["ess"]["mean"] > 0
                and 0.0 < row["accept_rate"] <= 1.0)

    def op(self, m):
        """One sampler's ``cmd_bench`` call; the part is its runner seconds."""
        kind = self.KINDS[self._next % len(self.KINDS)]
        self._next += 1
        t0 = time.perf_counter()
        try:
            row = m["cli"].cmd_bench(self.cfg, [kind])[0]
        except m["errors"].ImcmcError:
            return time.perf_counter() - t0, False, {}
        dt = time.perf_counter() - t0
        ref = self.rows[kind]
        same = row["ess"] == ref["ess"] and row["accept_rate"] == ref["accept_rate"]
        return dt, self._row_ok(row) and same, {kind: row["seconds"]}

    def round_size(self) -> int:
        return len(self.KINDS)

    def checks(self, m) -> list[Check]:
        return [Check(f"{k}.bench_row", self._row_ok(r),
                      f"ess {r['ess']['mean']:.4g} accept {r['accept_rate']:.3f}")
                for k, r in self.rows.items()]

    def summary(self, m, tracer) -> dict:
        out = {}
        for kind, ref in self.rows.items():
            # ESS per kept sample, averaged over chains -> total ESS of the run
            ess = ref["ess"]["mean"] * ref["n"] * self.CHAINS
            out[kind] = {"ess": ess, "accept_rate": ref["accept_rate"],
                         "chain_steps": self.CHAINS * self.STEPS,
                         "rows_evaluated": tracer.n("batch.target_rows", kind),
                         "reference_s": ref["seconds"]}
        return out

    def end_to_end(self, m, summary, ops) -> dict:
        # the same ESS as cmd_bench's ess_per_sec (ESS summed over chains per
        # runner second), on the runner seconds of the timed ops
        runner_s = {k: statistics.median(parts[k] for _, _, parts in ops if k in parts)
                    for k in self.KINDS}
        return {
            "chain_steps_per_s": self.CHAINS * self.STEPS * len(self.KINDS)
            / sum(runner_s.values()),
            "ess_per_s": _geomean(summary[k]["ess"] / runner_s[k] for k in self.KINDS),
            "ess_per_1k_evals": _geomean(1000.0 * s["ess"] / s["rows_evaluated"]
                                         for s in summary.values()),
        }

    def traced_rate(self, summary) -> float:
        return (self.CHAINS * self.STEPS * len(self.KINDS)
                / sum(s["reference_s"] for s in summary.values()))

    def params(self) -> dict:
        return {"kinds": list(self.KINDS), "chains": self.CHAINS, "steps": self.STEPS,
                "burn_in": self.BURN_IN, "eps": 0.05, "alpha": 0.8}


# ---------------------------------------------------------------------------
# verify_oracles
# ---------------------------------------------------------------------------

class VerifyOracles(Workload):
    """``suite.run_all()`` plus the injected-mutant check, repeated.

    Each op also runs one segment of a sampled cross-check: chains of two
    finite-case kernels whose long-run mean must match the exact stationary
    law.  The oracle checks ``enumerate_step``; the cross-check checks
    ``step``, a separate code path, and gives this workload its chain and
    ESS figures.
    """

    name = "verify_oracles"
    # the oracle pass is the op, so verify_s is read off the ops
    VERIFY_IN_OPS = True
    # Only the cross-check chains are scaled: between the machine's fast and
    # slow spells the oracle pass moved ~1.45x where the interpreter loop
    # moved ~1.9x, so scaling the oracle's times by it overcorrected.
    GAUGED = ("chain_steps_per_s", "ess_per_s")
    # cross-check sweeps per op, so each kind gets a few dozen segments a run
    SWEEPS = 4
    CHECKS = 104
    XCHECK = ("mh_2state_metropolis", "mala_grid")
    # ESS here is exact (see _exact_ess_per_step), so no ESS window
    CHAINS, STEPS, SEG, WINDOW = 4, 1000, 100, 0

    def make_inputs(self):
        rng = np.random.default_rng(_seed_seq(self.seed, 6))
        self.init_index = {n: rng.integers(0, 1 << 16, self.CHAINS) for n in self.XCHECK}
        self.chain_seeds = {n: [_seed_seq(self.seed, 7, i, c) for c in range(self.CHAINS)]
                            for i, n in enumerate(self.XCHECK)}

    def _groups(self, cases):
        groups = []
        for name in self.XCHECK:
            case = cases[name]
            inits = [case.states[int(i) % len(case.states)] for i in self.init_index[name]]
            groups.append(Group(name, case.kernel, inits, self.chain_seeds[name],
                                self.SEG, self.STEPS, self.WINDOW))
        return groups

    def setup(self, m, timer):
        suite = m["suite"]
        with timer("suite.finite_cases"):
            cases = {c.name: c for c in suite.finite_cases()}
            self.mutant = suite.mutant_case()
        self.chains = ChainSet(self._groups(cases))
        self.cases = cases
        self.verify_results = []
        self.exact_ess = {}

    def _mutant_caught(self, m) -> bool:
        suite, diagnostics = m["suite"], m["diagnostics"]
        rep = diagnostics.check_stationary(self.mutant.check_matrix(), self.mutant.check_pmf,
                                           suite.STATIONARY_TOL)
        return not rep.passed

    def verify(self, m) -> bool:
        results = m["suite"].run_all()
        failures = sum(not r.passed for r in results)
        caught = self._mutant_caught(m)
        self.verify_results.append((len(results), failures, caught))
        return len(results) == self.CHECKS and failures == 0 and caught

    def reference(self, m, tracer, full):
        # kernels built after the counters went on, so their densities count
        cases = {c.name: c for c in m["suite"].finite_cases()}
        kernels = {g.kind: cases[g.kind].kernel for g in self.chains.groups}
        self.chains.reference(m, kernels, tracer, full)
        tracer.label = "oracle"
        self.verify(m)
        tracer.label = ""

    def op(self, m):
        """One oracle pass and SWEEPS cross-check sweeps; parts time each."""
        t0 = time.perf_counter()
        try:
            ok = self.verify(m)
        except m["errors"].ImcmcError:
            ok = False
        dt_verify = time.perf_counter() - t0
        total, sweeps = dt_verify, []
        for _ in range(self.SWEEPS):
            dt, chains_ok, sweep = self.chains.sweep(m)
            ok = ok and chains_ok
            total += dt
            sweeps.append(sweep)
        return total, ok, {"verify": dt_verify, "sweeps": sweeps}

    def checks(self, m) -> list[Check]:
        n, failures, caught = self.verify_results[0]
        out = [Check("oracle.run_all", n == self.CHECKS and failures == 0,
                     f"{n} checks, {failures} failures"),
               Check("oracle.mutant_caught", caught)]
        out += self.chains.finite_checks()
        for g in self.chains.groups:
            case = self.cases[g.kind]
            pmf = np.asarray(case.check_pmf)
            xs = np.array([s.x[0] for s in case.states])
            out.append(g.mean_check(m["diagnostics"], 0, float(pmf @ xs)))
        return out

    def summary(self, m, tracer) -> dict:
        return self.chains.summary(m, tracer)

    def end_to_end(self, m, summary, ops) -> dict:
        for g in self.chains.groups:
            if g.kind not in self.exact_ess:
                self.exact_ess[g.kind] = summary[g.kind]["steps"] * self._exact_ess_per_step(
                    m, self.cases[g.kind])
            summary[g.kind]["ess"] = self.exact_ess[g.kind]
        sweeps = [sweep for _, _, parts in ops for sweep in parts["sweeps"]]
        return self.chains.end_to_end(summary, sweeps)

    @staticmethod
    def _exact_ess_per_step(m, case) -> float:
        """1 / IACT of x for the exact x-chain of a finite case.

        The chains refresh their auxiliary slot at every step, so x alone is
        a Markov chain; its matrix is the case's exact matrix lumped onto x.
        With Z the fundamental matrix and f the centred x, the asymptotic
        variance is 2 <f, Z f>_pi - Var(f).
        """
        d = m["diagnostics"]
        xs = [float(s.x[0]) for s in case.states]
        values = sorted(set(xs))
        p = d.stationary_pmf(case.states, case.joint_logpdf)
        T, px = d.marginal_matrix(case.matrix(), p, [values.index(x) for x in xs])
        f = np.array(values) - px @ np.array(values)
        Z = np.linalg.inv(np.eye(len(px)) - T + np.outer(np.ones(len(px)), px))
        var = float(px @ (f * f))
        return var / (2.0 * float(px @ (f * (Z @ f))) - var)

    def traced_rate(self, summary) -> float:
        return self.chains.traced_rate(summary)

    def params(self) -> dict:
        return {"oracle": "suite.run_all() + mutant_case stationarity",
                "cross_check_cases": list(self.XCHECK), "chains": self.CHAINS,
                "steps_per_chain": self.STEPS, "segment": self.SEG,
                "ess_window": self.WINDOW}


WORKLOADS = {w.name: w for w in (ChainsMog2, ChainsLogreg, BenchBatch, VerifyOracles)}
