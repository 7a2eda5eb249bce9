"""Benchmark of causalsteer: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all              # every workload, both modes
    python3 perfbench/run.py --all --smoke      # the same at tiny sizes, in seconds

One run sets up one workload, measures it for --seconds, checks every
output it produced and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 replays the same work
through the same public calls with bench-side spans and reports the
per-layer metrics. End-to-end times are scaled to a reference machine
speed by calibration steps run around each timed call (calibration.py),
so that a shared host's changes of speed do not show as changes of the
program; the unscaled figures are printed too. The package is imported
from src/ next to this directory; the benchmark sets no BLAS thread
variables and starts no threads or processes of its own (--all runs one
child per run, in turn).
See README.md for the workloads and what each metric should move.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np

from calibration import Calibration
from oracle import (
    CheckFailed,
    check_plan,
    check_replay_agreement,
    check_sweep_csv,
    check_target_choice,
    observation_base,
    population_base,
)
from spans import NullTracer, Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-paper", "sweep-many-rows", "intervene-paper")
#: Seed for runs made while writing a change; HELD_OUT_SEED re-checks a claim.
DEFAULT_SEED = 1
HELD_OUT_SEED = 20170903
SETUP_REPS = 7
#: Upper bound on requests in one intervene-paper run.
MAX_REQUESTS = 20000
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SIZES = {
    # The paper's set-up: SweepConfig's defaults, two DAGs per run_sweep call.
    "sweep-paper": dict(datagen={}, chunk=2),
    # Few variables, many post-intervention rows: evaluation dominates.
    "sweep-many-rows": dict(datagen=dict(n_roots=5, n_descendants=10), n_post=20000, chunk=2),
    # Paper-sized SCMs with logistic models fitted on 1000 rows.
    "intervene-paper": dict(datagen={}, n_train=1000, pairs=12, observations=4),
}
SMOKE_SIZES = {
    "sweep-paper": dict(
        datagen=dict(n_roots=3, n_descendants=5), n_train=60, n_post=200, d_values=(0.0, 1.0, 2.0), chunk=2
    ),
    "sweep-many-rows": dict(
        datagen=dict(n_roots=2, n_descendants=3), n_train=60, n_post=500, d_values=(0.0, 2.0), chunk=2
    ),
    "intervene-paper": dict(datagen=dict(n_roots=3, n_descendants=5), n_train=60, pairs=2, observations=2),
}

#: Calibration work for each workload (calibration.PARTS): the kind of work
#: its time goes to. The sweeps at paper size and the intervene path spend
#: theirs in Python loops over variables that gather parents with numpy;
#: sweep-many-rows in passes over 20000-row arrays.
CALIBRATION = {
    "sweep-paper": ("python", "propagate"),
    "sweep-many-rows": ("rows",),
    "intervene-paper": ("python", "propagate"),
}

#: Spans recorded by the traced run, named <module>.<function>.
LAYERS = (
    "datagen.generate_random_scm",
    "scm.sample",
    "scm.analytic_means",
    "models.fit_logistic",
    "models.augment_graph",
    "causal.select_intervention_target",
    "causal.optimal_intervention_value",
    "causal.observation_specific_plan",
    "sweep.evaluate_intervention",
    "fileio.load",
)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.all:
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    cal = Calibration(CALIBRATION[args.workload])
    cs, import_s, import_scaled = cal.measure(_import_package)
    if cs is None:
        return 2

    sizes = (SMOKE_SIZES if args.smoke else SIZES)[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    env = environment(cs, args)
    print(json.dumps({"environment": env}))
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if args.workload.startswith("sweep"):
                bench = SweepBench(cs, sizes, args.seed, caught)
            else:
                bench = InterveneBench(cs, sizes, args.seed, work)
            build_s, build_scaled = [], []
            for _ in range(SETUP_REPS):
                _, seconds, scaled = cal.measure(bench.setup)
                build_s.append(seconds)
                build_scaled.append(scaled)
            if args.trace:
                metrics, attempted, failed = bench.measure_traced(args.seconds)
            else:
                metrics, attempted, failed = bench.measure(args.seconds, cal)
                metrics["setup_s"] = import_scaled + statistics.median(build_scaled)
                metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            print(f"setup: import {import_s:.4f} s, builds " + " ".join(f"{t:.4f}" for t in build_s) + " s (unscaled)")
            print(f"calibration: median step {1000 * statistics.median(cal.steps):.4f} ms over {len(cal.steps)} steps")
            bench.check()
        for w in caught:
            if not issubclass(w.category, cs.errors.DidNotConvergeWarning):
                print(warnings.formatwarning(w.message, w.category, w.filename, w.lineno), end="", file=sys.stderr)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        print(f"metrics {sorted(set(metrics) ^ names)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    out = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in wanted}
    for name, m in out.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"samples {bench.samples} {bench.sample_unit}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None, help="measuring time (default 30, or 1 with --smoke)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes: every workload and check in seconds")
    p.add_argument("--all", action="store_true", help="run every workload with --trace 0 and 1 and print a table")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else 30.0
    if not args.all and args.workload is None:
        p.error("--workload is required unless --all is given")
    return args


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import causalsteer
        import causalsteer.cli
        import causalsteer.errors
        import causalsteer.fileio
        import causalsteer.sweep
    except ImportError as exc:
        print(f"cannot import causalsteer from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return None
    if Path(causalsteer.__file__).resolve().parent != ROOT / "src" / "causalsteer":
        print(f"causalsteer was imported from {causalsteer.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return None
    return causalsteer


def environment(cs, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "commit": git_commit(),
        "causalsteer": cs.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quantiles(values):
    """(median, 90th percentile) of at least two values."""
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def _item_metrics(seconds, scaled, k: int) -> dict:
    """End-to-end timing metrics from the scaled seconds of calls of ``k`` items each."""
    per_item = [1000.0 * t / k for t in scaled]
    p50, p90 = _quantiles(per_item)
    raw50, raw90 = _quantiles([1000.0 * t / k for t in seconds])
    print(f"unscaled: {k * len(seconds) / sum(seconds):.6g} items/s, p50 {raw50:.6g} ms, p90 {raw90:.6g} ms")
    return {"items_per_s": k * len(scaled) / sum(scaled), "item_p50_ms": p50, "item_p90_ms": p90}


def layer_metrics(tr, extra: dict) -> dict:
    """Per-layer metrics from the spans: calls, ms_per_call and share of traced time."""
    traced = tr.root_seconds()
    out = {}
    for name in LAYERS:
        d = tr.durations(name)
        out[f"{name}.calls"] = len(d)
        out[f"{name}.ms_per_call"] = 1000.0 * sum(d) / len(d) if d else 0.0
        out[f"{name}.share"] = sum(d) / traced
    fits = len(tr.durations("models.fit_logistic"))
    selects = len(tr.durations("causal.select_intervention_target"))
    evals = tr.durations("sweep.evaluate_intervention")
    out["models.fit_logistic.iters_mean"] = tr.counts["models.fit_logistic.iters"] / fits if fits else 0.0
    out["models.fit_logistic.nonconverged_frac"] = (
        tr.counts["models.fit_logistic.nonconverged"] / fits if fits else 0.0
    )
    out["causal.select_intervention_target.candidates_per_call"] = (
        tr.counts["causal.select_intervention_target.candidates"] / selects if selects else 0.0
    )
    out["sweep.evaluate_intervention.rows_per_s"] = (
        tr.counts["sweep.evaluate_intervention.rows"] / sum(evals) if evals else 0.0
    )
    out["cli.intervene.self_ms"] = tr.mean_self_ms("cli.intervene")
    out.update(extra)
    return out


class SweepBench:
    """run_sweep on a stream of configs of ``chunk`` DAGs each, seeded from --seed."""

    sample_unit = "run_sweep calls"

    def __init__(self, cs, sizes, seed: int, caught):
        self.cs = cs
        self.sizes = sizes
        self.seed = seed
        self.caught = caught
        self.records = []  # (weights, base, model, chosen, [(d, c_opt)]) per replayed DAG
        self.samples = 0

    def setup(self) -> None:
        cs, sizes = self.cs, self.sizes
        fields = {k: sizes[k] for k in ("n_train", "n_post", "d_values") if k in sizes}
        self.base = cs.SweepConfig(n_dags=sizes["chunk"], datagen=cs.DagGenConfig(**sizes["datagen"]), **fields)
        self.base.check()
        # A one-DAG sweep, so lazy start-up (BLAS threads, first-call costs) is paid here.
        cs.run_sweep(dataclasses.replace(self.base, n_dags=1, seed=self._chunk_seed(99_999)))

    def _chunk_seed(self, c: int) -> int:
        return self.seed * 100_000 + c

    def chunk(self, c: int):
        return dataclasses.replace(self.base, seed=self._chunk_seed(c))

    def _run_sweep(self, config, cal=None):
        """Timed run_sweep; returns (seconds, scaled seconds, result, n_failed from its checked CSV)."""
        if cal is None:
            start = perf_counter()
            result = self.cs.run_sweep(config)
            elapsed = scaled = perf_counter() - start
        else:
            result, elapsed, scaled = cal.measure(self.cs.run_sweep, config)
        rows = check_sweep_csv(self.cs.sweep.sweep_result_to_csv(result), config.d_values, config.n_dags)
        return elapsed, scaled, result, rows[0][3]

    def measure(self, seconds: float, cal: Calibration):
        times, scaled, failed, first = [], [], 0, None
        deadline = perf_counter() + seconds
        while len(times) < 2 or perf_counter() < deadline:
            elapsed, at_ref, result, n_failed = self._run_sweep(self.chunk(len(times)), cal)
            times.append(elapsed)
            scaled.append(at_ref)
            failed += n_failed
            first = first or result
        self.samples = len(times)
        # Untimed: the first chunk again through the replay, held to run_sweep.
        self._compare(first, self.replay(self.chunk(0), NullTracer()))
        k = self.base.n_dags
        return _item_metrics(times, scaled, k), k * len(times), failed

    def measure_traced(self, seconds: float):
        tr = Tracer()
        replays, untraced, warned = [], 0.0, 0
        deadline = perf_counter() + seconds
        # Each chunk is replayed traced and run untraced, in alternating
        # order, so drift in machine speed cancels out of trace.overhead.
        while not replays or perf_counter() < deadline:
            c = len(replays)
            if c % 2:
                elapsed, _, result, _ = self._run_sweep(self.chunk(c))
            before = len(self.caught)
            replays.append(self.replay(self.chunk(c), tr))
            warned += sum(issubclass(w.category, self.cs.errors.DidNotConvergeWarning) for w in self.caught[before:])
            if not c % 2:
                elapsed, _, result, _ = self._run_sweep(self.chunk(c))
            untraced += elapsed
            self._compare(result, replays[-1])
        if warned != tr.counts["models.fit_logistic.not_converged"]:
            raise CheckFailed(
                f"{warned} DidNotConvergeWarnings for "
                f"{tr.counts['models.fit_logistic.not_converged']:g} models with converged=False"
            )
        tr.count("models.fit_logistic.nonconverged", warned)
        self.samples = len(replays)
        metrics = layer_metrics(tr, {"trace.overhead": tr.root_seconds() / untraced})
        attempted = sum(r[2] + r[3] for r in replays)
        return metrics, attempted, sum(r[3] for r in replays)

    def replay(self, config, tr):
        """run_sweep(config) recomputed DAG by DAG through public calls.

        Follows run_sweep's per-DAG seed protocol, so the class-1 counts
        equal run_sweep's exactly while both use the same estimator.
        Returns (opt_counts, naive_counts, n_ok, n_failed).
        """
        errors = self.cs.errors
        degenerate = (errors.ZeroCausalEffect, errors.AllEffectsZero, errors.ZeroCoefficient)
        n_d = len(config.d_values)
        opt, naive = np.zeros(n_d, dtype=int), np.zeros(n_d, dtype=int)
        n_ok = n_failed = 0
        for seed in np.random.SeedSequence(config.seed).spawn(config.n_dags):
            try:
                with tr.span("sweep.dag"):
                    counts = self._replay_dag(config, seed, tr)
            except degenerate:
                n_failed += 1
                continue
            opt += counts[0]
            naive += counts[1]
            n_ok += 1
        return opt, naive, n_ok, n_failed

    def _replay_dag(self, config, seed, tr):
        cs = self.cs
        s_scm, s_train, s_target, s_eval = seed.spawn(4)
        scm = tr.call(
            "datagen.generate_random_scm", cs.generate_random_scm, dataclasses.replace(config.datagen, seed=s_scm)
        )
        train = tr.call("scm.sample", cs.sample, scm, config.n_train, s_train)
        target = cs.pick_random_target(scm.n, s_target)
        labels = cs.median_split_labels(train, target)
        model = tr.call("models.fit_logistic", cs.fit_logistic, train, labels, target_index=target)
        tr.count("models.fit_logistic.iters", model.n_iter)
        tr.count("models.fit_logistic.not_converged", not model.converged)
        augmented = tr.call("models.augment_graph", cs.augment_graph, scm.dag, model)
        tr.count("causal.select_intervention_target.candidates", len(set(model.predictor_indices)))
        i = tr.call(
            "causal.select_intervention_target", cs.select_intervention_target, augmented, model.predictor_indices
        )
        mu = tr.call("scm.analytic_means", cs.analytic_means, scm)
        noise = cs.estimate_noise_means(scm.dag, mu)
        values = []
        for d in config.d_values:
            plan = tr.call(
                "causal.optimal_intervention_value", cs.optimal_intervention_value, mu, scm.dag, noise, model, i, d
            )
            values.append((plan.value, cs.naive_intervention_value(model, mu, i, d)))
        plans = [(d, c_opt) for d, (c_opt, _) in zip(config.d_values, values)]
        self.records.append((scm.dag.weights, population_base(scm), model, i, plans))
        eval_seeds = s_eval.spawn(2 * len(values))
        opt, naive = [], []
        for k, (c_opt, c_naive) in enumerate(values):
            for c, s, counts in ((c_opt, eval_seeds[2 * k], opt), (c_naive, eval_seeds[2 * k + 1], naive)):
                tr.count("sweep.evaluate_intervention.rows", config.n_post)
                acc = tr.call(
                    "sweep.evaluate_intervention", cs.evaluate_intervention, scm, model, i, c, config.n_post, s
                )
                counts.append(round(acc * config.n_post))
        return opt, naive

    def _compare(self, result, replay) -> None:
        opt, naive, n_ok, n_failed = replay
        if result.n_failed != n_failed:
            raise CheckFailed(f"run_sweep counts {result.n_failed} degenerate DAGs, the replay {n_failed}")
        denom = n_ok * self.base.n_post
        check_replay_agreement(result, opt / denom, naive / denom, n_ok, self.base.n_post)

    def check(self) -> None:
        """Every replayed plan: target maximises |effect|, value hits d (oracle)."""
        if not self.records:
            raise CheckFailed("no plan was checked")
        for weights, base, model, i, plans in self.records:
            check_target_choice(weights, model, i)
            for d, c in plans:
                check_plan(weights, base, model, i, c, d)


class InterveneBench:
    """A closed loop of one client calling cli.main(["intervene", ...]) in-process.

    Set-up writes paper-sized SCMs, fitted logistic models and observation
    files to a work directory. Requests alternate population plans and
    --observation-file plans; the target is auto-selected and d is drawn
    from 0..10.
    """

    sample_unit = "requests"

    def __init__(self, cs, sizes, seed: int, work: Path):
        self.cs = cs
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.done = []  # (request, exit code, stdout) of each untraced request
        self.samples = 0

    def setup(self) -> None:
        cs, sizes, work = self.cs, self.sizes, self.work
        (work / "plans").mkdir(parents=True, exist_ok=True)
        self.pairs = []
        for p in range(sizes["pairs"]):
            s_scm, s_train, s_target, s_obs = np.random.SeedSequence([self.seed, p]).spawn(4)
            scm = cs.generate_random_scm(cs.DagGenConfig(**sizes["datagen"], seed=s_scm))
            train = cs.sample(scm, sizes["n_train"], s_train)
            target = cs.pick_random_target(scm.n, s_target)
            model = cs.fit_logistic(train, cs.median_split_labels(train, target), target_index=target)
            cs.fileio.save_json(cs.fileio.scm_to_dict(scm), work / f"scm{p}.json")
            cs.fileio.save_json(cs.fileio.model_to_dict(model), work / f"model{p}.json")
            observations = cs.sample(scm, sizes["observations"], s_obs).rows
            for k, row in enumerate(observations):
                (work / f"obs{p}-{k}.json").write_text(json.dumps(row.tolist()))
            self.pairs.append((scm, model, observations))
        rng = np.random.default_rng([self.seed, sizes["pairs"]])
        self.requests = [
            (int(p), None if r % 2 == 0 else int(k), float(d))
            for r, (p, k, d) in enumerate(
                zip(
                    rng.integers(sizes["pairs"], size=MAX_REQUESTS),
                    rng.integers(sizes["observations"], size=MAX_REQUESTS),
                    rng.integers(0, 11, size=MAX_REQUESTS),
                )
            )
        ]
        code, _ = self._call(self.requests[0], "warm-up")
        if code != 0:
            raise CheckFailed(f"warm-up request exited {code}")

    def _argv(self, request, tag) -> list[str]:
        p, k, d = request
        argv = ["intervene", "--scm", str(self.work / f"scm{p}.json"), "--model", str(self.work / f"model{p}.json")]
        argv += ["--desired", repr(d), "--out", str(self.work / "plans" / f"{tag}.json")]
        if k is not None:
            argv += ["--observation-file", str(self.work / f"obs{p}-{k}.json")]
        return argv

    def _call(self, request, tag):
        argv = self._argv(request, tag)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.cs.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue()

    def _request(self, r: int, traced=None):
        """Request r as (seconds, exit code, stdout); ``traced`` is (tracer, patches)."""
        if traced is None:
            start = perf_counter()
            code, out = self._call(self.requests[r], str(r))
            return perf_counter() - start, code, out
        tr, patches = traced
        with patched(patches):
            start = perf_counter()
            with tr.span("cli.intervene"):
                code, out = self._call(self.requests[r], str(r))
            return perf_counter() - start, code, out

    def measure(self, seconds: float, cal: Calibration):
        latencies, scaled = [], []
        deadline = perf_counter() + seconds
        while len(latencies) < 2 or (len(latencies) < MAX_REQUESTS and perf_counter() < deadline):
            r = len(latencies)
            (code, out), elapsed, at_ref = cal.measure(self._call, self.requests[r], str(r))
            self.done.append((self.requests[r], code, out))
            latencies.append(elapsed)
            scaled.append(at_ref)
        self.samples = len(latencies)
        metrics = _item_metrics(latencies, scaled, 1)
        return metrics, len(latencies), sum(code != 0 for _, code, _ in self.done)

    def measure_traced(self, seconds: float):
        cs, tr = self.cs, Tracer()

        def candidates(tracer, args):
            tracer.count("causal.select_intervention_target.candidates", len(set(args[1])))

        targets = [
            (cs.cli, "augment_graph", "models.augment_graph", None),
            (cs.cli, "select_intervention_target", "causal.select_intervention_target", candidates),
            (cs.cli, "analytic_means", "scm.analytic_means", None),
            (cs.cli, "optimal_intervention_value", "causal.optimal_intervention_value", None),
            (cs.cli, "observation_specific_plan", "causal.observation_specific_plan", None),
            # observation_specific_plan reaches it through causal's own namespace.
            (cs.causal, "optimal_intervention_value", "causal.optimal_intervention_value", None),
            (cs.fileio, "load_json", "fileio.load", None),
            (cs.fileio, "scm_from_dict", "fileio.load", None),
            (cs.fileio, "model_from_dict", "fileio.load", None),
        ]
        patches = [(mod, attr, tr.wrap(name, getattr(mod, attr), count)) for mod, attr, name, count in targets]
        traced = untraced = 0.0
        deadline = perf_counter() + seconds
        while not self.done or (len(self.done) < MAX_REQUESTS and perf_counter() < deadline):
            r = len(self.done)
            # Each request runs traced and untraced, in alternating order, so
            # drift in machine speed cancels out of trace.overhead.
            if r % 2:
                plain = self._request(r)
            with_spans = self._request(r, (tr, patches))
            if not r % 2:
                plain = self._request(r)
            if with_spans[1:] != plain[1:]:
                raise CheckFailed(f"request {r} printed {with_spans[2]!r} traced and {plain[2]!r} untraced")
            traced += with_spans[0]
            untraced += plain[0]
            self.done.append((self.requests[r], plain[1], plain[2]))
        self.samples = len(self.done)
        metrics = layer_metrics(tr, {"trace.overhead": traced / untraced})
        return metrics, len(self.done), sum(code != 0 for _, code, _ in self.done)

    def check(self) -> None:
        """Each successful plan: target maximises |effect|, value hits d (oracle)."""
        checked = 0
        for r, (request, code, out) in enumerate(self.done):
            if code != 0:
                continue
            p, k, d = request
            scm, model, observations = self.pairs[p]
            weights = scm.dag.weights
            plan = json.loads((self.work / "plans" / f"{r}.json").read_text())
            i, c = plan["target_variable"], plan["value"]
            if plan["desired_prediction"] != d:
                raise CheckFailed(f"request {r}: plan is for d={plan['desired_prediction']!r}, not {d!r}")
            if not out.startswith(f"do(X{i} = {c:.12g}) "):
                raise CheckFailed(f"request {r}: printed {out.splitlines()[:1]!r} for plan do(X{i} = {c!r})")
            base = population_base(scm) if k is None else observation_base(weights, observations[k])
            check_target_choice(weights, model, i)
            check_plan(weights, base, model, i, c, d)
            checked += 1
        if not checked:
            raise CheckFailed("no plan was checked")


def run_all(args) -> int:
    """Each workload with --trace 0 and 1, one child process at a time, as a table."""
    rows, ok, env = [], True, None
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if env is None and lines and lines[0].startswith('{"environment"'):
                env = json.loads(lines[0])["environment"]
            if result is None or not result["correct"]:
                ok = False
                rows.append((workload, trace, "FAILED", f"exit {proc.returncode}", ""))
                continue
            rows.append((workload, trace, "attempted/failed", f"{result['attempted']}/{result['failed']}", ""))
            for name, m in result["metrics"].items():
                rows.append((workload, trace, name, f"{m['value']:.6g}", m["unit"]))
    print(json.dumps({"environment": env}))
    for row in rows:
        print("{:<16} {} {:<56} {:>12} {}".format(*row))
    print("all checks passed" if ok else "some runs failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
