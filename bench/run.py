"""Benchmark of ``shortgp``: the paper sweep and a CSV batch.

Usage, from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The workload runs against the public API of the ``shortgp`` package under
``src/`` for about ``--seconds`` seconds of measurement, on inputs made from
``--seed``.  Every iteration's outputs are checked.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  The line before it
holds the run manifest (machine facts, seed, digest, sample counts).
README.md defines every metric and says why each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from spans import Tracer, layer_metrics, traced  # noqa: E402

# workload -> kernel family
WORKLOADS = {"sweep": "se", "batch": "matern"}
BATCH_NU = 1.5
# Worker processes of the pool runs of the batch workload.  Those runs check
# that the pool gives the serial result bit for bit, and measure the pool's
# efficiency; they are not timed end to end, because the BLAS thread
# oversubscription of the pool makes their wall time vary several-fold.
POOL_WORKERS = 2
# A measuring loop stops after this long even if it has too few
# iterations, so that a traced run, which has two loops, ends well within
# the three minutes a run may take.
MAX_LOOP_S = 50.0

END_TO_END = {
    "fits_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lik_per_obs": "1",
}
PER_LAYER = {
    "gp.lml_grad.us.n5": "us",
    "gp.lml_grad.us.n15": "us",
    "gp.lml_grad.calls_per_fit": "count",
    "gp.posterior.us_per_fit": "us",
    "fitting.fit.ms.p50": "ms",
    "fitting.fit.ms.p90": "ms",
    "fitting.fit.self_frac": "ratio",
    "fitting.minimize.nit": "count",
    "fitting.minimize.nfev": "count",
    "fitting.restart_ok_ratio": "ratio",
    "kernels.factor_covariance.us": "us",
    "kernels.jitter_frac": "ratio",
    "kernels.KernelSpec.us": "us",
    "kernels.KernelSpec.calls_per_fit": "count",
    "series.NoiseModel.us": "us",
    "series.NoiseModel.calls_per_fit": "count",
    "bound.se.us": "us",
    "bound.matern_cold_ms": "ms",
    "harness.series.ms.p50": "ms",
    "harness.series.ms.p90": "ms",
    "harness.ingest_csv.ms": "ms",
    "harness.emit_report.ms": "ms",
    "harness.pool_efficiency": "ratio",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Size:
    """How much work one iteration and one run hold."""

    sweep_n_grid: tuple[int, ...] = (5, 7, 9, 11, 13, 15)
    sweep_replicates: int = 2
    batch_n_values: tuple[int, ...] = tuple(range(5, 16))
    batch_copies: int = 2  # series per n value in one batch
    restarts: int = 5
    # The quality metric is taken over this many first iterations, so that
    # its input set does not depend on how fast the program is.
    min_iterations: int = 5
    trace_min_iterations: int = 2
    setup_probes: int = 5


def import_shortgp():
    """Import the package from ``src/`` of this checkout, and nowhere else."""
    package = SRC / "shortgp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"run.py: no shortgp package at {package}")
    sys.path.insert(0, str(SRC))
    import shortgp

    if Path(shortgp.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"run.py: shortgp was imported from {shortgp.__file__}")
    return shortgp


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_SWEEP_STREAM, _BATCH_STREAM = 1, 2


def sweep_config(sg, size: Size, seed: int, index: int):
    rng = np.random.default_rng([seed, _SWEEP_STREAM, index])
    return sg.SyntheticConfig(
        replicates=size.sweep_replicates,
        seed=int(rng.integers(2**31)),
        restarts=size.restarts,
    )


def sweep_series(sg, size: Size, config) -> list:
    """The series that ``run_synthetic_experiment`` fits for ``config``."""
    return [
        sg.generate_sinc_series(replace(config, n_points=n), rep)
        for n in size.sweep_n_grid
        for rep in range(size.sweep_replicates)
    ]


def batch_series(size: Size, seed: int, index: int) -> list[tuple]:
    """(id, times, values, variances) of one batch: every n value appears
    ``batch_copies`` times in a seeded order; times are a unit grid with
    jitter; values are a random sinusoid plus noise of the stated
    per-point variance."""
    rng = np.random.default_rng([seed, _BATCH_STREAM, index])
    ns = rng.permutation(np.repeat(size.batch_n_values, size.batch_copies))
    out = []
    for k, n in enumerate(ns):
        times = np.arange(n, dtype=float) + rng.uniform(-0.3, 0.3, n)
        period = rng.uniform(4.0, 12.0)
        amplitude = rng.uniform(0.5, 2.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        variances = rng.uniform(0.02, 0.2, n)
        values = amplitude * np.sin(2.0 * math.pi * times / period + phase)
        values += rng.standard_normal(n) * np.sqrt(variances)
        out.append((f"g{k:03d}", times, values, variances))
    return out


def write_csv(path: Path, series: list[tuple]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "value", "variance"])
        for sid, times, values, variances in series:
            for row in zip(times, values, variances):
                writer.writerow([sid, *(repr(float(x)) for x in row)])


# ---------------------------------------------------------------------------
# one iteration: inputs ready -> report written, then checks
# ---------------------------------------------------------------------------


@dataclass
class Iteration:
    index: int
    parallelism: int
    wall: float = 0.0
    records: int = 0
    fits: int = 0
    lml_sum: float = 0.0
    observations: int = 0
    digest: str = ""
    heldout_mse: list = field(default_factory=list)
    heldout_loglik: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def rate(self) -> float:
        return self.fits / self.wall if self.wall > 0.0 else 0.0


def check_ingested(series, raw: list[tuple]) -> list[str]:
    got = [(s.id, s.times, s.values, s.noise_variances) for s in series]
    if len(got) != len(raw):
        return [f"ingest_csv: {len(got)} series read, {len(raw)} written"]
    for (gid, *garrays), (rid, *rarrays) in zip(got, raw):
        if gid != rid or not all(
            g is not None and np.array_equal(g, r) for g, r in zip(garrays, rarrays)
        ):
            return [f"ingest_csv: series {rid!r} differs from the CSV written"]
    return []


def _inside(value, lower: float, upper: float) -> bool:
    return value is not None and math.isfinite(value) and lower <= value <= upper


def check_report(report, expected, scenarios_of, wins: bool) -> list[str]:
    """One record per (series, scenario); fits inside their scenario box;
    with ``wins``, the win fractions of every n sum to one."""
    errors = []
    boxes = {(s.id, sc.label): sc for s in expected for sc in scenarios_of(s)}
    keys = [(r.series_id, r.scenario) for r in report.rows]
    if len(keys) != len(boxes) or set(keys) != set(boxes):
        errors.append(
            f"records: {len(keys)} records for {len(boxes)} (series, scenario) pairs"
        )
    for r in report.rows:
        sc = boxes.get((r.series_id, r.scenario))
        if r.failed or sc is None:
            continue
        if not (
            _inside(r.length_scale, sc.length_scale_lower, sc.length_scale_upper)
            and r.length_scale > 0.0
        ):
            errors.append(f"box: {r.series_id}/{r.scenario} length_scale {r.length_scale!r}")
        if sc.noise_mode == "fixed":
            ok = r.noise_variance is None
        elif sc.noise_mode == "bounded":
            ok = _inside(r.noise_variance, sc.noise_lower, sc.noise_upper)
        else:
            ok = _inside(r.noise_variance, 0.0, math.inf) and r.noise_variance > 0.0
        if not ok:
            errors.append(f"box: {r.series_id}/{r.scenario} noise {r.noise_variance!r}")
    if wins:
        for n in report.n_values:
            for attr in ("win_fraction_loglik", "win_fraction_mse"):
                total = sum(
                    getattr(report.cell(label, n), attr) or 0.0
                    for label in report.scenario_labels
                )
                if abs(total - 1.0) > 1e-9:
                    errors.append(f"wins: {attr} sums to {total!r} at n={n}")
    return errors


class Context:
    def __init__(self, sg, workload: str, seed: int, size: Size, work: Path):
        self.sg = sg
        self.workload = workload
        self.family = WORKLOADS[workload]
        self.pool = POOL_WORKERS if workload == "batch" else 1
        self.seed = seed
        self.size = size
        self.work = work
        self.next_index = 0

    def run_iteration(self, index: int, parallelism: int, tracer=None) -> Iteration:
        it = Iteration(index, parallelism)
        out_dir = self.work / f"it{index}-p{parallelism}"
        out_dir.mkdir(parents=True)
        try:
            self._run(it, out_dir, tracer)
        except Exception:  # a run that raises counts all of its fits as failed
            it = Iteration(
                index,
                parallelism,
                records=self.expected_records(),
                errors=[traceback.format_exc()],
            )
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return it

    def expected_records(self) -> int:
        size = self.size
        if self.workload == "sweep":
            return 4 * len(size.sweep_n_grid) * size.sweep_replicates
        return 4 * len(size.batch_n_values) * size.batch_copies

    def _run(self, it: Iteration, out_dir: Path, tracer) -> None:
        sg, size = self.sg, self.size
        span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
        tracing = traced(tracer, sg) if tracer is not None else contextlib.nullcontext()
        if tracer is not None:
            tracer.iteration = it.index
        if self.workload == "sweep":
            config = sweep_config(sg, size, self.seed, it.index)
            with tracing:
                t0 = perf_counter()
                with span("harness.run_synthetic_experiment"):
                    report = sg.run_synthetic_experiment(
                        config, size.sweep_n_grid, family="se", parallelism=it.parallelism
                    )
                with span("harness.emit_report"):
                    sg.emit_report(report, out_dir)
                it.wall = perf_counter() - t0
            expected = sweep_series(sg, size, config)

            def scenarios_of(s):
                return sg.make_scenarios(s, "se", config.alpha, None, config.noise_bounds)

        else:
            raw = batch_series(size, self.seed, it.index)
            path = out_dir / "input.csv"
            write_csv(path, raw)
            with tracing:
                t0 = perf_counter()
                with span("harness.ingest_csv"):
                    expected = sg.ingest_csv(path)
                with span("harness.run_batch"):
                    report = sg.run_batch(
                        expected,
                        scenario_set="expression",
                        family="matern",
                        nu=BATCH_NU,
                        parallelism=it.parallelism,
                        restarts=size.restarts,
                    )
                with span("harness.emit_report"):
                    sg.emit_report(report, out_dir)
                it.wall = perf_counter() - t0
            it.errors += check_ingested(expected, raw)

            def scenarios_of(s):
                return sg.make_expression_scenarios(s, "matern", nu=BATCH_NU)

        it.errors += check_report(report, expected, scenarios_of, self.workload == "sweep")
        raw_csv = (out_dir / "replicates.csv").read_bytes()
        it.digest = hashlib.sha256(raw_csv).hexdigest()
        if raw_csv.count(b"\n") != len(report.rows) + 1:
            it.errors.append("replicates.csv: row count differs from the records")
        it.records = len(report.rows)
        for r in report.rows:
            if r.failed:
                continue
            it.fits += 1
            it.lml_sum += r.log_marginal_likelihood
            it.observations += r.n
            if r.mse is not None:
                it.heldout_mse.append(r.mse)
                it.heldout_loglik.append(r.predictive_log_likelihood)

    def loop(self, seconds: float, parallelisms, min_count: int, tracer=None, indices=None):
        """Iterations until ``seconds`` have passed and at least ``min_count``
        inputs were run; every input is run once at each of
        ``parallelisms``.  Inputs are fresh ones, or ``indices`` in turn."""
        out = []
        start = perf_counter()
        count = 0
        while indices is None or count < len(indices):
            index = self.next_index if indices is None else indices[count]
            for p in parallelisms:
                out.append(self.run_iteration(index, p, tracer))
            if indices is None:
                self.next_index += 1
            count += 1
            elapsed = perf_counter() - start
            if elapsed >= MAX_LOOP_S or (elapsed >= seconds and count >= min_count):
                break
        return out

    def check_rerun(self, first: Iteration) -> list[str]:
        """Run ``first``'s input again, on the pool where the workload has
        one: the replicates.csv digest must not change."""
        again = self.run_iteration(first.index, self.pool)
        errors = list(again.errors)
        if again.digest != first.digest:
            errors.append(
                f"digest: input {first.index} gave {first.digest[:12]} at parallelism "
                f"{first.parallelism} and {again.digest[:12]} at {again.parallelism}"
            )
        return errors


# ---------------------------------------------------------------------------
# probes outside the workload loop
# ---------------------------------------------------------------------------


def setup_probes(count: int, family: str) -> list[dict]:
    """Import-and-set-up cost, each in a fresh interpreter."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), family],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["file"]).resolve().parent != (SRC / "shortgp").resolve():
            raise SystemExit(f"run.py: set-up probe imported {probe['file']}")
        out.append(probe)
    return out


def se_bound_us(sg, calls: int = 2000, repeats: int = 5) -> float:
    deltas = [float(d) for d in np.linspace(0.5, 2.0, calls)]
    per_call = []
    for _ in range(repeats):
        t0 = perf_counter()
        for dt in deltas:
            sg.length_scale_bound("se", 0.99, dt)
        per_call.append((perf_counter() - t0) / calls)
    return statistics.median(per_call) * 1e6


def probe_bypassed_layer(ctx: Context) -> dict[str, float]:
    """Time, on the run's first input, the layer that the workload's own
    iterations bypass, so that no timing reads 0: CSV ingestion of the
    sweep's series, and held-out scoring of the batch's series (one
    ``predictive_log_likelihood`` and one ``mse`` per series, at its own
    times, under a fixed Matern kernel)."""
    sg = ctx.sg
    path = ctx.work / "probe.csv"
    if ctx.workload == "sweep":
        config = sweep_config(sg, ctx.size, ctx.seed, 0)
        sg.export_csv(sweep_series(sg, ctx.size, config), path)
        times = []
        for _ in range(5):
            t0 = perf_counter()
            sg.ingest_csv(path)
            times.append(perf_counter() - t0)
        return {"harness.ingest_csv.ms": statistics.median(times) * 1e3}
    write_csv(path, batch_series(ctx.size, ctx.seed, 0))
    series = sg.ingest_csv(path)
    t0 = perf_counter()
    for s in series:
        kernel = sg.KernelSpec.matern(BATCH_NU, float(np.var(s.values)), 2.0)
        noise = sg.NoiseModel.fixed(s.noise_variances)
        sg.predictive_log_likelihood(s, kernel, noise, s.times, s.values)
        sg.mse(s, kernel, noise, s.times, s.values)
    return {"gp.posterior.us_per_fit": (perf_counter() - t0) / len(series) * 1e6}


def git_revision() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def manifest(sg, workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "shortgp": sg.__version__,
        "git_revision": git_revision(),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(ctx: Context, seconds: float) -> tuple[dict, list, dict]:
    size = ctx.size
    iterations = ctx.loop(seconds, [1], size.min_iterations)
    # Serial iterations: this process is the whole process tree so far.
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    errors = ctx.check_rerun(iterations[0])
    probes = setup_probes(size.setup_probes, ctx.family)
    quality = iterations[: size.min_iterations]
    observations = sum(it.observations for it in quality)
    metrics = {
        "fits_per_s": _median(it.rate for it in iterations),
        "wall_s": _median(it.wall for it in iterations),
        "setup_s": _median(p["setup_s"] for p in probes),
        "peak_rss_mb": peak_kb / 1024.0,
        "lik_per_obs": (
            math.exp(sum(it.lml_sum for it in quality) / observations)
            if observations
            else 0.0
        ),
    }
    mse = [v for it in quality for v in it.heldout_mse]
    loglik = [v for it in quality for v in it.heldout_loglik]
    extra = {
        "iterations": len(iterations),
        "walls_s": [it.wall for it in iterations],
        "digest": {iterations[0].index: iterations[0].digest},
        "import_s": _median(p["import_s"] for p in probes),
    }
    if mse:
        extra["heldout"] = {
            "fits": len(mse),
            "mse_mean": statistics.fmean(mse),
            "loglik_median": statistics.median(loglik),
        }
    return metrics, iterations, {"errors": errors, **extra}


def per_layer(ctx: Context, seconds: float, workload: str) -> tuple[dict, list, dict]:
    sg, size = ctx.sg, ctx.size
    # Untraced first: serial, and the same inputs on the pool for batch.
    untraced = ctx.loop(seconds / 2.0, sorted({1, ctx.pool}), size.trace_min_iterations)
    serial = [it for it in untraced if it.parallelism == 1]
    # The traced iterations replay the serial inputs, so that the overhead
    # compares runs of the same inputs.
    tracer = Tracer()
    traced_its = ctx.loop(
        seconds / 2.0,
        [1],
        size.trace_min_iterations,
        tracer=tracer,
        indices=[it.index for it in serial],
    )
    errors = ctx.check_rerun(untraced[0])
    by_index: dict[int, set] = {}
    for it in untraced + traced_its:
        by_index.setdefault(it.index, set()).add(it.digest)
    for index, digests in by_index.items():
        if len(digests) != 1:
            errors.append(f"digest: input {index} differs between serial, pool and traced runs")

    metrics, samples = layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = _median(it.wall for it in traced_its) - _median(
        it.wall for it in serial[: len(traced_its)]
    )
    pool = [it for it in untraced if it.parallelism > 1]
    metrics["harness.pool_efficiency"] = (
        _median(it.rate for it in pool) / (ctx.pool * _median(it.rate for it in serial))
        if pool
        else 0.0
    )
    metrics.update(probe_bypassed_layer(ctx))
    metrics["bound.se.us"] = se_bound_us(sg)
    probes = setup_probes(size.setup_probes, ctx.family)
    metrics["bound.matern_cold_ms"] = _median(p["matern_cold_ms"] for p in probes)

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{ctx.seed}.json.gz"
    with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
        json.dump({"spans": tracer.to_json(), "samples": samples}, fh)
    extra = {
        "iterations": {"untraced": len(untraced), "traced": len(traced_its)},
        "samples": samples,
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, untraced + traced_its, {"errors": errors, **extra}


def run(workload: str, seed: int, seconds: float, trace: int, size: Size = Size()):
    """One benchmark run; returns (result line, manifest line)."""
    sg = import_shortgp()
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(sg, workload, seed, size, work)
        if trace:
            metrics, iterations, extra = per_layer(ctx, seconds, workload)
            units = PER_LAYER
        else:
            metrics, iterations, extra = end_to_end(ctx, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    errors = [e for it in iterations for e in it.errors] + extra.pop("errors")
    attempted = sum(it.records for it in iterations)
    failed = attempted - sum(it.fits for it in iterations)
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    info = {"manifest": manifest(sg, workload, seed, seconds, trace), **extra, "errors": errors}
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    for error in info["errors"]:
        print(error, file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
