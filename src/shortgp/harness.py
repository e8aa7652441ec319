"""Batch experiment engine: synthetic benchmark sweeps, CSV ingestion,
parallel fitting of many independent series and report emission.

The synthetic benchmark draws noisy samples of sinc(t) = sin(t)/t on an
equally spaced grid, fits each replicate under the four constraint
scenarios, and aggregates over-fit fractions, held-out metric exceedance
fractions and per-replicate scenario winners.  All randomness comes from
counter-based Philox streams keyed by (seed, n, replicate), so any
replicate is reproducible in isolation and results do not depend on the
degree of parallelism.

Series of any lengths are fitted together (:func:`_fit_all`): within a
group, scenario k of every series that needs its own fit goes to one stage,
once the series' earlier scenarios have been fitted, because the nested-skip
rule reads them.  A stage is one call of ``fitting._lockstep`` (of
``fitting.fit`` for a group of one series), from grid starts found for the
whole group, one time grid at a time, before the stages; nothing of that
pass outlives it.  The sharing of optima, the scoring and the winners stay
per series, and records come out in input order.  No fit depends on its
group-mates, so the records are those of fitting each series alone.

Every fitting path, serial or pooled, runs BLAS on one thread: at n <= 15 a
second thread speeds up no BLAS call, while OpenBLAS keeps an idle helper
thread spinning on another core (a serial sweep used twice its wall time in
CPU time).
"""

from __future__ import annotations

import csv
import ctypes
import importlib
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np
from numpy.random import Generator, Philox

from . import bound, gp
from . import fitting as fitmod
from ._compiled import extension
from .series import TimeSeries, _grid_gaps

__all__ = [
    "SyntheticConfig",
    "ReplicateRecord",
    "CellStats",
    "BatchReport",
    "CsvFormatError",
    "sinc",
    "generate_sinc_series",
    "run_synthetic_experiment",
    "run_batch",
    "ingest_csv",
    "export_csv",
    "emit_report",
    "emit_fit_plotdata",
    "load_config",
    "config_from_mapping",
]

_DATA_STREAM = 0x44415441  # "DATA": noise draws for synthetic series


class CsvFormatError(ValueError):
    """Malformed input CSV (message carries the offending line number)."""


def sinc(x):
    """sin(x)/x with the removable singularity sinc(0) = 1."""
    return np.sinc(np.asarray(x, dtype=float) / np.pi)


@dataclass(frozen=True)
class SyntheticConfig:
    """Protocol parameters for the synthetic sinc benchmark.

    ``restarts`` is accepted only for the benchmark's callers and changes no
    fit.  Neither it nor ``n_points``, which a run takes from each n of its
    grid, is a config-file key (:func:`load_config`)."""

    n_points: int = 7
    interval: tuple[float, float] = (-5.0, 6.0)
    noise_variance: float = 0.09
    replicates: int = 1000
    test_grid: tuple[float, float, int] = (-6.0, 5.0, 10)
    seed: int = 0
    family: str = "se"
    nu: float | None = None
    alpha: float = bound.DEFAULT_ALPHA
    noise_bounds: tuple[float, float] = fitmod.SYNTHETIC_NOISE_BOUNDS
    restarts: int = fitmod.DEFAULT_RESTARTS
    loglik_threshold: float = -20.0
    mse_threshold: float = 0.1
    noise_flag_threshold: float = 1e-4

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError("n_points must be >= 2")
        if not self.interval[0] < self.interval[1]:
            raise ValueError("interval must satisfy lo < hi")
        if self.noise_variance < 0.0:
            raise ValueError("noise_variance must be >= 0")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        lo, hi, count = self.test_grid
        if not (lo < hi and int(count) >= 1):
            raise ValueError("test_grid must be (lo, hi, count>=1) with lo < hi")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def generate_sinc_series(config: SyntheticConfig, replicate_index: int) -> TimeSeries:
    """One synthetic replicate: sinc(t) plus Gaussian noise on an equally
    spaced grid.

    Reproducible in isolation: the noise stream is a Philox generator keyed
    by the seed and counter-addressed by (n_points, replicate_index); point
    j consumes the j-th draw of that stream.
    """
    lo, hi = config.interval
    times = np.linspace(lo, hi, config.n_points)
    rng = Generator(
        Philox(
            key=[config.seed, _DATA_STREAM],
            counter=[0, config.n_points, int(replicate_index), 0],
        )
    )
    noise = rng.standard_normal(config.n_points) * math.sqrt(config.noise_variance)
    return TimeSeries(
        times,
        sinc(times) + noise,
        id=f"sinc-n{config.n_points}-r{replicate_index}",
    )


@dataclass(frozen=True)
class ReplicateRecord:
    """Outcome of one (series, scenario) fit inside a batch.

    The fit is the best optimum, by marginal likelihood, among the series'
    own fits under every scenario of the run that lie inside this scenario's
    box, so a looser scenario never reports a lower marginal likelihood than
    a tighter one.  The nested-skip rule: a scenario has no own fit when an
    earlier scenario whose box contains its box (``Scenario.contains``)
    already found an optimum inside its box (``Scenario.holds``) and off its
    lower bounds (``fitting.lower_bounds_active``): its fit is not run,
    and it reports that optimum (or a better feasible one).
    ``shared_from`` is the index of the scenario whose own fit the row
    carries, and ``failed`` means no feasible fit exists (``shared_from`` is
    then None).  A scenario that cannot be fitted to the series is failed
    and takes no other scenario's fit: a series of fewer than two points,
    fixed noise on a series without per-point variances, values whose
    sample variance overflows a float, and estimated noise on a constant
    series (var y = 0), whose likelihood grows without bound as sn2 -> 0
    and l -> inf (the one statement of the rule is
    ``fitting._no_fit_reason``).  ``win_loglik`` and ``win_mse`` mark the
    scenario with the best held-out score; scores within 1e-10 go to the
    highest-numbered (most constrained) scenario.
    """

    series_id: str
    n: int
    replicate: int
    scenario: str
    scenario_index: int
    failed: bool
    length_scale: float | None = None
    signal_variance: float | None = None
    noise_variance: float | None = None  # None for fixed-noise scenarios
    log_marginal_likelihood: float | None = None
    predictive_log_likelihood: float | None = None
    mse: float | None = None
    flag_short_length_scale: bool = False
    flag_tiny_noise: bool = False
    length_scale_lower: float | None = None
    win_loglik: bool = False
    win_mse: bool = False
    all_scenarios_ok: bool = False
    shared_from: int | None = None


@dataclass(frozen=True)
class CellStats:
    """Aggregates for one (scenario, n) cell of a report."""

    count: int
    failed: int
    failed_fraction: float
    overfit_fraction_lengthscale: float
    overfit_fraction_noise: float
    low_loglik_fraction: float | None
    high_mse_fraction: float | None
    win_fraction_loglik: float | None
    win_fraction_mse: float | None


@dataclass
class BatchReport:
    """Per-fit records plus aggregate accessors.

    Aggregates are always recomputed from ``rows``, so the emitted raw file
    and the emitted tables can never disagree.  ``structural`` maps each
    scenario label to the over-fit flags that its constraints make
    impossible (used to print "." cells for ingested-data reports).
    """

    scenario_labels: list[str]
    n_values: list[int]
    rows: list[ReplicateRecord]
    loglik_threshold: float = -20.0
    mse_threshold: float = 0.1
    structural: dict[str, dict[str, bool]] = field(default_factory=dict)
    has_metrics: bool = True

    def _select(self, scenario: str, n: int | None) -> list[ReplicateRecord]:
        return [
            r
            for r in self.rows
            if r.scenario == scenario and (n is None or r.n == n)
        ]

    def cell(self, scenario: str, n: int | None = None) -> CellStats:
        rows = self._select(scenario, n)
        ok = [r for r in rows if not r.failed]
        n_ok = len(ok)

        def frac(flags) -> float:
            return (sum(flags) / n_ok) if n_ok else 0.0

        low = high = None
        if self.has_metrics and n_ok:
            low = frac(
                r.predictive_log_likelihood < self.loglik_threshold for r in ok
            )
            high = frac(r.mse > self.mse_threshold for r in ok)
        win_ll = win_mse = None
        if self.has_metrics:
            eligible = [r for r in rows if r.all_scenarios_ok]
            if eligible:
                win_ll = sum(r.win_loglik for r in eligible) / len(eligible)
                win_mse = sum(r.win_mse for r in eligible) / len(eligible)
        return CellStats(
            count=len(rows),
            failed=len(rows) - n_ok,
            failed_fraction=((len(rows) - n_ok) / len(rows)) if rows else 0.0,
            overfit_fraction_lengthscale=frac(r.flag_short_length_scale for r in ok),
            overfit_fraction_noise=frac(r.flag_tiny_noise for r in ok),
            low_loglik_fraction=low,
            high_mse_fraction=high,
            win_fraction_loglik=win_ll,
            win_fraction_mse=win_mse,
        )


@dataclass(frozen=True)
class _RunSettings:
    """Per-run constants of :func:`_fit_group`, bound once into the mapped
    function.  ``test_times`` is None for runs without held-out scoring.
    Built before any draw or fit, it owns the run's checks: ``restarts``,
    which changes no fit, must be at least 1, and the bound at Δt = 1 checks
    ``alpha`` for every Δt, as the bound is linear in Δt."""

    family: str
    nu: float | None
    restarts: int
    alpha: float
    noise_flag_threshold: float
    test_times: np.ndarray | None = None
    test_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        fitmod._check_family(self.family, self.nu)
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        bound.length_scale_bound(self.family, self.alpha, 1.0, self.nu)


def _fit_group(settings: _RunSettings, tasks: list) -> list[list[ReplicateRecord]]:
    """The records of each task of a group, whatever its series' lengths.

    A task is ``(series, scenarios, n_label, replicate)``.  Before the
    stages, one pass over the group's time grids finds the grid start of
    every problem that can be fitted (``fitting._grid_starts``): each time
    grid's eigendecompositions (at the start grid's length-scales and at
    every box edge of its problems, in one ``eigh``) and its series'
    quadratic forms are built once, and dropped before the next grid's.
    Each series' scenarios are then fitted in list order, scenario k of
    every series together, in one stage, from the starts found: one
    ``fitting._lockstep``, or for a group of one task one ``fitting.fit``
    given its start (the benchmark's spans time that route; see the
    ``fitting`` module docstring).  Either route gives each problem the
    bits of its fit alone.
    A scenario has no fit of its own when its one run fails, when the
    series cannot be fitted under it (``fitting._no_fit_reason``; its
    record is then failed), or when it is skipped (the rule is on
    :class:`ReplicateRecord`, and reads only the series' earlier
    scenarios).  A skipped scenario reports the containing scenario's
    optimum through the sharing of optima in :func:`_series_records`; its
    grid start goes unused.
    """
    family, nu = settings.family, settings.nu
    unfittable = [
        [fitmod._no_fit_reason(series, sc) is not None for sc in scenarios]
        for series, scenarios, *_ in tasks
    ]
    count = len(tasks[0][1])  # every task of a run has as many scenarios
    own: list[list[fitmod.FitResult | None]] = [[None] * count for _ in tasks]
    keys = [(i, k) for i, flags in enumerate(unfittable) for k in range(count) if not flags[k]]
    found = fitmod._grid_starts([(tasks[i][0], tasks[i][1][k]) for i, k in keys], family, nu)
    starts = dict(zip(keys, found))
    for k in range(count):
        stage = [
            i
            for i, task in enumerate(tasks)
            if not unfittable[i][k] and not _skipped(task[1], k, own[i])
        ]
        if not stage:
            continue
        problems = [(tasks[i][0], tasks[i][1][k]) for i in stage]
        if len(tasks) > 1:
            results = fitmod._lockstep(problems, family, nu, starts=[starts[i, k] for i in stage])
        else:
            [(series, scenario)] = problems
            try:
                results = [fitmod.fit(series, family, scenario, nu=nu, start=starts[0, k])]
            except fitmod.AllStartsFailedError:
                results = [None]
        for i, result in zip(stage, results):
            own[i][k] = result
    return [
        _series_records(settings, task, flags, fits)
        for task, flags, fits in zip(tasks, unfittable, own)
    ]


def _skipped(scenarios: list, k: int, own: list) -> bool:
    """Whether scenario k goes without a fit of its own, given the own fits
    of the scenarios before it.

    Skip the fit when a looser scenario's optimum lies inside this box: the
    best point that fit found in the larger box is this box's best too.  Not
    when that optimum sits on one of this box's lower bounds (within
    fitting's relative 1e-6): the looser fit stopped just short of the
    bound, and this scenario's own fit reaches the bound exactly.
    """
    scenario = scenarios[k]
    return any(
        f is not None
        and outer.contains(scenario)
        and scenario.holds(f.kernel.length_scale, f.noise_variance)
        and not any(
            fitmod.lower_bounds_active(scenario, f.kernel.length_scale, f.noise_variance).values()
        )
        for outer, f in zip(scenarios, own)
    )


def _series_records(
    settings: _RunSettings, task, unfittable: list[bool], own: list
) -> list[ReplicateRecord]:
    """One series' records from the own fits of its scenarios: the sharing
    of optima, the diagnostics, the held-out scores and the winners."""
    series, scenarios, n_label, replicate = task
    # Share optima: every scenario takes the best fit, by marginal
    # likelihood, among its own and the other scenarios' fits that lie inside
    # its box, equal likelihoods going to the lowest-numbered fit.  This is
    # how a skipped scenario gets the looser optimum.  A fit of a looser
    # scenario can stop on a lower optimum than a tighter one found, and two
    # scenarios that reach the same optimum stop at slightly different
    # points.  Because the choice is one total order over all fits, nested
    # marginal likelihoods are monotone and a looser scenario's fit that lies
    # inside a tighter box is the tighter scenario's fit too, bitwise.
    sampling = series.sampling if len(series) >= 2 else None
    scored = settings.test_times is not None
    metrics: dict[int, tuple[float, float]] = {}
    records: list[dict] = []
    for idx, (scenario, no_fit) in enumerate(zip(scenarios, unfittable)):
        base = {
            "series_id": series.id,
            "n": n_label,
            "replicate": replicate,
            "scenario": scenario.label,
            "scenario_index": idx,
        }
        # A scenario that cannot be fitted takes no other scenario's fit
        # either: on a constant series, a bounded-noise optimum is not the
        # maximum of an estimated-noise likelihood, which has none.
        feasible = [] if no_fit else [
            j
            for j, f in enumerate(own)
            if f is not None and scenario.holds(f.kernel.length_scale, f.noise_variance)
        ]
        if not feasible:
            records.append({**base, "failed": True})
            continue
        source = max(feasible, key=lambda j: own[j].log_marginal_likelihood)
        result = own[source]
        diag = fitmod.diagnose(
            result, sampling, settings.alpha, settings.noise_flag_threshold
        )
        rec = {
            **base,
            "failed": False,
            "length_scale": result.kernel.length_scale,
            "signal_variance": result.kernel.signal_variance,
            "noise_variance": result.noise_variance,
            "log_marginal_likelihood": result.log_marginal_likelihood,
            "flag_short_length_scale": diag.length_scale_below_bound,
            "flag_tiny_noise": diag.tiny_noise,
            "length_scale_lower": diag.thresholds["length_scale_lower"],
            "shared_from": source,
        }
        if scored:
            if source not in metrics:
                noise = fitmod.result_noise_model(result, series)
                post = gp.posterior_at(series, result.kernel, noise, settings.test_times)
                metrics[source] = gp._held_out_scores(post, settings.test_values, "test_values")
            rec["predictive_log_likelihood"], rec["mse"] = metrics[source]
        records.append(rec)

    all_ok = all(not r["failed"] for r in records)
    if all_ok and scored:
        # Scenario winners.  Scores within 1e-10 of each other are a tie, and
        # a tie goes to the highest-numbered scenario (scenarios run from
        # unconstrained to most constrained): a constrained scenario that
        # reproduces a looser scenario's fit shows its constraints cost
        # nothing.  With shared optima, coincident fits tie exactly.
        last = len(records) - 1
        best_ll = last
        best_mse = last
        for i in range(last - 1, -1, -1):
            if (
                records[i]["predictive_log_likelihood"]
                > records[best_ll]["predictive_log_likelihood"] + 1e-10
            ):
                best_ll = i
            if records[i]["mse"] < records[best_mse]["mse"] - 1e-10:
                best_mse = i
        records[best_ll]["win_loglik"] = True
        records[best_mse]["win_mse"] = True
    for r in records:
        r["all_scenarios_ok"] = all_ok and scored
    return [ReplicateRecord(**r) for r in records]


# The OpenBLAS thread-count getters and setters that the numpy and scipy
# wheels export (the ones threadpoolctl calls), as (the extension module
# linked to the library, suffix of the symbol names).  scipy's library is
# found through its LAPACK extension, which is loaded without the
# scipy.linalg package (shortgp._compiled).
_BLAS_LIBRARIES = (
    (partial(extension, "linalg", "_flapack"), ""),
    (partial(importlib.import_module, "numpy._core._multiarray_umath"), "64_"),
)
_load_library = ctypes.CDLL


def _blas_on_one_thread():
    """Run numpy's and scipy's BLAS on one thread; return a function that
    restores the thread counts found.

    A library whose getter or setter this BLAS build does not export is left
    as it is."""
    restores = []
    for module, suffix in _BLAS_LIBRARIES:
        try:
            library = _load_library(module().__file__)
            get = getattr(library, f"scipy_openblas_get_num_threads{suffix}")
            set_threads = getattr(library, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            continue
        restores.append(partial(set_threads, get()))
        set_threads(1)

    def restore() -> None:
        for set_previous in restores:
            set_previous()

    return restore


# The most series one group holds, so that a group's ragged arrays stay
# small on large inputs.
_GROUP_SERIES = 256


def _fit_all(settings: _RunSettings, tasks: list, parallelism: int) -> list[ReplicateRecord]:
    """The records of every task, in task order, from ``parallelism``
    worker processes (or this one), with BLAS on one thread.

    Tasks are fitted in groups (:func:`_fit_group`) of any series lengths,
    ordered by length, of at most ``_GROUP_SERIES`` tasks and of at most a
    worker's share of them, so that every worker gets a group.  A task
    whose series length no other task of the run shares is a group of its
    own, whose stages go through ``fitting.fit`` from the starts of its
    start pass.  A worker takes whole groups.  A fit does not depend on its
    group-mates, so neither do the records.  Each worker sets BLAS to one
    thread once; a serial run sets it here, so that no idle OpenBLAS thread
    spins beside the fits, and restores the caller's counts after.  Workers
    are forked where the platform can, so that a script without a
    ``__main__`` guard still runs."""
    lengths = Counter(len(task[0]) for task in tasks)
    shared = sorted(
        (i for i, task in enumerate(tasks) if lengths[len(task[0])] > 1),
        key=lambda i: len(tasks[i][0]),
    )
    size = max(1, min(_GROUP_SERIES, math.ceil(len(shared) / max(parallelism, 1))))
    groups = [
        [i] for i, task in enumerate(tasks) if lengths[len(task[0])] == 1
    ] + [shared[first : first + size] for first in range(0, len(shared), size)]
    group_tasks = [[tasks[i] for i in group] for group in groups]
    group_fn = partial(_fit_group, settings)
    if parallelism <= 1 or len(groups) <= 1:
        restore = _blas_on_one_thread()
        try:
            outputs = list(map(group_fn, group_tasks))
        finally:
            restore()
    else:
        # imported here: a serial run never pays for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(groups) // (parallelism * 4))
        context = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        with ProcessPoolExecutor(
            max_workers=parallelism, mp_context=context, initializer=_blas_on_one_thread
        ) as pool:
            outputs = list(pool.map(group_fn, group_tasks, chunksize=chunksize))
    records: list = [None] * len(tasks)
    for group, output in zip(groups, outputs):
        for i, task_records in zip(group, output):
            records[i] = task_records
    return [record for task_records in records for record in task_records]


def _structural_flags(
    settings: _RunSettings, template: list[fitmod.Scenario], tasks: list
) -> dict[str, dict[str, bool]]:
    """Per scenario label, which over-fit flags its constraints make
    impossible.  The length-scale flag is impossible when the scenario's
    floor is at least the bound that :func:`fitting.diagnose` flags against,
    on every series of the run with two or more points; the noise flag under
    fixed noise, or a noise box whose lower edge is at least the flag
    threshold."""
    lengthscale = {sc.label: sc.length_scale_lower > 0.0 for sc in template}
    for series, scenarios, *_ in tasks:
        if len(series) < 2:
            continue
        a_l = bound.length_scale_bound(
            settings.family, settings.alpha, series.sampling.delta_t, settings.nu
        )
        for sc in scenarios:
            lengthscale[sc.label] = lengthscale[sc.label] and sc.length_scale_lower >= a_l
    return {
        sc.label: {
            "lengthscale_impossible": lengthscale[sc.label],
            # Fixed noise (no noise box) never flags; estimated noise, whose
            # box has no lower bound, always can.
            "noise_impossible": len(sc.box) == 1
            or 0.0 < sc.box[1][0] >= settings.noise_flag_threshold,
        }
        for sc in template
    }


def run_synthetic_experiment(
    config: SyntheticConfig,
    n_grid,
    family: str | None = None,
    parallelism: int = 1,
) -> BatchReport:
    """Full synthetic sweep: for every sample size in ``n_grid`` fit all
    replicates under the four scenarios and aggregate.

    The replicate series are drawn here, in the calling process, and the
    same data is shared by all four scenarios (required for the winner
    comparison to mean anything).  A row's fit, and when a scenario's own
    fit is skipped, follow :class:`ReplicateRecord`.  A replicate's fits
    depend on its own series alone.
    Diagnostics use the thresholds from ``config``, and a replicate whose
    fit fails in any scenario is excluded from the winner accounting but
    still reported.  A repeated n, an n below 2, ``noise_bounds`` other
    than 0 < lower < upper, a family and nu that fitting does not support,
    fewer than one restart and an ``alpha`` outside (0, 1) raise ValueError
    before any draw.  Deterministic for a given config regardless of
    ``parallelism``.
    """
    n_grid = [int(n) for n in n_grid]
    if len(set(n_grid)) < len(n_grid):
        raise ValueError("n_grid must not repeat a sample size")
    if family is not None:
        config = replace(config, family=family)
    lo, hi, count = config.test_grid
    test_times = np.linspace(lo, hi, int(count))
    settings = _RunSettings(
        config.family,
        config.nu,
        config.restarts,
        config.alpha,
        config.noise_flag_threshold,
        test_times,
        sinc(test_times),
    )

    # All replicates of one n share the time grid, hence the scenarios: each
    # n's config and scenarios are built, and so checked, before any draw.
    scenarios: list[fitmod.Scenario] = []
    per_n = []
    for n in n_grid:
        cfg_n = replace(config, n_points=n)
        grid = TimeSeries(np.linspace(*cfg_n.interval, n), np.zeros(n))
        scenarios = fitmod.make_scenarios(
            grid, config.family, config.alpha, config.nu, config.noise_bounds
        )
        per_n.append((cfg_n, scenarios))
    tasks = [
        (generate_sinc_series(cfg_n, rep), scenarios, cfg_n.n_points, rep)
        for cfg_n, scenarios in per_n
        for rep in range(config.replicates)
    ]

    return BatchReport(
        scenario_labels=[s.label for s in scenarios],
        n_values=n_grid,
        rows=_fit_all(settings, tasks, parallelism),
        loglik_threshold=config.loglik_threshold,
        mse_threshold=config.mse_threshold,
        has_metrics=True,
    )


# Stands in for any series when a preset scenario set is built only for its
# labels and structure, which do not depend on the series.
_UNIT_GRID = TimeSeries([0.0, 1.0], [0.0, 0.0])


def run_batch(
    series_set,
    scenario_set="expression",
    family: str = "se",
    nu: float | None = None,
    parallelism: int = 1,
    restarts: int = fitmod.DEFAULT_RESTARTS,
    alpha: float = bound.DEFAULT_ALPHA,
    noise_flag_threshold: float = 1e-2,
) -> BatchReport:
    """Fit every series independently under a scenario set.

    ``scenario_set`` is "synthetic" (bounded noise interval), "expression"
    (fixed per-point noise, the default for ingested data) or an explicit
    scenario list applied verbatim.  Preset sets rebuild the length-scale
    bound per series from its own sampling interval.  The report's labels
    come from the scenario set, not from a series, so an unknown or empty
    ``scenario_set``, one that repeats a label (the report is keyed by
    label), a ``family`` and ``nu`` that fitting does not support,
    ``restarts`` below 1 and an ``alpha`` outside (0, 1), for every scenario
    set, raise ValueError before any fit.  A scenario's length-scale cells
    print "." only when its floor is at least the own bound of every series
    of two or more points.

    A row's fit, and when a scenario's own fit is skipped, follow
    :class:`ReplicateRecord`, for an explicit list too.  Every series yields
    one record per scenario, in input order, and per-series failures are
    failed records, never fatal: a series too short to have a sampling
    interval fails under every scenario, a series without per-point
    variances fails under the fixed-noise scenarios while its
    estimated-noise scenarios are fitted as usual, and a constant series
    (var y = 0) fails under the estimated-noise scenarios, where the
    likelihood has no maximum, while its bounded- and fixed-noise scenarios
    are fitted as usual.  Such a series leaves the other series' records
    unchanged.  A series' fits depend on that series alone, so results do
    not depend on the order of ``series_set`` or on the degree of
    parallelism.  ``restarts`` is accepted only for the benchmark's callers
    and changes no fit.
    """
    series_set = list(series_set)
    if not series_set:
        raise ValueError("series_set must not be empty")
    settings = _RunSettings(family, nu, restarts, alpha, noise_flag_threshold)
    if isinstance(scenario_set, (list, tuple)):
        listed = list(scenario_set)

        def build(series):
            return listed

    elif isinstance(scenario_set, str) and scenario_set in fitmod.SCENARIO_SETS:
        preset = fitmod.SCENARIO_SETS[scenario_set]

        def build(series):
            return preset(series, family, alpha, nu)

    else:
        raise ValueError(
            "scenario_set must be 'synthetic', 'expression' or a list of Scenario"
        )
    template = build(_UNIT_GRID)
    labels = [sc.label for sc in template]
    if not labels or len(set(labels)) < len(labels):
        raise ValueError("scenario_set must not be empty or repeat a scenario label")
    tasks = [
        (s, build(s) if len(s) >= 2 else template, len(s), i)
        for i, s in enumerate(series_set)
    ]
    return BatchReport(
        scenario_labels=labels,
        n_values=sorted({len(s) for s in series_set}),
        rows=_fit_all(settings, tasks, parallelism),
        structural=_structural_flags(settings, template, tasks),
        has_metrics=False,
    )


# ---------------------------------------------------------------------------
# CSV input and output
# ---------------------------------------------------------------------------


def _parse_float(cell: str, line_no: int, what: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise CsvFormatError(
            f"line {line_no}: cannot parse {what} from {cell!r}"
        ) from None


def _parse_wide_time(cell: str, line_no: int) -> float:
    text = cell.strip()
    if text.lower().startswith("t="):
        text = text[2:]
    return _parse_float(text, line_no, "time from header")


def ingest_csv(path) -> list[TimeSeries]:
    """Read time series from a CSV file whose header decides its layout.

    A header with a ``time`` or a ``value`` cell (case-insensitive) is long
    format: columns ``id,time,value`` plus an optional ``variance`` column
    that populates per-point noise variances for fixed-noise fitting; one
    series per distinct id, rows in time order; a series whose variance
    cells are all empty has none (``noise_variances`` is None).  Any other
    header is wide format: an ``id`` column followed by one column per time
    point whose header cells parse as times (a ``t=`` prefix is allowed).

    Raises CsvFormatError (with a line number) for malformed cells, missing
    columns, a long-format header that repeats a column it reads, a row
    whose cell count is not the header's, and a series that mixes empty and
    numeric variance cells.  A series that breaks a :class:`TimeSeries`
    rule (a non-finite cell, a negative variance, unordered times, a
    subnormal gap, a span t[-1] - t[0] that overflows) raises
    CsvFormatError naming the series (long format) or its line (wide
    format; line 1 for the header times).
    A leading UTF-8 byte-order mark (Excel's "CSV UTF-8") is skipped.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("line 1: empty file, expected a header row") from None
        header = [h.strip() for h in header]
        lowered = [h.lower() for h in header]

        if "time" in lowered or "value" in lowered:
            required = ("id", "time", "value")
            missing = [c for c in required if c not in lowered]
            if missing:
                raise CsvFormatError(
                    f"line 1: long format needs columns {required}, missing {missing}"
                )
            repeated = [
                name for name in (*required, "variance") if lowered.count(name) > 1
            ]
            if repeated:
                raise CsvFormatError(f"line 1: long format repeats column {repeated[0]!r}")
            col = {name: lowered.index(name) for name in required}
            var_col = lowered.index("variance") if "variance" in lowered else None
            groups: dict[str, dict[str, list[float]]] = {}
            for line_no, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise CsvFormatError(
                        f"line {line_no}: expected {len(header)} cells, got {len(row)}"
                    )
                sid = row[col["id"]].strip()
                var_cell = row[var_col].strip() if var_col is not None else ""
                g = groups.setdefault(sid, {"t": [], "y": [], "v": [] if var_cell else None})
                g["t"].append(_parse_float(row[col["time"]], line_no, "time"))
                g["y"].append(_parse_float(row[col["value"]], line_no, "value"))
                if (g["v"] is None) == bool(var_cell):
                    raise CsvFormatError(
                        f"line {line_no}: series {sid!r} mixes empty and numeric "
                        "variance cells"
                    )
                if var_cell:
                    g["v"].append(_parse_float(var_cell, line_no, "variance"))
            out = []
            for sid, g in groups.items():
                v = None if g["v"] is None else np.array(g["v"])
                try:
                    out.append(TimeSeries(np.array(g["t"]), np.array(g["y"]), v, id=sid))
                except ValueError as exc:
                    raise CsvFormatError(f"series {sid!r}: {exc}") from None
            return out

        if len(header) < 3 or lowered[0] != "id":
            raise CsvFormatError(
                "line 1: wide format needs an 'id' column plus at least "
                "two time columns"
            )
        times = np.array([_parse_wide_time(c, 1) for c in header[1:]])
        try:
            _grid_gaps(times)
        except ValueError as exc:
            raise CsvFormatError(f"line 1: wide-format header {exc}") from None
        out = []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise CsvFormatError(
                    f"line {line_no}: expected {len(header)} cells, got {len(row)}"
                )
            values = np.array([_parse_float(c, line_no, "value") for c in row[1:]])
            sid = row[0].strip()
            try:
                out.append(TimeSeries(times, values, id=sid))
            except ValueError as exc:
                raise CsvFormatError(f"line {line_no}: series {sid!r}: {exc}") from None
        return out


def export_csv(series_list, path) -> None:
    """Write series to CSV in the long format understood by :func:`ingest_csv`.

    Values use full float precision, so export followed by ingest
    reproduces the series exactly.  The ``variance`` column is written when
    any series has variances; a series without them gets empty cells there,
    which ingest reads back as no variances.
    """
    series_list = list(series_list)
    with_var = any(s.noise_variances is not None for s in series_list)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "time", "value", "variance"] if with_var else ["id", "time", "value"])
        for s in series_list:
            for i in range(len(s)):
                row = [s.id, repr(float(s.times[i])), repr(float(s.values[i]))]
                if with_var:
                    v = s.noise_variances
                    row.append("" if v is None else repr(float(v[i])))
                writer.writerow(row)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

# One row per aggregate table: its file, the CellStats field it prints, the
# ``BatchReport.structural`` key whose cells print "." in reports without
# held-out metrics, and whether the table needs held-out metrics.
_AGGREGATE_FILES = (
    ("overfit_lengthscale.csv", "overfit_fraction_lengthscale", "lengthscale_impossible", False),
    ("overfit_noise.csv", "overfit_fraction_noise", "noise_impossible", False),
    ("low_loglik.csv", "low_loglik_fraction", None, True),
    ("high_mse.csv", "high_mse_fraction", None, True),
    ("win_loglik.csv", "win_fraction_loglik", None, True),
    ("win_mse.csv", "win_fraction_mse", None, True),
    ("failed.csv", "failed_fraction", None, False),
)

_RAW_COLUMNS = tuple(f.name for f in fields(ReplicateRecord))


def _format_raw(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: BatchReport, out_dir) -> list[str]:
    """Write the aggregate tables, the raw per-fit records and a text summary.

    One CSV per aggregate metric, rows = scenarios, columns = sample sizes
    (a single ``all`` column when the report has no sample-size grid).
    Fractions are printed with four decimal places.  Reports without
    held-out metrics (ingested data) skip the metric tables and print "."
    for over-fit cells that the scenario's constraints make impossible.
    Returns the list of files written.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    by_n = bool(report.n_values) and report.has_metrics
    columns = report.n_values if by_n else [None]
    col_names = [f"n={n}" for n in report.n_values] if by_n else ["all"]

    # Each (scenario, n) cell is aggregated once, here, for every table and
    # the summary; the report itself keeps no cache that could go stale.
    cells = {
        (label, n): report.cell(label, n)
        for label in report.scenario_labels
        for n in columns
    }
    structural = {} if report.has_metrics else report.structural
    for filename, metric, structural_key, held_out in _AGGREGATE_FILES:
        if held_out and not report.has_metrics:
            continue
        path = os.path.join(out_dir, filename)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", *col_names])
            for label in report.scenario_labels:
                impossible = structural.get(label, {}).get(structural_key, False)
                row = [label]
                for n in columns:
                    value = getattr(cells[label, n], metric)
                    row.append("." if impossible else "" if value is None else f"{value:.4f}")
                writer.writerow(row)
        written.append(path)

    raw_path = os.path.join(out_dir, "replicates.csv")
    with open(raw_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RAW_COLUMNS)
        for r in report.rows:
            writer.writerow([_format_raw(getattr(r, c)) for c in _RAW_COLUMNS])
    written.append(raw_path)

    summary_path = os.path.join(out_dir, "summary.txt")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("scenario sweep summary\n")
        fh.write(f"scenarios: {', '.join(report.scenario_labels)}\n")
        if by_n:
            fh.write(f"sample sizes: {report.n_values}\n")
        fh.write(f"fits recorded: {len(report.rows)}\n\n")
        for label in report.scenario_labels:
            fh.write(f"[{label}]\n")
            for n, name in zip(columns, col_names):
                stats = cells[label, n]
                parts = [
                    f"fits={stats.count}",
                    f"failed={stats.failed}",
                    f"overfit_l={stats.overfit_fraction_lengthscale:.4f}",
                    f"overfit_noise={stats.overfit_fraction_noise:.4f}",
                ]
                if stats.win_fraction_loglik is not None:
                    parts.append(f"win_loglik={stats.win_fraction_loglik:.4f}")
                if stats.win_fraction_mse is not None:
                    parts.append(f"win_mse={stats.win_fraction_mse:.4f}")
                fh.write(f"  {name}: " + "  ".join(parts) + "\n")
            fh.write("\n")
    written.append(summary_path)
    return written


def emit_fit_plotdata(
    series: TimeSeries,
    result: fitmod.FitResult,
    out_path,
    resolution: int = 200,
) -> None:
    """Write posterior curves for external plotting.

    Columns: time, mean, latent_sd, observed_sd, is_training_point,
    training_value.  The grid spans the observation window padded by a
    tenth of its span on each side, with every training time included as
    its own row.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    noise = fitmod.result_noise_model(result, series)
    pad = 0.1 * series.span
    grid = np.linspace(series.times[0] - pad, series.times[-1] + pad, int(resolution))
    train = series.times
    all_times = np.concatenate([grid, train])
    is_train = np.concatenate(
        [np.zeros(len(grid), dtype=bool), np.ones(len(train), dtype=bool)]
    )
    train_value = np.concatenate([np.full(len(grid), np.nan), series.values])
    order = np.argsort(all_times, kind="stable")

    post = gp.posterior_at(series, result.kernel, noise, all_times)
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["time", "mean", "latent_sd", "observed_sd", "is_training_point", "training_value"]
        )
        for i in order:
            writer.writerow(
                [
                    repr(float(all_times[i])),
                    repr(float(post.mean[i])),
                    repr(float(math.sqrt(max(post.variance_latent[i], 0.0)))),
                    repr(float(math.sqrt(max(post.variance_observed[i], 0.0)))),
                    "1" if is_train[i] else "0",
                    "" if not is_train[i] else repr(float(train_value[i])),
                ]
            )


# ---------------------------------------------------------------------------
# flat key=value config files
# ---------------------------------------------------------------------------

# A tuple field of SyntheticConfig is split into one key per element; every
# other field is its own key.  A key parses as the type of its default.
_SPLIT_KEYS = {
    "interval": ("interval_lo", "interval_hi"),
    "test_grid": ("test_lo", "test_hi", "test_count"),
    "noise_bounds": ("noise_bound_lo", "noise_bound_hi"),
}


# Fields that no config file sets: synth takes each cell's n_points from
# n_grid, and restarts changes no fit.
_UNSET_FIELDS = {"n_points", "restarts"}


def _config_fields():
    """(field name, its config keys, their defaults) per SyntheticConfig
    field that a config file sets."""
    for f in fields(SyntheticConfig):
        if f.name in _UNSET_FIELDS:
            continue
        if f.name in _SPLIT_KEYS:
            yield f.name, _SPLIT_KEYS[f.name], f.default
        else:
            yield f.name, (f.name,), (f.default,)


_CONFIG_KEYS = {
    key: float if default is None else type(default)
    for _, keys, defaults in _config_fields()
    for key, default in zip(keys, defaults)
}
# keys of the run itself rather than of the protocol
_CONFIG_KEYS.update(n_grid=str, out_dir=str, parallelism=int)


def load_config(path) -> dict:
    """Parse a flat ``key = value`` config file ('#' starts a comment; a
    leading UTF-8 byte-order mark is skipped)."""
    out: dict = {}
    with open(path, encoding="utf-8-sig") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise CsvFormatError(
                    f"line {line_no}: expected 'key = value', got {text!r}"
                )
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise CsvFormatError(
                    f"line {line_no}: unknown config key {key!r}"
                )
            try:
                out[key] = _CONFIG_KEYS[key](value)
            except ValueError:
                raise CsvFormatError(
                    f"line {line_no}: cannot parse value for {key!r} from {value!r}"
                ) from None
    return out


def config_from_mapping(mapping: dict) -> SyntheticConfig:
    """Build a SyntheticConfig from a flat mapping (config-file keys).

    Values may be strings or already parsed; a None value sets the field to
    None.  A tuple field given only some of its keys keeps the defaults of
    the others.
    """
    def parse(key, default):
        value = mapping.get(key, default)
        return None if value is None else _CONFIG_KEYS[key](value)

    kwargs = {}
    for name, keys, defaults in _config_fields():
        if any(k in mapping for k in keys):
            values = tuple(parse(k, d) for k, d in zip(keys, defaults))
            kwargs[name] = values if name in _SPLIT_KEYS else values[0]
    return SyntheticConfig(**kwargs)
