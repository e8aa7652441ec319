"""Command-line interface.

Subcommands: ``bound`` (length-scale lower bound for a sampling grid),
``fit`` (single series from a CSV, and its posterior curves with
``--plot-out``), ``synth`` (the synthetic benchmark sweep) and ``batch``
(fit every series in a CSV).  A flat ``key = value`` config file can
preset the synthetic protocol; command-line flags override it.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
A file that cannot be read or written (``OSError``) is a data error; the
``--out-dir`` of ``synth`` and ``batch`` is made after their input is read
and before any fit, so an unusable one fails before the fits run; when the
run then fails, a folder that the command made is removed again.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

import numpy as np

from . import bound
from . import fitting as fitmod, harness
from .kernels import FactorizationError

USAGE_ERROR = 1
DATA_ERROR = 2
NUMERICAL_ERROR = 3

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # An argument that starts like a negative number is a value, not an
        # unknown option: "--interval -3,2" (the default interval starts at
        # -5).  argparse's own rule takes only a bare number such as "-3".
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # data errors, so usage problems are rerouted to exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=["se", "matern"], default=None,
                        help="kernel family (default se)")
    parser.add_argument("--nu", type=float, default=None,
                        help="Matern smoothness (fitting supports 0.5, 1.5, 2.5)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="spectral energy fraction for the bound (default 0.99)")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="shortgp",
        description="GP regression for many short time series with "
        "Nyquist spectral-energy length-scale bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", parents=[], help="print the length-scale lower bound")
    p_bound.add_argument("--times", type=str, default=None,
                         help="comma-separated observation times")
    p_bound.add_argument("--delta-t", type=float, default=None,
                         help="sampling interval (alternative to --times)")
    p_bound.add_argument("--gap-rule", choices=["min", "median"], default="min",
                         help="gap statistic for non-uniform times (default min)")
    _add_family_flags(p_bound)

    p_fit = sub.add_parser("fit", help="fit one series from a CSV file")
    p_fit.add_argument("--input", required=True, help="input CSV path")
    p_fit.add_argument("--id", default=None, help="series id (default: first series)")
    p_fit.add_argument("--scenario", type=int, choices=[1, 2, 3, 4], default=4,
                       help="constraint scenario 1..4 (default 4: both bounds)")
    p_fit.add_argument("--scenario-set", choices=fitmod.SCENARIO_SETS,
                       default="synthetic")
    p_fit.add_argument("--resolution", type=int, default=None,
                       help="rows of the --plot-out time grid, >= 2 (default 200)")
    _add_family_flags(p_fit)
    p_fit.add_argument("--plot-out", default=None,
                       help="also write posterior plot data to this CSV")

    p_synth = sub.add_parser("synth", help="run the synthetic benchmark sweep")
    p_synth.add_argument("--config", default=None, help="flat key=value config file")
    p_synth.add_argument("--n-grid", type=str, default=None,
                         help="comma-separated sample sizes (default 5,7,9,11,13,15)")
    p_synth.add_argument("--replicates", type=int, default=None)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--noise-variance", type=float, default=None)
    p_synth.add_argument("--interval", type=str, default=None,
                         help="training interval as 'lo,hi' (default -5,6)")
    p_synth.add_argument("--test-grid", type=str, default=None,
                         help="test grid as 'lo,hi,count' (default -6,5,10)")
    p_synth.add_argument("--noise-bounds", type=str, default=None,
                         help="noise-variance box as 'lo,hi' (default 0.01,0.1)")
    p_synth.add_argument("--out-dir", default=None, required=False)
    p_synth.add_argument("--parallelism", type=int, default=None)
    _add_family_flags(p_synth)

    p_batch = sub.add_parser("batch", help="fit every series in a CSV file")
    p_batch.add_argument("--input", required=True)
    p_batch.add_argument("--scenario-set", choices=fitmod.SCENARIO_SETS,
                         default="expression")
    p_batch.add_argument("--noise-flag-threshold", type=float, default=1e-2)
    p_batch.add_argument("--out-dir", required=True)
    p_batch.add_argument("--parallelism", type=int, default=1)
    _add_family_flags(p_batch)

    return parser


def _family(family: str | None, nu: float | None) -> tuple[str, float | None]:
    """The family (default se) and nu of a command; nu goes with matern only."""
    family = family or "se"
    if family == "matern" and nu is None:
        raise _UsageError("the matern family requires --nu (or nu in the config)")
    if family != "matern" and nu is not None:
        raise _UsageError(f"nu applies only to the matern family, not to {family!r}")
    return family, nu


def _select_series(args):
    series_list = harness.ingest_csv(args.input)
    if not series_list:
        raise harness.CsvFormatError("no series found in input")
    if args.id is None:
        return series_list[0]
    for s in series_list:
        if s.id == args.id:
            return s
    raise harness.CsvFormatError(f"series id {args.id!r} not found in input")


def _cmd_bound(args) -> int:
    family, nu = _family(args.family, args.nu)
    alpha = args.alpha if args.alpha is not None else bound.DEFAULT_ALPHA
    if (args.times is None) == (args.delta_t is None):
        raise _UsageError("bound needs exactly one of --times or --delta-t")
    upper = None
    if args.times is not None:
        times = np.array([float(v) for v in args.times.split(",")])
        rule = "min_gap" if args.gap_rule == "min" else "median_gap"
        info = bound.delta_t_from_times(times, rule=rule)
        upper = float(times[-1] - times[0])
    else:
        if not np.finfo(float).tiny <= args.delta_t < np.inf:
            raise ValueError("--delta-t must be finite and > 0, and not subnormal")
        info = bound.SamplingInfo(args.delta_t, uniform=True)
    a_l = bound.length_scale_bound(family, alpha, info.delta_t, nu)
    print(f"delta_t             {info.delta_t!r}")
    print(f"nyquist_frequency   {info.nyquist_frequency!r}")
    print(f"uniform_sampling    {info.uniform}")
    if info.rule != "min_gap":
        print(f"gap_rule            {info.rule} (non-default heuristic)")
    print(f"alpha               {alpha!r}")
    print(f"length_scale_lower  {a_l!r}")
    if upper is not None:
        print(f"length_scale_upper  {upper!r}  (observation span)")
    return 0


def _cmd_fit(args) -> int:
    family, nu = _family(args.family, args.nu)
    if args.resolution is not None:
        if not args.plot_out:
            raise _UsageError("--resolution applies only with --plot-out")
        if args.resolution < 2:
            raise _UsageError("--resolution must be >= 2")
    series = _select_series(args)
    alpha = args.alpha if args.alpha is not None else bound.DEFAULT_ALPHA
    scenarios = fitmod.SCENARIO_SETS[args.scenario_set](series, family, alpha, nu)
    scenario = scenarios[args.scenario - 1]
    result = fitmod.fit(series, family, scenario, nu=nu)
    diag = fitmod.diagnose(result, series.sampling, alpha)
    print(f"series              {series.id!r} (n={len(series)})")
    print(f"scenario            {scenario.label}")
    print(f"length_scale        {result.kernel.length_scale!r}")
    print(f"signal_variance     {result.kernel.signal_variance!r}")
    noise = "fixed per-point" if result.noise_variance is None else repr(result.noise_variance)
    print(f"noise_variance      {noise}")
    print(f"log_marginal_lik    {result.log_marginal_likelihood!r}")
    print(f"converged           {result.converged}")
    print(f"bound_lower_active  {result.bound_lower_active}")
    print(f"flag_short_length   {diag.length_scale_below_bound}")
    print(f"flag_tiny_noise     {diag.tiny_noise}")
    if args.plot_out:
        resolution = () if args.resolution is None else (args.resolution,)
        harness.emit_fit_plotdata(series, result, args.plot_out, *resolution)
        print(f"plot_data           {args.plot_out}")
    return 0


def _cmd_synth(args) -> int:
    # Flags are written over the config file's flat mapping, which is then
    # parsed once.
    mapping = harness.load_config(args.config) if args.config else {}
    for key in ("replicates", "seed", "noise_variance", "alpha", "n_grid",
                "out_dir", "parallelism", "family", "nu"):
        if getattr(args, key) is not None:
            mapping[key] = getattr(args, key)
    # --interval, --test-grid and --noise-bounds set a tuple field's keys
    for field, keys in harness._SPLIT_KEYS.items():
        if getattr(args, field) is not None:
            parts = getattr(args, field).split(",")
            if len(parts) != len(keys):
                raise ValueError(f"--{field.replace('_', '-')} needs {len(keys)} values")
            mapping.update(zip(keys, parts))
    mapping["family"], mapping["nu"] = _family(mapping.get("family"), mapping.get("nu"))
    config = harness.config_from_mapping(mapping)

    n_grid = [int(v) for v in str(mapping.get("n_grid", "5,7,9,11,13,15")).split(",")]
    out_dir = mapping.get("out_dir")
    if out_dir is None:
        raise _UsageError("synth needs --out-dir (or out_dir in the config file)")
    parallelism = int(mapping.get("parallelism", 1))

    return _report_into(
        out_dir, lambda: harness.run_synthetic_experiment(config, n_grid, parallelism=parallelism)
    )


def _cmd_batch(args) -> int:
    family, nu = _family(args.family, args.nu)
    alpha = args.alpha if args.alpha is not None else bound.DEFAULT_ALPHA
    series_list = harness.ingest_csv(args.input)
    if not series_list:
        raise harness.CsvFormatError("no series found in input")
    return _report_into(
        args.out_dir,
        lambda: harness.run_batch(
            series_list,
            scenario_set=args.scenario_set,
            family=family,
            nu=nu,
            parallelism=args.parallelism,
            alpha=alpha,
            noise_flag_threshold=args.noise_flag_threshold,
        ),
    )


def _report_into(out_dir, run) -> int:
    """Make ``out_dir``, before any fit, so that an unusable one fails
    first; then write the report of ``run()`` there and print its files.
    When the run raises, every folder that this call made, parents
    included, still empty, is removed again."""
    made, path = [], os.path.abspath(out_dir)
    while not os.path.exists(path):
        made.append(path)
        path = os.path.dirname(path)
    os.makedirs(out_dir, exist_ok=True)
    try:
        report = run()
    except BaseException:
        for path in made:
            os.rmdir(path)
        raise
    for path in harness.emit_report(report, out_dir):
        print(path)
    return 0


_COMMANDS = {
    "bound": _cmd_bound,
    "fit": _cmd_fit,
    "synth": _cmd_synth,
    "batch": _cmd_batch,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (
        fitmod.AllStartsFailedError,
        FactorizationError,
        bound.BoundError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
