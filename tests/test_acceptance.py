"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail line (run with ``pytest -s`` to see the lines for passing tests).

The synthetic-benchmark criteria share one 200-replicate sweep over
n in {5, 7, 9, 11, 13, 15} with the default protocol and seed.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from shortgp import (
    KernelSpec,
    NoiseModel,
    SyntheticConfig,
    TimeSeries,
    generate_sinc_series,
    length_scale_bound,
    log_marginal_likelihood,
    log_marginal_likelihood_and_gradient,
    make_scenarios,
    matern_energy_fraction,
    posterior_at,
    run_batch,
    run_synthetic_experiment,
    se_energy_fraction,
    sinc,
    spectral_density,
)
from shortgp.fitting import fit

N_GRID = [5, 7, 9, 11, 13, 15]
DESK_REPLICATES = 200


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _trend_slope(xs, ys) -> float:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return float(np.polyfit(xs, ys, 1)[0])


@pytest.fixture(scope="module")
def sweep():
    config = SyntheticConfig(replicates=DESK_REPLICATES, seed=0)
    return run_synthetic_experiment(config, N_GRID)


def test_criterion_1_bound_constants():
    a1 = length_scale_bound("se", 0.99, 1.0)
    a2 = length_scale_bound("se", 0.99, 11.0 / 6.0)
    ok = abs(a1 - 0.8199) <= 1e-4 and abs(a2 - 1.5032) <= 1e-3
    _report(1, ok, f"a_l(0.99, 1) = {a1:.6f}; a_l(0.99, 11/6) = {a2:.6f}")


def test_criterion_2_spectral_energy_consistency():
    dt = 1.0
    lscales = np.logspace(-2, 2, 50)
    worst = 0.0

    # squared exponential: band quadrature against the erf closed form
    for l in lscales:
        spec = KernelSpec.se(1.0, float(l))
        s0 = 1.0 / (math.pi * float(l) * math.sqrt(2.0))
        breaks = [s0 * 10.0**k for k in range(-2, 6) if s0 * 10.0**k < 0.5]
        band, _ = quad(
            lambda s: spectral_density(spec, s),
            0.0,
            0.5,
            epsabs=1e-13,
            epsrel=1e-11,
            points=breaks or None,
            limit=200,
        )
        worst = max(worst, abs(2.0 * band - se_energy_fraction(float(l), dt)))

    # Matern: band quadrature against the Student-t closed form
    for nu in (0.5, 1.5, 2.5, 4.0):
        for l in lscales:
            spec = KernelSpec.matern(nu, 1.0, float(l))
            s0 = math.sqrt(2.0 * nu) / (2.0 * math.pi * float(l))
            breaks = [s0 * 10.0**k for k in range(-2, 6) if s0 * 10.0**k < 0.5]
            band, _ = quad(
                lambda s: spectral_density(spec, s),
                0.0,
                0.5,
                epsabs=1e-13,
                epsrel=1e-11,
                points=breaks or None,
                limit=200,
            )
            worst = max(worst, abs(2.0 * band - matern_energy_fraction(nu, float(l), dt)))

    # round-trip inversion
    worst_rt = 0.0
    for family, nu in [("se", None), ("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("matern", 4.0)]:
        for alpha in (0.5, 0.9, 0.99, 0.999):
            a_l = length_scale_bound(family, alpha, dt, nu)
            frac = (
                se_energy_fraction(a_l, dt)
                if family == "se"
                else matern_energy_fraction(nu, a_l, dt)
            )
            worst_rt = max(worst_rt, abs(frac - alpha))

    ok = worst <= 1e-7 and worst_rt <= 1e-7
    _report(2, ok, f"path disagreement {worst:.2e}; round-trip error {worst_rt:.2e}")


def test_criterion_3_gradient_suite():
    rng = np.random.default_rng(2024)
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 16))
        t = np.sort(rng.uniform(0.0, 12.0, n))
        t += np.arange(n) * 1e-9  # guard against duplicate draws
        y = rng.normal(size=n)
        series = TimeSeries(t, y)
        if rng.integers(0, 2) == 0:
            nu = None
            make = lambda sf2, l: KernelSpec.se(sf2, l)
        else:
            nu = float(rng.choice([0.5, 1.5, 2.5]))
            make = lambda sf2, l, nu=nu: KernelSpec.matern(nu, sf2, l)
        sf2, l, sn2 = np.exp(rng.uniform(-1.5, 1.5, 3))
        noise = NoiseModel.estimated(float(sn2))
        _, grad = log_marginal_likelihood_and_gradient(series, make(sf2, l), noise)

        def lml(d0=0.0, d1=0.0, d2=0.0):
            return log_marginal_likelihood(
                series,
                make(sf2 * math.exp(d0), l * math.exp(d1)),
                NoiseModel.estimated(float(sn2) * math.exp(d2)),
            )

        fd = np.array(
            [
                (lml(d0=h) - lml(d0=-h)) / (2.0 * h),
                (lml(d1=h) - lml(d1=-h)) / (2.0 * h),
                (lml(d2=h) - lml(d2=-h)) / (2.0 * h),
            ]
        )
        err = float(np.max(np.abs(grad - fd) / np.maximum(np.abs(fd), 1e-3)))
        worst = max(worst, err)
    ok = worst <= 1e-5
    _report(3, ok, f"worst relative gradient mismatch over 200 instances: {worst:.2e}")


def test_criterion_4_overfit_fractions(sweep):
    frac_l = {
        lab: [sweep.cell(lab, n).overfit_fraction_lengthscale for n in N_GRID]
        for lab in sweep.scenario_labels
    }
    frac_s = {
        lab: [sweep.cell(lab, n).overfit_fraction_noise for n in N_GRID]
        for lab in sweep.scenario_labels
    }
    s1 = frac_l["no_bounds"]
    ok_level = s1[0] >= 0.5
    ok_trend = _trend_slope(N_GRID, s1) <= 0.0 and s1[-1] <= s1[0]
    ok_l_zero = all(v == 0.0 for v in frac_l["lengthscale_bounded"] + frac_l["both_bounded"])
    ok_s_zero = all(v == 0.0 for v in frac_s["noise_bounded"] + frac_s["both_bounded"])
    ok = ok_level and ok_trend and ok_l_zero and ok_s_zero
    _report(
        4,
        ok,
        f"scenario-1 short-length-scale fractions {['%.3f' % v for v in s1]} "
        f"(level>=0.5: {ok_level}, non-increasing trend: {ok_trend}, "
        f"bounded scenarios exactly zero: {ok_l_zero and ok_s_zero})",
    )


def test_criterion_5_win_rate_tables(sweep):
    labels = sweep.scenario_labels
    win_ll = {lab: {n: sweep.cell(lab, n).win_fraction_loglik for n in N_GRID} for lab in labels}
    win_mse = {lab: {n: sweep.cell(lab, n).win_fraction_mse for n in N_GRID} for lab in labels}

    both_ll_5 = win_ll["both_bounded"][5]
    both_mse_5 = win_mse["both_bounded"][5]

    tops_ll = all(both_ll_5 > win_ll[lab][5] for lab in labels[:-1])
    tops_mse = all(both_mse_5 > win_mse[lab][5] for lab in labels[:-1])
    joint_ll = all(win_ll["noise_bounded"][n] + win_ll["both_bounded"][n] > 0.5 for n in N_GRID)
    joint_mse = all(win_mse["noise_bounded"][n] + win_mse["both_bounded"][n] > 0.5 for n in N_GRID)
    band_mse = abs(both_mse_5 - 0.592) <= 0.15
    band_ll = abs(both_ll_5 - 0.685) <= 0.15

    print(
        f"[criterion 5] measured: win_loglik(both, n=5) = {both_ll_5:.3f} "
        f"(band 0.535..0.835), win_mse(both, n=5) = {both_mse_5:.3f} (band 0.442..0.742)"
    )
    assert tops_ll, "scenario 4 must top the log-likelihood wins at n=5"
    assert tops_mse, "scenario 4 must top the MSE wins at n=5"
    assert joint_ll, "scenarios 3+4 must jointly exceed 50% of log-likelihood wins for all n"
    assert joint_mse, "scenarios 3+4 must jointly exceed 50% of MSE wins for all n"
    assert band_mse, f"win_mse(both, n=5) = {both_mse_5:.3f} outside 0.592 +- 0.15"
    ok = band_ll
    _report(
        5,
        ok,
        f"win_loglik(both, n=5) = {both_ll_5:.3f} vs required 0.685 +- 0.15; "
        "all other clauses passed"
        if not ok
        else f"win_loglik(both, n=5) = {both_ll_5:.3f}, win_mse = {both_mse_5:.3f}, "
        "scenario 4 tops both tables and scenarios 3+4 dominate every column",
    )


def test_criterion_6_low_loglik_fractions(sweep):
    s1 = [sweep.cell("no_bounds", n).low_loglik_fraction for n in N_GRID]
    s4 = [sweep.cell("both_bounded", n).low_loglik_fraction for n in N_GRID]
    ok_gap = s1[0] > s4[0]
    ok_trend = (
        _trend_slope(N_GRID, s1) <= 0.0
        and _trend_slope(N_GRID, s4) <= 0.0
        and s1[-1] <= s1[0]
        and s4[-1] <= s4[0]
    )
    ok = ok_gap and ok_trend
    _report(
        6,
        ok,
        f"low-loglik fraction at n=5: no_bounds {s1[0]:.3f} > both_bounded {s4[0]:.3f}; "
        f"decreasing trends {ok_trend}",
    )


def test_criterion_7_property_checklist():
    checks = []

    # interpolation: zero-noise posterior reproduces the data
    t = np.array([0.0, 1.0, 2.5, 4.0])
    y = np.array([1.0, -0.3, 0.7, 0.2])
    series = TimeSeries(t, y)
    spec = KernelSpec.se(2.0, 1.0)
    post = posterior_at(series, spec, NoiseModel.fixed(np.zeros(4)), t)
    checks.append(
        ("interpolation", np.max(np.abs(post.mean - y)) <= 1e-8 and np.max(post.variance_latent) <= 1e-8)
    )

    # prior reversion far from the data
    post = posterior_at(series, spec, NoiseModel.fixed(np.zeros(4)), [300.0])
    checks.append(("prior reversion", abs(post.mean[0]) <= 1e-8 and abs(post.variance_latent[0] - 2.0) <= 1e-8))

    # posterior mean linear in the observations
    noise = NoiseModel.estimated(0.1)
    q = np.linspace(-1.0, 5.0, 9)
    y2 = np.array([0.4, 0.1, -0.5, 0.9])
    p1 = posterior_at(series, spec, noise, q).mean
    p2 = posterior_at(TimeSeries(t, y2), spec, noise, q).mean
    p12 = posterior_at(TimeSeries(t, 2.0 * y - 3.0 * y2), spec, noise, q).mean
    checks.append(("linearity", np.max(np.abs(p12 - (2.0 * p1 - 3.0 * p2))) <= 1e-9))

    # determinism under parallelism
    series_set = [generate_sinc_series(SyntheticConfig(n_points=5, seed=11), rep) for rep in range(12)]
    one = run_batch(series_set, scenario_set="synthetic", parallelism=1, restarts=2)
    three = run_batch(series_set, scenario_set="synthetic", parallelism=3, restarts=2)
    checks.append(("parallel determinism", one.rows == three.rows))

    # permutation invariance of the marginal likelihood
    rng = np.random.default_rng(1)
    perm = rng.permutation(4)
    shuffled = TimeSeries.from_unordered(t[perm], y[perm])
    base = log_marginal_likelihood(series, spec, noise)
    checks.append(
        ("permutation invariance", abs(log_marginal_likelihood(shuffled, spec, noise) - base) <= 1e-10)
    )

    # monotone nesting of constrained optima (warm-started comparison)
    sinc_series = generate_sinc_series(SyntheticConfig(n_points=7, seed=3), 1)
    scenarios = make_scenarios(sinc_series, "se")
    con = fit(sinc_series, "se", scenarios[3])
    free = fit(
        sinc_series,
        "se",
        scenarios[0],
        extra_starts=[(con.kernel.signal_variance, con.kernel.length_scale, con.noise_variance)],
    )
    checks.append(
        ("monotone nesting", free.log_marginal_likelihood >= con.log_marginal_likelihood - 1e-8)
    )

    failed = [name for name, passed in checks if not passed]
    _report(7, not failed, "all checks passed" if not failed else f"failed: {failed}")


def test_criterion_8_fixed_noise_structural(tmp_path):
    # ingest a CSV with per-point variances, fit the fixed-noise scenario
    # set: the bounded/fixed cells can never flag, mirroring the
    # impossible-by-construction cells of the expression protocol
    from shortgp.harness import emit_report, export_csv, ingest_csv

    rng = np.random.default_rng(8)
    series_set = []
    for sid in range(4):
        t = np.linspace(0.0, 10.0, 8)
        y = sinc(t - 5.0) + rng.normal(0.0, 0.2, 8)
        series_set.append(
            TimeSeries(t, y, noise_variances=np.full(8, 0.04), id=f"g{sid}")
        )
    path = tmp_path / "expr.csv"
    export_csv(series_set, path)
    loaded = ingest_csv(path)

    report = run_batch(loaded, scenario_set="expression", restarts=2, noise_flag_threshold=1e-2)
    guarded = [
        r
        for r in report.rows
        if r.scenario in ("lengthscale_bounded", "both_bounded") and not r.failed
    ]
    ok_flags = all(not r.flag_short_length_scale for r in guarded)
    fixed_rows = [
        r for r in report.rows if r.scenario in ("noise_fixed", "both_bounded") and not r.failed
    ]
    ok_noise = all(not r.flag_tiny_noise and r.noise_variance is None for r in fixed_rows)

    out = tmp_path / "report"
    emit_report(report, out)
    import csv as csvmod

    with open(out / "overfit_lengthscale.csv") as fh:
        l_cells = {row[0]: row[1] for row in list(csvmod.reader(fh))[1:]}
    with open(out / "overfit_noise.csv") as fh:
        n_cells = {row[0]: row[1] for row in list(csvmod.reader(fh))[1:]}
    ok_cells = (
        l_cells["both_bounded"] == "."
        and l_cells["lengthscale_bounded"] == "."
        and n_cells["both_bounded"] == "."
        and n_cells["noise_fixed"] == "."
    )
    ok = ok_flags and ok_noise and ok_cells
    _report(
        8,
        ok,
        "bounded/fixed scenarios cannot raise over-fit flags; impossible cells "
        "emitted as '.'",
    )
