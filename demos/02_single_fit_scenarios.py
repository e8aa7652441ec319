"""One noisy 7-point series, four constraint scenarios.

Generates a single sinc(t) replicate at the benchmark settings and fits it
unconstrained, with the spectral length-scale bound, with a boxed noise
variance, and with both.  Posterior curves for each fit are written as CSV
files that plot with any external tool:

    time, mean, latent_sd, observed_sd, is_training_point, training_value
"""

import os

from shortgp import (
    SyntheticConfig,
    emit_fit_plotdata,
    fit,
    generate_sinc_series,
    make_scenarios,
)

OUT_DIR = os.path.join("demo_output", "single_fit")
os.makedirs(OUT_DIR, exist_ok=True)

config = SyntheticConfig(n_points=7, seed=7, noise_variance=0.09)
series = generate_sinc_series(config, replicate_index=3)
print(f"series {series.id}: {len(series)} points on "
      f"[{series.times[0]}, {series.times[-1]}], true noise variance 0.09")

scenarios = make_scenarios(series, "se")
print(f"\nlength-scale bound a_l = {scenarios[1].length_scale_lower:.4f}, "
      "noise box = [0.01, 0.1]\n")

header = f"{'scenario':22s} {'l':>9s} {'sf2':>9s} {'sn2':>11s} {'loglik':>9s}"
print(header)
for scenario in scenarios:
    result = fit(series, "se", scenario)
    sn2 = "fixed" if result.noise_variance is None else f"{result.noise_variance:.2e}"
    print(
        f"{scenario.label:22s} {result.kernel.length_scale:9.4f} "
        f"{result.kernel.signal_variance:9.4f} {sn2:>11s} "
        f"{result.log_marginal_likelihood:9.4f}"
    )
    path = os.path.join(OUT_DIR, f"{scenario.label}.csv")
    emit_fit_plotdata(series, result, path, resolution=300)

print(f"\nposterior curves written under {OUT_DIR}/")
print("Unconstrained fits on data like this often collapse onto a tiny "
      "noise variance and a short\nlength-scale; the bounded fit trades a "
      "little likelihood for a posterior that actually resembles sinc.")
