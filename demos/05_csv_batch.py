"""Batch-fitting measured series from a CSV file.

Builds a small long-format CSV whose variance column carries per-point
noise variances (the shape produced by upstream preprocessing pipelines),
ingests it, and fits every series under the fixed-noise scenario set:

    1. no bounds,
    2. length-scale bounded below by a_l,
    3. noise fixed to the per-point variances,
    4. both.

Scenarios 2-4 make one or both over-fit symptoms impossible by
construction; the emitted tables mark those cells with '.'.
"""

import csv
import os

import numpy as np

from shortgp import emit_report, ingest_csv, run_batch

OUT_DIR = os.path.join("demo_output", "csv_batch")
os.makedirs(OUT_DIR, exist_ok=True)
CSV_PATH = os.path.join(OUT_DIR, "measurements.csv")

# fabricate a few short measured series: slow trends plus noise, one series
# deliberately fast so the unconstrained fit is tempted to chase it
rng = np.random.default_rng(42)
with open(CSV_PATH, "w", newline="") as fh:
    writer = csv.writer(fh)
    writer.writerow(["id", "time", "value", "variance"])
    times = np.arange(0.0, 8.0)
    for sid in range(6):
        scale = rng.uniform(1.5, 6.0) if sid else 0.3
        values = np.sin(times / scale + rng.uniform(0, 6)) + rng.normal(0, 0.15, 8)
        for t, y in zip(times, values):
            writer.writerow([f"series{sid}", t, f"{y:.6f}", 0.0225])

series_set = ingest_csv(CSV_PATH)
print(f"ingested {len(series_set)} series of {len(series_set[0])} points each")

report = run_batch(series_set, scenario_set="expression", noise_flag_threshold=1e-2)
files = emit_report(report, OUT_DIR)

print("\nover-fit flags per scenario ('.' = impossible under the constraints):")
with open(os.path.join(OUT_DIR, "overfit_lengthscale.csv")) as fh:
    l_rows = {row[0]: row[1] for row in list(csv.reader(fh))[1:]}
with open(os.path.join(OUT_DIR, "overfit_noise.csv")) as fh:
    n_rows = {row[0]: row[1] for row in list(csv.reader(fh))[1:]}
print(f"{'scenario':22s} {'l < a_l':>9s} {'sn2 tiny':>9s}")
for label in report.scenario_labels:
    print(f"{label:22s} {l_rows[label]:>9s} {n_rows[label]:>9s}")

print("\nfiles written:")
for path in files:
    print(" ", path)
