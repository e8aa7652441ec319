"""Self-test of the benchmark at a tiny size.

Run from the repository root with ``python3 -m pytest bench``.  Each
workload, traced and untraced, must emit every metric that BENCHMARK.json
names and pass its correctness checks; a directory without the package must
make the benchmark fail without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY = run.Size(
    sweep_n_grid=(5, 15),
    sweep_replicates=1,
    batch_n_values=(5, 15),
    batch_copies=1,
    restarts=2,
    min_iterations=1,
    trace_min_iterations=1,
    setup_probes=1,
)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_checks(workload, trace):
    result, info = run.run(workload, seed=3, seconds=0.01, trace=trace, size=TINY)
    assert info["errors"] == []
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert math.isfinite(metric["value"]), name
    # No end-to-end metric and no per-layer timing may read 0.
    for name, metric in result["metrics"].items():
        if not trace or metric["unit"] in ("us", "ms"):
            assert metric["value"] > 0.0, name
    for key in ("nproc", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "numpy",
                "scipy", "python", "git_revision", "seed"):
        assert key in info["manifest"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
