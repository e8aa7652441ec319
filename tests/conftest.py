import os
import subprocess
import sys
from pathlib import Path

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "shortgp", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("shortgp")


@pytest.fixture
def fresh_python():
    """Run Python code in a fresh interpreter, where no test module has
    imported any scipy package, with this checkout's ``src`` first on the
    path; return its stdout lines."""

    def run(code: str) -> list[str]:
        src = Path(__file__).resolve().parents[1] / "src"
        path = [str(src), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.split("\n")

    return run
