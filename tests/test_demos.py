"""The demo scripts write exactly the committed ``demo_output/`` tree."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def _files(root: Path) -> dict[str, bytes]:
    return {
        p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()
    }


def test_demos_reproduce_the_committed_outputs(tmp_path):
    assert len(DEMOS) == 5
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    for demo in DEMOS:
        subprocess.run(
            [sys.executable, str(demo)],
            cwd=tmp_path,
            env=env,
            check=True,
            capture_output=True,
            timeout=300,
        )
    written = _files(tmp_path / "demo_output")
    committed = _files(ROOT / "demo_output")
    assert sorted(written) == sorted(committed)
    for name, data in committed.items():
        assert written[name] == data, name
