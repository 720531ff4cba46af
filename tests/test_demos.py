"""The quicker narrative demos run to completion as scripts. The others
(03, 04 and 06, several seconds each) call the same APIs as the acceptance
tests and are left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import modelmark

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_perceptual_hashing.py",
        "02_trigger_sets_from_video.py",
        "05_ownership_ledger.py",
        "07_gateway_service.py",
    ],
)
def test_demo_exits_zero(script, tmp_path):
    result = _run_demo(script, tmp_path)  # demos write their files under a temp dir
    assert result.returncode == 0, result.stderr.decode()[-2000:]


@pytest.mark.parametrize("script", ["02_trigger_sets_from_video.py", "05_ownership_ledger.py"])
def test_demo_removes_its_temp_files(script, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    result = _run_demo(script, tmpdir)
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    assert list(tmpdir.iterdir()) == []


def _run_demo(script: str, tmpdir: Path) -> subprocess.CompletedProcess:
    src = str(Path(modelmark.__file__).resolve().parents[1])
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(DEMOS / script)], env=env, capture_output=True, timeout=120
    )
