"""The quick demos run to completion in a fresh interpreter, so a demo that
still imports or calls a removed name fails here."""

from pathlib import Path

import pytest

from conftest import run_python

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_voxelize_and_octree.py",
                                  "02_lossless_roundtrip.py",
                                  "03_train_and_compress.py"])
def test_demo_runs(tmp_path, name):
    proc = run_python([str(DEMOS / name)], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
