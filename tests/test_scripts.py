"""Smoke tests of the scripts under scripts/ that no other test runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

STAGES = [
    "mlp_with_tangent",
    "residual_partials",
    "hydroxyl_chain_partials",
    "residual_block",
    "mlp_with_tangent_vjp",
    "adam_step",
    "unflatten",
    "composite_loss",
]


def test_epoch_stages_times_every_stage_and_writes_no_file(tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "epoch_stages.py"),
         "--epochs", "2", "--calls", "2", "--repeats", "1"],
        cwd=tmp_path, capture_output=True, text=True, check=True, timeout=120,
    )
    rows = [line.split() for line in run.stdout.splitlines()]
    assert [row[0] for row in rows] == STAGES
    for _, ms, unit in rows:
        assert float(ms) > 0.0 and unit == "ms"
    assert list(tmp_path.iterdir()) == []
