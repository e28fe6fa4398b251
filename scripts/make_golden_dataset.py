#!/usr/bin/env python3
"""Regenerate the small committed golden dataset used by the test suite.

The file pins the on-disk dataset format: if serialization ever changes
shape, the checksum test fails loudly instead of silently breaking old
artifacts.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pempinn.constants import OperatingConditions, PhysicsParameters
from pempinn.simulator import generate_dataset, integrate_trajectory, save_dataset


def main() -> int:
    out_dir = Path(__file__).resolve().parents[1] / "tests" / "data"
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = integrate_trajectory(PhysicsParameters(), OperatingConditions(), n_steps=64)
    ds = generate_dataset(traj, n_train=12, n_test=30, train_fraction=1 / 3, seed=11)
    checksum = save_dataset(ds, out_dir / "golden_dataset.csv", config_hash="golden")
    print(f"wrote {out_dir / 'golden_dataset.csv'} sha256={checksum}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
