#!/usr/bin/env python3
"""One-time calibration of the closure parameters.

The literature sources fix every constant except the peroxide formation
rate v1, the water-velocity coefficient kappa_w, and the local oxygen
concentration c_O2. kappa_w and c_O2 are set by order-of-magnitude
reasoning (electro-osmotic drag velocity ~1e-6 m/s at ~0.3 A/cm2; trace
crossover oxygen ~0.1 mol/m3). v1 is then bisected so the clean default
simulation loses exactly half of the initial membrane thickness over the
default horizon, which puts the degradation dynamics at the magnitude the
synthetic-data experiments assume.

Running this script prints the calibrated v1 and rewrites the packaged
default config (src/pempinn/data/default_config.json). The calibrated
value is also pasted into the PhysicsParameters defaults; a unit test
keeps the two in sync.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pempinn import config as config_mod
from pempinn.constants import OperatingConditions, PhysicsParameters
from pempinn.simulator import SimulationSettings, integrate_trajectory

TARGET_RATIO = 0.5
N_STEPS = SimulationSettings().n_steps
BISECT_ITERATIONS = 200


def thinning_ratio(v1: float) -> float:
    params = PhysicsParameters(v1=v1)
    cond = OperatingConditions()
    traj = integrate_trajectory(params, cond, n_steps=N_STEPS)
    return float(traj.thicknesses[-1] / cond.t_mem0)


def calibrate() -> float:
    lo, hi = 1.0e-3, 1.0e3
    r_lo, r_hi = thinning_ratio(lo), thinning_ratio(hi)
    if not r_hi < TARGET_RATIO < r_lo:
        raise SystemExit(
            f"target {TARGET_RATIO} not bracketed: ratio({lo})={r_lo}, "
            f"ratio({hi})={r_hi}"
        )
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if thinning_ratio(mid) > TARGET_RATIO:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def main() -> int:
    v1 = calibrate()
    ratio = thinning_ratio(v1)
    print(f"calibrated v1 = {v1!r} mol/(m3 s)")
    print(f"thinning ratio at t_max: {ratio!r} (target {TARGET_RATIO})")

    params = PhysicsParameters()
    if abs(params.v1 - v1) / v1 > 1e-12:
        print(
            "NOTE: PhysicsParameters.v1 default "
            f"({params.v1!r}) differs; update constants.py to {v1!r}"
        )
    out = Path(__file__).resolve().parents[1] / "src" / "pempinn" / "data"
    out.mkdir(parents=True, exist_ok=True)
    target = out / "default_config.json"
    config_mod.save_config(config_mod.default_config(), target)
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
