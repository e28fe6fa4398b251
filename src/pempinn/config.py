"""Flat, human-editable run configuration.

One JSON file holds every parameter of a run: physics constants, operating
conditions, simulation/dataset settings, and training settings. Keys are
the dataclass field names (they are unique across the four groups); the
loader validates every invariant and reports the offending key.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from .constants import OperatingConditions, PhysicsParameters
from .errors import ConfigError
from .simulator import SimulationSettings
from .training import TrainingConfig

__all__ = ["RunConfig", "default_config", "load_config", "save_config", "config_hash"]

_GROUPS = (
    ("physics", PhysicsParameters),
    ("conditions", OperatingConditions),
    ("simulation", SimulationSettings),
    ("training", TrainingConfig),
)


@dataclass(frozen=True)
class RunConfig:
    physics: PhysicsParameters
    conditions: OperatingConditions
    simulation: SimulationSettings
    training: TrainingConfig


def default_config() -> RunConfig:
    return RunConfig(
        physics=PhysicsParameters(),
        conditions=OperatingConditions(),
        simulation=SimulationSettings(),
        training=TrainingConfig(),
    )


def config_to_dict(cfg: RunConfig) -> dict:
    out = {}
    for name, cls in _GROUPS:
        group = getattr(cfg, name)
        for f in fields(cls):
            out[f.name] = getattr(group, f.name)
    return out


def config_from_dict(data: dict) -> RunConfig:
    field_owner = {}
    for name, cls in _GROUPS:
        for f in fields(cls):
            field_owner[f.name] = name
    unknown = [k for k in data if k not in field_owner]
    if unknown:
        raise ConfigError(unknown[0], "unknown configuration key")

    grouped: dict[str, dict] = {name: {} for name, _ in _GROUPS}
    for key, value in data.items():
        grouped[field_owner[key]][key] = value

    def build(cls, kwargs, bool_keys=(), int_keys=()):
        clean = {}
        for key, value in kwargs.items():
            if key in bool_keys:
                if not isinstance(value, bool):
                    raise ConfigError(key, f"expected a boolean, got {value!r}")
                clean[key] = value
            elif key in int_keys:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ConfigError(key, f"expected an integer, got {value!r}")
                clean[key] = value
            else:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ConfigError(key, f"expected a number, got {value!r}")
                if not math.isfinite(value):
                    raise ConfigError(key, f"expected a finite number, got {value!r}")
                clean[key] = float(value)
        return cls(**clean)

    physics = build(PhysicsParameters, grouped["physics"])
    conditions = build(OperatingConditions, grouped["conditions"])
    simulation = build(
        SimulationSettings,
        grouped["simulation"],
        int_keys=("n_steps", "n_train", "n_test", "dataset_seed"),
    )
    training = build(
        TrainingConfig,
        grouped["training"],
        bool_keys=("physics_enabled",),
        int_keys=("max_epochs", "n_collocation", "seed", "checkpoint_every"),
    )
    return RunConfig(physics, conditions, simulation, training)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError("<file>", f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("<file>", f"{path} must hold a flat JSON object")
    return config_from_dict(data)


def config_hash(cfg: RunConfig) -> str:
    """Stable digest of the full configuration, for provenance records."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
