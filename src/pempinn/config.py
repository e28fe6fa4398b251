"""Flat, human-editable run configuration.

One JSON file holds every parameter of a run: physics constants, operating
conditions, simulation/dataset settings, and training settings. Keys are
the dataclass field names (they are unique across the four groups). The
loader checks each value's kind against its field's annotation (``bool``,
``int`` or finite ``float``), and each group's ``__post_init__`` checks
its ranges; every error names the offending key. No function downstream
checks a config value again.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields

from .constants import OperatingConditions, PhysicsParameters
from .errors import ConfigError
from .simulator import SimulationSettings, atomic_open
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


def _checked(key: str, kind: str, value):
    """``value`` of ``key`` if it is of the field's kind; floats as float."""
    if kind == "bool":
        if not isinstance(value, bool):
            raise ConfigError(key, f"expected a boolean, got {value!r}")
        return value
    if kind == "int":
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(key, f"expected an integer, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(key, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(key, f"expected a finite number, got {value!r}")
    return float(value)


def config_from_dict(data: dict) -> RunConfig:
    owner = {f.name: (name, f.type) for name, cls in _GROUPS for f in fields(cls)}
    unknown = [k for k in data if k not in owner]
    if unknown:
        raise ConfigError(unknown[0], "unknown configuration key")

    grouped: dict[str, dict] = {name: {} for name, _ in _GROUPS}
    for key, value in data.items():
        name, kind = owner[key]
        grouped[name][key] = _checked(key, kind, value)
    return RunConfig(**{name: cls(**grouped[name]) for name, cls in _GROUPS})


def save_config(cfg: RunConfig, path) -> None:
    """Write the config as UTF-8 JSON, atomically (``atomic_open``)."""
    with atomic_open(path) as fh:
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
