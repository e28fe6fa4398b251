"""Flat, human-editable run configuration.

One JSON file holds every parameter of a run: physics constants, operating
conditions, simulation/dataset settings, and training settings. Keys are
the dataclass field names (they are unique across the four groups). The
loader checks each value against its field's annotation by the kind rule
of every JSON file the package reads (``simulator.JSON_KINDS``): ``int``
takes an integer, ``float`` a finite number that fits a float, and a
boolean is never a number. Each group's ``__post_init__``
checks its ranges, every array size has an upper bound
(``simulator.MAX_COUNT``), and ``RunConfig`` checks that the RK4 step
``t_max / n_steps`` does not round to 0. Every error names the offending
key, and one from ``load_config`` also the file; a file that holds no JSON
object is named without a key. All four groups and ``RunConfig`` are
frozen, so a value cannot change after it was checked and hashed, and no
function downstream checks a config value again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from functools import partial

from .constants import OperatingConditions, PhysicsParameters
from .errors import ConfigError
from .simulator import SimulationSettings, atomic_open, json_value, read_json_object
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

    def __post_init__(self):
        # The RK4 step: one that rounds to 0 stacks every sample at t = 0.
        if self.conditions.t_max / self.simulation.n_steps == 0.0:
            raise ConfigError(
                "t_max",
                f"the step t_max / n_steps rounds to 0 for t_max "
                f"{self.conditions.t_max} and n_steps {self.simulation.n_steps}",
            )


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
    owner = {f.name: (name, f.type) for name, cls in _GROUPS for f in fields(cls)}
    unknown = [k for k in data if k not in owner]
    if unknown:
        raise ConfigError(unknown[0], "unknown configuration key")

    grouped: dict[str, dict] = {name: {} for name, _ in _GROUPS}
    for key, value in data.items():
        name, kind = owner[key]
        grouped[name][key] = json_value(value, kind, partial(ConfigError, key))
    return RunConfig(**{name: cls(**grouped[name]) for name, cls in _GROUPS})


def save_config(cfg: RunConfig, path) -> None:
    """Write the config as UTF-8 JSON, atomically (``atomic_open``)."""
    with atomic_open(path) as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> RunConfig:
    """The config in the JSON file ``path``; every error names the file."""
    data = read_json_object(path, partial(ConfigError, None))
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(exc.key, f"{exc.message} (in {path})") from exc


def config_hash(cfg: RunConfig) -> str:
    """Stable digest of the full configuration, for provenance records."""
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
