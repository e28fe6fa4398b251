"""PEM electrolyzer membrane-degradation simulator and physics-informed
calibration engine.

Subpackage map: constants (registry and config), electrochem (voltage
model), degradation (radical chemistry and thinning), simulator (trajectory
and dataset generation), network (MLP, its tangent pass and VJP,
checkpoints), training (composite loss, Adam, metrics), cli (pipeline
commands). All of them run on plain floats and numpy arrays. No command
and no test oracle runs autodiff (a reverse-mode graph): the tests pin the
closed-form derivatives to complex steps of a plain-numpy reference.
"""

__version__ = "0.1.0"

from .constants import OperatingConditions, PhysicsParameters
from .simulator import Dataset, Trajectory, generate_dataset, integrate_trajectory
from .training import Metrics, TrainingConfig, evaluate, train

__all__ = [
    "__version__",
    "PhysicsParameters",
    "OperatingConditions",
    "Trajectory",
    "Dataset",
    "integrate_trajectory",
    "generate_dataset",
    "TrainingConfig",
    "Metrics",
    "train",
    "evaluate",
]
