"""Central registry of physical constants and operating conditions.

Every equation module reads its constants from here so the values are
audited in one place. Each field is a key of the flat run config
(:mod:`pempinn.config` reads and writes it), and every field is read by an
equation; quantities derived from others, such as ``rho_naf_cgs``, are
read-only properties rather than keys.

Unit conventions (hybrid, following the degradation literature): time in
hours, membrane thickness in cm, voltage in V, current density in A/cm2,
conductivity in S/cm, species concentrations in mol/m3, kinetic constants
in SI (m, mol, s). The thinning-rate chain embeds the resulting conversion
factors literally; they live in :mod:`pempinn.degradation` and are audited
by a dimensional test.

Three closure parameters (``v1``, ``kappa_w``, ``c_O2``) are not fixed by
the literature sources. Their defaults come from a one-time calibration
(scripts/calibrate_closures.py) that makes the clean simulation lose half
of its initial membrane thickness over the default horizon; rerun that
script if you change them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
import math

from .errors import ConfigError

__all__ = [
    "K5_SCALE",
    "PhysicsParameters",
    "OperatingConditions",
    "membrane_molar_concentration",
    "saturation_pressure_bar",
]


# Antoine correlation for water (Stull), valid 1..100 C. log10(p/mmHg) =
# A - B / (C + T/degC); one mmHg is 1/750.062 bar.
ANTOINE_WATER = {"A": 8.07131, "B": 1730.63, "C": 233.426}
MMHG_PER_BAR = 750.062

# Fixed conditioning factor between the trainable normalized scalar k5_hat
# and the physical attack-rate constant, m3/(mol s).
K5_SCALE = 1.0e3

# Zero crossing of the membrane conductivity formula
# (0.005139*lambda - 0.00326): lambda_hydration must exceed it.
_LAMBDA_MIN = 0.00326 / 0.005139


def saturation_pressure_bar(T: float) -> float:
    """Saturation vapor pressure of water at temperature T (kelvin), in bar.

    ``OperatingConditions``, its one caller, has checked T > 273.15 K.
    """
    t_c = T - 273.15
    p_mmhg = 10.0 ** (
        ANTOINE_WATER["A"] - ANTOINE_WATER["B"] / (ANTOINE_WATER["C"] + t_c)
    )
    return p_mmhg / MMHG_PER_BAR


@dataclass(frozen=True)
class PhysicsParameters:
    """Physical and kinetic constants, plus documented closure parameters."""

    R: float = 8.314            # ideal gas constant, J/(mol K)
    F: float = 96485.0          # Faraday constant, C/mol
    E0: float = 1.23            # standard cell potential, V
    alpha_an: float = 0.5       # anode charge-transfer coefficient
    alpha_cat: float = 0.5      # cathode charge-transfer coefficient
    i0_an: float = 2.3e-7       # anode exchange current density, A/cm2
    i0_cat: float = 1.0e-3      # cathode exchange current density, A/cm2
    lambda_hydration: float = 20.0
    EW: float = 1.100           # Nafion equivalent weight, kg/mol
    rho_naf_SI: float = 1980.0  # Nafion density, kg/m3
    MM_F: float = 18.998        # fluoride molar mass, g/mol
    e_cl: float = 1.0e-5        # cathode catalyst-layer thickness, m
    k2: float = 1.2e-7          # H2O2 homolysis, 1/s
    k3: float = 2.7e4           # H2O2 + HO., m3/(mol s)
    k4: float = 1.2e7           # O2 + HO., m3/(mol s)
    k5_true: float = 1.0e3      # HO. + membrane, m3/(mol s)
    fluorine_mass_fraction: float = 0.82
    fluoride_stoich: float = 3.6
    # Closure parameters (calibrated, see module docstring).
    v1: float = 5.566676316117318      # H2O2 formation rate, mol/(m3 s)
    kappa_w: float = 3.0e-6            # water velocity per current density, (m/s)/(A/cm2)
    c_O2: float = 0.1                  # O2 concentration at cathode CL, mol/m3

    @property
    def rho_naf_cgs(self) -> float:
        """Nafion density in g/cm3, which the thinning-rate formula reads."""
        return self.rho_naf_SI / 1000.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0.0:
                raise ConfigError(f.name, "must be strictly positive")
        if self.lambda_hydration <= _LAMBDA_MIN:
            raise ConfigError(
                "lambda_hydration",
                f"hydration {self.lambda_hydration} gives non-positive conductivity "
                f"(must exceed {_LAMBDA_MIN:.6f})",
            )
        scaled = self.k5_true / K5_SCALE
        if not 0.1 <= scaled <= 10.0:
            raise ConfigError(
                "k5_true",
                f"k5_true/1e3 = {scaled} outside [0.1, 10]; the normalized "
                "trainable parameter would be ill-conditioned",
            )


@dataclass(frozen=True)
class OperatingConditions:
    """Fixed exogenous inputs of a run."""

    T: float = 313.15        # K
    p_H2: float = 30.0       # bar (cathode side, taken at cathode pressure)
    p_O2: float = 1.0        # bar (anode side, near ambient)
    p_H2O: float = field(default=math.nan)  # bar; nan means saturation at T
    P: float = 500.0         # W
    A_cell: float = 680.0    # cm2
    t_mem0: float = 0.0175   # cm
    t_max: float = 8.0e5     # h

    def __post_init__(self):
        if self.T <= 273.15:
            raise ConfigError("T", "temperature must exceed 273.15 K")
        if math.isnan(self.p_H2O):
            object.__setattr__(self, "p_H2O", saturation_pressure_bar(self.T))
        for key in ("p_H2", "p_O2", "p_H2O"):
            if getattr(self, key) <= 0.0:
                raise ConfigError(key, "pressure must be positive")
        if self.P <= 0.0:
            raise ConfigError("P", "power must be positive")
        if self.A_cell <= 0.0:
            raise ConfigError("A_cell", "cell area must be positive")
        if not 0.0 < self.t_mem0 < 0.1:
            raise ConfigError("t_mem0", "initial thickness must lie in (0, 0.1) cm")
        if self.t_max <= 0.0:
            raise ConfigError("t_max", "simulation horizon must be positive")


def membrane_molar_concentration(params: PhysicsParameters) -> float:
    """Molar concentration of the membrane polymer, mol/m3 (density / EW)."""
    return params.rho_naf_SI / params.EW
