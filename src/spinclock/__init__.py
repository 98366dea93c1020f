"""Numerical model of a cavity-stabilized spin-ensemble microwave clock.

Modules
-------
params        parameter types, environment mapping, Preset and its config
presets       reference parameter sets ('current', 'outlook') as configs
transmission  probe transmission, susceptibility, 2-D sweeps
polariton     coupled-mode branch frequencies and insensitive operating points
stability     shot-noise precision, probe bounds, noise floors, sigma_y(tau)
figures       the spectrum-document reader; the reference panels as documents
cli           command-line interface (spectrum / operating-point / stability)
"""

__version__ = "0.1.0"

from . import figures
from .params import (
    Branch,
    CavityParams,
    ConfigError,
    EnvironmentState,
    Preset,
    ProbeParams,
    SpinClass,
    SpinEnsembleParams,
    instantaneous_frequencies,
)
from .polariton import (
    NoOperatingPointError,
    OperatingPoint,
    operating_point_closed_form,
    operating_point_numeric,
)
from .presets import table1_preset
from .stability import (
    BetaBound,
    NoiseBudget,
    StabilityCurve,
    environmental_floors,
    low_excitation_bound,
    shot_noise_fractional,
    stability_curve,
)
from .transmission import (
    SweepAxis,
    SweepResult,
    spectrum_sweep,
    susceptibility,
)
from .units import from_hz, to_hz
