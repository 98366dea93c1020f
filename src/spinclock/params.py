"""Physical parameter types and the environment-to-frequency mapping.

The model couples an ensemble of spin-1 defects (two microwave transitions,
labelled ``plus`` and ``minus``) to a single microwave cavity mode.  The
ensemble is represented by weighted spectral classes per branch; the default
is one delta-function class per branch, which reproduces a homogeneous line.

All values stored here are angular (rad/s); see :mod:`spinclock.units`.
Temperatures are kelvin, magnetic fields tesla, times seconds.

A ``Preset`` gathers the four parameter objects with a name and the
temperature and magnetic stabilities behind the environmental floors.  Its
flat JSON config, which provenance sidecars carry, is written by
``Preset.to_config`` and read by ``Preset.from_config`` from one table,
``_FIELDS``, with one row per stored field; a key absent from a config takes
the field's dataclass default.

Each row also holds its value's rule, a predicate with its description
such as "a finite number > 0".  ``_require`` checks a config against the
rows before its Hz values become rad/s, and each parameter object checks
its fields against the same rows when it is built, so a value that
overflows in rad/s fails naming the attribute and its config key.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

from .units import from_hz, to_hz

_REL_TOL = 1e-12


class Branch(enum.Enum):
    PLUS = "plus"
    MINUS = "minus"


class ConfigError(ValueError):
    """Raised for invalid or unknown configuration entries."""


def _is_finite_number(value) -> bool:
    """True for a finite real number, numpy's scalars included, that is not
    a bool (JSON true/false)."""
    # float and int first: the abstract class's check costs several times
    # more, and a parameter set makes dozens of these checks
    if isinstance(value, bool) \
            or not isinstance(value, (float, int, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


# Each rule is a predicate on one value with its description.
_NUMBER = (_is_finite_number, "a finite number")
_POSITIVE = (lambda v: _is_finite_number(v) and v > 0, "a finite number > 0")
_NON_NEGATIVE = (lambda v: _is_finite_number(v) and v >= 0,
                 "a finite number >= 0")
_AT_LEAST_ONE = (lambda v: _is_finite_number(v) and v >= 1,
                 "a finite number >= 1")
_COUNT = (lambda v: isinstance(v, numbers.Integral)
          and not isinstance(v, bool) and v >= 1, "an integer >= 1")
_STRING = (lambda v: isinstance(v, str), "a string")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_is_finite_number, v)),
            "a list of finite numbers")


def _one_of(*values):
    # membership of a tuple compares values, so an unhashable one is unequal
    return (lambda v: v in values), "one of " + ", ".join(map(repr, values))


def _or_null(rule):
    ok, expected = rule
    return (lambda v: v is None or ok(v)), expected + " or null"


def _require(doc: dict, where: str, rules: dict, optional=None) -> None:
    """ConfigError naming the first key of ``rules`` missing from ``doc`` or
    breaking its rule.  With ``optional`` given, a key in neither table is
    an error, and a key of ``optional`` is checked when present."""
    if optional is not None:
        unknown = sorted(doc.keys() - rules.keys() - optional.keys())
        if unknown:
            raise ConfigError(f"{where} has unknown key(s): {', '.join(unknown)}")
        rules = {**rules, **{k: v for k, v in optional.items() if k in doc}}
    for key, (ok, expected) in rules.items():
        if key not in doc:
            raise ConfigError(f"{where} has no {key!r}")
        if not ok(doc[key]):
            raise ConfigError(
                f"{where} {key!r} must be {expected}, got {doc[key]!r}")


def _check_fields(obj) -> None:
    """ConfigError naming the attribute and config key of the first field
    of ``obj`` that breaks its ``_FIELDS`` rule."""
    for key, (kind, attr, _, (ok, expected)) in _FIELDS.items():
        if kind is type(obj) and not ok(value := getattr(obj, attr)):
            raise ConfigError(f"{attr} must be {expected}, got {value!r} "
                              f"(config key {key!r})")


@dataclass(frozen=True)
class SpinClass:
    """One spectral class: a weighted line offset from its branch center.

    ``detuning_offset`` is relative to the Zeeman-shifted branch center
    (rad/s); ``weight`` is the fraction of the branch population it carries.
    """

    detuning_offset: float
    weight: float
    branch: Branch

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ConfigError(f"{_CLASS_KEYS[self.branch][1]}: class weight "
                              f"must be in [0, 1], got {self.weight}")
        if not math.isfinite(self.detuning_offset):
            raise ConfigError(f"{_CLASS_KEYS[self.branch][0]}: class "
                              "detuning_offset must be finite")


def _default_classes() -> tuple[SpinClass, ...]:
    return (SpinClass(0.0, 1.0, Branch.PLUS), SpinClass(0.0, 1.0, Branch.MINUS))


@dataclass(frozen=True)
class SpinEnsembleParams:
    """Collective parameters of the spin ensemble.

    ``g_collective`` is the per-branch ensemble coupling actually used by the
    model.  When omitted it is derived as ``g0_single * sqrt(n_spins)``; a
    preset may pin it explicitly (measured ensemble coupling), in which case
    ``coupling_consistency_ratio`` reports how far g0*sqrt(N) sits from it.
    """

    omega_zfs: float = from_hz(2.87e9)
    spin_classes: tuple[SpinClass, ...] = field(default_factory=_default_classes)
    gamma_pump: float = from_hz(1e6)
    Gamma_deph: float = from_hz(3e6)
    gamma_0: float = 100.0
    g0_single: float = from_hz(0.1)
    n_spins: float = 2.5e14
    g_collective: float | None = None

    def __post_init__(self):
        _check_fields(self)
        if not isinstance(self.spin_classes, tuple):
            object.__setattr__(self, "spin_classes", tuple(self.spin_classes))
        for br in Branch:
            weights = [c.weight for c in self.spin_classes if c.branch is br]
            if weights and abs(sum(weights) - 1.0) > _REL_TOL:
                raise ConfigError(
                    f"{_CLASS_KEYS[br][1]}: weights of branch {br.value!r} "
                    f"sum to {sum(weights)}, expected 1")

    @property
    def branch_coupling(self) -> float:
        """Effective collective coupling g of one branch (rad/s)."""
        if self.g_collective is not None:
            return self.g_collective
        return self.g0_single * math.sqrt(self.n_spins)

    @property
    def coupling_consistency_ratio(self) -> float:
        """g0*sqrt(N) over the coupling in use; 1 when they agree."""
        return self.g0_single * math.sqrt(self.n_spins) / self.branch_coupling

    @property
    def halfwidth(self) -> float:
        """Spin line halfwidth (Gamma + gamma)/2 entering the susceptibility."""
        return 0.5 * (self.Gamma_deph + self.gamma_pump)

    def classes(self, branch: Branch) -> tuple[SpinClass, ...]:
        return tuple(c for c in self.spin_classes if c.branch is branch)

    def class_coupling(self, cls: SpinClass) -> float:
        return self.branch_coupling * math.sqrt(cls.weight)


@dataclass(frozen=True)
class CavityParams:
    """Microwave cavity: resonance at reference temperature, output and loss rates."""

    omega_c_ref: float = from_hz(2.87e9)
    kappa_out: float = from_hz(200e3)
    kappa_loss: float = 0.0

    def __post_init__(self):
        _check_fields(self)

    @property
    def loss_ratio(self) -> float:
        """xi = kappa_loss / kappa_out."""
        return self.kappa_loss / self.kappa_out


@dataclass(frozen=True)
class EnvironmentState:
    """Temperature offset, magnetic field, and the thermal/magnetic coefficients.

    ``R_ratio`` relates the cavity thermal coefficient to the spin one:
    d(omega_c)/dT = R * d(omega_a)/dT.  A negative R (opposite shifts) is what
    makes a temperature-insensitive operating point possible.
    """

    delta_T: float = 0.0
    B_field: float = 0.0
    dwa_dT: float = from_hz(77e3)
    R_ratio: float = -0.1
    gyromagnetic: float = from_hz(28e9)

    def __post_init__(self):
        _check_fields(self)


@dataclass(frozen=True)
class ProbeParams:
    """Probe drive: the source power I in photons/s."""

    photon_flux: float = 1e18

    def __post_init__(self):
        _check_fields(self)


def instantaneous_frequencies(
    spins: SpinEnsembleParams, cavity: CavityParams, env: EnvironmentState
) -> tuple[float, float, float]:
    """Environment-resolved transition and cavity frequencies.

    omega_pm = omega_zfs + (dwa/dT) dT +/- gyromagnetic * B
    omega_c  = omega_c_ref + R (dwa/dT) dT
    """
    thermal = env.dwa_dT * env.delta_T
    zeeman = env.gyromagnetic * env.B_field
    omega_plus = spins.omega_zfs + thermal + zeeman
    omega_minus = spins.omega_zfs + thermal - zeeman
    omega_c = cavity.omega_c_ref + env.R_ratio * thermal
    return omega_plus, omega_minus, omega_c


# --- flat JSON config mapping -------------------------------------------------


@dataclass(frozen=True)
class Preset:
    """One named, fully resolved parameter set; its flat JSON config is
    read and written here and nowhere else."""

    name: str = "custom"
    spins: SpinEnsembleParams = field(default_factory=SpinEnsembleParams)
    cavity: CavityParams = field(default_factory=CavityParams)
    env: EnvironmentState = field(default_factory=EnvironmentState)
    probe: ProbeParams = field(default_factory=ProbeParams)
    dT_stab: float = 0.0  # achievable temperature stability, kelvin
    dB_stab: float = 0.0  # achievable magnetic stability, tesla

    def __post_init__(self):
        _check_fields(self)

    def to_config(self) -> dict:
        """The preset as one Hz-facing key-value dict."""
        objects = {kind: getattr(self, part) for part, kind in _PARTS.items()}
        objects[Preset] = self
        cfg: dict = {}
        for key, (kind, attr, hz, _) in _FIELDS.items():
            value = getattr(objects[kind], attr)
            cfg[key] = to_hz(value) if hz and value is not None else value
        for branch, (off_key, w_key) in _CLASS_KEYS.items():
            classes = self.spins.classes(branch)
            cfg[off_key] = [to_hz(c.detuning_offset) for c in classes]
            cfg[w_key] = [c.weight for c in classes]
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "Preset":
        """Rebuild a preset from a flat config dict whose every value keeps
        its key's rule.

        Unknown keys are rejected so a typo cannot silently fall back to a
        default value.
        """
        _require(cfg, "config", {}, _CONFIG_RULES)
        classes = []
        for branch, (off_key, w_key) in _CLASS_KEYS.items():
            offsets = cfg.get(off_key, [0.0])
            weights = cfg.get(w_key, [1.0])
            if len(offsets) != len(weights):
                raise ConfigError(f"{off_key} and {w_key} differ in length")
            for off, w in zip(offsets, weights):
                classes.append(SpinClass(from_hz(off), w, branch))

        kwargs = {kind: {} for kind in (Preset, *_PARTS.values())}
        kwargs[SpinEnsembleParams]["spin_classes"] = tuple(classes)
        for key, (kind, attr, hz, _) in _FIELDS.items():
            if key in cfg:
                value = cfg[key]
                # a null coupling is derived as g0 * sqrt(N)
                kwargs[kind][attr] = from_hz(value) \
                    if hz and value is not None else value
        return cls(**{part: kind(**kwargs[kind])
                      for part, kind in _PARTS.items()}, **kwargs[Preset])


# The fields of a Preset that hold a parameter object, with its type
_PARTS = {"spins": SpinEnsembleParams, "cavity": CavityParams,
          "env": EnvironmentState, "probe": ProbeParams}
# One row per stored field: config key -> (type holding it, attribute,
# whether the key holds the value in Hz where the field holds rad/s, rule of
# the value).  Keys carry explicit SI unit suffixes.  A key absent from a
# config is left out of the constructor call, so its field takes the
# dataclass default.
_FIELDS = {
    "preset_name": (Preset, "name", False, _STRING),
    "dt_stab_k": (Preset, "dT_stab", False, _NON_NEGATIVE),
    "db_stab_t": (Preset, "dB_stab", False, _NON_NEGATIVE),
    "omega_zfs_hz": (SpinEnsembleParams, "omega_zfs", True, _POSITIVE),
    "gamma_pump_hz": (SpinEnsembleParams, "gamma_pump", True, _NON_NEGATIVE),
    "gamma_dephasing_hz": (SpinEnsembleParams, "Gamma_deph", True,
                           _NON_NEGATIVE),
    "gamma_relax_hz": (SpinEnsembleParams, "gamma_0", True, _NON_NEGATIVE),
    "g0_single_hz": (SpinEnsembleParams, "g0_single", True, _NON_NEGATIVE),
    "g_collective_hz": (SpinEnsembleParams, "g_collective", True,
                        _or_null(_NON_NEGATIVE)),
    "n_spins": (SpinEnsembleParams, "n_spins", False, _AT_LEAST_ONE),
    "omega_c_ref_hz": (CavityParams, "omega_c_ref", True, _NUMBER),
    "kappa_out_hz": (CavityParams, "kappa_out", True, _POSITIVE),
    "kappa_loss_hz": (CavityParams, "kappa_loss", True, _NON_NEGATIVE),
    "dwa_dt_hz_per_k": (EnvironmentState, "dwa_dT", True, _NUMBER),
    "gyromagnetic_hz_per_t": (EnvironmentState, "gyromagnetic", True, _NUMBER),
    "delta_t_k": (EnvironmentState, "delta_T", False, _NUMBER),
    "b_field_t": (EnvironmentState, "B_field", False, _NUMBER),
    "r_ratio": (EnvironmentState, "R_ratio", False, _NUMBER),
    "photon_flux_per_s": (ProbeParams, "photon_flux", False, _POSITIVE),
}
# The spin classes of each branch as two lists, offsets (Hz) and weights.
# An absent list is the default single class: offset 0, weight 1.
_CLASS_KEYS = {
    Branch.PLUS: ("class_offsets_plus_hz", "class_weights_plus"),
    Branch.MINUS: ("class_offsets_minus_hz", "class_weights_minus"),
}
# The rule of each config key
_CONFIG_RULES = {
    **{key: rule for key, (*_, rule) in _FIELDS.items()},
    **{key: _NUMBERS for keys in _CLASS_KEYS.values() for key in keys},
}

KNOWN_CONFIG_KEYS = frozenset(_CONFIG_RULES)


__all__ = [
    "Branch",
    "ConfigError",
    "SpinClass",
    "SpinEnsembleParams",
    "CavityParams",
    "EnvironmentState",
    "ProbeParams",
    "instantaneous_frequencies",
    "Preset",
    "KNOWN_CONFIG_KEYS",
]
