"""Cavity transmission of the coupled spin-cavity system.

The probe response is

    t(omega) = kappa / (kappa + kappa_l + i*Delta + C(omega)),   Delta = omega_c - omega

with the ensemble susceptibility summed over spectral classes,

    C(omega) = sum_j g_j^2 / ((Gamma + gamma)/2 + i*(omega_j - omega)).

Re[C] > 0 for any passive ensemble, which pins |t| <= 1.  Homodyne readout
selects the quadrature Re[exp(-i*phi) * t]; phi = pi/2 returns Im[t], the
most phase-sensitive choice and the default everywhere.

Each denominator is built from per-axis complex factors,

    (kappa + kappa_l + i*omega_c) - i*omega + C,   (hw + i*omega_j) - i*omega,

so that in a sweep the products with i and the real additions run on
factors that span only the axes they depend on.  The result is bit for bit
the direct form's: for finite inputs both give the real part
kappa + kappa_l + Re C (or hw), since i*x has the real part 0*x - 0, a zero
that adds nothing to a positive width, and the imaginary part
omega_c - omega + Im C (or omega_j - omega) from the same subtraction.  A
non-finite factor still makes the real part NaN through 0*inf.  What the
factor form cannot show is a difference of two finite factors that
overflows, where the direct form's i*inf gave NaN: ``spectrum_sweep``
refuses such a grid before it starts.

A sweep block's denominators are built in buffers the evaluation owns.
Where a factor spans the block's rows and the probe factor its columns,
``_difference`` fills a new buffer with the first and subtracts the second
in place; g_j^2 is then divided into a line's buffer, and C is added into
the cavity's, which kappa is divided by into the block's rows of the
result.  Each step is the IEEE operation of the expression it replaces, on
the same operands, so every value keeps its bits.  Two costs go.  numpy
runs a complex (rows, 1) - (1, n2) pair through its broadcast loop, which
on a 32 x 1001 block took 59-67 us against 44-48 us for the fill and the
in-place subtraction (2-core Xeon, numpy 2.4).  And each expression made
fresh block-sized temporaries, which malloc hands back to the system and
faults in again until a large free raises its thresholds: a fresh
process's first 2a sweep at 1001 x 1001 took 8,200-8,700 minor faults and
24-32 ms, against 600-1,100 and 10-13 ms with the buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    _COUNT,
    _NUMBER,
    Branch,
    CavityParams,
    ConfigError,
    EnvironmentState,
    SpinEnsembleParams,
    _one_of,
    _require,
)

AXIS_VARIABLES = ("probe_offset", "cavity_offset", "delta_T", "B_field")
# The rule of each field of a sweep axis, in the model's units or in an axis
# document's
_AXIS_KEYS = dict(variable=_one_of(*AXIS_VARIABLES), start=_NUMBER,
                  stop=_NUMBER, points=_COUNT)


@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: which variable, over what range, how many points.

    Frequency-like variables (probe_offset, cavity_offset) are offsets from
    the zero-field line center, in rad/s; delta_T is kelvin, B_field tesla.
    """

    variable: str
    start: float
    stop: float
    points: int

    def __post_init__(self):
        _require(vars(self), f"{self.variable} axis", _AXIS_KEYS)
        if not (self.stop >= self.start):
            raise ConfigError("axis range must be monotone (stop >= start)")

    def grid(self) -> np.ndarray:
        if self.points == 1:
            return np.array([0.5 * (self.start + self.stop)])
        try:
            return np.linspace(self.start, self.stop, self.points)
        except MemoryError:
            raise ConfigError(f"a {self.points}-point {self.variable} axis "
                              "does not fit in memory") from None


def quadrature_of(t, phase: float):
    """Homodyne quadrature Re[exp(-i*phase) * t]."""
    return np.real(np.exp(-1j * phase) * t)


def _lines(spins: SpinEnsembleParams, signed: bool):
    """The line (offset, coupling, Zeeman sign) of each class, in class
    order; with ``signed`` false every line takes the plus sign."""
    return [(cls.detuning_offset, spins.class_coupling(cls),
             1.0 if cls.branch is Branch.PLUS or not signed else -1.0)
            for cls in spins.spin_classes]


def _center(spins: SpinEnsembleParams, line, thermal, zeeman):
    """omega_j = omega_zfs + offset_j + thermal +/- zeeman of one line."""
    offset, _, sign = line
    return spins.omega_zfs + offset + thermal + sign * zeeman


def _difference(factor, i_omega):
    """factor - i_omega, as a new array (or scalar) that the caller owns.

    A pair whose broadcast shape neither has, a factor spanning a sweep
    block's rows, (rows, 1), against the probe factor spanning its columns,
    (1, n2), is built in a new buffer: filled with ``factor``, then
    ``i_omega`` is subtracted in place (see the module docstring).  Any
    other pair is numpy's (or Python's) subtraction, whose result is no
    larger than one of its operands."""
    pair = np.broadcast(factor, i_omega)
    if pair.size in (np.size(factor), np.size(i_omega)):
        return factor - i_omega
    out = np.empty(pair.shape, dtype=np.complex128)
    out[...] = factor
    return np.subtract(out, i_omega, out=out)


def _class_sum(spins: SpinEnsembleParams, thermal, zeeman, omega):
    """C(omega) = sum_j g_j^2 / ((Gamma + gamma)/2 + i*(omega_j - omega)).

    The thermal shift (dwa/dT * dT), the Zeeman shift (gyro * B) and the
    probe ``omega`` broadcast against each other; class j sits at
    omega_j = omega_zfs + offset_j + thermal +/- zeeman.  Classes are summed
    one at a time, so C only spans the axes its inputs span and no
    temporary grows past their broadcast shape.  Each denominator is the
    factor form (hw + i*omega_j) - i*omega, bit for bit
    hw + i*(omega_j - omega) (see the module docstring), built by
    ``_difference`` in a buffer into which g_j^2 is then divided, so a line
    term takes one block buffer and makes no numpy temporary.  The sum
    starts at the first term and adds each later one into its buffer in
    place; where a later class still reads the first term, the second
    addition goes into a new buffer instead.  With no 0.0 to start from, a
    C whose terms all have a -0.0 part keeps it, which t never shows (its
    denominator adds C to a positive width and to a non-zero or +0.0
    difference); ``susceptibility`` adds the 0.0 back.

    A term reads only its class's offset, coupling and, where the field is
    non-zero, Zeeman sign, so classes that agree on those share one line:
    at zero field the m_s = +/-1 lines coincide.  Each distinct line's
    division runs once, and its term is added back for every class that
    shares it, in class order, so C is bit for bit the class-by-class sum.
    A term is kept only until its last class has read it.
    """
    hw = spins.halfwidth
    if hw <= 0:
        raise ConfigError("gamma_dephasing_hz and gamma_pump_hz: total spin "
                          "linewidth Gamma + gamma must be > 0")
    # with the field at (signed) zero, +/- zeeman add the same bits to the
    # positive omega_zfs sum, so the sign is no part of a line's key
    lines = _lines(spins, np.count_nonzero(zeeman) > 0)
    last = {line: j for j, line in enumerate(lines)}
    terms = {}
    i_omega = 1j * omega
    c_value = 0.0  # no classes: bare cavity
    for j, line in enumerate(lines):
        term = terms.pop(line, None)
        if term is None:
            g_j = line[1]
            term = _difference(hw + 1j * _center(spins, line, thermal, zeeman),
                               i_omega)
            # g_j * g_j overflows to inf where a float's ** 2 raises
            # OverflowError; a scalar keeps CPython's complex division
            term = (np.divide(g_j * g_j, term, out=term)
                    if isinstance(term, np.ndarray) else g_j * g_j / term)
        if last[line] > j:
            terms[line] = term
        if not j:
            c_value = term
        elif c_value is terms.get(lines[0]):
            # the first term, which a later class still reads
            c_value = c_value + term
        else:
            c_value += term
    return c_value


def susceptibility(
    spins: SpinEnsembleParams, env: EnvironmentState, omega_probe
):
    """Ensemble susceptibility C(omega); accepts scalar or array probe."""
    omega = np.asarray(omega_probe, dtype=np.float64)
    # a scalar probe stays a Python float, so its division is CPython's
    # complex division, as hw + i*(omega_j - omega) was; the 0.0 a
    # class-by-class sum starts at clears the -0.0 parts that _class_sum,
    # started at its first term, can keep
    c = 0.0 + _class_sum(spins, env.dwa_dT * env.delta_T,
                         env.gyromagnetic * env.B_field,
                         omega if omega.ndim else float(omega))
    return c if omega.ndim else complex(c)


def transmission_amplitude(cavity: CavityParams, c_value, omega_probe, omega_c,
                           out=None):
    """t = kappa / (kappa + kappa_l + i(omega_c - omega) + C); array friendly.

    The denominator is the factor form (kappa + kappa_l + i*omega_c)
    - i*omega + C, bit for bit the direct one (see the module docstring).
    ``_difference`` builds the first two factors' difference in a new
    buffer, and C is added into it in place where it already spans C's
    shape, so the inputs are only read and a sweep block's denominator takes
    one buffer.  kappa is then divided by it into ``out``, which is numpy's:
    t is written into it, which the inputs broadcast to, and it is
    returned."""
    den = _difference(
        cavity.kappa_out + cavity.kappa_loss + 1j * np.asarray(omega_c),
        1j * np.asarray(omega_probe))
    if np.shape(den) == np.broadcast(den, c_value).shape:
        den += c_value  # den is new, so C can go into its buffer
    else:
        den = den + c_value
    return np.divide(cavity.kappa_out, den, out=out)


@dataclass(frozen=True)
class SweepResult:
    """Transmission grid on the axis grids, row-major in (axis1, axis2)."""

    values1: np.ndarray
    values2: np.ndarray
    t: np.ndarray  # complex, shape (values1.size, values2.size)

    @property
    def abs_t(self) -> np.ndarray:
        return np.abs(self.t)

    def row_trace(self, axis1_value: float) -> tuple[float, np.ndarray, np.ndarray]:
        """1-D cut at the axis1 grid point nearest ``axis1_value``.

        Returns (actual axis1 value, axis2 grid, complex t row); used for the
        operating-point slice of temperature/field sweeps.
        """
        i = int(np.argmin(np.abs(self.values1 - axis1_value)))
        return float(self.values1[i]), self.values2.copy(), self.t[i].copy()


# Grid points per sweep block: a block's complex buffers (512 KiB each)
# stay in a core's L2 cache (2 MiB on the 2-core Xeon it was tuned on),
# where the sweep time was flat from 2**14 to 2**15.5 points; with the
# denominators in buffers, 2**14 and 2**16 were both slower on 2c and 2d.
_BLOCK_POINTS = 2 ** 15


def _frequencies(spins, cavity, env, swept: dict):
    """(thermal shift, Zeeman shift, probe, cavity) in rad/s, with each
    variable in ``swept`` overriding its ``env`` (or probe or cavity) value,
    broadcasting as it is shaped."""
    thermal_shift = env.dwa_dT * swept.get("delta_T", env.delta_T)
    zeeman = env.gyromagnetic * swept.get("B_field", env.B_field)
    omega_probe = spins.omega_zfs + swept.get("probe_offset", 0.0)
    if "cavity_offset" in swept:
        omega_c = (spins.omega_zfs + swept["cavity_offset"]
                   + env.R_ratio * thermal_shift)
    else:
        omega_c = cavity.omega_c_ref + env.R_ratio * thermal_shift
    return thermal_shift, zeeman, omega_probe, omega_c


def _require_finite_differences(spins, cavity, env, axis1, v1, axis2, v2):
    """ConfigError naming the axes where a finite cavity or spin-line
    frequency and a finite probe frequency of the grid lie too far apart
    for their difference to be a float.

    The direct form i*(omega_c - omega) made t NaN there; the factor form
    would give a finite t.  Every frequency is monotone in each axis value,
    so its extremes sit at the grid's corners, and only the probe frequency
    reads the probe axis, so each extreme difference is one the grid makes.
    A non-finite frequency is left to make t NaN, as in either form.
    """
    corners = {axis1.variable: np.array([[v1.min()], [v1.max()]]),
               axis2.variable: np.array([[v2.min(), v2.max()]])}
    thermal, zeeman, omega, omega_c = _frequencies(spins, cavity, env, corners)
    omega = np.asarray(omega)[np.isfinite(omega)]
    factors = [("cavity", omega_c)] + [
        ("spin line", _center(spins, line, thermal, zeeman))
        for line in _lines(spins, True)]
    for name, factor in factors:
        factor = np.asarray(factor)[np.isfinite(factor)]
        # Python floats: an overflowing difference is inf, with no warning
        if factor.size and omega.size and not (
                math.isfinite(float(factor.max()) - float(omega.min()))
                and math.isfinite(float(factor.min()) - float(omega.max()))):
            raise ConfigError(
                f"the {axis1.variable} x {axis2.variable} sweep puts the "
                f"{name} and probe frequencies too far apart: their "
                "difference overflows")


def spectrum_sweep(
    spins: SpinEnsembleParams,
    cavity: CavityParams,
    env: EnvironmentState,
    axis1: SweepAxis,
    axis2: SweepAxis,
) -> SweepResult:
    """Evaluate the transmission over a 2-D grid of swept variables.

    Sweep variables override the corresponding entry of ``env`` (or the
    cavity/probe offset); everything not swept is held at its ``env`` value.
    When the probe is not a sweep axis it sits at the line center.

    Each swept quantity is a broadcast axis, ``(rows, 1)`` for a block of
    axis1 rows and ``(1, n2)`` for axis2, and everything held fixed stays a
    scalar, so C(omega) only spans the axes it depends on (the probe axis
    alone in a probe-vs-cavity sweep).  Each denominator is built from
    per-axis complex factors, (hw + i*omega_j) - i*omega for a spin line
    and (kappa + kappa_l + i*omega_c) - i*omega + C for the cavity, so the
    products with i and the real additions run on the small factors.  Each
    block-sized denominator is built in a buffer of its own, filled with
    the row factor and completed in place, and each block's final division
    writes straight into its rows of the preallocated ``(n1, n2)`` result
    (numpy's ``out=`` of ``transmission_amplitude``).  That spares numpy's
    broadcast loop over a (rows, 1) - (1, n2) pair and the fresh
    temporaries, which a fresh process faults in block after block; every
    value is bit for bit the direct form's (see the module docstring).  The
    grid is filled one block of about ``_BLOCK_POINTS`` points at a time,
    so no buffer grows past one block and the result is the only grid-sized
    array.  C reads no cavity frequency, so with the cavity offset on axis1
    every block shares the first block's C.  At zero field ``_class_sum``
    divides once per distinct spin line, not once per class.  Every step is
    elementwise, so the block size changes no value.  Two axes over one
    variable, a grid too large to allocate, or one whose cavity or
    spin-line and probe frequencies differ by more than a float holds, is a
    ConfigError, raised before any block runs.
    """
    if axis1.variable == axis2.variable:
        raise ConfigError("axis1 and axis2 must sweep different variables, "
                          f"got {axis1.variable!r} twice")

    v1 = axis1.grid()
    v2 = axis2.grid()
    _require_finite_differences(spins, cavity, env, axis1, v1, axis2, v2)
    try:
        t = np.empty((v1.size, v2.size), dtype=np.complex128)
    except MemoryError:
        raise ConfigError(f"a {v1.size} x {v2.size} sweep grid does not fit "
                          "in memory") from None
    rows = max(1, _BLOCK_POINTS // v2.size)
    c_value = None
    for start in range(0, v1.size, rows):
        block = slice(start, start + rows)
        thermal_shift, zeeman, omega_probe, omega_c = _frequencies(
            spins, cavity, env,
            {axis1.variable: v1[block, None], axis2.variable: v2[None, :]})
        # C reads no cavity frequency: with the cavity offset on axis1,
        # every block has the first block's C
        if c_value is None or axis1.variable != "cavity_offset":
            c_value = _class_sum(spins, thermal_shift, zeeman, omega_probe)
        transmission_amplitude(cavity, c_value, omega_probe, omega_c,
                               out=t[block])
    return SweepResult(values1=v1, values2=v2, t=t)


__all__ = [
    "AXIS_VARIABLES",
    "SweepAxis",
    "SweepResult",
    "quadrature_of",
    "susceptibility",
    "transmission_amplitude",
    "spectrum_sweep",
]
