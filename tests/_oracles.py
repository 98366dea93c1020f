"""References the tests check the library against.

The bright-mode closed forms (B = 0) import nothing from spinclock, and
``exact_eigenvalue`` works in exact rationals.  ``class_sum_per_class`` is
the susceptibility with one division per spin class and no line shared, and
``sweep_reference`` the transmission over a whole sweep grid at once, each
denominator built in the grid in the direct form.
The per-point readers and the central difference read ``polariton._solve``,
the solve every run uses, with ``_slope`` and ``_curvature``: a criterion
checked through them checks that solve, not a copy of it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from spinclock.params import Branch
from spinclock.polariton import (BRANCHES, _coupling_pattern, _curvature,
                                 _dH_dB, _dH_dT, _slope, _solve)


# Closed forms of the bright modes (degenerate spin branches, B = 0)

def polariton_energies_degenerate(omega_c, omega_a, g_plus, g_minus):
    """Bright-mode closed form for degenerate spin branches (B = 0)."""
    mean = 0.5 * (omega_c + omega_a)
    split = math.sqrt(0.25 * (omega_c - omega_a) ** 2 + g_plus ** 2 + g_minus ** 2)
    return mean + split, mean - split


def dnu_dT_degenerate(omega_c, omega_a, g, R, dwa_dT, branch: str) -> float:
    """Closed-form thermal slope of the bright modes (equal couplings, B = 0)."""
    if branch not in ("upper", "lower"):
        raise ValueError("closed form covers the bright branches 'upper'/'lower'")
    sign = 1.0 if branch == "upper" else -1.0
    delta = omega_c - omega_a
    root = math.sqrt(delta ** 2 + 8.0 * g ** 2)
    a = dwa_dT
    return 0.5 * (a + R * a + sign * a * (R - 1.0) * delta / root)


def curvature_T_degenerate(detuning, g, R, dwa_dT) -> float:
    """Analytic d2nu/dT2 of the bright modes at fixed detuning.

    With f(d) = sqrt(d^2/4 + 2 g^2), f'' = g^2 / (2 f^3) and the chain rule
    over d(T) = D + (R - 1) a T gives |d2nu/dT2| = a^2 (1-R)^2 g^2 / (2 f^3).
    """
    f = math.sqrt(0.25 * detuning ** 2 + 2.0 * g ** 2)
    return (dwa_dT ** 2) * (1.0 - R) ** 2 * g ** 2 / (2.0 * f ** 3)


# The susceptibility class by class

def class_sum_per_class(spins, thermal, zeeman, omega):
    """C(omega) = sum_j g_j^2 / (hw + i(omega_j - omega)), one division per
    class, in class order, whether or not two classes sit on one line."""
    c_value = 0.0
    for cls in spins.spin_classes:
        sign = 1.0 if cls.branch is Branch.PLUS else -1.0
        center = (spins.omega_zfs + cls.detuning_offset + thermal
                  + sign * zeeman)
        g_j = spins.class_coupling(cls)
        c_value = c_value + g_j * g_j / (spins.halfwidth
                                         + 1j * (center - omega))
    return c_value


def sweep_reference(spins, cavity, env, axis1, axis2):
    """t = kappa / (kappa + kappa_l + i(omega_c - omega) + C) over the whole
    (axis1, axis2) grid in one broadcast, with C from ``class_sum_per_class``
    and every difference of frequencies taken in the grid."""
    swept = {axis1.variable: axis1.grid()[:, None],
             axis2.variable: axis2.grid()[None, :]}
    thermal = env.dwa_dT * swept.get("delta_T", env.delta_T)
    zeeman = env.gyromagnetic * swept.get("B_field", env.B_field)
    omega = spins.omega_zfs + swept.get("probe_offset", 0.0)
    if "cavity_offset" in swept:
        omega_c = spins.omega_zfs + swept["cavity_offset"]
    else:
        omega_c = cavity.omega_c_ref
    omega_c = omega_c + env.R_ratio * thermal
    c_value = class_sum_per_class(spins, thermal, zeeman, omega)
    t = cavity.kappa_out / (cavity.kappa_out + cavity.kappa_loss
                            + 1j * (omega_c - omega) + c_value)
    return np.broadcast_to(t, (axis1.points, axis2.points))


# Exact arithmetic

def exact_eigenvalue(h, guess, width):
    """Eigenvalue of the rational 3x3 matrix ``h`` in guess +/- width, by
    bisecting its characteristic polynomial in exact arithmetic to ~1e-30."""
    def charpoly(lam):
        m = [[(lam if i == j else 0) - h[i][j] for j in range(3)]
             for i in range(3)]
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    lo, hi = Fraction(guess) - Fraction(width), Fraction(guess) + Fraction(width)
    f_lo = charpoly(lo)
    assert f_lo * charpoly(hi) < 0  # exactly one eigenvalue inside
    for _ in range(120):
        mid = (lo + hi) / 2
        f_mid = charpoly(mid)
        if (f_mid < 0) == (f_lo < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


# Per-point readers over polariton._solve

@dataclass(frozen=True)
class Solution:
    """Branch frequencies of one solve, ascending, rad/s."""

    lambdas: np.ndarray

    def branch(self, name: str) -> float:
        return float(self.lambdas[BRANCHES.index(name)])


def _solve_at(spins, cavity, env):
    """The solve at the cavity's reference frequency and ``env``'s point."""
    return _solve(spins, env, cavity.omega_c_ref - spins.omega_zfs,
                  env.delta_T, env.B_field, _coupling_pattern(spins))


def eigenfrequencies(spins, cavity, env) -> Solution:
    """Polariton branch frequencies under the given environment."""
    lam, _ = _solve_at(spins, cavity, env)
    return Solution(lambdas=spins.omega_zfs + lam)


def dnu_dT(spins, cavity, env, branch: str) -> float:
    """Thermal slope of one polariton branch via Hellmann-Feynman."""
    _, vec = _solve_at(spins, cavity, env)
    return float(_slope(vec, BRANCHES.index(branch), _dH_dT(env)))


def magnetic_response(spins, cavity, env, branch: str) -> tuple[float, float]:
    """(dnu/dB, d2nu/dB2) of one branch at the ``env`` field point.

    The slope is the Hellmann-Feynman expectation, exactly zero at B = 0 for
    symmetric couplings (spin-1 protection), the curvature the exact
    second-order sum.
    """
    idx = BRANCHES.index(branch)
    lam, vec = _solve_at(spins, cavity, env)
    dh_db = _dH_dB(env)
    return (float(_slope(vec, idx, dh_db)),
            float(_curvature(lam, vec, idx, dh_db)))


def _branch_rel(spins, env, detuning, branch, delta_T, b_field):
    """One branch frequency relative to the line center; array arguments
    broadcast into one stacked solve."""
    lam, _ = _solve(spins, env, detuning, delta_T, b_field,
                    _coupling_pattern(spins))
    rel = lam[..., BRANCHES.index(branch)]
    return rel if rel.ndim else float(rel)


def branch_frequency_at(spins, env, detuning, branch, delta_T=0.0, b_field=0.0):
    """Absolute branch frequency at a reference spin-cavity detuning."""
    return spins.omega_zfs + _branch_rel(spins, env, detuning, branch,
                                         delta_T, b_field)


def dnu_dT_central_difference(spins, env, detuning, branch, step) -> float:
    """Central difference of one branch frequency w.r.t. temperature.

    Both displaced solves happen in the line-center frame so the GHz carrier
    cancels before rounding; the difference is then accurate at the detuning
    scale, not the carrier scale.
    """
    up, dn = _branch_rel(spins, env, detuning, branch,
                         env.delta_T + np.array([step, -step]), env.B_field)
    return float((up - dn) / (2.0 * step))
