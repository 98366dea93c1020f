"""Polariton branch frequencies, thermal sensitivity, and insensitive operating points.

The lossless coupled-mode matrix in the (cavity, spin+, spin-) basis is

    H = [[w_c, g+, g-],
         [g+,  w+, 0 ],
         [g-,  0,  w-]]

whose eigenvalues are the three polariton branch frequencies.  Damping is
deliberately absent here (it enters only through the transmission model),
so H is real symmetric and linear in temperature, field and coupling: each
dH/dx is a constant matrix.  Slopes and curvatures therefore come exactly
from the eigenpairs (L_n, v_n) of one solve,

    dL_n/dx   = v_n^T (dH/dx) v_n                                (Hellmann-Feynman)
    d2L_n/dx2 = 2 sum_{k != n} (v_k^T (dH/dx) v_n)^2 / (L_n - L_k).

With degenerate spin branches (B = 0) the bright modes reduce to

    nu_pm = (w_c + w_a)/2 +/- sqrt((w_c - w_a)^2/4 + g+^2 + g-^2)

and, for equal couplings g and thermal coefficients dw_a/dT = a,
dw_c/dT = R*a, the branch-resolved thermal slope is

    dnu_pm/dT = [a + R*a +/- a*(R - 1)*(w_c - w_a)/sqrt((w_c - w_a)^2 + 8 g^2)] / 2.

(The +/- orientation here tracks the nu_pm branches of the bright-mode
formula; it is fixed by the decoupled limit, where the upper branch at
positive detuning must shift like the bare cavity, R*a.)  Setting the slope
to zero gives the insensitive detunings

    D_pm = +/- sqrt(2) g (sqrt|R| - 1/sqrt|R|),    R < 0.

At any field and temperature the same root is in closed form.  With
T' = a dT and B' = gyro B the spin lines sit at w+/- = T' +/- B'; every
coupling is g or 0.  Off the spin lines an eigenvector is
v ~ (1, g+/(L - w+), g-/(L - w-)), and the slope a (1 - (1 - R) v_c^2)
vanishes where

    sum_k g_k^2 / (L - w_k)^2 = r,    r = -R > 0.

With both lines coupled, z = L - T' and h = |B'| turn this into a quadratic
in z^2; with q = hypot(g, 2 h sqrt(r)) its roots and detunings are

    bright:  z = +/- hypot(h, sqrt(g/r) sqrt(g + q))     (upper +, lower -)
             D = (1 - R) T' + z (1 - 2 r g / (g + q))
    middle:  z = -/+ h sqrt((q - 3g) / (q + g))          (h > 0, q >= 3g)
             D = (1 - R) T' + z (1 + g (g + q) / (2 h^2)).

With one line coupled, at w_k, the other line w_d is an eigenvalue of its
own; the cavity pair has its root at L = w_k + s g/sqrt(r), s = +/-1,

    D = w_k + s g (1 - r)/sqrt(r) - R T',

on branch (s > 0) + (L > w_d) of the three ascending ones.  At B = 0,
dT = 0 the bright roots are D_pm again, and D = 0 exactly at R = -1.

Only this module knows the eigen model, which folds each spin branch into
one line at its center.  A run reads it through ``operating_point_numeric``
and ``branch_shifts``; both refuse a branch with more than one spin class,
or an offset one, with a ConfigError before any solver error.  The
bright-mode closed forms above, a central difference and per-point readers
of ``_solve`` are the tests' references, in ``tests/_oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .params import (_CLASS_KEYS, Branch, ConfigError, EnvironmentState,
                     SpinEnsembleParams)

BRANCHES = ("lower", "middle", "upper")

_SHIFT_MAXITER = 100  # hard cap on the Newton steps of _shift


class NoOperatingPointError(RuntimeError):
    """No zero of dnu/dT exists within +/-20 g of detuning."""


@dataclass(frozen=True)
class OperatingPoint:
    """A spin-cavity detuning where the branch's thermal slope vanishes."""

    detuning_D: float        # rad/s, omega_c - omega_a
    branch: str
    curvature_T: float       # rad/s per K^2
    curvature_B: float       # rad/s per T^2
    dnudT_residual: float    # rad/s per K at the returned detuning
    # eigenpairs of the solve at the root: ascending eigenvalues relative to
    # omega_zfs (rad/s) and eigenvectors as columns, for shifts about it
    lambdas_rel: np.ndarray = field(repr=False, compare=False)
    eigvecs: np.ndarray = field(repr=False, compare=False)


def mode_matrix(omega_c, omega_plus, omega_minus, g_plus, g_minus) -> np.ndarray:
    """Coupled-mode matrix; array arguments broadcast to a (..., 3, 3) stack."""
    shape = np.broadcast(omega_c, omega_plus, omega_minus, g_plus, g_minus).shape
    h = np.zeros(shape + (3, 3))
    h[..., 0, 0] = omega_c
    h[..., 1, 1] = omega_plus
    h[..., 2, 2] = omega_minus
    h[..., 0, 1] = h[..., 1, 0] = g_plus
    h[..., 0, 2] = h[..., 2, 0] = g_minus
    return h


def _coupling_pattern(spins: SpinEnsembleParams) -> tuple[float, float]:
    """(dg+/dg, dg-/dg): 1 for a branch that has a spin class, else 0.

    The ConfigError of a branch with more than one class, or one off its
    center, names its class-offsets key: the transmission sees every class."""
    pattern = [0.0, 0.0]  # plus, minus: an Enum key would hash in Python
    for c in spins.spin_classes:
        if pattern[c.branch is Branch.MINUS] or c.detuning_offset:
            raise ConfigError(
                f"{_CLASS_KEYS[c.branch][0]}: the eigen model solves each "
                "branch as one line at its center, so it takes one spin "
                "class per branch, at offset 0")
        pattern[c.branch is Branch.MINUS] = 1.0
    return pattern[0], pattern[1]


def _solve(spins: SpinEnsembleParams, env: EnvironmentState,
           detuning, delta_T, b_field, pattern: tuple[float, float]):
    """Eigen solve of the mode matrix in the line-center frame, with the
    branch couplings g * ``pattern``, the ensemble's ``_coupling_pattern``.

    Every frequency is taken relative to omega_zfs (an exact constant
    shift), so differences across small temperature or field offsets never
    round at the GHz carrier scale.  ``detuning`` (omega_c_ref - omega_zfs),
    ``delta_T`` and ``b_field`` broadcast against each other; returns the
    ascending eigenvalues (..., 3) relative to omega_zfs and the
    eigenvectors (..., 3, 3) as columns.
    """
    g = spins.branch_coupling
    p, m = pattern
    thermal = env.dwa_dT * delta_T
    zeeman = env.gyromagnetic * b_field
    h = mode_matrix(
        detuning + env.R_ratio * thermal,
        thermal + zeeman,
        thermal - zeeman,
        g * p, g * m,
    )
    return np.linalg.eigh(h)


# H is linear in T, B and g, so its derivatives are constant matrices.
def _dH_dT(env: EnvironmentState) -> np.ndarray:
    return mode_matrix(env.R_ratio * env.dwa_dT, env.dwa_dT, env.dwa_dT, 0.0, 0.0)


def _dH_dB(env: EnvironmentState) -> np.ndarray:
    return mode_matrix(0.0, env.gyromagnetic, -env.gyromagnetic, 0.0, 0.0)


def _slope(vecs: np.ndarray, idx: int, dh: np.ndarray):
    """dL/dx = v^T (dH/dx) v of branch ``idx`` from (stacked) eigenvectors."""
    v = vecs[..., idx]
    return np.einsum("...i,ij,...j->...", v, dh, v)


def _curvature(lams: np.ndarray, vecs: np.ndarray, idx: int, dh: np.ndarray):
    """d2L/dx2 = 2 sum_{k != n} (v_k^T dH v_n)^2 / (L_n - L_k), n = ``idx``.

    Second-order perturbation theory; exact here because H is linear in x.
    """
    coupling = np.einsum("...i,ij,...jk->...k", vecs[..., idx], dh, vecs)
    gaps = lams[..., idx, None] - lams
    gaps[..., idx] = np.inf  # the k = n term drops out
    return 2.0 * np.sum(coupling ** 2 / gaps, axis=-1)


def _shift(lams: np.ndarray, vecs: np.ndarray, idx: int, dh: np.ndarray,
           x: float) -> float:
    """Exact shift of eigenvalue ``idx`` of one solve when H becomes H + x dH.

    In the eigenbasis the displaced matrix is diag(L - L_n) + V with
    V = x Q^T dH Q.  Eliminating the other two modes (the Schur complement)
    leaves the secular equation

        s = V_nn + w^T (s I - A)^-1 w,

    w the n-th column of V off the diagonal, A the 2x2 rest of the
    displaced matrix.  Every term is of the size of the shift or of the
    gaps, so s carries rounding of its own size, not of L_n, where the
    difference of two displaced solves rounds at ulp(L_n).  Its first- and
    second-order terms are ``_slope`` and ``_curvature``.  The n-th
    ascending root lies between the eigenvalues of A next to it (they
    interlace) and within |V| of zero (Weyl); Newton steps from V_nn are
    kept inside that interval by bisection.  They converge in a few steps
    when s is small next to the gaps, and still converge when it is not.
    """
    # einsum, not matmul: a request needs no BLAS buffers (~0.25 MB RSS)
    v = (x * np.einsum("ji,jk,kl->il", vecs, dh, vecs)).tolist()
    lam = lams.tolist()
    j, k = (i for i in range(3) if i != idx)
    p = lam[j] - lam[idx] + v[j][j]
    r = lam[k] - lam[idx] + v[k][k]
    q, w0, w1, vnn = v[j][k], v[j][idx], v[k][idx], v[idx][idx]
    mid, half = 0.5 * (p + r), math.hypot(0.5 * (p - r), q)
    poles = (mid - half, mid + half)  # eigenvalues of A
    bound = max(sum(map(abs, row)) for row in v)  # |V|_2 <= max row sum
    lo = max(-bound, poles[idx - 1]) if idx > 0 else -bound
    hi = min(bound, poles[idx]) if idx < 2 else bound
    s = vnn
    for _ in range(_SHIFT_MAXITER):
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
            if not lo < s < hi:
                break  # the interval is one float wide: s is the root
        # y = (sI - A)^-1 w; det(sI - A) = (s - pole0)(s - pole1), divided
        # one factor at a time: each is nonzero inside the interval, where
        # their product can underflow
        y0 = ((s - r) * w0 + q * w1) / (s - poles[0]) / (s - poles[1])
        y1 = (q * w0 + (s - p) * w1) / (s - poles[0]) / (s - poles[1])
        f = s - vnn - (w0 * y0 + w1 * y1)     # increasing in s between poles
        if f == 0:
            break
        if f > 0:
            hi = s
        else:
            lo = s
        step = f / (1.0 + y0 * y0 + y1 * y1)
        if s - step == s:
            break
        s -= step
    return s


def _branch_index(name: str) -> int:
    if name not in BRANCHES:
        raise ValueError(f"unknown branch {name!r}; choose from {BRANCHES}")
    return BRANCHES.index(name)


def operating_point_closed_form(g: float, R: float) -> tuple[float, float]:
    """Insensitive detunings D_pm = +/- sqrt(2) g (sqrt|R| - 1/sqrt|R|).

    Real solutions require thermal coefficients of opposite sign (R < 0);
    for |R| < 1 the magnitude is sqrt(2) g (1/sqrt|R| - sqrt|R|).
    """
    if R == 0:
        raise NoOperatingPointError(
            "R = 0: cavity has no thermal response, no finite cancellation detuning"
        )
    if R > 0:
        raise NoOperatingPointError(
            f"R = {R} > 0: spin and cavity shift the same way; "
            "the thermal slope of the bright branches cannot vanish"
        )
    r = math.sqrt(abs(R))
    d = math.sqrt(2.0) * g * (r - 1.0 / r)
    return d, -d


def _insensitive_detunings(spins: SpinEnsembleParams, env: EnvironmentState,
                           idx: int,
                           pattern: tuple[float, float]) -> list[float]:
    """Every detuning at which branch ``idx`` has zero thermal slope, R < 0.

    The closed forms of the module docstring, at the field and temperature
    of ``env``, for the ensemble's ``_coupling_pattern`` ``pattern``.  None
    squares g or cubes a detuning, so each stays finite wherever the root
    is a float.
    """
    # Python floats: no numpy overflow warnings, and bools that add as ints
    g = float(spins.branch_coupling)
    p, m = pattern
    r = -float(env.R_ratio)
    thermal = float(env.dwa_dT * env.delta_T)
    zeeman = float(env.gyromagnetic * env.B_field)
    base = (1.0 + r) * thermal
    if p and m:
        h = abs(zeeman)
        q = math.hypot(g, 2.0 * h * math.sqrt(r))
        if idx != 1:
            z = math.hypot(h, math.sqrt(g / r) * math.sqrt(g + q))
            z = z if idx == 2 else -z
            return [base + z * (1.0 - 2.0 * r * g / (g + q))]
        if not (h > 0 and q >= 3.0 * g):
            return []
        z = h * math.sqrt((q - 3.0 * g) / (q + g))
        c = 1.0 + 0.5 * (g / h) * ((g + q) / h)
        return [base - z * c, base + z * c]
    if not (p or m):
        return []
    # one line coupled, at thermal + sign * zeeman; the other is a bare
    # eigenvalue, below or above the root's branch
    sign = 1.0 if p else -1.0
    arm = g / math.sqrt(r)
    return [base + sign * zeeman + s * arm * (1.0 - r) for s in (-1.0, 1.0)
            if (s > 0) + (2.0 * sign * zeeman + s * arm > 0) == idx]


def operating_point_numeric(
    spins: SpinEnsembleParams,
    env: EnvironmentState,
    branch: str = "upper",
) -> OperatingPoint:
    """Root of dnu/dT over spin-cavity detuning for one branch.

    The root is the first in ascending detuning, within +/-20 g, of the
    closed forms in ``_insensitive_detunings``; there is no search.  One
    solve at the root gives the residual slope, the exact temperature and
    field curvatures (second-order perturbation theory) and the eigenpairs
    that the environmental floors shift.  R >= 0 has no root: the slope
    a (R v_c^2 + 1 - v_c^2) keeps the sign of a.
    """
    idx = _branch_index(branch)
    # read once, so a folded ensemble fails before a solver error
    pattern = _coupling_pattern(spins)
    g = spins.branch_coupling
    if not g > 0:
        raise NoOperatingPointError(
            f"branch coupling g = {g} rad/s: without spin-cavity coupling "
            "no branch mixes the two thermal slopes"
        )
    if env.R_ratio >= 0 or env.dwa_dT == 0:
        raise NoOperatingPointError(
            f"R = {env.R_ratio}, dwa/dT = {env.dwa_dT} rad/s/K: with R >= 0 "
            "(spin and cavity thermal shifts of the same sign) or no thermal "
            "response, dnu/dT keeps its sign or vanishes on every branch"
        )
    lo, hi = -20.0 * g, 20.0 * g
    roots = [d for d in _insensitive_detunings(spins, env, idx, pattern)
             if lo <= d <= hi]
    if not roots:
        raise NoOperatingPointError(
            f"dnu/dT has no sign change on branch {branch!r} in "
            f"[{lo:.3e}, {hi:.3e}] rad/s"
        )
    root = min(roots)
    dh_dt = _dH_dT(env)
    lam, vec = _solve(spins, env, root, env.delta_T, env.B_field, pattern)
    residual = float(_slope(vec, idx, dh_dt))
    if abs(residual) > 1e-6 * abs(env.dwa_dT):
        raise NoOperatingPointError(
            f"|dnu/dT| = {abs(residual):.3e} rad/s/K at the closed-form root"
        )
    return OperatingPoint(
        detuning_D=root,
        branch=branch,
        curvature_T=float(_curvature(lam, vec, idx, dh_dt)),
        curvature_B=float(_curvature(lam, vec, idx, _dH_dB(env))),
        dnudT_residual=residual,
        lambdas_rel=lam,
        eigvecs=vec,
    )


def branch_shifts(spins, env, op: OperatingPoint, dT: float, dB: float):
    """(nu0, dL_T, dL_B, dL/dg) of the branch of ``op``, rad/s: its absolute
    frequency, its exact shifts (``_shift``) for static offsets dT (K) and
    dB (T), and its Hellmann-Feynman slope in g, from the eigenpairs that
    ``op`` carries; so ``op`` must come from the same spins and env."""
    idx = _branch_index(op.branch)
    dh_dg = mode_matrix(0.0, 0.0, 0.0, *_coupling_pattern(spins))
    lam, vec = op.lambdas_rel, op.eigvecs
    return (spins.omega_zfs + lam[idx],
            _shift(lam, vec, idx, _dH_dT(env), dT),
            _shift(lam, vec, idx, _dH_dB(env), dB),
            _slope(vec, idx, dh_dg))


__all__ = [
    "BRANCHES",
    "NoOperatingPointError",
    "OperatingPoint",
    "mode_matrix",
    "operating_point_closed_form",
    "operating_point_numeric",
    "branch_shifts",
]
