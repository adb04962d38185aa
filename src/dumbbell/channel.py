"""Mode algebra in the tube: section masses, two-exponential fits, and the
spherical representation on the left side.

The ground-mode coefficient of a solution along the tube is an exact linear
combination A e^(k(t-1)) + B e^(-k(t-1)) with k = sqrt(lambda1)/eps, because
the weight vanishes on the whole tube.  Fits are solved in shifted
coordinates (both basis columns <= 1 on the window) so the normal equations
stay conditioned even when k*width is large, and coefficients are carried as
ScaledAmplitudes so the e^(+-k) factors never overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cross_section as cs
from .scaled import ScaledAmplitude

__all__ = [
    "ModeFit",
    "SphericalFit",
    "htilde",
    "hminus",
    "fit_channel_mode",
    "spherical_fit",
    "propagate",
]


# ----------------------------------------------------------------------------
# Section and half-sphere masses
# ----------------------------------------------------------------------------

def _section(r: float, eps: float):
    """The points (x1, rho) at which `htilde` reads a field: the scaled
    section x1 = r, which must lie in the tube [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise ValueError(f"section x1 = {r} outside the tube [0, 1]")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return cs._section_points(r, eps)


def _masses(vals, eps: float, dimension: int):
    """`htilde` of the field values `vals` at `_section`'s points."""
    ht = cs._section_mass(vals, dimension)
    return ht, eps ** (dimension - 1) * ht


def htilde(field, r: float, eps: float, dimension: int = 3):
    """Scaled-section mass Htilde(r) = int_Sigma field(r, eps x')^2 dx' and
    the channel mass Hc(r) = eps^(N-1) Htilde(r).

    `r` is the x1-coordinate of the section, which must lie in the tube
    [0, 1]."""
    vals = np.asarray(field(*_section(r, eps)), dtype=float)
    return _masses(vals, eps, dimension)


def hminus(field, t: float, dimension: int = 3) -> float:
    """H^-(t) = t^(1-N) int over the left half-sphere of radius t of
    field^2 dsigma."""
    if t <= 0:
        raise ValueError("half-sphere radius must be positive")
    return t ** (1 - dimension) * cs.half_sphere_mass(
        field, 0.0, t, -1, dimension)


# ----------------------------------------------------------------------------
# Two-exponential tube fit
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ModeFit:
    """Coefficients of field ~ A e^(k(t-1)) + B e^(-k(t-1)), k = sqrt_l1/eps.

    `b_resolved` is False when the window cannot distinguish B from the
    least-squares noise floor; B is then an exact zero, not a noise value.
    """

    eps: float
    sqrt_lambda1: float
    A: ScaledAmplitude
    B: ScaledAmplitude
    window: tuple
    residual: float
    b_resolved: bool


def fit_channel_mode(samples, eps: float, sqrt_lambda1: float) -> ModeFit:
    """Least squares of (t, value) samples against the two tube
    exponentials.

    The basis is shifted per column, e^(k(t - t_hi)) and e^(-k(t - t_lo)),
    so both columns live in (0, 1]; the unshifted coefficients are then
    recovered exactly in the exponent via scaled arithmetic.
    """
    pts = sorted((float(t), float(v)) for t, v in samples)
    if len(pts) < 4:
        raise ValueError("need at least 4 samples for a two-mode fit")
    ts = np.array([t for t, _ in pts])
    ys = np.array([v for _, v in pts])
    t_lo, t_hi = ts[0], ts[-1]
    if t_hi - t_lo < 0.2 - 1e-12:
        raise ValueError(f"fit window [{t_lo}, {t_hi}] narrower than 0.2")
    k = sqrt_lambda1 / eps

    yscale = np.max(np.abs(ys))
    if yscale == 0.0:
        raise ValueError("all samples vanish; nothing to fit")
    M = np.stack([np.exp(k * (ts - t_hi)), np.exp(-k * (ts - t_lo))], axis=1)
    yn = ys / yscale
    coef, _, _, _ = np.linalg.lstsq(M, yn, rcond=None)
    misfit = M @ coef - yn
    resid_abs = float(np.linalg.norm(misfit) / math.sqrt(len(ts)))
    residual = float(np.linalg.norm(misfit) / np.linalg.norm(ys / yscale))

    a_sh, b_sh = float(coef[0]) * yscale, float(coef[1]) * yscale
    noise_floor = 30.0 * (resid_abs + 1e-15) * yscale
    b_resolved = abs(b_sh) > noise_floor

    A = ScaledAmplitude.from_float(a_sh).scale_exp(k * (1.0 - t_hi))
    if b_resolved:
        B = ScaledAmplitude.from_float(b_sh).scale_exp(k * (t_lo - 1.0))
    else:
        B = ScaledAmplitude.zero()
    return ModeFit(eps, sqrt_lambda1, A, B, (t_lo, t_hi), residual,
                   b_resolved)


def propagate(fit: ModeFit, t: float) -> ScaledAmplitude:
    """Evaluate the two-exponential model at t in scaled arithmetic."""
    k = fit.sqrt_lambda1 / fit.eps
    return fit.A.scale_exp(k * (t - 1.0)) + fit.B.scale_exp(-k * (t - 1.0))


# ----------------------------------------------------------------------------
# Spherical representation on the left side
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class SphericalFit:
    """Coefficients of v(r) = alpha r + beta r^(1-N); d = -N beta exactly."""

    alpha: float
    beta: float
    d: float
    residual: float


def spherical_fit(samples, n: int = 3) -> SphericalFit:
    pts = sorted((float(r), float(v)) for r, v in samples)
    if len(pts) < 2:
        raise ValueError("need at least 2 radii")
    rs = np.array([r for r, _ in pts])
    vs = np.array([v for _, v in pts])
    if np.any(rs <= 0):
        raise ValueError("radii must be positive")
    M = np.stack([rs, rs ** (1 - n)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(M, vs, rcond=None)
    misfit = M @ coef - vs
    residual = float(np.linalg.norm(misfit) / max(np.linalg.norm(vs), 1e-300))
    alpha, beta = float(coef[0]), float(coef[1])
    return SphericalFit(alpha, beta, -n * beta, residual)
