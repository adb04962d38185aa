"""Spectral constants of the tube cross-section and the half-sphere.

The tube cross-section is the unit ball of R^(N-1); its first Dirichlet
eigenpair (lambda1, psi1) governs the exponential mode structure along the
tube.  The half-sphere carries the degree-one spherical harmonics
Psi^+- = +-theta_1 / Upsilon_N, which appear in every sphere projection used
by the junction analysis.  Everything here is closed form plus Gauss
quadrature; no PDE solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "CrossSectionMode",
    "bessel_j_scaled",
    "bessel_first_zeros",
    "disk_ground_mode",
    "sphere_surface_area",
    "upsilon",
    "project_sphere",
    "project_section",
    "gauss_legendre",
]

DEFAULT_QUAD_ORDER = 64


@lru_cache(maxsize=64)
def gauss_legendre(order: int, a: float = 0.0, b: float = 1.0):
    """Gauss-Legendre nodes/weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


# ----------------------------------------------------------------------------
# Bessel machinery (power series; arguments stay modest here)
# ----------------------------------------------------------------------------

def bessel_j_scaled(nu: float, x):
    """Evaluate g(x) = (x/2)^(-nu) * J_nu(x) by its power series.

    g is entire in x^2, so this is stable through x = 0.  Adequate for the
    argument range used here (|x| <= ~25).
    """
    x = np.asarray(x, dtype=float)
    q = 0.25 * x * x
    out = np.zeros_like(q)
    term = np.full_like(q, math.exp(-math.lgamma(nu + 1.0)))
    for m in range(80):
        out += term
        term = term * (-q) / ((m + 1.0) * (m + 1.0 + nu))
        if np.all(np.abs(term) <= 1e-18 * (np.abs(out) + 1e-300)):
            break
    return out


def bessel_first_zeros(nu: float, count: int) -> list[float]:
    """First `count` positive zeros of J_nu by scan + bisection on the
    scaled series (same zeros as J_nu for x > 0)."""
    zeros: list[float] = []
    x = max(nu, 0.0) + 1e-3
    step = 0.05
    f_prev = float(bessel_j_scaled(nu, x))
    scans = 0
    while len(zeros) < count:
        scans += 1
        if scans > 20000:
            raise RuntimeError(f"zero scan for J_{nu} did not bracket {count} zeros")
        x_next = x + step
        f_next = float(bessel_j_scaled(nu, x_next))
        if f_prev == 0.0:
            zeros.append(x)
        elif f_prev * f_next < 0.0:
            lo, hi, flo = x, x_next, f_prev
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = float(bessel_j_scaled(nu, mid))
                if fmid == 0.0 or (hi - lo) <= 1e-14 * mid:
                    break
                if flo * fmid < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            else:
                raise RuntimeError(f"bisection for J_{nu} zero did not converge")
            zeros.append(0.5 * (lo + hi))
        x, f_prev = x_next, f_next
    return zeros


# ----------------------------------------------------------------------------
# Cross-section ground mode
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossSectionMode:
    """First Dirichlet eigenpair of the unit ball in R^(N-1).

    psi1 is the L2-normalized positive radial eigenfunction; `psi1(r)`
    accepts scalars or arrays of radii in [0, 1].
    """

    dimension: int
    lambda1: float
    sqrt_lambda1: float
    norm_constant: float
    _nu: float = field(default=0.0, repr=False)

    def psi1(self, r):
        r = np.asarray(r, dtype=float)
        k = self.sqrt_lambda1
        val = self.norm_constant * np.power(0.5 * k, self._nu) * \
            bessel_j_scaled(self._nu, k * r)
        return val

    def psi1_deriv(self, r):
        """d psi1 / dr, from d/dr [r^-nu J_nu(kr)] = -k r^-nu J_(nu+1)(kr)."""
        r = np.asarray(r, dtype=float)
        k = self.sqrt_lambda1
        return -self.norm_constant * np.power(0.5 * k, self._nu) * \
            (0.5 * k * k * r) * bessel_j_scaled(self._nu + 1.0, k * r)

    def section_integral(self, values_of_r: Callable) -> float:
        """Integral over the unit (N-1)-ball of a radial function."""
        n = self.dimension
        r, w = gauss_legendre(DEFAULT_QUAD_ORDER)
        return sphere_surface_area(n - 2) * float(
            np.sum(w * values_of_r(r) * r ** (n - 2)))


@lru_cache(maxsize=None)
def _disk_mode(n: int, index: int) -> CrossSectionMode:
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    nu = 0.5 * (n - 3)
    k = bessel_first_zeros(nu, index)[index - 1]
    mode = CrossSectionMode(n, k * k, k, 1.0, nu)
    norm2 = mode.section_integral(lambda r: mode.psi1(r) ** 2)
    sign = 1.0 if float(mode.psi1(0.0)) > 0 else -1.0
    return CrossSectionMode(n, k * k, k, sign / math.sqrt(norm2), nu)


def disk_ground_mode(n: int = 3) -> CrossSectionMode:
    """Radial ground mode of the unit (N-1)-ball: lambda1 = j_(nu,1)^2 with
    nu = (N-3)/2, psi1 ~ r^-nu J_nu(sqrt(lambda1) r)."""
    return _disk_mode(n, 1)


# ----------------------------------------------------------------------------
# Sphere modes
# ----------------------------------------------------------------------------

def sphere_surface_area(k: int) -> float:
    """Surface measure of the unit k-sphere S^k in R^(k+1)."""
    return 2.0 * math.pi ** (0.5 * (k + 1)) / math.gamma(0.5 * (k + 1))


def upsilon(n: int) -> float:
    """Upsilon_N = sqrt(0.5 * int_{S^(N-1)} theta_1^2 dsigma)
    = sqrt(omega_(N-1) / (2N)) using int theta_1^2 = omega/N."""
    if n < 3:
        raise ValueError(f"dimension must be >= 3, got {n}")
    return math.sqrt(sphere_surface_area(n - 1) / (2.0 * n))


# ----------------------------------------------------------------------------
# Projections
# ----------------------------------------------------------------------------

def _polar_rule(sign: int):
    """Gauss nodes and weights in the polar angle of a half-sphere."""
    a, b = (0.0, 0.5 * math.pi) if sign > 0 else (0.5 * math.pi, math.pi)
    return gauss_legendre(DEFAULT_QUAD_ORDER, a, b)


def _sphere_points(center: float, r: float, sign: int):
    """The Gauss points (x1, rho) on the half-sphere of radius r about
    (center, 0) on the `sign` side, at which `project_sphere` and
    `half_sphere_mass` read a field."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    phi, _ = _polar_rule(sign)
    return center + r * np.cos(phi), r * np.sin(phi)


def _sphere_projection(vals, sign: int, n: int) -> float:
    """`project_sphere` of the field values `vals` at `_sphere_points`:
    the axisymmetric reduction in the polar angle, dsigma = omega_(N-2)
    sin^(N-2)(phi) dphi."""
    phi, w = _polar_rule(sign)
    cosp, sinp = np.cos(phi), np.sin(phi)
    psi = sign * cosp / upsilon(n)
    return sphere_surface_area(n - 2) * float(
        np.sum(w * vals * psi * sinp ** (n - 2)))


def project_sphere(fld: Callable, center: float, r: float, sign: int,
                   n: int = 3) -> float:
    """int_{S^(N-1)_sign} field(center + r*theta) Psi^sign(theta) dsigma.

    `fld(x1, rho)` must accept arrays; `center` is the x1-coordinate of the
    sphere center (on the axis).
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    vals = np.asarray(fld(*_sphere_points(center, r, sign)), dtype=float)
    return _sphere_projection(vals, sign, n)


def _section_points(t: float, eps: float):
    """The radial Gauss points (x1, rho) of the scaled section x1 = t,
    rho = eps r, r in [0, 1], at which `project_section` and
    `section_mass` read a field."""
    r, _ = gauss_legendre(DEFAULT_QUAD_ORDER)
    return np.full_like(r, t), eps * r


@lru_cache(maxsize=None)
def _psi1_at_nodes(mode: CrossSectionMode) -> np.ndarray:
    """psi1 at the radial Gauss nodes of the section rule, read-only: the
    same for every section and eps, so its power series runs once."""
    psi = mode.psi1(gauss_legendre(DEFAULT_QUAD_ORDER)[0])
    psi.setflags(write=False)
    return psi


def _section_projection(vals, mode: CrossSectionMode) -> float:
    """`project_section` of the field values `vals` at `_section_points`."""
    n = mode.dimension
    r, w = gauss_legendre(DEFAULT_QUAD_ORDER)
    return sphere_surface_area(n - 2) * float(
        np.sum(w * vals * _psi1_at_nodes(mode) * r ** (n - 2)))


def project_section(fld: Callable, t: float, eps: float,
                    mode: CrossSectionMode) -> float:
    """int_Sigma field(t, eps*x') psi1(x') dx' by radial Gauss quadrature
    with weight r^(N-2) on [0, 1]."""
    vals = np.asarray(fld(*_section_points(t, eps)), dtype=float)
    return _section_projection(vals, mode)


def _half_sphere_mass(vals, t: float, sign: int, n: int) -> float:
    """`half_sphere_mass` of the field values `vals` at `_sphere_points`."""
    phi, w = _polar_rule(sign)
    return sphere_surface_area(n - 2) * t ** (n - 1) * float(
        np.sum(w * vals ** 2 * np.sin(phi) ** (n - 2)))


def half_sphere_mass(fld: Callable, center: float, t: float, sign: int,
                     n: int = 3) -> float:
    """int_{Gamma_t} field^2 dsigma over the half-sphere of radius t about
    `center` on the given side (true (N-1)-dimensional surface integral)."""
    vals = np.asarray(fld(*_sphere_points(center, t, sign)), dtype=float)
    return _half_sphere_mass(vals, t, sign, n)


def _section_mass(vals, n: int) -> float:
    """`section_mass` of the field values `vals` at `_section_points`."""
    r, w = gauss_legendre(DEFAULT_QUAD_ORDER)
    return sphere_surface_area(n - 2) * float(
        np.sum(w * vals ** 2 * r ** (n - 2)))


def section_mass(fld: Callable, t: float, eps: float, n: int = 3) -> float:
    """int_Sigma field^2(t, eps*x') dx' (scaled-section L2 mass)."""
    vals = np.asarray(fld(*_section_points(t, eps)), dtype=float)
    return _section_mass(vals, n)
