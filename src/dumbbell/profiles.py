"""The four limit profiles and their constants.

Each unbounded or singular problem is reduced to a well-posed Dirichlet
solve for a finite-energy remainder by subtracting a closed-form carried
part through a smooth cutoff:

* u0    first weighted eigenfunction of the right half-space D+ (nothing
        subtracted); d0 = du0/dx1(e1) extracted from the sphere-mode
        projection, which is linear in r with no r^(1-N) component, so
        v(r)/(Upsilon r) is r-independent and is averaged over several r;
* Phi   harmonic on the half-space-plus-tube domain, growing like x1 - 1:
        remainder w = Phi - chi(|x-e1|)(x1-1)+;
* PhiHat harmonic on the mirrored domain, growing like the tube mode
        h = e^(sqrt(lambda1) x1) psi1(rho): remainder w = PhiHat - chi(x1) h;
* Ubar  solves -Du = lam_k0 p u on D- with the prescribed singularity
        -x1/(Upsilon_N |x|^N) at the origin, singular coefficient exactly 1:
        remainder solves the shifted problem (K - lam_k0 M_p) w = commutator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Callable

import numpy as np

from . import cross_section as cs
from . import fem
from .mesh import MeshConfig, MeridianMesh, build_profile_mesh, refine

__all__ = [
    "ProfileSolution",
    "smoothstep",
    "compute_u0",
    "compute_Phi",
    "compute_PhiHat",
    "compute_Ubar",
]


# ----------------------------------------------------------------------------
# Cutoffs
# ----------------------------------------------------------------------------

def smoothstep(r, r0: float, r1: float):
    """Quintic C^2 ramp: 0 for r <= r0, 1 for r >= r1."""
    s = np.clip((np.asarray(r, dtype=float) - r0) / (r1 - r0), 0.0, 1.0)
    return s ** 3 * (10.0 - 15.0 * s + 6.0 * s * s)


def smoothstep_d1(r, r0: float, r1: float):
    s = np.clip((np.asarray(r, dtype=float) - r0) / (r1 - r0), 0.0, 1.0)
    return 30.0 * s * s * (1.0 - s) ** 2 / (r1 - r0)


def smoothstep_d2(r, r0: float, r1: float):
    s = np.clip((np.asarray(r, dtype=float) - r0) / (r1 - r0), 0.0, 1.0)
    return 60.0 * s * (1.0 - 3.0 * s + 2.0 * s * s) / (r1 - r0) ** 2


# ----------------------------------------------------------------------------
# Profile container
# ----------------------------------------------------------------------------

@dataclass
class ProfileSolution:
    """Remainder field plus closed-form carried part; calling the object
    evaluates the total profile."""

    kind: str
    field: fem.FieldSolution
    carried: Callable
    metadata: dict = dfield(default_factory=dict)

    def __call__(self, x1, rho):
        rem = self.field.evaluate(x1, rho)
        return rem + self.carried(np.asarray(x1, dtype=float),
                                  np.asarray(rho, dtype=float))


def _maybe_refine(mesh: MeridianMesh, level: int) -> MeridianMesh:
    for _ in range(level):
        mesh = refine(mesh)
    return mesh


# ----------------------------------------------------------------------------
# u0 and d0
# ----------------------------------------------------------------------------

def compute_u0(cfg: MeshConfig, level: int = 0, order: int = 2,
               weight: fem.WeightModel | None = None):
    """First eigenpair of -Du = lam p u on the truncated right half-space,
    normalized to unit weighted mass and positive sign.

    d0 is read from v(r) = int_{S+} u0(e1 + r theta) Psi+ dsigma, which
    equals Upsilon_N d0 r for r inside the weight-free ball, so
    v(r)/(Upsilon_N r) is averaged over r = 0.5, 1, 2 with the spread kept as
    a resolution diagnostic.
    """
    weight = fem.WeightModel() if weight is None else weight
    if weight.a_plus <= 0:
        raise ValueError("u0 needs a positive weight amplitude on D+")
    mesh = _maybe_refine(build_profile_mesh("HalfPlus", cfg), level)
    disc = fem.Discretization(mesh, order=order)
    system = fem.assemble(disc, weight)
    # unshifted, on the factor of K: each step contracts the other
    # components by lam1/lam2 ~ 0.42, and 0.42^40 < 1e-15 leaves nothing of
    # the all-ones start but the ground state
    pair = fem.mass_normalize(system, fem.eigen_smallest(system, 40))

    n = disc.dimension
    ups = cs.upsilon(n)
    samples = np.array([
        cs.project_sphere(pair.field.evaluate, 1.0, r, +1, n) / (ups * r)
        for r in (0.5, 1.0, 2.0)])
    d0 = float(samples.mean())
    spread = float(np.ptp(samples) / abs(d0)) if d0 != 0 else math.inf
    meta = {"d0_spread": spread, "eigen_residual": pair.residual}
    sol = ProfileSolution("U0", pair.field, lambda x1, rho: 0.0 * x1, meta)
    return sol, pair.lam, d0


# ----------------------------------------------------------------------------
# Phi and PhiHat
# ----------------------------------------------------------------------------

def _harmonic_profile(domain: str, cfg: MeshConfig, level: int, order: int,
                      lift: Callable) -> ProfileSolution:
    """Harmonic profile on a profile domain: the closed-form lift plus a
    finite element remainder that vanishes on the domain's Dirichlet edges
    (the axis stays natural)."""
    mesh = _maybe_refine(build_profile_mesh(domain, cfg), level)
    disc = fem.Discretization(mesh, order=order)
    sol = fem.solve_dirichlet(disc, lift=lift)
    return ProfileSolution(domain.removesuffix("Domain"), sol, lift)


def compute_Phi(cfg: MeshConfig, level: int = 0, order: int = 2):
    """Harmonic profile growing like (x1-1)+ in D+, decaying in the tube.

    Carried part chi(|x-e1|) (x1-1)+ with chi = 0 for |x-e1| <= 1 and 1
    for |x-e1| >= 2; the remainder gets homogeneous data everywhere, so
    Phi equals x1-1 on the far hemisphere and 0 at the deep tube end.
    """
    def lift(x1, rho):
        r = np.hypot(x1 - 1.0, rho)
        return smoothstep(r, 1.0, 2.0) * np.maximum(x1 - 1.0, 0.0)

    profile = _harmonic_profile("PhiDomain", cfg, level, order, lift)
    c_phi = cs.project_section(profile, 1.0, 1.0,
                               cs.disk_ground_mode(cfg.dimension))
    return profile, c_phi


def compute_PhiHat(cfg: MeshConfig, level: int = 0, order: int = 2):
    """Harmonic profile on D- plus the unit tube, growing like the tube
    mode h(x1, rho) = e^(sqrt(lambda1) x1) psi1(rho).

    Carried part chi(x1) h with chi ramping over 0.5 <= x1 <= 2, so the
    remainder vanishes on the inflow face (PhiHat = h there), on the walls
    and on the far hemisphere.
    """
    n = cfg.dimension
    mode = cs.disk_ground_mode(n)

    def lift(x1, rho):
        val = smoothstep(x1, 0.5, 2.0) * np.exp(mode.sqrt_lambda1 * x1) \
            * mode.psi1(np.minimum(rho, 1.0))
        return np.where(rho <= 1.0, val, 0.0)

    profile = _harmonic_profile("PhiHatDomain", cfg, level, order, lift)
    c_phihat = cs.project_sphere(profile, 0.0, 1.0, -1, n)
    m_phihat = cs.section_mass(profile, 1.0, 1.0, n)
    return profile, c_phihat, m_phihat


# ----------------------------------------------------------------------------
# Ubar
# ----------------------------------------------------------------------------

def compute_Ubar(cfg: MeshConfig, weight: fem.WeightModel, lam_k0: float,
                 level: int = 0, order: int = 2,
                 ktilde=(0.5, 1.0, 1.5)):
    """Solution of -Du = lam_k0 p u on D- with singular part exactly
    -x1/(Upsilon_N |x|^N) at the origin.

    With S0 the singular kernel and chi a decreasing cutoff (1 inside
    |x| < 1, 0 outside |x| > 2), S0 is harmonic and p chi S0 = 0, so the
    remainder solves (K - lam_k0 M_p) w = commutator with
    Delta(chi S0) = S0 (chi'' - (N-1) chi'/|x|) supported on the cutoff
    annulus.  One factor of K - lam_k0 M_p serves the spectral-gap guard
    and the solve.  With the row and column permutations equal, its LU is
    a congruence of the operator, so by Sylvester's law of inertia all
    pivots of U positive certifies lam_k0 < lambda_1(D-) (twice the D+ one
    by the weight construction); inverse iteration on the same factor then
    gives lambda_1(D-), and lam_k0 must stay below 0.8 of it.
    """
    mesh = _maybe_refine(build_profile_mesh("HalfMinus", cfg), level)
    disc = fem.Discretization(mesh, order=order)
    n = disc.dimension
    ups = cs.upsilon(n)
    system = fem.assemble(disc, weight).shifted(lam_k0)
    lu = system.lu()
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("shifted factor pivoted off the diagonal; its "
                           "pivots do not give the inertia")
    if np.any(lu.U.diagonal() <= 0):
        raise ValueError(
            f"spectral gap violated: shift {lam_k0:.6g} is not below "
            "lambda_1(D-); weight misconfigured")
    if system.Mp.nnz:
        # lambda_1(D-) = 2 lam_k0 and lambda_2/lambda_1 = 2.38 as on D+,
        # so each step at sigma = lam_k0 contracts by about 0.27; with no
        # weight on D- there is no weighted spectrum and no gap to check
        lam_minus = fem.eigen_smallest(system, 6).lam
        if lam_k0 > 0.8 * lam_minus:
            raise ValueError(
                f"spectral gap violated: shift {lam_k0:.6g} too close to "
                f"lambda_1(D-) = {lam_minus:.6g}; weight misconfigured")

    def kernel(x1, rho):
        r = np.hypot(x1, rho)
        r = np.where(r == 0, np.inf, r)
        return -x1 / (ups * r ** n)

    def carried(x1, rho):
        r = np.hypot(x1, rho)
        return smoothstep(2.0 - r, 0.0, 1.0) * kernel(x1, rho)

    def commutator(x1, rho):
        r = np.hypot(x1, rho)
        # chi(r) = smoothstep(2 - r, 0, 1): chain rule flips odd derivatives
        d1 = -smoothstep_d1(2.0 - r, 0.0, 1.0)
        d2 = smoothstep_d2(2.0 - r, 0.0, 1.0)
        return kernel(x1, rho) * (d2 - (n - 1) * d1 / np.where(r == 0, np.inf, r))

    remainder = system.solve(fem.assemble_load(disc, commutator))
    profile = ProfileSolution("Ubar", remainder, carried)
    norms = {float(k): cs.half_sphere_mass(profile, 0.0, float(k), -1, n)
             for k in ktilde}
    return profile, norms
