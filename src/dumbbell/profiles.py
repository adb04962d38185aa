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

Phi, PhiHat and Ubar come in two halves each: `assemble_*` builds the
remainder's system and load and returns a job that solves it
(`fem.AssembledSystem.solve`) and returns the profile, for the profile
stage's `pipeline._Worker`; `compute_*` reads the constants off that
profile.  u0 is one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cross_section as cs
from . import fem
from .mesh import MeshConfig, MeridianMesh, build_profile_mesh, refine

__all__ = [
    "ProfileSolution",
    "smoothstep",
    "compute_u0",
    "assemble_Phi",
    "compute_Phi",
    "assemble_PhiHat",
    "compute_PhiHat",
    "assemble_Ubar",
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
    evaluates the total profile.  Each `compute_*` returns one with a dict
    of its named constants, and the residual of its solve rides on
    `field.residual`."""

    field: fem.FieldSolution
    carried: Callable

    def __call__(self, x1, rho):
        rem = self.field.evaluate(x1, rho)
        return rem + self.carried(np.asarray(x1, dtype=float),
                                  np.asarray(rho, dtype=float))


def _discretization(mesh: MeridianMesh, level: int) -> fem.Discretization:
    for _ in range(level):
        mesh = refine(mesh)
    return fem.Discretization(mesh)


# ----------------------------------------------------------------------------
# u0 and d0
# ----------------------------------------------------------------------------

def compute_u0(cfg: MeshConfig, level: int, weight: fem.WeightModel):
    """First eigenpair of -Du = lam p u on the truncated right half-space,
    normalized to unit weighted mass and positive sign; the constants are
    its eigenvalue `lam_k0`, `d0` and `d0_spread`.

    d0 is read from v(r) = int_{S+} u0(e1 + r theta) Psi+ dsigma, which
    equals Upsilon_N d0 r for r inside the weight-free ball, so
    v(r)/(Upsilon_N r) is averaged over r = 0.5, 1, 2 with the spread kept as
    a resolution diagnostic.  The pair is `fem.eigen_smallest` with 12
    steps on the factor of K: 10 Krylov solves, then two polish steps of
    one solve each, 12 solves in all.
    """
    if weight.a_plus <= 0:
        raise ValueError("u0 needs a positive weight amplitude on D+")
    disc = _discretization(build_profile_mesh("HalfPlus", cfg), level)
    system = fem.assemble(disc, weight)
    # unshifted, on the factor of K.  Relative to max|u0|, the Ritz vector
    # before the polish is off 40 plain inverse-iteration steps (lam1/lam2
    # ~ 0.42, so 0.42^38 < 1e-14) by 2.5e-9 with 9 basis vectors, 7e-11
    # with 10, 1.7e-12 with 11 and 5e-14 with 12.  12 steps (11 vectors)
    # end within 1.5e-14 of them after the polish; 8 steps stay 7e-8 off
    pair = fem.eigen_smallest(system, 12)

    n = disc.dimension
    ups = cs.upsilon(n)
    samples = np.array([
        cs.project_sphere(pair.field.evaluate, 1.0, r, +1, n) / (ups * r)
        for r in (0.5, 1.0, 2.0)])
    d0 = float(samples.mean())
    spread = float(np.ptp(samples) / abs(d0)) if d0 != 0 else math.inf
    return (ProfileSolution(pair.field, lambda x1, rho: 0.0 * x1),
            {"lam_k0": pair.lam, "d0": d0, "d0_spread": spread})


# ----------------------------------------------------------------------------
# Phi and PhiHat
# ----------------------------------------------------------------------------

def _harmonic_job(domain: str, cfg: MeshConfig, level: int,
                  lift: Callable) -> Callable[[], ProfileSolution]:
    """The job that solves a harmonic profile on a profile domain: the
    closed-form lift plus a finite element remainder that vanishes on the
    domain's Dirichlet edges (the axis stays natural).  The remainder's
    system and load are built here (`fem.solve_dirichlet`)."""
    disc = _discretization(build_profile_mesh(domain, cfg), level)
    solve = fem.solve_dirichlet(disc, lift)
    return lambda: ProfileSolution(solve(), lift)


def assemble_Phi(cfg: MeshConfig, level: int):
    """The job that solves Phi, harmonic, growing like (x1-1)+ in D+ and
    decaying in the tube.

    Carried part chi(|x-e1|) (x1-1)+ with chi = 0 for |x-e1| <= 1 and 1
    for |x-e1| >= 2; the remainder gets homogeneous data everywhere, so
    Phi equals x1-1 on the far hemisphere and 0 at the deep tube end.
    """
    def lift(x1, rho):
        r = np.hypot(x1 - 1.0, rho)
        return smoothstep(r, 1.0, 2.0) * np.maximum(x1 - 1.0, 0.0)

    return _harmonic_job("PhiDomain", cfg, level, lift)


def compute_Phi(profile: ProfileSolution):
    """Phi, as `assemble_Phi`'s job returns it, with its constant `c_phi`,
    its ground-mode coefficient at the tube exit."""
    return profile, {"c_phi": cs.project_section(
        profile, 1.0, 1.0, cs.disk_ground_mode(profile.field.disc.dimension))}


def assemble_PhiHat(cfg: MeshConfig, level: int):
    """The job that solves PhiHat, harmonic on D- plus the unit tube and
    growing like the tube mode h(x1, rho) = e^(sqrt(lambda1) x1) psi1(rho).

    Carried part chi(x1) h with chi ramping over 0.5 <= x1 <= 2, so the
    remainder vanishes on the inflow face (PhiHat = h there), on the walls
    and on the far hemisphere.
    """
    mode = cs.disk_ground_mode(cfg.dimension)

    def lift(x1, rho):
        val = smoothstep(x1, 0.5, 2.0) * np.exp(mode.sqrt_lambda1 * x1) \
            * mode.psi1(np.minimum(rho, 1.0))
        return np.where(rho <= 1.0, val, 0.0)

    return _harmonic_job("PhiHatDomain", cfg, level, lift)


def compute_PhiHat(profile: ProfileSolution):
    """PhiHat, as `assemble_PhiHat`'s job returns it, with its constants:
    its unit-sphere coefficient `c_phihat`, its section mass `m_phihat`
    and its ground-mode coefficient `a0_phihat` at the tube entrance."""
    n = profile.field.disc.dimension
    return profile, {
        "c_phihat": cs.project_sphere(profile, 0.0, 1.0, -1, n),
        "m_phihat": cs.section_mass(profile, 1.0, 1.0, n),
        "a0_phihat": cs.project_section(profile, 0.0, 1.0,
                                        cs.disk_ground_mode(n))}


# ----------------------------------------------------------------------------
# Ubar
# ----------------------------------------------------------------------------

def _ubar_kernel(x1, rho, n: int):
    """The singular part -x1/(Upsilon_N |x|^N) of Ubar, zero at 0."""
    r = np.hypot(x1, rho)
    r = np.where(r == 0, np.inf, r)
    return -x1 / (cs.upsilon(n) * r ** n)


def assemble_Ubar(cfg: MeshConfig, weight: fem.WeightModel, level: int,
                  lam_k0: float):
    """The job that solves Ubar, the solution of -Du = lam_k0 p u on D-
    with singular part exactly -x1/(Upsilon_N |x|^N) at the origin.

    With S0 the singular kernel and chi a decreasing cutoff (1 inside
    |x| < 1, 0 outside |x| > 2), S0 is harmonic and p chi S0 = 0, so the
    remainder solves (K - lam_k0 M_p) w = Delta(chi S0) = S0 (chi'' -
    (N-1) chi'/|x|), a load supported on the cutoff annulus.  The job's
    one factor of K - lam_k0 M_p serves the spectral-gap guard and the
    solve (`fem.AssembledSystem.solve`): all its pivots positive certifies
    lam_k0 < lambda_1(D-).  The margin lam_k0 <= 0.8 lambda_1(D-) is
    `RunConfig.validate`'s weight rule: D- mirrors D+, so lambda_1(D-) =
    lam_k0 a_plus/a_minus.  Reading the pivots makes SuperLU keep L and U
    as CSC copies on the factor, which the job frees with it, before the
    half-sphere read-outs."""
    disc = _discretization(build_profile_mesh("HalfMinus", cfg), level)
    n = disc.dimension

    def commutator(x1, rho):
        r = np.hypot(x1, rho)
        # chi(r) = smoothstep(2 - r, 0, 1): chain rule flips odd derivatives
        d1 = -smoothstep_d1(2.0 - r, 0.0, 1.0)
        d2 = smoothstep_d2(2.0 - r, 0.0, 1.0)
        return _ubar_kernel(x1, rho, n) * (
            d2 - (n - 1) * d1 / np.where(r == 0, np.inf, r))

    def carried(x1, rho):
        r = np.hypot(x1, rho)
        return smoothstep(2.0 - r, 0.0, 1.0) * _ubar_kernel(x1, rho, n)

    system = fem.assemble(disc, weight).shifted(lam_k0)
    solve = functools.partial(system.solve,
                              fem.assemble_load(disc, commutator))
    return lambda: ProfileSolution(solve(), carried)


def compute_Ubar(profile: ProfileSolution, ktilde):
    """Ubar, as `assemble_Ubar`'s job returns it, with its constant
    `norm_gamma`, which maps each radius in `ktilde` to the half-sphere
    mass of Ubar there."""
    n = profile.field.disc.dimension
    return profile, {"norm_gamma": {
        float(k): cs.half_sphere_mass(profile, 0.0, float(k), -1, n)
        for k in ktilde}}
