"""Sweep orchestration: profile constants, per-eps dumbbell solves and
ratio series; `record` judges and writes the record they make.

The verification is two-track.  Every entry reads the eigenpair, the
restricted reference eigenvalue, the right-window tube fit, the cascade
scales, the channel frequency and R1-R3.  For eps >= 0.1 (the direct
track) the section masses, the junction defect, the spherical fit and the
blow-up windows are read off the dumbbell eigenvector (all scales sit
inside double range), and give R4-R6.  Below that (the cascade track) the
section masses come from the tube amplitude A_eps propagated through the
exact channel algebra, and nothing left of the tube is read: the global
eigenvector's left-side entries are numerically meaningless there.  On
direct entries the `cascade_B` verdict checks the cascade's decaying-mode
coefficient against the one measured next to the left junction.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass
from typing import Callable, ClassVar

import numpy as np

from . import almgren
from . import channel as ch
from . import cross_section as cs
from . import fem
from . import profiles as prof
from .mesh import MeshConfig, build_dumbbell_mesh, refine
# emit and load_record are re-exported for perfbench/run.py
from .record import (ProfileConstants, RunRecord, _check_decreasing,
                     _is_real, emit, load_record, verify)
from .scaled import ScaledAmplitude

__all__ = [
    "RunConfig",
    "ProfileSet",
    "run_profiles",
    "run_sweep",
]


# ----------------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------------

# the smallest eps of the direct track, the only one that reads R4-R6
_DIRECT_EPS = 0.1


@dataclass(frozen=True)
class RunConfig:
    dimension: int = 3
    eps_sweep: tuple = (0.3, 0.25, 0.2, 0.15, 0.125, 0.1)
    a_plus: float = 1.0
    a_minus: float = 0.5
    h0: float = 0.15
    grade_levels: int = 8
    r_out: float = 12.0
    # a class constant, not a field, only for perfbench's problem_size
    order: ClassVar[int] = 2
    profile_level: int = 1
    sweep_level: int = 1
    out_dir: str = "runs"
    # both pinned and read by nothing, only for perfbench/run.py's
    # RunConfig(cache=False, jobs=1, ...)
    cache: bool = False
    jobs: int = 1

    def validate(self) -> "RunConfig":
        counts = {"dimension": 3, "sweep_level": 0, "profile_level": 0,
                  "grade_levels": 0, "jobs": 1}
        for name, least in counts.items():
            value = getattr(self, name)
            # a float count fails deep in a solve
            if isinstance(value, bool) or not isinstance(
                    value, (int, np.integer)) or value < least:
                raise ValueError(f"{name}={value!r} must be an integer "
                                 f">= {least}")
        if self.jobs != 1:
            raise ValueError(f"jobs={self.jobs!r} must be 1: the sweep runs "
                             "one path, on two threads")
        # every run solves its own profiles: nothing is cached on disk
        if self.cache is not False:
            raise ValueError(f"cache={self.cache!r} must be false: profiles "
                             "are solved afresh on every run")
        for name in ("a_plus", "a_minus", "h0", "r_out"):
            value = getattr(self, name)
            # MeshConfig's range checks let NaN and infinity through
            if not (_is_real(value) and math.isfinite(value)):
                raise ValueError(f"{name}={value!r} must be a finite number")
        sweep = self.eps_sweep
        if not (isinstance(sweep, tuple) and len(sweep) >= 2
                and all(map(_is_real, sweep))):
            raise ValueError(f"eps_sweep={sweep!r} must list at least two "
                             "eps values")
        _check_decreasing(sweep)
        for eps in sweep:
            self.mesh_config(eps).validate()
        # a trend needs two points, so R4-R6 need two direct-track eps
        if sum(eps >= _DIRECT_EPS for eps in sweep) < 2:
            raise ValueError(f"eps_sweep={sweep!r} needs at least two eps >= "
                             f"{_DIRECT_EPS:g} for R4-R6 to have a trend")
        # D- mirrors D+ with the weight scaled by a_minus/a_plus, so
        # lambda_1(D-) = lam_k0 a_plus/a_minus (measured 2.0000000757 lam_k0
        # at the defaults), and Ubar's shift lam_k0 stays at most 0.8 of it
        if not (self.a_plus > 0 and 0 <= self.a_minus <= 0.8 * self.a_plus):
            raise ValueError(
                f"weight a_plus={self.a_plus}, a_minus={self.a_minus}: Ubar "
                "needs a_plus > 0 and 0 <= a_minus <= 0.8 a_plus, so that "
                "lam_k0 <= 0.8 lambda_1(D-)")
        return self

    def canonical(self) -> dict:
        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        for io_field in ("out_dir", "jobs", "cache"):
            d.pop(io_field)
        return d

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def mesh_config(self, eps: float | None = None) -> MeshConfig:
        return MeshConfig(h0=self.h0, levels=self.grade_levels,
                          r_out=self.r_out, eps=eps, dimension=self.dimension)

    def weight(self) -> fem.WeightModel:
        return fem.WeightModel(self.a_plus, self.a_minus)


# ----------------------------------------------------------------------------
# Profile stage
# ----------------------------------------------------------------------------

@dataclass
class ProfileSet:
    """Profile fields kept alongside the constants for the comparisons."""

    u0: prof.ProfileSolution
    phi: prof.ProfileSolution
    phihat: prof.ProfileSolution
    ubar: prof.ProfileSolution
    constants: ProfileConstants


def _compute_profiles(cfg: RunConfig) -> ProfileSet:
    """The four profiles on two threads.  One worker thread, alive for
    the whole stage, makes, uses and frees the factor of each of Phi,
    PhiHat and Ubar in one job (`fem.AssembledSystem.solve`).  This
    thread builds Phi's system and load and queues its job, then PhiHat's,
    solves all of u0 (its factor made, used and freed here), assembles
    Ubar's system at lam_k0 and queues its job, and reads the constants of
    Phi, PhiHat and Ubar off their profiles as the jobs return them.  The
    worker calls nothing that a tracer wraps, so every traced call is
    made on this thread and the calls stay nested.  A failure on either
    thread is raised under its stage's name (`profile stage 'u0' failed:
    ...`); a failure here cancels the queued jobs, and the running one
    still frees its factor on the worker."""
    mc, level, weight = cfg.mesh_config(), cfg.profile_level, cfg.weight()
    jobs = {}

    def stage(name, solve):
        try:
            return solve()
        except Exception as exc:
            raise RuntimeError(
                f"profile stage {name!r} failed: {exc}") from exc

    def queue(name, assemble):
        jobs[name] = worker.submit(stage(name, assemble))

    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            queue("Phi", lambda: prof.assemble_Phi(mc, level))
            queue("PhiHat", lambda: prof.assemble_PhiHat(mc, level))
            u0 = stage("u0", lambda: prof.compute_u0(mc, level, weight))
            queue("Ubar", lambda: prof.assemble_Ubar(
                mc, weight, level, u0[1]["lam_k0"]))
            solved = [u0]
            for name, read in (("Phi", prof.compute_Phi),
                               ("PhiHat", prof.compute_PhiHat),
                               ("Ubar", lambda profile: prof.compute_Ubar(
                                   profile, _KTILDE_LIST))):
                # the job's Future goes once its profile is taken
                solved.append(stage(name, lambda: read(
                    jobs.pop(name).result())))
        finally:
            for job in jobs.values():
                job.cancel()
    values = {k: v for _, found in solved for k, v in found.items()}
    return ProfileSet(*(profile for profile, _ in solved),
                      ProfileConstants(level=level, **values))


def run_profiles(cfg: RunConfig, return_fields: bool = False):
    """The profile constants of a config, solved afresh on every call;
    with `return_fields`, the whole `ProfileSet`.  Nothing is written to
    disk."""
    pset = _compute_profiles(cfg.validate())
    return pset if return_fields else pset.constants


# ----------------------------------------------------------------------------
# Per-eps solve
# ----------------------------------------------------------------------------

# Both sweep iterations shift to (1 - _SHIFT_OFFSET) lam_k0, known before
# the entry starts, so neither factor waits for the other's eigenvalue.
# lam_ref/lam_k0 - 1 is measured at most 2.7e-7, and lam_eps <= lam_ref by
# min-max with lam_ref - lam_eps measured 2.7e-5 lam_ref at eps = 0.3 and
# 9.2e-5 at eps = 0.45, about 1.3e-4 by the law lam_ref - lam_eps ~ eps^N
# d0^2 m_Phi for every eps < 0.5.  So sigma = (1 - 1e-3) lam_k0 <=
# (1 - 1e-3)(1 + 2.7e-7) lam_ref < lam_eps <= lam_ref: K - sigma M_p stays
# SPD on both spaces, lam1 - sigma is about 1e-3 lam1 or less, and a step
# contracts the next mode (lam2 >= 2 lam_k0: the left body's ground mode,
# or the second mode of D+ at 2.38 lam_k0) by (lam1 - sigma)/(lam2 - sigma)
# <= about 1e-3 (Parlett, The Symmetric Eigenvalue Problem, ch. 4).  A
# Rayleigh quotient at or below sigma raises in fem's inverse iteration,
# and _full_pair's lam_eps <= lam_ref guard catches an iterate drawn to a
# higher mode.
_SHIFT_OFFSET = 1e-3
# eigen_smallest steps for the restricted reference: 1 Krylov solve and the
# 2-solve polish.  The cold all-ones start overlaps the D+ modes at O(1);
# the Ritz vector of the 2-vector basis and two steps at <= 1e-3 each left
# a vector error of 2e-10 of the peak against 12 steps (eps = 0.3 and 0.1),
# and the Rayleigh quotient error squares it: lam_ref came out bitwise equal
_REFERENCE_STEPS = 3
# refine_eigenpair steps for the full pair from the restricted
# eigenvector, which is zero on x1 <= 1 and lacks only the left tail,
# about 1e-15 of the peak; the left-body entries need 9 more digits, so
# 1e-3^steps <= 1e-9 gives 3 steps and the 4th keeps a x1000 margin.
# Against 6 steps at sigma = 0.99 lam_k0 the worst R6 ratio (eps = 0.1)
# moved 3.5e-7 at 2 steps, 3.5e-10 at 3 and 1.5e-12 at 4
_EIGENPAIR_STEPS = 4


def _entry_system(cfg: RunConfig, eps: float) -> fem.AssembledSystem:
    """An entry's dumbbell mesh, discretization and assembled system."""
    mesh = build_dumbbell_mesh(cfg.mesh_config(eps))
    for _ in range(cfg.sweep_level):
        mesh = refine(mesh)
    return fem.assemble(fem.Discretization(mesh), cfg.weight())


def _full_pair(system: fem.AssembledSystem, lam_k0: float,
               reference: Callable[[], fem.EigenPair]):
    """The mass-normalized ground pair of the dumbbell and the eigenvalue
    lambda_ref of its restricted reference.  The full operator is factored
    first, on the calling thread; `reference()` then gives the restricted
    pair, waiting for it if another thread is still solving it, and may
    be called twice.  The factor is made, used and freed in this call
    (`fem.refine_on_own_factor`), so the sweep runs it on its worker
    thread."""
    full = system.shifted((1 - _SHIFT_OFFSET) * lam_k0)
    # float64 solves, whose LU keeps the left body's digits without
    # refinement
    pair = fem.refine_on_own_factor(
        full, lambda: reference().field.values[system.free],
        _EIGENPAIR_STEPS)
    lam_ref = reference().lam
    # the restricted space is a subspace of the sweep space, so by min-max
    # lam_eps <= lam_ref; a larger lam_eps is an iterate on the wrong mode
    if pair.lam > lam_ref * (1 + 1e-12):
        raise ValueError(f"lambda_eps = {pair.lam!r} exceeds the restricted "
                         f"reference lambda_ref = {lam_ref!r}")
    return pair, lam_ref


def _restricted_reference(system: fem.AssembledSystem,
                          lam_k0: float) -> fem.EigenPair:
    """lambda_k0 on the same dumbbell mesh with everything left of the
    right junction clamped to zero: a nested subspace of the sweep space,
    so the eigenvalue comparison is free of independent-mesh bias.  Its
    eigenvector, zero on the clamped nodes, is the start of the sweep's
    own iteration.  The pair is returned without its subsystem, so that
    the subsystem's factor is freed on the thread that made it when this
    returns."""
    left = np.nonzero(system.disc.nodes[:, 0] <= 1.0 + 1e-14)[0]
    sub = system.clamped(left).shifted((1 - _SHIFT_OFFSET) * lam_k0)
    return fem.eigen_smallest(sub, _REFERENCE_STEPS)


# readout geometry: the right-window fit sections, the R2 stations x0, the
# ktilde radii of R5 and the normalized blow-ups, and the radii of the
# spherical fit in D- (those inside the tube radius are skipped)
_FIT_WINDOW, _FIT_POINTS = (0.55, 0.85), 13
_X0_LIST = (0.3, 0.5, 0.7)
_KTILDE_LIST = (0.5, 1.0, 1.5)
_SPHERICAL_RADII = (0.3, 0.5, 0.8, 1.2, 2.0)


def _annulus_samples(center: float, radii, side: int, n_phi: int = 25):
    a, b = (0.0, 0.5 * math.pi) if side > 0 else (0.5 * math.pi, math.pi)
    phi = np.tile(np.linspace(a + 1e-3, b - 1e-3, n_phi), len(radii))
    r = np.repeat(radii, n_phi)
    return center + r * np.cos(phi), r * np.sin(phi)


def _sup_window(samples: dict, window: str, view, reference, x1, rho):
    """Compare `view` with `reference` on the points (x1, rho) and record
    the sample count under `window`; a non-finite sample (say, a point the
    locator missed) fails the entry instead of leaving the sup."""
    out = almgren.compare_views(view, reference, x1, rho)
    if out["samples"] != x1.size:
        raise ValueError(f"window {window}: {x1.size - out['samples']} of "
                         f"{x1.size} samples are not finite")
    samples[window] = out["samples"]
    return out


def _entry_readouts(cfg: RunConfig, pset: ProfileSet, eps: float,
                    pair: fem.EigenPair, lam_ref: float) -> dict:
    """An entry's readout phase: everything the record reads off the
    eigenpair.  It factors and solves nothing."""
    con = pset.constants
    n = cfg.dimension
    mode = cs.disk_ground_mode(n)
    sl1 = mode.sqrt_lambda1
    track = "direct" if eps >= _DIRECT_EPS else "cascade"
    u = pair.field

    # growing-mode amplitude A from the right tube window
    ts = np.linspace(*_FIT_WINDOW, _FIT_POINTS)
    fit = ch.fit_channel_mode(
        [(t, cs.project_section(u.evaluate, t, eps, mode)) for t in ts],
        eps, sl1)

    # cascade reconstruction of the left-side scales from tube data
    sqrt_ht_eps_c = (fit.A * math.sqrt(con.m_phihat)).scale_exp(-sl1 / eps)
    b_cascade = ((con.phihat0 - con.c_hat) * sqrt_ht_eps_c)\
        .scale_exp(-sl1 / eps)

    # channel frequency at the midpoint section
    freq = almgren.frequency_channel(u, eps, [0.5], weight=cfg.weight(),
                                     lam=pair.lam)

    kd0cphi = con.d0 * con.c_phi
    if track == "direct":
        # section masses, kept scaled
        ht_x0 = {x0: ScaledAmplitude.from_float(
            ch.htilde(u.evaluate, x0, eps, n)[0]) for x0 in _X0_LIST}
        ht_eps = ScaledAmplitude.from_float(
            ch.htilde(u.evaluate, eps, eps, n)[0])

        # decaying-mode coefficient by defect: next to the left junction
        # the B-term is a percent-level fraction of the local signal (it
        # is invisible to a uniformly weighted window fit), so subtract
        # the fitted growing mode at t = 0.05 and unfold the decay factor
        junction_probes = {tp: cs.project_section(u.evaluate, tp, eps, mode)
                           for tp in (0.02, 0.05, 0.08)}
        decay = sl1 / eps * (0.05 - 1.0)
        grow = fit.A.scale_exp(decay).to_float()
        b_defect = ScaledAmplitude.from_float(
            junction_probes[0.05] - grow).scale_exp(decay)

        # spherical representation in D-; a zero section mass at eps
        # fails the entry in R4
        sph = ch.spherical_fit(
            [(r, cs.project_sphere(u.evaluate, 0.0, r, -1, n))
             for r in _SPHERICAL_RADII if r > eps], n)
        spherical = {"alpha": sph.alpha, "beta": sph.beta, "d": sph.d,
                     "residual": sph.residual}
        left = {"R4": (sph.d / (n * eps ** (n - 1)))
                / ((-con.c_phihat * con.c_hat) * ht_eps.sqrt().to_float())}
        big = con.c_phihat * kd0cphi
        for kt in _KTILDE_LIST:
            amp = ScaledAmplitude.from_float(math.sqrt(
                cs.half_sphere_mass(u.evaluate, 0.0, kt, -1, n))).scale_exp(
                    sl1 / eps - n * math.log(eps))
            left[f"R5[kt={kt:g}]"] = (
                amp / (math.sqrt(con.norm_gamma[kt]) * big)).to_float()

        # blow-up comparisons; `samples` counts the points behind each sup
        comparisons, samples = {}, {}
        view = almgren.blowup(u.evaluate, "RightJunction", eps)
        out = _sup_window(samples, "right_vs_d0Phi", view,
                          lambda a, b: con.d0 * pset.phi(a, b),
                          *_annulus_samples(1.0, (1.6, 2.0, 2.4), +1))
        comparisons["right_vs_d0Phi"] = out["sup"] / out["ref_sup"]

        uhat = almgren.blowup(u.evaluate, "LeftJunction", eps, dimension=n)
        out = _sup_window(samples, "left_vs_PhiHat", uhat,
                          lambda a, b: con.c_hat * pset.phihat(a, b),
                          *_annulus_samples(0.0, (1.6, 2.0, 2.4), -1))
        comparisons["left_vs_PhiHat"] = out["sup"] / out["ref_sup"]

        view = almgren.blowup(u.evaluate, "Channel", eps, x0=0.5,
                              dimension=n)
        rr = np.linspace(0.02, 0.98, 33)
        out = _sup_window(samples, "channel_vs_psi1", view,
                          lambda a, b: mode.psi1(b), np.ones_like(rr), rr)
        comparisons["channel_vs_psi1"] = out["sup"]

        x1_in, rho_in = _annulus_samples(0.0, (0.6, 1.0, 1.4), -1)
        norm_dev = {}
        for kt in _KTILDE_LIST:
            view = almgren.blowup(u.evaluate, "Normalized", eps, ktilde=kt,
                                  dimension=n)
            ref = lambda a, b, _k=kt: pset.ubar(a, b) / math.sqrt(
                con.norm_gamma[_k])
            out = _sup_window(samples, f"normalized_vs_Ubar[kt={kt:g}]",
                              view, ref, x1_in, rho_in)
            norm_dev[kt] = out["sup"] / out["ref_sup"]
        comparisons["normalized_vs_Ubar"] = norm_dev

        scale = ScaledAmplitude.from_float(1.0).scale_exp(
            sl1 / eps - n * math.log(eps)).to_float()
        out = _sup_window(samples, "R6",
                          lambda a, b: scale * u.evaluate(a, b),
                          lambda a, b: big * pset.ubar(a, b), x1_in, rho_in)
        left["R6"] = out["sup"] / out["ref_sup"]
    else:
        # the left side is not read: section masses from the propagated
        # tube amplitude, and no left-side ratios
        ht_x0 = {}
        for x0 in _X0_LIST:
            amp = ch.propagate(fit, x0)
            ht_x0[x0] = amp * amp
        ht_eps = sqrt_ht_eps_c * sqrt_ht_eps_c
        junction_probes, b_defect = {}, ScaledAmplitude.zero()
        spherical, comparisons, samples, left = None, {}, {}, {}

    # ratio series entries
    sqrt_ht_eps = ht_eps.sqrt()
    ratios = {"R1": pair.lam / lam_ref}
    for x0 in _X0_LIST:
        amp = ht_x0[x0].sqrt().scale_exp(-sl1 * (x0 - 1.0) / eps)
        ratios[f"R2[x0={x0:g}]"] = (amp / (eps * kd0cphi)).to_float()
    ratios["R3"] = (sqrt_ht_eps.scale_exp(sl1 / eps)
                    / (eps * kd0cphi * math.sqrt(con.m_phihat))).to_float() \
        if not sqrt_ht_eps.is_zero() else float("nan")
    ratios.update(left)

    return {
        "eps": eps,
        "track": track,
        "lam_eps": pair.lam,
        "lam_ref": lam_ref,
        "eigen_residual": pair.field.residual,
        "fit": {"A": fit.A.to_dict(), "B": fit.B.to_dict(),
                "window": list(fit.window), "residual": fit.residual,
                "b_resolved": bool(fit.b_resolved)},
        "spherical": spherical,
        "htilde_x0": {repr(float(k)): v.to_dict() for k, v in ht_x0.items()},
        "htilde_eps": ht_eps.to_dict(),
        "sqrt_htilde_eps_cascade": sqrt_ht_eps_c.to_dict(),
        "b_cascade": b_cascade.to_dict(),
        "b_defect": b_defect.to_dict(),
        "junction_probes": {repr(float(k)): v
                            for k, v in junction_probes.items()},
        "n_eps_half": float(freq.N[0]),
        "comparisons": comparisons,
        "samples": samples,
        "ratios": ratios,
    }


# ----------------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------------

def _error(exc: Exception) -> dict:
    """The keys an entry that raised `exc` gets after its eps."""
    return {"error": f"{type(exc).__name__}: {exc}", "ratios": {}}


def run_sweep(cfg: RunConfig, constants=None) -> RunRecord:
    """Sweep `cfg.eps_sweep`; `constants` is the ProfileSet to reuse, or
    None to solve the profiles first.

    The entries run on two threads.  One worker thread, alive for the
    whole sweep, takes one job per entry: it factors the entry's full
    operator, waits for the restricted reference's eigenvector and runs
    the full pair's steps and guard (`_full_pair`).  This thread, for each
    entry i, builds its system and submits its job, waits for entry i-1's
    pair (so at most one full factor is alive, and entry i's reference
    never overlaps entry i-1's full factor), solves entry i's restricted
    reference and hands it to the worker, and runs entry i-1's readouts;
    the last entry's run after the loop.  Entry i's build runs beside
    entry i-1's factorization, its reference and entry i-1's readouts
    beside its own.  Each factor is made, used and freed on one thread,
    and each exception becomes its own entry's error; a failed reference
    is handed to the worker, whose job then raises it.  Whatever ends the
    loop, the last hand-off is resolved, so the worker never waits for
    ever."""
    cfg.validate()
    if constants is None:
        pset = run_profiles(cfg, return_fields=True)
    elif isinstance(constants, ProfileSet):
        pset = constants
    else:
        raise TypeError("run_sweep needs a ProfileSet or None as "
                        f"constants, not {type(constants).__name__}")

    lam_k0 = pset.constants.lam_k0
    sweep, last, handoff = [], None, Future()

    def readouts(entry, job):
        try:
            entry.update(_entry_readouts(cfg, pset, entry["eps"],
                                         *job.result()))
        except Exception as exc:
            entry.update(_error(exc))

    with ThreadPoolExecutor(max_workers=1) as worker:
        try:
            for eps in map(float, cfg.eps_sweep):
                entry, job = {"eps": eps}, None
                sweep.append(entry)
                try:
                    system = _entry_system(cfg, eps)
                except Exception as exc:
                    entry.update(_error(exc))
                else:
                    handoff = Future()
                    job = worker.submit(_full_pair, system, lam_k0,
                                        handoff.result)
                if last is not None:
                    wait([last[1]])
                if job is not None:
                    try:
                        handoff.set_result(
                            _restricted_reference(system, lam_k0))
                    except Exception as exc:
                        # the worker raises it: its frames, the reference's
                        # factor among their locals, are cleared here first
                        fem.clear_frames(exc)
                        handoff.set_exception(exc)
                    del system
                if last is not None:
                    readouts(*last)
                last = None if job is None else (entry, job)
            if last is not None:
                readouts(*last)
        finally:
            # an unresolved hand-off (an interrupt) would block the worker,
            # and the worker's shutdown with it
            handoff.cancel()

    record = RunRecord(cfg.hash(), cfg.canonical(), pset.constants, sweep)
    record.verdicts = verify(record)
    return record
