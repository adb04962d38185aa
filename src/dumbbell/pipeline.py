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
import traceback
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
# Factor worker
# ----------------------------------------------------------------------------

def _cleared(fn, *args):
    """`fn(*args)`; a failure leaves with the frames of it and of its
    `__cause__`/`__context__` chain cleared, so that their locals, a
    SuperLU factor among them, are freed now, on this thread."""
    try:
        return fn(*args)
    except BaseException as exc:
        # the bare `raise` re-raises the caught failure, not what exc names
        while exc is not None:
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__cause__ or exc.__context__
        raise


class _Worker:
    """A stage's one factor worker thread, alive for its `with` block.

    Every SuperLU factor is made, used and freed on one thread: memory
    SuperLU allocated on one thread and freed on another is not returned
    (an eps = 0.3 sweep factor made on a helper and dropped on the main
    thread grew RSS from 88 to 383 MB in 8 rounds, against a flat 98 MB
    when the helper dropped it).  So each job makes, uses and frees its
    own factor (`fem.AssembledSystem.solve`, `fem.refine_on_own_factor`),
    and `submit` runs it inside `_cleared`, which clears a failure's
    frames, the factor among their locals, on the worker.  The jobs call
    nothing a tracer wraps, so a tracer with one span stack sees the main
    thread's calls nested.

    `handoff()` opens the one Future the next queued job waits on;
    `hand(fn, *args)` resolves it on the main thread with `fn(*args)` or,
    its frames cleared, with its failure, which the job then raises.
    Leaving the block cancels the open hand-off, so that no job waits
    for ever (after an interrupt, say), then shuts the pool down: queued
    jobs are cancelled, and the running one frees its factor on the
    worker."""

    def __enter__(self) -> "_Worker":
        self._pool = ThreadPoolExecutor(max_workers=1)
        self._handoff = Future()
        return self

    def __exit__(self, *exc_info) -> None:
        self._handoff.cancel()
        self._pool.shutdown(cancel_futures=True)

    def submit(self, fn, *args) -> Future:
        return self._pool.submit(_cleared, fn, *args)

    def handoff(self) -> Future:
        self._handoff = Future()
        return self._handoff

    def hand(self, fn, *args) -> None:
        try:
            self._handoff.set_result(_cleared(fn, *args))
        except Exception as exc:
            self._handoff.set_exception(exc)


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
    """The four profiles, on this thread and a `_Worker`, which solves Phi,
    PhiHat and Ubar, one job each (`fem.AssembledSystem.solve`).  This
    thread builds Phi's system and load and queues its job, then PhiHat's,
    solves all of u0, assembles Ubar's system at lam_k0 and queues its
    job, and reads the constants of Phi, PhiHat and Ubar off their
    profiles as the jobs return them.  A failure on either thread is
    raised under its stage's name (`profile stage 'u0' failed: ...`)."""
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

    with _Worker() as worker:
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
# junction probe sections, the ktilde radii of R5 and the normalized
# blow-ups, and the radii of the spherical fit in D- (those inside the
# tube radius are skipped)
_FIT_WINDOW, _FIT_POINTS = (0.55, 0.85), 13
_X0_LIST = (0.3, 0.5, 0.7)
_PROBES = (0.02, 0.05, 0.08)
_KTILDE_LIST = (0.5, 1.0, 1.5)
_SPHERICAL_RADII = (0.3, 0.5, 0.8, 1.2, 2.0)
# the channel frequency's section
_FREQ_SECTION = 0.5


def _annulus_samples(center: float, radii, side: int, n_phi: int = 25):
    a, b = (0.0, 0.5 * math.pi) if side > 0 else (0.5 * math.pi, math.pi)
    phi = np.tile(np.linspace(a + 1e-3, b - 1e-3, n_phi), len(radii))
    r = np.repeat(radii, n_phi)
    return center + r * np.cos(phi), r * np.sin(phi)


def _windows() -> dict:
    """The blow-up windows, in the record's order: each one's view (kind,
    x0, ktilde; None for R6, which reads u itself) and sample points."""
    inner = _annulus_samples(0.0, (0.6, 1.0, 1.4), -1)
    rr = np.linspace(0.02, 0.98, 33)
    windows = {
        "right_vs_d0Phi": (("RightJunction", None, None),
                           _annulus_samples(1.0, (1.6, 2.0, 2.4), +1)),
        "left_vs_PhiHat": (("LeftJunction", None, None),
                           _annulus_samples(0.0, (1.6, 2.0, 2.4), -1)),
        "channel_vs_psi1": (("Channel", 0.5, None), (np.ones_like(rr), rr))}
    for kt in _KTILDE_LIST:
        windows[f"normalized_vs_Ubar[kt={kt:g}]"] = (
            ("Normalized", None, kt), inner)
    windows["R6"] = (None, inner)
    return windows


def _window_references(pset: ProfileSet, n: int) -> dict:
    """The reference side of each blow-up window (d0 Phi, c_hat PhiHat,
    psi1, Ubar / sqrt(norm_gamma) and big Ubar), the same at every eps:
    each profile is read once, Ubar once for its four windows."""
    con = pset.constants
    windows = _windows()
    (x1_in, rho_in) = windows["R6"][1]
    ubar = pset.ubar(x1_in, rho_in)
    refs = {"right_vs_d0Phi": con.d0 * pset.phi(
                *windows["right_vs_d0Phi"][1]),
            "left_vs_PhiHat": con.c_hat * pset.phihat(
                *windows["left_vs_PhiHat"][1]),
            "channel_vs_psi1": cs.disk_ground_mode(n).psi1(
                windows["channel_vs_psi1"][1][1])}
    for kt in _KTILDE_LIST:
        refs[f"normalized_vs_Ubar[kt={kt:g}]"] = ubar / math.sqrt(
            con.norm_gamma[kt])
    refs["R6"] = con.c_phihat * (con.d0 * con.c_phi) * ubar
    return refs


class _ReadoutPlan:
    """The mesh-only half of an entry's readouts, built from its
    discretization and eps before its eigenvector is needed: every point
    at which the readouts read u (the sections, the spheres and the
    blow-up windows of its track), duplicates dropped and located in one
    `Discretization.locate` call, and the masked quadrature of the channel
    region x1 < `_FREQ_SECTION` (`almgren._MaskedPlan`).  `reads` maps
    each read's key to its points (x1, rho); `reader(values)` gathers a
    nodal field at every point at once."""

    def __init__(self, cfg: RunConfig, disc: fem.Discretization,
                 eps: float):
        self.direct = eps >= _DIRECT_EPS
        reads = {("section", t): cs._section_points(t, eps)
                 for t in np.linspace(*_FIT_WINDOW, _FIT_POINTS)}
        reads[("section", _FREQ_SECTION)] = ch._section(_FREQ_SECTION, eps)
        if self.direct:
            for x0 in _X0_LIST + (eps,):
                reads[("section", x0)] = ch._section(x0, eps)
            for tp in _PROBES:
                reads[("section", tp)] = cs._section_points(tp, eps)
            for r in _SPHERICAL_RADII + _KTILDE_LIST:
                reads[("sphere", r)] = cs._sphere_points(0.0, r, -1)
            for name, (view, points) in _windows().items():
                if view is not None:
                    points = almgren._view_points(
                        almgren._frame(view[0], eps, *view[1:]), *points)
                reads[("window", name)] = points
        self.reads = reads
        x1 = np.concatenate([x for x, _ in reads.values()])
        rho = np.concatenate([r for _, r in reads.values()])
        points, self._inverse = np.unique(np.stack([x1, rho], axis=1),
                                          axis=0, return_inverse=True)
        self._located = fem._Located(disc, points[:, 0], points[:, 1])
        ends = np.cumsum([0] + [len(x) for x, _ in reads.values()])
        self._slices = {key: slice(lo, hi)
                        for key, lo, hi in zip(reads, ends[:-1], ends[1:])}
        self.channel = almgren._channel_plan(disc, cfg.weight(),
                                             _FREQ_SECTION)

    def reader(self, values: np.ndarray) -> Callable:
        """The values of the nodal field `values` at the points of a read,
        by its key, as `FieldSolution.evaluate` gives them."""
        at = self._located.read(values)[self._inverse]
        return lambda *key: at[self._slices[key]]


def _sup_window(samples: dict, window: str, view, reference, x1, rho):
    """Compare the `view` values with the `reference` values on the
    window's points (x1, rho) and record the sample count under `window`;
    a non-finite sample (say, a point the locator missed) fails the entry
    instead of leaving the sup."""
    out = almgren.compare_views(lambda a, b: view, lambda a, b: reference,
                                x1, rho)
    if out["samples"] != x1.size:
        raise ValueError(f"window {window}: {x1.size - out['samples']} of "
                         f"{x1.size} samples are not finite")
    samples[window] = out["samples"]
    return out


def _entry_readouts(cfg: RunConfig, pset: ProfileSet, eps: float,
                    pair: fem.EigenPair, lam_ref: float,
                    plan: _ReadoutPlan | None = None,
                    references: Callable[[], dict] | None = None) -> dict:
    """An entry's readout phase: everything the record reads off the
    eigenpair.  It factors and solves nothing.  `plan` is the entry's
    `_ReadoutPlan`, built here if None; `references()` gives the blow-up
    windows' reference side (`_window_references`), evaluated here if
    None.  The values are the plan's reads of u, put through the same
    reductions as `cross_section`, `channel` and `almgren` apply."""
    con = pset.constants
    n = cfg.dimension
    mode = cs.disk_ground_mode(n)
    sl1 = mode.sqrt_lambda1
    u = pair.field
    if plan is None:
        plan = _ReadoutPlan(cfg, u.disc, eps)
    track = "direct" if plan.direct else "cascade"
    read = plan.reader(u.values)

    # growing-mode amplitude A from the right tube window
    ts = np.linspace(*_FIT_WINDOW, _FIT_POINTS)
    fit = ch.fit_channel_mode(
        [(t, cs._section_projection(read("section", t), mode)) for t in ts],
        eps, sl1)

    # cascade reconstruction of the left-side scales from tube data
    sqrt_ht_eps_c = (fit.A * math.sqrt(con.m_phihat)).scale_exp(-sl1 / eps)
    b_cascade = ((con.phihat0 - con.c_hat) * sqrt_ht_eps_c)\
        .scale_exp(-sl1 / eps)

    # channel frequency at the midpoint section
    freq = almgren._channel_trace(
        eps, np.array([_FREQ_SECTION]),
        np.array([plan.channel.energy(u.values, pair.lam)]),
        np.array([ch._masses(read("section", _FREQ_SECTION), eps, n)[1]]))

    kd0cphi = con.d0 * con.c_phi
    if track == "direct":
        def htilde(x0):
            return ch._masses(read("section", x0), eps, n)[0]

        # section masses, kept scaled
        ht_x0 = {x0: ScaledAmplitude.from_float(htilde(x0))
                 for x0 in _X0_LIST}
        ht_eps = ScaledAmplitude.from_float(htilde(eps))

        # decaying-mode coefficient by defect: next to the left junction
        # the B-term is a percent-level fraction of the local signal (it
        # is invisible to a uniformly weighted window fit), so subtract
        # the fitted growing mode at t = 0.05 and unfold the decay factor
        junction_probes = {tp: cs._section_projection(read("section", tp),
                                                      mode)
                           for tp in _PROBES}
        decay = sl1 / eps * (0.05 - 1.0)
        grow = fit.A.scale_exp(decay).to_float()
        b_defect = ScaledAmplitude.from_float(
            junction_probes[0.05] - grow).scale_exp(decay)

        # spherical representation in D-; a zero section mass at eps
        # fails the entry in R4
        sph = ch.spherical_fit(
            [(r, cs._sphere_projection(read("sphere", r), -1, n))
             for r in _SPHERICAL_RADII if r > eps], n)
        spherical = {"alpha": sph.alpha, "beta": sph.beta, "d": sph.d,
                     "residual": sph.residual}
        left = {"R4": (sph.d / (n * eps ** (n - 1)))
                / ((-con.c_phihat * con.c_hat) * ht_eps.sqrt().to_float())}
        big = con.c_phihat * kd0cphi
        shell = {kt: cs._half_sphere_mass(read("sphere", kt), kt, -1, n)
                 for kt in _KTILDE_LIST}
        for kt in _KTILDE_LIST:
            amp = ScaledAmplitude.from_float(math.sqrt(shell[kt])).scale_exp(
                sl1 / eps - n * math.log(eps))
            left[f"R5[kt={kt:g}]"] = (
                amp / (math.sqrt(con.norm_gamma[kt]) * big)).to_float()

        # blow-up comparisons against the references; `samples` counts
        # the points behind each sup
        refs = references() if references else _window_references(pset, n)
        # each view's mass, as `almgren.blowup` reads it
        masses = {"RightJunction": None, "Channel": htilde(0.5),
                  "LeftJunction": htilde(eps)}
        scale = ScaledAmplitude.from_float(1.0).scale_exp(
            sl1 / eps - n * math.log(eps)).to_float()
        comparisons, samples, outs = {}, {}, {}
        for name, (view, points) in _windows().items():
            values = read("window", name)
            if view is None:
                values = scale * values
            else:
                kind, _, kt = view
                mass = shell[kt] if kind == "Normalized" else masses[kind]
                values = values / almgren._denominator(kind, eps, mass)
            outs[name] = _sup_window(samples, name, values, refs[name],
                                     *points)
        for name in ("right_vs_d0Phi", "left_vs_PhiHat"):
            comparisons[name] = outs[name]["sup"] / outs[name]["ref_sup"]
        comparisons["channel_vs_psi1"] = outs["channel_vs_psi1"]["sup"]
        comparisons["normalized_vs_Ubar"] = {
            kt: outs[f"normalized_vs_Ubar[kt={kt:g}]"]["sup"]
            / outs[f"normalized_vs_Ubar[kt={kt:g}]"]["ref_sup"]
            for kt in _KTILDE_LIST}
        left["R6"] = outs["R6"]["sup"] / outs["R6"]["ref_sup"]
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

    The entries run on this thread and a `_Worker`, which takes one job
    per entry: it factors the entry's full operator, waits for the
    restricted reference's eigenvector at the hand-off and runs the full
    pair's steps and guard (`_full_pair`).  This thread, for each entry
    i, builds its system and submits its job, waits for entry i-1's pair
    (so at most one full factor is alive, and entry i's reference never
    overlaps entry i-1's full factor), solves entry i's restricted
    reference and hands it to the worker, and runs entry i-1's readouts;
    the last entry's run after the loop.  Entry i's build runs beside
    entry i-1's factorization, its reference and entry i-1's readouts
    beside its own.  Each exception becomes its own entry's error; a
    failed reference is handed to the worker, whose job then raises
    it."""
    cfg.validate()
    if constants is None:
        pset = run_profiles(cfg, return_fields=True)
    elif isinstance(constants, ProfileSet):
        pset = constants
    else:
        raise TypeError("run_sweep needs a ProfileSet or None as "
                        f"constants, not {type(constants).__name__}")

    lam_k0 = pset.constants.lam_k0
    sweep, last, refs = [], None, {}

    def references():
        # once per sweep; a failure is each direct entry's error
        if not refs:
            refs.update(_window_references(pset, cfg.dimension))
        return refs

    def readouts(entry, job, disc):
        try:
            # the plan reads the mesh alone, so the last entry's fills
            # the wait for its pair
            plan = _ReadoutPlan(cfg, disc, entry["eps"])
            entry.update(_entry_readouts(cfg, pset, entry["eps"],
                                         *job.result(), plan, references))
        except Exception as exc:
            entry.update(_error(exc))

    with _Worker() as worker:
        for eps in map(float, cfg.eps_sweep):
            entry, job = {"eps": eps}, None
            sweep.append(entry)
            try:
                system = _entry_system(cfg, eps)
            except Exception as exc:
                entry.update(_error(exc))
            else:
                job = worker.submit(_full_pair, system, lam_k0,
                                    worker.handoff().result)
            if last is not None:
                wait([last[1]])
            if job is not None:
                worker.hand(_restricted_reference, system, lam_k0)
                disc = system.disc
                del system
            if last is not None:
                readouts(*last)
            last = None if job is None else (entry, job, disc)
        if last is not None:
            readouts(*last)

    record = RunRecord(cfg.hash(), cfg.canonical(), pset.constants, sweep)
    record.verdicts = verify(record)
    return record
