"""Sweep orchestration: profile constants, per-eps dumbbell solves, ratio
series, trend verdicts and persistence.

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

import csv
import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field as dfield
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import almgren
from . import channel as ch
from . import cross_section as cs
from . import fem
from . import profiles as prof
from .mesh import MeshConfig, build_dumbbell_mesh, refine
from .scaled import ScaledAmplitude

__all__ = [
    "RunConfig",
    "ProfileConstants",
    "ProfileSet",
    "RunRecord",
    "run_profiles",
    "run_sweep",
    "verify",
    "emit",
    "load_record",
]


# ----------------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    dimension: int = 3
    eps_sweep: tuple = (0.3, 0.25, 0.2, 0.15, 0.125, 0.1)
    a_plus: float = 1.0
    a_minus: float = 0.5
    h0: float = 0.15
    grade_q: float = 0.5
    grade_levels: int = 8
    r_out: float = 12.0
    tube_length: float = 10.0
    # a class constant, not a field, only for perfbench's problem_size
    order: ClassVar[int] = 2
    profile_level: int = 1
    sweep_level: int = 1
    fit_window: tuple = (0.55, 0.85)
    fit_points: int = 13
    x0_list: tuple = (0.3, 0.5, 0.7)
    ktilde_list: tuple = (0.5, 1.0, 1.5)
    out_dir: str = "runs"
    cache: bool = True
    jobs: int = 1

    def validate(self) -> "RunConfig":
        sweep = tuple(float(e) for e in self.eps_sweep)
        if len(sweep) < 2:
            raise ValueError("sweep needs at least two eps values")
        if any(b >= a for a, b in zip(sweep, sweep[1:])):
            raise ValueError("eps sweep must be strictly decreasing")
        if not all(0 < e < 0.5 for e in sweep):
            raise ValueError("every eps must lie in (0, 0.5)")
        lo, hi = self.fit_window
        if not (0 < lo < hi < 1):
            raise ValueError("fit_window must sit inside the tube: "
                             "0 < lo < hi < 1")
        if not all(0 < x0 < 1 for x0 in self.x0_list):
            raise ValueError("every x0 must lie inside the tube, in (0, 1)")
        if self.fit_points < 4:
            raise ValueError("fit_points must be at least 4")
        if not all(k > 0 for k in self.ktilde_list):
            raise ValueError("every ktilde must be positive")
        if self.sweep_level < 0 or self.profile_level < 0:
            raise ValueError("refinement levels must be non-negative")
        if self.jobs < 1:
            raise ValueError(f"jobs={self.jobs} must be at least 1")
        self.weight()  # rejects a negative amplitude
        return self

    def canonical(self) -> dict:
        d = asdict(self)
        for k, v in d.items():
            if isinstance(v, tuple):
                d[k] = list(v)
        d.pop("out_dir")
        d.pop("jobs")
        d.pop("cache")
        return d

    def hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def mesh_config(self, eps: float | None = None) -> MeshConfig:
        return MeshConfig(h0=self.h0, q=self.grade_q,
                          levels=self.grade_levels, r_out=self.r_out,
                          eps=0.2 if eps is None else eps,
                          tube_length=self.tube_length,
                          dimension=self.dimension)

    def weight(self) -> fem.WeightModel:
        return fem.WeightModel(self.a_plus, self.a_minus)


# ----------------------------------------------------------------------------
# Profile stage
# ----------------------------------------------------------------------------

@dataclass
class ProfileConstants:
    """Scalar outputs of the four profile solves.

    c_hat = 1/sqrt(m_phihat) normalizes PhiHat to unit section mass at the
    junction; phihat0 is the ground-mode coefficient of the normalized
    profile at the tube entrance."""

    lam_k0: float
    d0: float
    d0_spread: float
    c_phi: float
    c_phihat: float
    m_phihat: float
    a0_phihat: float
    norm_gamma: dict
    level: int

    @property
    def c_hat(self) -> float:
        return 1.0 / math.sqrt(self.m_phihat)

    @property
    def phihat0(self) -> float:
        return self.a0_phihat * self.c_hat

    def to_dict(self) -> dict:
        d = asdict(self)
        d["norm_gamma"] = {repr(float(k)): v
                           for k, v in self.norm_gamma.items()}
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ProfileConstants":
        d = dict(d)
        d["norm_gamma"] = {float(k): float(v)
                           for k, v in d["norm_gamma"].items()}
        return cls(**d)


@dataclass
class ProfileSet:
    """Profile fields kept alongside the constants for the comparisons."""

    u0: prof.ProfileSolution
    phi: prof.ProfileSolution
    phihat: prof.ProfileSolution
    ubar: prof.ProfileSolution
    constants: ProfileConstants


def _compute_profiles(cfg: RunConfig, level: int) -> ProfileSet:
    mc = cfg.mesh_config()
    weight = cfg.weight()
    mode = cs.disk_ground_mode(cfg.dimension)
    out = {}
    stages = (
        ("u0", lambda: prof.compute_u0(mc, level, weight=weight)),
        ("Phi", lambda: prof.compute_Phi(mc, level)),
        ("PhiHat", lambda: prof.compute_PhiHat(mc, level)),
        # Ubar's shift is the u0 eigenvalue
        ("Ubar", lambda: prof.compute_Ubar(mc, weight, out["u0"][1], level,
                                           ktilde=cfg.ktilde_list)))
    for name, solve in stages:
        try:
            out[name] = solve()
        except Exception as exc:
            raise RuntimeError(
                f"profile stage {name!r} failed: {exc}") from exc
    u0, lam_k0, d0 = out["u0"]
    phi, c_phi = out["Phi"]
    phihat, c_phihat, m_phihat = out["PhiHat"]
    ubar, norms = out["Ubar"]
    a0 = cs.project_section(phihat, 0.0, 1.0, mode)
    constants = ProfileConstants(
        lam_k0=lam_k0, d0=d0, d0_spread=u0.metadata["d0_spread"],
        c_phi=c_phi, c_phihat=c_phihat, m_phihat=m_phihat, a0_phihat=a0,
        norm_gamma=norms, level=level)
    return ProfileSet(u0, phi, phihat, ubar, constants)


def run_profiles(cfg: RunConfig, return_fields: bool = False):
    """Profile constants for a config, cached on disk by config hash; a
    cache file that other package source wrote is recomputed and replaced."""
    cfg.validate()
    cache_path = os.path.join(cfg.out_dir, "cache",
                              f"profiles-{cfg.hash()}.json")
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    source = h.hexdigest()
    if cfg.cache and not return_fields and os.path.exists(cache_path):
        with open(cache_path) as fh:
            blob = json.load(fh)
        if blob.get("source") == source:
            return ProfileConstants.from_dict(blob["constants"])
    pset = _compute_profiles(cfg, cfg.profile_level)
    if cfg.cache:
        os.makedirs(os.path.dirname(cache_path), exist_ok=True)
        with open(cache_path, "w") as fh:
            json.dump({"source": source,
                       "constants": pset.constants.to_dict()}, fh, indent=1)
    return pset if return_fields else pset.constants


# ----------------------------------------------------------------------------
# Per-eps solve
# ----------------------------------------------------------------------------

def _dumbbell_eigenpair(cfg: RunConfig, eps: float, lam_k0: float):
    """The mass-normalized ground pair of the dumbbell and the eigenvalue
    lambda_ref of its restricted reference."""
    mesh = build_dumbbell_mesh(cfg.mesh_config(eps))
    for _ in range(cfg.sweep_level):
        mesh = refine(mesh)
    disc = fem.Discretization(mesh)
    system = fem.assemble(disc, cfg.weight())
    ref = _restricted_reference(system, lam_k0)
    # lam_eps sits just below lam_k0 (lam_eps/lam_k0 - 1 measured -2.7e-5 at
    # eps = 0.3 and -9.2e-5 at eps = 0.45), so sigma = 0.99 lam_k0 keeps
    # K - sigma M_p SPD, and each step contracts the other components by
    # (lam1 - sigma)/(lam2 - sigma) ~ 0.01.  The left-body entries sit 15
    # decades below the peak and need 9 more digits.  The all-ones start
    # carries an O(1) share of the left-body mode (lam2 ~ 2 lam_k0) and
    # would need 0.01^steps <= 1e-24, 12 steps; the restricted eigenvector
    # is zero on x1 <= 1 and lacks only the left tail, about 1e-15 of the
    # peak, so 0.01^steps <= 1e-9 gives 5 steps, and 6 keep a x100 margin;
    # the last two of them carry the extended-precision correction that
    # fixes those 9 digits
    pair = fem.refine_eigenpair(system.shifted(0.99 * lam_k0),
                                ref.field.values[system.free], 6)
    pair = fem.mass_normalize(system, pair)
    return pair, ref.lam


def _restricted_reference(system: fem.AssembledSystem,
                          lam_k0: float) -> fem.EigenPair:
    """lambda_k0 on the same dumbbell mesh with everything left of the
    right junction clamped to zero: a nested subspace of the sweep space,
    so the eigenvalue comparison is free of independent-mesh bias.  Its
    eigenvector, zero on the clamped nodes, is the start of the sweep's
    own iteration.  The pair is returned without its subsystem, so that
    the subsystem's factor is freed before the full operator is factored."""
    left = np.nonzero(system.disc.nodes[:, 0] <= 1.0 + 1e-14)[0]
    # on D+ lam2/lam1 = 2.38, so each step at sigma = 0.99 lam_k0 contracts
    # by about 0.007, and the Rayleigh quotient error squares that
    sub = system.clamped(left).shifted(0.99 * lam_k0)
    return fem.eigen_smallest(sub, 4)


# radii of the spherical fit in D-; those inside the tube radius are skipped
_SPHERICAL_RADII = (0.3, 0.5, 0.8, 1.2, 2.0)


def _annulus_samples(center: float, radii, side: int, n_phi: int = 25):
    a, b = (0.0, 0.5 * math.pi) if side > 0 else (0.5 * math.pi, math.pi)
    phis = np.linspace(a + 1e-3, b - 1e-3, n_phi)
    pts_x, pts_r = [], []
    for r in radii:
        pts_x.append(center + r * np.cos(phis))
        pts_r.append(r * np.sin(phis))
    return np.concatenate(pts_x), np.concatenate(pts_r)


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


def _sweep_entry(cfg: RunConfig, eps: float, pset: ProfileSet) -> dict:
    con = pset.constants
    n = cfg.dimension
    mode = cs.disk_ground_mode(n)
    sl1 = mode.sqrt_lambda1
    track = "direct" if eps >= 0.1 else "cascade"

    pair, lam_ref = _dumbbell_eigenpair(cfg, eps, con.lam_k0)
    u = pair.field
    # the restricted space is a subspace of the sweep space, so by min-max
    # lam_eps <= lam_ref; a larger lam_eps is an iterate on the wrong mode
    if pair.lam > lam_ref * (1 + 1e-12):
        raise ValueError(f"lambda_eps = {pair.lam!r} exceeds the restricted "
                         f"reference lambda_ref = {lam_ref!r}")

    # growing-mode amplitude A from the right tube window
    ts = np.linspace(cfg.fit_window[0], cfg.fit_window[1], cfg.fit_points)
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
            ch.htilde(u.evaluate, x0, eps, n)[0]) for x0 in cfg.x0_list}
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
        for kt in cfg.ktilde_list:
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
        for kt in cfg.ktilde_list:
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
        for x0 in cfg.x0_list:
            amp = ch.propagate(fit, x0)
            ht_x0[x0] = amp * amp
        ht_eps = sqrt_ht_eps_c * sqrt_ht_eps_c
        junction_probes, b_defect = {}, ScaledAmplitude.zero()
        spherical, comparisons, samples, left = None, {}, {}, {}

    # ratio series entries
    sqrt_ht_eps = ht_eps.sqrt()
    ratios = {"R1": pair.lam / lam_ref}
    for x0 in cfg.x0_list:
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
        "eigen_residual": pair.residual,
        "fit": {"A": fit.A.to_dict(), "B": fit.B.to_dict(),
                "C": fit.C.to_dict(), "window": list(fit.window),
                "residual": fit.residual, "b_resolved": bool(fit.b_resolved)},
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
# Sweep and verdicts
# ----------------------------------------------------------------------------

_FORMULAS = {
    "R1": "lam_eps / lam_k0(restricted right half)",
    "R2": "eps^-1 exp(-sqrt(l1)(x0-1)/eps) sqrt(Htilde(x0)) / (d0 c_Phi)",
    "R3": "eps^-1 exp(sqrt(l1)/eps) sqrt(Htilde(eps)) "
          "/ (d0 c_Phi sqrt(m_PhiHat))",
    "R4": "[d_eps/(N eps^(N-1) sqrt(Htilde(eps)))] "
          "/ (-c_PhiHat/sqrt(m_PhiHat))",
    "R5": "exp(sqrt(l1)/eps) eps^-N sqrt(int_{Gamma-_kt} u^2 dsigma) "
          "/ (sqrt(normGamma_Ubar(kt)) c_PhiHat c_Phi d0)",
    "R6": "sup_{0.5<=|x|<=1.5} |exp(sqrt(l1)/eps) u/eps^N "
          "- c_PhiHat c_Phi d0 Ubar| / sup|...Ubar|",
}


@dataclass
class RunRecord:
    config_hash: str
    config: dict
    constants: ProfileConstants
    sweep: list
    verdicts: dict = dfield(default_factory=dict)

    def to_dict(self) -> dict:
        return {"config_hash": self.config_hash, "config": self.config,
                "constants": self.constants.to_dict(), "sweep": self.sweep,
                "verdicts": self.verdicts}

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        return cls(d["config_hash"], d["config"],
                   ProfileConstants.from_dict(d["constants"]),
                   d["sweep"], d["verdicts"])

    def series(self, name: str):
        """(eps list, value list) for a named ratio series."""
        es, vs = [], []
        for entry in self.sweep:
            if name in entry["ratios"]:
                es.append(entry["eps"])
                vs.append(entry["ratios"][name])
        return es, vs


def run_sweep(cfg: RunConfig, constants=None) -> RunRecord:
    """Sweep `cfg.eps_sweep`; `constants` is the ProfileSet to reuse, or
    None to solve the profiles first."""
    cfg.validate()
    if constants is None:
        pset = run_profiles(cfg, return_fields=True)
    elif isinstance(constants, ProfileSet):
        pset = constants
    else:
        raise TypeError("run_sweep needs a ProfileSet or None as "
                        f"constants, not {type(constants).__name__}")

    sweep = [None] * len(cfg.eps_sweep)

    def work(i_eps):
        i, eps = i_eps
        try:
            return i, _sweep_entry(cfg, float(eps), pset)
        except Exception as exc:
            return i, {"eps": float(eps), "error": f"{type(exc).__name__}: {exc}",
                       "ratios": {}}

    if cfg.jobs > 1:
        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            for i, entry in pool.map(work, enumerate(cfg.eps_sweep)):
                sweep[i] = entry
    else:
        for i, entry in map(work, enumerate(cfg.eps_sweep)):
            sweep[i] = entry

    record = RunRecord(cfg.hash(), cfg.canonical(), pset.constants, sweep)
    record.verdicts = verify(record)
    return record


def _classify(eps, devs) -> str:
    """Trend of a deviation series by log-log slope (deviation vs eps)."""
    pairs = [(e, d) for e, d in zip(eps, devs)
             if d is not None and np.isfinite(d) and d > 0]
    if len(pairs) < 2:
        return "flat"
    x = np.log([e for e, _ in pairs])
    y = np.log([d for _, d in pairs])
    slope = float(np.polyfit(x, y, 1)[0])
    if slope > 0.1:
        return "converging"
    if slope < -0.1:
        return "diverging"
    return "flat"


def verify(record: RunRecord) -> dict:
    """Classify every ratio series and decide the overall verdict.

    A series passes when its deviation-from-1 trend is converging and the
    final deviation is under its guard (5% for R1, 15% for the
    asymptotic series).  A series whose deviations never rise above the
    discretization floor has converged before the sweep began; its slope
    is mesh noise and it passes regardless of the trend label.  A sweep
    with an errored entry, or with fewer than the two eps entries a
    config must have, fails under `sweep_errors`."""
    tol = {"R1": 0.05, "R2": 0.15, "R3": 0.15, "R4": 0.15, "R5": 0.15,
           "R6": 0.15}
    floor = 5e-3
    names = sorted({k for entry in record.sweep
                    for k in entry.get("ratios", {})})
    out = {}
    overall = True
    for name in names:
        base = name.split("[")[0]
        es, vs = record.series(name)
        devs = [abs(v - 1.0) if base != "R6" else v for v in vs]
        verdict = _classify(es, devs)
        final = devs[-1] if devs else float("nan")
        finite = [d for d in devs if d is not None and np.isfinite(d)]
        at_floor = bool(finite) and max(finite) < floor
        ok = np.isfinite(final) and final < tol.get(base, 0.15) \
            and (verdict == "converging" or at_floor)
        out[name] = {
            "formula": _FORMULAS.get(base, ""),
            "eps": es,
            "values": vs,
            "deviations": devs,
            "verdict": verdict,
            "final_deviation": final,
            "at_floor": at_floor,
            "pass": bool(ok),
        }
        overall = overall and ok

    # cascade consistency: the decaying-mode coefficient reconstructed
    # from the propagated amplitude and the left-junction transfer
    # constants must match the one measured by defect next to the
    # junction, within a factor 3 at the smallest direct eps
    pairs = []
    for entry in record.sweep:
        if entry.get("track") != "direct" or "b_defect" not in entry:
            continue
        bd = ScaledAmplitude.from_dict(entry["b_defect"])
        bc = ScaledAmplitude.from_dict(entry["b_cascade"])
        r = (bd / bc).to_float() if not (bd.is_zero() or bc.is_zero()) \
            else float("nan")
        pairs.append((entry["eps"], r))
    if pairs:
        final = pairs[-1][1]
        ok = bool(np.isfinite(final) and 1.0 / 3.0 < final < 3.0)
        out["cascade_B"] = {
            "formula": "B(defect at t=0.05) "
                       "/ [(phihat0 - c_hat) sqrt(Htilde(eps)) "
                       "exp(-sqrt(l1)/eps)]",
            "eps": [e for e, _ in pairs],
            "values": [r for _, r in pairs],
            "deviations": [abs(r - 1.0) for _, r in pairs],
            "verdict": "converging" if ok else "flat",
            "final_deviation": abs(final - 1.0),
            "at_floor": False,
            "pass": ok,
        }
        overall = overall and ok

    # an errored entry is missing from every series above, so the series
    # verdicts cannot see it; the sweep fails as incomplete, and so does a
    # sweep of fewer than two eps, which has no trend to classify
    errored = [e for e in record.sweep if "error" in e]
    if errored or len(record.sweep) < 2:
        out["sweep_errors"] = {
            "formula": "at least two eps entries, each solved without error",
            "eps": [e["eps"] for e in errored],
            "values": [math.nan] * len(errored),
            "deviations": [math.nan] * len(errored),
            "errors": [e["error"] for e in errored],
            "verdict": "errored",
            "final_deviation": math.nan,
            "at_floor": False,
            "pass": False,
        }
        overall = False
    out["overall_pass"] = bool(overall)
    return out


# ----------------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------------

def emit(record: RunRecord, out_dir: str,
         formats=("json", "csv", "svg")) -> list:
    """Write the record and per-series tables/plots; returns paths.  An
    unknown format raises ValueError before anything is written."""
    unknown = sorted(set(formats) - {"json", "csv", "svg"})
    if unknown:
        raise ValueError(f"unknown report format(s): {', '.join(unknown)}")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if "json" in formats:
        p = os.path.join(out_dir, "record.json")
        with open(p, "w") as fh:
            json.dump(record.to_dict(), fh, indent=1)
        paths.append(p)
    names = [k for k in record.verdicts if k != "overall_pass"]
    groups: dict = {}
    for name in names:
        groups.setdefault(name.split("[")[0], []).append(name)
    if "csv" in formats:
        for base, members in groups.items():
            p = os.path.join(out_dir, f"{base}.csv")
            with open(p, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["series", "eps", "value", "deviation"])
                for m in members:
                    v = record.verdicts[m]
                    for e, val, dev in zip(v["eps"], v["values"],
                                           v["deviations"]):
                        w.writerow([m, repr(e), repr(val), repr(dev)])
            paths.append(p)
    if "svg" in formats:
        for base, members in groups.items():
            p = os.path.join(out_dir, f"{base}.svg")
            _write_svg(p, base, {m: record.verdicts[m] for m in members})
            paths.append(p)
    return paths


def _write_svg(path: str, title: str, series: dict):
    """Log-linear convergence plot: eps on a log axis, one polyline per
    series variant."""
    W, H, ml, mr, mt, mb = 640, 420, 70, 20, 40, 50
    pts_all = [(e, v) for s in series.values()
               for e, v in zip(s["eps"], s["values"]) if np.isfinite(v)]
    if not pts_all:
        xs = [0.1, 0.3]
        ys = [0.0, 1.0]
    else:
        xs = [math.log10(e) for e, _ in pts_all]
        ys = [v for _, v in pts_all]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def X(e):
        return ml + (math.log10(e) - x0) / (x1 - x0) * (W - ml - mr)

    def Y(v):
        return H - mb - (v - y0) / (y1 - y0) * (H - mt - mb)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.0f}" y="24" text-anchor="middle" '
        f'font-size="16">{title}</text>',
        f'<line x1="{ml}" y1="{H-mb}" x2="{W-mr}" y2="{H-mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{H-mb}" stroke="black"/>',
        f'<text x="{W/2:.0f}" y="{H-12}" text-anchor="middle" '
        'font-size="12">eps (log scale)</text>',
    ]
    for j, (name, s) in enumerate(sorted(series.items())):
        pts = [(e, v) for e, v in zip(s["eps"], s["values"])
               if np.isfinite(v)]
        if not pts:
            continue
        col = colors[j % len(colors)]
        poly = " ".join(f"{X(e):.2f},{Y(v):.2f}" for e, v in pts)
        lines.append(f'<polyline points="{poly}" fill="none" '
                     f'stroke="{col}" stroke-width="1.5"/>')
        for e, v in pts:
            lines.append(f'<circle cx="{X(e):.2f}" cy="{Y(v):.2f}" r="3" '
                         f'fill="{col}"/>')
        lines.append(f'<text x="{W-mr-4}" y="{mt+14*(j+1)}" '
                     f'text-anchor="end" font-size="11" '
                     f'fill="{col}">{name}</text>')
    for v in np.linspace(y0, y1, 5):
        lines.append(f'<text x="{ml-6}" y="{Y(v)+4:.1f}" text-anchor="end" '
                     f'font-size="10">{v:.4g}</text>')
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_record(path: str) -> RunRecord:
    with open(path) as fh:
        return RunRecord.from_dict(json.load(fh))
