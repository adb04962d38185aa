"""Acceptance gate: one test per criterion, each printing a single
verdict line.  The sweep record and the profile solves are shared
session fixtures so the whole suite stays inside the runtime budget."""

import math

import numpy as np
import pytest

from dumbbell import almgren
from dumbbell import channel as ch
from dumbbell import cross_section as cs
from dumbbell import fem
from dumbbell import pipeline as pl
from dumbbell import profiles as P
from dumbbell.mesh import MeshConfig, build_profile_mesh
from dumbbell.scaled import ScaledAmplitude

MODE = cs.disk_ground_mode(3)
SL1 = MODE.sqrt_lambda1
J0_FIRST_ZERO = 2.404825557695773

# sup-error floors set by the mesh at the production level: once a series
# reaches its floor, consecutive increases inside the floor are mesh noise,
# not an asymptotic trend (values measured stable across reruns)
FLOORS = {
    "ratios": 5e-3,
    "right_vs_d0Phi": 5e-4,
    "left_vs_PhiHat": 8e-3,
    "channel_vs_psi1": 1e-3,
    "normalized_vs_Ubar": 5e-3,
}


def decreasing_or_floor(vals, floor):
    """Monotone decrease, except that increases below the floor are noise."""
    return all(b <= a or b < floor for a, b in zip(vals, vals[1:]))


def report(n, detail):
    print(f"[criterion {n:2d}] PASS: {detail}")


@pytest.fixture(scope="session")
def config(tmp_path_factory):
    return pl.RunConfig(out_dir=str(tmp_path_factory.mktemp("acceptance")))


@pytest.fixture(scope="session")
def pset(config):
    return pl.run_profiles(config, return_fields=True)


@pytest.fixture(scope="session")
def record(config, pset):
    rec = pl.run_sweep(config, pset)
    for entry in rec.sweep:
        assert "error" not in entry, (entry["eps"], entry.get("error"))
    return rec


def test_criterion_01_cross_section_oracle():
    assert MODE.sqrt_lambda1 == pytest.approx(J0_FIRST_ZERO, rel=1e-10)
    assert cs.upsilon(3) == pytest.approx(math.sqrt(2 * math.pi / 3),
                                          rel=1e-12)
    report(1, f"sqrt(lambda1) = {MODE.sqrt_lambda1:.15f}, "
              f"Upsilon3 = {cs.upsilon(3):.15f}")


def test_criterion_02_frequency_oracle():
    mesh = build_profile_mesh("HalfMinus",
                              MeshConfig(h0=0.2, levels=6, r_out=24.0))

    def kernel(x1, rho):
        return x1 / (x1 * x1 + rho * rho) ** 1.5

    def kernel_grad(x1, rho):
        r2 = x1 * x1 + rho * rho
        return np.stack([1.0 / r2 ** 1.5 - 3.0 * x1 * x1 / r2 ** 2.5,
                         -3.0 * x1 * rho / r2 ** 2.5], axis=-1)

    tr = almgren.frequency_exterior(kernel, None, 0.0, [0.2, 0.5, 1.0],
                                    mesh=mesh, gradient=kernel_grad)
    err = np.max(np.abs(tr.N - 2.0))
    assert err < 1e-3
    report(2, f"frequency of x1/|x|^3 at r in (0.2, 0.5, 1.0): "
              f"max |N - 2| = {err:.2e}")


def test_criterion_03_mode_fit_round_trip():
    eps = 0.2
    k = SL1 / eps
    ts = np.linspace(0.7, 1.0, 13)
    pts = [(t, 3.0 * math.exp(k * (t - 1)) + 5.0 * math.exp(-k * (t - 1)))
           for t in ts]
    fit = ch.fit_channel_mode(pts, eps, SL1)
    err_a = abs(fit.A.to_float() / 3.0 - 1.0)
    err_b = abs(fit.B.to_float() / 5.0 - 1.0)
    assert err_a < 1e-12 and err_b < 1e-12

    base = ScaledAmplitude.from_float(math.pi)
    up = base.scale_exp(1e4)
    assert up.exponent == base.exponent + 1e4
    assert up.mantissa == base.mantissa
    down = ScaledAmplitude.from_float(1.0).scale_exp(-1e4)
    assert down.log_abs == -1e4
    assert (up * down).exponent == base.exponent
    quarter = ScaledAmplitude.from_float(1.0).scale_exp(2.5e3)
    assert (quarter * quarter * quarter * quarter).exponent == 1e4
    report(3, f"synthetic recovery errors A {err_a:.1e}, B {err_b:.1e}; "
              f"exponent algebra exact over +-1e4")


def test_criterion_04_profile_identity_residuals(pset):
    residuals = {}

    # growth-slope identity on Phi: eliminating the r^(1-N) part between
    # radius 1 and r must return the exact slope Upsilon_3
    v1 = cs.project_sphere(pset.phi, 1.0, 1.0, +1)
    ups = cs.upsilon(3)
    for r in (2.0, 3.0):
        vr = cs.project_sphere(pset.phi, 1.0, r, +1)
        lhs = r ** 3 / (r ** 3 - 1.0) * (vr / r - v1)
        residuals[f"growth r={r:g}"] = abs(lhs / (ups - v1) - 1.0)

    # tube identity on Phi: e^(rho sqrt(l1)) phi(1 - rho) = phi(1)
    c_phi = pset.constants.c_phi
    for depth in (0.5, 1.0, 2.0):
        proj = cs.project_section(pset.phi, 1.0 - depth, 1.0, MODE)
        residuals[f"tube rho={depth:g}"] = abs(
            math.exp(SL1 * depth) * proj / c_phi - 1.0)

    # Step-1 identity on PhiHat: vhat(h)/h^(1-N) = vhat(1); the residual
    # is dominated by domain truncation, hence the wide domain here
    wide, _ = P.compute_PhiHat(P.assemble_PhiHat(
        MeshConfig(h0=0.2, levels=6, r_out=32.0), 0)())
    w1 = cs.project_sphere(wide, 0.0, 1.0, -1)
    for h in (2.0, 3.0):
        wh = cs.project_sphere(wide, 0.0, h, -1)
        residuals[f"step1 h={h:g}"] = abs(wh * h ** 2 / w1 - 1.0)

    # Step-2 identity on PhiHat: the section coefficient solves
    # a'' = lambda1 a exactly, so a(h) is pinned by the growing
    # coefficient and a(0)
    c_grow = math.exp(-4.0 * SL1) * cs.project_section(pset.phihat, 4.0,
                                                       1.0, MODE)
    a0 = cs.project_section(pset.phihat, 0.0, 1.0, MODE)
    for h in (1.0, 2.0):
        lhs = math.exp(-h * SL1) * cs.project_section(pset.phihat, h, 1.0,
                                                      MODE)
        rhs = c_grow + (a0 - c_grow) * math.exp(-2.0 * h * SL1)
        residuals[f"step2 h={h:g}"] = abs(lhs / rhs - 1.0)

    worst = max(residuals, key=residuals.get)
    assert residuals[worst] < 1e-3, residuals
    report(4, "identity residuals all < 1e-3, worst "
              f"{worst} = {residuals[worst]:.2e}")


def test_criterion_05_ubar_singularity(pset):
    phis = np.linspace(0.5 * math.pi + 1e-3, math.pi - 1e-3, 61)
    r = 0.05
    vals = pset.ubar(r * np.cos(phis), r * np.sin(phis))
    psim = -np.cos(phis) / cs.upsilon(3)
    trace_err = float(np.max(np.abs(r * r * vals - psim)) / psim.max())
    assert trace_err < 0.05

    rs = np.array([0.1, 0.2, 0.4, 0.8])
    vs = np.array([cs.project_sphere(pset.ubar, 0.0, rr, -1) for rr in rs])
    A = np.stack([rs, rs ** -2.0], axis=1)
    (_, b), *_ = np.linalg.lstsq(A, vs, rcond=None)
    assert b == pytest.approx(1.0, rel=0.01)
    report(5, f"r^2 Ubar vs Psi- at r = 0.05: {trace_err:.2e} of max; "
              f"singular coefficient = {b:.6f}")


def test_criterion_06_eigenvalue_convergence(record):
    eps, r1 = record.series("R1")
    devs = [abs(v - 1.0) for v in r1]
    # the reference lambda_k0 is computed on the same dumbbell mesh with
    # the left part clamped, a nested subspace, so R1 approaches 1 from
    # below; the deviation must shrink strictly
    assert all(v < 1.0 for v in r1)
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05
    report(6, f"|R1 - 1| strictly decreasing "
              f"{devs[0]:.2e} -> {devs[-1]:.2e} (R1 < 1, nested spaces)")


def test_criterion_07_channel_frequency_bound(record):
    checked = []
    for entry in record.sweep:
        if entry["eps"] <= 0.2:
            assert entry["n_eps_half"] <= 1.05 * SL1, entry["eps"]
            checked.append((entry["eps"], entry["n_eps_half"]))
    assert checked
    report(7, "N_eps(0.5) <= 1.05 sqrt(lambda1) at " + ", ".join(
        f"eps={e:g} ({v:.4f})" for e, v in checked))


def test_criterion_08_normalization_asymptotics(record):
    floor = FLOORS["ratios"]
    finals = {}
    for name in record.verdicts:
        if name.split("[")[0] not in ("R2", "R3", "R5"):
            continue
        devs = record.verdicts[name]["deviations"]
        assert decreasing_or_floor(devs, floor), (name, devs)
        assert devs[-1] < 0.15, (name, devs[-1])
        finals[name] = record.verdicts[name]["values"][-1]
    r5 = [v for n, v in finals.items() if n.startswith("R5")]
    assert len(r5) >= 2
    spread = max(r5) / min(r5) - 1.0
    assert spread < 0.02
    report(8, f"all |R2-1|, |R3-1|, |R5-1| under the floor rule with final "
              f"< 15%; R5 agreement across ktilde at smallest eps: "
              f"{spread:.2e}")


def test_criterion_09_main_theorem(record):
    devs = record.verdicts["R6"]["deviations"]
    assert decreasing_or_floor(devs, FLOORS["ratios"])
    assert devs[-1] < 0.15

    series = {"right_vs_d0Phi": [], "left_vs_PhiHat": [],
              "channel_vs_psi1": [], "normalized_vs_Ubar": []}
    for entry in record.sweep:
        comp = entry["comparisons"]
        for name in ("right_vs_d0Phi", "left_vs_PhiHat", "channel_vs_psi1"):
            series[name].append(comp[name])
        series["normalized_vs_Ubar"].append(
            max(comp["normalized_vs_Ubar"].values()))
    for name, vals in series.items():
        assert decreasing_or_floor(vals, FLOORS[name]), (name, vals)
    report(9, f"R6 {devs[0]:.3f} -> {devs[-1]:.3f}; all four blow-up "
              "comparisons decreasing up to their mesh floors")


def test_criterion_10_smallness_claims(record):
    con = record.constants
    x0 = 0.5
    growth_logs, a_devs = [], []
    for entry in record.sweep:
        eps = entry["eps"]
        k = SL1 / eps
        bd = ScaledAmplitude.from_dict(entry["b_defect"])
        scaled_b = bd.scale_exp(2.0 * SL1 * (1.0 - x0) / eps) \
            / ScaledAmplitude.from_float(eps)
        growth_logs.append(scaled_b.log_abs)  # log of |scaled_b|
        A = ScaledAmplitude.from_dict(entry["fit"]["A"])
        a_devs.append(abs(A.to_float() / (eps * con.d0 * con.c_phi) - 1.0))
    assert all(b < a for a, b in zip(growth_logs, growth_logs[1:]))
    assert decreasing_or_floor(a_devs, FLOORS["ratios"])

    # the defect estimate of B is reproduced by an independent
    # derivative-form estimate
    worst = 0.0
    for entry in record.sweep:
        eps = entry["eps"]
        k = SL1 / eps
        # derivative-form fit at the junction probes, with the exact
        # central-difference factor sinh(kh)/(kh) of the mode model
        probes = {float(t): v for t, v in entry["junction_probes"].items()}
        t, h = 0.05, 0.03
        s = math.sinh(k * h) / (k * h)
        ydot = (probes[0.08] - probes[0.02]) / (2.0 * h)
        A = ScaledAmplitude.from_dict(entry["fit"]["A"])
        grow_dot = k * s * A.scale_exp(k * (t - 1.0)).to_float()
        b_deriv = (grow_dot - ydot) / (k * s) * math.exp(k * (t - 1.0))
        b_defect = ScaledAmplitude.from_dict(entry["b_defect"]).to_float()
        # the fit uncertainty is the scatter of the single-probe defect
        # estimates, and the derivative form reweights those same probes
        singles = [(probes[tp] - A.scale_exp(k * (tp - 1.0)).to_float())
                   * math.exp(k * (tp - 1.0)) for tp in sorted(probes)]
        scatter = (max(singles) - min(singles)) / abs(b_defect)
        bound = 3.0 * (scatter + 1e-12)
        dev = abs(b_deriv / b_defect - 1.0)
        assert dev < bound, (eps, dev, bound)
        worst = max(worst, dev)
    report(10, f"|B| e^(2 sqrt(l1)(1-x0)/eps)/eps strictly decreasing; "
               f"|A/(eps d0 c_Phi) - 1| floor-monotone; derivative-form B "
               f"within residual bound (worst {worst:.2e})")


def test_sweep_verdicts_pass(record):
    # the verdicts `dumbbell sweep` prints and `dumbbell verify` re-checks,
    # on the default sweep rather than a synthetic record
    failed = [name for name, v in record.verdicts.items()
              if name != "overall_pass" and not v["pass"]]
    assert record.verdicts["overall_pass"], failed
    print(f"[overall] PASS: {len(record.verdicts) - 1} series pass verify")
