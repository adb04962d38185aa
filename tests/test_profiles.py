import math
import warnings

import numpy as np
import pytest

from dumbbell import cross_section as cs
from dumbbell import fem
from dumbbell import profiles as P
from dumbbell.mesh import MeshConfig, build_profile_mesh
from dumbbell.pipeline import RunConfig, _KTILDE_LIST

CFG = MeshConfig(h0=0.2, levels=6, r_out=12.0)
MODE = cs.disk_ground_mode(3)
UPS = cs.upsilon(3)


@pytest.fixture(scope="module")
def u0_pack():
    return P.compute_u0(CFG, 0, fem.WeightModel())


@pytest.fixture(scope="module")
def phi_pack():
    return P.compute_Phi(P.assemble_Phi(CFG, 0)())


@pytest.fixture(scope="module")
def phihat_pack():
    return P.compute_PhiHat(P.assemble_PhiHat(CFG, 0)())


@pytest.fixture(scope="module")
def ubar_pack(u0_pack):
    return P.compute_Ubar(P.assemble_Ubar(CFG, fem.WeightModel(), 0,
                                          u0_pack[1]["lam_k0"])(),
                          _KTILDE_LIST)


class TestSmoothstep:
    def test_endpoints_and_range(self):
        assert P.smoothstep(0.9, 1.0, 2.0) == 0.0
        assert P.smoothstep(2.3, 1.0, 2.0) == 1.0
        s = P.smoothstep(np.linspace(0.5, 2.5, 101), 1.0, 2.0)
        assert np.all(np.diff(s) >= 0)
        assert s.min() == 0.0 and s.max() == 1.0

    def test_derivatives_by_finite_differences(self):
        r = np.linspace(1.05, 1.95, 17)
        h = 1e-5
        d1_fd = (P.smoothstep(r + h, 1, 2) - P.smoothstep(r - h, 1, 2)) / (2 * h)
        assert np.allclose(P.smoothstep_d1(r, 1, 2), d1_fd, atol=1e-8)
        d2_fd = (P.smoothstep_d1(r + h, 1, 2) - P.smoothstep_d1(r - h, 1, 2)) / (2 * h)
        assert np.allclose(P.smoothstep_d2(r, 1, 2), d2_fd, atol=1e-6)

    def test_c2_at_the_ends(self):
        for r in (1.0, 2.0):
            assert P.smoothstep_d1(r, 1, 2) == pytest.approx(0.0, abs=1e-15)
            assert P.smoothstep_d2(r, 1, 2) == pytest.approx(0.0, abs=1e-12)


class TestU0:
    def test_eigenvalue_positive_and_resolved(self, u0_pack):
        sol, found = u0_pack
        assert found["lam_k0"] > 0
        assert sol.field.residual < 1e-9

    def test_d0_is_radius_independent(self, u0_pack):
        _, found = u0_pack
        # the sphere projection is exactly linear in r inside the
        # weight-free ball, so the three samples must agree tightly
        assert found["d0"] > 0
        assert found["d0_spread"] < 1e-8

    def test_positive_orientation(self, u0_pack):
        sol, _ = u0_pack
        assert sol(5.5, 0.5) > 0

    def test_eigenvalue_decreases_with_domain(self, u0_pack):
        lam12 = u0_pack[1]["lam_k0"]
        _, found = P.compute_u0(MeshConfig(h0=0.2, levels=6, r_out=16.0), 0,
                                fem.WeightModel())
        assert found["lam_k0"] < lam12

    def test_rejects_dead_weight(self):
        with pytest.raises(ValueError):
            P.compute_u0(CFG, 0, fem.WeightModel(0.0, 0.5))


class TestPhi:
    def test_solve_residual(self, phi_pack):
        sol, _ = phi_pack
        assert sol.field.residual < 1e-10

    def test_linear_growth_projection(self, phi_pack):
        """Sphere-mode projection v(r) = A r + B r^(1-N) about the junction:
        eliminating B between radii must return the exact slope Upsilon_N."""
        sol, _ = phi_pack
        v1 = cs.project_sphere(sol, 1.0, 1.0, +1)
        for r in (2.0, 3.0):
            vr = cs.project_sphere(sol, 1.0, r, +1)
            lhs = r ** 3 / (r ** 3 - 1.0) * (vr / r - v1)
            assert lhs == pytest.approx(UPS - v1, rel=1.5e-3)

    def test_tube_decay_is_pure_ground_mode(self, phi_pack):
        sol, found = phi_pack
        c_phi = found["c_phi"]
        k = MODE.sqrt_lambda1
        for depth in (0.5, 1.0, 2.0):
            proj = cs.project_section(sol, 1.0 - depth, 1.0, MODE)
            assert math.exp(k * depth) * proj == pytest.approx(c_phi, rel=1e-3)

    def test_far_field_matches_linear_coordinate(self, phi_pack):
        sol, _ = phi_pack
        # at |x - e1| = 8 the r^(1-N) correction is ~ v(1)/(Ups*64) ~ 0.5%
        x1, rho = 1.0 + 8.0 / math.sqrt(2), 8.0 / math.sqrt(2)
        assert sol(x1, rho) == pytest.approx(x1 - 1.0, rel=2e-2)

    def test_positive_in_half_space(self, phi_pack):
        sol, _ = phi_pack
        xs = np.linspace(1.3, 6.0, 9)
        assert np.all(sol(xs, np.full_like(xs, 0.7)) > 0)

    def test_c_phi_stable_under_refinement(self, phi_pack):
        _, found = P.compute_Phi(P.assemble_Phi(CFG, 1)())
        assert found["c_phi"] == pytest.approx(phi_pack[1]["c_phi"], rel=1e-2)

    def test_outside_evaluation_is_nan(self, phi_pack):
        sol, _ = phi_pack
        assert math.isnan(sol(1.0 + CFG.r_out + 1.0, 0.5))


def test_u0_steps_reproduce_the_long_iteration(monkeypatch):
    """compute_u0's 12 steps on the default u0 system give the pair of 40
    steps to rounding; 8 steps do not, so the choice is not slack."""
    seen = []
    eigen = fem.eigen_smallest
    monkeypatch.setattr(fem, "eigen_smallest", lambda system, steps:
                        seen.append((system, steps)) or eigen(system, steps))
    cfg = RunConfig()
    P.compute_u0(cfg.mesh_config(), cfg.profile_level, cfg.weight())
    [(system, steps)] = seen
    assert steps == 12

    def pair(steps):
        return eigen(system, steps)

    ref = pair(40)
    scale = np.max(np.abs(ref.field.values))
    for steps, close in ((12, True), (8, False)):
        got = pair(steps)
        err = np.max(np.abs(got.field.values - ref.field.values)) / scale
        assert (abs(got.lam / ref.lam - 1.0) <= 1e-15
                and err <= 1e-12) == close, (steps, err)


def test_harmonic_profiles_assemble_stiffness_once(monkeypatch):
    """The lifted solve forms its load from the stiffness matrix it
    factors, so each harmonic profile assembles exactly one."""
    calls = []
    assemble = fem.assemble_stiffness
    monkeypatch.setattr(fem, "assemble_stiffness",
                        lambda disc: calls.append(disc) or assemble(disc))
    cfg = MeshConfig(h0=0.5, levels=3, r_out=8.0)
    P.assemble_Phi(cfg, 0)()
    assert len(calls) == 1
    P.assemble_PhiHat(cfg, 0)()
    assert len(calls) == 2


class TestPhiHat:
    def test_growing_coefficient_is_unity(self, phihat_pack):
        """The inflow condition pins the growing tube-mode coefficient to 1;
        reading it back from a deep section is an end-to-end consistency
        check of lift, solve and projection."""
        sol, _ = phihat_pack
        k = MODE.sqrt_lambda1
        c_grow = math.exp(-4.0 * k) * cs.project_section(sol, 4.0, 1.0, MODE)
        assert c_grow == pytest.approx(1.0, rel=1e-3)

    def test_two_mode_section_identity(self, phihat_pack):
        """The ground-mode section coefficient solves a''= lambda1 a exactly
        in the tube, so a(h) is determined by the growing coefficient and
        a(0) alone."""
        sol, _ = phihat_pack
        k = MODE.sqrt_lambda1
        c_grow = math.exp(-4.0 * k) * cs.project_section(sol, 4.0, 1.0, MODE)
        a0 = cs.project_section(sol, 0.0, 1.0, MODE)
        for h in (1.0, 2.0):
            lhs = math.exp(-h * k) * cs.project_section(sol, h, 1.0, MODE)
            rhs = c_grow + (a0 - c_grow) * math.exp(-2.0 * h * k)
            assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_scale_invariant_far_projection(self):
        """v(h) = projection onto Psi- at radius h about the origin decays
        exactly like h^(1-N); the residual is set by domain truncation, so
        a wide domain is used here."""
        cfg = MeshConfig(h0=0.2, levels=6, r_out=32.0)
        sol, _ = P.compute_PhiHat(P.assemble_PhiHat(cfg, 0)())
        v1 = cs.project_sphere(sol, 0.0, 1.0, -1)
        for h in (1.5, 2.0, 3.0):
            vh = cs.project_sphere(sol, 0.0, h, -1)
            assert vh * h ** 2 == pytest.approx(v1, rel=1e-3)

    def test_dominates_the_pure_mode(self, phihat_pack):
        sol, _ = phihat_pack
        k = MODE.sqrt_lambda1
        xs = np.linspace(0.5, 8.0, 16)
        rho = np.full_like(xs, 0.4)
        pure = np.exp(k * xs) * MODE.psi1(rho)
        assert np.all(sol(xs, rho) >= pure * (1.0 - 1e-3))

    def test_section_mass_is_one_mode_dominated(self, phihat_pack):
        sol, found = phihat_pack
        a1 = cs.project_section(sol, 1.0, 1.0, MODE)
        assert found["m_phihat"] == pytest.approx(a1 ** 2, rel=5e-3)

    def test_positive_junction_projection(self, phihat_pack):
        assert phihat_pack[1]["c_phihat"] > 0


class TestUbar:
    def test_remainder_solve_residual(self, ubar_pack):
        # relative residual of (K - lam_k0 M_p) w = load on the free nodes
        sol, _ = ubar_pack
        assert sol.field.residual < 1e-10

    def test_singularity_trace(self, ubar_pack):
        """r^2 Ubar restricted to a small half-sphere reproduces the sphere
        mode Psi-."""
        sol, _ = ubar_pack
        phis = np.linspace(0.5 * math.pi + 1e-3, math.pi - 1e-3, 41)
        r = 0.05
        vals = sol(r * np.cos(phis), r * np.sin(phis))
        psim = -np.cos(phis) / UPS
        assert np.max(np.abs(r * r * vals - psim)) < 1e-3 * psim.max()

    def test_singular_coefficient_exactly_one(self, ubar_pack):
        sol, _ = ubar_pack
        rs = np.array([0.1, 0.2, 0.4, 0.8])
        vs = np.array([cs.project_sphere(sol, 0.0, r, -1) for r in rs])
        A = np.stack([rs, rs ** -2.0], axis=1)
        (a, b), *_ = np.linalg.lstsq(A, vs, rcond=None)
        assert b == pytest.approx(1.0, rel=1e-3)

    def test_zero_weight_reduces_to_kernel(self):
        """With p = 0 the exact solution is the harmonic kernel itself (up
        to the small domain-truncation correction)."""
        sol, _ = P.compute_Ubar(
            P.assemble_Ubar(CFG, fem.WeightModel(0.0, 0.0), 0, 1.3)(),
            _KTILDE_LIST)
        for r in (0.5, 1.5):
            x1, rho = -r / math.sqrt(2), r / math.sqrt(2)
            exact = -x1 / (UPS * r ** 3)
            # residual ~ r/r_out^3 from the Dirichlet truncation at r_out
            assert sol(x1, rho) == pytest.approx(exact, rel=5e-3)

    def test_no_weight_on_d_minus_skips_the_gap_guard(self):
        """A weight that vanishes on D- leaves no weighted spectrum there:
        the solve computes no NaN and is the zero-weight one."""
        cfg = MeshConfig(h0=0.35, r_out=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol, found = P.compute_Ubar(
                P.assemble_Ubar(cfg, fem.WeightModel(1.0, 0.0), 0, 1.3)(),
                _KTILDE_LIST)
        ref, _ = P.compute_Ubar(
            P.assemble_Ubar(cfg, fem.WeightModel(0.0, 0.0), 0, 1.3)(),
            _KTILDE_LIST)
        assert np.allclose(sol.field.values, ref.field.values,
                           rtol=1e-12, atol=0)
        assert all(np.isfinite(v) for v in found["norm_gamma"].values())

    def test_surface_norms_scale_like_kernel(self, ubar_pack):
        norms = ubar_pack[1]["norm_gamma"]
        # near the origin Ubar ~ r^-2 Psi-, whose half-sphere mass is
        # exactly k^-2 (Psi- is surface-normalized)
        assert 0.5 ** 2 * norms[0.5] == pytest.approx(1.0, rel=2e-2)
        assert sorted(norms) == [0.5, 1.0, 1.5]
        assert norms[0.5] > norms[1.0] > norms[1.5]

    def test_spectral_gap_guard(self, u0_pack):
        # 5 lam_k0 lies above lambda_1(D-) = 2 lam_k0: a negative pivot
        lam = u0_pack[1]["lam_k0"]
        solve = P.assemble_Ubar(CFG, fem.WeightModel(), 0, 5.0 * lam)
        with pytest.raises(ValueError, match="not below the smallest"):
            solve()

    def test_factor_is_freed_before_the_read_outs(self, u0_pack,
                                                  monkeypatch):
        # the inertia read makes the factor keep L and U as CSC copies;
        # the factor goes right after the solve, before the three
        # half-sphere read-outs
        events = []
        factor = fem.factor

        class Tracked:
            def __init__(self, A):
                self._lu = factor(A)

            def __getattr__(self, name):
                return getattr(self._lu, name)

            def __del__(self):
                events.append("freed")

        mass = cs.half_sphere_mass
        monkeypatch.setattr(fem, "factor", Tracked)
        monkeypatch.setattr(cs, "half_sphere_mass",
                            lambda *a: events.append("read") or mass(*a))
        P.compute_Ubar(P.assemble_Ubar(CFG, fem.WeightModel(), 0,
                                       u0_pack[1]["lam_k0"])(),
                       _KTILDE_LIST)
        assert events == ["freed", "read", "read", "read"]

    def test_left_spectrum_mirrors_the_right(self, u0_pack):
        """RunConfig.validate's weight rule rests on D- mirroring D+:
        lambda_1(D-) = lam_k0 a_plus/a_minus, so the shift keeps its
        margin without an eigen solve on D-."""
        lam = u0_pack[1]["lam_k0"]
        for a_minus in (0.5, 0.8):
            mesh = build_profile_mesh("HalfMinus", CFG)
            system = fem.assemble(fem.Discretization(mesh),
                                  fem.WeightModel(1.0, a_minus))
            lam_minus = fem.eigen_smallest(system, 12).lam
            # 2.0e-7 off here: the mirrored mesh splits its ring quads on
            # other diagonals, so the two discretizations differ slightly
            assert lam_minus * a_minus == pytest.approx(lam, rel=1e-6)

    def test_remainder_is_smooth_at_origin(self, ubar_pack):
        """All the singularity lives in the carried part: the finite
        element remainder stays bounded near the origin."""
        sol, _ = ubar_pack
        r = 0.02
        vals = sol.field.evaluate(-r / math.sqrt(2), r / math.sqrt(2))
        assert abs(vals) < 10.0


class TestProfileContainer:
    def test_scalar_and_array_calls(self, phi_pack):
        sol, _ = phi_pack
        s = sol(3.0, 0.5)
        a = sol(np.array([3.0, 4.0]), np.array([0.5, 0.5]))
        assert float(s) == pytest.approx(a[0])
        assert a.shape == (2,)

    def test_remainder_energy_finite(self, phi_pack, ubar_pack):
        for pack in (phi_pack, ubar_pack):
            fld = pack[0].field
            v = fld.values
            e = float(v @ (fem.assemble_stiffness(fld.disc) @ v))
            assert np.isfinite(e) and e > 0
