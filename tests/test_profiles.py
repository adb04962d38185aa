import math
import warnings

import numpy as np
import pytest

from dumbbell import cross_section as cs
from dumbbell import fem
from dumbbell import profiles as P
from dumbbell.mesh import MeshConfig

CFG = MeshConfig(h0=0.2, levels=6, r_out=12.0, tube_length=10.0)
MODE = cs.disk_ground_mode(3)
UPS = cs.upsilon(3)


@pytest.fixture(scope="module")
def u0_pack():
    return P.compute_u0(CFG, level=0, order=2)


@pytest.fixture(scope="module")
def phi_pack():
    return P.compute_Phi(CFG, level=0, order=2)


@pytest.fixture(scope="module")
def phihat_pack():
    return P.compute_PhiHat(CFG, level=0, order=2)


@pytest.fixture(scope="module")
def ubar_pack(u0_pack):
    _, lam, _ = u0_pack
    return P.compute_Ubar(CFG, fem.WeightModel(), lam, level=0, order=2)


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
        sol, lam, d0 = u0_pack
        assert lam > 0
        assert sol.metadata["eigen_residual"] < 1e-9

    def test_d0_is_radius_independent(self, u0_pack):
        sol, _, d0 = u0_pack
        # the sphere projection is exactly linear in r inside the
        # weight-free ball, so the three samples must agree tightly
        assert d0 > 0
        assert sol.metadata["d0_spread"] < 1e-8

    def test_positive_orientation(self, u0_pack):
        sol, _, _ = u0_pack
        assert sol(5.5, 0.5) > 0

    def test_eigenvalue_decreases_with_domain(self, u0_pack):
        _, lam12, _ = u0_pack
        _, lam16, _ = P.compute_u0(
            MeshConfig(h0=0.2, levels=6, r_out=16.0), level=0, order=2)
        assert lam16 < lam12

    def test_rejects_dead_weight(self):
        with pytest.raises(ValueError):
            P.compute_u0(CFG, weight=fem.WeightModel(0.0, 0.5))


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
        sol, c_phi = phi_pack
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
        _, c0 = phi_pack
        _, c1 = P.compute_Phi(CFG, level=1, order=2)
        assert c1 == pytest.approx(c0, rel=1e-2)

    def test_outside_evaluation_is_nan(self, phi_pack):
        sol, _ = phi_pack
        assert math.isnan(sol(1.0 + CFG.r_out + 1.0, 0.5))


def test_harmonic_profiles_assemble_stiffness_once(monkeypatch):
    """The lifted solve forms its load from the stiffness matrix it
    factors, so each harmonic profile assembles exactly one."""
    calls = []
    assemble = fem.assemble_stiffness
    monkeypatch.setattr(fem, "assemble_stiffness",
                        lambda disc: calls.append(disc) or assemble(disc))
    cfg = MeshConfig(h0=0.5, levels=3, r_out=8.0, tube_length=8.0)
    P.compute_Phi(cfg, order=1)
    assert len(calls) == 1
    P.compute_PhiHat(cfg, order=1)
    assert len(calls) == 2


class TestPhiHat:
    def test_growing_coefficient_is_unity(self, phihat_pack):
        """The inflow condition pins the growing tube-mode coefficient to 1;
        reading it back from a deep section is an end-to-end consistency
        check of lift, solve and projection."""
        sol, _, _ = phihat_pack
        k = MODE.sqrt_lambda1
        c_grow = math.exp(-4.0 * k) * cs.project_section(sol, 4.0, 1.0, MODE)
        assert c_grow == pytest.approx(1.0, rel=1e-3)

    def test_two_mode_section_identity(self, phihat_pack):
        """The ground-mode section coefficient solves a''= lambda1 a exactly
        in the tube, so a(h) is determined by the growing coefficient and
        a(0) alone."""
        sol, _, _ = phihat_pack
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
        sol, _, _ = P.compute_PhiHat(cfg, level=0, order=2)
        v1 = cs.project_sphere(sol, 0.0, 1.0, -1)
        for h in (1.5, 2.0, 3.0):
            vh = cs.project_sphere(sol, 0.0, h, -1)
            assert vh * h ** 2 == pytest.approx(v1, rel=1e-3)

    def test_dominates_the_pure_mode(self, phihat_pack):
        sol, _, _ = phihat_pack
        k = MODE.sqrt_lambda1
        xs = np.linspace(0.5, 8.0, 16)
        rho = np.full_like(xs, 0.4)
        pure = np.exp(k * xs) * MODE.psi1(rho)
        assert np.all(sol(xs, rho) >= pure * (1.0 - 1e-3))

    def test_section_mass_is_one_mode_dominated(self, phihat_pack):
        sol, _, m = phihat_pack
        a1 = cs.project_section(sol, 1.0, 1.0, MODE)
        assert m == pytest.approx(a1 ** 2, rel=5e-3)

    def test_positive_junction_projection(self, phihat_pack):
        _, c_phihat, _ = phihat_pack
        assert c_phihat > 0


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
        sol, _ = P.compute_Ubar(CFG, fem.WeightModel.zero(), 1.3,
                                level=0, order=2)
        for r in (0.5, 1.5):
            x1, rho = -r / math.sqrt(2), r / math.sqrt(2)
            exact = -x1 / (UPS * r ** 3)
            # residual ~ r/r_out^3 from the Dirichlet truncation at r_out
            assert sol(x1, rho) == pytest.approx(exact, rel=5e-3)

    def test_no_weight_on_d_minus_skips_the_gap_guard(self):
        """A weight that vanishes on D- leaves no weighted spectrum there:
        the guard has no gap to check and computes no NaN, and the solve
        is the zero-weight one."""
        cfg = MeshConfig(h0=0.35, r_out=8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sol, norms = P.compute_Ubar(cfg, fem.WeightModel(1.0, 0.0), 1.3,
                                        level=0, order=2)
        ref, _ = P.compute_Ubar(cfg, fem.WeightModel.zero(), 1.3,
                                level=0, order=2)
        assert np.allclose(sol.field.values, ref.field.values,
                           rtol=1e-12, atol=0)
        assert all(np.isfinite(v) for v in norms.values())

    def test_surface_norms_scale_like_kernel(self, ubar_pack):
        _, norms = ubar_pack
        # near the origin Ubar ~ r^-2 Psi-, whose half-sphere mass is
        # exactly k^-2 (Psi- is surface-normalized)
        assert 0.5 ** 2 * norms[0.5] == pytest.approx(1.0, rel=2e-2)
        assert sorted(norms) == [0.5, 1.0, 1.5]
        assert norms[0.5] > norms[1.0] > norms[1.5]

    def test_spectral_gap_guard(self, u0_pack):
        # 5 lam_k0 lies above lambda_1(D-) = 2 lam_k0: a negative pivot
        _, lam, _ = u0_pack
        with pytest.raises(ValueError):
            P.compute_Ubar(CFG, fem.WeightModel(), 5.0 * lam,
                           level=0, order=2)

    def test_spectral_gap_guard_inside_the_margin(self, u0_pack,
                                                  monkeypatch):
        # 0.8 lambda_1(D-) < 1.8 lam_k0 < lambda_1(D-): the operator is SPD,
        # so only the guard eigenvalue, by inverse iteration on the solve's
        # factor and without ARPACK, can catch it
        def unreachable(*args, **kwargs):
            raise AssertionError("Ubar's guard runs no ARPACK")

        monkeypatch.setattr(fem.spla, "eigsh", unreachable)
        _, lam, _ = u0_pack
        with pytest.raises(ValueError, match="too close"):
            P.compute_Ubar(CFG, fem.WeightModel(), 1.8 * lam,
                           level=0, order=2)

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
