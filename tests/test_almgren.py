import math

import numpy as np
import pytest

from dumbbell import almgren as A
from dumbbell import cross_section as cs
from dumbbell import fem
from dumbbell import profiles as P
from dumbbell.mesh import (MeshConfig, build_dumbbell_mesh, build_profile_mesh,
                           refine)
from dumbbell.pipeline import RunConfig, _KTILDE_LIST
from lanczos_oracle import lanczos_pairs
from masked_energy_oracle import masked_energy
from sequential_entry_oracle import sequential_eigenpair

MODE = cs.disk_ground_mode(3)
SL1 = MODE.sqrt_lambda1


def kernel(x1, rho):
    r2 = x1 * x1 + rho * rho
    return x1 / r2 ** 1.5


def kernel_grad(x1, rho):
    r2 = x1 * x1 + rho * rho
    gx = 1.0 / r2 ** 1.5 - 3.0 * x1 * x1 / r2 ** 2.5
    gr = -3.0 * x1 * rho / r2 ** 2.5
    return np.stack([gx, gr], axis=-1)


@pytest.fixture(scope="module")
def halfminus_wide():
    return build_profile_mesh("HalfMinus",
                              MeshConfig(h0=0.2, levels=6, r_out=24.0))


@pytest.fixture(scope="module")
def ubar_pack():
    cfg = MeshConfig(h0=0.2, levels=6, r_out=12.0)
    lam = P.compute_u0(cfg, 0, fem.WeightModel())[1]["lam_k0"]
    ub, _ = P.compute_Ubar(P.assemble_Ubar(cfg, fem.WeightModel(), 0, lam)(),
                           _KTILDE_LIST)
    return ub, lam


@pytest.fixture(scope="module")
def dumbbell_pair():
    mesh = build_dumbbell_mesh(MeshConfig(h0=0.15, eps=0.2, levels=8,
                                          r_out=12.0))
    disc = fem.Discretization(mesh)
    system = fem.assemble(disc, fem.WeightModel())
    pair = lanczos_pairs(system, tol=1e-12)[0]
    pair = fem.refine_eigenpair(system.shifted(0.99 * pair.lam),
                                pair.field.values[system.free], 3)
    return pair


class TestFrequencyExterior:
    def test_dipole_kernel_is_two(self, halfminus_wide):
        tr = A.frequency_exterior(kernel, None, 0.0, [0.2, 0.5, 1.0],
                                  mesh=halfminus_wide, gradient=kernel_grad)
        assert np.all(np.abs(tr.N - 2.0) < 1e-3)

    def test_scaling_invariance_exact(self, halfminus_wide):
        c = 4.0  # power of two: both D and H scale exactly by c^2
        scaled = lambda x1, rho: c * kernel(x1, rho)
        sgrad = lambda x1, rho: c * kernel_grad(x1, rho)
        t1 = A.frequency_exterior(kernel, None, 0.0, [0.3, 0.9],
                                  mesh=halfminus_wide, gradient=kernel_grad)
        t2 = A.frequency_exterior(scaled, None, 0.0, [0.3, 0.9],
                                  mesh=halfminus_wide, gradient=sgrad)
        assert np.array_equal(t1.N, t2.N)

    def test_ubar_frequency_at_origin(self, ubar_pack):
        ub, lam = ubar_pack
        tr = A.frequency_exterior(ub, fem.WeightModel(), lam, [0.05])
        assert abs(tr.N[0] - 2.0) < 0.05

    def test_poincare_lower_bound(self):
        mesh = build_profile_mesh("HalfMinus", MeshConfig(h0=0.2, levels=4))
        disc = fem.Discretization(mesh)
        v = fem.assemble(disc, fem.WeightModel(0.0, 0.0)).solve(
            fem.assemble_load(disc, lambda x1, rho: np.ones_like(x1)))
        tr = A.frequency_exterior(v, None, 0.0, [0.5, 1.0, 2.0])
        assert np.all(tr.N >= 2.0 * (1.0 - 1e-3))

    def test_empty_exterior_rejected(self, halfminus_wide):
        with pytest.raises(ValueError):
            A.frequency_exterior(kernel, None, 0.0, [25.0],
                                 mesh=halfminus_wide, gradient=kernel_grad)
        with pytest.raises(ValueError):
            A.frequency_exterior(kernel, None, 0.0, [-0.1, 0.5],
                                 mesh=halfminus_wide, gradient=kernel_grad)

    def test_analytic_field_needs_mesh(self):
        with pytest.raises(ValueError):
            A.frequency_exterior(kernel, None, 0.0, [0.5])


class TestFrequencyChannel:
    def test_pure_growing_mode(self):
        eps = 0.2
        k = SL1 / eps
        mesh = build_dumbbell_mesh(MeshConfig(h0=0.15, eps=eps, levels=8,
                                              r_out=12.0))

        def u(x1, rho):
            inside = rho <= eps
            return np.where(inside,
                            np.exp(k * (x1 - 1.0))
                            * MODE.psi1(np.minimum(rho / eps, 1.0)), 0.0)

        def du(x1, rho):
            inside = rho <= eps
            e = np.where(inside, np.exp(k * (x1 - 1.0)), 0.0)
            s = np.minimum(rho / eps, 1.0)
            return np.stack([k * e * MODE.psi1(s),
                             e * MODE.psi1_deriv(s) / eps], axis=-1)

        # section masses are exact; the residual is deg-6 quadrature of
        # e^(2kx) on tube cells with k*h ~ 1
        tr = A.frequency_channel(u, eps, [0.4, 0.6], mesh=mesh, gradient=du)
        assert np.all(np.abs(tr.N - SL1) < 1e-3)

    def test_linear_field_energy_oracle(self):
        # u = x1 has |grad u| = 1, so the energy over x1 < t is omega times
        # int rho: exact per cell (area times centroid rho) on the left
        # body, t eps^2 / 2 on the tube
        eps = 0.2
        mesh = build_dumbbell_mesh(MeshConfig(h0=0.15, eps=eps, levels=8,
                                              r_out=12.0))
        p = mesh.vertices[mesh.triangles]
        left = p[..., 0].mean(axis=1) < 0.0
        body = np.sum(np.abs(mesh.signed_areas()[left])
                      * p[left][..., 1].mean(axis=1))
        omega = cs.sphere_surface_area(1)

        def u(x1, rho):
            return x1 + 0.0 * rho

        def du(x1, rho):
            return np.stack([np.ones_like(x1), np.zeros_like(x1)], axis=-1)

        xs = np.unique(mesh.vertices[:, 0])
        on_line = float(xs[np.argmin(np.abs(xs - 0.5))])
        for t, tol in ((on_line, 1e-12), (0.4, 1e-8)):
            tr = A.frequency_channel(u, eps, [t], mesh=mesh, gradient=du)
            ref = omega * (body + t * eps ** 2 / 2)
            assert tr.D[0] == pytest.approx(ref, rel=tol)

    def test_discrete_bound_and_log_derivative(self, dumbbell_pair):
        from dumbbell import channel as ch
        eps = 0.2
        pair = dumbbell_pair
        tr = A.frequency_channel(pair.field, eps, [0.5],
                                 weight=fem.WeightModel(), lam=pair.lam)
        assert tr.N[0] <= 1.05 * SL1
        # Htilde'/Htilde = (2/eps) N_eps, differenced in log space; the
        # residual is set by tube resolution (k*h ~ 1 on this mesh)
        h = 0.02
        lp = math.log(ch.htilde(pair.field.evaluate, 0.5 + h, eps)[0])
        lm = math.log(ch.htilde(pair.field.evaluate, 0.5 - h, eps)[0])
        assert (lp - lm) / (2 * h) == pytest.approx(
            2.0 / eps * tr.N[0], rel=2e-2)

    def test_section_range_checked(self, dumbbell_pair):
        with pytest.raises(ValueError):
            A.frequency_channel(dumbbell_pair.field, 0.2, [1.2])


class TestMaskedRule:
    def test_edge_on_cut_is_not_subdivided(self):
        # a triangle with an edge on the section x1 = t lies on one side
        # of it: one piece with the plain Dunavant weights, or none
        left = np.array([[[0.5, 0.0], [0.5, 1.0], [0.0, 0.5]]])
        cells, bary, fracs = A._masked_rule(left, lambda x1, rho: 0.5 - x1)
        _, wts = fem._dunavant(6)
        assert cells.tolist() == [0]
        assert np.array_equal(bary[0], np.eye(3))
        assert np.array_equal(fracs[0], wts)
        right = left * [-1.0, 1.0] + [1.0, 0.0]
        cells, _, _ = A._masked_rule(right, lambda x1, rho: 0.5 - x1)
        assert len(cells) == 0

    def test_edge_a_rounding_off_the_cut_is_not_subdivided(self):
        # mesh vertices meant to lie on x1 = 0.5 can sit one ulp off it;
        # a level of +5.6e-17 there is on the cut, not on its positive side
        edge = np.nextafter(0.5, 0.0)
        left = np.array([[[edge, 0.0], [edge, 1.0], [0.0, 0.5]]])
        right = np.array([[[edge, 0.0], [edge, 1.0], [1.0, 0.5]]])
        cells, _, _ = A._masked_rule(left, lambda x1, rho: 0.5 - x1)
        assert cells.tolist() == [0]
        cells, _, _ = A._masked_rule(right, lambda x1, rho: 0.5 - x1)
        assert len(cells) == 0

    def test_channel_section_keeps_no_empty_piece(self):
        # on the sweep's eps = 0.1 mesh the tube vertices of x1 = 0.5 sit
        # at 0.5 - 1.1e-16
        mesh = refine(build_dumbbell_mesh(RunConfig().mesh_config(0.1)))
        corners = mesh.vertices[mesh.triangles]
        _, _, fracs = A._masked_rule(corners, lambda x1, rho: 0.5 - x1)
        assert np.all(fracs.sum(axis=1) > 0)


class TestMaskedEnergy:
    def test_full_region_matches_assembled_forms(self):
        # with the level positive everywhere the masked quadrature is the
        # energy u^T (K - lam M_p) u of the assembled forms, times omega
        mesh = build_dumbbell_mesh(MeshConfig(h0=0.3, eps=0.3, r_out=8.0,
                                              levels=2))
        disc = fem.Discretization(mesh)
        weight = fem.WeightModel()
        K, Mp = fem.assemble_stiffness(disc), fem.assemble_mass(disc, weight)
        u = np.random.default_rng(3).standard_normal(disc.n_nodes)
        lam = 1.6
        energy = A._masked_energy(disc, u, weight, lam,
                                  lambda x1, rho: np.ones_like(x1))
        ref = cs.sphere_surface_area(1) * float(
            u @ (K @ u) - lam * (u @ (Mp @ u)))
        assert energy == pytest.approx(ref, rel=1e-12)


@pytest.fixture(scope="module")
def sweep_pair():
    """The level-1 eps = 0.3 sweep eigenpair and its discretization."""
    cfg = RunConfig()
    _, found = P.compute_u0(cfg.mesh_config(), cfg.profile_level,
                            cfg.weight())
    lam_k0 = found["lam_k0"]
    pair, _ = sequential_eigenpair(cfg, 0.3, lam_k0)
    return pair.field.disc, pair.field.values, pair.lam


class TestMaskedEnergyOracle:
    """The reference-table kernel against the point-by-point oracle."""

    @pytest.mark.parametrize("cut, subdivided", [
        (lambda x1, rho: 0.5 - x1, False),
        (lambda x1, rho: 0.7 - np.hypot(x1, rho), True),
        (lambda x1, rho: np.hypot(x1, rho) - 0.7, True),
    ], ids=["channel", "ball", "exterior"])
    def test_matches_the_oracle(self, sweep_pair, cut, subdivided):
        # the channel cut x1 < 0.5 subdivides no cell, the sphere |x| = 0.7
        # does.  The tolerance is relative to the gradient energy: outside
        # the ball the weighted term cancels it down to -7.5e-7 of 10.3,
        # and both kernels round at the 10.3 scale
        disc, u, lam = sweep_pair
        weight = fem.WeightModel()
        corners = disc.mesh.vertices[disc.mesh.triangles]
        _, pieces, _ = A._masked_rule(corners, cut)
        whole = (pieces == np.eye(3)).all(axis=(1, 2))
        assert whole.all() != subdivided
        got = A._masked_energy(disc, u, weight, lam, cut)
        ref = masked_energy(disc, u, weight, lam, cut)
        scale = masked_energy(disc, u, None, 0.0, cut)
        assert abs(got - ref) <= 1e-13 * scale

    def test_channel_plan_matches_the_kernel_bit_for_bit(self, sweep_pair):
        # the sweep's channel region x1 < 0.5, its rule, shapes, gradient
        # transforms and weights planned once before any field: the energy
        # of the eigenvector and of another field on the same plan equals
        # the one-call kernel's exactly, and the point-by-point oracle's
        # to its tolerance (it rounds the eigenvector's energy one ulp
        # apart)
        disc, u, lam = sweep_pair
        weight = fem.WeightModel()
        plan = A._channel_plan(disc, weight, 0.5)
        cut = lambda x1, rho: 0.5 - x1
        other = np.random.default_rng(4).standard_normal(disc.n_nodes)
        for values in (u, other):
            got = plan.energy(values, lam)
            assert got == A._masked_energy(disc, values, weight, lam, cut)
            scale = masked_energy(disc, values, None, 0.0, cut)
            assert abs(got - masked_energy(disc, values, weight, lam, cut)) \
                <= 1e-13 * scale

    def test_full_region_matches_assembled_forms(self, sweep_pair):
        # u^T (K - lam M_p) u of an eigenpair cancels down to its residual,
        # so the difference is measured against the omega u^T K u scale
        disc, u, lam = sweep_pair
        weight = fem.WeightModel()
        K, Mp = fem.assemble_stiffness(disc), fem.assemble_mass(disc, weight)
        energy = A._masked_energy(disc, u, weight, lam,
                                  lambda x1, rho: np.ones_like(x1))
        omega = cs.sphere_surface_area(1)
        stiff = float(u @ (K @ u))
        ref = omega * (stiff - lam * float(u @ (Mp @ u)))
        assert abs(energy - ref) <= 1e-12 * omega * stiff


class TestBlowup:
    def test_right_junction_fixed_point(self):
        lin = lambda x1, rho: x1 - 1.0
        view = A.blowup(lin, "RightJunction", 0.2)
        xs = np.linspace(-2.0, 4.0, 11)
        assert np.allclose(view(xs, 0.3 * np.ones_like(xs)), xs - 1.0,
                           atol=1e-14)

    def test_channel_section_normalized(self):
        eps, x0 = 0.2, 0.5
        k = SL1 / eps
        u = lambda x1, rho: np.exp(k * (x1 - 1.0)) * MODE.psi1(
            np.minimum(rho / eps, 1.0))
        view = A.blowup(u, "Channel", eps, x0=x0)
        assert cs.section_mass(view, 1.0, 1.0) == pytest.approx(1.0,
                                                                abs=1e-10)

    def test_left_junction_section_normalized(self):
        eps = 0.2
        k = SL1 / eps
        u = lambda x1, rho: np.exp(k * (x1 - 1.0)) * MODE.psi1(
            np.minimum(rho / eps, 1.0))
        view = A.blowup(u, "LeftJunction", eps)
        assert cs.section_mass(view, 1.0, 1.0) == pytest.approx(1.0,
                                                                abs=1e-10)

    def test_normalized_unit_mass(self, dumbbell_pair):
        view = A.blowup(dumbbell_pair.field.evaluate, "Normalized", 0.2,
                        ktilde=1.0)
        assert cs.half_sphere_mass(view, 0.0, 1.0, -1) == pytest.approx(
            1.0, abs=1e-10)

    def test_parameter_validation(self):
        u = lambda x1, rho: np.ones_like(x1)
        with pytest.raises(ValueError):
            A.blowup(u, "NoSuchKind", 0.2)
        with pytest.raises(ValueError):
            A.blowup(u, "Channel", 0.2)
        with pytest.raises(ValueError):
            A.blowup(u, "Normalized", 0.2)
        with pytest.raises(ValueError):
            A.blowup(u, "Channel", 0.7, x0=0.5)
        zero = lambda x1, rho: np.zeros_like(x1)
        with pytest.raises(ValueError):
            A.blowup(zero, "Channel", 0.2, x0=0.5)


class TestCompareViews:
    def test_self_comparison_is_zero(self):
        u = lambda x1, rho: np.sin(x1) * rho
        x = np.linspace(0.0, 1.0, 20)
        out = A.compare_views(u, u, x, x)
        assert out["sup"] == 0.0

    def test_known_offset(self):
        u = lambda x1, rho: np.zeros_like(x1)
        v = lambda x1, rho: np.full_like(x1, 0.25)
        x = np.linspace(0.0, 1.0, 20)
        out = A.compare_views(u, v, x, x)
        assert out["sup"] == pytest.approx(0.25)
        assert out["ref_sup"] == 0.25

    def test_nan_samples_dropped(self):
        u = lambda x1, rho: np.where(x1 > 0.5, np.nan, 1.0)
        v = lambda x1, rho: np.ones_like(x1)
        x = np.linspace(0.0, 1.0, 21)
        out = A.compare_views(u, v, x, x)
        assert out["sup"] == 0.0
        assert out["samples"] == int(np.sum(x <= 0.5))

    def test_all_invalid_rejected(self):
        u = lambda x1, rho: np.full_like(x1, np.nan)
        with pytest.raises(ValueError):
            A.compare_views(u, u, np.array([0.1]), np.array([0.1]))
