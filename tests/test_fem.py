import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dumbbell import fem
from dumbbell import mesh as M
from dumbbell.pipeline import RunConfig
import assembly_oracle
from lanczos_oracle import lanczos_pairs


def half_disk_mesh(n_rad, n_theta):
    """Unit half-disk about the origin (test harness for the Bessel oracle)."""
    v, t = M._merge([M._polar_block(0.0, np.linspace(0, 1, n_rad + 1),
                                    0.0, math.pi, n_theta)])
    return M.MeridianMesh(v, t, 3)


def counting_solves(system):
    """Route the system's solves through a stub of its factor; returns the
    list that gains one entry a solve."""
    lu, solves = system.lu(), []
    system._lu = SimpleNamespace(
        solve=lambda b: solves.append(1) or lu.solve(b))
    return solves


def rayleigh(system, pair):
    u = pair.field.values[system.free]
    return float(u @ (system.K @ u)) / float(u @ (system.Mp @ u))


class TestWeightModel:
    def test_vanishes_near_junctions_and_tube(self):
        p = fem.WeightModel()
        x = np.array([0.5, 0.0, 1.0, -2.9, 3.9, 1.5])
        r = np.array([0.1, 0.05, 0.1, 0.0, 0.0, 2.0])
        assert np.all(p(x, r) == 0.0)

    def test_positive_in_annuli(self):
        p = fem.WeightModel()
        assert p(5.5, 0.0) > 0       # |x - e1| = 4.5, right side
        assert p(-4.5, 0.0) > 0      # |x| = 4.5, left side
        assert p(5.5, 0.0) == pytest.approx(1.0)   # bump peak, a_plus
        assert p(-4.5, 0.0) == pytest.approx(0.5)  # bump peak, a_minus

    def test_annuli_gated_by_side(self):
        p = fem.WeightModel()
        # |x - e1| = 4.5 but x1 < 0: belongs to neither annulus
        assert p(-3.5, 0.0) == 0.0
        # |x| = 4.5 but x1 > 1
        assert p(4.5, 0.0) == 0.0

    def test_c1_at_support_boundary(self):
        p = fem.WeightModel()
        h = 1e-6
        for x_edge in (5.0, 6.0):  # |x-e1| = 4 and 5
            slope = (p(x_edge + h, 0.0) - p(x_edge - h, 0.0)) / (2 * h)
            assert abs(slope) < 1e-4

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-12, 13, 500)
        r = rng.uniform(0, 12, 500)
        assert np.all(fem.WeightModel()(x, r) >= 0.0)

    @pytest.mark.parametrize("amps", [(1.0, -0.5), (-1.0, 0.5)])
    def test_negative_amplitude_rejected(self, amps):
        # p >= 0 is what makes M_p semidefinite; a negative amplitude
        # would let Ubar's gap guard pass on the NaN of sqrt(u^T M_p u)
        with pytest.raises(ValueError):
            fem.WeightModel(*amps)


@pytest.fixture(scope="module")
def sweep_mesh_01():
    """The level-1 eps = 0.1 dumbbell mesh of the default sweep."""
    return M.refine(M.build_dumbbell_mesh(RunConfig().mesh_config(0.1)))


class TestAssembly:
    def test_zero_weight_gives_zero_mass(self, monkeypatch):
        # the zero weight has no support, so it is never evaluated
        def never(self, x1, rho):
            raise AssertionError("the zero weight was evaluated")
        monkeypatch.setattr(fem.WeightModel, "__call__", never)
        m = M.build_profile_mesh("HalfMinus", M.MeshConfig(h0=0.5, r_out=8.0))
        disc = fem.Discretization(m)
        assert fem.assemble_mass(disc, fem.WeightModel(0.0, 0.0)).nnz == 0
        assert fem.assemble(disc, fem.WeightModel(0.0, 0.0)).Mp.nnz == 0

    @pytest.mark.parametrize("domain", ["HalfPlus", "HalfMinus", "dumbbell"])
    def test_weight_model_mass_matches_a_plain_callable(self, domain,
                                                        sweep_mesh_01):
        # a WeightModel is evaluated only on cells its annuli can meet, a
        # plain callable on every cell; M_p must not change by one bit
        if domain == "dumbbell":
            m = sweep_mesh_01
        else:
            m = M.build_profile_mesh(domain, RunConfig().mesh_config())
        disc = fem.Discretization(m)
        weight = fem.WeightModel()
        got = fem.assemble_mass(disc, weight)
        ref = fem.assemble_mass(disc, lambda x1, rho: weight(x1, rho))
        assert ref.nnz > 0
        for attr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, attr), getattr(ref, attr))

    def test_stiffness_symmetric_exactly(self):
        m = M.build_dumbbell_mesh(M.MeshConfig(h0=0.3, eps=0.3, r_out=8.0,
                                               levels=2))
        K = fem.assemble_stiffness(fem.Discretization(m))
        diff = (K - K.T).tocoo()
        assert diff.nnz == 0 or np.max(np.abs(diff.data)) == 0.0

    def test_build_memory_bounded(self, sweep_mesh_01):
        # the build holds no all-node matrix, whole-mesh triplet set or
        # reduced copy: the whole-mesh assembly peaked at 33.1 MB here,
        # 8.5 MB of it the system it returns, and this build at 15.7 MB
        disc = fem.Discretization(sweep_mesh_01)
        weight = fem.WeightModel()
        tracemalloc.start()
        try:
            system = fem.assemble(disc, weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(system.free) > 50000
        assert peak <= 20e6

    def test_p2_is_the_only_element(self):
        m = M.build_profile_mesh("HalfMinus", M.MeshConfig(h0=0.8, r_out=8.0))
        with pytest.raises(ValueError, match="P2 is the only element"):
            fem.Discretization(m, order=1)

    def test_element_integrals_against_sympy(self):
        # one reference triangle (0,0)-(1,0)-(0,1); axisymmetric forms with
        # measure rho: K_ij = int grad(phi_i).grad(phi_j) rho dA and
        # M_ij = int phi_i phi_j rho dA, integrated symbolically
        import sympy as sy

        x, r = sy.symbols("x r", nonnegative=True)
        l1, l2, l3 = 1 - x - r, x, r
        # the six P2 shape functions in fem._p2_shapes' local order
        phis = [l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), l3 * (2 * l3 - 1),
                4 * l1 * l2, 4 * l2 * l3, 4 * l3 * l1]

        def integrate(f):
            # exact int_0^1 int_0^(1-x) f dr dx by polynomial antiderivatives
            inner = sy.Poly(f, r).integrate().as_expr().subs(r, 1 - x)
            return float(sy.Poly(inner, x).integrate().eval(1))

        Ksym = np.zeros((6, 6))
        Msym = np.zeros((6, 6))
        # both forms are symmetric: integrate j >= i only
        for i in range(6):
            for j in range(i, 6):
                gi = (sy.diff(phis[i], x), sy.diff(phis[i], r))
                gj = (sy.diff(phis[j], x), sy.diff(phis[j], r))
                Ksym[i, j] = Ksym[j, i] = integrate(
                    (gi[0] * gj[0] + gi[1] * gj[1]) * r)
                Msym[i, j] = Msym[j, i] = integrate(phis[i] * phis[j] * r)

        verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        tris = np.array([[0, 1, 2]])
        mesh1 = M.MeridianMesh(verts, tris, 3)
        disc = fem.Discretization(mesh1)
        local = np.ix_(disc.cells[0], disc.cells[0])
        K = fem.assemble_stiffness(disc).toarray()[local]
        Mq = fem.assemble_mass(disc).toarray()[local]
        assert np.max(np.abs(K - Ksym)) < 1e-14
        assert np.max(np.abs(Mq - Msym)) < 1e-14

    def test_p2_forms_match_a_per_cell_loop(self):
        # reference: a Python loop over cells and quadrature points of the
        # degree-6 rule, exact for the P2 integrands with measure rho^m;
        # N = 4 takes the rho^m branch with m = 2
        for dimension in (3, 4):
            self.check_forms_against_a_per_cell_loop(dimension)

    @staticmethod
    def check_forms_against_a_per_cell_loop(dimension):
        m = M.build_dumbbell_mesh(M.MeshConfig(h0=0.3, eps=0.3, r_out=8.0,
                                               levels=2, dimension=dimension))
        disc = fem.Discretization(m)
        weight = fem.WeightModel()
        load = lambda x1, rho: np.cos(x1) + rho
        bary, wts = fem._dunavant(6)
        shp, dshp = fem._p2_shapes(bary)
        rows, cols, kvals, mvals = [], [], [], []
        fvec = np.zeros(disc.n_nodes)
        for tri, cell in zip(m.triangles, disc.cells):
            p = m.vertices[tri]
            jac = np.column_stack([p[1] - p[0], p[2] - p[0]])
            area = 0.5 * abs(np.linalg.det(jac))
            inv = np.linalg.inv(jac)  # rows: gradients of lambda_2, lambda_3
            bg = np.vstack([-inv.sum(axis=0), inv])
            k_loc = np.zeros((6, 6))
            m_loc = np.zeros((6, 6))
            for q in range(len(wts)):
                x1, rho = bary[q] @ p
                dv = wts[q] * area * rho ** (dimension - 2)
                g = dshp[q] @ bg
                k_loc += dv * (g @ g.T)
                m_loc += dv * weight(x1, rho) * np.outer(shp[q], shp[q])
                fvec[cell] += dv * load(x1, rho) * shp[q]
            rows.append(np.repeat(cell, 6))
            cols.append(np.tile(cell, 6))
            kvals.append(k_loc.ravel())
            mvals.append(m_loc.ravel())
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        shape = (disc.n_nodes, disc.n_nodes)
        for assembled, vals in (
                (fem.assemble_stiffness(disc), kvals),
                (fem.assemble_mass(disc, coeff=weight), mvals)):
            ref = sp.coo_matrix((np.concatenate(vals), (rows, cols)),
                                shape=shape).tocsr()
            top = np.abs(ref.data).max()
            assert np.abs((assembled - ref).data).max() <= 1e-13 * top
        got = fem.assemble_load(disc, load)
        assert np.abs(got - fvec).max() <= 1e-13 * np.abs(fvec).max()


def poisson(disc, f, exact):
    """-Delta u = f with u = exact on the Dirichlet nodes, by the path of
    Ubar's remainder: the lift I(exact) moves the data into the load, and
    the solve returns the remainder, which is zero there."""
    system = fem.assemble(disc, fem.WeightModel(0.0, 0.0))
    lift = exact(*disc.nodes.T)
    w = system.solve(fem.assemble_load(disc, f)
                     - fem.assemble_stiffness(disc) @ lift)
    return fem.FieldSolution(disc, w.values + lift, w.residual)


def _oracle_mesh(name, sweep_mesh_01):
    if name == "sweep-eps0.1-level1":
        return sweep_mesh_01
    if name == "PhiDomain":
        return M.refine(M.build_profile_mesh("PhiDomain",
                                             RunConfig().mesh_config()))
    # the coarse sweep of tests/test_pipeline.py, at its first eps
    return M.build_dumbbell_mesh(RunConfig(
        eps_sweep=(0.3, 0.2), h0=0.2, grade_levels=6, profile_level=0,
        sweep_level=0).mesh_config(0.3))


def assert_same_csr(got, want):
    got.check_format(full_check=True)
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        assert getattr(got, attr).dtype == getattr(want, attr).dtype, attr
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


@pytest.mark.parametrize("name", ["sweep-eps0.1-level1", "PhiDomain",
                                  "coarse"])
class TestAssemblyOracle:
    """The row-block build against the whole-mesh COO assembly of
    tests/assembly_oracle.py, bit for bit."""

    def test_assemble(self, name, sweep_mesh_01):
        disc = fem.Discretization(_oracle_mesh(name, sweep_mesh_01))
        got = fem.assemble(disc, fem.WeightModel())
        want = assembly_oracle.assemble(disc, fem.WeightModel())
        assert_same_csr(got.K, want.K)
        assert_same_csr(got.Mp, want.Mp)
        assert got.Mp.nnz > 0
        for attr in ("free", "fixed"):
            assert getattr(got, attr).dtype == getattr(want, attr).dtype
            assert np.array_equal(getattr(got, attr), getattr(want, attr))

    def test_all_node_forms(self, name, sweep_mesh_01):
        disc = fem.Discretization(_oracle_mesh(name, sweep_mesh_01))
        weight = fem.WeightModel()
        assert_same_csr(fem.assemble_stiffness(disc),
                        assembly_oracle.assemble_form(disc, "stiffness"))
        for coeff in (weight, lambda x1, rho: weight(x1, rho)):
            assert_same_csr(fem.assemble_mass(disc, coeff),
                            assembly_oracle.assemble_form(disc, "mass",
                                                          coeff))

    def test_dirichlet_load(self, name, sweep_mesh_01):
        disc = fem.Discretization(_oracle_mesh(name, sweep_mesh_01))
        lift = lambda x1, rho: x1 ** 2 - 0.5 * rho ** 2 + np.sin(3.0 * x1)
        job = fem.solve_dirichlet(disc, lift)
        system, load = job.func.__self__, job.args[0]
        want = assembly_oracle.dirichlet_system(
            disc, assembly_oracle.assemble_form(disc, "stiffness"),
            sp.csr_matrix((disc.n_nodes, disc.n_nodes)))
        assert_same_csr(system.K, want.K)
        assert_same_csr(system.Mp, want.Mp)
        assert np.array_equal(system.free, want.free)
        assert np.array_equal(load[system.free],
                              assembly_oracle.dirichlet_load(disc, lift)[
                                  system.free])
        assert not load[system.fixed].any()


class TestSolveDirichlet:
    def test_manufactured_cubic_l2_order(self):
        # u = x1 rho^2 solves -Delta_axi u = -4 x1 (u_rhorho + u_rho/rho
        # = 4 x1) and is not in P2; measure the L2 error of the nodal
        # values under refinement, expect order ~3 or better
        exact = lambda x, r: x * r ** 2
        for kind in ("HalfMinus", "HalfPlus"):
            m = M.build_profile_mesh(kind, M.MeshConfig(h0=0.8, r_out=8.0))
            errs = []
            for _ in range(3):
                sol = poisson(fem.Discretization(m), lambda x, r: -4.0 * x,
                              exact)
                disc = sol.disc
                Mass = fem.assemble_mass(disc)
                e = sol.values - exact(disc.nodes[:, 0], disc.nodes[:, 1])
                errs.append(math.sqrt(e @ (Mass @ e)))
                m = M.refine(m)
            assert math.log2(errs[0] / errs[1]) > 2.7
            assert math.log2(errs[1] / errs[2]) > 2.7

    def test_p2_exact_for_quadratic(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.6, r_out=8.0))
        sol = poisson(fem.Discretization(m),
                      lambda x, r: -4.0 * np.ones_like(x), lambda x, r: r**2)
        err = np.abs(sol.values - sol.disc.nodes[:, 1] ** 2).max()
        assert err < 1e-9

    @pytest.mark.parametrize("kind, lift", [
        ("HalfPlus", lambda x, r: x ** 2 - 0.5 * r ** 2),
        ("HalfPlus", lambda x, r: x),
        ("HalfMinus", lambda x, r: 0.0 * x)], ids=["quadratic", "linear",
                                                   "zero"])
    def test_lift_of_discrete_harmonic_leaves_zero_remainder(self, kind, lift):
        # x1^2 - rho^2/2, x1 and 0 are axisymmetric harmonic and lie in
        # P2, so the remainder of the lifted solve is roundoff, and zero
        # for the zero lift
        m = M.refine(M.build_profile_mesh(kind,
                                          M.MeshConfig(h0=0.6, r_out=8.0)))
        disc = fem.Discretization(m)
        sol = fem.solve_dirichlet(disc, lift)()
        scale = np.abs(lift(disc.nodes[:, 0], disc.nodes[:, 1])).max()
        assert np.abs(sol.values).max() <= 1e-10 * scale
        assert sol.residual < 1e-12

    def test_assembles_no_mass_form(self, monkeypatch):
        # the harmonic solve needs only the stiffness: its lift load is
        # formed from the free rows of K over all columns
        assemble = fem._assemble_form

        def stiffness_only(disc, kind, *args, **kwargs):
            assert kind == "stiffness", "solve_dirichlet assembled a mass form"
            return assemble(disc, kind, *args, **kwargs)
        monkeypatch.setattr(fem, "_assemble_form", stiffness_only)
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.6, r_out=8.0))
        disc = fem.Discretization(m)
        sol = fem.solve_dirichlet(disc, lambda x, r: x)()
        assert np.abs(sol.values).max() <= 1e-10 * 8.0
        assert sol.residual < 1e-12

    def test_self_convergence_poisson(self):
        # solve -Delta u = 1 on the dumbbell and compare energy-norm changes
        # across refinements: change should shrink by >= 1.5 per level
        m = M.build_dumbbell_mesh(M.MeshConfig(h0=0.35, eps=0.3, r_out=8.0,
                                               levels=2))
        rhs = lambda x, r: np.ones_like(x)
        sols, meshes = [], []
        for _ in range(3):
            sols.append(poisson(fem.Discretization(m), rhs,
                                lambda x, r: 0.0 * x))
            meshes.append(m)
            m = M.refine(m)
        changes = []
        for coarse, fine in ((0, 1), (1, 2)):
            disc_f = sols[fine].disc
            interp = sols[coarse].evaluate(disc_f.nodes[:, 0],
                                           disc_f.nodes[:, 1])
            interp = np.where(np.isnan(interp), sols[fine].values, interp)
            d = sols[fine].values - interp
            K = fem.assemble_stiffness(disc_f)
            changes.append(math.sqrt(d @ (K @ d)))
        assert changes[0] / changes[1] >= 1.5


class TestAssembledSystem:
    def test_clamped_restricts_the_full_matrices(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.6, r_out=8.0))
        disc = fem.Discretization(m)
        sysd = fem.assemble(disc, fem.WeightModel()).shifted(0.01)
        sysd.lu()
        extra = np.flatnonzero(disc.nodes[:, 0] < 3.0)
        sub = sysd.clamped(extra)
        fixed = np.union1d(sysd.fixed, extra)
        free = np.setdiff1d(np.arange(disc.n_nodes), fixed)
        assert np.array_equal(sub.fixed, fixed)
        assert np.array_equal(sub.free, free)
        # a reduction of the reduced matrices is one reduction of the
        # independently assembled all-node forms, bit for bit
        for got, full in ((sub.K, fem.assemble_stiffness(disc)),
                          (sub.Mp, fem.assemble_mass(disc, fem.WeightModel()))):
            want = full[free][:, free].tocsr()
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr))
        assert sub.shift == 0.01 and sub._lu is None

    def test_singular_operator_names_its_likely_cause(self):
        # lu() and solve() factor through one entry, so a singular
        # operator raises the same hint from either, not SuperLU's bare
        # "Factor is exactly singular"
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.6, r_out=8.0))
        disc = fem.Discretization(m)
        system = fem.assemble(disc, fem.WeightModel())
        system.K = sp.csr_matrix(system.K.shape)
        hint = r"^singular factorization .* check boundary tags and shifts$"
        with pytest.raises(RuntimeError, match=hint):
            system.lu()
        with pytest.raises(RuntimeError, match=hint):
            system.solve(np.ones(disc.n_nodes))


class TestEigen:
    def test_bessel_oracle_half_disk(self):
        # the half disk spun about the axis is the unit ball B^3, whose
        # first Dirichlet eigenvalue is pi^2 (the first zero of J_(1/2))
        exact = math.pi ** 2
        errs = []
        for n in (8, 16, 32):
            disc = fem.Discretization(half_disk_mesh(n, 3 * n))
            sysd = fem.assemble(disc, lambda x, r: np.ones_like(x))
            lam = fem.eigen_smallest(sysd, 40).lam
            errs.append(abs(lam - exact))
        assert errs[2] < 2e-3 * exact
        assert errs[0] > errs[1] > errs[2]
        # second-order boundary convergence
        assert errs[1] / errs[2] > 3.0

    def test_mass_scaling(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.3, r_out=8.0))
        disc = fem.Discretization(m)
        base = fem.WeightModel(1.0, 0.0)
        scaled = fem.WeightModel(2.0, 0.0)
        s1 = fem.assemble(disc, base)
        s2 = fem.assemble(disc, scaled)
        p1 = fem.eigen_smallest(s1, 40)
        p2 = fem.eigen_smallest(s2, 40)
        assert p2.lam == pytest.approx(p1.lam / 2.0, rel=1e-10)
        v1, v2 = p1.field.values, p2.field.values
        corr = abs(v1 @ v2) / math.sqrt((v1 @ v1) * (v2 @ v2))
        assert corr == pytest.approx(1.0, abs=1e-8)

    def test_spectra_ratio_two(self):
        lam = {}
        for kind in ("HalfPlus", "HalfMinus"):
            m = M.build_profile_mesh(kind, M.MeshConfig(h0=0.3, r_out=12.0))
            sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
            lam[kind] = fem.eigen_smallest(sysd, 40).lam
        assert lam["HalfMinus"] / lam["HalfPlus"] == pytest.approx(2.0, rel=5e-3)

    def test_symmetric_weight_near_degenerate(self):
        m = M.build_dumbbell_mesh(M.MeshConfig(h0=0.3, eps=0.25, r_out=8.0,
                                               levels=3))
        sysd = fem.assemble(fem.Discretization(m),
                            fem.WeightModel(1.0, 1.0))
        pairs = lanczos_pairs(sysd, count=2, tol=1e-12)
        gap = (pairs[1].lam - pairs[0].lam) / pairs[0].lam
        assert 0.0 <= gap < 0.01

    def test_truncation_monotonicity(self):
        lams = []
        for r_out in (12.0, 16.0, 24.0):
            m = M.build_dumbbell_mesh(M.MeshConfig(h0=0.3, eps=0.25,
                                                   r_out=r_out, levels=3))
            sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
            lams.append(fem.eigen_smallest(sysd, 40).lam)
        assert lams[0] >= lams[1] >= lams[2]

    def test_rayleigh_consistency(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.3, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        pair = fem.eigen_smallest(sysd, 40)
        assert abs(pair.lam - rayleigh(sysd, pair)) / pair.lam < 1e-12

    def test_repeatable_in_one_process(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        first = fem.eigen_smallest(sysd, 40)
        second = fem.eigen_smallest(sysd, 40)
        assert first.lam == second.lam
        assert np.array_equal(first.field.values, second.field.values)

    def test_matches_the_lanczos_oracle(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        ref = lanczos_pairs(sysd, tol=1e-14)[0]
        got = fem.eigen_smallest(sysd, 40)
        assert got.lam == pytest.approx(ref.lam, rel=1e-12)
        u, v = got.field.values[sysd.free], ref.field.values[sysd.free]
        v = v * (np.sign(v @ (sysd.Mp @ u)) / math.sqrt(v @ (sysd.Mp @ v)))
        assert np.max(np.abs(u - v)) <= 1e-10 * np.max(np.abs(v))

    def test_zero_mass_raises(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.6, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel(0.0, 0.0))
        with pytest.raises(ValueError):
            fem.eigen_smallest(sysd, 40)

    def test_needs_a_krylov_solve_and_the_polish(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.6, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        for steps in (0, 2):
            with pytest.raises(ValueError, match="steps"):
                fem.eigen_smallest(sysd, steps)

    def test_more_steps_than_free_dofs(self):
        # six free nodes in the weight annulus: the sixth Krylov solve
        # lands in the span of the basis, which stops growing there
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.6, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        x1, rho = sysd.disc.nodes[sysd.free].T
        keep = sysd.free[np.argsort(np.hypot(x1 - 5.5, rho - 0.5))[:6]]
        tiny = sysd.clamped(np.setdiff1d(sysd.free, keep))
        solves = counting_solves(tiny)
        pair = fem.eigen_smallest(tiny, 12)
        assert len(solves) == 6 + 2
        mu, X = sla.eigh(tiny.Mp.toarray(), tiny.K.toarray())
        assert pair.lam == pytest.approx(1.0 / mu[-1], rel=1e-13)
        u, x = pair.field.values[tiny.free], X[:, -1]
        u = u / math.sqrt(u @ (tiny.Mp @ u))
        x = x * (np.sign(x @ (tiny.Mp @ u)) / math.sqrt(x @ (tiny.Mp @ x)))
        assert np.max(np.abs(u - x)) <= 1e-12 * np.max(np.abs(x))

    def test_start_already_an_eigenvector(self):
        # K = L + lam D with L a path-graph Laplacian (L 1 = 0) and Mp = D:
        # the all-ones start is the ground state, and the first Krylov
        # solve adds nothing to the basis
        n, lam = 8, 0.7
        d = np.random.default_rng(1).uniform(0.5, 2.0, n)
        L = sp.diags([np.r_[1.0, 2.0 * np.ones(n - 2), 1.0],
                      -np.ones(n - 1), -np.ones(n - 1)], [0, -1, 1])
        K, Mp = (L + lam * sp.diags(d)).tocsr(), sp.diags(d).tocsr()
        sysd = fem.AssembledSystem(SimpleNamespace(n_nodes=n), K, Mp,
                                   np.arange(n), np.empty(0, dtype=np.int64))
        solves = counting_solves(sysd)
        pair = fem.eigen_smallest(sysd, 12)
        assert len(solves) == 1 + 2
        assert pair.lam == pytest.approx(lam, rel=1e-14)
        u = pair.field.values
        assert np.max(np.abs(u / u[0] - 1.0)) <= 1e-14


class TestFactor:
    def test_supernode_settings_keep_pivots_and_fill(self):
        m = M.build_profile_mesh("HalfMinus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        lam = fem.eigen_smallest(sysd, 40).lam
        A = sp.csc_matrix(sysd.K - 0.99 * lam * sysd.Mp)
        lu = fem.factor(A)
        # the inertia guard of compute_Ubar reads the U diagonal as pivots
        assert np.array_equal(lu.perm_r, lu.perm_c)
        assert np.all(lu.U.diagonal() > 0)
        plain = spla.splu(A, permc_spec="MMD_AT_PLUS_A",
                          diag_pivot_thresh=0.0,
                          options={"SymmetricMode": True})
        assert lu.L.nnz + lu.U.nnz == plain.L.nnz + plain.U.nnz
        b = np.random.default_rng(5).standard_normal(A.shape[0])
        x = lu.solve(b)
        assert np.linalg.norm(A @ x - b) < 1e-12 * np.linalg.norm(b)

    def test_factored_operators_are_symmetric(self, monkeypatch):
        # factor hands a CSR matrix to SuperLU as its transpose, which is
        # the same matrix only because every operator lu() factors, K,
        # K - sigma M_p with a WeightModel and a clamped subsystem, is
        # bitwise symmetric
        m = M.build_dumbbell_mesh(M.MeshConfig(h0=0.3, eps=0.3, r_out=8.0,
                                               levels=2))
        disc = fem.Discretization(m)
        sysd = fem.assemble(disc, fem.WeightModel())
        shifted = sysd.shifted(0.5)
        clamped = shifted.clamped(np.flatnonzero(disc.nodes[:, 0] < -3.0))
        factored = []
        factor = fem.factor
        monkeypatch.setattr(fem, "factor",
                            lambda A: factored.append(A) or factor(A))
        for system in (sysd, shifted, clamped):
            system.lu()
        assert len(factored) == 3
        rng = np.random.default_rng(3)
        for A in factored:
            assert A.format == "csr" and (A != A.T).nnz == 0
            lu, ref = factor(A), factor(A.tocsc())
            assert np.array_equal(lu.perm_c, ref.perm_c)
            b = rng.standard_normal(A.shape[0])
            assert np.array_equal(lu.solve(b), ref.solve(b))

    def test_repeated_factors_keep_the_heap_intact(self):
        # SuperLU in scipy 1.17.1 corrupts the heap on these operators at
        # relax = 80, panel_size = 40; MALLOC_CHECK_=3 makes glibc abort
        # the child at the first corrupt free.  The second loop runs two
        # factorizations at once, one on a second thread, as the one-job
        # sweep and the profile stage do on their workers
        script = textwrap.dedent("""
            import threading

            import numpy as np
            from dumbbell import fem, mesh as M
            from dumbbell.pipeline import RunConfig

            cfg = RunConfig()
            lam_k0 = 1.6443731
            # the level-1 eps = 0.3 sweep operator at 0.99 lam_k0, and the
            # level-1 Ubar operator at lam_k0
            for mesh, shift in (
                    (M.build_dumbbell_mesh(cfg.mesh_config(0.3)),
                     0.99 * lam_k0),
                    (M.build_profile_mesh("HalfMinus", cfg.mesh_config()),
                     lam_k0)):
                disc = fem.Discretization(M.refine(mesh))
                system = fem.assemble(disc, cfg.weight())
                A = system.K - shift * system.Mp
                for _ in range(3):
                    lu = fem.factor(A)
                    del lu
                b = np.ones(A.shape[0])
                for _ in range(3):
                    out = {}
                    helper = threading.Thread(target=lambda: out.update(
                        x=fem.factor(A).solve(b)))
                    helper.start()
                    lu = fem.factor(A)
                    helper.join()
                    assert np.array_equal(out["x"], lu.solve(b))
                    del lu
        """)
        src = os.path.dirname(os.path.dirname(os.path.abspath(fem.__file__)))
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, MALLOC_CHECK_="3", PYTHONPATH=path)
        child = subprocess.run([sys.executable, "-c", script], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr[-2000:]


class TestRefineEigenpair:
    def test_shifted_system_factors_once(self, monkeypatch):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        shifted = sysd.shifted(0.5)
        assert shifted.shift == 0.5 and sysd.shift == 0.0
        lu = shifted.lu()
        assert shifted.lu() is lu
        factored = []
        factor = fem.factor
        monkeypatch.setattr(fem, "factor",
                            lambda A: factored.append(A.shape) or factor(A))
        fem.refine_eigenpair(shifted, np.ones(len(sysd.free)), 3)
        assert factored == []
        assert shifted.lu() is lu

    def test_own_factor_dies_before_the_quotient(self, monkeypatch):
        # refine_on_own_factor's factor is freed after the last solve, on
        # its thread, before the long-double quotient copies rows of K and
        # M_p; refine_eigenpair's cached system.lu() stays
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        shifted = fem.assemble(fem.Discretization(m),
                               fem.WeightModel()).shifted(0.5)
        factor, product = fem.factor, fem._longdouble_product
        made, alive = [], []

        class Tracked:
            def __init__(self, lu):
                self.solve = lu.solve

        def tracked(A):
            lu = Tracked(factor(A))
            made.append(weakref.ref(lu))
            return lu

        def quotient_rows(A, x):
            alive.append([ref() is not None for ref in made])
            return product(A, x)
        monkeypatch.setattr(fem, "factor", tracked)
        monkeypatch.setattr(fem, "_longdouble_product", quotient_rows)
        start = np.ones(len(shifted.free))
        fem.refine_on_own_factor(shifted, lambda: start, 2)
        assert alive == [[False], [False]]
        alive.clear()
        fem.refine_eigenpair(shifted, start, 2)
        assert alive == [[False, True], [False, True]]
        assert made[1]() is shifted._lu

    def test_plain_steps_then_two_refined(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        shifted = sysd.shifted(0.5)
        solves = counting_solves(shifted)
        # one solve a step
        for steps, count in ((0, 0), (1, 1), (2, 2), (6, 6)):
            solves.clear()
            fem.refine_eigenpair(shifted, np.ones(len(sysd.free)), steps)
            assert len(solves) == count

    def test_row_block_quotient_matches_the_whole_matrix_product(
            self, sweep_mesh_01):
        # the long-double quotient and residual take K and M_p a block of
        # rows at a time; each row sums in the order of the whole-matrix
        # product, so both come out the same to the bit.  The peak stays
        # below the long-double copy of K's entries alone (9.3 MB), which
        # the whole-matrix product makes beside its index arrays: 7.2 MB
        # against 13.5 MB for that product
        cfg = RunConfig()
        system = fem.assemble(fem.Discretization(sweep_mesh_01),
                              cfg.weight()).shifted(1.6)
        assert len(system.free) > 4 * fem._QUOTIENT_ROWS
        u = fem.refine_eigenpair(system, np.ones(len(system.free)),
                                 2).field.values[system.free]
        tracemalloc.start()
        try:
            pair = fem._inverse_iteration(system, None, u, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ul = u.astype(np.longdouble)
        Ku = system.K.astype(np.longdouble) @ ul
        Mu = system.Mp.astype(np.longdouble) @ ul
        assert np.array_equal(fem._longdouble_product(system.K, ul), Ku)
        assert np.array_equal(fem._longdouble_product(system.Mp, ul), Mu)
        lam = (ul @ Ku) / (ul @ Mu)
        r = Ku - lam * Mu
        assert pair.lam == float(lam)
        assert pair.field.residual == float(np.sqrt(r @ r) / np.sqrt(Ku @ Ku))
        assert peak < system.K.nnz * ul.itemsize

    def test_zero_mass_raises_before_iterating(self):
        # 0/0 in the M_p-normalization would return lam = nan silently
        m = M.build_profile_mesh("HalfMinus", M.MeshConfig(h0=0.6, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel(1.0, 0.0))
        assert sysd.Mp.nnz == 0
        with pytest.raises(ValueError, match="identically zero"):
            fem.refine_eigenpair(sysd.shifted(0.5), np.ones(len(sysd.free)),
                                 3)

    def test_fixed_point(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        pair = lanczos_pairs(sysd, tol=1e-13)[0]
        once = fem.refine_eigenpair(sysd.shifted(0.99 * pair.lam),
                                    pair.field.values[sysd.free], 2)
        twice = fem.refine_eigenpair(sysd.shifted(0.99 * once.lam),
                                     once.field.values[sysd.free], 2)
        assert abs(twice.lam - once.lam) / once.lam < 1e-14

    def test_shift_above_the_ground_eigenvalue_raises(self):
        # K - sigma M_p is indefinite; lam2/lam1 = 2.38 on D+, so the
        # iterate tends to the ground mode, whose quotient lies below sigma
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        pair = lanczos_pairs(sysd, tol=1e-8)[0]
        with pytest.raises(ValueError, match="not above the shift"):
            fem.refine_eigenpair(sysd.shifted(1.05 * pair.lam),
                                 pair.field.values[sysd.free], 2)

    def test_residual_non_increasing(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        pair = lanczos_pairs(sysd, tol=1e-8)[0]
        refined = fem.refine_eigenpair(sysd.shifted(0.99 * pair.lam),
                                       pair.field.values[sysd.free], 4)
        assert refined.field.residual <= pair.field.residual * (1 + 1e-12)

    def test_negated_start_returns_the_normalized_positive_pair(self):
        # inverse iteration keeps the sign of its start; the returned pair
        # has u^T M_p u = 1 from the last step and 1^T M_p u > 0, the sign
        # fixed at steps = 0 too
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        pair = lanczos_pairs(sysd, tol=1e-8)[0]
        start = pair.field.values[sysd.free]
        start = -3.0 * start * np.sign(start @ (sysd.Mp @ np.ones_like(start)))
        shifted = sysd.shifted(0.99 * pair.lam)
        for steps in (0, 2):
            refined = fem.refine_eigenpair(shifted, start, steps)
            u = refined.field.values[sysd.free]
            assert np.sum(sysd.Mp @ u) > 0
            if steps:
                assert u @ (sysd.Mp @ u) == pytest.approx(1.0, rel=1e-14)
            else:
                assert np.array_equal(u, -start)

    def test_eigenvalue_is_rayleigh_quotient_of_vector(self):
        m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
        sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
        pair = lanczos_pairs(sysd, tol=1e-6)[0]
        for steps in (0, 1, 3):
            refined = fem.refine_eigenpair(
                sysd.shifted(0.99 * pair.lam), pair.field.values[sysd.free],
                steps)
            assert refined.lam == pytest.approx(rayleigh(sysd, refined),
                                                rel=1e-13)

    def test_two_scale_recovery(self):
        # synthetic system with a known eigenvector spanning 12 orders of
        # magnitude: K SPD tridiagonal, Mp the rank-one choice making
        # (lam, u) an exact eigenpair of K u = lam Mp u
        n = 40
        rng = np.random.default_rng(3)
        main = 2.0 + rng.uniform(0, 0.1, n)
        K = sp.diags([main, -np.ones(n - 1), -np.ones(n - 1)],
                     [0, -1, 1]).tocsr()
        u_true = np.logspace(0, -12, n)
        lam_true = 0.7
        ku = K @ u_true
        Mp = sp.csr_matrix(np.outer(ku, ku) / (lam_true * (u_true @ ku)))

        u0 = u_true.copy()
        u0[u_true < 1e-6] *= (1 + rng.uniform(-0.5, 0.5, (u_true < 1e-6).sum()))

        class _Stub:
            n_nodes = n

        sysd = fem.AssembledSystem(_Stub(), K, Mp,
                                   np.arange(n), np.empty(0, dtype=np.int64))
        # a perturbed start unshifted, and the sweep's all-ones start
        # shifted to 0.99 lam
        for start, shift in ((u0, 0.0), (np.ones(n), 0.99 * lam_true)):
            refined = fem.refine_eigenpair(sysd.shifted(shift), start, 3)
            got = refined.field.values
            got = got * (u_true[0] / got[0])
            rel = np.abs(got - u_true) / u_true
            assert rel.max() < 1e-4
            assert refined.lam == pytest.approx(lam_true, rel=1e-10)


def test_mass_normalize():
    # eigen_smallest ends in refine_eigenpair, which returns the pair
    # normalized to int p u^2 rho^m = 1 and with a positive weighted mean
    m = M.build_profile_mesh("HalfPlus", M.MeshConfig(h0=0.35, r_out=8.0))
    sysd = fem.assemble(fem.Discretization(m), fem.WeightModel())
    pair = fem.eigen_smallest(sysd, 40)
    v = pair.field.values[sysd.free]
    assert v @ (sysd.Mp @ v) == pytest.approx(1.0, rel=1e-12)
    # ground state positive where the weight lives
    assert pair.field.evaluate(5.5, 0.3) > 0


def test_field_evaluation_and_gradient():
    m = M.build_profile_mesh("HalfMinus", M.MeshConfig(h0=0.4, r_out=8.0))
    disc = fem.Discretization(m)
    f = fem.FieldSolution(disc, disc.nodes[:, 0] ** 2 - disc.nodes[:, 1] ** 2)
    # P2 represents quadratics exactly
    assert f.evaluate(-1.3, 0.7) == pytest.approx(1.3**2 - 0.7**2, rel=1e-12)
    assert np.isnan(f.evaluate(5.0, 5.0))


def brute_force_locate(mesh, pts, tol=1e-10):
    """First cell in index order whose barycentrics (cross products, as
    affine forms in the point, over every cell) are
    all >= -tol; the reference for Discretization.locate."""
    a, b, c = (mesh.vertices[mesh.triangles[:, k]] for k in range(3))

    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    # lam_k det = cross(u - p, v - p) = cross(u, v - u) + p . g, (u, v) the
    # other two vertices in turn and g = (u_y - v_y, v_x - u_x)
    det = cross(b - a, c - a)
    forms = [(np.stack([u[:, 1] - v[:, 1], v[:, 0] - u[:, 0]]),
              cross(u, v - u)) for u, v in ((b, c), (c, a), (a, b))]
    tri = np.full(len(pts), -1)
    bary = np.zeros((len(pts), 3))
    for lo in range(0, len(pts), 64):  # 64 points at a time, all cells
        lam = [(pts[lo:lo + 64] @ g + h) / det for g, h in forms]
        inside = (lam[0] >= -tol) & (lam[1] >= -tol) & (lam[2] >= -tol)
        for i in np.flatnonzero(inside.any(axis=1)):
            tri[lo + i] = first = np.argmax(inside[i])
            hit = np.clip([l[i, first] for l in lam], 0.0, None)
            bary[lo + i] = hit / hit.sum()
    return tri, bary


def tube_and_junction_points(eps, n, rng):
    """n points in the tube box [0, 1] x [0, eps] and n in the junction
    boxes [-2 eps, 2 eps] x [0, 2 eps] about x1 = 0 and x1 = 1."""
    tube = np.stack([rng.uniform(0.0, 1.0, n), rng.uniform(0.0, eps, n)], 1)
    x1 = rng.choice([0.0, 1.0], n) + rng.uniform(-2 * eps, 2 * eps, n)
    junction = np.stack([x1, rng.uniform(0.0, 2 * eps, n)], 1)
    return np.vstack([tube, junction])


class TestLocate:
    def test_matches_brute_force_on_the_sweep_mesh(self, sweep_mesh_01):
        # graded cells, points on shared edges near the tube, and the
        # section x1 = 0.5
        mesh, eps = sweep_mesh_01, 0.1
        rng = np.random.default_rng(11)
        v = mesh.vertices
        table = M.edge_table(mesh.triangles)
        shared = table.edges[table.counts == 2]
        near = shared[np.all(np.abs(v[shared, 1]) <= 2 * eps, axis=1)
                      & np.all(np.abs(v[shared, 0] - 0.5) <= 0.5 + 2 * eps,
                               axis=1)]
        near = near[rng.choice(len(near), 400, replace=False)]
        s = rng.uniform(0.0, 1.0, (len(near), 1))
        pts = np.vstack([
            tube_and_junction_points(eps, 1000, rng),
            v[near[:, 0]] + s * (v[near[:, 1]] - v[near[:, 0]]),
            np.stack([np.full(21, 0.5), np.linspace(0.0, eps, 21)], 1),
        ])
        disc = fem.Discretization(mesh)
        tri, bary = disc.locate(pts[:, 0], pts[:, 1])
        ref_tri, ref_bary = brute_force_locate(mesh, pts)
        assert np.all(tri[:1000] >= 0)  # the tube box lies in the mesh
        assert np.array_equal(tri, ref_tri)
        assert np.allclose(bary, ref_bary, rtol=0.0, atol=1e-12)

    def test_cell_within_the_slack_across_a_bucket_line(self):
        # four cells give bucket lines at the centroid x of cells 1-3; the
        # first sits 1e-12 right of cell 0's edge x1 = 0.5, and a point
        # 2e-12 right of that edge is in cell 0 within the 1e-10 slack
        v = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0],
                      [0.25, 5.0], [0.75, 5.0], [0.5 + 3e-12, 6.0],
                      [2.0, 0.0], [2.5, 0.0], [2.0, 1.0],
                      [3.0, 0.0], [3.5, 0.0], [3.0, 1.0]])
        t = np.arange(12).reshape(4, 3)
        mesh = M.MeridianMesh(v, t, 3)
        pts = np.array([[0.5 + 2e-12, 0.5]])
        tri, _ = fem.Discretization(mesh).locate(pts[:, 0], pts[:, 1])
        assert tri.tolist() == [0]
        assert np.array_equal(tri, brute_force_locate(mesh, pts)[0])

    def test_few_candidates_per_point_on_the_sweep_mesh(self, sweep_mesh_01):
        # quantile bucket lines follow the grading: tube and junction
        # points meet about 24 candidate cells each (a uniform grid of
        # sqrt(cells) lines gave about 500)
        disc = fem.Discretization(sweep_mesh_01)
        disc._build_locator()
        lines, ny, _, start = disc._locator[:4]
        pts = tube_and_junction_points(0.1, 1000, np.random.default_rng(5))
        ij = disc._bucket_ij(pts, lines)
        bucket = ij[:, 0] * ny + ij[:, 1]
        assert np.mean(start[bucket + 1] - start[bucket]) <= 64

    def test_matches_brute_force_scan(self):
        mesh = M.build_dumbbell_mesh(M.MeshConfig(h0=0.3, eps=0.2, levels=4,
                                                  r_out=7.0))
        disc = fem.Discretization(mesh)
        rng = np.random.default_rng(7)
        v = mesh.vertices
        table = M.edge_table(mesh.triangles)
        shared = table.edges[table.counts == 2]
        s = rng.uniform(0.0, 1.0, (len(shared), 1))
        lo, hi = v.min(axis=0), v.max(axis=0)
        pts = np.vstack([
            rng.uniform(lo - 0.5, hi + 0.5, (1500, 2)),  # inside and out
            v,
            v[shared[:, 0]] + s * (v[shared[:, 1]] - v[shared[:, 0]]),
            [[0.5, 0.5], [0.5, -0.1], [-20.0, 1.0], [30.0, 30.0],
             [np.nan, 1.0]],
        ])
        tri, bary = disc.locate(pts[:, 0], pts[:, 1])
        ref_tri, ref_bary = brute_force_locate(mesh, pts)
        assert np.array_equal(tri, ref_tri)
        assert np.all(tri[len(pts) - 5:] == -1)  # gap, far and NaN points
        assert np.all(tri[1500:1500 + len(v)] >= 0)
        assert np.allclose(bary, ref_bary, rtol=0.0, atol=1e-12)

    def test_memory_bounded_in_crowded_buckets(self, sweep_mesh_01):
        # 20 000 tube points of the level-1 eps = 0.1 mesh: the (point,
        # candidate) pairs are tested in batches, so the memory stays
        # bounded however many points and candidates a bucket holds
        disc = fem.Discretization(sweep_mesh_01)
        rng = np.random.default_rng(3)
        x1 = rng.uniform(0.0, 1.0, 20000)
        rho = rng.uniform(0.0, 0.1, 20000)
        tracemalloc.start()
        try:
            tri, _ = disc.locate(x1, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(tri >= 0)
        assert peak < 64e6
