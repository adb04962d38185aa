import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from dumbbell import cross_section as cs

J0_FIRST_ZERO = 2.404825557695773


def shoot_radial_ode(lam, n, r_end=1.0, steps=20000):
    """Independent oracle: integrate psi'' + (n-2)/r psi' + lam psi = 0 from
    r=0 (psi=1, psi'=0) and return psi(r_end).  RK4 with series start."""
    h = r_end / steps
    r = 1e-6
    # series start: psi = 1 - lam r^2 / (2(n-1)) + O(r^4)
    psi = 1.0 - lam * r * r / (2.0 * (n - 1))
    dpsi = -lam * r / (n - 1)

    def rhs(r, y):
        psi, dpsi = y
        return np.array([dpsi, -(n - 2) / r * dpsi - lam * psi])

    y = np.array([psi, dpsi])
    while r < r_end - 1e-12:
        step = min(h, r_end - r)
        k1 = rhs(r, y)
        k2 = rhs(r + step / 2, y + step / 2 * k1)
        k3 = rhs(r + step / 2, y + step / 2 * k2)
        k4 = rhs(r + step, y + step * k3)
        y = y + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        r += step
    return y[0]


class TestDiskGroundMode:
    def test_sqrt_lambda1_n3_matches_j0_zero(self):
        mode = cs.disk_ground_mode(3)
        assert mode.sqrt_lambda1 == pytest.approx(J0_FIRST_ZERO, rel=1e-12)
        assert mode.lambda1 == pytest.approx(5.783185962946785, rel=1e-12)

    def test_shooting_oracle_n3(self):
        # independent 1D radial ODE shooting: psi crosses zero at r=1 exactly
        # when lam = lambda1
        mode = cs.disk_ground_mode(3)
        val = shoot_radial_ode(mode.lambda1, 3)
        assert abs(val) < 1e-8

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_matches_scipy_bessel_zero(self, n):
        import scipy.optimize

        nu = 0.5 * (n - 3)
        mode = cs.disk_ground_mode(n)
        expected = scipy.optimize.brentq(
            lambda x: scipy.special.jv(nu, x),
            mode.sqrt_lambda1 - 0.5, mode.sqrt_lambda1 + 0.5, xtol=1e-14)
        assert mode.sqrt_lambda1 == pytest.approx(expected, rel=1e-12)

    def test_dirichlet_boundary(self):
        mode = cs.disk_ground_mode(3)
        assert abs(float(mode.psi1(1.0))) < 1e-12

    def test_positive_inside(self):
        mode = cs.disk_ground_mode(3)
        r = np.linspace(0.0, 0.999, 200)
        assert np.all(mode.psi1(r) > 0)

    def test_l2_normalized(self):
        mode = cs.disk_ground_mode(3)
        # independent quadrature (scipy) of 2*pi*int psi^2 r dr
        val, _ = scipy.integrate.quad(lambda r: float(mode.psi1(r)) ** 2 * r, 0, 1)
        assert 2 * math.pi * val == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("n", [3, 4])
    def test_radial_ode_residual(self, n):
        mode = cs.disk_ground_mode(n)
        r = np.linspace(0.05, 0.95, 20)
        h = 1e-5
        d2 = (mode.psi1(r + h) - 2 * mode.psi1(r) + mode.psi1(r - h)) / h**2
        d1 = mode.psi1_deriv(r)
        resid = d2 + (n - 2) / r * d1 + mode.lambda1 * mode.psi1(r)
        assert np.max(np.abs(resid)) < 1e-5  # FD-limited; exact check below

    def test_deriv_matches_fd(self):
        mode = cs.disk_ground_mode(3)
        r = np.linspace(0.1, 0.9, 9)
        h = 1e-6
        fd = (mode.psi1(r + h) - mode.psi1(r - h)) / (2 * h)
        assert np.allclose(mode.psi1_deriv(r), fd, atol=1e-8)

    def test_memoized(self):
        # the Bessel zero scan runs once per dimension and mode
        assert cs.disk_ground_mode(3) is cs.disk_ground_mode(3)


class TestUpsilonAndSphereModes:
    def test_upsilon_3_closed_form(self):
        assert cs.upsilon(3) == pytest.approx(math.sqrt(2 * math.pi / 3), rel=1e-15)
        assert cs.upsilon(3) == pytest.approx(1.4472025091165353, abs=1e-12)

    def test_psi_plus_at_pole(self):
        # Psi+ = theta_1 / Upsilon_N at theta_1 = 1
        assert 1.0 / cs.upsilon(3) == pytest.approx(0.690988298942671, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 7])
    @pytest.mark.parametrize("sign", [-1, 1])
    def test_half_sphere_normalization(self, n, sign):
        # int_{S_sign} (Psi^sign)^2 dsigma = 1 via the polar quadrature
        a, b = (0.0, math.pi / 2) if sign > 0 else (math.pi / 2, math.pi)
        phi, w = cs.gauss_legendre(64, a, b)
        integrand = (sign * np.cos(phi) / cs.upsilon(n)) ** 2 * np.sin(phi) ** (n - 2)
        val = cs.sphere_surface_area(n - 2) * np.sum(w * integrand)
        assert val == pytest.approx(1.0, rel=1e-12)

    def test_psi_minus_eigen_identity(self):
        # -Delta_sphere Psi- = (N-1) Psi- for N=3: Psi-(phi) = -cos(phi)/Ups;
        # spherical Laplacian on S^2 of f(phi): (sin(phi) f')'/sin(phi)
        ups = cs.upsilon(3)
        phi = np.linspace(math.pi / 2 + 0.1, math.pi - 0.1, 20)
        h = 1e-3

        def f(p):
            return -np.cos(p) / ups

        lap = (np.sin(phi + h / 2) * (f(phi + h) - f(phi)) / h
               - np.sin(phi - h / 2) * (f(phi) - f(phi - h)) / h) / (h * np.sin(phi))
        resid = -lap - 2.0 * f(phi)
        assert np.max(np.abs(resid)) < 1e-5


class TestProjections:
    def test_linear_field_projects_to_upsilon_r(self):
        for n in (3, 4):
            for r in (0.5, 1.0, 2.0):
                val = cs.project_sphere(lambda x1, rho: x1 - 1.0, 1.0, r, +1, n)
                assert val == pytest.approx(cs.upsilon(n) * r, rel=1e-13)

    def test_singular_kernel_projection(self):
        # field x1/|x|^3 about 0, minus side: -Upsilon_3 * r^-2
        def fld(x1, rho):
            rr = np.sqrt(x1**2 + rho**2)
            return x1 / rr**3

        for r in (0.5, 1.0, 2.0):
            val = cs.project_sphere(fld, 0.0, r, -1, 3)
            assert val == pytest.approx(-cs.upsilon(3) / r**2, rel=1e-13)

    def test_zero_field(self):
        assert cs.project_sphere(lambda x1, rho: 0.0 * x1, 0.0, 1.0, -1) == 0.0

    def test_section_orthonormality(self):
        mode = cs.disk_ground_mode(3)
        eps, t = 0.2, 0.5
        growth = math.exp(mode.sqrt_lambda1 * t)

        def fld(x1, rho):
            return growth * mode.psi1(rho / eps)

        val = cs.project_section(fld, t, eps, mode)
        assert val == pytest.approx(growth, rel=1e-12)

    def test_section_orthogonality_second_mode(self):
        mode = cs.disk_ground_mode(3)
        mode2 = cs._disk_mode(3, 2)
        eps = 0.3

        def fld(x1, rho):
            return mode2.psi1(rho / eps)

        val = cs.project_section(fld, 0.5, eps, mode)
        assert abs(val) < 1e-12

    def test_constant_field_bessel_integral(self):
        # int_Sigma psi1 dx' = 2*sqrt(pi)/j01 for N=3
        mode = cs.disk_ground_mode(3)
        val = cs.project_section(lambda x1, rho: np.ones_like(rho), 0.0, 1.0, mode)
        assert val == pytest.approx(2 * math.sqrt(math.pi) / J0_FIRST_ZERO, rel=1e-12)
        assert val == pytest.approx(1.474, abs=5e-4)

    def test_quadrature_order_insensitivity(self):
        # the 64-point polar rule agrees with a 128-point rule on a
        # polynomial projection to < 1e-12
        def poly(x1, rho):
            return (x1 - 1.0) ** 3 + rho**4 * (x1 - 1.0) + rho**8

        v64 = cs.project_sphere(poly, 1.0, 1.3, +1, 3)
        x, w = np.polynomial.legendre.leggauss(128)
        phi = 0.25 * math.pi * (x + 1.0)
        r = 1.3
        integrand = poly(1.0 + r * np.cos(phi), r * np.sin(phi)) \
            * np.cos(phi) / cs.upsilon(3) * np.sin(phi)
        v128 = cs.sphere_surface_area(1) * 0.25 * math.pi * float(
            np.sum(w * integrand))
        assert abs(v64 - v128) < 1e-12 * max(1.0, abs(v64))

    def test_half_sphere_mass_kernel(self):
        # field = Psi-(theta)|x|^(1-N): int_{Gamma_t} f^2 = t^(N-1) t^(2-2N)
        ups = cs.upsilon(3)

        def fld(x1, rho):
            rr = np.sqrt(x1**2 + rho**2)
            return (-x1 / rr / ups) * rr ** (-2)

        for t in (0.5, 1.5):
            val = cs.half_sphere_mass(fld, 0.0, t, -1, 3)
            assert val == pytest.approx(t ** (3 - 1) * t ** (2 - 2 * 3), rel=1e-12)
