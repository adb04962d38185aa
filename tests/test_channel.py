import math

import numpy as np
import pytest

from dumbbell import channel as C
from dumbbell import cross_section as cs
from dumbbell.scaled import ScaledAmplitude

MODE = cs.disk_ground_mode(3)
SL1 = MODE.sqrt_lambda1
UPS = cs.upsilon(3)


class TestHtilde:
    def test_pullback_mode_is_normalized(self):
        eps = 0.2
        fld = lambda t, rho: MODE.psi1(rho / eps)
        ht, hc = C.htilde(fld, 0.5, eps)
        assert ht == pytest.approx(1.0, rel=1e-12)
        assert hc == pytest.approx(eps ** 2, rel=1e-12)

    def test_quadratic_scaling(self):
        eps = 0.2
        fld = lambda t, rho: MODE.psi1(rho / eps)
        fld2 = lambda t, rho: 2.0 * fld(t, rho)
        assert C.htilde(fld2, 0.5, eps)[0] == pytest.approx(
            4.0 * C.htilde(fld, 0.5, eps)[0], rel=1e-13)

    def test_pure_growing_mode_ratio(self):
        eps = 0.25
        k = SL1 / eps
        fld = lambda t, rho: np.exp(k * (t - 1.0)) * MODE.psi1(rho / eps)
        r1, r2 = 0.4, 0.7
        ratio = C.htilde(fld, r2, eps)[0] / C.htilde(fld, r1, eps)[0]
        assert ratio == pytest.approx(math.exp(2 * k * (r2 - r1)), rel=1e-11)

    def test_domain_errors(self):
        fld = lambda t, rho: 0.0 * t
        with pytest.raises(ValueError):
            C.htilde(fld, 1.2, 0.2)
        with pytest.raises(ValueError):
            C.htilde(fld, -0.1, 0.2)
        with pytest.raises(ValueError):
            C.htilde(fld, 0.5, 0.0)


class TestHminus:
    def test_surface_mode_kernel(self):
        # Psi-(x/|x|) |x|^(1-N): H-(t) = t^(2(1-N)), using int (Psi-)^2 = 1
        fld = lambda x1, rho: (-x1 / np.hypot(x1, rho)) / UPS \
            * np.hypot(x1, rho) ** -2.0
        for t in (0.3, 0.7, 1.4):
            assert C.hminus(fld, t) == pytest.approx(t ** -4.0, rel=1e-12)

    def test_zero_field(self):
        assert C.hminus(lambda x1, rho: 0.0 * x1, 0.5) == 0.0

    def test_dipole_kernel_constant(self):
        fld = lambda x1, rho: x1 / np.hypot(x1, rho) ** 3
        for t in (0.5, 1.0):
            val = C.hminus(fld, t) * t ** 4
            assert val == pytest.approx(2.0 * math.pi / 3.0, rel=1e-12)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            C.hminus(lambda x1, rho: x1, 0.0)


class TestModeFit:
    def synth(self, A, B, eps, ts):
        k = SL1 / eps
        return [(t, A * math.exp(k * (t - 1)) + B * math.exp(-k * (t - 1)))
                for t in ts]

    def test_exact_round_trip_balanced_window(self):
        """Near t = 1 the two exponentials have comparable size and both
        coefficients come back at double precision."""
        eps = 0.2
        ts = np.linspace(0.7, 1.0, 13)
        fit = C.fit_channel_mode(self.synth(3.0, 5.0, eps, ts), eps, SL1)
        assert fit.A.to_float() == pytest.approx(3.0, rel=1e-12)
        assert fit.B.to_float() == pytest.approx(5.0, rel=1e-12)
        assert fit.b_resolved
        assert fit.residual < 1e-12

    def test_round_trip_deep_window(self):
        """Mid-tube the decaying term dominates by ~5 decades: B is exact,
        while A carries the unavoidable cancellation floor of the
        double-rounded samples (about 1e-11 here, not improvable by any
        solver given rounded inputs)."""
        eps = 0.2
        ts = np.linspace(0.4, 0.6, 9)
        fit = C.fit_channel_mode(self.synth(3.0, 5.0, eps, ts), eps, SL1)
        assert fit.A.to_float() == pytest.approx(3.0, rel=1e-10)
        assert fit.B.to_float() == pytest.approx(5.0, rel=1e-12)
        assert fit.b_resolved
        assert fit.residual < 1e-12

    def test_pure_growing_flags_b(self):
        eps = 0.2
        ts = np.linspace(0.55, 0.85, 13)
        fit = C.fit_channel_mode(self.synth(2.0, 0.0, eps, ts), eps, SL1)
        assert fit.A.to_float() == pytest.approx(2.0, rel=1e-10)
        if fit.b_resolved:
            assert abs(fit.B.to_float()) < 1e-12 * 2.0
        else:
            assert fit.B.is_zero()

    def test_deep_one_mode_window_never_fakes_b(self):
        """B at its physical e^(-2 sqrt(l1)/eps) scale is far below the
        window's noise floor; it must come back unresolved, not as noise."""
        eps = 0.1
        ts = np.linspace(0.55, 0.85, 13)
        b_true = math.exp(-2.0 * SL1 / eps)
        fit = C.fit_channel_mode(self.synth(1.0, b_true, eps, ts), eps, SL1)
        assert not fit.b_resolved
        assert fit.B.is_zero()

    def test_higher_mode_contamination_bound(self):
        """A second-transverse-mode admixture is the physical fit error
        model; the relative residual must track its e^(-(k2-k1)w) scale."""
        eps = 0.25
        mode2 = cs._disk_mode(3, 2)
        k1, k2 = SL1 / eps, mode2.sqrt_lambda1 / eps
        ts = np.linspace(0.55, 0.85, 13)
        ys = [(t, math.exp(k1 * (t - 1)) + 0.3 * math.exp(k2 * (t - 1)))
              for t in ts]
        fit = C.fit_channel_mode(ys, eps, SL1)
        bound = 10.0 * math.exp(-(mode2.sqrt_lambda1 - SL1) * 0.3 / eps)
        assert fit.residual < bound

    def test_round_trip_through_propagate(self):
        eps = 0.2
        ts = np.linspace(0.45, 0.75, 9)
        pts = self.synth(1.5, -0.7, eps, ts)
        fit = C.fit_channel_mode(pts, eps, SL1)
        for t, v in pts:
            assert C.propagate(fit, t).to_float() == pytest.approx(
                v, rel=1e-10)

    def test_input_validation(self):
        eps = 0.2
        with pytest.raises(ValueError):
            C.fit_channel_mode(self.synth(1, 1, eps, [0.4, 0.5, 0.6]),
                               eps, SL1)
        with pytest.raises(ValueError):
            C.fit_channel_mode(self.synth(1, 1, eps,
                                          np.linspace(0.5, 0.6, 6)),
                               eps, SL1)
        with pytest.raises(ValueError):
            C.fit_channel_mode([(t, 0.0) for t in np.linspace(0.4, 0.7, 7)],
                               eps, SL1)


def mode_fit(eps, A, B):
    return C.ModeFit(eps, SL1, A, B, (0.0, 1.0), 0.0, True)


class TestPropagate:
    def test_endpoint_is_sum(self):
        fit = mode_fit(0.2, ScaledAmplitude.from_float(3.0),
                       ScaledAmplitude.from_float(5.0))
        assert C.propagate(fit, 1.0).to_float() == pytest.approx(8.0, rel=1e-14)

    def test_extreme_exponent_exact(self):
        fit = mode_fit(0.01, ScaledAmplitude.from_float(1.0),
                       ScaledAmplitude.zero())
        out = C.propagate(fit, 0.0)
        assert out.sign == 1
        assert out.log_abs == pytest.approx(-SL1 / 0.01, rel=1e-14)
        assert -SL1 / 0.01 == pytest.approx(-240.4825557695773, abs=1e-10)

    def test_no_overflow_at_tiny_eps(self):
        fit = mode_fit(1e-6, ScaledAmplitude.from_float(2.0),
                       ScaledAmplitude.from_float(1.0))
        out = C.propagate(fit, 0.0)
        # the decaying-mode term dominates by e^(2 sqrt(l1)/eps)
        assert out.log_abs == pytest.approx(SL1 / 1e-6 + math.log(1.0),
                                            rel=1e-12)


class TestSphericalFit:
    def test_exact_recovery(self):
        rs = [0.3, 0.6, 1.1, 2.0, 2.8]
        pts = [(r, 2.0 * r - 0.5 * r ** -2) for r in rs]
        fit = C.spherical_fit(pts, n=3)
        assert fit.alpha == pytest.approx(2.0, abs=1e-12)
        assert fit.beta == pytest.approx(-0.5, abs=1e-12)
        assert fit.d == pytest.approx(1.5, abs=1e-12)
        assert fit.residual < 1e-12

    def test_pure_decay_gives_d(self):
        pts = [(r, r ** -2.0) for r in (0.4, 0.8, 1.6, 2.4)]
        fit = C.spherical_fit(pts, n=3)
        assert fit.d == pytest.approx(-3.0, abs=1e-10)

    def test_d_relation_exact(self):
        pts = [(r, 1.3 * r + 0.7 * r ** -2) for r in (0.5, 1.0, 2.0)]
        fit = C.spherical_fit(pts, n=3)
        assert fit.d == -3.0 * fit.beta

    def test_input_validation(self):
        with pytest.raises(ValueError):
            C.spherical_fit([(1.0, 2.0)])
        with pytest.raises(ValueError):
            C.spherical_fit([(-1.0, 2.0), (1.0, 2.0)])
