import numpy as np
import pytest

from phasecap.errors import DomainError
from phasecap.mathcore import (
    DEFAULT_QUADRATURE,
    TWO_PI,
    rician_phase_pdf,
    wrap_truncation_order,
    wrapped_gaussian_cdf,
    wrapped_gaussian_entropy,
    wrapped_gaussian_pdf,
    _panel_nodes,
)

SIGMA_6DEG = np.deg2rad(6.0)


def wrapped_pdf_oracle(delta, sigma, n_terms=10_000):
    """Direct evaluation of the untruncated wrapped sum."""
    ells = np.arange(-n_terms, n_terms + 1)
    return np.exp(-0.5 * ((delta - TWO_PI * ells) / sigma) ** 2).sum() / (
        sigma * np.sqrt(TWO_PI)
    )


class TestWrappedGaussianPdf:
    def test_large_sigma_uniform_limit(self):
        for delta in [0.0, 1.0, np.pi, 5.0]:
            assert wrapped_gaussian_pdf(delta, 10.0) == pytest.approx(1 / TWO_PI, abs=1e-6)

    @pytest.mark.parametrize("sigma", [SIGMA_6DEG, 0.5, 3.0])
    def test_normalization(self, sigma):
        total = DEFAULT_QUADRATURE.integrate(
            lambda d: wrapped_gaussian_pdf(d, sigma), 0.0, TWO_PI
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_peak_value_vs_series_oracle(self):
        # frozen from the 1e4-term lattice oracle
        assert wrapped_gaussian_pdf(0.0, SIGMA_6DEG) == pytest.approx(
            3.809618156054458, abs=1e-9
        )
        assert wrapped_gaussian_pdf(0.0, SIGMA_6DEG) == pytest.approx(
            wrapped_pdf_oracle(0.0, SIGMA_6DEG), rel=1e-12
        )

    def test_random_points_vs_series_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            delta = rng.uniform(0, TWO_PI)
            sigma = rng.uniform(0.05, 4.0)
            assert wrapped_gaussian_pdf(delta, sigma) == pytest.approx(
                wrapped_pdf_oracle(delta, sigma), rel=1e-12
            )

    def test_periodic_and_symmetric(self):
        d = np.linspace(0.1, 3.0, 7)
        f = wrapped_gaussian_pdf(d, 0.7)
        assert np.allclose(f, wrapped_gaussian_pdf(d + TWO_PI, 0.7), rtol=1e-13)
        assert np.allclose(f, wrapped_gaussian_pdf(-d, 0.7), rtol=1e-13)

    def test_strictly_positive(self):
        assert wrapped_gaussian_pdf(np.pi, 0.05) > 0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            wrapped_gaussian_pdf(0.1, 0.0)
        with pytest.raises(DomainError):
            wrapped_gaussian_pdf(0.1, -1.0)


class TestWrappedGaussianEntropy:
    def test_uniform_limit(self):
        assert wrapped_gaussian_entropy(10.0) == pytest.approx(np.log(TWO_PI), abs=1e-6)

    def test_small_sigma_gaussian_formula(self):
        expected = 0.5 * np.log(2 * np.pi * np.e * SIGMA_6DEG**2)
        assert wrapped_gaussian_entropy(SIGMA_6DEG) == pytest.approx(expected, abs=1e-3)

    def test_monotone_and_bounded(self):
        values = [wrapped_gaussian_entropy(s) for s in [np.deg2rad(3), SIGMA_6DEG, 0.5, 2.0, 10.0]]
        assert all(a < b + 1e-12 for a, b in zip(values, values[1:]))
        assert all(v <= np.log(TWO_PI) + 1e-12 for v in values)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            wrapped_gaussian_entropy(-0.1)


class TestWrappedGaussianType:
    def test_truncation_order_default(self):
        order = wrap_truncation_order(SIGMA_6DEG)
        assert order >= 2
        # first omitted term below 1e-16 of the peak
        omitted = np.exp(-0.5 * ((TWO_PI * (order + 1)) / SIGMA_6DEG) ** 2)
        assert omitted < 1e-16

    def test_cdf_matches_pdf(self):
        sigma, a, b = 0.8, 0.3, 2.1
        mass = DEFAULT_QUADRATURE.integrate(lambda d: wrapped_gaussian_pdf(d, sigma), a, b)
        assert wrapped_gaussian_cdf(b, sigma) - wrapped_gaussian_cdf(a, sigma) == pytest.approx(
            mass, abs=1e-10
        )


class TestRicianPhasePdf:
    def test_zero_snr_uniform(self):
        phi = np.linspace(-10.0, 10.0, 100_001)
        assert np.all(rician_phase_pdf(phi, 0.0) == 1 / TWO_PI)
        value = rician_phase_pdf(0.3, 0.0)
        assert type(value) is float and value == 1 / TWO_PI

    @pytest.mark.parametrize("a", [0.5, 10.0, 1e4])
    def test_normalization(self, a):
        total = DEFAULT_QUADRATURE.integrate(lambda p: rician_phase_pdf(p, a), -np.pi, np.pi)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_nonnegative_everywhere(self):
        phi = np.linspace(-np.pi, np.pi, 4001)
        for a in [0.3, 3.0, 300.0, 3e4]:
            assert np.all(rician_phase_pdf(phi, a) >= 0.0)

    def test_monte_carlo_histogram_oracle(self):
        a = 10.0
        n = 10_000_000
        rng = np.random.default_rng(2024)
        z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * np.sqrt(0.5)
        phi = np.angle(1.0 + z / np.sqrt(a))
        width = 0.02
        frac = np.mean(np.abs(phi) < width / 2)
        se = np.sqrt(frac * (1 - frac) / n)
        density = frac / width
        # bin-averaged density vs midpoint value: second-order correction is tiny
        assert rician_phase_pdf(0.0, a) == pytest.approx(density, abs=3 * se / width + 2e-4)

    def test_concentration_entropy(self):
        a = 1e4
        h = DEFAULT_QUADRATURE.integrate(
            lambda p: -rician_phase_pdf(p, a) * np.log(rician_phase_pdf(p, a)),
            -np.pi,
            np.pi,
        )
        expected = 0.5 * np.log(2 * np.pi * np.e / (2 * a))
        assert h == pytest.approx(expected, rel=0.01)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            rician_phase_pdf(0.0, -1.0)


class TestQuadrature:
    def test_known_integral(self):
        assert DEFAULT_QUADRATURE.integrate(np.sin, 0.0, np.pi) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic(self):
        f = lambda x: np.exp(-(x**2)) * np.cos(3 * x)
        assert DEFAULT_QUADRATURE.integrate(f, -4, 5) == DEFAULT_QUADRATURE.integrate(f, -4, 5)

    def test_one_rule_and_bounded_node_cache(self, monkeypatch):
        # the Gauss-Legendre rule is built once, not per quadrature, and the
        # panel-node cache holds a few entries, not one per interval
        _panel_nodes.cache_clear()

        def no_rebuild(n):
            raise AssertionError("Gauss-Legendre rule rebuilt")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rebuild)
        value = DEFAULT_QUADRATURE.integrate(lambda x: np.exp(-(x**2)), -9.0, 9.0)
        assert value == pytest.approx(np.sqrt(np.pi), rel=1e-12)
        maxsize = _panel_nodes.cache_info().maxsize
        assert maxsize is not None and maxsize <= 16

    def test_empty_interval(self):
        with pytest.raises(DomainError):
            DEFAULT_QUADRATURE.integrate(np.sin, 1.0, 1.0)
