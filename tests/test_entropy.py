import numpy as np
import pytest
from scipy import special
from scipy.interpolate import PchipInterpolator

from phasecap import entropy
from phasecap.entropy import (
    LOG_2PI,
    clear_tables,
    entropy_abs_sq,
    entropy_delta_plus_phase,
    expect_log_noncentral,
    sample_circular_gaussian,
)
from phasecap.errors import ConfigurationError, DomainError
from phasecap.mathcore import wrapped_gaussian_entropy

SIGMA_6DEG = np.deg2rad(6.0)
EULER_GAMMA = 0.5772156649015329


def mc_abs_sq_samples(xi, m, n, seed):
    rng = np.random.default_rng(seed)
    z = sample_circular_gaussian(rng, (n, m))
    z[:, 0] += xi
    return np.sum(np.abs(z) ** 2, axis=1)


class TestExpectLogNoncentral:
    def test_central_exponential(self):
        assert expect_log_noncentral(0.0, 1) == pytest.approx(-EULER_GAMMA, abs=1e-9)
        assert expect_log_noncentral(0.0, 1) == special.digamma(1)

    def test_central_gamma2(self):
        assert expect_log_noncentral(0.0, 2) == pytest.approx(
            1.0 - EULER_GAMMA, abs=1e-9
        )
        assert expect_log_noncentral(0.0, 2) == special.digamma(2)

    def test_vs_monte_carlo(self):
        t = mc_abs_sq_samples(4.0, 1, 10_000_000, seed=7)
        logs = np.log(t)
        se = logs.std() / np.sqrt(logs.size)
        assert expect_log_noncentral(4.0, 1) == pytest.approx(logs.mean(), abs=3 * se)

    @pytest.mark.parametrize("xi,m", [(1.0, 1), (2.0, 2), (5.0, 3)])
    def test_quadrature_vs_mc_grid(self, xi, m):
        t = mc_abs_sq_samples(xi, m, 1_000_000, seed=int(10 * xi) + m)
        logs = np.log(t)
        se = logs.std() / np.sqrt(logs.size)
        assert expect_log_noncentral(xi, m) == pytest.approx(logs.mean(), abs=3 * se)

    def test_high_amplitude_limit(self):
        assert expect_log_noncentral(100.0, 1) == pytest.approx(
            2 * np.log(100.0), rel=0.01
        )

    @pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0, 80.0])
    def test_m1_is_log_plus_exponential_integral(self, snr_db):
        # the duality optimizer's xi grid; ln(lam) + E1(lam) is undefined at 0
        for xi in np.linspace(0.0, np.sqrt(10 ** (snr_db / 10)), 64)[1:]:
            lam = xi * xi
            expected = np.log(lam) + special.exp1(lam)
            assert expect_log_noncentral(xi, 1) == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_survival_series(self, m):
        # E psi(m + K), K ~ Poisson(lam), summed as psi(m) + sum_k P(K > k) / (m + k)
        for xi in np.linspace(0.0, 30.0, 64):
            lam = xi * xi
            k = np.arange(int(lam + 12 * xi + 40) + 1)
            expected = special.digamma(m) + np.sum(special.pdtrc(k, lam) / (m + k))
            assert expect_log_noncentral(xi, m) == pytest.approx(expected, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            expect_log_noncentral(-1.0, 1)
        with pytest.raises(DomainError):
            expect_log_noncentral(1.0, 0)


class TestEntropyAbsSq:
    def test_exponential_case(self):
        assert entropy_abs_sq(0.0) == pytest.approx(1.0, abs=1e-9)

    def test_large_xi_gaussian_limit(self):
        expected = 0.5 * np.log(2 * np.pi * np.e * 2 * 10.0**2)
        assert entropy_abs_sq(10.0) == pytest.approx(expected, rel=0.01)

    def test_vs_mc_plugin(self):
        # plug-in estimate -mean(log p(t)) with the known density
        xi = 1.0
        t = mc_abs_sq_samples(xi, 1, 10_000_000, seed=13)
        logp = -(t + xi**2) + np.log(special.ive(0, 2 * xi * np.sqrt(t))) + 2 * xi * np.sqrt(t)
        se = logp.std() / np.sqrt(logp.size)
        assert entropy_abs_sq(xi) == pytest.approx(-logp.mean(), abs=3 * se)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            entropy_abs_sq(-0.5)

    def test_memo_hit_equals_a_fresh_quadrature(self):
        entropy_abs_sq.cache_clear()
        xis = [0.0, 0.37, 3.1622776601683795, 10.0]
        first = [entropy_abs_sq(x) for x in xis]
        again = [entropy_abs_sq(x) for x in xis]
        assert entropy_abs_sq.cache_info().hits == len(xis)
        assert again == first == [entropy_abs_sq.__wrapped__(x) for x in xis]


class TestEntropyDeltaPlusPhase:
    def test_zero_amplitude_uniform(self):
        value, se = entropy_delta_plus_phase(0.0, SIGMA_6DEG, 1000, seed=1)
        assert value == pytest.approx(LOG_2PI, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_large_sigma_uniform(self):
        value, _ = entropy_delta_plus_phase(3.0, 10.0, 1000, seed=1)
        assert value == pytest.approx(LOG_2PI, abs=1e-4)

    def test_bitwise_reproducible(self):
        xi = np.sqrt(10.0**2.0)
        a = entropy_delta_plus_phase(xi, SIGMA_6DEG, 5000, seed=99)
        b = entropy_delta_plus_phase(xi, SIGMA_6DEG, 5000, seed=99)
        assert a == b
        assert isinstance(a, tuple) and all(type(v) is float for v in a)

    def test_lower_bounded_by_increment_entropy(self):
        h_delta = wrapped_gaussian_entropy(SIGMA_6DEG)
        for xi in [0.0, 0.5, 2.0, 10.0, 31.6]:
            value, se = entropy_delta_plus_phase(xi, SIGMA_6DEG, 4000, seed=5)
            assert value >= h_delta - 3 * se - 1e-9

    def test_monotone_nonincreasing_in_xi(self):
        values = [
            entropy_delta_plus_phase(xi, SIGMA_6DEG, 20_000, seed=17)
            for xi in [0.0, 1.0, 3.0, 10.0, 30.0]
        ]
        for (lo, lo_se), (hi, hi_se) in zip(values[1:], values[:-1]):
            assert lo <= hi + 3 * np.hypot(lo_se, hi_se)

    def test_mc_oracle_cross_check(self):
        # brute-force sample Delta + phi0 given r, plug-in with the exact
        # convolution density evaluated by the production path at a single
        # kappa (the inner entropy is deterministic given r)
        xi, sigma = 2.0, 0.3
        rng = np.random.default_rng(31)
        z = sample_circular_gaussian(rng, 200_000)
        r = np.abs(xi + z)
        value, _ = entropy_delta_plus_phase(xi, sigma, 200_000, seed=31)
        # independent oracle: h = E_r[h_vm_conv(2 r xi)] with the inner
        # entropy computed by direct quadrature of the convolution integral
        from phasecap.mathcore import DEFAULT_QUADRATURE, TWO_PI, wrapped_gaussian_pdf

        def inner_entropy(kappa, nodes=4096):
            u = TWO_PI * np.arange(nodes) / nodes
            phi = TWO_PI * np.arange(nodes) / nodes
            vm = np.exp(kappa * (np.cos(phi) - 1.0))
            vm /= vm.sum() * (TWO_PI / nodes)
            wg = wrapped_gaussian_pdf(u, sigma)
            # circular convolution via FFT of sampled densities
            f = np.fft.irfft(np.fft.rfft(wg) * np.fft.rfft(vm), nodes) * (TWO_PI / nodes)
            f = np.maximum(f, 1e-300)
            return -(TWO_PI / nodes) * np.sum(f * np.log(f))

        sub = rng.choice(r, size=400, replace=False)
        oracle = np.mean([inner_entropy(2 * ri * xi) for ri in sub])
        se = np.std([inner_entropy(2 * ri * xi) for ri in sub]) / np.sqrt(400)
        assert value == pytest.approx(oracle, abs=3 * se + 1e-3)

    def test_warm_tables_give_the_value_of_cleared_ones(self):
        xi = 7.0
        clear_tables()
        entropy_delta_plus_phase(2.0, SIGMA_6DEG, 5000, seed=4)  # fills the draws and units 0-3
        warm = entropy_delta_plus_phase(xi, SIGMA_6DEG, 5000, seed=4)
        clear_tables()
        assert entropy_delta_plus_phase(xi, SIGMA_6DEG, 5000, seed=4) == warm

    @pytest.mark.parametrize("snr_db", [10.0, 30.0])
    def test_unit_tables_match_the_per_xi_table(self, snr_db):
        # reference: one 257-node PCHIP table in log1p(kappa) per xi, spanning
        # that xi's draws, read through the interpolator
        def per_xi(xi, sigma, n, seed):
            z = sample_circular_gaussian(np.random.default_rng([seed, 0x5E1F]), n)
            t = np.log1p(2.0 * np.abs(xi + z) * xi)
            nodes = np.linspace(t.min(), t.max(), 257)
            h = entropy._conv_entropies(sigma, np.expm1(nodes))
            values = PchipInterpolator(nodes, h, extrapolate=True)(t)
            return values.mean(), values.std(ddof=1) / np.sqrt(n)

        for xi in (0.05, 1.0, np.sqrt(10 ** (snr_db / 10))):
            ref, se = per_xi(xi, SIGMA_6DEG, 100_000, 3)
            value, new_se = entropy_delta_plus_phase(xi, SIGMA_6DEG, 100_000, 3)
            assert abs(value - ref) <= 0.01 * se
            assert new_se == pytest.approx(se, rel=1e-4)
        clear_tables()

    def test_configuration_error(self):
        with pytest.raises(ConfigurationError):
            entropy_delta_plus_phase(1.0, SIGMA_6DEG, 50, seed=0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            entropy_delta_plus_phase(-1.0, SIGMA_6DEG, 1000, seed=0)
        with pytest.raises(DomainError):
            entropy_delta_plus_phase(1.0, 0.0, 1000, seed=0)
